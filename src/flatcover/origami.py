"""Square-tiled surfaces (origamis) as permutation pairs.

An origami is a transitive pair (h, v) of permutations of {0..n-1}: h(s) is
the square to the right of s, v(s) the square above.  Origamis are considered
up to simultaneous conjugation; `canonical_form` computes a canonical
relabeling, and equality/hashing go through it.

Homology is handled through "taxi paths": closed paths of unit moves
(E, N, W, S) between square centers.  A closed path is stored as one
chain, its skeleton coefficients: how often it is homologous to running along
the bottom edge (sigma_s) and left edge (tau_s) of each square.  These are also
its crossing counts of the right and top edges of each square, so the
algebraic intersection number of two classes, the signed count of crossings of
one path's edges by the other, is read off the two chains through h and v.
This makes intersection numbers, symplectic bases, winding numbers and the Arf
invariant exactly computable.

The spanning-tree cycles are built, not cached, for each call that needs
them.  `intersection` is the one integer pairing and `mod2_forms` the one
over F_2.  The Arf invariant is a symplectic Gram-Schmidt on the mod-2 Gram
rows of `mod2_forms`; an integer symplectic basis, reduced from the
`intersection` Gram matrix, is built only when `symplectic_basis` is asked
for.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
import json

from . import InvariantError
from .lshape import J4, check_prototype
from .perms import (Permutation, _canonical_pair, compose, cycle_text, cycles,
                    inverse_images, is_transitive, parse_cycles)


# ---------------------------------------------------------------------------
# homology cycles
# ---------------------------------------------------------------------------

#: the taxi directions in counterclockwise order: a left turn adds 1 mod 4
_MOVES = "ENWS"
_OPPOSITE = {mv: _MOVES[(i + 2) % 4] for i, mv in enumerate(_MOVES)}


@dataclass(frozen=True)
class Cycle:
    """An integer homology chain on an origami.

    sig/tau are coefficients of the path pushed onto the edge skeleton
    (sigma_s = bottom edge of square s, rightward; tau_s = left edge, upward).
    An E step from s runs along sigma_s and crosses the right edge of s, an N
    step runs along tau_s and crosses the top edge of s, so the path crosses
    the right edge of s sig[s] times (rightward positive) and the top edge
    tau[s] times (upward positive).  `moves` keeps the taxi moves when the
    cycle came from a single closed loop.
    """

    n: int
    sig: tuple[int, ...]
    tau: tuple[int, ...]
    moves: str | None = None

    @staticmethod
    def zero(n: int) -> "Cycle":
        z = (0,) * n
        return Cycle(n, z, z)

    @staticmethod
    def from_loop(o: "Origami", start: int, moves: str) -> "Cycle":
        n = o.n
        h, v = o.h.images, o.v.images
        hi, vi = inverse_images(h), inverse_images(v)
        sig = [0] * n
        tau = [0] * n
        s = start
        for ch in moves:
            if ch == "E":
                sig[s] += 1
                s = h[s]
            elif ch == "W":
                s = hi[s]
                sig[s] -= 1
            elif ch == "N":
                tau[s] += 1
                s = v[s]
            elif ch == "S":
                s = vi[s]
                tau[s] -= 1
            else:
                raise ValueError(f"unknown move {ch!r}")
        if s != start:
            raise ValueError("taxi path is not closed")
        return Cycle(n, tuple(sig), tuple(tau), moves)

    def __add__(self, other: "Cycle") -> "Cycle":
        if self.n != other.n:
            raise ValueError("cycles live on different origamis")
        add = lambda a, b: tuple(x + y for x, y in zip(a, b))
        return Cycle(self.n, add(self.sig, other.sig), add(self.tau, other.tau))

    def __sub__(self, other: "Cycle") -> "Cycle":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "Cycle":
        mul = lambda a: tuple(k * x for x in a)
        return Cycle(self.n, mul(self.sig), mul(self.tau))

    def __neg__(self) -> "Cycle":
        return (-1) * self


def intersection(o: Origami, a: Cycle, b: Cycle) -> int:
    """Algebraic intersection number a . b on the origami o: the signed count
    of b's crossings of a's edges.  b crosses the top edge of t, which is
    sigma_{v[t]}, b.tau[t] times upward, and the right edge of t, which is
    tau_{h[t]}, b.sig[t] times rightward, so
    a . b = sum_t b.tau[t] a.sig[v[t]] - b.sig[t] a.tau[h[t]]."""
    if not a.n == b.n == o.n:
        raise ValueError("cycles live on different origamis")
    h, v = o.h.images, o.v.images
    return sum(y * a.sig[v[t]] - x * a.tau[h[t]]
               for t, (x, y) in enumerate(zip(b.sig, b.tau)))


def mod2_forms(h, v, chains) -> list[tuple[int, int]]:
    """`intersection` mod 2 on the origami (h, v), packed: for each chain
    (sig, tau) the ints (read, packed) with a byte x & 1 per coefficient x.
    read is the chain read through v and h, [sig[t] for t in v] then
    [tau[t] for t in h], and packed is tau then sig, so byte by byte
    read_a & packed_b holds the terms a.sig[v[t]] b.tau[t] and
    a.tau[h[t]] b.sig[t], and its bit count is a . b mod 2."""
    return [(int.from_bytes(bytes([sig[t] & 1 for t in v] + [tau[t] & 1 for t in h]), "big"),
             int.from_bytes(bytes([x & 1 for x in tau + sig]), "big"))
            for sig, tau in chains]


def _reduce_cyclic(moves: list[str]) -> list[str]:
    """Cancel adjacent backtracks (EW, WE, NS, SN), cyclically."""
    changed = True
    while changed and moves:
        changed = False
        out: list[str] = []
        for ch in moves:
            if out and out[-1] == _OPPOSITE[ch]:
                out.pop()
                changed = True
            else:
                out.append(ch)
        while len(out) >= 2 and out[0] == _OPPOSITE[out[-1]]:
            out = out[1:-1]
            changed = True
        moves = out
    return moves


def winding_index(cycle: Cycle) -> int:
    """Turning number (right turns - left turns)/4 of a smoothed taxi loop."""
    if cycle.moves is None:
        raise ValueError("winding index needs an explicit taxi loop")
    seq = _reduce_cyclic(list(cycle.moves))
    if not seq:
        return 0
    left = right = 0
    for a, b in zip(seq, seq[1:] + seq[:1]):
        d = (_MOVES.index(b) - _MOVES.index(a)) % 4
        if d == 1:
            left += 1
        elif d == 3:
            right += 1
        elif d == 2:
            raise ValueError("reduced loop still backtracks")
    if (right - left) % 4:
        raise InvariantError("turning count of a closed loop is not a multiple of 4")
    return (right - left) // 4


# ---------------------------------------------------------------------------
# integer symplectic reduction
# ---------------------------------------------------------------------------

def symplectic_reduce(gram: list[list[int]]) -> list[list[int]]:
    """Integer coordinate vectors (a1, b1, a2, b2, ...) for an antisymmetric
    Gram matrix whose nondegenerate quotient is unimodular.

    Returns 2g vectors with pairing(a_i, b_i) = 1 and all other pairings 0.
    """
    m = len(gram)

    def pair(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(m) for j in range(m)
                   if gram[i][j])

    remaining = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    basis: list[list[int]] = []
    while True:
        best = None
        for i in range(len(remaining)):
            for j in range(i + 1, len(remaining)):
                g = pair(remaining[i], remaining[j])
                if g and (best is None or abs(g) < abs(best[2])):
                    best = (i, j, g)
        if best is None:
            break
        i, j, g = best
        u, v = remaining[i], remaining[j]
        if g < 0:
            u, v = v, u
        others = [w for k, w in enumerate(remaining) if k not in (i, j)]
        # Euclid until pair(u, v) divides all pairings with u and v
        while True:
            g = pair(u, v)
            if g < 0:
                u, v = v, u
                g = -g
            for w in others:
                a = pair(u, w)
                if a % g:
                    v = [x - (a // g) * y for x, y in zip(w, v)]
                    break
                bb = pair(w, v)
                if bb % g:
                    u = [x - (bb // g) * y for x, y in zip(w, u)]
                    break
            else:
                break
        if g != 1:
            raise InvariantError("intersection form is not unimodular on the quotient")
        cleared = []
        for w in others:
            a = pair(u, w)
            bb = pair(v, w)
            cleared.append([x - a * y + bb * z for x, y, z in zip(w, v, u)])
        basis.extend([u, v])
        remaining = cleared
    return basis


def lattice_index(vectors) -> int:
    """Index in Z^2 of the lattice spanned by integer vectors (x, y): the gcd
    of their 2x2 minors, 0 when they span less than rank 2."""
    vectors = list(vectors)
    g = 0
    for i, (a, b) in enumerate(vectors):
        for c, d in vectors[i + 1:]:
            g = gcd(g, a * d - b * c)
    return g


# ---------------------------------------------------------------------------
# strata and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    zero_orders: tuple[int, ...]  # sorted descending
    genus: int

    def __str__(self) -> str:
        if not self.zero_orders:
            return "torus"
        return "H(" + ",".join(str(k) for k in self.zero_orders) + ")"


@dataclass(frozen=True)
class OrbitReport:
    size: int
    stratum: str
    reduced: bool
    representatives: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps({
            "size": self.size,
            "stratum": self.stratum,
            "reduced": self.reduced,
            "representatives": list(self.representatives),
        })


class OrbitCapExceeded(RuntimeError):
    def __init__(self, partial_count: int):
        super().__init__(f"orbit cap exceeded after {partial_count} forms")
        self.partial_count = partial_count


# ---------------------------------------------------------------------------
# the Origami class
# ---------------------------------------------------------------------------

def _origami_text(h, v) -> str:
    """The text form "n=... h=... v=..." of the pair with these image tuples."""
    return f"n={len(h)} h={cycle_text(h)} v={cycle_text(v)}"


class Origami:
    __slots__ = ("h", "v", "_canon")

    def __init__(self, h: Permutation, v: Permutation):
        if h.n != v.n:
            raise ValueError("h and v have different degrees")
        if not is_transitive([h, v], h.n):
            raise ValueError("permutation pair is not transitive")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, *a):
        raise AttributeError("Origami is immutable")

    @property
    def n(self) -> int:
        return self.h.n

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        return _origami_text(self.h.images, self.v.images)

    @staticmethod
    def from_text(text: str) -> "Origami":
        parts = dict()
        for tok in text.split():
            if "=" not in tok:
                raise ValueError(f"malformed origami text {text!r}")
            key, _, val = tok.partition("=")
            if key not in ("n", "h", "v") or key in parts:
                raise ValueError(f"unknown or repeated key {key!r} in {text!r}")
            parts[key] = val
        try:
            n = int(parts["n"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed origami text {text!r}") from exc
        if "h" not in parts or "v" not in parts:
            raise ValueError(f"malformed origami text {text!r}")
        # a transitive pair of degree >= 2 fixes no square under both h and
        # v, so each square is written in a cycle: check before allocating
        written = sum(parts[k].count("(") + parts[k].count(",") for k in "hv")
        if n >= 2 and n > written:
            raise ValueError(f"n={n} exceeds the {written} square indices "
                             f"written in h and v; the pair is not transitive")
        return Origami(parse_cycles(parts["h"], n), parse_cycles(parts["v"], n))

    def __repr__(self) -> str:
        return f"Origami({self.to_text()!r})"

    # -- canonical form ----------------------------------------------------

    def canonical_form(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Lexicographically least relabeling (hn, vn) over BFS from every
        start square with edge order (h, v, h^-1, v^-1); cached.

        A start is dropped as soon as an entry of its hn exceeds the best hn
        so far, and vn is compared only when hn ties (see `_canonical_pair`).
        `sl2z_orbit_graph` also passes the seed's translations, so that the
        translation images of earlier starts are skipped; the result and the
        relabelling `order` do not change.
        """
        if self._canon is None:
            hn, vn, _ = _canonical_pair(self.h.images, self.v.images)
            object.__setattr__(self, "_canon", (hn, vn))
        return self._canon

    def __eq__(self, other) -> bool:
        return isinstance(other, Origami) and self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    # -- stratum -----------------------------------------------------------

    def vertex_cycles(self) -> list[tuple[int, ...]]:
        """Cycles of the vertex rotation h v h^-1 v^-1; one per cone/marked
        point, the cycle listing squares with that point at bottom-left."""
        h, v = self.h.images, self.v.images
        hi, vi = inverse_images(h), inverse_images(v)
        return cycles([h[v[hi[vi[s]]]] for s in range(self.n)], include_fixed=True)

    def stratum(self) -> Stratum:
        orders = sorted((len(c) - 1 for c in self.vertex_cycles() if len(c) >= 2),
                        reverse=True)
        total = sum(orders)
        if total % 2:
            raise InvariantError("odd total cone angle excess")
        return Stratum(tuple(orders), total // 2 + 1)

    # -- SL(2,Z) action ----------------------------------------------------

    def act_matrix(self, M) -> "Origami":
        h, v = self.h.images, self.v.images
        # left action: act(act(o, A), B) = act(o, B A), so the rightmost
        # factor of the product is applied first
        for tok in reversed(sl2z_word(M)):
            h, v = act_generator(h, v, tok)
        return Origami(Permutation(h), Permutation(v))

    def veech_contains(self, M) -> bool:
        _check_det_one(M)
        return self.act_matrix(M).canonical_form() == self.canonical_form()

    def sl2z_orbit_forms(self, cap: int = 10**6) -> set:
        """Canonical forms of the full SL(2,Z)-orbit: the members of
        `sl2z_orbit_graph`.  Raises OrbitCapExceeded once more than
        `cap` >= 1 forms are found."""
        return set(sl2z_orbit_graph(self.h.images, self.v.images, cap).members)

    def sl2z_orbit(self, cap: int = 10**6) -> OrbitReport:
        reps = sorted(self.sl2z_orbit_forms(cap))
        texts = tuple(_origami_text(h, v) for h, v in reps)
        return OrbitReport(len(reps), str(self.stratum()), self.is_reduced(), texts)

    # -- translations and quotients ---------------------------------------

    def translations(self) -> list[Permutation]:
        """All permutations commuting with both h and v (the deck group of
        the origami over its translation quotients); see
        `translation_images`."""
        return [Permutation(t) for t in translation_images(self.h.images, self.v.images)]

    def quotient_by_translation(self, t: Permutation) -> "Origami":
        if t.n != self.n or t.is_identity():
            raise ValueError("t must be a nontrivial translation of this origami")
        if compose(t, self.h) != compose(self.h, t) or \
           compose(t, self.v) != compose(self.v, t):
            raise ValueError("t does not commute with (h, v)")
        # orbits of <t>; free action means all orbits have size ord(t)
        orbits = cycles(t.images, include_fixed=True)
        orbit = [0] * self.n
        for idx, members in enumerate(orbits):
            for x in members:
                orbit[x] = idx
        sizes = {len(m) for m in orbits}
        if len(sizes) != 1 or sizes == {1}:
            raise ValueError("translation does not act freely")
        h_q = [orbit[self.h(m[0])] for m in orbits]
        v_q = [orbit[self.v(m[0])] for m in orbits]
        return Origami(Permutation(h_q), Permutation(v_q))

    # -- homology ----------------------------------------------------------

    def _fundamental_cycles(self) -> list[Cycle]:
        """The n + 1 fundamental cycles of `spanning_tree`, built on every
        call: each edge off the tree closes one, right edges before top
        edges, by square."""
        n = self.n
        h, v = self.h.images, self.v.images
        tree = spanning_tree(h, v)
        # path[t] is the taxi path from square 0 to t along the tree
        path = [""] * n
        for parent, child, (kind, _), direction in tree:
            path[child] = path[parent] + (kind if direction == 1 else _OPPOSITE[kind])
        used_edges = {edge for _, _, edge, _ in tree}

        cycles: list[Cycle] = []
        for kind in ("E", "N"):
            for s in range(n):
                if (kind, s) in used_edges:
                    continue
                t = h[s] if kind == "E" else v[s]
                moves = path[s] + kind + "".join(_OPPOSITE[c] for c in reversed(path[t]))
                cycles.append(Cycle.from_loop(self, 0, moves))
        if len(cycles) != n + 1:
            raise InvariantError(f"{len(cycles)} fundamental cycles, not n + 1")
        return cycles

    def symplectic_basis(self) -> list[Cycle]:
        """2g cycles (a1, b1, a2, b2, ...) with standard symplectic Gram,
        reduced from the `intersection` Gram matrix of the fundamental
        cycles, which only this method needs over the integers."""
        cycles = self._fundamental_cycles()
        gram = [[intersection(self, a, b) for b in cycles] for a in cycles]
        out = []
        for vec in symplectic_reduce(gram):
            c = Cycle.zero(self.n)
            for k, cyc in zip(vec, cycles):
                if k:
                    c = c + k * cyc
            out.append(c)
        return out

    # -- periods and reducedness -------------------------------------------

    def is_reduced(self) -> bool:
        """Whether the relative periods span Z^2.

        The steps of `spanning_tree` place the bottom-left corner of every
        square in the plane: a step across a right edge moves by (+-1, 0),
        one across a top edge by (0, +-1).  Each right or top gluing then
        gives a period (zero on tree edges, an absolute period on the others;
        the lattice they span does not depend on the tree), and the corners
        of the zeros give the periods between zeros.
        """
        h, v = self.h.images, self.v.images
        pos = [(0, 0)] * self.n
        for parent, child, (kind, _), direction in spanning_tree(h, v):
            x, y = pos[parent]
            pos[child] = (x + direction, y) if kind == "E" else (x, y + direction)
        gens = []
        for s, (x, y) in enumerate(pos):
            (xh, yh), (xv, yv) = pos[h[s]], pos[v[s]]
            gens += [(x + 1 - xh, y - yh), (x - xv, y + 1 - yv)]
        corners = [pos[c[0]] for c in self.vertex_cycles() if len(c) >= 2]
        gens += [(x - corners[0][0], y - corners[0][1]) for x, y in corners[1:]]
        return lattice_index(gens) == 1

    # -- Arf ---------------------------------------------------------------

    def arf_invariant(self) -> int:
        """Arf invariant of the spin structure q(c) = winding_index(c) + 1
        mod 2, computed over F_2 from the fundamental cycles.

        Vectors are bitmasks over the fundamental cycles, each with a mod-2
        Gram row g (bit j of cycle i's row is the parity of read_i & packed_j
        from `mod2_forms`) and its value q.  A vector x and a partner y with
        b(x, y) = 1 form a hyperbolic pair and add q(x) q(y) to the Arf
        invariant; every other w becomes w + b(w, y) x + b(w, x) y, with
        q(w + x) = q(w) + q(x) + b(w, x).  Each vector keeps the Gram row of
        the cycle it started as: the two differ by rows of vectors already
        paired off, which pair to zero with every vector still left.  A
        vector with no partner spans the radical (the classes null-homologous
        on the closed surface), so q must vanish on it, and the pairs must
        number the genus.
        """
        st = self.stratum()
        if any(k % 2 for k in st.zero_orders):
            raise ValueError("Arf invariant needs all zero orders even")
        cycles = self._fundamental_cycles()
        forms = mod2_forms(self.h.images, self.v.images, [(c.sig, c.tau) for c in cycles])
        vecs = []
        for i, (c, (read, _)) in enumerate(zip(cycles, forms)):
            g = sum(((read & packed).bit_count() & 1) << j
                    for j, (_, packed) in enumerate(forms))
            vecs.append((1 << i, g, (winding_index(c) + 1) % 2))
        arf = pairs = 0
        while vecs:
            x, gx, qx = vecs.pop()
            for k, (y, _, _) in enumerate(vecs):
                if (gx & y).bit_count() % 2:
                    break
            else:
                if qx:
                    raise InvariantError("q is 1 on a null-homologous class")
                continue
            _, gy, qy = vecs.pop(k)
            arf ^= qx & qy
            pairs += 1
            for k, (w, gw, qw) in enumerate(vecs):
                bx = (gx & w).bit_count() % 2
                if (gy & w).bit_count() % 2:
                    # b(w + x, y) = 0, so adding y below needs no correction
                    w, qw = w ^ x, qw ^ qx ^ bx
                if bx:
                    w, qw = w ^ y, qw ^ qy
                vecs[k] = (w, gw, qw)
        if pairs != st.genus:
            raise InvariantError(f"{pairs} hyperbolic pairs mod 2, genus {st.genus}")
        return arf


# ---------------------------------------------------------------------------
# the SL(2,Z) action and matrix words
# ---------------------------------------------------------------------------

def act_generator(h, v, g: str):
    """The image tuples of the origami (h, v) acted on by the generator g:
    L: h -> v^-1 h, R: v -> h^-1 v, their inverses Linv: h -> v h and
    Rinv: v -> h v, and -I: (h, v) -> (h^-1, v^-1)."""
    if g == "L":
        vi = inverse_images(v)
        return tuple([vi[t] for t in h]), v
    if g == "Linv":
        return tuple([v[t] for t in h]), v
    if g == "R":
        hi = inverse_images(h)
        return h, tuple([hi[t] for t in v])
    if g == "Rinv":
        return h, tuple([h[t] for t in v])
    if g == "-I":
        return tuple(inverse_images(h)), tuple(inverse_images(v))
    raise ValueError(f"unknown generator {g!r}")


def translation_images(h, v) -> list[list[int]]:
    """Image lists of all permutations commuting with both h and v, for the
    transitive pair (h, v): the one sending square 0 to k, for each k that
    admits one, in increasing k (the identity first)."""
    n = len(h)
    maps = (h, v, inverse_images(h), inverse_images(v))
    result = []
    for k in range(n):
        t = [-1] * n
        t[0] = k
        stack = [0]
        ok = True
        while stack and ok:
            s = stack.pop()
            for m in maps:
                s2 = m[s]
                im = m[t[s]]
                if t[s2] < 0:
                    t[s2] = im
                    stack.append(s2)
                elif t[s2] != im:
                    ok = False
                    break
        if ok:
            result.append(t)
    return result


def spanning_tree(h, v) -> list[tuple[int, int, tuple[str, int], int]]:
    """The BFS spanning tree from square 0 of the square-adjacency graph of
    the origami (h, v), with edge order (h, v, h^-1, v^-1), listed in
    discovery order as (parent, child, edge, direction): edge is ('E'|'N', s),
    the right or top edge of square s, and direction is +1 when the step
    crosses it forward (E, N) and -1 when backward (W, S).
    """
    hi, vi = inverse_images(h), inverse_images(v)
    seen = [False] * len(h)
    seen[0] = True
    tree = []
    order = [0]
    for s in order:
        for t, kind, direction in ((h[s], "E", 1), (v[s], "N", 1),
                                   (hi[s], "E", -1), (vi[s], "N", -1)):
            if not seen[t]:
                seen[t] = True
                # a backward step crosses an edge of the square it reaches
                tree.append((s, t, (kind, s if direction == 1 else t), direction))
                order.append(t)
    return tree


@dataclass(frozen=True)
class OrbitGraph:
    """The SL(2,Z)-orbit of an origami as a graph on canonical forms.

    members[0] is the canonical form of the input pair and `seed_order` its
    relabelling: seed_order[k] is the input square with label k.  edges[i]
    holds, for L and then R, the pair (j, order): act_generator(members[i], g)
    relabelled by `order` (its square order[k] gets label k) is members[j].
    """

    members: list[tuple[tuple[int, ...], tuple[int, ...]]]
    edges: list[tuple[tuple[int, list[int]], tuple[int, list[int]]]]
    seed_order: list[int]


def sl2z_orbit_graph(h, v, cap: int = 10**6) -> OrbitGraph:
    """The SL(2,Z)-orbit graph of the origami (h, v), by BFS over L and R.

    L and R generate SL(2,Z), the orbit is finite and each of them acts on it
    as a bijection, so L^-1 and R^-1 act as powers of L and R there and the
    forward closure is the whole orbit.  The pairs stay transitive, since
    <v^-1 h, v> = <h, v> = <h, h^-1 v>.  Raises OrbitCapExceeded once more
    than `cap` >= 1 forms are found.

    A translation t of (h, v) commutes with v^-1 h and h^-1 v too, so every
    member has the seed's translation group; along an edge relabelled by
    `order` (pos its inverse) t becomes [pos[t[x]] for x in order].  A
    generating set of it goes with each member until the member is expanded,
    and `_canonical_pair` skips the translation images of earlier starts.
    """
    if cap < 1:
        raise ValueError("orbit cap must be at least 1")
    # a translation is fixed by its image of square 0, so a greedy generating
    # set grows `reached`, the orbit of 0, until no translation is left out
    gens = []
    reached = {0}
    for t in translation_images(h, v):
        if t[0] not in reached:
            gens.append(t)
            queue = list(reached)
            for x in queue:
                for g in gens:
                    if g[x] not in reached:
                        reached.add(g[x])
                        queue.append(g[x])
    hn, vn, seed_order = _canonical_pair(h, v, gens)
    pos = inverse_images(seed_order)
    members = [(hn, vn)]
    pending = [[[pos[t[x]] for x in seed_order] for t in gens]]
    index = {members[0]: 0}
    edges = []
    for i, (h, v) in enumerate(members):
        gens, pending[i] = pending[i], None
        out = []
        for g in ("L", "R"):
            hn, vn, order = _canonical_pair(*act_generator(h, v, g), gens)
            j = index.get((hn, vn))
            if j is None:
                if len(members) >= cap:
                    raise OrbitCapExceeded(len(members))
                j = index[hn, vn] = len(members)
                members.append((hn, vn))
                pos = inverse_images(order)
                pending.append([[pos[t[x]] for x in order] for t in gens])
            out.append((j, order))
        edges.append(tuple(out))
    return OrbitGraph(members, edges, seed_order)


def _check_det_one(M) -> tuple[int, int, int, int]:
    (a, b), (c, d) = M
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    return a, b, c, d


def sl2z_word(M) -> list[str]:
    """Decompose M in SL(2,Z) as a product of L, R, their inverses and -I,
    by Euclid on the first column with S = R^-1 L R^-1 = [[0,-1],[1,0]].

    Returns the factors of the product read left to right; applying them to an
    origami under the left action means applying the last token first.
    """
    a, b, c, d = _check_det_one(M)
    tokens: list[str] = []

    def emit(gen: str, power: int):
        tokens.extend([gen if power > 0 else gen + "inv"] * abs(power))

    while c != 0:
        q = a // c
        emit("R", q)
        a, b = a - q * c, b - q * d
        tokens.extend(["Rinv", "L", "Rinv"])
        a, b, c, d = c, d, -a, -b
    if a == -1:
        tokens.append("-I")
        b = -b
    emit("R", b)
    return tokens


# ---------------------------------------------------------------------------
# L-shaped origamis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LOrigami:
    """The reduced L-shaped origami for a square discriminant D = e^2+4b = d^2,
    together with its distinguished symplectic homology basis (a1, b1, a2, b2).
    """

    origami: Origami
    b: int
    e: int
    d: int
    lam: int
    basis: tuple[Cycle, Cycle, Cycle, Cycle]

    @property
    def n(self) -> int:
        return self.origami.n


def l_origami(b: int, e: int) -> LOrigami:
    """L-shaped origami with a column of lam squares above a row of lam-e
    squares, lam = (e+d)/2, total d squares."""
    check_prototype(b, e)
    D = e * e + 4 * b
    d = isqrt(D)
    if d * d != D:
        raise ValueError(f"D = {D} is not a perfect square")
    lam = (e + d) // 2
    row = lam - e          # squares 0 .. row-1
    # squares row .. d-1 form the column above square 0
    h = Permutation.from_cycles(d, [list(range(row))])
    v = Permutation.from_cycles(d, [[0] + list(range(row, d))])
    o = Origami(h, v)
    a1 = Cycle.from_loop(o, row, "E")
    b1 = Cycle.from_loop(o, 0, "N" * (lam + 1)) - Cycle.from_loop(o, 1, "N")
    a2 = Cycle.from_loop(o, 0, "E" * row)
    b2 = Cycle.from_loop(o, 1, "N")
    basis = (a1, b1, a2, b2)
    # defining property of the basis
    gram = tuple(tuple(intersection(o, x, y) for y in basis) for x in basis)
    if gram != J4:
        raise InvariantError(f"basis of l_origami({b},{e}) is not symplectic")
    return LOrigami(o, b, e, d, lam, basis)
