"""Square-tiled surfaces (origamis) as permutation pairs.

An origami is a transitive pair (h, v) of permutations of {0..n-1}: h(s) is
the square to the right of s, v(s) the square above.  Origamis are considered
up to simultaneous conjugation; `canonical_form` computes a canonical
relabeling, and equality/hashing go through it.

SL(2,Z) acts on origamis through `act_generator`, and `sl2z_orbit_walk` is
the one orbit enumerator.  It walks the cycles of S = R^-1 L R^-1 and
U = R^-1 L, which present PSL(2,Z) = Z/2 * Z/3, and hands back the members
(`Origami.sl2z_orbit_forms` keeps only these) and every step it computes,
with the relabelling onto the member it reaches, along which
`covers.weierstrass_action` pushes the six Weierstrass points
(`weierstrass_points`) and `covers.affine_action_mod2` homology frames.
S sends (h, v) to (v^-1, v^-1 h v) and U to (v^-1 h, v^-1 h v); relabelled
by v these are (v^-1, h) and (h v^-1, h), pairs on the same squares with
the same translations, so the seed's translation-orbit labels carry over.
-I is
central, so it fixes every member exactly when it fixes the seed, and the
last step of each S-pair or U-triangle (of each 4- or 6-cycle when -I moves
the seed) is known to close it and needs no canonical form.

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
over F_2, byte-sliced: a lane (`mod2_lane`) holds up to 8 chains mod 2 as
two byte strings (sig, tau) whose byte per square has chain k in bit k, and
is read with big-int AND and bit counts.  Symplectic bases and the Arf
invariant need no integer `Cycle`: `_tree_cycles` gives every fundamental
cycle's chain mod 2 and winding number in one walk of the tree,
`_tree_cotree` keeps 2g of them as a basis of the homology, and
`symplectic_reduce`, the one symplectic Gram-Schmidt, pairs them over F_2
(`_reduced_split`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, isqrt
from operator import xor
import json

from . import InvariantError
from .lshape import J4, is_prototype
from .perms import (Permutation, _canonical_pair, compose, cycle_text, cycles,
                    inverse_images, is_transitive, parse_cycles)


# ---------------------------------------------------------------------------
# homology cycles
# ---------------------------------------------------------------------------

#: the taxi directions in counterclockwise order: a left turn adds 1 mod 4
_MOVES = "ENWS"
_OPPOSITE = {mv: _MOVES[(i + 2) % 4] for i, mv in enumerate(_MOVES)}
#: the one turn rule: _TURN[a + b] is +1 when move b turns left from move a,
#: -1 when it turns right and 0 when it goes straight on; a backtrack has no
#: entry
_TURN = {a + b: (0, 1, None, -1)[(j - i) % 4]
         for i, a in enumerate(_MOVES) for j, b in enumerate(_MOVES) if (j - i) % 4 != 2}


@dataclass(frozen=True)
class Cycle:
    """An integer homology chain on an origami.

    sig/tau are coefficients of the path pushed onto the edge skeleton
    (sigma_s = bottom edge of square s, rightward; tau_s = left edge, upward).
    An E step from s runs along sigma_s and crosses the right edge of s, an N
    step runs along tau_s and crosses the top edge of s, so the path crosses
    the right edge of s sig[s] times (rightward positive) and the top edge
    tau[s] times (upward positive).  `moves` keeps the taxi moves when the
    cycle came from a single closed loop.  A closed chain carries as much
    flow into each square as out of it; the 0/1 chains of
    `Origami.symplectic_basis` are closed mod 2 only.
    """

    n: int
    sig: tuple[int, ...]
    tau: tuple[int, ...]
    moves: str | None = None

    @staticmethod
    def from_loop(o: "Origami", start: int, moves: str) -> "Cycle":
        h, v = o.h.images, o.v.images
        return Cycle._replay(h, v, inverse_images(h), inverse_images(v), start, moves)

    @staticmethod
    def _replay(h, v, hi, vi, start: int, moves: str) -> "Cycle":
        """`from_loop` on the origami (h, v), given hi and vi, the images of
        h^-1 and v^-1."""
        n = len(h)
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


def mod2_lane(chains) -> tuple[bytes, bytes]:
    """Up to 8 chains (sig, tau) on one origami, reduced mod 2 into one lane:
    two byte strings (sig, tau) with one byte per square, whose bit k is
    chain k's coefficient there mod 2."""
    if not 1 <= len(chains) <= 8:
        raise ValueError("a lane holds 1 to 8 chains")
    sig = tau = 0
    for k, (s, t) in enumerate(chains):
        sig |= int.from_bytes(bytes([x & 1 for x in s]), "big") << k
        tau |= int.from_bytes(bytes([x & 1 for x in t]), "big") << k
    n = len(chains[0][0])
    return sig.to_bytes(n, "big"), tau.to_bytes(n, "big")


def mod2_forms(h, v, sig, tau, width: int) -> tuple[list[int], list[int]]:
    """`intersection` mod 2 on the origami (h, v) for the `width` chains of
    the lane (sig, tau) (`mod2_lane`), byte-sliced.

    read is the lane read through v and h, [sig[t] for t in v] then
    [tau[t] for t in h], and packed is tau then sig, each one int with a byte
    per entry.  Byte by byte, bit k of read and bit l of packed hold the terms
    a.sig[v[t]] b.tau[t] and a.tau[h[t]] b.sig[t] of a . b for a = chain k,
    b = chain l.  Returns (reads, packs): reads[k] is bit k of every byte of
    read and packs[l] is packed >> l, so a . b mod 2 is the parity of the bit
    count of reads[k] & packs[l].  Chains of another lane on (h, v) pair with
    these through their own reads and packs in the same way."""
    if not 1 <= width <= 8:
        raise ValueError("a lane holds 1 to 8 chains")
    ones = int.from_bytes(b"\1" * (2 * len(h)), "big")
    read = int.from_bytes(bytes([sig[t] for t in v] + [tau[t] for t in h]), "big")
    packed = int.from_bytes(tau + sig, "big")
    return [(read >> k) & ones for k in range(width)], [packed >> l for l in range(width)]


def _reduce_cyclic(moves: list[str]) -> list[str]:
    """Cancel adjacent backtracks (EW, WE, NS, SN), cyclically."""
    out: list[str] = []
    for ch in moves:
        if out and out[-1] == _OPPOSITE[ch]:
            out.pop()
        else:
            out.append(ch)
    # out is freely reduced, and stripping inverse end pairs keeps it so
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == _OPPOSITE[out[j - 1]]:
        i += 1
        j -= 1
    return out[i:j]


def winding_index(cycle: Cycle) -> int:
    """Turning number (right turns - left turns)/4 of a smoothed taxi loop."""
    if cycle.moves is None:
        raise ValueError("winding index needs an explicit taxi loop")
    seq = _reduce_cyclic(list(cycle.moves))
    turning = 0
    for a, b in zip(seq, seq[1:] + seq[:1]):
        turn = _TURN.get(a + b)
        if turn is None:
            raise ValueError("reduced loop still backtracks")
        turning += turn
    return _winding(turning)


def _winding(turning: int) -> int:
    """The winding index of a closed loop whose turns (`_TURN`) add up to
    `turning`."""
    if turning % 4:
        raise InvariantError("turning count of a closed loop is not a multiple of 4")
    return -turning // 4


# ---------------------------------------------------------------------------
# symplectic reduction over F_2
# ---------------------------------------------------------------------------

def symplectic_reduce(rows) -> list[tuple[int, int]]:
    """Symplectic Gram-Schmidt over F_2 for the alternating form with these
    Gram rows (bit j of rows[i] is vector i . vector j): hyperbolic pairs
    (x, y), bitmasks over the vectors, with x . y = 1 and all other pairings
    among them 0.  The last vector x and its first partner y form a pair, and
    every other w becomes w + (w . y) x + (w . x) y, its pairings read off
    the row it started as, since the two differ by vectors already paired
    off.  A vector with no partner is skipped; callers count the pairs.
    """
    vecs = [(1 << i, row) for i, row in enumerate(rows)]
    pairs = []
    while vecs:
        x, gx = vecs.pop()
        for k, (y, _) in enumerate(vecs):
            if (gx & y).bit_count() & 1:
                break
        else:
            continue
        del vecs[k]
        pairs.append((x, y))
        for k, (w, gw) in enumerate(vecs):
            if (gw & y).bit_count() & 1:
                w ^= x
            if (gw & x).bit_count() & 1:
                w ^= y
            vecs[k] = (w, gw)
    return pairs


def lattice_index(vectors) -> int:
    """Index in Z^2 of the lattice spanned by integer vectors (x, y): the gcd
    of their 2x2 minors, 0 when they span less than rank 2."""
    vectors = list(vectors)
    g = 0
    for i, (a, b) in enumerate(vectors):
        for c, d in vectors[i + 1:]:
            g = gcd(g, a * d - b * c)
            if g == 1:
                return 1
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


def _stratum(vertex_cycles) -> Stratum:
    """The stratum of an origami with these `Origami.vertex_cycles`."""
    orders = sorted((len(c) - 1 for c in vertex_cycles if len(c) >= 2), reverse=True)
    total = sum(orders)
    if total % 2:
        raise InvariantError("odd total cone angle excess")
    return Stratum(tuple(orders), total // 2 + 1)


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
        """Lexicographically least relabeling (hn, vn) over BFS with edge
        order (h, v) from every square whose top-right corner is a cone point,
        or from square 0 of a torus, where every start gives the same
        relabeling; cached.

        The set of these squares is kept by every relabelling, so the key is
        complete.  The starts play a lazy tournament on hn, vn is compared
        only when hn ties, and only the winner's BFS runs to the end (see
        `_canonical_pair`).  The orbit enumeration `sl2z_orbit_walk` uses
        the same key, so a member is found by the canonical form of any pair
        in the orbit; it also passes the seed's translation orbits, so that
        only the first start of each orbit is tried, and the result and the
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
        """Cycles of `vertex_rotation`, h v h^-1 v^-1; one per cone/marked
        point, the cycle listing squares with that point at bottom-left."""
        return cycles(vertex_rotation(self.h.images, self.v.images), include_fixed=True)

    def stratum(self) -> Stratum:
        return _stratum(self.vertex_cycles())

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
        """Canonical forms of the full SL(2,Z)-orbit, the members found by
        `sl2z_orbit_walk` over the cycles of S and U, about 7/6 canonical
        forms per member.  Raises OrbitCapExceeded once more than `cap` >= 1
        forms are found."""
        return set(sl2z_orbit_walk(self.h.images, self.v.images, cap).members)

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
        hi, vi = inverse_images(h), inverse_images(v)
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
                cycles.append(Cycle._replay(h, v, hi, vi, 0, moves))
        if len(cycles) != n + 1:
            raise InvariantError(f"{len(cycles)} fundamental cycles, not n + 1")
        return cycles

    def _reduced_split(self):
        """The `_tree_cotree` split over F_2, as (stratum, chains, reads, packs,
        rows, pairs): the (chain, wind) of the 2g basis cycles, then of the
        co-tree cycles, 8 to a lane for `mod2_forms`, so chain i . chain j mod 2
        is the parity of reads[i] & packs[j] (bit j of rows[i] for j < 2g), and
        the `symplectic_reduce` pairs of the basis, which must number the genus."""
        vertex_cycles = self.vertex_cycles()
        st = _stratum(vertex_cycles)
        h, v, n = self.h.images, self.v.images, self.n
        basis, cotree = _tree_cotree(h, v, vertex_cycles)
        m = len(basis)
        if m != 2 * st.genus:
            raise InvariantError(f"{m} tree-cotree basis cycles, genus {st.genus}")
        chains = basis + cotree
        reads, packs = [], []
        for i in range(0, len(chains), 8):
            lane = chains[i:i + 8]
            packed = sum(c << k for k, (c, _) in enumerate(lane)).to_bytes(2 * n, "big")
            r, p = mod2_forms(h, v, packed[:n], packed[n:], len(lane))
            reads += r
            packs += p
        rows = [sum(((read & packed).bit_count() & 1) << j for j, packed in enumerate(packs[:m]))
                for read in reads]
        pairs = symplectic_reduce(rows[:m])
        if len(pairs) != st.genus:
            raise InvariantError(f"{len(pairs)} hyperbolic pairs mod 2, genus {st.genus}")
        return st, chains, reads, packs, rows, pairs

    def symplectic_basis(self) -> list[Cycle]:
        """2g 0/1 chains (a1, b1, a2, b2, ...), closed mod 2, with the
        standard symplectic Gram matrix mod 2: the XORs of the `_tree_cotree`
        basis chains given by the `_reduced_split` pairs.  A basis mod 2 only:
        Z/m covers with m >= 3 need an integer one, such as `l_origami`'s."""
        _, chains, *_, pairs = self._reduced_split()
        n = self.n
        sums = [reduce(xor, [c for i, (c, _) in enumerate(chains) if mask >> i & 1])
                for pair in pairs for mask in pair]
        return [Cycle(n, tuple(bits[:n]), tuple(bits[n:]))
                for bits in (c.to_bytes(2 * n, "big") for c in sums)]

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
        mod 2, over F_2 on the basis of `_reduced_split`: each of its pairs
        (x, y) adds q(x) q(y), with q(w + x) = q(w) + q(x) + b(w, x).

        Each co-tree cycle c plus its projection p = sum b(c, y) x + b(c, x) y
        onto the pairs pairs to zero with the basis.  Checking
        c_e . c_f = p_e . c_f for co-tree cycles e < f makes these residuals
        pair to zero with each other too, so the mod-2 Gram of the n + 1
        cycles has rank 2g and the residuals span its radical, the classes
        null-homologous on the closed surface: q must vanish on each of them.
        """
        st, chains, reads, packs, rows, pairs = self._reduced_split()
        if any(k % 2 for k in st.zero_orders):
            raise ValueError("Arf invariant needs all zero orders even")
        q = [(w + 1) % 2 for _, w in chains]

        # q of a sum of basis cycles
        def q_sum(mask):
            total = 0
            while mask:
                i = mask.bit_length() - 1
                mask ^= 1 << i
                total ^= q[i] ^ ((rows[i] & mask).bit_count() & 1)
            return total

        qpairs = [(x, y, q_sum(x), q_sum(y)) for x, y in pairs]
        arf = sum(qx & qy for _, _, qx, qy in qpairs) % 2
        for e in range(2 * st.genus, len(chains)):
            w, qw, row, read = 1 << e, q[e], rows[e], reads[e]
            for x, y, qx, qy in qpairs:
                by = (row & y).bit_count() & 1
                if by:
                    w, qw = w ^ x, qw ^ qx
                if (row & x).bit_count() & 1:
                    w, qw = w ^ y, qw ^ qy ^ by
            for f in range(e + 1, len(chains)):
                if ((read & packs[f]).bit_count() + (w & rows[f]).bit_count()) % 2:
                    raise InvariantError("mod-2 Gram of the fundamental cycles has rank above 2g")
            if qw:
                raise InvariantError("q is 1 on a null-homologous class")
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
    return _intertwiners(h, v, h, v)


def _intertwiners(h, v, h2, v2) -> list[list[int]]:
    """Image lists of all maps t with t h = h2 t and t v = v2 t, for the
    transitive pair (h, v) and a pair (h2, v2) on the same squares: the one
    sending square 0 to k, for each k that admits one, in increasing k.

    t is pushed from square 0 along h and v only: these reach every square
    (h^-1 and v^-1 are powers of h and v), and a map intertwining h and v
    intertwines their inverses.  A transitive (h2, v2) makes each t onto, so
    a bijection."""
    n = len(h)
    maps = ((h, h2), (v, v2))
    result = []
    for k in range(n):
        t = [-1] * n
        t[0] = k
        stack = [0]
        ok = True
        while stack and ok:
            s = stack.pop()
            for m, m2 in maps:
                s2 = m[s]
                im = m2[t[s]]
                if t[s2] < 0:
                    t[s2] = im
                    stack.append(s2)
                elif t[s2] != im:
                    ok = False
                    break
        if ok:
            result.append(t)
    return result


def vertex_rotation(h, v) -> list[int]:
    """Images of the vertex rotation h v h^-1 v^-1 of the pair (h, v): it
    sends v h x to h v x for every square x, so it needs no inverse."""
    rotation = [0] * len(h)
    for x in range(len(h)):
        rotation[v[h[x]]] = h[v[x]]
    return rotation


#: the Weierstrass point types of `weierstrass_points`, each square's
#: centre, left-edge midpoint, bottom-edge midpoint and bottom-left corner
POINT_KINDS = "CWBV"


def weierstrass_points(h, v) -> tuple[list[int], tuple[tuple[str, int], ...]]:
    """The hyperelliptic involution p of the genus-2 origami (h, v) in H(2)
    and its six fixed points, the Weierstrass points, the zero first: returns
    (the images of p, the points).

    p is the map with p h = h^-1 p and p v = v^-1 p, found by one
    propagation per choice of p(0) (`_intertwiners`).  It turns each square s
    by a half turn onto p(s).  A point is (kind, s) for a kind of
    `POINT_KINDS`: the centre C, left-edge midpoint W, bottom-edge midpoint B
    or bottom-left corner V of square s.  p fixes C s when p(s) = s, W s
    when h(p(s)) = s (the right edge of p(s) is the left edge of s), B s
    when v(p(s)) = s, and the corner V s when v(h(p(s))), whose bottom-left
    corner is the top-right corner of p(s), is in the cycle of s under
    `vertex_rotation`.  A regular corner is the bottom-left corner of one
    square only, which keys it; the zero, the one cone point, is keyed by
    the least of its squares.  The regular points
    follow the zero in order of square, then of kind.  Raises InvariantError
    unless there is exactly one p, with six fixed points, the zero among
    them, and ValueError when (h, v) has other than one cone point.
    """
    hi, vi = inverse_images(h), inverse_images(v)
    found = _intertwiners(h, v, hi, vi)
    if len(found) != 1:
        raise InvariantError(f"{len(found)} involutions p with p h p = h^-1, "
                             "p v p = v^-1, not one")
    p = found[0]
    rotation = vertex_rotation(h, v)
    cones = cycles(rotation)
    if len(cones) != 1:
        raise ValueError(f"{len(cones)} cone points, not one: the origami is not in H(2)")
    zero = cones[0]
    zero_fixed = v[h[p[zero[0]]]] in zero
    points = [("V", zero[0])] if zero_fixed else []
    for s, t in enumerate(p):
        for kind, fixed in zip(POINT_KINDS, (t == s, h[t] == s, v[t] == s,
                                             rotation[s] == s and v[h[t]] == s)):
            if fixed:
                points.append((kind, s))
    if len(points) != 6 or not zero_fixed:
        raise InvariantError(f"the involution fixes {len(points)} points"
                             + ("" if zero_fixed else ", not the zero"))
    return p, tuple(points)


def spanning_tree(h, v) -> list[tuple[int, int, tuple[str, int], int]]:
    """The BFS spanning tree from square 0 of the square-adjacency graph of
    the origami (h, v), with edge order (h, v, h^-1, v^-1), listed in
    discovery order as (parent, child, edge, direction): edge is ('E'|'N', s),
    the right or top edge of square s, and direction is +1 when the step
    crosses it forward (E, N) and -1 when backward (W, S).

    h and v alone would reach every square too, but not by this tree: it is
    a shortest-path tree of the undirected adjacency graph, and it fixes the
    cover gauge and the fundamental cycles, so the lift texts and the labels
    of `covers --origami` depend on all four edges.
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


def _tree_cycles(h, v) -> list[tuple[str, int, int, int]]:
    """The n + 1 fundamental cycles of `spanning_tree` on the origami (h, v)
    as (kind, s, chain, wind), in the order of `Origami._fundamental_cycles`:
    the edge (kind, s) off the tree, the cycle's chain mod 2 as one int with
    a byte per square for sig then tau (square 0 first) and its
    `winding_index`.

    One walk of the tree keeps, per square, its parent, its depth, the move
    into it, the turning of its tree path from square 0 (the sum of its
    `_TURN`s) and that path's chain P, the parent's XOR the byte of the edge
    crossed.  The cycle of (kind, s), from s across the edge to t = h[s] or
    v[s], has the chain P[s] ^ P[t] ^ edge.  Reduced, it runs from the lowest
    common ancestor a of s and t down the tree to s, across the edge and back
    up from t to a, so its turning is that of the two tree segments below a
    (the one to t walked backwards, which negates each turn) plus the three
    junction turns at s, t and a.
    """
    n = len(h)
    top = {"E": 8 * (2 * n - 1), "N": 8 * (n - 1)}
    parent, depth, turning, chain = [0] * n, [0] * n, [0] * n, [0] * n
    move = [""] * n
    on_tree = set()
    for p, c, edge, direction in spanning_tree(h, v):
        kind, s = edge
        on_tree.add(edge)
        parent[c], depth[c] = p, depth[p] + 1
        move[c] = kind if direction == 1 else _OPPOSITE[kind]
        if p:
            turning[c] = turning[p] + _TURN[move[p] + move[c]]
        chain[c] = chain[p] ^ 1 << top[kind] - 8 * s
    out = []
    for kind, images in (("E", h), ("N", v)):
        for s in range(n):
            if (kind, s) in on_tree:
                continue
            t = images[s]
            # a, b climb to the common ancestor; ca, cb are its children
            # towards s and t, or -1 when s or t is the ancestor itself
            a, b, ca, cb = s, t, -1, -1
            while depth[a] > depth[b]:
                ca, a = a, parent[a]
            while depth[b] > depth[a]:
                cb, b = b, parent[b]
            while a != b:
                ca, a, cb, b = a, parent[a], b, parent[b]
            turn, first, last = 0, kind, kind
            if ca >= 0:
                turn += turning[s] - turning[ca] + _TURN[move[s] + kind]
                first = move[ca]
            if cb >= 0:
                turn += turning[cb] - turning[t] + _TURN[kind + _OPPOSITE[move[t]]]
                last = _OPPOSITE[move[cb]]
            out.append((kind, s, chain[s] ^ chain[t] ^ 1 << top[kind] - 8 * s,
                        _winding(turn + _TURN[last + first])))
    return out


def _tree_cotree(h, v, vertex_cycles) -> tuple[list, list]:
    """The tree-cotree split (Eppstein) of the `_tree_cycles` of the origami
    (h, v) with these `Origami.vertex_cycles`, as (basis, cotree) lists of
    (chain, wind).

    The vertices are the classes of the vertex cycles, regular points
    included; the right edge of s joins the bottom-left corners of h[s] and
    v[h[s]], the top edge those of v[s] and h[v[s]].  A union-find over the
    edges off the tree, in the order of `_tree_cycles`, puts each edge that
    joins two components into the co-tree, V - 1 edges, and leaves the
    fundamental cycles of the other 2g edges, a basis of the homology."""
    vertex = [0] * len(h)
    for i, members in enumerate(vertex_cycles):
        for s in members:
            vertex[s] = i
    root = list(range(len(vertex_cycles)))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    basis, cotree = [], []
    for kind, s, chain, wind in _tree_cycles(h, v):
        corner = h[s] if kind == "E" else v[s]
        a = find(vertex[corner])
        b = find(vertex[v[corner] if kind == "E" else h[corner]])
        if a == b:
            basis.append((chain, wind))
        else:
            root[a] = b
            cotree.append((chain, wind))
    return basis, cotree


@dataclass(frozen=True)
class OrbitWalk:
    """The SL(2,Z)-orbit of an origami as `sl2z_orbit_walk` finds it.

    members[0] is the canonical form of the input pair and `seed_order` its
    relabelling: seed_order[k] is the input square with label k.  Each entry
    (i, g, steps) of `walks` is one walk of the S-cycle (g = "S") or U-cycle
    (g = "U") of members[i], in the order walked: steps[t] = (j, order) says
    that t + 1 `walk_step`s from members[i], relabelled by `order` (its
    square order[k] gets label k), give members[j].
    """

    members: list[tuple[tuple[int, ...], tuple[int, ...]]]
    seed_order: list[int]
    walks: list[tuple[int, str, list[tuple[int, list[int]]]]]


def _orbit_seed(h, v):
    """The seed of `sl2z_orbit_walk` on the origami (h, v): its canonical
    pair, the relabelling `order` that gives it, and the labels of the
    canonical pair's squares by translation orbit (None when the identity is
    the only translation).

    A translation t of (h, v) commutes with every pair in the orbit, since
    each is a pair of words in h and v on the same squares up to
    relabelling, so every member has the seed's translation orbits on
    squares.  A member's labels are relabelled by the `order` of the
    canonical call that finds it, [labels[x] for x in order], and
    `_canonical_pair` tries only the first start of each label."""
    trans = translation_images(h, v)
    # square s is labelled by the least square of its orbit {t[s]}
    orbits = [min(col) for col in zip(*trans)] if len(trans) > 1 else None
    hn, vn, order = _canonical_pair(h, v, orbits)
    return (hn, vn), order, orbits and [orbits[x] for x in order]


def walk_step(h, vi, g: str):
    """S = R^-1 L R^-1 (g = "S") or U = R^-1 L (g = "U") on the origami
    (h, v), given vi, the images of v^-1: (v^-1, v^-1 h v) or
    (v^-1 h, v^-1 h v), relabelled by v to (v^-1, h) or (h v^-1, h), pairs
    on the same squares."""
    return (vi if g == "S" else [h[t] for t in vi]), h


def sl2z_orbit_walk(h, v, cap: int = 10**6) -> OrbitWalk:
    """The SL(2,Z)-orbit of the origami (h, v), found by walking the cycles
    of S and U, with every step the walk computes.

    S = R^-1 L R^-1 and U = R^-1 L generate SL(2,Z) with S^2 = U^3 = -I, and
    -I is central: if it fixes the seed, it fixes g(seed) = g(-I seed) =
    -I g(seed) for every g, and otherwise it fixes no member.  One canonical
    call on (h^-1, v^-1) at the seed therefore sets the cycle orders, k = 2
    for S and 3 for U when -I fixes the seed and 4 and 6 otherwise: every
    S-cycle and U-cycle of the orbit has a length dividing its k.  The pairs
    stay transitive, since <v^-1, h> = <h v^-1, h> = <h, v>.

    From each member, in order of discovery, whose S-cycle or U-cycle no walk
    has yet passed through, that cycle is walked: each step (`walk_step`)
    acts on the previous step's pair, not on its canonical form, and is
    canonicalised and recorded (`OrbitWalk`); the walk stops after a step
    that returns to the start, an elliptic element of the Veech group, or
    after k - 1 steps.  The k-th step, never computed, closes the cycle with
    S^k or U^k, which is -I or I.  With -I in the Veech group this costs
    (|M| + e2)/2 + (2|M| + e3)/3 + 2 canonical calls, where e2 and e3 count
    the members fixed by S and by U.

    Each member is keyed by `_canonical_pair`, which starts its BFS only at
    the squares whose top-right corner is a cone point, as
    `Origami.canonical_form` does, so a member can be looked up by the
    canonical form of any pair in the orbit.  The steps keep the squares and
    the translations, so each pair of a walk from member i carries i's
    translation labels (`_orbit_seed`) unchanged.  Raises OrbitCapExceeded
    once more than `cap` >= 1 forms are found.
    """
    if cap < 1:
        raise ValueError("orbit cap must be at least 1")
    seed, seed_order, labels = _orbit_seed(h, v)
    minus_one = _canonical_pair(*act_generator(*seed, "-I"), labels)[:2]
    cycle_orders = (2, 3) if minus_one == seed else (4, 6)
    members = [seed]
    pending = [labels]
    index = {seed: 0}
    walks = []
    # todo[g][i]: no walk of S (g = 0) or U (g = 1) has passed member i yet
    todo = ([True], [True])
    for i, member in enumerate(members):
        labels, pending[i] = pending[i], None
        for g, k, left in zip("SU", cycle_orders, todo):
            if not left[i]:
                continue
            h, v = member
            steps = []
            walks.append((i, g, steps))
            for _ in range(k - 1):
                h, v = walk_step(h, inverse_images(v), g)
                hn, vn, order = _canonical_pair(h, v, labels)
                j = index.get((hn, vn))
                if j is None:
                    if len(members) >= cap:
                        raise OrbitCapExceeded(len(members))
                    j = index[hn, vn] = len(members)
                    members.append((hn, vn))
                    pending.append(labels and [labels[x] for x in order])
                    todo[0].append(True)
                    todo[1].append(True)
                steps.append((j, order))
                left[j] = False
                if j == i:
                    break
    return OrbitWalk(members, seed_order, walks)


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
    if not is_prototype(b, e):
        raise ValueError(f"(b, e) = ({b}, {e}) is no prototype: need e in "
                         f"{{-1, 0, 1}}, e + 1 < b, and b even when e = 1")
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
