"""Abelian covers of a genus-2 origami.

A cover is stored as an edge cocycle: a residue mod m per right edge and per
top edge of each base square.  Crossing an edge adds its weight to the sheet
coordinate.  Covers are built from the values of their holonomy homomorphism
H_1(base, Z/m) -> Z/m on a symplectic cycle basis.  That homomorphism is
c -> c . dual for its Poincare-dual cycle, and c . dual counts the crossings
of c's edges by dual, so dual's crossing counts, its own chain read through
v^-1 and h^-1, are edge weights realising it.  Subtracting the coboundary of
a potential summed down `origami.spanning_tree` fixes the gauge
(`gauge_fixed`): tree edges get weight zero and each other edge the holonomy
of its fundamental cycle.  The cocycle is linear in the dual class gamma: it
is sum gamma[k] G_k mod m over the gauge-fixed dual cocycles G_k of the four
basis cycles, so the covers of one surface and modulus take one walk of the
tree in all.  The double covers are the Z/2 cyclic covers: the primitive
vectors of (Z/2)^4 are its 15 nonzero vectors.  A cover's dual class moves
under SL(2,Z) as a homology class, and H_1 mod 2 of a genus-2 surface is
the even sets of its six Weierstrass points modulo all six, each nonzero
class one duad, so the affine group acts on the covers by moving the
points (Sp(4, F_2) = S_6).  `weierstrass_action`, the census's engine,
pushes the six points along each S and U cycle walk of the base's orbit
(`origami.sl2z_orbit_walk`), relabels them into the member each step
reaches and gives one permutation of them per step; `cover_duad` finds a
cover's duad by lifting the hyperelliptic involution, `label_duads` maps
the 15 labels to duads, and `duad_matrices` reads each permutation through
that map as the step's 4x4 F_2 matrix on the labels' classes.  The
reference, `affine_action_mod2`, carries four chains mod 2, byte-sliced
into one lane (bit k of a square's byte is chain k), along the same walks,
one push per step, and reads one F_2 matrix per step off their
intersection numbers (`origami.mod2_forms`), checking each image's Gram
matrix and that each distinct matrix lies in Sp(4, F_2); its matrices
equal the points' step by step.  A basis is four cycles on the base's
squares; covers mod m also need each chain closed mod m and the Gram J4
mod m (ValueError otherwise), which the generic `Origami.symplectic_basis`
meets for m = 2 only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import xor

from . import InvariantError
from .lshape import IDENTITY4, J4, symplectic_pairing
from .monodromy import (is_symplectic, label_vector, mat_mod, mat_vec,
                        primitive_vector_count, primitive_vectors, vector_label)
from .origami import (POINT_KINDS, Cycle, Origami, OrbitWalk, intersection, mod2_forms,
                      mod2_lane, sl2z_orbit_walk, spanning_tree, walk_step,
                      weierstrass_points)
from .perms import Permutation, inverse_images


@dataclass(frozen=True)
class Cover:
    """A connected Z/m cover of `base` given by edge weights (w_right, w_up)."""

    base: Origami
    m: int
    w_right: tuple[int, ...]
    w_up: tuple[int, ...]

    def holonomy(self, cycle: Cycle) -> int:
        """Sum of edge weights crossed by the cycle, mod m: it crosses the
        right edge of square s sig[s] times and its top edge tau[s] times."""
        if cycle.n != self.base.n:
            raise ValueError("the cycle lives on another origami")
        return (sum(x * w for x, w in zip(cycle.sig, self.w_right))
                + sum(x * w for x, w in zip(cycle.tau, self.w_up))) % self.m

    def holonomy_on_basis(self, basis) -> tuple[int, ...]:
        return tuple(self.holonomy(c) for c in basis)

    def lift(self) -> Origami:
        """Total space: squares are (base square, sheet), sheet shifted by the
        crossed edge weight."""
        n, m = self.base.n, self.m
        h, v = self.base.h.images, self.base.v.images
        him = [0] * (n * m)
        vim = [0] * (n * m)
        for s in range(n):
            for t in range(m):
                him[s + n * t] = h[s] + n * ((t + self.w_right[s]) % m)
                vim[s + n * t] = v[s] + n * ((t + self.w_up[s]) % m)
        try:
            return Origami(Permutation(him), Permutation(vim))
        except ValueError as exc:
            raise ValueError("cover is disconnected (holonomy not surjective)") from exc

    def deck_shift(self) -> Permutation:
        n, m = self.base.n, self.m
        return Permutation(tuple(s + n * ((t + 1) % m)
                                 for t in range(m) for s in range(n)))


def gauge_fixed(h, v, tree, cocycles, m: int
                ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each edge cocycle (w_right, w_up) in `cocycles` on the origami (h, v),
    minus the coboundary of a potential summed down `tree` (in the format of
    `origami.spanning_tree`), reduced mod m: the cohomologous cocycles with
    weight 0 on every tree edge, in the order given.  One walk of the tree
    sums the potentials of all of them."""
    potentials = [[0] * len(h) for _ in cocycles]
    for parent, child, (kind, s), direction in tree:
        k = kind == "N"
        for p, cocycle in zip(potentials, cocycles):
            p[child] = p[parent] + direction * cocycle[k][s]
    return [(tuple([(w + a - p[b]) % m for w, a, b in zip(w_right, p, h)]),
             tuple([(w + a - p[b]) % m for w, a, b in zip(w_up, p, v)]))
            for p, (w_right, w_up) in zip(potentials, cocycles)]


def _check_basis(o: Origami, basis: list[Cycle]) -> None:
    if len(basis) != 4 or any(c.n != o.n for c in basis):
        raise ValueError(f"a genus-2 basis of four cycles on {o.n} squares required")


def _cover_maker(o: Origami, m: int, basis: list[Cycle]):
    """make(dual, values): the Z/m cover of o whose holonomy is c -> c . dual
    for the dual class with coordinates `dual` in the symplectic basis
    (a1, b1, a2, b2), checked to take the given values on the basis.

    As c . dual = sum_s c.sig[s] dual.tau[v^-1[s]] - c.tau[s] dual.sig[h^-1[s]]
    (`origami.intersection`), basis cycle k gives the cocycle G_k with weight
    tau_k[v^-1[s]] on the right edge of s and -sig_k[h^-1[s]] on its top edge.
    `gauge_fixed` is linear and commutes with reduction mod m, so it runs once
    on the four G_k along `spanning_tree`, and each cover's cocycle is
    sum dual[k] G_k mod m.  Its holonomy on each basis cycle is then read off
    its own weights, over the nonzero sig/tau entries of the cycle.  A basis
    mod 2 only can pass that check, so each chain must be closed mod m (as
    much flow into each square as out of it) and the Gram J4 mod m.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    _check_basis(o, basis)
    n = o.n
    h, v = o.h.images, o.v.images
    hi, vi = inverse_images(h), inverse_images(v)
    if any((c.sig[t] + c.tau[t] - c.sig[hi[t]] - c.tau[vi[t]]) % m
           for c in basis for t in range(n)):
        raise ValueError(f"a basis chain is not closed mod {m}")
    if tuple(tuple(intersection(o, a, b) % m for b in basis) for a in basis) != mat_mod(J4, m):
        raise ValueError(f"the basis is not symplectic mod {m}")
    fixed = gauge_fixed(h, v, spanning_tree(h, v),
                        [([c.tau[t] for t in vi], [-c.sig[t] for t in hi])
                         for c in basis], m)
    columns = list(zip(*[w_right + w_up for w_right, w_up in fixed]))
    crossings = [[(i, x) for i, x in enumerate(c.sig + c.tau) if x] for c in basis]

    def make(dual, values) -> Cover:
        a, b, c, d = dual
        w = [(a * x + b * y + c * z + d * t) % m for x, y, z, t in columns]
        for terms, value in zip(crossings, values):
            total = 0
            for i, x in terms:
                total += x * w[i]
            if (total - value) % m:
                raise InvariantError("cover holonomy differs from the prescribed values")
        return Cover(o, m, tuple(w[:n]), tuple(w[n:]))

    return make


def cover_from_basis_values(o: Origami, m: int, basis: list[Cycle],
                            values: tuple[int, ...]) -> Cover:
    """The cover whose holonomy takes the given values on the symplectic basis
    (a1, b1, a2, b2) of a genus-2 origami.

    Its holonomy is c -> c . dual for the dual class with coordinates
    dual[k] = <values, e_k>, since then <e_k, dual> = values[k]; the cocycle
    and the holonomy check are those of `_cover_maker`.
    """
    if len(values) != 4:
        raise ValueError("one value per basis cycle required")
    make = _cover_maker(o, m, basis)
    return make(tuple(symplectic_pairing(values, e) for e in IDENTITY4), values)


def all_double_covers(o: Origami, basis: list[Cycle]) -> list[Cover]:
    """The 15 connected double covers of a genus-2 origami, indexed by the
    nonzero holonomy homomorphisms H_1 -> Z/2."""
    return cyclic_covers(o, 2, basis)


def cover_label(basis, c: Cover) -> tuple[tuple[int, int, int, int], int]:
    """Poincare-dual class gamma = (x1, y1, x2, y2) of a double cover,
    gamma[k] = <holonomy values, e_k> mod 2, and its numbering
    x1 + 2 y1 + 4 x2 + 8 y2 in {1..15}."""
    _check_basis(c.base, basis)
    if c.m != 2:
        raise ValueError("labels are defined for double covers")
    values = c.holonomy_on_basis(basis)
    gamma = tuple(symplectic_pairing(values, e) % 2 for e in IDENTITY4)
    return gamma, vector_label(gamma)


def cyclic_covers(o: Origami, n: int, basis: list[Cycle]) -> list[Cover]:
    """One connected Z/n cover per primitive dual vector gamma in (Z/n)^4, in
    the order of `primitive_vectors`: the cocycle sum gamma[k] G_k mod n of
    `_cover_maker`, one tree walk for all of them."""
    if o.stratum().genus != 2:
        raise ValueError("cyclic-cover enumeration needs a genus-2 base")
    make = _cover_maker(o, n, basis)
    # row k of J4 is <e_k, .>: J4 gamma is the holonomy of <., gamma> on the basis
    covers = [make(gamma, mat_vec(J4, gamma)) for gamma in primitive_vectors(n)]
    if len(covers) != primitive_vector_count(n):
        raise InvariantError(f"{len(covers)} Z/{n} covers, not J_4({n})")
    return covers


def affine_action_mod2(o: Origami, basis: list[Cycle]) -> tuple[OrbitWalk, list[tuple]]:
    """The SL(2,Z)-orbit walk of the genus-2 origami o (`sl2z_orbit_walk`),
    and the 4x4 F_2 matrices of its affine group's action on H_1 mod 2 (so
    on the gamma of `cover_label`) in the coordinates of `basis`
    (a1, b1, a2, b2): x -> M x for M = matrices[s] on the s-th step of the
    walk, its steps taken walk by walk in order.

    Each member carries a frame of four classes mod 2 as one lane of
    `origami.mod2_lane`: two byte strings (sig, tau), one byte per square,
    whose bit k is class k's chain there.  A walk from member i carries i's
    frame along its steps on the same squares, all four classes at once,
    "+" being XOR.  S turns an E step from s into an N step and an N step
    into a W step into v[s]; U turns an E step into an N step and an N step
    into an N step, then a W step into v[s].  So with vi the images of v^-1
    of the pair before the step, S sends the frame to sig'[t] = tau[vi[t]]
    and tau' = sig, and U to sig'[t] = tau[vi[t]] and tau' = sig + tau.
    Each step's frame is relabelled by the step's `order` into the member j
    it reaches.  Member 0's frame is the basis relabelled by `seed_order`,
    and the step that first reaches a member carries its frame there, so
    these steps act as the identity.  Each landing reads the image frame on
    the target with `origami.mod2_forms`: its Gram matrix mod 2 must be J4
    mod 2 (InvariantError otherwise; at member 0 this rejects a basis that
    is not symplectic mod 2), and entry (l, k) of the
    matrix is image class k . target class l ^ 1 mod 2, against the
    target's packed int, tau then sig, which is all that is kept of a
    member's frame.  On a first landing the frame is the target's own, so
    entry (l, k) is Gram[k][l ^ 1], and the check just passed makes that
    the identity: such a landing returns the shared IDENTITY4 without
    reading it.  Equal matrices are one tuple, and each distinct one must
    lie in Sp(4, F_2), M^t J M = J mod 2 (InvariantError otherwise): a
    pushed frame can keep every Gram matrix while a matrix leaves the
    group.  A basis that is not four cycles on o's squares is a ValueError.

    A step that returns to its walk's start is an elliptic element of the
    Veech group, and its matrix a generator like any other.  The never
    computed k-th step of a full S-pair or U-triangle is S^2 or U^3 = -I,
    the identity mod 2, so the matrices generate the image of the Veech
    group, as the Schreier generators of the S/U orbit graph do.  So the
    component of (member 0, gamma) in the skew product of the orbit with the
    covers is every member times gamma's orbit under the matrices: the
    lifted origami's orbit when the base has no nontrivial translation
    (checked: InvariantError) and the lift's translations are its deck
    group.
    """
    if len(o.translations()) != 1:
        raise InvariantError("the base has a nontrivial translation")
    _check_basis(o, basis)
    walk = sl2z_orbit_walk(o.h.images, o.v.images)
    n = o.n
    targets: list = [None] * len(walk.members)
    gram = tuple([x for row in mat_mod(J4, 2) for x in row])
    # each distinct matrix, by its entries row by row
    shapes = {tuple([x for row in IDENTITY4 for x in row]): IDENTITY4}

    def land(j, sig, tau):
        reads, packs = mod2_forms(*walk.members[j], sig, tau, 4)
        if tuple([(a & b).bit_count() & 1 for a in reads for b in packs]) != gram:
            raise InvariantError(f"the image frame at member {j} is not symplectic mod 2")
        t = targets[j]
        if t is None:
            # the frame is the target's own: entry (l, k) is gram[k][l ^ 1]
            targets[j] = packs[0]
            return IDENTITY4
        # row l of a matrix pairs with target class l ^ 1
        entries = tuple([(a & b).bit_count() & 1 for b in (t >> 1, t, t >> 3, t >> 2)
                         for a in reads])
        matrix = shapes.get(entries)
        if matrix is None:
            matrix = shapes[entries] = tuple(entries[l:l + 4] for l in range(0, 16, 4))
        return matrix

    land(0, *mod2_lane([([c.sig[s] for s in walk.seed_order],
                         [c.tau[s] for s in walk.seed_order]) for c in basis]))
    matrices = []
    for i, g, steps in walk.walks:
        h, v = walk.members[i]
        own = targets[i].to_bytes(2 * n, "big")
        sig, tau = own[n:], own[:n]
        for j, order in steps:
            vi = inverse_images(v)
            h, v = walk_step(h, vi, g)
            sig, tau = bytes([tau[t] for t in vi]), sig if g == "S" else bytes(map(xor, sig, tau))
            matrices.append(land(j, bytes([sig[s] for s in order]), bytes([tau[s] for s in order])))
    for M in shapes.values():
        if not is_symplectic(M, 2):
            raise InvariantError(f"the matrix {M} is not in Sp(4, F_2)")
    return walk, matrices


#: the permutation of the six Weierstrass points on a member's first landing
IDENTITY6 = tuple(range(6))


def weierstrass_action(o: Origami) -> tuple[OrbitWalk, tuple, list[tuple[int, ...]]]:
    """The SL(2,Z)-orbit walk of the genus-2 origami o (`sl2z_orbit_walk`),
    the hyperelliptic involution and Weierstrass points of o
    (`origami.weierstrass_points`), and the affine group's action on those
    six points: on the s-th step of the walk, its steps taken walk by walk
    in order, point k goes to point perms[s][k], in member 0's coordinates.

    The points are found once, on o, and mapped through `seed_order` onto
    member 0; a walk from member i carries i's points along its steps on
    the same squares, and each step's points are relabelled by its `order`
    into the member j it reaches.  With vi the images of v^-1 of the pair
    before the step, the points go
      S: C s -> C s, W s -> B s, B s -> W vi[s], V s -> V vi[s];
      U: C s -> B h[s], W s -> C s, B s -> W h[vi[s]], V s -> V h[vi[s]],
    the moves of the points under L and R^-1 composed with the relabelling
    by v of `walk_step`.  The zero goes to the zero and is not pushed.
    Member j keeps the points first pushed onto it, numbered as member 0's
    (a dict from point to number, in that order), so that step's
    permutation is the identity; every later landing must hit those six
    (InvariantError otherwise).  An affine map acts on H_1(X; F_2), the
    even sets of Weierstrass points modulo all six, by moving the points
    (Sp(4, F_2) = S_6), so the permutations read through a label -> duad
    map (`duad_matrices`) are the matrices that `affine_action_mod2` reads
    off frames.  A nontrivial translation of o is an InvariantError, as
    there.
    """
    if len(o.translations()) != 1:
        raise InvariantError("the base has a nontrivial translation")
    seed = weierstrass_points(o.h.images, o.v.images)
    walk = sl2z_orbit_walk(o.h.images, o.v.images)
    # a point is the int 4 s + kind, kind its index in POINT_KINDS
    pos = inverse_images(walk.seed_order)
    tables: list = [None] * len(walk.members)
    tables[0] = {4 * pos[s] + POINT_KINDS.index(kind): k
                 for k, (kind, s) in enumerate(seed[1][1:], 1)}
    perms = []
    for i, g, steps in walk.walks:
        h, v = walk.members[i]
        points = list(tables[i])
        for j, order in steps:
            vi = inverse_images(v)
            # the rules above on codes: B and V (kinds 2, 3) go to W and V
            # (kind 2 kind - 3) on vi[s] under S and on h[vi[s]] under U
            if g == "S":
                points = [x if x & 3 == 0 else x + 1 if x & 3 == 1
                          else 4 * vi[x >> 2] + 2 * (x & 3) - 3 for x in points]
            else:
                points = [4 * h[x >> 2] + 2 if x & 3 == 0 else x - 1 if x & 3 == 1
                          else 4 * h[vi[x >> 2]] + 2 * (x & 3) - 3 for x in points]
            h, v = walk_step(h, vi, g)
            moved = [4 * order.index(x >> 2) + (x & 3) for x in points]
            table = tables[j]
            if table is None:
                tables[j] = {x: k for k, x in enumerate(moved, 1)}
                perms.append(IDENTITY6)
                continue
            perm = (0, *map(table.get, moved))
            if None in perm:
                raise InvariantError(f"a Weierstrass point pushed onto member {j} "
                                     "misses its six")
            perms.append(perm)
    return walk, seed, perms


def duad_matrices(perms, duads) -> list[tuple]:
    """The 4x4 F_2 matrices on the gamma of `cover_label` of the permutations
    `perms` of the six Weierstrass points (`weierstrass_action`), through
    the label -> duad map `duads` (`label_duads`): column k is
    `label_vector` of the label whose duad is the image of label 2^k's
    duad.  Equal permutations give one tuple."""
    label_of = {duad: label for label, duad in duads.items()}
    pairs = [[x for x in range(6) if duads[1 << k] >> x & 1] for k in range(4)]
    shapes = {perm: tuple(zip(*[label_vector(label_of[1 << perm[a] | 1 << perm[b]])
                                for a, b in pairs]))
              for perm in set(perms)}
    return [shapes[perm] for perm in perms]


def cover_duad(cover: Cover, seed) -> int:
    """The duad of the double cover `cover` among the Weierstrass points of
    its base, as the set of their indices in `seed` = (p, points) of
    `origami.weierstrass_points` on the base, one bit per index.

    p lifts to the cover as p~(s, t) = (p(s), t + c(s)), by one propagation
    from c(0) = 0 with c(h s) = c(s) + w_right(s) + w_right(h^-1 p s) and
    c(v s) = c(s) + w_up(s) + w_up(v^-1 p s) mod 2 (so that
    p~ h~ = h~^-1 p~ and p~ v~ = v~^-1 p~); the other lift is c + 1.  p~
    fixes both points over C s when c(s) = 0, over W s when
    c(s) + w_right(p s) = 0, over B s when c(s) + w_up(p s) = 0 and over a
    regular corner V s when c(s) + w_right(p s) + w_up(h p s) = 0, and the
    zero's fibre is fixed exactly when that makes the count of fixed fibres
    even: an involution of the genus-3 lift fixes 4 or 8 points (2 g' + 2
    for a quotient of genus g' = 1 or 0).  The duad is the set of fibres
    that one lift fixes when it has 2, and its complement, the other lift's,
    when it has 4.  No lift is built.  InvariantError when p does not lift
    or its lifts do not fix 2 and 4 fibres; ValueError unless m = 2.
    """
    if cover.m != 2:
        raise ValueError("duads are defined for double covers")
    p, points = seed
    h, v = cover.base.h.images, cover.base.v.images
    wr, wu = cover.w_right, cover.w_up
    hi, vi = inverse_images(h), inverse_images(v)
    c = [-1] * len(h)
    c[0] = 0
    stack = [0]
    while stack:
        s = stack.pop()
        for t, x in ((h[s], c[s] ^ wr[s] ^ wr[hi[p[s]]]), (v[s], c[s] ^ wu[s] ^ wu[vi[p[s]]])):
            if c[t] < 0:
                c[t] = x
                stack.append(t)
            elif c[t] != x:
                raise InvariantError("the hyperelliptic involution does not lift to the cover")
    fixed = 0
    for k, (kind, s) in enumerate(points[1:], 1):
        t, x = p[s], c[s]
        if kind in "WV":
            x ^= wr[t]
        if kind == "B":
            x ^= wu[t]
        if kind == "V":
            x ^= wu[h[t]]
        fixed |= (x ^ 1) << k
    fixed |= fixed.bit_count() & 1
    if fixed.bit_count() == 4:
        fixed ^= 63
    if fixed.bit_count() != 2:
        raise InvariantError(f"the lifts of the involution fix {fixed.bit_count()} "
                             "fibres, not 2 and 4")
    return fixed


def label_duads(basis_covers, seed) -> dict[int, int]:
    """label -> duad (`cover_duad`, one bit per point of `seed`) for the 15
    double covers of `cover_label`, from the covers of labels 1, 2, 4 and 8
    (the dual classes e_k), given in that order.  The duads are classes of
    H_1(X; F_2), the even sets of Weierstrass points modulo all six, so a
    label's duad is the symmetric difference of its bits' duads, taken as
    its complement when it has four points.  InvariantError unless the map
    is a bijection onto the 15 duads and |S & S'| mod 2, the intersection
    form of duads, equals the form J4 of `lshape.symplectic_pairing` on
    every pair of labels."""
    if len(basis_covers) != 4:
        raise ValueError("one cover per basis label 1, 2, 4, 8 required")
    basis = [cover_duad(c, seed) for c in basis_covers]
    duads = {}
    for label in range(1, 16):
        x = 0
        for k, duad in enumerate(basis):
            if label >> k & 1:
                x ^= duad
        duads[label] = x ^ 63 if x.bit_count() == 4 else x
    values = list(duads.values())
    if sorted(values) != sorted(1 << a | 1 << b for b in range(6) for a in range(b)):
        raise InvariantError(f"the label -> duad map {duads} is not a bijection onto the duads")
    if tuple(tuple((x & y).bit_count() & 1 for y in values) for x in values) != _label_pairings():
        raise InvariantError(f"the label -> duad map {duads} does not meet as J4 pairs")
    return duads


@cache
def _label_pairings() -> tuple[tuple[int, ...], ...]:
    """Row a - 1, column b - 1: the form J4 on the labels a and b, mod 2."""
    vectors = [label_vector(label) for label in range(1, 16)]
    return tuple(tuple(symplectic_pairing(x, y) % 2 for y in vectors) for x in vectors)
