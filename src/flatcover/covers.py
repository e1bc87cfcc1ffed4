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
under SL(2,Z) as a homology class, so `affine_action_mod2` carries four
chains mod 2 along the base's orbit graph and reads one F_2 matrix per edge
off their intersection numbers (`origami.mod2_forms`), checking each image's
Gram matrix.  A basis is four cycles on the base's squares (ValueError
otherwise).
"""
from __future__ import annotations

from dataclasses import dataclass

from . import InvariantError
from .lshape import IDENTITY4, J4, symplectic_pairing
from .monodromy import mat_vec, primitive_vector_count, primitive_vectors, vector_label
from .origami import (Cycle, Origami, OrbitGraph, act_generator, mod2_forms,
                      sl2z_orbit_graph, spanning_tree)
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
    its own weights, over the nonzero sig/tau entries of the cycle.
    """
    _check_basis(o, basis)
    n = o.n
    h, v = o.h.images, o.v.images
    hi, vi = inverse_images(h), inverse_images(v)
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
    if c.m != 2:
        raise ValueError("labels are defined for double covers")
    values = c.holonomy_on_basis(basis)
    gamma = tuple(symplectic_pairing(values, e) % 2 for e in IDENTITY4)
    return gamma, vector_label(gamma)


def cyclic_covers(o: Origami, n: int, basis: list[Cycle]) -> list[Cover]:
    """One connected Z/n cover per primitive dual vector gamma in (Z/n)^4, in
    the order of `primitive_vectors`: the cocycle sum gamma[k] G_k mod n of
    `_cover_maker`, one tree walk for all of them."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if o.stratum().genus != 2:
        raise ValueError("cyclic-cover enumeration needs a genus-2 base")
    make = _cover_maker(o, n, basis)
    # row k of J4 is <e_k, .>: J4 gamma is the holonomy of <., gamma> on the basis
    covers = [make(gamma, mat_vec(J4, gamma)) for gamma in primitive_vectors(n)]
    if len(covers) != primitive_vector_count(n):
        raise InvariantError(f"{len(covers)} Z/{n} covers, not J_4({n})")
    return covers


def affine_action_mod2(o: Origami, basis: list[Cycle]) -> tuple[OrbitGraph, list[tuple]]:
    """The SL(2,Z)-orbit graph of the genus-2 origami o, and the 4x4 F_2
    matrices of its affine group's action on H_1 mod 2 (so on the gamma of
    `cover_label`) in the coordinates of `basis` (a1, b1, a2, b2): x -> M x
    for M = matrices[2 i], matrices[2 i + 1] on the L, R edges of member i.

    Each member carries a frame of four classes mod 2, as the chains
    (sig, tau) of a `Cycle`.  L sends h to h' = v^-1 h and an E step to E
    then N: tau[h'[s]] += sig[s].  R sends v to v' = h^-1 v and an N step to
    N then E: sig[v'[s]] += tau[s].  The image is relabelled by the edge's
    `order`.  Member 0's frame is the basis relabelled by `seed_order`, and
    the edge that first reaches a member carries its frame there, so the BFS
    tree edges act as the identity.  Entry (l, k) of a matrix is the
    intersection number mod 2 of image class k with target class l ^ 1 on
    the target member (h_j, v_j), read off `origami.mod2_forms`; only the
    targets' packed ints are kept.  The Gram matrix mod 2 of every image
    frame must be J4 mod 2 (InvariantError otherwise); at member 0 this
    rejects a basis that is not symplectic mod 2.  A basis that is not four
    cycles on o's squares is a ValueError.

    So the component of (member 0, gamma) in the skew product of the graph
    with the covers is every member times gamma's orbit under the matrices:
    the lifted origami's orbit when the base has no nontrivial translation
    (checked: InvariantError) and the lift's translations are its deck group.
    """
    if len(o.translations()) != 1:
        raise InvariantError("the base has a nontrivial translation")
    _check_basis(o, basis)
    graph = sl2z_orbit_graph(o.h.images, o.v.images)
    carried = {}  # the frames of the members reached and not yet expanded
    targets: list = [None] * len(graph.members)
    gram = tuple(tuple(x % 2 for x in row) for row in J4)

    def land(j, frame):
        read, packed = zip(*mod2_forms(*graph.members[j], frame))
        if tuple(tuple((a & b).bit_count() & 1 for b in packed) for a in read) != gram:
            raise InvariantError(f"the image frame at member {j} is not symplectic mod 2")
        if targets[j] is None:
            carried[j], targets[j] = frame, packed
        return tuple(tuple((a & targets[j][l ^ 1]).bit_count() & 1 for a in read)
                     for l in range(4))

    land(0, [tuple([x[s] & 1 for s in graph.seed_order] for x in (c.sig, c.tau))
             for c in basis])
    matrices = []
    for i, ((jl, order_l), (jr, order_r)) in enumerate(graph.edges):
        # hl = v^-1 h and vr = h^-1 v are inverse to each other, so the push
        # rules read tau'[t] = tau[t] + sig[vr[t]] and sig'[t] = sig[t] + tau[hl[t]]
        hl = act_generator(*graph.members[i], "L")[0]
        vr = act_generator(*graph.members[i], "R")[1]
        frame = carried.pop(i)
        matrices.append(land(jl, [([sig[s] for s in order_l],
                                   [tau[s] ^ sig[vr[s]] for s in order_l])
                                  for sig, tau in frame]))
        matrices.append(land(jr, [([sig[s] ^ tau[hl[s]] for s in order_r],
                                   [tau[s] for s in order_r])
                                  for sig, tau in frame]))
    return graph, matrices
