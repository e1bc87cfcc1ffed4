"""Abelian covers of a genus-2 origami.

A cover is stored as an edge cocycle: a residue mod m per right edge and per
top edge of each base square.  Crossing an edge adds its weight to the sheet
coordinate.  Covers are built from the values of their holonomy homomorphism
H_1(base, Z/m) -> Z/m on a symplectic cycle basis.  That homomorphism is
c -> c . dual for its Poincare-dual cycle, and c . dual counts the crossings
of c's edges by dual, so dual's crossing counts are edge weights realising
it.  Subtracting the coboundary of a potential summed down the spanning tree
of `Origami._homology_data` fixes the gauge: tree edges get weight zero and
each other edge the holonomy of its fundamental cycle.
The double covers are the Z/2 cyclic covers: the primitive vectors of
(Z/2)^4 are its 15 nonzero vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import InvariantError
from .lshape import IDENTITY4, symplectic_pairing
from .monodromy import primitive_vector_count, primitive_vectors, vector_label
from .origami import Cycle, Origami
from .perms import Permutation


@dataclass(frozen=True)
class Cover:
    """A connected Z/m cover of `base` given by edge weights (w_right, w_up)."""

    base: Origami
    m: int
    w_right: tuple[int, ...]
    w_up: tuple[int, ...]

    def holonomy(self, cycle: Cycle) -> int:
        """Sum of edge weights crossed by the cycle, mod m.

        The cycle crosses the right edge of square s sig[s] times and its top
        edge tau[s] times, since dtau[h[s]] = sig[s] and dsig[v[s]] = tau[s].
        """
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


def cover_from_basis_values(o: Origami, m: int, basis: list[Cycle],
                            values: tuple[int, ...]) -> Cover:
    """The cover whose holonomy takes the given values on the symplectic basis
    (a1, b1, a2, b2) of a genus-2 origami.

    Its holonomy is c -> c . dual for the dual class with coordinates
    dual[k] = <values, e_k>, since then <e_k, dual> = values[k].  As
    c . dual = sum c.sig dual.dsig - c.tau dual.dtau, the weights dual.dsig
    on right edges and -dual.dtau on top edges realise it; a potential summed
    down the spanning tree then moves them to the gauge with weight 0 on
    every tree edge.
    """
    if len(basis) != 4 or len(values) != 4:
        raise ValueError("a genus-2 basis and one value per basis cycle required")
    dual = [(symplectic_pairing(values, e), c) for e, c in zip(IDENTITY4, basis)]
    n = o.n
    weights = {"E": [sum(x * c.dsig[s] for x, c in dual) for s in range(n)],
               "N": [-sum(x * c.dtau[s] for x, c in dual) for s in range(n)]}
    potential = [0] * n
    for parent, child, (kind, s), direction in o._homology_data()[2]:
        potential[child] = potential[parent] + direction * weights[kind][s]
    h, v = o.h.images, o.v.images
    w_right = tuple((w + potential[s] - potential[h[s]]) % m
                    for s, w in enumerate(weights["E"]))
    w_up = tuple((w + potential[s] - potential[v[s]]) % m
                 for s, w in enumerate(weights["N"]))
    cover = Cover(o, m, w_right, w_up)
    if cover.holonomy_on_basis(basis) != tuple(x % m for x in values):
        raise InvariantError("cover holonomy differs from the prescribed values")
    return cover


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
    """One connected Z/n cover per primitive dual vector in (Z/n)^4."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if o.stratum().genus != 2:
        raise ValueError("cyclic-cover enumeration needs a genus-2 base")
    covers = []
    for gamma in primitive_vectors(n):
        # holonomy of the functional <., gamma> on (a1, b1, a2, b2)
        values = tuple(symplectic_pairing(e, gamma) % n for e in IDENTITY4)
        covers.append(cover_from_basis_values(o, n, basis, values))
    if len(covers) != primitive_vector_count(n):
        raise InvariantError(f"{len(covers)} Z/{n} covers, not J_4({n})")
    return covers
