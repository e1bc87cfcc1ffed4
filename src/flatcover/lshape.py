"""The field Q(lambda), lambda^2 = e*lambda + b, and the cylinder moduli /
multitwist matrices of the L-shaped surfaces L(b,e) and their
GL2+(R)-companions curly-L(b,e) (same shape, top square side lambda-2 and
bottom rectangle width b-2).  The ring operations are those of
`cyclotomic.RingElement`: x + y*lambda is stored as two integer numerators
over one positive denominator in lowest terms, and `x`, `y` are Fraction
views.  The intersection form on H_1 in the basis (a1, b1, a2, b2),
`symplectic_pairing` and its Gram matrix `J4`, lives here for the whole
package, since this module imports only `cyclotomic`, which imports no other
flatcover module.

Signs are exact: the sign of x + y*lambda is decided by integer case
analysis on the numerators of x and y and a comparison of squares against
D = e^2 + 4b.  Elements have no ordering; compare by the sign of a
difference.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import InvariantError
from .cyclotomic import Q, RingElement


def is_prototype(b: int, e: int) -> bool:
    """Whether (b, e) names a prototype L(b, e): e in {-1, 0, 1}, e + 1 < b,
    and b even when e = 1."""
    return e in (-1, 0, 1) and e + 1 < b and not (e == 1 and b % 2)


class QuadraticElement(RingElement):
    """x + y*lambda with lambda = (e + sqrt(D))/2, D = e^2 + 4b: the ring
    Q[t]/(t^2 - e t - b), with lambda the larger root."""

    __slots__ = ()

    def __init__(self, x, y, b: int, e: int):
        if e * e + 4 * b < 5:
            raise ValueError("need D = e^2 + 4b >= 5")
        super().__init__((x, y), (b, e))

    x = property(lambda self: Q(self.num[0], self.den))
    y = property(lambda self: Q(self.num[1], self.den))
    b = property(lambda self: self.relation[0])
    e = property(lambda self: self.relation[1])

    def _conjugates(self):
        return [self.galois_conjugate()]

    def galois_conjugate(self) -> "QuadraticElement":
        """lambda -> e - lambda."""
        x, y = self.num
        return self._like((x + self.e * y, -y), self.den)

    def sign(self) -> int:
        """Sign of the real value under lambda = (e + sqrt(D))/2 > 0."""
        x, y = self.num                 # the value times den > 0
        b, e = self.relation
        A = 2 * x + e * y               # 2 den value = A + y sqrt(D)
        sa, sb = (A > 0) - (A < 0), (y > 0) - (y < 0)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: the larger of A^2 and D y^2 wins
        diff = A * A - y * y * (e * e + 4 * b)
        return sa * ((diff > 0) - (diff < 0))


def lam(b: int, e: int) -> QuadraticElement:
    return QuadraticElement(0, 1, b, e)


def rational(q, b: int, e: int) -> QuadraticElement:
    return QuadraticElement(q, 0, b, e)


# ---------------------------------------------------------------------------
# planar periods and cylinder moduli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarPeriod:
    """The complex period horizontal + i * vertical."""

    horizontal: QuadraticElement
    vertical: QuadraticElement


def period(hx, vx, b: int, e: int) -> PlanarPeriod:
    def mk(v):
        return v if isinstance(v, QuadraticElement) else rational(v, b, e)
    return PlanarPeriod(mk(hx), mk(vx))


def cylinder_modulus(core: PlanarPeriod, crossing: PlanarPeriod) -> QuadraticElement:
    """Im(crossing * conj(core)) / |core|^2: the modulus of the parallelogram
    cylinder with the given core and crossing periods (signed)."""
    ax, ay = core.horizontal, core.vertical
    cx, cy = crossing.horizontal, crossing.vertical
    denom = ax * ax + ay * ay
    if denom.sign() == 0:
        raise ZeroDivisionError("zero core period")
    return (cy * ax - cx * ay) / denom


#: case -> (shape, shift) of the cylinder decompositions of the L shape:
#: bottom rectangle b x 1 with the lambda x lambda square on top of its left
#: part.  The curly variant is the same shape with lambda and b both lowered
#: by the shift 2.
_DECOMPOSITIONS = {
    "horizontal": ("horizontal", 0),
    "vertical": ("vertical", 0),
    "slope_2_b": ("slope", 0),
    "curly_horizontal": ("horizontal", 2),
    "curly_vertical": ("vertical", 2),
    "curly_slope": ("slope", 2),
}


def _decomposition_moduli(case: str, b: int, e: int):
    if case not in _DECOMPOSITIONS:
        raise ValueError(f"unknown decomposition case {case!r}")
    shape, shift = _DECOMPOSITIONS[case]
    if shift and e != 1:
        raise ValueError("the curly variant is defined for e = 1")
    if shape == "slope" and (e != 1 or b % 2 or b <= 6):
        raise ValueError(f"{case} decomposition needs e = 1, b even, b > 6")
    L = lam(b, e) - shift               # top square side
    w = rational(b - shift, b, e)       # bottom rectangle width

    def p(hx, vx):
        return period(hx, vx, b, e)

    if shape == "horizontal":
        pairs = ((p(L, 0), p(0, L)), (p(w, 0), p(0, 1)))
    elif shape == "vertical":
        pairs = ((p(0, L + 1), p(-L, 0)), (p(0, 1), p(-(w - L), 0)))
    else:  # slope 2/w, needs L < w/2
        pairs = ((p(w, 2), p(L, 1)), (p(w / 2 * L + w, L + 2), p(-L, 0)))
    return [cylinder_modulus(c, x) for c, x in pairs]


def modulus_ratio(case: str, b: int, e: int) -> QuadraticElement:
    """The exact commensurability ratio of the two cylinder moduli of the
    given decomposition; always rational (InvariantError otherwise)."""
    m1, m2 = _decomposition_moduli(case, b, e)
    # which ratio each shape reports (the commensurability witness in the
    # paper): horizontal m1/m2 = b (curly: b - 2), vertical m2/m1 = b - e - 1
    # (curly: b), slope m1/m2 = (b/2 - e - 2)/2 (curly: b/4)
    ratio = m2 / m1 if _DECOMPOSITIONS[case][0] == "vertical" else m1 / m2
    if not ratio.is_rational():
        raise InvariantError(f"modulus ratio for {case} has a lambda-part: {ratio!r}")
    return ratio


# ---------------------------------------------------------------------------
# the intersection form and transvections
# ---------------------------------------------------------------------------

def symplectic_pairing(u, w) -> int:
    """u^T J w: the intersection form on H_1 in the basis (a1, b1, a2, b2)."""
    return (u[0] * w[1] - u[1] * w[0]) + (u[2] * w[3] - u[3] * w[2])


IDENTITY4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

#: Gram matrix of the intersection form: diag([[0,1],[-1,0]], [[0,1],[-1,0]])
J4 = tuple(tuple(symplectic_pairing(u, w) for w in IDENTITY4) for u in IDENTITY4)


def multitwist_matrix(cylinders):
    """Composite transvection x -> x + k <c, x> c over the given
    (core_class, power) pairs.

    Horizontal multitwists of the L surfaces have positive powers, vertical
    ones negative (a right-handed twist seen along the core points opposite
    ways relative to the orientation of the symplectic form).
    """
    cols = []
    for j in range(4):
        x = IDENTITY4[j]
        for core, k in cylinders:
            if k == 0:
                raise ValueError("twist powers must be nonzero")
            if gcd(gcd(abs(core[0]), abs(core[1])),
                   gcd(abs(core[2]), abs(core[3]))) != 1:
                raise ValueError("core class must be primitive")
            coef = k * symplectic_pairing(core, x)
            x = [xi + coef * ci for xi, ci in zip(x, core)]
        cols.append(x)
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def horizontal_twist_matrix(b: int, e: int):
    """H, rebuilt from the horizontal cylinder cores (a1, power b), (a2, 1)."""
    return multitwist_matrix([((1, 0, 0, 0), b), ((0, 0, 1, 0), 1)])


def vertical_twist_matrix(b: int, e: int):
    """V, rebuilt from the vertical cores (b1+b2, power -1), (b2, -(b-e-1))."""
    return multitwist_matrix([((0, 1, 0, 1), -1), ((0, 0, 0, 1), -(b - e - 1))])
