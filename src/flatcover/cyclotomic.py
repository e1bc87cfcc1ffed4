"""Exact arithmetic in the cyclotomic field Q(zeta_20).

Elements are polynomials in zeta of degree < 8 with Fraction coefficients,
reduced modulo the 20th cyclotomic polynomial

    Phi_20(x) = x^8 - x^6 + x^4 - x^2 + 1,

so zeta^8 = zeta^6 - zeta^4 + zeta^2 - 1.  The field contains i = zeta^5 and
the primitive 10th root of unity xi = zeta^2, which is what the regular
double decagon needs.

The Galois automorphisms are sigma_k: zeta -> zeta^k for k prime to 20.
Inversion is by the norm: N(x) = x * prod_{k != 1} sigma_k(x) is a nonzero
rational for x != 0, so 1/x = prod_{k != 1} sigma_k(x) / N(x).
"""
from __future__ import annotations

from fractions import Fraction

from . import InvariantError

Q = Fraction

DEGREE = 8
#: the exponents k != 1 prime to 20: sigma_k for these are the other conjugates
_OTHER_UNITS = (3, 7, 9, 11, 13, 17, 19)


class CyclotomicElement:
    """An element of Q(zeta_20), stored as 8 Fraction coefficients of
    1, zeta, ..., zeta^7."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Q(c) for c in coeffs]
        if len(cs) > DEGREE:
            cs = _reduce(cs)
        cs += [Q(0)] * (DEGREE - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicElement is immutable")

    def _coerce(self, other) -> "CyclotomicElement":
        if isinstance(other, CyclotomicElement):
            return other
        return CyclotomicElement([other])

    def __add__(self, other):
        o = self._coerce(other)
        return CyclotomicElement([a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return CyclotomicElement([a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return CyclotomicElement([-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        prod = [Q(0)] * (2 * DEGREE - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CyclotomicElement(_reduce(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def galois(self, k: int) -> "CyclotomicElement":
        """The Galois image sigma_k(self) under zeta -> zeta^k."""
        slots = [Q(0)] * 20
        for j, c in enumerate(self.coeffs):
            slots[j * k % 20] += c
        return CyclotomicElement(slots)

    def conjugate(self) -> "CyclotomicElement":
        """Complex conjugation: zeta -> zeta^-1 = zeta^19."""
        return self.galois(19)

    def inverse(self) -> "CyclotomicElement":
        """Inverse by the norm: the product of the other Galois conjugates
        divided by N(self) = self * (that product), a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        others = ONE
        for k in _OTHER_UNITS:
            others = others * self.galois(k)
        norm = self * others
        if not norm.is_rational() or norm.is_zero():
            raise InvariantError(f"norm {norm!r} is not a nonzero rational")
        return others * (1 / norm.as_fraction())

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if k == 0 else f"{c}*z^{k}")
        return "CyclotomicElement(" + (" + ".join(terms) or "0") + ")"


def _reduce(coeffs):
    """Reduce a coefficient list modulo Phi_20 in place."""
    cs = list(coeffs)
    for i in range(len(cs) - 1, DEGREE - 1, -1):
        c = cs[i]
        if c:
            cs[i] = Q(0)
            # x^i = x^(i-8) * (x^6 - x^4 + x^2 - 1)
            cs[i - 2] += c
            cs[i - 4] -= c
            cs[i - 6] += c
            cs[i - 8] -= c
    return cs[:DEGREE]


def zeta_pow(k: int) -> CyclotomicElement:
    """zeta_20^k for any integer k."""
    k %= 20
    coeffs = [Q(0)] * (k + 1)
    coeffs[k] = Q(1)
    return CyclotomicElement(coeffs)


ZETA = zeta_pow(1)
XI = zeta_pow(2)    # primitive 10th root of unity
I_UNIT = zeta_pow(5)
ONE = CyclotomicElement([1])


def imag_part(p: "CyclotomicElement") -> "CyclotomicElement":
    """The (totally real) imaginary part (p - conj(p)) / (2i)."""
    return (p - p.conjugate()) * (I_UNIT * Q(-1, 2))
