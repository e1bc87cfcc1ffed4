"""Exact arithmetic in Q[t]/(f), f monic, and the cyclotomic field Q(zeta_20).

`RingElement` is the one implementation of the ring operations: an element
is its d Fraction coefficients of 1, t, ..., t^(d-1), reduced by the relation
t^d = r_0 + r_1 t + ... + r_(d-1) t^(d-1) that stands for f.  Inversion is by
the norm over the conjugates each ring lists: N(x) = x * prod sigma(x) is a
rational, and 1/x = prod sigma(x) / N(x).  Q(lambda) (`lshape`) and Q(zeta_20)
are its two subclasses.

Q(zeta_20) reduces modulo the 20th cyclotomic polynomial

    Phi_20(x) = x^8 - x^6 + x^4 - x^2 + 1,

so zeta^8 = zeta^6 - zeta^4 + zeta^2 - 1.  The field contains i = zeta^5 and
the primitive 10th root of unity xi = zeta^2, which is what the regular
double decagon needs.  Its Galois automorphisms are sigma_k: zeta -> zeta^k
for k prime to 20.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, mul, neg, sub

from . import InvariantError

Q = Fraction

_ZERO = Q(0)
#: zeta^8 = -1 + zeta^2 - zeta^4 + zeta^6
_PHI20 = (-1, 0, 1, 0, -1, 0, 1, 0)
#: the exponents k != 1 prime to 20: sigma_k for these are the other conjugates
_OTHER_UNITS = (3, 7, 9, 11, 13, 17, 19)


class RingElement:
    """An element of Q[t]/(f): `coeffs` are the Fraction coefficients of
    1, t, ..., t^(d-1) and `relation` = (r_0, ..., r_(d-1)) gives
    t^d = sum r_k t^k.  Subclasses list the other conjugates in
    `_conjugates`."""

    __slots__ = ("coeffs", "relation")

    def __init__(self, coeffs, relation):
        cs = [Q(c) for c in coeffs]
        cs += [_ZERO] * (len(relation) - len(cs))
        object.__setattr__(self, "relation", tuple(relation))
        object.__setattr__(self, "coeffs", self._reduce(cs))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, coeffs: tuple) -> "RingElement":
        """The element of this ring with the given reduced coefficients."""
        new = object.__new__(type(self))
        _set_coeffs(new, coeffs)
        _set_relation(new, self.relation)
        return new

    def _reduce(self, cs: list) -> tuple:
        """Reduce the coefficient list `cs` (any length >= d) in place by the
        relation, top degree first; return the d low coefficients."""
        rel = self.relation
        d = len(rel)
        for i in range(len(cs) - 1, d - 1, -1):
            c = cs[i]
            if c:
                for k, r in enumerate(rel, i - d):
                    if r:
                        cs[k] += r * c
        return tuple(cs[:d])

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.relation != self.relation:
                raise ValueError("elements of different rings")
            return other
        return self._like((Q(other),) + (_ZERO,) * (len(self.coeffs) - 1))

    def __add__(self, other):
        return self._like(tuple(map(add, self.coeffs, self._coerce(other).coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        return self._like(tuple(map(sub, self.coeffs, self._coerce(other).coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._like(tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            s = Q(other)
            return self._like(tuple(c * s for c in self.coeffs))
        o = self._coerce(other).coeffs
        prod = [_ZERO] * (2 * len(o) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o, i):
                    if b:
                        prod[j] += a * b
        return self._like(self._reduce(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (other.inverse() if isinstance(other, RingElement) else 1 / Q(other))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "RingElement":
        """prod sigma(self) / N(self) over the other conjugates sigma(self).
        A zero norm (zero, or a zero divisor when f splits) raises
        ZeroDivisionError."""
        others = reduce(mul, self._conjugates())
        norm = self * others
        if not norm.is_rational():
            raise InvariantError(f"norm {norm!r} is not rational")
        if not norm.coeffs[0]:
            raise ZeroDivisionError(f"{self!r} is zero or a zero divisor")
        return others * (1 / norm.coeffs[0])

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes like it
        return hash(self.coeffs[0] if self.is_rational() else (self.coeffs, self.relation))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __repr__(self):
        terms = [f"{c}*t^{k}" if k else f"{c}" for k, c in enumerate(self.coeffs) if c]
        return (f"{type(self).__name__}({' + '.join(terms) or '0'}; "
                f"t^{len(self.relation)} = {self.relation})")


_set_coeffs = RingElement.coeffs.__set__
_set_relation = RingElement.relation.__set__


class CyclotomicElement(RingElement):
    """An element of Q(zeta_20), stored as 8 Fraction coefficients of
    1, zeta, ..., zeta^7."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(coeffs, _PHI20)

    def _conjugates(self):
        return [self.galois(k) for k in _OTHER_UNITS]

    def galois(self, k: int) -> "CyclotomicElement":
        """The Galois image sigma_k(self) under zeta -> zeta^k, k prime to 20."""
        if gcd(k, 20) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism: gcd({k}, 20) > 1")
        slots = [_ZERO] * 20
        for j, c in enumerate(self.coeffs):
            slots[j * k % 20] = c     # j -> jk is injective mod 20
        return self._like(self._reduce(slots))

    def conjugate(self) -> "CyclotomicElement":
        """Complex conjugation: zeta -> zeta^-1 = zeta^19."""
        return self.galois(19)


def zeta_pow(k: int) -> CyclotomicElement:
    """zeta_20^k for any integer k."""
    return CyclotomicElement([0] * (k % 20) + [1])


ZETA = zeta_pow(1)
XI = zeta_pow(2)    # primitive 10th root of unity
I_UNIT = zeta_pow(5)
ONE = CyclotomicElement([1])


def imag_part(p: "CyclotomicElement") -> "CyclotomicElement":
    """The (totally real) imaginary part (p - conj(p)) / (2i)."""
    return (p - p.conjugate()) * (I_UNIT * Q(-1, 2))
