"""Exact arithmetic in Q[t]/(f), f monic with integer coefficients, and the
cyclotomic field Q(zeta_20).

`RingElement` is the one implementation of the ring operations: an element
is a tuple of d integer numerators of 1, t, ..., t^(d-1) over one positive
common denominator, in lowest terms (gcd(num..., den) = 1, so zero is all
zeros over 1 and every element has one representation), reduced by the
relation t^d = r_0 + r_1 t + ... + r_(d-1) t^(d-1) that stands for f.  The
operations work on these integers; `coeffs` is a read-only view of the
coefficients as Fractions.  Inversion is by the norm over the conjugates
each ring lists: N(x) = x * prod sigma(x) is a rational, and
1/x = prod sigma(x) / N(x).  Q(lambda) (`lshape`) and Q(zeta_20) are its two
subclasses.

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
from math import gcd, lcm
from operator import add, mul, neg, sub

from . import InvariantError

Q = Fraction

#: zeta^8 = -1 + zeta^2 - zeta^4 + zeta^6
_PHI20 = (-1, 0, 1, 0, -1, 0, 1, 0)
#: the exponents k != 1 prime to 20: sigma_k for these are the other conjugates
_OTHER_UNITS = (3, 7, 9, 11, 13, 17, 19)


def _ratio(q) -> tuple[int, int]:
    """(numerator, denominator) of a rational scalar, in lowest terms."""
    if not isinstance(q, (int, Fraction)):
        q = Q(q)
    return q.numerator, q.denominator


class RingElement:
    """An element of Q[t]/(f): the integer numerators `num` of 1, t, ...,
    t^(d-1) over the positive denominator `den`, in lowest terms, and
    `relation` = (r_0, ..., r_(d-1)), integers with t^d = sum r_k t^k.
    Subclasses list the other conjugates in `_conjugates`."""

    __slots__ = ("num", "den", "relation")

    def __init__(self, coeffs, relation):
        ratios = [_ratio(c) for c in coeffs]
        den = lcm(*(q for _, q in ratios))
        cs = [p * (den // q) for p, q in ratios]
        cs += [0] * (len(relation) - len(cs))
        _set_relation(self, tuple(relation))
        lowest = self._like(self._reduce(cs), den)
        _set_num(self, lowest.num)
        _set_den(self, lowest.den)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple:
        """The Fraction coefficients of 1, t, ..., t^(d-1)."""
        return tuple(Q(n, self.den) for n in self.num)

    def _like(self, num, den: int) -> "RingElement":
        """The element num/den of this ring: integer numerators of 1, t, ...,
        t^(d-1) over any nonzero common denominator, put in lowest terms."""
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
        new = object.__new__(type(self))
        _set_num(new, num)
        _set_den(new, den)
        _set_relation(new, self.relation)
        return new

    def _reduce(self, cs: list) -> tuple:
        """Reduce the integer list `cs` (any length >= d) in place by the
        relation, top degree first; return the d low entries."""
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
        p, q = _ratio(other)
        return self._like((p,) + (0,) * (len(self.num) - 1), q)

    def _sum(self, other, op) -> "RingElement":
        o = self._coerce(other)
        da, db = self.den, o.den
        if da == db:
            return self._like(tuple(map(op, self.num, o.num)), da)
        return self._like(tuple(op(x * db, y * da) for x, y in zip(self.num, o.num)),
                          da * db)

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, sub)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._like(tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            p, q = _ratio(other)
            return self._like(tuple(n * p for n in self.num), self.den * q)
        o = self._coerce(other)
        b = o.num
        prod = [0] * (2 * len(b) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        prod[j] += x * y
        return self._like(self._reduce(prod), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RingElement):
            return self * other.inverse()
        p, q = _ratio(other)
        if not p:
            raise ZeroDivisionError(f"{self!r} / 0")
        return self._like(tuple(n * q for n in self.num), self.den * p)

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
        n = norm.num[0]
        if not n:
            raise ZeroDivisionError(f"{self!r} is zero or a zero divisor")
        return self._like(tuple(x * norm.den for x in others.num), others.den * n)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes like it
        if self.is_rational():
            return hash(Q(self.num[0], self.den))
        return hash((self.num, self.den, self.relation))

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Q(self.num[0], self.den)

    def __repr__(self):
        terms = [f"{c}*t^{k}" if k else f"{c}" for k, c in enumerate(self.coeffs) if c]
        return (f"{type(self).__name__}({' + '.join(terms) or '0'}; "
                f"t^{len(self.relation)} = {self.relation})")


_set_num = RingElement.num.__set__
_set_den = RingElement.den.__set__
_set_relation = RingElement.relation.__set__


class CyclotomicElement(RingElement):
    """An element of Q(zeta_20), stored as 8 integer numerators of
    1, zeta, ..., zeta^7 over one denominator."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(coeffs, _PHI20)

    def _conjugates(self):
        return [self.galois(k) for k in _OTHER_UNITS]

    def galois(self, k: int) -> "CyclotomicElement":
        """The Galois image sigma_k(self) under zeta -> zeta^k, k prime to 20."""
        if gcd(k, 20) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism: gcd({k}, 20) > 1")
        slots = [0] * 20
        for j, c in enumerate(self.num):
            slots[j * k % 20] = c     # j -> jk is injective mod 20
        return self._like(self._reduce(slots), self.den)

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


#: 1/(2i) = -i/2
_HALF_OVER_I = I_UNIT * Q(-1, 2)


def imag_part(p: "CyclotomicElement") -> "CyclotomicElement":
    """The (totally real) imaginary part (p - conj(p)) / (2i)."""
    return (p - p.conjugate()) * _HALF_OVER_I
