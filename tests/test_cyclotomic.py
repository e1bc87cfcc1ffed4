from fractions import Fraction as Q
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from flatcover.cyclotomic import (CyclotomicElement, I_UNIT, ONE, XI, ZETA,
                                  imag_part, zeta_pow)
from flatcover.lshape import QuadraticElement, lam, rational

UNITS = [k for k in range(1, 20) if gcd(k, 20) == 1]


def rational_lists(min_size, max_size):
    return st.lists(st.builds(Q, st.integers(-6, 6), st.integers(1, 4)),
                    min_size=min_size, max_size=max_size)


def elements():
    return rational_lists(0, 8).map(CyclotomicElement)


#: element strategies of the rings of `RingElement` under test: Q(zeta_20),
#: and Q(lambda) at an irrational discriminant (L(7, 1), D = 29) and at
#: square ones (L(6, 1) and L(6, -1), D = 25), where it has zero divisors
RINGS = [elements()] + [
    rational_lists(2, 2).map(lambda xy, b=b, e=e: QuadraticElement(*xy, b, e))
    for b, e in ((7, 1), (6, 1), (6, -1))]


def same_ring(count):
    """`count` elements of one ring of RINGS."""
    return st.sampled_from(RINGS).flatmap(lambda ring: st.tuples(*[ring] * count))


def norm(a):
    """N(a) without `inverse`: x^2 + e x y - b y^2 in Q(lambda), the product
    of the 8 Galois images in Q(zeta_20)."""
    if isinstance(a, QuadraticElement):
        return a.x * a.x + a.e * a.x * a.y - a.b * a.y * a.y
    return reduce(mul, (a.galois(k) for k in UNITS)).as_fraction()


def test_zeta_is_a_primitive_20th_root():
    assert zeta_pow(20) == ONE
    powers = [zeta_pow(k) for k in range(20)]
    assert len(set(powers)) == 20
    for k in range(1, 20):
        assert powers[k] != ONE


def test_minimal_polynomial():
    z = ZETA
    z2, z4, z6, z8 = z * z, zeta_pow(4), zeta_pow(6), zeta_pow(8)
    assert z8 - z6 + z4 - z2 + ONE == CyclotomicElement()
    assert z2 == zeta_pow(2)


def test_special_units():
    assert I_UNIT * I_UNIT == -ONE
    assert XI == ZETA * ZETA
    xi = XI
    acc = ONE
    for _ in range(10):
        acc = acc * xi
    assert acc == ONE  # xi has order 10
    assert zeta_pow(10) == -ONE


@settings(max_examples=80)
@given(same_ring(3))
def test_ring_axioms(abc):
    a, b, c = abc
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a + b) - b == a
    assert a - a == 0 and -a + a == 0
    assert 2 * a == a + a and a * 1 == a and 0 - a == -a


@settings(max_examples=80)
@given(st.one_of(RINGS))
def test_inverse(a):
    n = norm(a)
    if isinstance(a, QuadraticElement):
        assert a * a.galois_conjugate() == n
    if n == 0:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == 1
        assert (1 / a) * a == 1
        assert a / a == 1 and a / 2 == a * Q(1, 2)


def test_rational_elements_hash_like_their_value():
    for element, value in ((rational(3, 6, 1), 3), (ONE, 1),
                           (CyclotomicElement([Q(-1, 2)]), Q(-1, 2)),
                           (rational(Q(3, 6), 7, 1), Q(1, 2))):
        assert element == value and hash(element) == hash(value)
        assert len({element, value}) == 1


def test_mixed_rings_are_refused():
    with pytest.raises(ValueError):
        lam(6, 1) + ZETA
    with pytest.raises(ValueError):
        ZETA * lam(6, 1)
    assert not lam(6, 1) == ZETA
    assert lam(6, 1) != ZETA


@settings(max_examples=40)
@given(elements())
def test_conjugation(a):
    assert a.conjugate().conjugate() == a
    # norm a * conj(a) is fixed by conjugation (it is real)
    n = a * a.conjugate()
    assert n.conjugate() == n


@settings(max_examples=40)
@given(elements(), elements())
def test_galois_automorphisms(a, b):
    for k in UNITS:
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
        assert ONE.galois(k) == ONE
        for l in UNITS:
            assert a.galois(l).galois(k) == a.galois(k * l % 20)
    norm = ONE
    for k in UNITS:
        norm = norm * a.galois(k)
    assert norm.is_rational()
    assert a.conjugate() == a.galois(19)


def test_galois_needs_k_prime_to_20():
    # for k not prime to 20, zeta -> zeta^k applied to the reduced
    # coefficients is no ring map: with k = 2 the image of zeta^5 * zeta^4
    # differs from the product of the images of zeta^5 and zeta^4
    for k in (0, 2, 4, 5, 10, 15, 22, -4):
        with pytest.raises(ValueError):
            ZETA.galois(k)
    assert ZETA.galois(-1) == ZETA.galois(19) == zeta_pow(19)


def test_conjugate_on_roots():
    assert ZETA.conjugate() == zeta_pow(19)
    assert I_UNIT.conjugate() == -I_UNIT


@settings(max_examples=40)
@given(elements())
def test_real_imag_decomposition(a):
    im = imag_part(a)
    re = a - I_UNIT * im
    assert re.conjugate() == re
    assert im.conjugate() == im


def test_rational_detection():
    assert CyclotomicElement([Q(3, 2)]).is_rational()
    assert CyclotomicElement([Q(3, 2)]).as_fraction() == Q(3, 2)
    assert not ZETA.is_rational()
    with pytest.raises(ValueError):
        ZETA.as_fraction()


def test_reduction_of_long_inputs():
    # zeta^13 fed as a raw degree-13 coefficient vector reduces correctly
    raw = CyclotomicElement([0] * 13 + [1])
    assert raw == zeta_pow(13)
