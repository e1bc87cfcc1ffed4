from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from flatcover.cyclotomic import (CyclotomicElement, I_UNIT, ONE, XI, ZETA,
                                  imag_part, zeta_pow)


def elements():
    return st.lists(st.builds(Q, st.integers(-6, 6), st.integers(1, 4)),
                    min_size=0, max_size=8).map(CyclotomicElement)


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


@settings(max_examples=50)
@given(elements(), elements(), elements())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) - b == a


@settings(max_examples=40)
@given(elements())
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == ONE
        assert (ONE / a) * a == ONE


@settings(max_examples=40)
@given(elements())
def test_conjugation(a):
    assert a.conjugate().conjugate() == a
    # norm a * conj(a) is fixed by conjugation (it is real)
    n = a * a.conjugate()
    assert n.conjugate() == n


UNITS = [k for k in range(1, 20) if gcd(k, 20) == 1]


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
