from fractions import Fraction as Q
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from flatcover.lshape import (PlanarPeriod, QuadraticElement,
                              cylinder_modulus, horizontal_twist_matrix, lam,
                              modulus_ratio, multitwist_matrix, period,
                              rational, vertical_twist_matrix)
from flatcover.monodromy import (group_closure, is_symplectic, mat_H, mat_V,
                                 mat_X, mat_mod)


def cmul(z, w):
    """Complex multiplication of planar periods."""
    a, b = z.horizontal, z.vertical
    c, d = w.horizontal, w.vertical
    return PlanarPeriod(a * c - b * d, a * d + b * c)


def twist_powers(ratio):
    """(k1, k2) with m1/m2 = k1/k2 in lowest terms: the twist powers in the
    two cylinders of the smallest common multitwist."""
    if isinstance(ratio, QuadraticElement):
        ratio = ratio.as_fraction()
    ratio = Q(ratio)
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    return ratio.numerator, ratio.denominator


def diagonal_twist_mod2(b, e):
    """Mod-2 matrix of the multitwist in the slope-2/b decomposition of
    L(b, e) (b = 2 mod 4) or the slope-2/(b-2) decomposition of curly-L
    (b = 0 mod 4), with cores alpha = (0,0,1,2) and alpha + beta,
    beta = (b/2, 1, 0, 0)."""
    if e != 1 or b % 2:
        raise ValueError("diagonal twists need e = 1 and b even")
    ratio = modulus_ratio("slope_2_b" if b % 4 == 2 else "curly_slope", b, e)
    k1, k2 = twist_powers(ratio)
    alpha = (0, 0, 1, 2)
    beta = (b // 2, 1, 0, 0)
    ab = tuple(x + y for x, y in zip(alpha, beta))
    M = multitwist_matrix([(alpha, k1), (ab, k2)])
    return tuple(tuple(x % 2 for x in row) for row in M)


def quads(b, e, max_den=6):
    rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, max_den))
    return st.builds(lambda x, y: QuadraticElement(x, y, b, e),
                     rationals, rationals)


# -- field arithmetic --------------------------------------------------------

def test_defining_relation():
    for b, e in ((6, 1), (6, -1), (4, 0), (2, -1), (9, 0)):
        L = lam(b, e)
        assert L * L == e * L + b


@settings(max_examples=60)
@given(quads(6, 1), quads(6, 1), quads(6, 1))
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == rational(0, 6, 1)


@settings(max_examples=60)
@given(quads(6, -1))
def test_inverse_and_norm(a):
    # N(x + y lambda) = x^2 + e x y - b y^2 = (x + y lambda)(x + y lambda')
    norm = a.x * a.x + a.e * a.x * a.y - a.b * a.y * a.y
    assert a * a.galois_conjugate() == rational(norm, 6, -1)
    if norm == 0:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == rational(1, 6, -1)


def test_zero_divisors_at_square_discriminant():
    # L(6, -1): D = 25, and lambda^2 + lambda - 6 = (lambda - 2)(lambda + 3)
    L = lam(6, -1)
    assert (L - 2) * (L + 3) == 0
    for z in (L - 2, L + 3):
        with pytest.raises(ZeroDivisionError):
            z.inverse()
        with pytest.raises(ZeroDivisionError):
            1 / z


def test_square_discriminant_computes_in_q_times_q_not_the_reals():
    """At a square D the ring Q[t]/(f) is Q x Q, and ==, `inverse` and
    `sign` disagree with the real values.  This pins today's semantics, the
    open mend of ROADMAP item 11: a mend that makes them agree flips both
    checks on purpose."""
    # L(6, -1): lambda = 2, so lambda + 3 is 5 as a real number, yet it is
    # the zero divisor t + 3 of Q[t]/((t - 2)(t + 3))
    assert (lam(6, -1) + 3).sign() == 1
    with pytest.raises(ZeroDivisionError):
        (lam(6, -1) + 3).inverse()
    # L(6, 1): lambda = 3 as a real number, but not in the ring
    assert lam(6, 1) != 3
    assert (lam(6, 1) - 3).sign() == 0


@settings(max_examples=60)
@given(quads(6, 1))
def test_galois_conjugate_is_involution(a):
    assert a.galois_conjugate().galois_conjugate() == a
    assert (a + a.galois_conjugate()).is_rational()


def test_exact_sign():
    # lambda = (1 + 5)/2 = 3 for (b, e) = (6, 1): a square discriminant,
    # where sign comparisons are tightest
    L = lam(6, 1)
    assert L != rational(3, 6, 1)   # formally distinct coefficients...
    assert (L - 3).sign() == 0      # ...but equal as real numbers
    # irrational case: lambda = (1 + sqrt(29))/2 for (b, e) = (7, 1)
    M = lam(7, 1)
    assert (M - 3).sign() > 0
    assert (M - Q(16, 5)).sign() < 0
    assert (2 * M - 6).sign() > 0
    assert M.galois_conjugate().sign() < 0


@settings(max_examples=100)
@given(st.sampled_from([(7, 1), (6, 1), (6, -1), (9, 0), (4, 0)])
       .flatmap(lambda be: quads(*be)))
def test_sign_matches_a_bracket_of_sqrt_D(a):
    # 2 * value = A + B sqrt(D), and r / 2^64 <= sqrt(D) < (r + 1) / 2^64
    D = a.e * a.e + 4 * a.b
    r = isqrt(D << 128)
    A, B = 2 * a.x + a.e * a.y, a.y
    ends = [A + B * Q(r + d, 1 << 64) for d in ((0,) if r * r == D << 128 else (0, 1))]
    expected = 1 if min(ends) > 0 else -1 if max(ends) < 0 else 0
    assert a.sign() == expected


def test_mixed_rings_rejected():
    with pytest.raises(ValueError):
        lam(6, 1) + lam(7, 1)


# -- cylinder moduli ---------------------------------------------------------

def test_modulus_of_axis_aligned_cylinder():
    # a width-w height-h horizontal cylinder has modulus h/w
    m = cylinder_modulus(period(6, 0, 6, 1), period(0, 1, 6, 1))
    assert m == rational(Q(1, 6), 6, 1)
    # a zero core period, also one that is zero only as a real number
    # (lambda = 2 for L(6, -1))
    for core in (period(0, 0, 6, 1), period(lam(6, -1) - 2, 0, 6, -1)):
        with pytest.raises(ZeroDivisionError):
            cylinder_modulus(core, period(0, 1, core.vertical.b, core.vertical.e))


@settings(max_examples=40)
@given(quads(7, 1), quads(7, 1))
def test_modulus_scale_invariant(x, y):
    # rotating/scaling both periods by the same nonzero complex number
    # preserves the modulus
    core = period(lam(7, 1), 1, 7, 1)
    crossing = period(2, lam(7, 1) - 1, 7, 1)
    z = PlanarPeriod(x, y)
    if z.horizontal.sign() == 0 and z.vertical.sign() == 0:
        return
    assert cylinder_modulus(cmul(z, core), cmul(z, crossing)) == \
        cylinder_modulus(core, crossing)


def test_commensurability_ratios():
    for b, e in ((7, 1), (6, -1), (4, 0), (12, 1), (10, 1)):
        assert modulus_ratio("horizontal", b, e) == rational(b, b, e)
        assert modulus_ratio("vertical", b, e) == rational(b - e - 1, b, e)
    for b in (8, 10, 12, 14):
        assert modulus_ratio("slope_2_b", b, 1) == \
            rational(Q(b - 6, 4), b, 1)
        assert modulus_ratio("curly_horizontal", b, 1) == rational(b - 2, b, 1)
        assert modulus_ratio("curly_vertical", b, 1) == rational(b, b, 1)
        assert modulus_ratio("curly_slope", b, 1) == rational(Q(b, 4), b, 1)


def test_decomposition_preconditions():
    with pytest.raises(ValueError):
        modulus_ratio("slope_2_b", 6, 1)
    with pytest.raises(ValueError):
        modulus_ratio("curly_slope", 6, 1)
    with pytest.raises(ValueError):
        modulus_ratio("curly_horizontal", 7, 0)
    with pytest.raises(ValueError):
        modulus_ratio("nonsense", 6, 1)


def test_twist_powers():
    assert twist_powers(Q(3, 2)) == (3, 2)
    assert twist_powers(rational(4, 6, 1)) == (4, 1)
    with pytest.raises(ValueError):
        twist_powers(Q(-1, 2))


# -- transvections -----------------------------------------------------------

def test_twist_matrices_match_monodromy_generators():
    for b, e in ((6, 1), (6, -1), (4, 0), (12, 1), (9, 0)):
        assert horizontal_twist_matrix(b, e) == mat_H(b, e)
        assert vertical_twist_matrix(b, e) == mat_V(b, e)


def test_multitwist_is_symplectic():
    M = multitwist_matrix([((1, 0, 1, 0), 2), ((0, 1, 0, 0), 3)])
    assert is_symplectic(M)


def test_multitwist_rejects_bad_input():
    with pytest.raises(ValueError):
        multitwist_matrix([((2, 0, 2, 0), 1)])        # imprimitive core
    with pytest.raises(ValueError):
        multitwist_matrix([((1, 0, 0, 0), 0)])        # zero power


def test_diagonal_twist_mod2():
    for b in (10, 14, 8, 12):
        M = diagonal_twist_mod2(b, 1)
        assert all(x in (0, 1) for row in M for x in row)
        assert is_symplectic(mat_mod(M, 2), mod=2)
    # the literal mod-2 generator X of D = 1 mod 8 is the diagonal twist up to
    # <H, V>: both extend <H, V> to the same group of order 12 (b = 2 mod 4;
    # b = 0 mod 4 twists curly-L, in another basis)
    for b in range(10, 79, 4):
        HV = [mat_H(b, 1), mat_V(b, 1)]
        G = group_closure(HV + [diagonal_twist_mod2(b, 1)], 2)
        assert G == group_closure(HV + [mat_X()], 2)
        assert len(G) == 12
    with pytest.raises(ValueError):
        diagonal_twist_mod2(9, 1)
