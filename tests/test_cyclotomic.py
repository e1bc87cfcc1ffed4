import random
from fractions import Fraction as Q
from functools import partial, reduce
from math import gcd, isqrt
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from flatcover import InvariantError, cyclotomic, lshape
from flatcover.cyclotomic import (CyclotomicElement, I_UNIT, ONE, XI, ZETA,
                                  imag_part, zeta_pow)
from flatcover.lshape import (QuadraticElement, horizontal_twist_matrix,
                              is_prototype, lam, modulus_ratio, rational,
                              vertical_twist_matrix)
from flatcover.monodromy import mat_H, mat_V

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


# -- the ring against a Fraction reference ------------------------------------

class RefRing:
    """Q[t]/(f) on tuples of Fraction coefficients of 1, t, ..., t^(d-1),
    with t^d = sum relation[k] t^k: the reference `RingElement` is compared
    with.  The inverse solves x * y = 1 by Gaussian elimination, not by the
    norm."""

    def __init__(self, relation):
        self.relation = tuple(relation)
        self.d = len(relation)

    def reduce(self, cs):
        cs = [Q(c) for c in cs] + [Q(0)] * (self.d - len(cs))
        while len(cs) > self.d:
            top = cs.pop()              # top * t^i = top * t^(i-d) * t^d
            for k, r in enumerate(self.relation, len(cs) - self.d):
                cs[k] += r * top
        return tuple(cs)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [Q(0)] * (2 * self.d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return self.reduce(prod)

    def substitute(self, a, image):
        """sum a_j image^j: the ring map t -> image applied to a."""
        out, power = self.reduce([]), self.reduce([1])
        for c in a:
            out = self.add(out, tuple(c * x for x in power))
            power = self.mul(power, image)
        return out

    def inverse(self, a):
        """y with a * y = 1; ZeroDivisionError when a is not invertible."""
        d = self.d
        unit = [self.reduce([0] * j + [1]) for j in range(d)]
        cols = [self.mul(a, u) for u in unit]    # column j: a * t^j
        rows = [[cols[j][i] for j in range(d)] + [Q(i == 0)] for i in range(d)]
        for c in range(d):
            pivot = next((r for r in range(c, d) if rows[r][c]), None)
            if pivot is None:
                raise ZeroDivisionError("singular")
            rows[c], rows[pivot] = rows[pivot], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r in range(d):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return tuple(row[d] for row in rows)


#: Q(zeta_20) (None), Q(lambda) at non-square D (L(7, 1), L(5, 0), L(3, -1))
#: and at square D (L(6, 1), L(6, -1), L(2, -1), L(12, 1)), where it has the
#: zero divisors c * (lambda - r) for the integer roots r
REFERENCE_RINGS = (None, (7, 1), (5, 0), (3, -1), (6, 1), (6, -1), (2, -1), (12, 1))


def reference_ring(be):
    return RefRing((-1, 0, 1, 0, -1, 0, 1, 0) if be is None else be)


def make(be, coeffs):
    if be is None:
        return CyclotomicElement(coeffs)
    return QuadraticElement(*coeffs, *be)


def random_coeffs(rng, ref):
    kind = rng.randrange(8)
    if kind == 0:
        return (Q(0),) * ref.d                       # zero
    cs = [Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(ref.d)]
    if kind == 1:
        return (cs[0],) + (Q(0),) * (ref.d - 1)      # rational
    if kind == 2 and ref.d == 2:
        b, e = ref.relation                          # a zero divisor at square D
        D = e * e + 4 * b
        if isqrt(D) ** 2 == D:
            root = (e + rng.choice((1, -1)) * isqrt(D)) // 2
            return (-root * cs[0], cs[0])
    return tuple(cs)


def assert_is(element, ref):
    """`element` is the reference coefficients `ref` in normal form."""
    num, den = element.num, element.den
    assert den > 0 and gcd(den, *num) == 1, (num, den)
    assert tuple(Q(n, den) for n in num) == ref == element.coeffs
    if not any(ref):
        assert num == (0,) * len(ref) and den == 1
    if not any(ref[1:]):
        assert element.is_rational() and element.as_fraction() == ref[0]
        assert element == ref[0] and hash(element) == hash(ref[0])


def real_sign(x, y, b, e):
    """Sign of x + y lambda, lambda = (e + sqrt(D)) / 2, from a bracket of
    sqrt(D) to 64 bits."""
    D = e * e + 4 * b
    r = isqrt(D << 128)
    ends = [2 * x + e * y + y * Q(r + k, 1 << 64)
            for k in ((0,) if r * r == D << 128 else (0, 1))]
    return 1 if min(ends) > 0 else -1 if max(ends) < 0 else 0


@pytest.mark.parametrize("be", REFERENCE_RINGS)
def test_ring_matches_the_fraction_reference(be):
    ref = reference_ring(be)
    rng = random.Random(f"ring:{be}")
    for _ in range(60):
        ra, rb = random_coeffs(rng, ref), random_coeffs(rng, ref)
        a, b = make(be, ra), make(be, rb)
        assert_is(a, ra)
        assert_is(a + b, ref.add(ra, rb))
        assert_is(a - b, ref.sub(ra, rb))
        assert_is(-a, ref.sub(ref.reduce([]), ra))
        assert_is(a * b, ref.mul(ra, rb))
        q = Q(rng.randint(-9, 9), rng.randint(1, 6))
        rq = ref.reduce([q])
        assert_is(a * q, ref.mul(ra, rq))
        assert_is(q - a, ref.sub(rq, ra))
        if q:
            assert_is(a / q, ref.mul(ra, ref.inverse(rq)))
        else:
            with pytest.raises(ZeroDivisionError):
                a / q
        try:
            rinv = ref.inverse(rb)
        except ZeroDivisionError:
            for divide in (b.inverse, lambda: a / b, lambda: 1 / b):
                with pytest.raises(ZeroDivisionError):
                    divide()
        else:
            assert_is(b.inverse(), rinv)
            assert_is(a / b, ref.mul(ra, rinv))
            assert_is(1 / b, rinv)
        assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
        assert a == make(be, ra) and hash(a) == hash(make(be, ra))
        assert hash(a * b) == hash(b * a)
        if be is None:
            for k in UNITS:
                zeta_k = ref.reduce([0] * k + [1])
                assert_is(a.galois(k), ref.substitute(ra, zeta_k))
            assert_is(a.conjugate(), ref.substitute(ra, ref.reduce([0] * 19 + [1])))
        else:
            b_, e_ = be
            assert_is(a.galois_conjugate(), ref.substitute(ra, (Q(e_), Q(-1))))
            assert a.sign() == real_sign(*ra, b_, e_)
            assert (a - b).sign() == real_sign(*ref.sub(ra, rb), b_, e_)


def reference_ratio(case, b, e):
    """The reported modulus ratio of `case` in RefRing((b, e)): the cylinder
    moduli Im(crossing * conj(core)) / |core|^2 of the L shape's two
    cylinders, m2/m1 for the vertical shapes and m1/m2 otherwise."""
    ref = RefRing((b, e))
    shift = 2 if case.startswith("curly") else 0
    L = (Q(-shift), Q(1))                   # top square side lambda - shift
    w = (Q(b - shift), Q(0))                # bottom width b - shift
    one, zero, two = (Q(1), Q(0)), (Q(0), Q(0)), (Q(2), Q(0))
    neg = partial(ref.sub, zero)
    if case.endswith("horizontal"):
        pairs = (((L, zero), (zero, L)), ((w, zero), (zero, one)))
    elif case.endswith("vertical"):
        pairs = (((zero, ref.add(L, one)), (neg(L), zero)),
                 ((zero, one), (neg(ref.sub(w, L)), zero)))
    else:
        half_w = (w[0] / 2, Q(0))
        pairs = (((w, two), (L, one)),
                 ((ref.add(ref.mul(half_w, L), w), ref.add(L, two)), (neg(L), zero)))

    def modulus(core, crossing):
        (ax, ay), (cx, cy) = core, crossing
        im = ref.sub(ref.mul(cy, ax), ref.mul(cx, ay))
        return ref.mul(im, ref.inverse(ref.add(ref.mul(ax, ax), ref.mul(ay, ay))))

    m1, m2 = (modulus(*pair) for pair in pairs)
    return ref.mul(m2, ref.inverse(m1)) if case.endswith("vertical") \
        else ref.mul(m1, ref.inverse(m2))


def reference_multitwist(cylinders):
    """The product of the transvections x -> x + k <c, x> c, as a matrix."""
    def pairing(u, x):
        return u[0] * x[1] - u[1] * x[0] + u[2] * x[3] - u[3] * x[2]
    cols = []
    for j in range(4):
        x = [int(i == j) for i in range(4)]
        for core, k in cylinders:
            x = [xi + k * pairing(core, x) * ci for xi, ci in zip(x, core)]
        cols.append(x)
    return tuple(tuple(col[i] for col in cols) for i in range(4))


def test_moduli_and_twists_match_the_reference():
    prototypes = [(b, e) for b in range(2, 60) for e in (-1, 0, 1) if is_prototype(b, e)]
    square = [(b, e) for b, e in prototypes if isqrt(e * e + 4 * b) ** 2 == e * e + 4 * b]
    assert len(square) == 19 and (6, 1) in square
    cases = ("horizontal", "vertical", "slope_2_b",
             "curly_horizontal", "curly_vertical", "curly_slope")
    for b, e in prototypes:
        for case in cases:
            if "slope" in case:
                defined = e == 1 and b % 2 == 0 and b > 6
            else:
                defined = e == 1 or not case.startswith("curly")
            if not defined:
                with pytest.raises(ValueError):
                    modulus_ratio(case, b, e)
                continue
            ratio = reference_ratio(case, b, e)
            assert not ratio[1], (case, b, e)
            assert modulus_ratio(case, b, e).coeffs == ratio, (case, b, e)
        h = reference_ratio("horizontal", b, e)[0]
        v = reference_ratio("vertical", b, e)[0]
        H = reference_multitwist([((1, 0, 0, 0), h.numerator), ((0, 0, 1, 0), h.denominator)])
        V = reference_multitwist([((0, 1, 0, 1), -v.denominator), ((0, 0, 0, 1), -v.numerator)])
        assert horizontal_twist_matrix(b, e) == H == mat_H(b, e), (b, e)
        assert vertical_twist_matrix(b, e) == V == mat_V(b, e), (b, e)


def test_ring_operations_build_no_fraction(monkeypatch):
    # the operations between elements work on integer numerators; only the
    # views (`coeffs`, `as_fraction`, `x`, `y`) and the hash of a rational
    # element build Fractions
    rings = [[CyclotomicElement([Q(1, 2), -3, 0, Q(5, 4)]), ZETA + Q(2, 3),
              XI * Q(-7, 6) + 1, ONE * Q(3, 4)]] + [
        [QuadraticElement(Q(1, 2), Q(-2, 3), b, e), lam(b, e) * Q(3, 5) + 1,
         rational(Q(7, 4), b, e)]
        for b, e in ((7, 1), (6, 1), (6, -1))]
    built = []

    def counting(*args):
        built.append(args)
        return Q(*args)

    monkeypatch.setattr(cyclotomic, "Q", counting)
    for elements in rings:
        for a in elements:
            for b in elements:
                a + b, a - b, a * b, a == b
            a.inverse(), -a
            if isinstance(a, QuadraticElement):
                a.galois_conjugate(), a.sign()
            else:
                a.galois(3), a.conjugate()
    assert built == []


def test_inverse_refuses_a_norm_that_is_not_rational(monkeypatch):
    # with a conjugate missing, x * prod sigma(x) is no norm
    monkeypatch.setattr(CyclotomicElement, "_conjugates", lambda self: [self.galois(3)])
    with pytest.raises(InvariantError, match="is not rational"):
        ZETA.inverse()


def test_modulus_ratio_refuses_a_lambda_part(monkeypatch):
    monkeypatch.setattr(lshape, "_decomposition_moduli",
                        lambda case, b, e: [lam(b, e), rational(1, b, e)])
    with pytest.raises(InvariantError, match="has a lambda-part"):
        modulus_ratio("horizontal", 7, 1)
