from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import flatcover.origami
from flatcover import InvariantError
from flatcover.classify import square_spins
from flatcover.covers import all_double_covers
from flatcover.origami import (Cycle, Origami, _reduce_cyclic, _tree_cotree, _tree_cycles,
                               intersection, l_origami, symplectic_reduce, winding_index)
from flatcover.perms import parse_cycles
from test_origami import assert_symplectic_mod2

J4 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


def period(c):
    """The planar period (horizontal, vertical) of a cycle."""
    return (sum(c.sig), sum(c.tau))

TORUS = Origami.from_text("n=1 h= v=")
FIVE = Origami(parse_cycles("(1,2)", 5), parse_cycles("(2,3,4,5)", 5))

#: H(2) surfaces with two or more horizontal and vertical cylinders, so not
#: L-shaped; their double covers are labelled in a generic symplectic basis
OFF_L = ("n=5 h=(1,4,5)(2,3) v=(1,3,4)(2,5)",
         "n=6 h=(1,4)(2,5,6,3) v=(1,5,3)(2,6,4)",
         "n=7 h=(1,4)(2,7,3,5,6) v=(1,5,2)(3,6,7,4)")


def test_torus_intersection():
    e = Cycle.from_loop(TORUS, 0, "E")
    n = Cycle.from_loop(TORUS, 0, "N")
    assert intersection(TORUS, e, n) == 1
    assert intersection(TORUS, n, e) == -1
    assert intersection(TORUS, e, e) == 0
    assert period(e) == (1, 0) and period(n) == (0, 1)


def test_loop_must_close():
    with pytest.raises(ValueError):
        Cycle.from_loop(FIVE, 0, "E")  # ends on square 1, not 0


def test_cycle_arithmetic():
    e = Cycle.from_loop(TORUS, 0, "E")
    n = Cycle.from_loop(TORUS, 0, "N")
    assert period(e + n) == (1, 1)
    assert period(e - e) == (0, 0)
    assert period(3 * n) == (0, 3)
    assert period(-e) == (-1, 0)


@settings(max_examples=30)
@given(st.sampled_from(["EN", "ENWS", "EENN", "NESW"]))
def test_intersection_antisymmetric(moves):
    a = Cycle.from_loop(TORUS, 0, moves[: len(moves) // 2] * 2)
    b = Cycle.from_loop(TORUS, 0, moves)
    assert intersection(TORUS, a, b) == -intersection(TORUS, b, a)


def test_winding_index():
    # convention: (right turns - left turns) / 4, so the counterclockwise
    # unit square counts -1 and the clockwise one +1
    def loop(moves):
        return Cycle.from_loop(TORUS, 0, moves)

    assert winding_index(loop("ENWS")) == -1
    assert winding_index(loop("NESW")) == 1
    # backtracking does not change the winding
    assert winding_index(loop("EWENWS")) == winding_index(loop("ENWS"))
    # straight loops are regular
    assert winding_index(loop("E")) == 0


def reference_reduce_cyclic(moves):
    """Cancel one backtrack at a time, adjacent or across the ends, until
    none is left."""
    opposite = {"E": "W", "W": "E", "N": "S", "S": "N"}
    moves = list(moves)
    while True:
        for i in range(len(moves) - 1):
            if moves[i + 1] == opposite[moves[i]]:
                del moves[i:i + 2]
                break
        else:
            if len(moves) >= 2 and moves[0] == opposite[moves[-1]]:
                moves = moves[1:-1]
            else:
                return moves


@settings(max_examples=200)
@given(st.text(alphabet="ENWS", max_size=24))
def test_reduce_cyclic_matches_fixpoint(moves):
    assert _reduce_cyclic(list(moves)) == reference_reduce_cyclic(moves)


def test_fundamental_cycles_and_basis():
    for o in (FIVE, l_origami(4, 0).origami):
        cycles = o._fundamental_cycles()
        assert len(cycles) == o.n + 1
        assert_symplectic_mod2(o, o.symplectic_basis())
        basis = integer_symplectic_basis(o)
        assert [[intersection(o, a, b) for b in basis] for a in basis] == J4


def test_l_origami_pinned_basis_is_symplectic():
    for b, e in ((6, 1), (6, -1), (2, -1), (4, 0), (12, 1), (9, 0)):
        L = l_origami(b, e)
        gram = [[intersection(L.origami, x, y) for y in L.basis] for x in L.basis]
        assert gram == J4
        lam = L.lam
        assert [period(c) for c in L.basis] == [(1, 0), (0, lam), (lam - e, 0), (0, 1)]


def pair4(x, y):
    return sum(x[i] * J4[i][j] * y[j] for i in range(4) for j in range(4))


# -- the integer symplectic reduction, the reference for F_2 bases ------------

def integer_symplectic_reduce(gram: list[list[int]]) -> list[list[int]]:
    """Integer coordinate vectors (a1, b1, a2, b2, ...) for an antisymmetric
    Gram matrix whose nondegenerate quotient is unimodular.

    Returns 2g vectors with pairing(a_i, b_i) = 1 and all other pairings 0.
    """
    m = len(gram)

    def pair(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(m) for j in range(m)
                   if gram[i][j])

    remaining = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    basis: list[list[int]] = []
    while True:
        best = None
        for i in range(len(remaining)):
            for j in range(i + 1, len(remaining)):
                g = pair(remaining[i], remaining[j])
                if g and (best is None or abs(g) < abs(best[2])):
                    best = (i, j, g)
        if best is None:
            break
        i, j, g = best
        u, v = remaining[i], remaining[j]
        if g < 0:
            u, v = v, u
        others = [w for k, w in enumerate(remaining) if k not in (i, j)]
        # Euclid until pair(u, v) divides all pairings with u and v
        while True:
            g = pair(u, v)
            if g < 0:
                u, v = v, u
                g = -g
            # the replaced vector takes w's place, so the span is kept
            for k, w in enumerate(others):
                a = pair(u, w)
                if a % g:
                    others[k], v = v, [x - (a // g) * y for x, y in zip(w, v)]
                    break
                bb = pair(w, v)
                if bb % g:
                    others[k], u = u, [x - (bb // g) * y for x, y in zip(w, u)]
                    break
            else:
                break
        if g != 1:
            raise InvariantError("intersection form is not unimodular on the quotient")
        cleared = []
        for w in others:
            a = pair(u, w)
            bb = pair(v, w)
            cleared.append([x - a * y + bb * z for x, y, z in zip(w, v, u)])
        basis.extend([u, v])
        remaining = cleared
    return basis


def combine(o, cycles, coords):
    """The integer combination of `cycles` with these coordinates."""
    sig = tuple(sum(k * c.sig[t] for k, c in zip(coords, cycles)) for t in range(o.n))
    tau = tuple(sum(k * c.tau[t] for k, c in zip(coords, cycles)) for t in range(o.n))
    return Cycle(o.n, sig, tau)


def integer_symplectic_basis(o):
    """An integer symplectic basis (a1, b1, a2, b2, ...) of the origami o,
    reduced from the `intersection` Gram matrix of its fundamental cycles."""
    cycles = o._fundamental_cycles()
    gram = [[intersection(o, a, b) for b in cycles] for a in cycles]
    return [combine(o, cycles, vec) for vec in integer_symplectic_reduce(gram)]


def test_symplectic_reduce():
    # a Gram matrix already in symplectic shape is returned as the identity
    # coordinate change
    coords = integer_symplectic_reduce([r[:] for r in J4])
    vecs = [tuple(c) for c in coords]
    assert pair4(vecs[0], vecs[1]) == 1
    assert pair4(vecs[2], vecs[3]) == 1
    assert pair4(vecs[0], vecs[2]) == pair4(vecs[0], vecs[3]) == pair4(vecs[1], vecs[2]) == 0
    # over F_2 the last vector is paired first, with its first partner
    rows = [sum((x & 1) << j for j, x in enumerate(row)) for row in J4]
    assert symplectic_reduce(rows) == [(0b1000, 0b0100), (0b0010, 0b0001)]


def f2_pairing(rows, x, y):
    """x . y mod 2 for bitmasks over the vectors with Gram rows `rows`."""
    return sum((row & y).bit_count() for i, row in enumerate(rows) if x >> i & 1) % 2


def f2_rank(rows):
    rank, rows = 0, list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
            rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10).flatmap(
    lambda k: st.lists(st.booleans(), min_size=k * (k - 1) // 2,
                       max_size=k * (k - 1) // 2).map(lambda bits: (k, bits))))
def test_symplectic_reduce_pairs_span_a_complement_of_the_radical(form):
    # any alternating form over F_2, degenerate ones included: the pairs are
    # a symplectic system of half its rank
    k, bits = form
    rows = [0] * k
    upper = iter(bits)
    for i in range(k):
        for j in range(i + 1, k):
            if next(upper):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    pairs = symplectic_reduce(rows)
    assert 2 * len(pairs) == f2_rank(rows)
    vectors = [mask for pair in pairs for mask in pair]
    for a, x in enumerate(vectors):
        for b, y in enumerate(vectors):
            assert f2_pairing(rows, x, y) == (a ^ 1 == b)


def reduced_gram(generators):
    """The J4-Gram of the vectors `integer_symplectic_reduce` finds in the
    lattice spanned by integer generators of Z^4."""
    coords = integer_symplectic_reduce([[pair4(x, y) for y in generators] for x in generators])
    vectors = [[sum(c * g[i] for c, g in zip(coord, generators)) for i in range(4)]
               for coord in coords]
    return [[pair4(x, y) for y in vectors] for x in vectors]


def test_symplectic_reduce_keeps_the_span_through_euclid_steps():
    # (-3, -3), (-3, -2) and (-2, 0) span Z^2 under x0 y1 - x1 y0; Euclid
    # steps with quotient 2 must not drop a generator from the span
    gram = [[0, -3, -6], [3, 0, -4], [6, 4, 0]]
    coords = integer_symplectic_reduce(gram)
    assert len(coords) == 2
    assert sum(coords[0][i] * gram[i][j] * coords[1][j]
               for i in range(3) for j in range(3)) == 1
    # every pairing of {2x, -3x} has absolute value at least 4
    basis = [[int(i == j) for j in range(4)] for i in range(4)]
    assert reduced_gram([[k * c for c in x] for x in basis for k in (2, -3)]) == J4


coprime_pairs = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
    lambda t: gcd(*t) == 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(coprime_pairs, min_size=4, max_size=4),
       st.lists(st.lists(st.integers(-3, 3), min_size=8, max_size=8), max_size=3),
       st.randoms(use_true_random=False))
def test_symplectic_reduce_finds_a_basis_of_any_generating_set(pairs, combinations, rng):
    # each basis vector x as p x and q x with gcd(p, q) = 1, plus a few
    # integer combinations of those, in random order, still span (Z^4, J4)
    generators = [[k * int(i == j) for j in range(4)] for i, pq in enumerate(pairs)
                  for k in pq]
    generators += [[sum(c * g[i] for c, g in zip(comb, generators)) for i in range(4)]
                   for comb in combinations]
    rng.shuffle(generators)
    assert reduced_gram(generators) == J4


def test_vertex_cycles_and_stratum():
    assert FIVE.vertex_cycles() is not None
    assert str(FIVE.stratum()) == "H(2)"
    assert FIVE.stratum().zero_orders == (2,)
    assert len([c for c in FIVE.vertex_cycles() if len(c) > 1]) == 1


def test_arf_invariants_of_small_surfaces():
    # genus-2 H(2) surfaces are all in the odd component
    assert FIVE.arf_invariant() == 1
    # odd zero orders admit no parity
    h11 = Origami(parse_cycles("(3,4)", 4), parse_cycles("(1,3)(2,4)", 4))
    assert str(h11.stratum()) == "H(1,1)"
    with pytest.raises(ValueError):
        h11.arf_invariant()
    left = Origami(parse_cycles("(1,2)(6,7)", 10),
                   parse_cycles("(1,6)(2,3,4,10,7,8,9,5)", 10))
    right = Origami(parse_cycles("(1,2)(6,7)(3,8)(4,9)(5,10)", 10),
                    parse_cycles("(2,3,4,5)(7,8,9,10)", 10))
    assert right.arf_invariant() == 0   # hyperelliptic component
    assert left.arf_invariant() == 1    # odd component


# -- the Arf invariant over F_2 -------------------------------------------------

def q_on_subsets(o):
    """q(c) = winding_index(c) + 1 mod 2 of the fundamental cycles, extended
    to a sum over a set of them by q(x + y) = q(x) + q(y) + x.y."""
    cycles = o._fundamental_cycles()
    q_cycle = [(winding_index(c) + 1) % 2 for c in cycles]

    def q(support):
        val = sum(q_cycle[i] for i in support)
        for ii, i in enumerate(support):
            for j in support[ii + 1:]:
                val += intersection(o, cycles[i], cycles[j])
        return val % 2
    return cycles, q


def reference_arf(o):
    """Arf invariant from q on an integer symplectic basis (a1, b1, ...) in
    fundamental-cycle coordinates, as returned by `integer_symplectic_reduce`."""
    cycles, q = q_on_subsets(o)
    gram = [[intersection(o, a, b) for b in cycles] for a in cycles]
    coords = integer_symplectic_reduce(gram)
    odd = [[i for i, k in enumerate(vec) if k % 2] for vec in coords]
    return sum(q(odd[k]) * q(odd[k + 1]) for k in range(0, len(odd), 2)) % 2


def double_cover_lifts(o, basis):
    return [c.lift() for c in all_double_covers(o, basis)]


@pytest.mark.parametrize("d", range(3, 12))
def test_arf_matches_integer_basis_on_l_lifts(d):
    for b, e in square_spins(d):
        L = l_origami(b, e)
        for lift in double_cover_lifts(L.origami, list(L.basis)):
            assert lift.arf_invariant() == reference_arf(lift)


@pytest.mark.parametrize("text", OFF_L)
def test_arf_matches_integer_basis_off_l(text):
    o = Origami.from_text(text)
    assert str(o.stratum()) == "H(2)"
    lifts = double_cover_lifts(o, o.symplectic_basis())
    assert len(lifts) == 15
    for lift in lifts:
        assert lift.arf_invariant() == reference_arf(lift)


def test_arf_is_majority_value_of_q():
    # On H_1(F_2) of genus g, q takes the value Arf(q) on 2^(g-1) (2^g + 1)
    # classes: 36 of the 64 for g = 3.  A class is known by its pairings
    # with the fundamental cycles, since the form is nondegenerate there.
    L = l_origami(2, -1)
    seen = 0
    for lift in double_cover_lifts(L.origami, list(L.basis)):
        cycles, q = q_on_subsets(lift)
        m = len(cycles)
        rows = [sum(1 << j for j, b in enumerate(cycles)
                    if intersection(lift, a, b) % 2) for a in cycles]
        q_of_class = {}
        for mask in range(1 << m):
            support = [i for i in range(m) if mask >> i & 1]
            key = 0
            for i in support:
                key ^= rows[i]
            q_of_class.setdefault(key, set()).add(q(support))
        assert len(q_of_class) == 64
        assert all(len(values) == 1 for values in q_of_class.values())
        counts = Counter(values.pop() for values in q_of_class.values())
        arf = lift.arf_invariant()
        assert counts == {arf: 36, 1 - arf: 28}
        seen |= 1 << arf
    assert seen == 3   # both components occur among the 15 lifts


def test_arf_needs_no_symplectic_reduce(monkeypatch):
    # the Arf invariant and the F_2 symplectic basis need no integer Cycle,
    # intersection number or taxi loop
    L = l_origami(6, 1)
    lifts = double_cover_lifts(L.origami, list(L.basis))

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(Cycle, "_replay", staticmethod(refuse))
    monkeypatch.setattr(flatcover.origami, "intersection", refuse)
    monkeypatch.setattr(flatcover.origami, "winding_index", refuse)
    assert sorted(lift.arf_invariant() for lift in lifts) == [0] * 5 + [1] * 10
    assert len(FIVE.symplectic_basis()) == 4
    assert len(lifts[0].symplectic_basis()) == 6


#: origamis outside H(2, 2), with their stratum and Arf invariant; genus 6 in
#: H(10) gives 12 basis cycles, which take two lanes
OTHER_STRATA = (
    ("H(4)", 0, "n=5 h=(1,2,4)(3,5) v=(1,2,3,5)"),
    ("H(4)", 1, "n=5 h=(1,3,2,4,5) v=(1,5,3,4,2)"),
    ("H(6)", 0, "n=9 h=(1,6,4,3,9,8,5,2,7) v=(1,5,2,7)(3,9)(6,8)"),
    ("H(6)", 1, "n=7 h=(1,7,3,2,5,4,6) v=(1,4)(2,6)(3,5)"),
    ("H(2,2,2)", 0, "n=9 h=(1,9,5,2,3,8,7,4) v=(1,5,6,4,8,2,3,7,9)"),
    ("H(2,2,2)", 1, "n=9 h=(2,9,3,4,8,5,6,7) v=(1,9,6,3,2,7,5,4,8)"),
    ("H(4,4)", 0, "n=10 h=(1,7)(2,4,3,6,10,5,9) v=(1,3,9)(2,10,4,8)(5,6,7)"),
    ("H(4,4)", 1, "n=12 h=(1,7,6,10,8,4)(2,11,9,5,3,12) v=(2,10,6,7,4,11,3,12)(5,8)"),
    ("H(10)", 0, "n=11 h=(1,4,10,3,9,7)(8,11) v=(1,11,6,4,3,10,2,9,5,8)"),
    ("H(10)", 1, "n=11 h=(1,10)(2,8,3,4,6,7,9,11) v=(1,4,8,6,7,3,11,10,9,5)"),
)


@pytest.mark.parametrize("stratum, arf, text", OTHER_STRATA)
def test_arf_matches_integer_basis_beyond_the_census_stratum(stratum, arf, text):
    o = Origami.from_text(text)
    assert str(o.stratum()) == stratum
    assert o.arf_invariant() == reference_arf(o) == arf


@pytest.mark.parametrize("text", [text for _, _, text in OTHER_STRATA] + list(OFF_L)
                         + ["n=1 h= v=", FIVE.to_text()])
def test_cotree_leaves_2g_basis_cycles(text):
    # Euler: of the n + 1 edges off the tree, V - 1 form the co-tree and
    # 2n - (n - 1) - (V - 1) = 2g are left
    o = Origami.from_text(text)
    vertex_cycles = o.vertex_cycles()
    basis, cotree = _tree_cotree(o.h.images, o.v.images, vertex_cycles)
    assert len(basis) == 2 * o.stratum().genus
    assert len(cotree) == len(vertex_cycles) - 1


def mod2_chain(coefficients):
    """Coefficients mod 2 as one int with a byte each, the first highest."""
    return int.from_bytes(bytes(x & 1 for x in coefficients), "big")


@pytest.mark.parametrize("d", range(3, 12))
def test_tree_turning_is_winding_index_on_l_lifts(d):
    for b, e in square_spins(d):
        L = l_origami(b, e)
        for lift in double_cover_lifts(L.origami, list(L.basis)):
            tree = _tree_cycles(lift.h.images, lift.v.images)
            cycles = lift._fundamental_cycles()
            assert [wind for *_, wind in tree] == [winding_index(c) for c in cycles]
            assert [chain for _, _, chain, _ in tree] == [mod2_chain(c.sig + c.tau)
                                                          for c in cycles]


# -- each self-check of arf_invariant fails on a mutated tree-cotree split ------

def mutate_split(monkeypatch, mutate):
    """Make `_tree_cotree` apply mutate(basis, cotree) to its split."""
    split = flatcover.origami._tree_cotree

    def mutated(h, v, vertex_cycles):
        basis, cotree = split(h, v, vertex_cycles)
        mutate(basis, cotree)
        return basis, cotree

    monkeypatch.setattr(flatcover.origami, "_tree_cotree", mutated)


def first_lift():
    L = l_origami(6, 1)
    return all_double_covers(L.origami, list(L.basis))[0].lift()


def flip_q(o, basis, cotree):
    chain, wind = cotree[0]
    cotree[0] = (chain, wind + 1)


def move_one_left_edge(o, basis, cotree):
    # the left edge of square 3 joins two different vertices, so the chain
    # is no longer closed and pairs nonzero with a residual
    s = 3
    corner_of = {t: i for i, members in enumerate(o.vertex_cycles()) for t in members}
    assert corner_of[s] != corner_of[o.v(s)]
    chain, wind = cotree[0]
    cotree[0] = (chain ^ 1 << 8 * (o.n - 1 - s), wind)


def drop_a_basis_cycle(o, basis, cotree):
    del basis[-1]


def repeat_a_basis_cycle(o, basis, cotree):
    basis[1] = basis[0]


@pytest.mark.parametrize("mutate, message", [
    (flip_q, "q is 1 on a null-homologous class"),
    (move_one_left_edge, "rank above 2g"),
    (drop_a_basis_cycle, "5 tree-cotree basis cycles, genus 3"),
    (repeat_a_basis_cycle, "2 hyperbolic pairs mod 2, genus 3"),
])
def test_arf_self_checks_catch_a_mutated_split(monkeypatch, mutate, message):
    o = first_lift()
    assert o.arf_invariant() == reference_arf(o)
    mutate_split(monkeypatch, lambda basis, cotree: mutate(o, basis, cotree))
    with pytest.raises(InvariantError, match=message):
        o.arf_invariant()


def test_symplectic_basis_catches_a_repeated_basis_cycle(monkeypatch):
    o = first_lift()
    assert_symplectic_mod2(o, o.symplectic_basis())
    mutate_split(monkeypatch, lambda basis, cotree: repeat_a_basis_cycle(o, basis, cotree))
    with pytest.raises(InvariantError, match="2 hyperbolic pairs mod 2, genus 3"):
        o.symplectic_basis()
