from math import lcm

import pytest
from hypothesis import given, strategies as st

from flatcover.perms import (Permutation, compose, cycle_text, cycles,
                             is_transitive, parse_cycles)


def reference_cycles(p, include_fixed=False):
    """Disjoint cycles of a Permutation, each starting at its smallest
    element, sorted: the per-object walk, kept as a reference."""
    seen = [False] * p.n
    out = []
    for start in range(p.n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p.images[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p.images[j]
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


def commutator(p, q):
    """p q p^-1 q^-1 under the compose convention."""
    return compose(compose(p, q), compose(p.inverse(), q.inverse()))


def perms(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(range(n)).map(Permutation))


def perm_pairs(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(st.permutations(range(n)).map(Permutation),
                            st.permutations(range(n)).map(Permutation)))


def perm_triples(max_n=7):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(*[st.permutations(range(n)).map(Permutation)] * 3))


@given(perm_triples())
def test_compose_associative(ps):
    p, q, r = ps
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms())
def test_inverse(p):
    ident = Permutation(range(p.n))
    assert compose(p, p.inverse()) == ident
    assert compose(p.inverse(), p) == ident
    assert p.inverse().inverse() == p


@given(perm_pairs())
def test_conjugate_preserves_cycle_type(pair):
    p, g = pair
    type_before = sorted(len(c) for c in cycles(p.images))
    type_after = sorted(len(c) for c in cycles(p.conjugate(g).images))
    assert type_before == type_after


@given(perm_pairs())
def test_commutator_identity_iff_commute(pair):
    p, q = pair
    assert commutator(p, q).is_identity() == (compose(p, q) == compose(q, p))


@given(perms())
def test_cycle_text_roundtrip(p):
    assert parse_cycles(cycle_text(p.images), p.n) == p


def test_compose_convention():
    # compose(p, q) applies q first
    p = Permutation((1, 0, 2))   # swaps 0,1
    q = Permutation((0, 2, 1))   # swaps 1,2
    assert compose(p, q)(1) == 2
    assert compose(q, p)(1) == 0


def test_order():
    assert parse_cycles("(1,2,3)(4,5)", 5).order() == 6
    assert Permutation(range(4)).order() == 1


def test_cycles_and_fixed_points():
    p = parse_cycles("(1,2)", 4)
    assert cycles(p.images) == [(0, 1)]
    assert cycles(p.images, include_fixed=True) == [(0, 1), (2,), (3,)]


def test_from_cycles_validation():
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(2, [(0, 5)])
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1,2", 3)
    with pytest.raises(ValueError):
        parse_cycles("1,2)", 3)
    with pytest.raises(ValueError):
        parse_cycles("()", 3)
    assert parse_cycles("", 3).is_identity()
    assert parse_cycles(" (1, 2) ", 3) == parse_cycles("(1,2)", 3)


def test_transitivity():
    a = parse_cycles("(1,2)", 4)
    b = parse_cycles("(2,3,4)", 4)
    assert is_transitive([a, b], 4)
    assert not is_transitive([a], 4)
    with pytest.raises(ValueError):
        is_transitive([a], 5)


def reference_is_transitive(gens, n):
    """One component of the undirected graph x -- g(x): the search follows
    each generator both ways."""
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            for y in (g.images[x], g.images.index(x)):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == n


@st.composite
def generator_lists(draw, max_n=7):
    """1 to 3 permutations of one degree; with `split`, each maps
    {0..cut-1} to itself, so the list is not transitive."""
    n = draw(st.integers(1, max_n))
    cut = draw(st.integers(1, n))
    split = cut < n and draw(st.booleans())

    def gen():
        if not split:
            return Permutation(draw(st.permutations(range(n))))
        return Permutation(draw(st.permutations(range(cut)))
                           + draw(st.permutations(range(cut, n))))

    return [gen() for _ in range(draw(st.integers(1, 3)))], n, split


@given(generator_lists())
def test_transitivity_matches_undirected_reference(case):
    gens, n, split = case
    got = is_transitive(gens, n)
    assert got == reference_is_transitive(gens, n)
    if split:
        assert not got


@given(perms())
def test_cycle_text_matches_cycles(p):
    assert cycle_text(p.images) == "".join(
        "(" + ",".join(str(i + 1) for i in cyc) + ")" for cyc in reference_cycles(p))


def test_cycle_text_labels_grow_on_demand():
    assert cycle_text((1, 0)) == "(1,2)"
    assert cycle_text(tuple(range(1, 120)) + (0,)) == "(" + ",".join(map(str, range(1, 121))) + ")"
    assert cycle_text((0, 2, 1)) == "(2,3)"


@given(perms())
def test_cycles_match_reference(p):
    for include_fixed in (False, True):
        assert cycles(p.images, include_fixed) == reference_cycles(p, include_fixed)
    assert p.order() == lcm(*(len(c) for c in reference_cycles(p)))
