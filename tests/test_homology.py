from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import flatcover.origami
from flatcover.classify import square_spins
from flatcover.covers import all_double_covers
from flatcover.origami import (Cycle, Origami, intersection, l_origami,
                               symplectic_reduce, winding_index)
from flatcover.perms import parse_cycles

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


def test_fundamental_cycles_and_basis():
    for o in (FIVE, l_origami(4, 0).origami):
        cycles = o._fundamental_cycles()
        assert len(cycles) == o.n + 1
        basis = o.symplectic_basis()
        assert len(basis) == 2 * o.stratum().genus
        gram = [[intersection(o, a, b) for b in basis] for a in basis]
        assert gram == J4


def test_l_origami_pinned_basis_is_symplectic():
    for b, e in ((6, 1), (6, -1), (2, -1), (4, 0), (12, 1), (9, 0)):
        L = l_origami(b, e)
        gram = [[intersection(L.origami, x, y) for y in L.basis] for x in L.basis]
        assert gram == J4
        lam = L.lam
        assert [period(c) for c in L.basis] == [(1, 0), (0, lam), (lam - e, 0), (0, 1)]


def test_symplectic_reduce():
    # a Gram matrix already in symplectic shape is returned as the identity
    # coordinate change
    coords = symplectic_reduce([r[:] for r in J4])
    vecs = [tuple(c) for c in coords]
    def pair(u, w):
        return sum(u[i] * J4[i][j] * w[j] for i in range(4) for j in range(4))
    assert pair(vecs[0], vecs[1]) == 1
    assert pair(vecs[2], vecs[3]) == 1
    assert pair(vecs[0], vecs[2]) == pair(vecs[0], vecs[3]) == pair(vecs[1], vecs[2]) == 0


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
    fundamental-cycle coordinates, as returned by `symplectic_reduce`."""
    cycles, q = q_on_subsets(o)
    gram = [[intersection(o, a, b) for b in cycles] for a in cycles]
    coords = symplectic_reduce(gram)
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
    def refuse(gram):
        raise AssertionError("symplectic_reduce called")

    monkeypatch.setattr(flatcover.origami, "symplectic_reduce", refuse)
    L = l_origami(6, 1)
    lifts = double_cover_lifts(L.origami, list(L.basis))
    assert sorted(lift.arf_invariant() for lift in lifts) == [0] * 5 + [1] * 10
    with pytest.raises(AssertionError):
        FIVE.symplectic_basis()
