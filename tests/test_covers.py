import random
from math import gcd

import pytest

from flatcover import InvariantError
from flatcover.classify import echoes_of_WD, square_spins
from flatcover.covers import (Cover, affine_action_mod2, all_double_covers,
                              cover_from_basis_values, cover_label, cyclic_covers,
                              gauge_fixed, primitive_vector_count)
from flatcover.lshape import IDENTITY4, symplectic_pairing
from flatcover.monodromy import (group_closure, is_symplectic, mat_H, mat_mod, mat_V, mat_X,
                                 nonzero_vectors_mod2, orbit_partition, primitive_vectors,
                                 vector_label)
from flatcover.origami import (Origami, act_generator, intersection, l_origami,
                               spanning_tree, symplectic_reduce)
from flatcover.perms import Permutation, parse_cycles
from test_origami import reference_crossings


def lshape(b, e):
    L = l_origami(b, e)
    return L.origami, list(L.basis)


def test_fifteen_connected_double_covers():
    o, basis = lshape(6, 1)
    covers = all_double_covers(o, basis)
    assert len(covers) == 15
    labels = sorted(cover_label(basis, c)[1] for c in covers)
    assert labels == list(range(1, 16))


def test_holonomy_matches_construction():
    o, basis = lshape(6, -1)
    for code in (1, 7, 10, 15):
        values = tuple((code >> k) & 1 for k in range(4))
        c = cover_from_basis_values(o, 2, basis, values)
        assert c.holonomy_on_basis(basis) == values


def test_cyclic_cover_holonomy_is_pairing_with_dual_class():
    o, basis = lshape(2, -1)
    for m in range(2, 6):
        gammas = primitive_vectors(m)
        covers = cyclic_covers(o, m, basis)
        assert len(covers) == len(gammas)
        for gamma, c in zip(gammas, covers):
            assert c.holonomy_on_basis(basis) == tuple(
                symplectic_pairing(e, gamma) % m for e in IDENTITY4)
            if m == 2:
                assert cover_label(basis, c) == (gamma, vector_label(gamma))


def reference_holonomy(cover, counts):
    """The holonomy from crossing counts (dsig, dtau) as `reference_crossings`
    returns them: a crossing of the left edge of square t (dtau[t]) crosses
    the right edge of h^-1(t), one of its bottom edge (dsig[t]) the top edge
    of v^-1(t)."""
    dsig, dtau = counts
    hi = cover.base.h.inverse().images
    vi = cover.base.v.inverse().images
    total = 0
    for t in range(cover.base.n):
        total += dtau[t] * cover.w_right[hi[t]]
        total += dsig[t] * cover.w_up[vi[t]]
    return total % cover.m


def random_genus2_origamis(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 7)
        h, v = list(range(n)), list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            o = Origami(Permutation(h), Permutation(v))
        except ValueError:
            continue
        if o.stratum().genus == 2:
            out.append(o)
    return out


def test_holonomy_matches_crossing_count():
    for o in random_genus2_origamis(6, seed=2024):
        cycles = o._fundamental_cycles()
        gram = [[intersection(o, a, b) for b in cycles] for a in cycles]
        counts = [reference_crossings(o, c) for c in cycles]
        # `symplectic_basis` sums the fundamental cycles with these coordinates
        counts += [tuple([sum(k * count[i][t] for k, count in zip(vec, counts))
                          for t in range(o.n)] for i in (0, 1))
                   for vec in symplectic_reduce(gram)]
        basis = o.symplectic_basis()
        for c in all_double_covers(o, basis) + cyclic_covers(o, 3, basis):
            for cyc, count in zip(cycles + basis, counts):
                assert c.holonomy(cyc) == reference_holonomy(c, count)


def test_published_b1_cover():
    # the double cover of the 5-square surface dual to b1 is the published
    # 10-square pair
    o, basis = lshape(6, 1)
    covers = {cover_label(basis, c)[1]: c for c in all_double_covers(o, basis)}
    lift = covers[2].lift()
    published = Origami(parse_cycles("(1,2)(6,7)(3,8)(4,9)(5,10)", 10),
                        parse_cycles("(2,3,4,5)(7,8,9,10)", 10))
    assert lift == published
    gamma, label = cover_label(basis, covers[2])
    assert gamma == (0, 1, 0, 0) and label == 2


def test_lift_geometry():
    for b, e in ((6, 1), (4, 0), (2, -1)):
        o, basis = lshape(b, e)
        for c in all_double_covers(o, basis):
            lift = c.lift()
            assert lift.n == 2 * o.n
            assert str(lift.stratum()) == "H(2,2)"
            assert lift.is_reduced()


def test_deck_shift_is_translation():
    o, basis = lshape(6, 1)
    c = all_double_covers(o, basis)[0]
    lift = c.lift()
    t = c.deck_shift()
    trans = lift.translations()
    assert t in trans
    assert t.order() == 2


def test_quotient_by_deck_recovers_base():
    o, basis = lshape(6, -1)
    for c in all_double_covers(o, basis)[:4]:
        lift = c.lift()
        assert lift.quotient_by_translation(c.deck_shift()) == o


def test_cover_needs_genus_two():
    torus = Origami.from_text("n=1 h= v=")
    with pytest.raises(ValueError):
        all_double_covers(torus, torus.symplectic_basis())


def test_disconnected_cover_rejected():
    o, basis = lshape(6, 1)
    with pytest.raises(ValueError):
        cover_from_basis_values(o, 2, basis, (0, 0, 0, 0)).lift()


def test_primitive_vector_count():
    assert primitive_vector_count(2) == 15
    assert primitive_vector_count(3) == 80
    assert primitive_vector_count(6) == 15 * 80
    # n^4 prod (1 - p^-4)
    assert primitive_vector_count(5) == 5 ** 4 - 1
    # J_1 is Euler's phi
    for n in range(2, 60):
        assert primitive_vector_count(n, 1) == sum(gcd(k, n) == 1 for k in range(n))
    # J_2(n) = n^2 prod (1 - p^-2)
    assert [primitive_vector_count(n, 2) for n in (2, 3, 5, 9, 11, 12, 45)] == \
        [3, 8, 24, 72, 120, 96, 1728]


def test_cyclic_covers_enumeration():
    o, basis = lshape(6, 1)
    covers = cyclic_covers(o, 3, basis)
    assert len(covers) == 80
    # each cover is connected with deck group Z/3
    sample = covers[0].lift()
    assert sample.n == 3 * o.n
    assert covers[0].deck_shift().order() == 3
    with pytest.raises(ValueError):
        cyclic_covers(o, 1, basis)


# -- weights from the Poincare-dual cycle ------------------------------------

#: H(2) surfaces that are not L-shaped, with generic symplectic bases
OFF_L = ("n=5 h=(1,4,5)(2,3) v=(1,3,4)(2,5)",
         "n=6 h=(1,4)(2,5,6,3) v=(1,5,3)(2,6,4)",
         "n=7 h=(1,4)(2,7,3,5,6) v=(1,5,2)(3,6,7,4)")


def reference_cover_weights(o, m, basis, values):
    """(w_right, w_up) built one fundamental cycle at a time: 0 on the
    spanning tree, and on the edge closing each cycle the value of the
    homomorphism on it, from the cycle's coordinates in the basis read off
    through the symplectic form."""
    cycles = o._fundamental_cycles()
    used = {edge for _, _, edge, _ in spanning_tree(o.h.images, o.v.images)}
    cotree = [(kind, s) for kind in "EN" for s in range(o.n) if (kind, s) not in used]
    w_right = [0] * o.n
    w_up = [0] * o.n
    for cyc, (kind, s) in zip(cycles, cotree):
        w = 0
        for k in range(0, len(basis), 2):
            a, b = basis[k], basis[k + 1]
            w += intersection(o, cyc, b) * values[k]      # coefficient along a_k
            w += -intersection(o, cyc, a) * values[k + 1]  # coefficient along b_k
        if kind == "E":
            w_right[s] = w % m
        else:
            w_up[s] = w % m
    return tuple(w_right), tuple(w_up)


def assert_weights_match_reference(o, basis, moduli):
    tree = spanning_tree(o.h.images, o.v.images)
    for m in moduli:
        covers = cyclic_covers(o, m, basis)
        for c, (x1, y1, x2, y2) in zip(covers, primitive_vectors(m)):
            values = (y1, -x1 % m, y2, -x2 % m)
            assert (c.w_right, c.w_up) == reference_cover_weights(o, m, basis, values)
            for _, _, (kind, s), _ in tree:
                assert (c.w_right if kind == "E" else c.w_up)[s] == 0


def test_weights_match_reference_on_l_shapes():
    for d in range(3, 13):
        for b, e in square_spins(d):
            assert_weights_match_reference(*lshape(b, e), (2, 3))


def test_weights_match_reference_on_l_2_minus_1_up_to_m_7():
    assert_weights_match_reference(*lshape(2, -1), range(3, 8))


def test_weights_match_reference_off_l():
    for text in OFF_L:
        o = Origami.from_text(text)
        assert_weights_match_reference(o, o.symplectic_basis(), range(2, 8))


def test_tree_lists_every_square_once_from_square_zero():
    for o in [lshape(6, 1)[0]] + [Origami.from_text(t) for t in OFF_L]:
        h, v = o.h.images, o.v.images
        tree = spanning_tree(h, v)
        assert sorted(child for _, child, _, _ in tree) == list(range(1, o.n))
        reached = {0}
        for parent, child, (kind, s), direction in tree:
            assert parent in reached
            step = h if kind == "E" else v
            assert (s, step[s]) == ((parent, child) if direction == 1 else (child, parent))
            reached.add(child)


# -- the SL(2,Z) action on cocycles ------------------------------------------

def test_cocycle_action_is_the_action_on_lifts():
    # L: h' = v^-1 h, w_right'[s] = w_right[s] - w_up[h'[s]]
    # R: v' = h^-1 v, w_up'[s] = w_up[s] - w_right[v'[s]]
    # give exactly the image tuples of the generator acting on the lift
    for b, e in ((6, 1), (4, 0), (2, -1)):
        o, basis = lshape(b, e)
        h, v = o.h.images, o.v.images
        hl = act_generator(h, v, "L")[0]
        vr = act_generator(h, v, "R")[1]
        for c in all_double_covers(o, basis) + cyclic_covers(o, 3, basis)[:20]:
            m, n = c.m, o.n
            lift = c.lift()
            by_l = Cover(Origami(Permutation(hl), o.v), m,
                         tuple((c.w_right[s] - c.w_up[hl[s]]) % m for s in range(n)),
                         c.w_up)
            by_r = Cover(Origami(o.h, Permutation(vr)), m, c.w_right,
                         tuple((c.w_up[s] - c.w_right[vr[s]]) % m for s in range(n)))
            for g, acted in (("L", by_l), ("R", by_r)):
                image = act_generator(lift.h.images, lift.v.images, g)
                assert (acted.lift().h.images, acted.lift().v.images) == image


def test_gauge_fixed_keeps_the_cover_and_zeroes_the_tree():
    rng = random.Random(7)
    for o in random_genus2_origamis(6, seed=11):
        h, v = o.h.images, o.v.images
        tree = spanning_tree(h, v)
        for m in (2, 3, 5):
            cocycles = [([rng.randrange(-m, 2 * m) for _ in range(o.n)],
                         [rng.randrange(-m, 2 * m) for _ in range(o.n)]) for _ in range(4)]
            batch = gauge_fixed(h, v, tree, cocycles, m)
            # one walk for the batch gives the one-at-a-time results
            assert batch == [gauge_fixed(h, v, tree, [c], m)[0] for c in cocycles]
            assert gauge_fixed(h, v, tree, batch, m) == batch
            assert gauge_fixed(h, v, tree, [], m) == []
            for (w_right, w_up), fixed in zip(cocycles, batch):
                for _, _, (kind, s), _ in tree:
                    assert fixed[kind == "N"][s] == 0
                raw = Cover(o, m, tuple(w % m for w in w_right), tuple(w % m for w in w_up))
                try:
                    lift = raw.lift()
                except ValueError:
                    continue
                assert Cover(o, m, *fixed).lift() == lift


def test_cover_holonomy_is_checked_on_every_cover():
    # with a1 and b1 swapped the basis is not symplectic, so the cocycle of
    # the dual class does not take the prescribed values on it
    for b, e in ((2, -1), (6, 1)):
        o, basis = lshape(b, e)
        bad = [basis[1], basis[0], basis[2], basis[3]]
        with pytest.raises(InvariantError):
            cyclic_covers(o, 3, bad)
        with pytest.raises(InvariantError):
            cover_from_basis_values(o, 5, bad, (1, 0, 0, 0))


def test_affine_action_mod2_guards():
    # the 2x2 torus has translations, so a cover class and its translates
    # would give one lifted origami
    torus = Origami.from_text("n=4 h=(1,2)(3,4) v=(1,3)(2,4)")
    with pytest.raises(InvariantError):
        affine_action_mod2(torus, torus.symplectic_basis())
    # (a1, a2, b1, b2) is not a symplectic basis, so member 0's frame fails
    # the Gram check
    for b, e in ((6, 1), (2, -1)):
        o, (a1, b1, a2, b2) = lshape(b, e)
        with pytest.raises(InvariantError):
            affine_action_mod2(o, [a1, a2, b1, b2])


def test_basis_from_another_origami_is_a_value_error():
    # L(2, -1) has 3 squares, L(6, 1) 5 and L(16, 0) 8
    a, b = l_origami(2, -1), l_origami(6, 1)
    cover = cyclic_covers(a.origami, 2, list(a.basis))[0]
    with pytest.raises(ValueError):
        cover.holonomy(b.basis[0])
    with pytest.raises(ValueError):
        cover_label(list(b.basis), cover)
    for o, basis in ((a.origami, list(b.basis)), (b.origami, list(a.basis))):
        with pytest.raises(ValueError):
            cover_from_basis_values(o, 2, basis, (1, 0, 0, 0))
        with pytest.raises(ValueError):
            cyclic_covers(o, 3, basis)
    for basis in (list(b.basis)[:3], list(l_origami(16, 0).basis)):
        with pytest.raises(ValueError):
            affine_action_mod2(b.origami, basis)


@pytest.mark.parametrize("n", range(3, 14))
def test_affine_action_mod2_gives_the_echo_table(n):
    # read off the surface, the mod-2 action has the orbits of Table 2 and
    # is the group <H, V> (odd n: with X) mod 2, as a set of matrices
    for b, e in square_spins(n):
        o, basis = lshape(b, e)
        graph, matrices = affine_action_mod2(o, basis)
        assert len(matrices) == 2 * len(graph.members)
        assert all(is_symplectic(M, 2) for M in matrices)
        # the edge that first reaches a member carries the frame there
        reached = {0}
        for i, edges in enumerate(graph.edges):
            for g, (j, _) in enumerate(edges):
                if j not in reached:
                    reached.add(j)
                    assert matrices[2 * i + g] == IDENTITY4
        assert len(reached) == len(graph.members)
        blocks = {tuple(sorted(vector_label(v) for v in part))
                  for part in orbit_partition(matrices, nonzero_vectors_mod2(), 2)}
        table = echoes_of_WD(n * n, e)
        assert blocks == set(table.hyp_orbits + table.odd_orbits)
        group = group_closure(set(matrices), 2)
        assert len(group) == (12 if n % 2 else 8)
        hand = [mat_mod(mat_H(b, e), 2), mat_mod(mat_V(b, e), 2)] + ([mat_X()] if n % 2 else [])
        assert group == group_closure(hand, 2)
