import random
import re
from collections import Counter
from math import gcd
from operator import mul

import pytest

from flatcover import InvariantError
from flatcover.classify import HYP_LABELS, _mod2_label_blocks, echoes_of_WD, square_spins
from flatcover.covers import (IDENTITY6, Cover, affine_action_mod2, all_double_covers,
                              cover_duad, cover_from_basis_values, cover_label, cyclic_covers,
                              duad_matrices, gauge_fixed, label_duads, primitive_vector_count,
                              weierstrass_action)
from flatcover.lshape import IDENTITY4, symplectic_pairing
from flatcover.monodromy import (group_closure, is_symplectic, mat_H, mat_mod, mat_V, mat_X,
                                 orbit_partition, primitive_vectors, vector_label)
from flatcover.origami import (Cycle, Origami, act_generator, intersection, l_origami,
                               sl2z_orbit_walk, spanning_tree, walk_step, weierstrass_points)
from flatcover.perms import Permutation, _canonical_pair, inverse_images, parse_cycles
from test_homology import combine, integer_symplectic_basis, integer_symplectic_reduce
from test_origami import reference_crossings, reference_orbit_graph


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
        coords = integer_symplectic_reduce(gram)
        counts = [reference_crossings(o, c) for c in cycles]
        # an integer basis sums the fundamental cycles with these coordinates
        counts += [tuple([sum(k * count[i][t] for k, count in zip(vec, counts))
                          for t in range(o.n)] for i in (0, 1))
                   for vec in coords]
        basis = [combine(o, cycles, vec) for vec in coords]
        covers = (all_double_covers(o, o.symplectic_basis()) + all_double_covers(o, basis)
                  + cyclic_covers(o, 3, basis))
        for c in covers:
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


@pytest.mark.parametrize("d", range(3, 22))
def test_generic_basis_gives_the_transported_lifts(d):
    # A is a seeded word in L and R; the double covers of A L in its generic
    # basis mod 2 are A applied to the double covers of L in its pinned
    # basis, compared as sets of (canonical form, Arf invariant)
    rng = random.Random(d)
    for b, e in square_spins(d):
        o, basis = lshape(b, e)
        word = [rng.choice("LR") for _ in range(7)]

        def moved(x):
            h, v = x.h.images, x.v.images
            for g in word:
                h, v = act_generator(h, v, g)
            return Origami(Permutation(h), Permutation(v))

        image = moved(o)
        lifts = [c.lift() for c in all_double_covers(o, basis)]
        want = {(moved(lift).canonical_form(), lift.arf_invariant()) for lift in lifts}
        got = {(lift.canonical_form(), lift.arf_invariant())
               for lift in (c.lift() for c in all_double_covers(image, image.symplectic_basis()))}
        assert len(got) == 15
        assert got == want


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
    # the generic basis is one mod 2 only; Z/m covers take an integer one
    for text in OFF_L:
        o = Origami.from_text(text)
        assert_weights_match_reference(o, o.symplectic_basis(), (2,))
        assert_weights_match_reference(o, integer_symplectic_basis(o), range(2, 8))


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


def test_cover_basis_must_be_symplectic_mod_m():
    # with a1 and b1 swapped the basis is not symplectic
    for b, e in ((2, -1), (6, 1)):
        o, basis = lshape(b, e)
        bad = [basis[1], basis[0], basis[2], basis[3]]
        with pytest.raises(ValueError, match="not symplectic mod 3"):
            cyclic_covers(o, 3, bad)
        with pytest.raises(ValueError, match="not symplectic mod 5"):
            cover_from_basis_values(o, 5, bad, (1, 0, 0, 0))


def test_cover_basis_mod_2_is_refused_mod_3():
    # the generic basis of this surface is one mod 2 only, yet the cocycle
    # built from it takes the prescribed values on it mod 3: only the basis
    # check stands between it and a cover of another class
    o = Origami.from_text(OFF_L[0])
    basis = o.symplectic_basis()
    m, values = 3, (0, 0, 0, 1)
    h, v = o.h.images, o.v.images
    hi, vi = inverse_images(h), inverse_images(v)
    fixed = gauge_fixed(h, v, spanning_tree(h, v),
                        [([c.tau[t] for t in vi], [-c.sig[t] for t in hi]) for c in basis], m)
    dual = tuple(symplectic_pairing(values, e) for e in IDENTITY4)
    w = [sum(g * x for g, x in zip(dual, col)) % m
         for col in zip(*[w_right + w_up for w_right, w_up in fixed])]
    assert Cover(o, m, tuple(w[:o.n]), tuple(w[o.n:])).holonomy_on_basis(basis) == values
    assert cover_from_basis_values(o, 2, basis, values).holonomy_on_basis(basis) == values
    with pytest.raises(ValueError, match="a basis chain is not closed mod 3"):
        cover_from_basis_values(o, m, basis, values)


def test_cover_holonomy_is_checked_on_every_cover(monkeypatch):
    # one weight of the gauge-fixed dual cocycle of a1 is corrupted, on an
    # edge that a1 crosses, so the covers whose dual class has a nonzero
    # a1-coordinate miss their prescribed values
    import flatcover.covers
    gauge = flatcover.covers.gauge_fixed
    for b, e in ((2, -1), (6, 1)):
        o, basis = lshape(b, e)
        s = next(s for s, x in enumerate(basis[0].sig) if x)

        def corrupted(h, v, tree, cocycles, m, s=s):
            fixed = gauge(h, v, tree, cocycles, m)
            w_right, w_up = fixed[0]
            fixed[0] = (w_right[:s] + ((w_right[s] + 1) % m,) + w_right[s + 1:], w_up)
            return fixed

        monkeypatch.setattr(flatcover.covers, "gauge_fixed", corrupted)
        with pytest.raises(InvariantError, match="differs from the prescribed values"):
            cyclic_covers(o, 3, basis)
        with pytest.raises(InvariantError, match="differs from the prescribed values"):
            cover_from_basis_values(o, 5, basis, (0, 1, 0, 0))


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


def test_affine_action_mod2_applies_no_generator_itself(monkeypatch):
    # the walk applies -I once, at its seed, and each S or U step once; the
    # frames ride along the same steps, which affine_action_mod2 takes once
    # more to reach each step's pair, and it applies no generator of its own
    import flatcover.covers
    import flatcover.origami
    calls = []

    def counted(h, v, g):
        calls.append(g)
        return act_generator(h, v, g)

    def stepped(h, vi, g):
        calls.append(g)
        return walk_step(h, vi, g)

    for module in (flatcover.origami, flatcover.covers):
        monkeypatch.setattr(module, "act_generator", counted, raising=False)
        monkeypatch.setattr(module, "walk_step", stepped)
    o, basis = lshape(30, -1)
    walk, matrices = affine_action_mod2(o, basis)
    assert calls[0] == "-I" and calls.count("-I") == 1
    assert len(calls) == 1 + 2 * len(matrices)
    assert sorted(calls[1:]) == sorted(g for _, g, steps in walk.walks for _ in 2 * steps)


def test_basis_from_another_origami_is_a_value_error():
    # L(2, -1) has 3 squares, L(6, 1) 5 and L(16, 0) 8
    a, b = l_origami(2, -1), l_origami(6, 1)
    cover = cyclic_covers(a.origami, 2, list(a.basis))[0]
    with pytest.raises(ValueError):
        cover.holonomy(b.basis[0])
    with pytest.raises(ValueError):
        cover_label(list(b.basis), cover)
    # a basis of the right origami, but of three or of five cycles
    cover_b = cyclic_covers(b.origami, 2, list(b.basis))[0]
    for basis in (list(b.basis)[:3], list(b.basis) + [b.basis[0]]):
        with pytest.raises(ValueError):
            cover_label(basis, cover_b)
    for o, basis in ((a.origami, list(b.basis)), (b.origami, list(a.basis))):
        with pytest.raises(ValueError):
            cover_from_basis_values(o, 2, basis, (1, 0, 0, 0))
        with pytest.raises(ValueError):
            cyclic_covers(o, 3, basis)
    for basis in (list(b.basis)[:3], list(l_origami(16, 0).basis)):
        with pytest.raises(ValueError):
            affine_action_mod2(b.origami, basis)


@pytest.mark.parametrize("m", [-3, 0, 1])
def test_cover_from_basis_values_needs_a_modulus_of_at_least_2(m):
    o, basis = lshape(2, -1)
    for build in (lambda: cover_from_basis_values(o, m, basis, (1, 0, 0, 0)),
                  lambda: cyclic_covers(o, m, basis)):
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            build()


def walk_landings(walk):
    """(start, g, landing) of every step of the walk, in the order of
    `affine_action_mod2`'s matrices."""
    return [(i, g, j) for i, g, steps in walk.walks for j, _ in steps]


@pytest.mark.parametrize("n", range(3, 14))
def test_affine_action_mod2_gives_the_echo_table(n):
    # read off the surface, the mod-2 action has the orbits of Table 2 and
    # is the group <H, V> (odd n: with X) mod 2, as a set of matrices
    for b, e in square_spins(n):
        o, basis = lshape(b, e)
        walk, matrices = affine_action_mod2(o, basis)
        landings = walk_landings(walk)
        assert len(matrices) == len(landings)
        assert all(is_symplectic(M, 2) for M in matrices)
        # the step that first reaches a member carries the frame there
        reached = {0}
        for (_, _, j), M in zip(landings, matrices):
            if j not in reached:
                reached.add(j)
                assert M == IDENTITY4
        assert len(reached) == len(walk.members)
        blocks = {tuple(sorted(vector_label(v) for v in part))
                  for part in orbit_partition(matrices, primitive_vectors(2), 2)}
        table = echoes_of_WD(n * n, e)
        assert blocks == set(table.hyp_orbits + table.odd_orbits)
        group = group_closure(set(matrices), 2)
        assert len(group) == (12 if n % 2 else 8)
        hand = [mat_mod(mat_H(b, e), 2), mat_mod(mat_V(b, e), 2)] + ([mat_X()] if n % 2 else [])
        assert group == group_closure(hand, 2)


def reference_affine_action_mod2(o, basis):
    """The matrices of the mod-2 affine action on the L/R orbit graph
    (`test_origami.reference_orbit_graph`), one per edge, L before R, with
    the four frame chains carried one by one as integer lists mod 2: an L
    edge sends sig_j[k] = sig[order[k]] and
    tau_j[k] = tau[order[k]] + sig_j[h_j^-1[k]], an R edge
    tau_j[k] = tau[order[k]] and sig_j[k] = sig[order[k]] + tau_j[v_j^-1[k]];
    the edge that first reaches a member carries its frame there, and entry
    (l, k) is image class k . target class l ^ 1 mod 2.  Since
    a . b = sum_t b.tau[t] a.sig[v[t]] - b.sig[t] a.tau[h[t]], each target
    class b of a member becomes edge weights once, b.tau[v^-1[s]] on sig_s
    and b.sig[h^-1[s]] on tau_s, and an entry is a dot product with them."""
    members, edges, seed_order = reference_orbit_graph(o.h.images, o.v.images)
    n = o.n
    frames = {0: [Cycle(n, tuple(c.sig[s] % 2 for s in seed_order),
                        tuple(c.tau[s] % 2 for s in seed_order)) for c in basis]}
    weights = {}
    matrices = []
    for i, out in enumerate(edges):
        for g, (j, order) in enumerate(out):
            h_j, v_j = members[j]
            h_inv = [0] * n
            v_inv = [0] * n
            for s in range(n):
                h_inv[h_j[s]] = s
                v_inv[v_j[s]] = s
            image = []
            for c in frames[i]:
                sig = [c.sig[s] for s in order]
                tau = [c.tau[s] for s in order]
                if g == 0:
                    tau = [(tau[k] + sig[h_inv[k]]) % 2 for k in range(n)]
                else:
                    sig = [(sig[k] + tau[v_inv[k]]) % 2 for k in range(n)]
                image.append(Cycle(n, tuple(sig), tuple(tau)))
            frames.setdefault(j, image)
            if j not in weights:
                weights[j] = [[b.tau[v_inv[s]] for s in range(n)]
                              + [b.sig[h_inv[s]] for s in range(n)]
                              for b in (frames[j][l ^ 1] for l in range(4))]
            chains = [a.sig + a.tau for a in image]
            matrices.append(tuple(tuple(sum(map(mul, w, chain)) % 2 for chain in chains)
                                  for w in weights[j]))
    return matrices


@pytest.mark.parametrize("n", range(3, 22))
def test_affine_action_mod2_matches_a_per_chain_reference(n):
    # the S/U walk's matrices and the L/R graph's generate the same image of
    # the Veech group in Sp(4, F_2), with the same labelled blocks
    for b, e in square_spins(n):
        o, basis = lshape(b, e)
        walk_matrices = set(affine_action_mod2(o, basis)[1])
        graph_matrices = set(reference_affine_action_mod2(o, basis))
        assert group_closure(walk_matrices, 2) == group_closure(graph_matrices, 2)
        blocks = [{tuple(sorted(vector_label(v) for v in part))
                   for part in orbit_partition(matrices, primitive_vectors(2), 2)}
                  for matrices in (walk_matrices, graph_matrices)]
        assert blocks[0] == blocks[1]


def reference_walk_matrices(o, basis):
    """The matrices of `affine_action_mod2` on its walk, with the four frame
    chains carried one by one as integer lists mod 2 and every entry read
    with `intersection`, and the matrices of the k-th steps that close the
    full S-pairs and U-triangles, which the walk never takes.  With vi the
    images of v^-1 of the pair before a step, S sends sig'[t] = tau[vi[t]]
    and tau' = sig, U sig'[t] = tau[vi[t]] and tau' = sig + tau; the frame
    is relabelled by the step's `order` into the member it reaches.  Returns
    (walk, matrices, closing), closing holding (start, landing, matrix) for
    each closing step, its landing read off its own canonical form."""
    walk = sl2z_orbit_walk(o.h.images, o.v.images)
    n = o.n
    surfaces = [Origami(Permutation(h), Permutation(v)) for h, v in walk.members]
    index = {member: j for j, member in enumerate(walk.members)}
    frames = {0: [Cycle(n, tuple(c.sig[s] % 2 for s in walk.seed_order),
                        tuple(c.tau[s] % 2 for s in walk.seed_order)) for c in basis]}
    matrices, closing = [], []
    for i, g, steps in walk.walks:
        h, v = walk.members[i]
        chains = [(c.sig, c.tau) for c in frames[i]]
        # -I is in the Veech group of every genus-2 origami
        k = 2 if g == "S" else 3
        full = len(steps) == k - 1 and steps[-1][0] != i
        for t in range(len(steps) + full):
            v_inv = [0] * n
            for s in range(n):
                v_inv[v[s]] = s
            chains = [([tau[v_inv[x]] for x in range(n)],
                       sig if g == "S" else [(a + b) % 2 for a, b in zip(sig, tau)])
                      for sig, tau in chains]
            h, v = walk_step(h, v_inv, g)
            if t < len(steps):
                j, order = steps[t]
            else:
                hn, vn, order = _canonical_pair(h, v)
                j = index[hn, vn]
            image = [Cycle(n, tuple(sig[s] for s in order), tuple(tau[s] for s in order))
                     for sig, tau in chains]
            frames.setdefault(j, image)
            matrix = tuple(tuple(intersection(surfaces[j], a, frames[j][l ^ 1]) % 2
                                 for a in image) for l in range(4))
            if t < len(steps):
                matrices.append(matrix)
            else:
                closing.append((i, j, matrix))
    return walk, matrices, closing


@pytest.mark.parametrize("n", range(3, 14))
def test_closing_steps_act_as_the_identity(n):
    # the k-th step of every full S-pair and U-triangle, S^2 or U^3 = -I,
    # lands back on its walk's start with the identity matrix mod 2; the
    # steps the walk takes match the per-chain reference matrix by matrix
    for b, e in square_spins(n):
        o, basis = lshape(b, e)
        walk, matrices, closing = reference_walk_matrices(o, basis)
        assert affine_action_mod2(o, basis)[1] == matrices
        full = [(i, g) for i, g, steps in walk.walks
                if len(steps) == (1 if g == "S" else 2) and steps[-1][0] != i]
        assert len(closing) == len(full) > 0
        for (start, landing, matrix), (i, _) in zip(closing, full):
            assert start == landing == i
            assert matrix == IDENTITY4


def push_point(point, g, h, vi):
    """The point (kind, square) after one S or U step of the pair (h, v),
    vi the images of v^-1, on the same squares."""
    kind, s = point
    if g == "S":
        return {"C": ("C", s), "W": ("B", s), "B": ("W", vi[s]), "V": ("V", vi[s])}[kind]
    return {"C": ("B", h[s]), "W": ("C", s), "B": ("W", h[vi[s]]), "V": ("V", h[vi[s]])}[kind]


def reference_point_walk(o):
    """The permutations of `weierstrass_action` on its walk, with the five
    regular Weierstrass points carried as (kind, square) pairs by
    `push_point`, and the permutations of the k-th steps that close the full
    S-pairs and U-triangles, which the walk never takes.  Each member's
    points are numbered as first pushed onto it.  Returns (walk, perms,
    closing), closing holding (start, landing, permutation) for each
    closing step, its landing read off its own canonical form."""
    walk = sl2z_orbit_walk(o.h.images, o.v.images)
    index = {member: j for j, member in enumerate(walk.members)}
    pos = inverse_images(walk.seed_order)
    seed = weierstrass_points(o.h.images, o.v.images)[1]
    numbers = {0: {(kind, pos[s]): number for number, (kind, s) in enumerate(seed[1:], 1)}}
    perms, closing = [], []
    for i, g, steps in walk.walks:
        h, v = walk.members[i]
        points = list(numbers[i])
        # -I is in the Veech group of every genus-2 origami
        k = 2 if g == "S" else 3
        full = len(steps) == k - 1 and steps[-1][0] != i
        for t in range(len(steps) + full):
            vi = inverse_images(v)
            points = [push_point(x, g, h, vi) for x in points]
            h, v = walk_step(h, vi, g)
            if t < len(steps):
                j, order = steps[t]
            else:
                hn, vn, order = _canonical_pair(h, v)
                j = index[hn, vn]
            moved = [(kind, order.index(s)) for kind, s in points]
            numbers.setdefault(j, {x: number for number, x in enumerate(moved, 1)})
            perm = (0, *(numbers[j][x] for x in moved))
            if t < len(steps):
                perms.append(perm)
            else:
                closing.append((i, j, perm))
    return walk, perms, closing


@pytest.mark.parametrize("n", range(3, 14))
def test_closing_steps_fix_the_weierstrass_points(n):
    # the k-th step of every full S-pair and U-triangle, S^2 or U^3 = -I,
    # the hyperelliptic involution, lands the six points back on its walk's
    # start as the identity; the steps the walk takes match the copy of the
    # push rules permutation by permutation
    for b, e in square_spins(n):
        o, _ = lshape(b, e)
        walk, perms, closing = reference_point_walk(o)
        assert weierstrass_action(o)[2] == perms
        full = [(i, g) for i, g, steps in walk.walks
                if len(steps) == (1 if g == "S" else 2) and steps[-1][0] != i]
        assert len(closing) == len(full) > 0
        for (start, landing, perm), (i, _) in zip(closing, full):
            assert start == landing == i
            assert perm == IDENTITY6


@pytest.mark.parametrize("call", [3, 15, 40])
def test_every_landing_checks_its_gram_matrix(monkeypatch, call):
    # a frame pushed with two images of an inverse map swapped is caught
    # where it lands, past member 0 (a swap can also leave the frame
    # symplectic mod 2, which no Gram check sees; these calls' swaps do not)
    import flatcover.covers
    calls = []

    def swapped_once(images):
        out = inverse_images(images)
        calls.append(images)
        if len(calls) == call:
            out[0], out[1] = out[1], out[0]
        return out

    o, basis = lshape(30, -1)
    affine_action_mod2(o, basis)
    monkeypatch.setattr(flatcover.covers, "inverse_images", swapped_once)
    with pytest.raises(InvariantError, match=r"member (\d+)") as info:
        affine_action_mod2(o, basis)
    assert int(re.search(r"member (\d+)", str(info.value)).group(1)) > 0


@pytest.mark.parametrize("b, e", [(6, 1), (30, 1), (30, -1), (16, 0)])
def test_first_landings_carry_the_identity(b, e):
    # the step that discovers a member is its first landing in walk order;
    # it carries the frame there, so its matrix is the identity, the same
    # tuple on every such step
    o, basis = lshape(b, e)
    walk, matrices = affine_action_mod2(o, basis)
    first = {0: None}
    for step, (_, _, j) in enumerate(walk_landings(walk)):
        first.setdefault(j, step)
    assert len(first) == len(walk.members)
    for j, step in first.items():
        if j:
            assert matrices[step] is matrices[first[1]]
            assert matrices[step] == IDENTITY4


@pytest.mark.parametrize("member", [1, 7, 40])
def test_a_faulty_first_landing_fails_the_gram_check(monkeypatch, member):
    # one bit of one read of a member's first landing flipped: the Gram
    # check still runs there, before the identity is returned
    import flatcover.covers
    from flatcover.origami import mod2_forms
    o, basis = lshape(30, -1)
    walk, _ = affine_action_mod2(o, basis)
    h_j, v_j = walk.members[member]
    landings = []

    def flipped(h, v, sig, tau, width):
        reads, packs = mod2_forms(h, v, sig, tau, width)
        if (h, v) == (h_j, v_j):
            landings.append(sig)
            if len(landings) == 1:
                # a square where class 1 is nonzero, so class 0 . class 1 flips
                ones = int.from_bytes(b"\1" * (2 * len(h)), "big")
                bits = packs[1] & ones
                reads[0] ^= bits & -bits
        return reads, packs

    monkeypatch.setattr(flatcover.covers, "mod2_forms", flipped)
    with pytest.raises(InvariantError, match=f"member {member} "):
        affine_action_mod2(o, basis)
    assert len(landings) == 1


def test_edge_matrices_outside_sp4_f2_raise(monkeypatch):
    # swapping images 0 and 1 of inverse_images call 220 (counted from 0)
    # on L(30, -1) leaves every landing's Gram matrix J4 mod 2 but puts a
    # step's matrix outside Sp(4, F_2)
    import flatcover.covers
    calls = []

    def swapped_once(images):
        out = inverse_images(images)
        if len(calls) == 220:
            out[0], out[1] = out[1], out[0]
        calls.append(images)
        return out

    o, basis = lshape(30, -1)
    monkeypatch.setattr(flatcover.covers, "inverse_images", swapped_once)
    with pytest.raises(InvariantError, match=r"Sp\(4, F_2\)"):
        affine_action_mod2(o, basis)


def point_setup(o, basis):
    """(walk, perms, label -> duad map) of the point walk on o."""
    covers = {cover_label(basis, c)[1]: c for c in all_double_covers(o, basis)}
    walk, seed, perms = weierstrass_action(o)
    return walk, perms, label_duads([covers[label] for label in (1, 2, 4, 8)], seed)


@pytest.mark.parametrize("n", range(3, 22))
def test_point_blocks_equal_frame_blocks(n):
    # the permutations of the six Weierstrass points, read through member
    # 0's label -> duad map, are the F_2 frames' matrices step by step, so
    # they give the frames' labelled blocks; one permutation per step, the
    # identity on first landings, the zero always fixed, and one matrix
    # tuple per distinct permutation
    for b, e in square_spins(n):
        o, basis = lshape(b, e)
        walk, perms, duads = point_setup(o, basis)
        landings = walk_landings(walk)
        assert len(perms) == len(landings)
        reached = {0}
        for (_, _, j), perm in zip(landings, perms):
            assert sorted(perm) == list(range(6)) and perm[0] == 0
            if j not in reached:
                reached.add(j)
                assert perm is IDENTITY6
        assert len(reached) == len(walk.members)
        matrices = duad_matrices(perms, duads)
        assert len({id(M) for M in matrices}) == len(set(perms))
        assert matrices == affine_action_mod2(o, basis)[1]
        blocks = _mod2_label_blocks(set(matrices))
        assert sorted(label for block in blocks for label in block) == list(range(1, 16))


@pytest.mark.parametrize("n", range(3, 14))
def test_basis_extended_duads_equal_the_direct_duads(n):
    # the duads of labels 1, 2, 4, 8 extended by symmetric difference equal
    # each cover's own duad; a lift is hyperelliptic (Arf 0) exactly when
    # its duad holds the zero
    for b, e in square_spins(n):
        o, basis = lshape(b, e)
        seed = weierstrass_points(o.h.images, o.v.images)
        covers = {cover_label(basis, c)[1]: c for c in all_double_covers(o, basis)}
        duads = label_duads([covers[label] for label in (1, 2, 4, 8)], seed)
        assert duads == {label: cover_duad(c, seed) for label, c in covers.items()}
        assert {label for label, duad in duads.items() if duad & 1} == HYP_LABELS
        if n <= 7:
            assert all((duads[label] & 1) == (c.lift().arf_invariant() == 0)
                       for label, c in covers.items())


def test_label_duads_guards():
    o, basis = lshape(6, 1)
    seed = weierstrass_points(o.h.images, o.v.images)
    covers = {cover_label(basis, c)[1]: c for c in all_double_covers(o, basis)}
    # one basis cover four times: labels 3 and 5 both get the empty set
    with pytest.raises(InvariantError, match="not a bijection"):
        label_duads([covers[1]] * 4, seed)
    # labels 2 and 4 swapped: still a bijection, but the duads of 1 and 4
    # now meet in one point, where J4 pairs a1 and a2 to 0
    with pytest.raises(InvariantError, match="J4"):
        label_duads([covers[1], covers[4], covers[2], covers[8]], seed)
    with pytest.raises(ValueError):
        label_duads([covers[1], covers[2], covers[4]], seed)
    with pytest.raises(ValueError, match="double covers"):
        cover_duad(cyclic_covers(o, 3, basis)[0], seed)


def test_weierstrass_action_guards():
    torus = Origami.from_text("n=4 h=(1,2)(3,4) v=(1,3)(2,4)")
    with pytest.raises(InvariantError, match="translation"):
        weierstrass_action(torus)


def test_point_walk_mutations_raise_or_differ_from_the_frames(monkeypatch):
    # one push fault per run: swap images 0 and 1 of one `inverse_images`
    # result, for every call of the point walk on L(30, -1); each run
    # raises, returns the unmutated permutations or gives matrices that
    # differ from the frames' at some step, which a comparison of blocks
    # alone misses; the orbit walk is reused
    import flatcover.covers
    o, basis = lshape(30, -1)
    walk, perms, duads = point_setup(o, basis)
    frames = affine_action_mod2(o, basis)[1]
    monkeypatch.setattr(flatcover.covers, "sl2z_orbit_walk", lambda h, v: walk)
    calls, swap = [0], [-1]

    def swapped(images):
        out = inverse_images(images)
        if calls[0] == swap[0]:
            out[0], out[1] = out[1], out[0]
        calls[0] += 1
        return out

    monkeypatch.setattr(flatcover.covers, "inverse_images", swapped)
    weierstrass_action(o)
    total = calls[0]
    # one call per step, and one at the seed
    assert total == len(perms) + 1
    outcomes = Counter()
    for swap[0] in range(total):
        calls[0] = 0
        try:
            changed = weierstrass_action(o)[2]
        except InvariantError:
            outcomes["raise"] += 1
            continue
        if changed == perms:
            outcomes["same"] += 1
        elif duad_matrices(changed, duads) != frames:
            outcomes["differ"] += 1
        else:
            outcomes["silent"] += 1
    assert outcomes["silent"] == 0
    assert outcomes["raise"] > 0 and outcomes["differ"] > 0
