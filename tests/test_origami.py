from itertools import permutations
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from flatcover import origami
from flatcover.covers import Cover, all_double_covers, cover_from_basis_values
from flatcover.origami import (Cycle, Origami, OrbitCapExceeded, act_generator,
                               intersection, l_origami, lattice_index, mod2_forms,
                               sl2z_orbit_graph, sl2z_word, translation_images)
from flatcover.perms import (Permutation, _canonical_pair, compose, cycles,
                             parse_cycles)


def mat2_mul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def make_origami(h_text, v_text, n):
    return Origami(parse_cycles(h_text, n), parse_cycles(v_text, n))


def period(c):
    """The planar period (horizontal, vertical) of a cycle."""
    return (sum(c.sig), sum(c.tau))


def commutator(p, q):
    """p q p^-1 q^-1 under the compose convention."""
    return compose(compose(p, q), compose(p.inverse(), q.inverse()))


def act(o, g):
    """The action of a generator on an Origami object, composing validated
    Permutations: the reference for `act_generator` on image tuples."""
    h, v = o.h, o.v
    if g == "L":
        return Origami(compose(v.inverse(), h), v)
    if g == "Linv":
        return Origami(compose(v, h), v)
    if g == "R":
        return Origami(h, compose(h.inverse(), v))
    if g == "Rinv":
        return Origami(h, compose(h, v))
    if g == "-I":
        return Origami(h.inverse(), v.inverse())
    raise ValueError(f"unknown generator {g!r}")


FIVE = make_origami("(1,2)", "(2,3,4,5)", 5)


# -- construction and canonical form ----------------------------------------

def test_requires_transitive_pair():
    with pytest.raises(ValueError):
        make_origami("(1,2)", "(3,4)", 4)


def test_text_roundtrip():
    assert Origami.from_text(FIVE.to_text()) == FIVE
    assert Origami.from_text("n=1 h= v=").n == 1


@st.composite
def origamis(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    for _ in range(50):
        h = Permutation(tuple(draw(st.permutations(range(n)))))
        v = Permutation(tuple(draw(st.permutations(range(n)))))
        try:
            return Origami(h, v)
        except ValueError:
            continue
    return Origami(Permutation(tuple(range(1, n)) + (0,)), Permutation(range(n)))


@settings(max_examples=40, deadline=None)
@given(origamis(), st.integers(0, 2 ** 30))
def test_canonical_form_conjugation_invariant(o, seed):
    import random
    images = list(range(o.n))
    random.Random(seed).shuffle(images)
    g = Permutation(images)
    conj = Origami(o.h.conjugate(g), o.v.conjugate(g))
    assert conj.canonical_form() == o.canonical_form()
    assert conj == o


def reference_canonical_form(o):
    """The plain loop: full BFS from every start square with edge order
    (h, v, h^-1, v^-1), least (hn, vn) over all of them."""
    n = o.n
    h, v = o.h.images, o.v.images
    hi, vi = o.h.inverse().images, o.v.inverse().images
    best = None
    for start in range(n):
        new = [-1] * n
        order = [start]
        new[start] = 0
        cnt = 1
        qi = 0
        while qi < len(order):
            s = order[qi]
            qi += 1
            for t in (h[s], v[s], hi[s], vi[s]):
                if new[t] < 0:
                    new[t] = cnt
                    cnt += 1
                    order.append(t)
        hn = [0] * n
        vn = [0] * n
        for s in range(n):
            hn[new[s]] = new[h[s]]
            vn[new[s]] = new[v[s]]
        enc = (tuple(hn), tuple(vn))
        if best is None or enc < best:
            best = enc
    return best


def relabel(o, seed):
    import random
    images = list(range(o.n))
    random.Random(seed).shuffle(images)
    g = Permutation(images)
    return Origami(o.h.conjugate(g), o.v.conjugate(g))


@settings(max_examples=150, deadline=None)
@given(origamis(max_n=8), st.integers(0, 2 ** 30))
def test_canonical_form_matches_reference_loop(o, seed):
    want = reference_canonical_form(o)
    assert o.canonical_form() == want
    assert relabel(o, seed).canonical_form() == want


def test_canonical_form_matches_reference_on_symmetric_surfaces():
    # many starts tie all the way in hn: translation surfaces and lifts
    for o in (ESCALATOR, FIVE, l_origami(6, 1).origami,
              make_origami("(1,2)(6,7)(3,8)(4,9)(5,10)", "(2,3,4,5)(7,8,9,10)", 10),
              make_origami("(1,2,3,4,5,6)", "(1,3,5)(2,4,6)", 6)):
        for seed in range(5):
            assert relabel(o, seed).canonical_form() == reference_canonical_form(o)


@settings(max_examples=40)
@given(origamis())
def test_conjugation_preserves_stratum(o):
    g = Permutation(tuple(range(1, o.n)) + (0,))
    conj = Origami(o.h.conjugate(g), o.v.conjugate(g))
    assert str(conj.stratum()) == str(o.stratum())


def test_stratum_examples():
    assert str(FIVE.stratum()) == "H(2)"
    assert str(Origami.from_text("n=1 h= v=").stratum()) == "torus"
    lift = make_origami("(1,2)(6,7)(3,8)(4,9)(5,10)", "(2,3,4,5)(7,8,9,10)", 10)
    assert str(lift.stratum()) == "H(2,2)"
    assert lift.stratum().genus == 3


@settings(max_examples=40, deadline=None)
@given(origamis(max_n=8))
def test_vertex_cycles_are_cycles_of_commutator(o):
    assert o.vertex_cycles() == cycles(commutator(o.h, o.v).images, include_fixed=True)


# -- the SL(2,Z) action ------------------------------------------------------

def test_generator_consistency():
    for g, ginv in (("L", "Linv"), ("R", "Rinv")):
        assert act(act(FIVE, g), ginv) == FIVE


def test_published_lrl_action():
    # L, then R^3, then L on the 5-square surface
    o = act(FIVE, "L")
    assert o.h == parse_cycles("(1,5,4,3,2)", 5)
    assert o.v == parse_cycles("(2,3,4,5)", 5)
    for _ in range(3):
        o = act(o, "R")
    assert o == Origami(parse_cycles("(1,5,4,3,2)", 5), parse_cycles("(1,4,3,2)", 5))
    o = act(o, "L")
    assert o == Origami(parse_cycles("(1,5)", 5), parse_cycles("(1,4,3,2)", 5))
    assert o == FIVE  # conjugate pairs define the same origami


def test_act_matrix_identity_and_minus_identity():
    assert FIVE.act_matrix(((1, 0), (0, 1))) == FIVE
    o = FIVE.act_matrix(((-1, 0), (0, -1)))
    assert o == Origami(FIVE.h.inverse(), FIVE.v.inverse())


GENERATOR_MATRICES = {"L": ((1, 0), (1, 1)), "R": ((1, 1), (0, 1)),
                      "Linv": ((1, 0), (-1, 1)), "Rinv": ((1, -1), (0, 1)),
                      "-I": ((-1, 0), (0, -1))}


@settings(max_examples=40, deadline=None)
@given(origamis(max_n=8))
def test_act_generator_matches_object_action(o):
    for g in GENERATOR_MATRICES:
        want = act(o, g)
        assert act_generator(o.h.images, o.v.images, g) == (want.h.images, want.v.images)
    with pytest.raises(ValueError):
        act_generator(o.h.images, o.v.images, "S")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["L", "R", "Linv", "Rinv"]), min_size=0, max_size=6))
def test_sl2z_word_reconstructs_matrix_action(word):
    M = ((1, 0), (0, 1))
    o = FIVE
    for g in word:
        o = act(o, g)
        M = mat2_mul(GENERATOR_MATRICES[g], M)
    assert FIVE.act_matrix(M) == o


def test_act_matrix_composition():
    A = ((4, 3), (5, 4))
    B = ((2, 1), (1, 1))
    assert FIVE.act_matrix(A).act_matrix(B) == FIVE.act_matrix(mat2_mul(B, A))


def test_act_matrix_rejects_non_unimodular():
    with pytest.raises(ValueError):
        FIVE.act_matrix(((2, 0), (0, 1)))


def word_product(word):
    M = ((1, 0), (0, 1))
    for g in word:
        M = mat2_mul(M, GENERATOR_MATRICES[g])
    return M


def test_sl2z_word_covers_column_zero_case():
    S = ((0, -1), (1, 0))
    assert FIVE.act_matrix(S).act_matrix(S) == FIVE.act_matrix(((-1, 0), (0, -1)))
    for M in (S, ((0, 1), (-1, 0)), ((0, -1), (1, 3)), ((-1, 0), (0, -1)),
              ((-1, 5), (0, -1))):
        assert word_product(sl2z_word(M)) == M


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(sorted(GENERATOR_MATRICES)), max_size=12))
def test_sl2z_word_multiplies_back(word):
    M = word_product(word)
    assert word_product(sl2z_word(M)) == M


def test_veech_contains():
    M = ((4, 3), (5, 4))
    assert FIVE.veech_contains(M)
    lift = make_origami("(1,2)(6,7)(3,8)(4,9)(5,10)", "(2,3,4,5)(7,8,9,10)", 10)
    assert not lift.veech_contains(M)


# -- orbits ------------------------------------------------------------------

def test_orbit_sizes():
    assert l_origami(6, 1).origami.sl2z_orbit().size == 18
    assert l_origami(6, -1).origami.sl2z_orbit().size == 9
    torus = Origami.from_text("n=1 h= v=")
    report = torus.sl2z_orbit()
    assert report.size == 1 and report.stratum == "torus" and report.reduced


def test_orbit_cap():
    with pytest.raises(OrbitCapExceeded):
        l_origami(6, 1).origami.sl2z_orbit(cap=5)
    with pytest.raises(OrbitCapExceeded) as exc:
        l_origami(6, 1).origami.sl2z_orbit_forms(cap=17)
    assert exc.value.partial_count == 17
    assert len(l_origami(6, 1).origami.sl2z_orbit_forms(cap=18)) == 18
    torus = Origami.from_text("n=1 h= v=")
    for cap in (0, -5):
        with pytest.raises(ValueError):
            torus.sl2z_orbit_forms(cap=cap)
    assert len(torus.sl2z_orbit_forms(cap=1)) == 1


def reference_orbit_forms(o):
    """BFS over all four generators L, R, L^-1, R^-1 on Origami objects,
    with the reference canonical form."""
    seen = {reference_canonical_form(o)}
    queue = [o]
    for o in queue:
        for g in ("L", "R", "Linv", "Rinv"):
            o2 = act(o, g)
            enc = reference_canonical_form(o2)
            if enc not in seen:
                seen.add(enc)
                queue.append(o2)
    return seen


def origami_of(form):
    return Origami(Permutation(form[0]), Permutation(form[1]))


@settings(max_examples=25, deadline=None)
@given(origamis(max_n=7))
def test_orbit_matches_four_generator_reference(o):
    assert o.sl2z_orbit_forms() == reference_orbit_forms(o)


@settings(max_examples=25, deadline=None)
@given(origamis(max_n=7))
def test_orbit_closed_under_inverse_generators(o):
    forms = o.sl2z_orbit_forms()
    for form in forms:
        member = origami_of(form)
        assert member.canonical_form() == form
        for g in ("Linv", "Rinv"):
            assert act(member, g).canonical_form() in forms


def test_orbit_of_lift_matches_reference():
    lift = make_origami("(1,2)(6,7)(3,8)(4,9)(5,10)", "(2,3,4,5)(7,8,9,10)", 10)
    forms = lift.sl2z_orbit_forms()
    assert forms == reference_orbit_forms(lift)
    report = lift.sl2z_orbit()
    assert report.size == len(forms) == 36
    assert report.representatives == tuple(origami_of(f).to_text()
                                           for f in sorted(forms))


def relabelled(h, v, order):
    """The pair (h, v) with square order[k] given label k."""
    new = [0] * len(order)
    for k, s in enumerate(order):
        new[s] = k
    return (tuple(new[h[s]] for s in order), tuple(new[v[s]] for s in order))


def assert_orbit_graph_contract(o):
    graph = sl2z_orbit_graph(o.h.images, o.v.images)
    assert graph.members[0] == o.canonical_form()
    assert relabelled(o.h.images, o.v.images, graph.seed_order) == graph.members[0]
    assert len(set(graph.members)) == len(graph.members) == len(graph.edges)
    assert set(graph.members) == o.sl2z_orbit_forms()
    for i, (h, v) in enumerate(graph.members):
        for g, (j, order) in zip(("L", "R"), graph.edges[i]):
            assert relabelled(*act_generator(h, v, g), order) == graph.members[j]


@settings(max_examples=25, deadline=None)
@given(origamis(max_n=7))
def test_orbit_graph_edges_relabel_to_their_targets(o):
    assert_orbit_graph_contract(o)


def test_orbit_graph_of_lifts_and_l_shapes():
    assert_orbit_graph_contract(l_origami(6, 1).origami)
    assert_orbit_graph_contract(
        make_origami("(1,2)(6,7)(3,8)(4,9)(5,10)", "(2,3,4,5)(7,8,9,10)", 10))


# -- translations and quotients ---------------------------------------------

ESCALATOR = make_origami("(1,2)(3,4)(5,6)(7,8)", "(2,3)(4,5)(6,7)(8,1)", 8)


def test_escalator_translation_group():
    trans = ESCALATOR.translations()
    assert sorted(t.order() for t in trans) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_escalator_quotients():
    quotients = {ESCALATOR.quotient_by_translation(t).canonical_form()
                 for t in ESCALATOR.translations() if t.order() == 2}
    assert len(quotients) == 3
    q1 = make_origami("(1,2)(3,4)", "(1,3)", 4)
    q2 = make_origami("(2,3)", "(1,2)(3,4)", 4)
    assert {q1.canonical_form(), q2.canonical_form()} <= quotients


def test_quotient_rejects_non_translation():
    with pytest.raises(ValueError):
        FIVE.quotient_by_translation(parse_cycles("(1,2)", 5))


@settings(max_examples=40, deadline=None)
@given(origamis())
def test_translation_images_are_the_whole_commutant(o):
    h, v = o.h.images, o.v.images
    want = [list(t) for t in permutations(range(o.n))
            if all(t[h[s]] == h[t[s]] and t[v[s]] == v[t[s]] for s in range(o.n))]
    assert translation_images(h, v) == want
    assert [t.images for t in o.translations()] == [tuple(t) for t in want]


# -- canonical forms skipping translation images of earlier starts -----------

@st.composite
def lifted_origamis(draw, max_n=5, max_m=4):
    """Connected Z/m covers of small origamis, relabelled: each has the deck
    shift as a translation, besides any of its base."""
    base = draw(origamis(max_n=max_n))
    m = draw(st.integers(2, max_m))
    weights = st.lists(st.integers(0, m - 1), min_size=base.n, max_size=base.n)
    cover = Cover(base, m, tuple(draw(weights)), tuple(draw(weights)))
    try:
        lift = cover.lift()
    except ValueError:
        assume(False)
    return relabel(lift, draw(st.integers(0, 2 ** 30)))


def generating_subsets(o):
    """Generating sets to try: every nontrivial translation alone, all of
    them, and every pair."""
    trans = [t for t in translation_images(o.h.images, o.v.images) if t[0] != 0]
    return [[t] for t in trans] + [trans] + [[a, b] for a in trans for b in trans if a < b]


def assert_translations_change_nothing(o):
    h, v = o.h.images, o.v.images
    want = _canonical_pair(h, v)
    for gens in generating_subsets(o):
        assert _canonical_pair(h, v, gens) == want


def cyclic_lift(b, e, m, values=(1, 0, 0, 0)):
    base = l_origami(b, e)
    return cover_from_basis_values(base.origami, m, list(base.basis), values).lift()


def test_translations_keep_the_canonical_pair_of_cyclic_lifts():
    for b, e in ((2, -1), (6, 1)):
        for m in range(2, 8):
            for values in ((1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, m - 1)):
                lift = cyclic_lift(b, e, m, values)
                for seed in range(2):
                    o = relabel(lift, seed)
                    deck = [t for t in translation_images(o.h.images, o.v.images)
                            if Permutation(t).order() == m]
                    assert deck
                    h, v = o.h.images, o.v.images
                    want = _canonical_pair(h, v)
                    assert all(_canonical_pair(h, v, [t]) == want for t in deck)


def test_translations_keep_the_canonical_pair_of_the_escalator():
    # the translation group is dihedral of order 8: a pair of reflections
    # generates it only through products the skipping must close over
    assert len(translation_images(ESCALATOR.h.images, ESCALATOR.v.images)) == 8
    for seed in range(5):
        assert_translations_change_nothing(relabel(ESCALATOR, seed))


@settings(max_examples=60, deadline=None)
@given(origamis(max_n=8))
def test_translations_keep_the_canonical_pair(o):
    assert_translations_change_nothing(o)


@settings(max_examples=60, deadline=None)
@given(lifted_origamis())
def test_translations_keep_the_canonical_pair_of_lifts(o):
    assert len(translation_images(o.h.images, o.v.images)) > 1
    assert_translations_change_nothing(o)


def reference_orbit_graph(h, v):
    """The orbit BFS over L and R with no translations passed: every start
    square is tried in every canonical form."""
    hn, vn, seed_order = _canonical_pair(h, v)
    members = [(hn, vn)]
    index = {members[0]: 0}
    edges = []
    for h, v in members:
        out = []
        for g in ("L", "R"):
            hn, vn, order = _canonical_pair(*act_generator(h, v, g))
            j = index.setdefault((hn, vn), len(members))
            if j == len(members):
                members.append((hn, vn))
            out.append((j, order))
        edges.append(tuple(out))
    return members, edges, seed_order


def test_orbit_graph_with_translations_matches_reference():
    for o in (relabel(cyclic_lift(2, -1, 2), 1), relabel(cyclic_lift(2, -1, 5), 2),
              relabel(cyclic_lift(2, -1, 7), 3), relabel(ESCALATOR, 4)):
        graph = sl2z_orbit_graph(o.h.images, o.v.images)
        assert (graph.members, graph.edges, graph.seed_order) == \
            reference_orbit_graph(o.h.images, o.v.images)


def test_orbit_graph_passes_translations_only_when_there_are_some(monkeypatch):
    passed = []
    canonical_pair = origami._canonical_pair

    def recording(h, v, translations=()):
        passed.append(translations)
        return canonical_pair(h, v, translations)

    monkeypatch.setattr(origami, "_canonical_pair", recording)
    lift = relabel(cyclic_lift(2, -1, 3), 0)
    sl2z_orbit_graph(lift.h.images, lift.v.images)
    assert passed and all(passed)
    passed.clear()
    base = l_origami(6, 1).origami
    sl2z_orbit_graph(base.h.images, base.v.images)
    assert passed and not any(passed)


@settings(max_examples=60, deadline=None)
@given(origamis(max_n=8))
def test_symplectic_basis_has_standard_gram(o):
    basis = o.symplectic_basis()
    g = o.stratum().genus
    assert len(basis) == 2 * g
    standard = [[0] * (2 * g) for _ in range(2 * g)]
    for k in range(0, 2 * g, 2):
        standard[k][k + 1], standard[k + 1][k] = 1, -1
    assert [[intersection(o, x, y) for y in basis] for x in basis] == standard


def assert_mod2_forms_are_intersection_mod2(o):
    cycles = o._fundamental_cycles()
    forms = mod2_forms(o.h.images, o.v.images, [(c.sig, c.tau) for c in cycles])
    for a, (read, _) in zip(cycles, forms):
        for b, (_, packed) in zip(cycles, forms):
            ab = intersection(o, a, b)
            assert (read & packed).bit_count() % 2 == ab % 2
            assert ab == -intersection(o, b, a)


@settings(max_examples=60, deadline=None)
@given(origamis(max_n=8))
def test_mod2_forms_are_intersection_mod2(o):
    assert_mod2_forms_are_intersection_mod2(o)


def test_mod2_forms_of_lifts():
    for b, e in ((2, -1), (6, 1), (4, 0), (12, -1)):
        L = l_origami(b, e)
        for values in ((1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1)):
            c = cover_from_basis_values(L.origami, 2, list(L.basis), values)
            assert_mod2_forms_are_intersection_mod2(c.lift())


# -- a chain is its own crossing count ----------------------------------------

def reference_crossings(o, cycle):
    """(dsig, dtau) of a fundamental cycle, step by step along its taxi moves
    from square 0: dsig[t] counts upward crossings of the bottom edge of
    square t, dtau[t] rightward crossings of its left edge."""
    h, v = o.h.images, o.v.images
    hi, vi = o.h.inverse().images, o.v.inverse().images
    dsig, dtau = [0] * o.n, [0] * o.n
    s = 0
    for ch in cycle.moves:
        if ch == "E":
            s = h[s]
            dtau[s] += 1
        elif ch == "W":
            dtau[s] -= 1
            s = hi[s]
        elif ch == "N":
            s = v[s]
            dsig[s] += 1
        else:
            dsig[s] -= 1
            s = vi[s]
    assert s == 0
    return dsig, dtau


def assert_chain_is_crossing_count(o):
    cycles = o._fundamental_cycles()
    hi, vi = o.h.inverse().images, o.v.inverse().images
    counts = [reference_crossings(o, c) for c in cycles]
    for c, count in zip(cycles, counts):
        assert count == ([c.tau[x] for x in vi], [c.sig[x] for x in hi])
    for a in cycles:
        for b, (dsig, dtau) in zip(cycles, counts):
            assert intersection(o, a, b) == (sum(x * y for x, y in zip(a.sig, dsig))
                                             - sum(x * y for x, y in zip(a.tau, dtau)))
    other = Cycle.zero(o.n + 1)
    for args in ((o, cycles[0], other), (o, other, cycles[0]), (o, other, other)):
        with pytest.raises(ValueError):
            intersection(*args)


@settings(max_examples=60, deadline=None)
@given(origamis(max_n=8))
def test_chain_is_crossing_count(o):
    assert_chain_is_crossing_count(o)


def test_chain_is_crossing_count_on_lifts():
    L = l_origami(6, 1)
    for c in all_double_covers(L.origami, list(L.basis)):
        assert_chain_is_crossing_count(c.lift())


# -- the L-shaped eigenform surfaces ----------------------------------------

def test_l_origami_shape():
    L = l_origami(6, 1)
    assert (L.d, L.lam, L.n) == (5, 3, 5)
    assert [period(c) for c in L.basis] == [(1, 0), (0, 3), (2, 0), (0, 1)]


def test_l_origami_validation():
    with pytest.raises(ValueError):
        l_origami(5, 1)      # e=1 needs b even
    with pytest.raises(ValueError):
        l_origami(3, 0)      # D = 12 not a square
    with pytest.raises(ValueError):
        l_origami(2, 1)      # needs e + 1 < b


# -- periods and reducedness ------------------------------------------------

def reference_hnf2(vectors):
    """Hermite form ((a, b), (0, c)) of the lattice spanned by 2d vectors."""

    def extgcd(a, b):
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        return old_r, old_s, old_t

    a = b = c = 0
    for x, y in vectors:
        if x:
            if a:
                g, p, q = extgcd(a, x)
                if g < 0:
                    g, p, q = -g, -p, -q
                leftover = (a // g) * y - (x // g) * b
                a, b = g, p * b + q * y
                c = gcd(c, abs(leftover))
            else:
                a, b = abs(x), y if x > 0 else -y
        else:
            c = gcd(c, abs(y))
    if c:
        b %= c
    return ((a, b), (0, c))


def reference_is_reduced(o):
    """Periods of the fundamental cycles plus the differences of the zeros'
    positions, found by a walk over the vertices, span Z^2 (Hermite form)."""
    vcycles = o.vertex_cycles()
    vid = [0] * o.n
    for i, cyc in enumerate(vcycles):
        for s in cyc:
            vid[s] = i
    h, v = o.h.images, o.v.images
    hi, vi = o.h.inverse().images, o.v.inverse().images
    by_vid = {}
    for s in range(o.n):
        by_vid.setdefault(vid[s], []).append(s)
    pos = {vid[0]: (0, 0)}
    stack = [vid[0]]
    while stack:
        a = stack.pop()
        x, y = pos[a]
        for s in by_vid[a]:
            for b, dx, dy in ((vid[h[s]], 1, 0), (vid[v[s]], 0, 1),
                              (vid[hi[s]], -1, 0), (vid[vi[s]], 0, -1)):
                if b not in pos:
                    pos[b] = (x + dx, y + dy)
                    stack.append(b)
    gens = [period(c) for c in o._fundamental_cycles()]
    zeros = [pos[i] for i, cyc in enumerate(vcycles) if len(cyc) >= 2]
    gens += [(x - zeros[0][0], y - zeros[0][1]) for x, y in zeros[1:]]
    return reference_hnf2(gens) == ((1, 0), (0, 1))


def stretch(o, k):
    """The k-fold horizontal stretch: square s becomes the row (s, 0..k-1)."""
    h, v = o.h.images, o.v.images
    hk = [k * h[s // k] if s % k == k - 1 else s + 1 for s in range(k * o.n)]
    vk = [k * v[s // k] + s % k for s in range(k * o.n)]
    return Origami(Permutation(hk), Permutation(vk))


def test_reduced():
    assert l_origami(6, 1).origami.is_reduced()
    two_square_torus = make_origami("(1,2)", "", 2)
    assert not two_square_torus.is_reduced()
    periods = [period(c) for c in two_square_torus._fundamental_cycles()]
    assert lattice_index(periods) == 2


def test_is_reduced_needs_no_homology(monkeypatch):
    def refuse(self):
        raise AssertionError("is_reduced built the fundamental cycles")

    monkeypatch.setattr(Origami, "_fundamental_cycles", refuse)
    o = make_origami("(1,2)(6,7)(3,8)(4,9)(5,10)", "(2,3,4,5)(7,8,9,10)", 10)
    assert o.is_reduced()


def test_lattice_index():
    assert lattice_index([(2, 0), (0, 1)]) == 2
    assert lattice_index([(1, 2), (-2, -4), (0, 0)]) == 0
    assert lattice_index([(3, 1), (1, 1), (0, 4)]) == 2


@settings(max_examples=150, deadline=None)
@given(origamis(max_n=8))
def test_is_reduced_matches_reference(o):
    assert o.is_reduced() == reference_is_reduced(o)


@settings(max_examples=40, deadline=None)
@given(origamis(max_n=4), st.integers(2, 3))
def test_stretched_origamis_are_not_reduced(o, k):
    o = stretch(o, k)
    assert not o.is_reduced()
    assert not reference_is_reduced(o)
