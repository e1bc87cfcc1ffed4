from itertools import permutations
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from flatcover import InvariantError, origami
from flatcover.classify import square_spins
from flatcover.covers import Cover, all_double_covers, cover_from_basis_values, cover_label
from flatcover.origami import (Cycle, Origami, OrbitCapExceeded, act_generator,
                               intersection, l_origami, lattice_index, mod2_forms, mod2_lane,
                               sl2z_orbit_walk, sl2z_word, translation_images, walk_step)
from flatcover.perms import (Permutation, _canonical_pair, compose, cycles,
                             inverse_images, parse_cycles)


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


def bfs_relabelling(h, v, start):
    """The pair relabelled in the visiting order of a full BFS from `start`
    with edge order (h, v)."""
    n = len(h)
    new = [-1] * n
    order = [start]
    new[start] = 0
    cnt = 1
    qi = 0
    while qi < len(order):
        s = order[qi]
        qi += 1
        for t in (h[s], v[s]):
            if new[t] < 0:
                new[t] = cnt
                cnt += 1
                order.append(t)
    hn = [0] * n
    vn = [0] * n
    for s in range(n):
        hn[new[s]] = new[h[s]]
        vn[new[s]] = new[v[s]]
    return tuple(hn), tuple(vn)


def reference_canonical_form(o):
    """The plain loop: full BFS from every cone square (h[v[s]] != v[h[s]]),
    or from every square when there is none, least (hn, vn) over them."""
    h, v = o.h.images, o.v.images
    starts = [s for s in range(o.n) if h[v[s]] != v[h[s]]] or range(o.n)
    return min(bfs_relabelling(h, v, s) for s in starts)


def all_starts_canonical_form(o):
    """Least (hn, vn) over a full BFS from every square: a complete key that
    does not depend on the choice of starts."""
    h, v = o.h.images, o.v.images
    return min(bfs_relabelling(h, v, s) for s in range(o.n))


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
              make_origami("(1,2,3,4,5,6)", "(1,3,5)(2,4,6)", 6),
              # one identity generator: the other one alone reaches every square
              make_origami("(1,2,3,4,5,6,7)", "", 7),
              make_origami("", "(1,2,3,4,5,6,7)", 7)):
        for seed in range(5):
            assert relabel(o, seed).canonical_form() == reference_canonical_form(o)


def lattice_tori(max_n):
    """Every torus Z^2 / Lambda with at most max_n squares, from the Hermite
    basis (w, 0), (t, n / w) of Lambda, 0 <= t < w: square (x, y) is x + w y,
    and going up from the top row lands on (x - t, 0)."""
    for n in range(1, max_n + 1):
        for w in (w for w in range(1, n + 1) if n % w == 0):
            for t in range(w):
                h = [(s // w) * w + (s % w + 1) % w for s in range(n)]
                v = [s + w if s + w < n else (s % w - t) % w for s in range(n)]
                yield Origami(Permutation(h), Permutation(v))


def test_torus_canonical_pair_starts_at_square_zero():
    # no cone square: <h, v> acts regularly, so every start gives the least
    # relabelling and square 0 is the only one tried, with or without labels
    tori = list(lattice_tori(12))
    assert len(tori) == sum(d for n in range(1, 13) for d in range(1, n + 1) if n % d == 0)
    for i, o in enumerate(tori):
        o = relabel(o, i)
        h, v = o.h.images, o.v.images
        hn, vn, order = _canonical_pair(h, v)
        assert (hn, vn) == all_starts_canonical_form(o)
        assert order[0] == 0
        assert _canonical_pair(h, v, orbit_labels(o)) == (hn, vn, order)


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
    minus_one = ((-1, 0), (0, -1))
    h4 = Origami.from_text("n=5 h=(1,3,5,2) v=(1,3,2,5,4)")
    assert not h4.veech_contains(minus_one)
    for o, size in ((make_origami("(1,2)(6,7)(3,8)(4,9)(5,10)", "(2,3,4,5)(7,8,9,10)", 10), 36),
                    # H(4) without -I in its Veech group: S and U cycles of 4 and 6
                    (h4, 12),
                    (Origami.from_text("n=6 h=(1,5,4)(2,6) v=(2,5,3)"), 120),
                    # the Z/7 lift of L(2, -1): 21 squares, 7 translations
                    (Origami.from_text("n=21 h=(1,2)(3,6,9,12,15,18,21)(4,5)(7,8)(10,11)"
                                       "(13,14)(16,17)(19,20) v=(1,3)(4,6)(7,9)(10,12)"
                                       "(13,15)(16,18)(19,21)"), 1152)):
        forms = o.sl2z_orbit_forms()
        assert_orbit_walk_contract(o)
        report = o.sl2z_orbit()
        assert report.size == len(forms) == size
        assert report.representatives == tuple(origami_of(f).to_text()
                                               for f in sorted(forms))


def relabelled(h, v, order):
    """The pair (h, v) with square order[k] given label k."""
    new = [0] * len(order)
    for k, s in enumerate(order):
        new[s] = k
    return (tuple(new[h[s]] for s in order), tuple(new[v[s]] for s in order))


def assert_orbit_walk_contract(o):
    """The walk's members are the reference orbit, and each recorded step,
    taken from the previous step's pair and relabelled by its order, gives
    the member it names.  Each member lies on one walk of S and one of U, as
    its start or as a landing, and only a walk's last step may return to its
    start."""
    walk = sl2z_orbit_walk(o.h.images, o.v.images)
    assert walk.members[0] == o.canonical_form()
    assert relabelled(o.h.images, o.v.images, walk.seed_order) == walk.members[0]
    assert len(set(walk.members)) == len(walk.members)
    assert set(walk.members) == reference_orbit_forms(o)
    passed = {"S": [], "U": []}
    for i, g, steps in walk.walks:
        h, v = walk.members[i]
        assert 1 <= len(steps) and all(j != i for j, _ in steps[:-1])
        passed[g] += [i] + [j for j, _ in steps if j != i]
        for j, order in steps:
            h, v = walk_step(h, inverse_images(v), g)
            assert relabelled(h, v, order) == walk.members[j]
    for g in "SU":
        assert sorted(passed[g]) == list(range(len(walk.members)))


@settings(max_examples=25, deadline=None)
@given(origamis(max_n=7))
def test_orbit_graph_edges_relabel_to_their_targets(o):
    assert_orbit_walk_contract(o)


def test_orbit_graph_of_lifts_and_l_shapes():
    assert_orbit_walk_contract(l_origami(6, 1).origami)
    assert_orbit_walk_contract(
        make_origami("(1,2)(6,7)(3,8)(4,9)(5,10)", "(2,3,4,5)(7,8,9,10)", 10))
    # every double-cover lift for n <= 7, in both spins: the S/U walk
    # against the four-generator reference
    for n in range(3, 8):
        for b, e in square_spins(n):
            base = l_origami(b, e)
            for cover in all_double_covers(base.origami, list(base.basis)):
                assert_orbit_walk_contract(cover.lift())


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


some_origamis = st.one_of(origamis(max_n=8), lifted_origamis())


@settings(max_examples=150, deadline=None)
@given(some_origamis, some_origamis, st.integers(0, 2 ** 30))
def test_cone_square_key_is_complete(o, other, seed):
    # the key over the cone squares is a conjugacy invariant ...
    key = o.canonical_form()
    assert relabel(o, seed).canonical_form() == key
    # ... and tells pairs apart exactly as the key over all squares does
    assert (other.canonical_form() == key) == \
        (all_starts_canonical_form(other) == all_starts_canonical_form(o))


def orbit_labels(o):
    """Each square labelled by the least square of its translation orbit."""
    return [min(col) for col in zip(*translation_images(o.h.images, o.v.images))]


def assert_orbit_labels_change_nothing(o):
    h, v = o.h.images, o.v.images
    assert _canonical_pair(h, v, orbit_labels(o)) == _canonical_pair(h, v)


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
                    assert any(Permutation(t).order() == m
                               for t in translation_images(o.h.images, o.v.images))
                    assert_orbit_labels_change_nothing(o)


def test_start_filter_keeps_one_start_per_orbit():
    # every square of a Z/m lift of L(2, -1) is a cone square, in three
    # translation orbits; a torus has none and starts at square 0 alone
    for m in (5, 7):
        o = relabel(cyclic_lift(2, -1, m), m)
        h, v = o.h.images, o.v.images
        assert o.n == 3 * m
        assert all(h[v[s]] != v[h[s]] for s in range(o.n))
        labels = orbit_labels(o)
        assert len(set(labels)) == 3
        got = _canonical_pair(h, v, labels)
        assert got == _canonical_pair(h, v)
        assert got[:2] == reference_canonical_form(o)
    for i, o in enumerate(lattice_tori(6)):
        o = relabel(o, i)
        h, v = o.h.images, o.v.images
        got = _canonical_pair(h, v, orbit_labels(o))
        assert got == _canonical_pair(h, v)
        assert got[:2] == reference_canonical_form(o)
        assert got[2][0] == 0


def test_translations_keep_the_canonical_pair_of_the_escalator():
    # the translation group is dihedral of order 8 and acts simply
    # transitively, so one start is tried
    assert len(translation_images(ESCALATOR.h.images, ESCALATOR.v.images)) == 8
    for seed in range(5):
        o = relabel(ESCALATOR, seed)
        assert set(orbit_labels(o)) == {0}
        assert_orbit_labels_change_nothing(o)


@settings(max_examples=60, deadline=None)
@given(origamis(max_n=8))
def test_translations_keep_the_canonical_pair(o):
    assert_orbit_labels_change_nothing(o)


@settings(max_examples=60, deadline=None)
@given(lifted_origamis())
def test_translations_keep_the_canonical_pair_of_lifts(o):
    assert len(translation_images(o.h.images, o.v.images)) > 1
    assert_orbit_labels_change_nothing(o)


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


def test_orbit_graph_with_translations_matches_reference(monkeypatch):
    # the walk passes translation labels; with none passed, every start
    # square tried, it records the same members, steps and orders
    surfaces = (relabel(cyclic_lift(2, -1, 2), 1), relabel(cyclic_lift(2, -1, 5), 2),
                relabel(cyclic_lift(2, -1, 7), 3), relabel(ESCALATOR, 4))
    walks = [sl2z_orbit_walk(o.h.images, o.v.images) for o in surfaces]
    for o, walk in zip(surfaces, walks):
        members, _, seed_order = reference_orbit_graph(o.h.images, o.v.images)
        assert set(walk.members) == set(members) and walk.seed_order == seed_order
    canonical_pair = origami._canonical_pair
    monkeypatch.setattr(origami, "_canonical_pair",
                        lambda h, v, orbits=None: canonical_pair(h, v))
    assert [sl2z_orbit_walk(o.h.images, o.v.images) for o in surfaces] == walks


def test_orbit_graph_passes_labels_only_when_the_seed_has_a_translation(monkeypatch):
    passed = []
    canonical_pair = origami._canonical_pair

    def recording(h, v, orbits=None):
        passed.append(orbits)
        return canonical_pair(h, v, orbits)

    monkeypatch.setattr(origami, "_canonical_pair", recording)
    lift = relabel(cyclic_lift(2, -1, 3), 0)
    sl2z_orbit_walk(lift.h.images, lift.v.images)
    assert passed and all(len(set(orbits)) == lift.n // 3 for orbits in passed)
    passed.clear()
    base = l_origami(6, 1).origami
    sl2z_orbit_walk(base.h.images, base.v.images)
    assert passed and all(orbits is None for orbits in passed)


def apply_word(h, v, word):
    """The pair (h, v) acted on by the product of `word`, last factor first."""
    for g in reversed(word):
        h, v = act_generator(h, v, g)
    return h, v


@settings(max_examples=60, deadline=None)
@given(some_origamis)
def test_s_and_u_steps_are_generator_words_relabelled_by_v(o):
    h, v = o.h.images, o.v.images

    def step(pair, g):
        return tuple(map(tuple, walk_step(pair[0], inverse_images(pair[1]), g)))

    s_pair, u_pair = step((h, v), "S"), step((h, v), "U")
    # relabelled by v: square x gets label v[x]
    by_v = inverse_images(v)
    assert s_pair == relabelled(*apply_word(h, v, ["Rinv", "L", "Rinv"]), by_v)
    assert u_pair == relabelled(*apply_word(h, v, ["Rinv", "L"]), by_v)
    # S^2 = U^3 = -I up to relabelling
    minus_one = _canonical_pair(*act_generator(h, v, "-I"))[:2]
    assert _canonical_pair(*step(s_pair, "S"))[:2] == minus_one
    assert _canonical_pair(*step(step(u_pair, "U"), "U"))[:2] == minus_one


def test_orbit_walk_needs_one_canonical_form_per_cycle_step(monkeypatch):
    calls = [0]
    canonical_pair = origami._canonical_pair

    def counting(h, v, orbits=None):
        calls[0] += 1
        return canonical_pair(h, v, orbits)

    monkeypatch.setattr(origami, "_canonical_pair", counting)
    counts = []
    for e in (1, -1):
        base = l_origami(30, e)
        basis = list(base.basis)
        lift = next(c.lift() for c in all_double_covers(base.origami, basis)
                    if cover_label(basis, c)[1] == 1)
        for o in (base.origami, lift):
            calls[0] = 0
            forms = o.sl2z_orbit_forms()
            counts.append((len(forms), calls[0]))
            # -I is in every Veech group here, so S-cycles have 1 or 2
            # members and U-cycles 1 or 3; e2 and e3 count the fixed points
            e2 = sum(_canonical_pair(*apply_word(*f, ["Rinv", "L", "Rinv"]))[:2] == f
                     for f in forms)
            e3 = sum(_canonical_pair(*apply_word(*f, ["Rinv", "L"]))[:2] == f for f in forms)
            assert (len(forms) + e2) % 2 == 0 and (2 * len(forms) + e3) % 3 == 0
            assert calls[0] == 2 + (len(forms) + e2) // 2 + (2 * len(forms) + e3) // 3
    # an L/R orbit BFS makes 2|M| + 1 calls: 361, 2161, 451 and 2701
    assert counts == [(180, 212), (1080, 1262), (225, 266), (1350, 1577)]


# -- the start tournament against the sequential loop ------------------------

def sequential_canonical_pair(h, v, orbits=None):
    """The start loop that the tournament of `_canonical_pair` replaced: each
    start runs its BFS until an entry of its hn exceeds the best hn so far,
    or to the end, and builds its (hn, vn) there."""
    n = len(h)
    starts = [s for s in range(n) if h[v[s]] != v[h[s]]] or [0]
    if orbits is not None:
        # keep the first start of each orbit; translations commute with h
        # and v, so each orbit lies inside `starts` or misses it
        firsts: dict[int, int] = {}
        for start in starts:
            firsts.setdefault(orbits[start], start)
        starts = firsts.values()
    best_h = best_v = best_order = None
    for start in starts:
        new = [-1] * n
        new[start] = 0
        order = [start]
        cnt = 1
        tied = best_h is not None
        for k, s in enumerate(order):
            t = h[s]
            x = new[t]
            if x < 0:
                new[t] = x = cnt
                cnt += 1
                order.append(t)
            if tied and x != best_h[k]:
                if x > best_h[k]:
                    break
                tied = False
            t = v[s]
            if new[t] < 0:
                new[t] = cnt
                cnt += 1
                order.append(t)
        else:
            vn = tuple([new[v[s]] for s in order])
            if not tied:
                best_h = tuple([new[h[s]] for s in order])
                best_v, best_order = vn, order
            elif vn < best_v:
                best_v, best_order = vn, order
    return best_h, best_v, best_order


TORI = list(lattice_tori(12))


@st.composite
def relabelled_tori(draw):
    return relabel(draw(st.sampled_from(TORI)), draw(st.integers(0, 2 ** 30)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(origamis(max_n=12), lifted_origamis(max_n=12), relabelled_tori()))
def test_tournament_matches_the_sequential_loop(o):
    # the same (hn, vn) and the same relabelling `order`, with and without
    # translation labels
    h, v = o.h.images, o.v.images
    for labels in (None, orbit_labels(o)):
        assert _canonical_pair(h, v, labels) == sequential_canonical_pair(h, v, labels)


def test_tied_starts_keep_the_first():
    # unlabelled, the 7 starts of one translation orbit of the Z/7 lift of
    # L(2, -1) tie on (hn, vn); the earliest of them gives `order`
    for seed in range(3):
        o = relabel(cyclic_lift(2, -1, 7), seed)
        h, v = o.h.images, o.v.images
        got = _canonical_pair(h, v)
        assert got == sequential_canonical_pair(h, v)
        tied = [s for s in range(o.n) if bfs_relabelling(h, v, s) == got[:2]]
        labels = orbit_labels(o)
        assert tied == [s for s in range(o.n) if labels[s] == labels[tied[0]]]
        assert len(tied) == 7 and got[2][0] == tied[0]


class CountingImages(tuple):
    """An image tuple that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, i):
        CountingImages.reads += 1
        return tuple.__getitem__(self, i)


def test_tournament_reads_each_square_about_nine_times(monkeypatch):
    # the cone-square scan reads h and v 4 times per square, a full BFS 2
    # and the (hn, vn) tuples 2; the sequential loop makes 11.16 reads per
    # square per call on this orbit, as it runs 1.6 full BFSs a call
    base = l_origami(16, 0)
    basis = list(base.basis)
    lift = next(c.lift() for c in all_double_covers(base.origami, basis)
                if cover_label(basis, c)[1] == 3)
    calls = []
    canonical_pair = origami._canonical_pair

    def recording(h, v, orbits=None):
        calls.append((tuple(h), tuple(v), orbits))
        return canonical_pair(h, v, orbits)

    monkeypatch.setattr(origami, "_canonical_pair", recording)
    assert len(lift.sl2z_orbit_forms()) == 432
    assert len(calls) == 506
    CountingImages.reads = 0
    for h, v, orbits in calls:
        _canonical_pair(CountingImages(h), CountingImages(v), orbits)
    assert CountingImages.reads <= 9.5 * sum(len(h) for h, _, _ in calls)


def assert_symplectic_mod2(o, basis):
    """basis is 2g chains of 0s and 1s, each closed mod 2, with the standard
    symplectic Gram matrix mod 2.  A chain is closed when as much flows into
    each square t as out of it: sig[t] + tau[t] = sig[h^-1 t] + tau[v^-1 t]."""
    g = o.stratum().genus
    assert len(basis) == 2 * g
    hi, vi = o.h.inverse().images, o.v.inverse().images
    for c in basis:
        assert set(c.sig + c.tau) <= {0, 1}
        assert all((c.sig[t] + c.tau[t] - c.sig[hi[t]] - c.tau[vi[t]]) % 2 == 0
                   for t in range(o.n))
    standard = [[int(k ^ 1 == l) for l in range(2 * g)] for k in range(2 * g)]
    assert [[intersection(o, x, y) % 2 for y in basis] for x in basis] == standard


@settings(max_examples=60, deadline=None)
@given(origamis(max_n=8))
def test_symplectic_basis_has_standard_gram(o):
    assert_symplectic_mod2(o, o.symplectic_basis())


def assert_mod2_forms_are_intersection_mod2(o, chains=None):
    """Every entry of `mod2_forms`, with the chains (default: the
    fundamental cycles) packed 8 to a lane, is `intersection` mod 2, within a
    lane and across lanes."""
    chains = o._fundamental_cycles() if chains is None else chains
    h, v = o.h.images, o.v.images
    reads, packs = [], []
    for i in range(0, len(chains), 8):
        lane = chains[i:i + 8]
        r, p = mod2_forms(h, v, *mod2_lane([(c.sig, c.tau) for c in lane]), len(lane))
        reads += r
        packs += p
    assert len(reads) == len(packs) == len(chains)
    for a, read in zip(chains, reads):
        for b, packed in zip(chains, packs):
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


@pytest.mark.parametrize("count", [1, 4, 7, 8, 9, 16, 17, 23])
def test_mod2_forms_across_lane_boundaries(count):
    # a 22-square lift of L(30, 1) has 23 fundamental cycles, 3 lanes; the
    # chains 3 a - b have even and negative coefficients too
    L = l_origami(30, 1)
    lift = cover_from_basis_values(L.origami, 2, list(L.basis), (0, 1, 1, 0)).lift()
    cycles = lift._fundamental_cycles()
    assert len(cycles) == 23
    combos = [3 * a - b for a, b in zip(cycles, cycles[1:] + cycles[:1])]
    assert_mod2_forms_are_intersection_mod2(lift, cycles[:count])
    assert_mod2_forms_are_intersection_mod2(lift, combos[:count])


def test_a_lane_holds_one_to_eight_chains():
    o = l_origami(30, 1).origami
    cycles = [(c.sig, c.tau) for c in o._fundamental_cycles()]
    for chains in ([], cycles[:9]):
        with pytest.raises(ValueError, match="1 to 8 chains"):
            mod2_lane(chains)
    sig, tau = mod2_lane(cycles[:8])
    for width in (0, 9):
        with pytest.raises(ValueError, match="1 to 8 chains"):
            mod2_forms(o.h.images, o.v.images, sig, tau, width)


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
    other = Cycle(o.n + 1, (0,) * (o.n + 1), (0,) * (o.n + 1))
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


@pytest.mark.parametrize("n", range(3, 13))
def test_weierstrass_points_on_every_member_of_the_base_orbits(n):
    # exactly one involution p with p h p = h^-1 and p v p = v^-1, and six
    # fixed points with the zero first, on every member; the integer
    # Weierstrass points other than the zero number 0 on the a_n orbit and
    # 2 on the b_n orbit at odd n, and 1 at even n (Hubert-Lelievre)
    for b, e in square_spins(n):
        L = l_origami(b, e)
        walk = sl2z_orbit_walk(L.origami.h.images, L.origami.v.images)
        corners = {0 if n % 2 and (L.d - e) % 4 == 0 else 2 if n % 2 else 1}
        for h, v in walk.members:
            p, points = origami.weierstrass_points(h, v)
            o = Origami(Permutation(h), Permutation(v))
            assert all(p[p[s]] == s and p[h[s]] == h.index(p[s]) and p[v[s]] == v.index(p[s])
                       for s in range(n))
            zero = next(c for c in o.vertex_cycles() if len(c) > 1)
            assert points[0] == ("V", min(zero))
            assert len(set(points)) == 6
            assert all(kind in origami.POINT_KINDS and 0 <= s < n for kind, s in points)
            assert sum(kind == "V" for kind, _ in points[1:]) in corners


def test_weierstrass_points_need_one_involution_and_one_zero():
    # the 2x2 torus has four translations, so four involutions; an H(1, 1)
    # surface with a translation has two, and one without has two zeros
    for text in ("n=4 h=(1,2)(3,4) v=(1,3)(2,4)", "n=4 h=(1,2)(3,4) v=(1,3)"):
        o = Origami.from_text(text)
        with pytest.raises(InvariantError, match="involutions"):
            origami.weierstrass_points(o.h.images, o.v.images)
    o = Origami.from_text("n=6 h=(1,2)(3,4)(5,6) v=(1,3,5)(2,4)")
    with pytest.raises(ValueError, match="2 cone points"):
        origami.weierstrass_points(o.h.images, o.v.images)
