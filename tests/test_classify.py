import json
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from flatcover import InvariantError, classify, origami
from flatcover.classify import (EchoTable, HYP_LABELS, branched_cover_types,
                                census_to_json, count_formulas, echoes_of_WD,
                                is_primitive_cover, primitive_cover_oracle,
                                primitive_echo_table, spins, square_spins,
                                verify_sts_orbits)
from flatcover.covers import all_double_covers, cover_label
from flatcover.lshape import is_prototype
from flatcover.monodromy import (label_vector, mat_H, mat_V, mat_X, orbit_partition,
                                 primitive_vectors, vector_label)
from flatcover.origami import l_origami

# expected orbit tables by discriminant class mod 8
TABLE2 = {
    0: (((2,), (3, 5, 9, 13)),
        ((1, 7, 11, 15), (4, 6), (8, 10, 12, 14))),
    1: (((2, 5), (3, 9, 13)),
        ((1, 6, 8, 11, 12, 15), (4, 10, 14), (7,))),
    4: (((2, 3, 9, 13), (5,)),
        ((1, 4, 11, 14), (6, 7, 8, 12), (10, 15))),
    5: (((2, 3, 5, 9, 13),),
        ((1, 8, 11, 12, 14), (4, 6, 7, 10, 15))),
}


def test_hyperelliptic_labels():
    assert HYP_LABELS == frozenset({2, 3, 5, 9, 13})


def test_echo_tables_by_discriminant_class():
    for D, e in ((8, None), (24, 0), (17, 1), (17, -1), (33, 1),
                 (12, None), (28, 0), (13, -1), (21, -1), (29, None)):
        table = echoes_of_WD(D, e)
        hyp, odd = TABLE2[D % 8]
        assert table.hyp_orbits == hyp, (D, e)
        assert table.odd_orbits == odd, (D, e)
        assert table.echo_count == len(hyp) + len(odd)


def test_spin_parameter_validation():
    with pytest.raises(ValueError):
        echoes_of_WD(7)          # 3 mod 4
    with pytest.raises(ValueError):
        echoes_of_WD(4)          # too small
    with pytest.raises(ValueError):
        echoes_of_WD(8, 1)       # wrong parity
    with pytest.raises(ValueError):
        echoes_of_WD(9, 1)       # e=1 needs b even
    assert echoes_of_WD(9, -1).b == 2


def test_spins_is_the_brute_force_over_prototypes():
    found = {}
    for e in (1, -1, 0, 2, -2, 3, -3):
        for b in range(-10, 1260):
            if is_prototype(b, e):
                found.setdefault(e * e + 4 * b, []).append((b, e))
    for D in range(-20, 5000):
        assert spins(D) == found.get(D, []), D


def test_spin_counts():
    for D in range(-20, 5000):
        assert (len(spins(D)) == 2) == (D % 8 == 1 and D >= 17), D
        assert (spins(D) == []) == (D < 5 or D % 4 in (2, 3) or D == 4), D


def test_square_spins_match_the_hand_list():
    for d in range(3, 300):
        hand = [0] if d % 2 == 0 else ([-1] if d == 3 else [1, -1])
        assert square_spins(d) == [((d * d - e * e) // 4, e) for e in hand], d


def test_default_spin_of_echoes():
    for D in range(5, 3000):
        if D % 4 in (2, 3):
            with pytest.raises(ValueError):
                echoes_of_WD(D)
            continue
        b = (D - 1) // 4
        e = 0 if D % 4 == 0 else (1 if b % 2 == 0 and b > 2 else -1)
        assert echoes_of_WD(D).e == e, D


@settings(max_examples=200, deadline=None)
@given(d=st.integers(-10, 60), e=st.integers(-3, 3), label=st.integers(-2, 18),
       D=st.integers(-20, 3000), b=st.integers(-3, 200),
       gamma=st.lists(st.integers(-2, 3), max_size=6).map(tuple))
@example(d=5, e=1, label=1, D=17, b=6, gamma=(1, 0, 0))
@example(d=5, e=1, label=1, D=17, b=6, gamma=(1, 0, 0, 0, 1))
def test_entry_points_return_or_raise_value_error(d, e, label, D, b, gamma):
    for f, *args in ((echoes_of_WD, D, e), (echoes_of_WD, D, None),
                     (square_spins, d), (primitive_echo_table, d, e),
                     (is_primitive_cover, d, e, label),
                     (primitive_cover_oracle, d, e, label),
                     (primitive_cover_oracle, d, e, gamma),
                     (branched_cover_types, d), (l_origami, b, e)):
        try:
            f(*args)
        except ValueError:
            pass
    if len(gamma) != 4:
        with pytest.raises(ValueError):
            primitive_cover_oracle(d, e, gamma)


@pytest.fixture
def fresh_echo_cache():
    """An empty echo-block cache before and after the test, so that blocks
    cached under a monkeypatched `orbit_partition` stay in the test."""
    classify._echo_blocks.cache_clear()
    yield
    classify._echo_blocks.cache_clear()


def direct_echo_blocks(b, e):
    """The (hyperelliptic, odd) blocks of W_D, D = e^2 + 4b, straight from
    `orbit_partition` under H, V (and X when D = 1 mod 8) mod 2."""
    gens = [tuple(tuple(x % 2 for x in row) for row in M) for M in (mat_H(b, e), mat_V(b, e))]
    if (e * e + 4 * b) % 8 == 1:
        gens.append(mat_X())
    blocks = [tuple(sorted(vector_label(v) for v in part))
              for part in orbit_partition(gens, primitive_vectors(2), 2)]
    return (tuple(sorted(x for x in blocks if x[0] in HYP_LABELS)),
            tuple(sorted(x for x in blocks if x[0] not in HYP_LABELS)))


def test_echo_blocks_are_cached_per_mod2_generator_set(fresh_echo_cache):
    for D in range(5, 3000):
        for b, e in spins(D):
            table = echoes_of_WD(D, e)
            assert (table.hyp_orbits, table.odd_orbits) == direct_echo_blocks(b, e), (D, e)
    assert classify._echo_blocks.cache_info().currsize == 4


def test_primitivity_partitions_once_per_generator_set(monkeypatch, fresh_echo_cache):
    calls = []

    def counting(*args):
        calls.append(args)
        return orbit_partition(*args)

    monkeypatch.setattr(classify, "orbit_partition", counting)
    for label in range(1, 16):
        is_primitive_cover(13, 1, label)
    assert len(calls) == 1


def test_echo_blocks_that_mix_labels_are_refused(monkeypatch, fresh_echo_cache):
    def merged(gens, vectors, mod):
        # join the block of label 2 (hyperelliptic) to that of label 1 (odd)
        parts = orbit_partition(gens, vectors, mod)
        hyp, odd = (next(p for p in parts if label_vector(l) in p) for l in (2, 1))
        return [p for p in parts if p not in (hyp, odd)] + [tuple(sorted(hyp + odd))]

    monkeypatch.setattr(classify, "orbit_partition", merged)
    for D in (8, 12, 13, 17):
        with pytest.raises(InvariantError, match="mix hyperelliptic and odd labels"):
            echoes_of_WD(D)


def test_table_serialization():
    table = echoes_of_WD(8)
    out = table.to_json()
    assert out["D"] == 8 and out["e"] == 0
    assert out["hyp"] == [[2], [3, 5, 9, 13]]
    md = table.to_markdown()
    assert "D = 8" in md and "{3, 5, 9, 13}" in md
    assert isinstance(table, EchoTable)


# expected primitive tables keyed by (d mod 4, (d - e) mod 4)
TABLE3 = {
    (0, 0): (((3, 5, 9, 13),), ((1, 7, 11, 15), (8, 10, 12, 14))),
    (2, 2): (((2, 3, 9, 13),), ((1, 4, 11, 14), (6, 7, 8, 12))),
    (1, 0): (((3, 9, 13),), ((1, 6, 8, 11, 12, 15), (4, 10, 14))),
    (1, 2): (((2, 5), (3, 9, 13)), ((1, 6, 8, 11, 12, 15), (7,))),
}


def test_primitive_tables():
    for d, e in ((4, 0), (8, 0), (6, 0), (10, 0), (5, 1), (9, 1), (13, 1),
                 (5, -1), (7, -1), (7, 1), (11, 1), (3, -1)):
        key = (d % 4 if d % 2 == 0 else 1, (d - e) % 4)
        expected_hyp, expected_odd = TABLE3[key]
        table = primitive_echo_table(d, e)
        assert table.hyp_orbits == expected_hyp, (d, e)
        assert table.odd_orbits == expected_odd, (d, e)


def test_primitivity_against_lattice_oracle():
    for d, e in ((3, -1), (4, 0), (5, 1), (5, -1), (6, 0), (7, 1), (7, -1),
                 (8, 0), (9, 1), (9, -1), (10, 0), (11, 1), (11, -1), (12, 0)):
        for label in range(1, 16):
            assert is_primitive_cover(d, e, label) == \
                primitive_cover_oracle(d, e, label), (d, e, label)


def test_primitivity_validation():
    with pytest.raises(ValueError):
        is_primitive_cover(4, 1, 1)    # even d needs e = 0
    with pytest.raises(ValueError):
        is_primitive_cover(5, 0, 1)    # odd d needs e = +-1
    with pytest.raises(ValueError):
        is_primitive_cover(4, 0, 0)
    with pytest.raises(ValueError):
        primitive_cover_oracle(4, 0, (0, 0, 0, 0))


def test_branched_cover_types():
    # even d: 3 types; d = 3: 4; odd d >= 5: depends on the two spins
    assert branched_cover_types(4) == 3
    assert branched_cover_types(6) == 3
    assert branched_cover_types(3) == 3       # only the e = -1 spin exists
    assert branched_cover_types(5) == 3 + 4   # keys (1, 0) and (1, 2)
    assert branched_cover_types(7) == 4 + 3
    with pytest.raises(ValueError):
        branched_cover_types(2)
    assert square_spins(3) == [(2, -1)]
    assert square_spins(4) == [(4, 0)]
    assert square_spins(5) == [(6, 1), (6, -1)]


def test_count_formulas():
    assert count_formulas(3) == (3, None)
    assert count_formulas(5) == (18, 9)
    assert count_formulas(7) == (54, 36)
    assert count_formulas(9) == (108, 81)
    assert count_formulas(11) == (225, 180)
    with pytest.raises(ValueError):
        count_formulas(4)


def test_sts_census_small():
    for n, expected in ((3, 5), (4, 5), (5, 10)):
        census = verify_sts_orbits(n)
        assert census["ok"]
        assert census["orbit_count"] == expected
        for spin in census["spins"]:
            for orbit in spin["orbits"]:
                assert (orbit["arf"] == 0) == (orbit["labels"][0] in HYP_LABELS)
                if orbit["translation_order"] == 2:
                    assert orbit["size_matches_product"]


def test_sts_orbit_sizes_five():
    census = verify_sts_orbits(5)
    by_spin = {s["e"]: sorted(o["size"] for o in s["orbits"]) for s in census["spins"]}
    # base orbit 18 for e = 1 (d - e divisible by 4), 9 for e = -1
    assert by_spin[1] == [18, 36, 54, 54, 108]
    assert by_spin[-1] == [9, 18, 27, 27, 54]


def test_census_runs_no_frame_push(monkeypatch):
    # the census reads the mod-2 action off the Weierstrass points; the F_2
    # frames of affine_action_mod2 are only the reference, which classify
    # does not import
    import flatcover.acceptance
    import flatcover.covers
    calls = []
    frames = flatcover.covers.affine_action_mod2

    def counted(o, basis):
        calls.append(o)
        return frames(o, basis)

    assert not hasattr(classify, "affine_action_mod2")
    for module in (flatcover.covers, flatcover.acceptance):
        monkeypatch.setattr(module, "affine_action_mod2", counted)
    census = verify_sts_orbits(7)
    assert census["ok"] and calls == []
    spin = census["spins"][0]
    base = l_origami(spin["b"], spin["e"])
    matrices = flatcover.acceptance.affine_action_mod2(base.origami, list(base.basis))[1]
    assert len(calls) == 1
    blocks = classify._mod2_label_blocks(set(matrices))
    assert set(blocks) == {tuple(o["labels"]) for o in spin["orbits"]}


def test_census_derives_the_hyperelliptic_labels(monkeypatch):
    # the labels whose duads hold the zero must be the literal HYP_LABELS
    monkeypatch.setattr(classify, "HYP_LABELS", frozenset({2, 3, 5, 9, 14}))
    with pytest.raises(InvariantError, match="whose duads hold the zero"):
        verify_sts_orbits(5)


def test_sts_cap():
    with pytest.raises(ValueError):
        verify_sts_orbits(32)


def test_sts_census_thirteen():
    census = verify_sts_orbits(13)
    assert census["ok"] and census["orbit_count"] == 10
    assert count_formulas(13) == (378, 315)
    assert sorted(s["base_orbit_size"] for s in census["spins"]) == [315, 378]
    for spin in census["spins"]:
        assert spin["base_orbit_size"] == spin["expected_base_size"]
        for orbit in spin["orbits"]:
            assert orbit["size_matches_product"]
            assert orbit["size"] == spin["base_orbit_size"] * orbit["block_size"]


def reference_census(n):
    """The direct census: the orbit of each double cover's 2n-square lift by
    breadth-first enumeration of its canonical forms, labels grouped by
    lifted orbit.  Per spin, the sorted (size, labels, arf, translation
    order) of its orbits."""
    out = []
    for b, e in square_spins(n):
        base = l_origami(b, e)
        basis = list(base.basis)
        seeds = sorted((cover_label(basis, c)[1], c.lift())
                       for c in all_double_covers(base.origami, basis))
        orbit_of = {}
        orbits = []
        for label, lift in seeds:
            o = orbit_of.get(lift.canonical_form())
            if o is not None:
                o["labels"].append(label)
                o["arfs"].add(lift.arf_invariant())
                continue
            members = lift.sl2z_orbit_forms()
            o = {"labels": [label], "size": len(members),
                 "arfs": {lift.arf_invariant()},
                 "translation_order": len(lift.translations())}
            orbit_of.update(dict.fromkeys(members, o))
            orbits.append(o)
        out.append(sorted((o["size"], o["labels"], o["arfs"].pop(), o["translation_order"])
                          for o in orbits))
    return out


@pytest.mark.parametrize("n", range(3, 10))
def test_census_matches_direct_enumeration(n):
    census = verify_sts_orbits(n)
    got = [sorted((o["size"], o["labels"], o["arf"], o["translation_order"])
                  for o in spin["orbits"]) for spin in census["spins"]]
    assert got == reference_census(n)


def test_census_computes_no_canonical_form_of_a_lift(monkeypatch):
    calls = Counter()
    canonical_pair = origami._canonical_pair

    def counting(h, v, orbits=None):
        calls[len(h)] += 1
        return canonical_pair(h, v, orbits)

    monkeypatch.setattr(origami, "_canonical_pair", counting)
    verify_sts_orbits(7)
    assert calls[7] > 0
    assert calls[14] == 0, calls


def test_census_json_roundtrip():
    census = verify_sts_orbits(3)
    out = json.loads(census_to_json(census))
    assert out["n"] == 3 and out["ok"]
