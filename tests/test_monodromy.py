import random
import time
import tracemalloc
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import flatcover.monodromy
from flatcover.lshape import multitwist_matrix
from flatcover.monodromy import (ClosureCapExceeded, IDENTITY4, J4, VectorBlocks, commutes,
                                 constrained_subgroup,
                                 decagon_cyclic_echo_count,
                                 eigenbasis_checks,
                                 group_closure, is_symplectic, label_vector,
                                 mat_H, mat_T, mat_V, mat_X, mat_det,
                                 mat_mod, mat_mul, mat_pow,
                                 mat_vec, orbit_labels, orbit_partition,
                                 primitive_vector_count,
                                 primitive_vectors,
                                 rho_R, rho_T, self_adjoint, sp4_f2,
                                 vector_label, verify_decagon_periods)

PARAMS = [(2, 0), (4, 1), (3, 0), (3, -1), (6, 1), (13, 1)]


# -- matrix helpers ----------------------------------------------------------

def test_mat_det():
    for b, e in PARAMS:
        for M in (mat_H(b, e), mat_V(b, e)):
            assert mat_det(M) == 1


def test_mat_pow():
    R = rho_R()
    assert mat_pow(R, 0) == IDENTITY4
    assert mat_pow(R, 10) == IDENTITY4
    assert mat_pow(R, 7, mod=5) == mat_mod(mat_pow(R, 7), 5)
    with pytest.raises(ValueError):
        mat_pow(R, -3)


def reference_mat_mul(A, B, mod=0):
    """The triple loop over i, j, k."""
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            x = sum(A[i][k] * B[k][j] for k in range(4))
            row.append(x % mod if mod else x)
        rows.append(tuple(row))
    return tuple(rows)


def test_mat_mul_matches_reference():
    rng = random.Random(15)
    for mod in (0, 2, 3, 4, 5, 6, 7):
        for _ in range(50):
            A, B = (tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4))
                    for _ in range(2))
            got = mat_mul(A, B, mod)
            assert got == reference_mat_mul(A, B, mod)
            assert type(got) is tuple and all(type(row) is tuple for row in got)
            if mod:
                assert all(0 <= x < mod for row in got for x in row)
    assert mat_mul(rho_R(), rho_T()) == reference_mat_mul(rho_R(), rho_T())



def test_mat_vec_matches_reference():
    rng = random.Random(16)
    for mod in (0, 2, 3, 4, 5, 6, 7):
        for _ in range(50):
            A = tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4))
            v = tuple(rng.randint(-9, 9) for _ in range(4))
            want = []
            for i in range(4):
                x = 0
                for k in range(4):
                    x += A[i][k] * v[k]
                want.append(x % mod if mod else x)
            got = mat_vec(A, v, mod)
            assert got == tuple(want) and type(got) is tuple
            assert mat_vec(A, list(v), mod) == got

# -- generator identities ----------------------------------------------------

def test_generators_are_symplectic():
    for b, e in PARAMS:
        for M in (mat_H(b, e), mat_V(b, e)):
            assert is_symplectic(M)
    assert is_symplectic(mat_X(), mod=2)
    assert is_symplectic(rho_R())
    assert is_symplectic(rho_T())


def test_T_is_self_adjoint_with_correct_minimal_polynomial():
    for b, e in PARAMS:
        T = mat_T(b, e)
        assert self_adjoint(T)
        lhs = mat_mul(T, T)
        rhs = tuple(tuple(e * T[i][j] + (b if i == j else 0) for j in range(4))
                    for i in range(4))
        assert lhs == rhs  # T^2 = eT + b
        assert commutes(T, mat_H(b, e), 2) and commutes(T, mat_V(b, e), 2)


def test_rho_R_order():
    R = rho_R()
    minus = tuple(tuple(-x for x in row) for row in IDENTITY4)
    assert mat_pow(R, 5) == minus
    assert mat_pow(R, 10) == IDENTITY4


# -- closures mod m ----------------------------------------------------------

#: |<H, V (, X)>| mod 2 for each discriminant class mod 8
MOD2_ORDERS = {0: 8, 1: 12, 4: 8, 5: 10}
REPS = {0: (2, 0), 1: (4, 1), 4: (3, 0), 5: (3, -1)}


def test_mod2_closure_orders():
    for cls, (b, e) in REPS.items():
        gens = [mat_H(b, e), mat_V(b, e)]
        assert len(group_closure(gens, 2)) == (6 if cls == 1 else MOD2_ORDERS[cls])
        if cls == 1:
            gens.append(mat_X())
        assert len(group_closure(gens, 2)) == MOD2_ORDERS[cls]


def test_closure_order_divides_sp4():
    # |Sp(4, Z/2)| = 720, |Sp(4, Z/3)| = 51840
    for b, e in ((2, 0), (4, 1), (3, -1)):
        gens = [mat_H(b, e), mat_V(b, e)]
        assert 720 % len(group_closure(gens, 2)) == 0
        assert 51840 % len(group_closure(gens, 3)) == 0


def test_closure_errors():
    with pytest.raises(ValueError):
        group_closure([IDENTITY4], 1)
    with pytest.raises(ValueError):
        # maps a1 to a1 + a2 with everything else fixed: not symplectic
        group_closure([((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1))], 2)
    with pytest.raises(ClosureCapExceeded):
        group_closure([mat_H(2, 0), mat_V(2, 0)], 2, cap=3)
    for gens in ([], [mat_H(2, 0)]):
        with pytest.raises(ValueError):
            group_closure(gens, 2, cap=0)


def reference_closure(gens, mod, cap=10 ** 5):
    """The plain BFS over products A g with `mat_mul`."""
    gens = [mat_mod(g, mod) for g in gens]
    seen = {mat_mod(IDENTITY4, mod)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for A in frontier:
            for g in gens:
                B = mat_mul(A, g, mod)
                if B not in seen:
                    seen.add(B)
                    if len(seen) > cap:
                        raise ClosureCapExceeded(f"closure exceeds cap {cap}")
                    nxt.append(B)
        frontier = nxt
    return frozenset(seen)


def reference_partition(gens, vectors, mod):
    """Union-find over v -- M v with `mat_vec`, components sorted by least
    element.  Union by size and path halving keep the trees shallow."""
    vecs = [tuple(x % mod for x in v) for v in vectors]
    index = {v: i for i, v in enumerate(vecs)}
    parent = list(range(len(vecs)))
    size = [1] * len(vecs)

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for v in vecs:
        for g in gens:
            w = mat_vec(g, v, mod)
            a, b = find(index[v]), find(index[w])
            if a != b:
                if size[a] > size[b]:
                    a, b = b, a
                parent[a] = b
                size[b] += size[a]
    comps = {}
    for i, v in enumerate(vecs):
        comps.setdefault(find(i), []).append(v)
    return sorted((tuple(sorted(c)) for c in comps.values()), key=lambda c: c[0])


def test_closure_matches_reference():
    for m in (2, 3, 4, 5, 6):
        for b, e in PARAMS:
            # b > m: the generators enter unreduced
            for gens in ([mat_H(b, e), mat_V(b, e)], [mat_V(b, e)]):
                assert group_closure(gens, m) == reference_closure(gens, m)
        assert group_closure([rho_R(), rho_T()], m) == reference_closure([rho_R(), rho_T()], m)
        assert group_closure([], m) == reference_closure([], m) == {mat_mod(IDENTITY4, m)}


def test_closure_cap_is_exact():
    gens = [mat_H(3, -1), mat_V(3, -1)]
    order = len(reference_closure(gens, 3))
    assert len(group_closure(gens, 3, cap=order)) == order
    with pytest.raises(ClosureCapExceeded):
        group_closure(gens, 3, cap=order - 1)
    assert group_closure([], 2, cap=1) == {mat_mod(IDENTITY4, 2)}


def test_closure_cap_fails_fast_for_large_moduli():
    # the row orbit passes 4 * cap long before the element BFS would
    for m in (31, 101):
        start = time.perf_counter()
        with pytest.raises(ClosureCapExceeded):
            group_closure([mat_H(2, 0), mat_V(2, 0)], m, cap=1000)
        assert time.perf_counter() - start < 1
    # one long row orbit (1, k, 0, 0), and the cyclic group it carries
    shear = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert len(group_closure([shear], 1000)) == 1000


def test_partition_matches_reference():
    # 10 to 13 pack wider code fields than n <= 9
    for n in range(1, 14):
        vectors = primitive_vectors(n)
        # H(3, -1) has an entry above n = 2, rho(R), rho(T) negative entries
        for gens in ([mat_H(3, -1), mat_V(3, -1)], [rho_R(), rho_T()]):
            assert orbit_partition(gens, vectors, n) == reference_partition(gens, vectors, n)
    for m in (2, 3, 4, 5):
        everything = VectorBlocks(m, ((range(m),) * 4,))
        for b, e in PARAMS:
            gens = [mat_H(b, e), mat_V(b, e)]
            got = orbit_partition(gens, everything, m)
            assert got == reference_partition(gens, product(range(m), repeat=4), m)
    vectors = primitive_vectors(4)
    assert orbit_partition([], vectors, 4) == reference_partition([], vectors, 4)
    assert len(orbit_partition([], vectors, 4)) == len(vectors)


def test_partition_rejects_modulus_below_one():
    for mod in (0, -3):
        with pytest.raises(ValueError, match="modulus must be at least 1"):
            orbit_partition([rho_R(), rho_T()], VectorBlocks(mod, ()), mod)
    # (Z/1)^4 is one vector, one component
    everything = VectorBlocks(1, ((range(1),) * 4,))
    assert orbit_partition([rho_R(), rho_T()], everything, 1) == [((0, 0, 0, 0),)]


def test_partition_peak_memory():
    # the bench keeps every pass's outputs, so a pipeline whose own peak grows
    # shows as a larger peak RSS however fast it is; building the vectors in
    # the output pass must cost less than building them as input did (2.1 MB)
    gens = [rho_R(), rho_T()]
    tracemalloc.start()
    try:
        parts = orbit_partition(gens, primitive_vectors(12), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parts) == 3
    assert peak < 2.0e6, \
        f"the partition of primitive_vectors(12) peaked at {peak / 1e6:.2f} MB"


def test_sp4_f2_and_transvections():
    G = sp4_f2()
    assert len(G) == 720
    assert sp4_f2() is G        # built once per process
    for v in ((1, 0, 0, 0), (1, 1, 1, 0)):
        T = multitwist_matrix([(v, 1)])
        assert is_symplectic(T)
        M = mat_mod(T, 2)
        assert M in G
        assert mat_mul(M, M, 2) == mat_mod(IDENTITY4, 2)
    assert J4 == ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


HYP = (2, 3, 5, 9, 13)


def test_constrained_subgroup_matches_monodromy():
    for cls, (b, e) in REPS.items():
        gens = [mat_H(b, e), mat_V(b, e)]
        if cls == 1:
            gens.append(mat_X())
        closure = group_closure(gens, 2)
        constrained = constrained_subgroup(mat_T(b, e), HYP)
        assert closure == constrained


# -- labels and orbits -------------------------------------------------------

@given(st.integers(1, 15))
def test_label_vector_roundtrip(label):
    assert vector_label(label_vector(label)) == label


def test_label_vector_range():
    with pytest.raises(ValueError):
        label_vector(0)
    with pytest.raises(ValueError):
        label_vector(16)


def test_orbit_partition_basics():
    vectors = primitive_vectors(2)
    parts = orbit_partition([mat_mod(IDENTITY4, 2)], vectors, 2)
    assert len(parts) == 15
    parts = orbit_partition([mat_mod(g, 2) for g in sp4_f2()], vectors, 2)
    assert len(parts) == 1
    # labels 1, 2, 3: V(2, 0) takes (1, 0, 0, 0) to (1, 1, 0, 1)
    first_three = VectorBlocks(2, (((0,), (1,), (0,), (0,)), ((1,), (0,), (0,), (0,)),
                                   ((1,), (1,), (0,), (0,))))
    assert sorted(first_three) == sorted(label_vector(l) for l in (1, 2, 3))
    with pytest.raises(ValueError, match="not closed under the generators"):
        orbit_partition([mat_mod(mat_V(2, 0), 2)], first_three, 2)


def test_decagon_orbits_mod2():
    gens = [mat_mod(rho_R(), 2), mat_mod(rho_T(), 2)]
    parts = orbit_partition(gens, primitive_vectors(2), 2)
    assert [len(p) for p in parts] == [5, 5, 5]


def test_orbit_partition_reads_only_vector_blocks_of_its_modulus():
    gens = [mat_mod(rho_R(), 2), mat_mod(rho_T(), 2)]
    vectors = [label_vector(l) for l in range(1, 16)]
    for other in (vectors, (v for v in vectors)):
        with pytest.raises(ValueError, match="VectorBlocks of modulus 2"):
            orbit_partition(gens, other, 2)
    with pytest.raises(ValueError, match="VectorBlocks of modulus 3"):
        orbit_partition([rho_R(), rho_T()], primitive_vectors(6), 3)


def test_orbit_partition_rejects_residues_outside_the_modulus():
    gens = [mat_H(4, 0), mat_V(4, 0)]
    full = (0, 1, 2)
    for block in [((5,), (0,), (0,), full),     # a first factor past the end
                  ((0,), (0,), (0,), (0, 1, 5)),  # a last factor past the end
                  ((0,), (-1,), (0,), full),      # a negative residue
                  ((0,), (0,), (0,), (-1, 0))]:
        with pytest.raises(ValueError, match=r"outside range\(3\)"):
            orbit_partition(gens, VectorBlocks(3, (block,)), 3)


def test_primitive_vectors():
    assert len(primitive_vectors(2)) == 15
    assert len(primitive_vectors(3)) == 80
    assert all(v != (0, 0, 0, 0) for v in primitive_vectors(2))


@pytest.mark.parametrize("n", [*range(1, 13), 15, 18, 20])
def test_primitive_vectors_match_brute_force(n):
    vectors = primitive_vectors(n)
    brute = [v for v in product(range(n), repeat=4) if gcd(*v, n) == 1]
    assert len(vectors) == len(brute) == primitive_vector_count(n)
    assert list(vectors) == brute
    # read-only: no item, block or modulus can change
    with pytest.raises(TypeError):
        vectors[0] = (1, 0, 0, 0)
    with pytest.raises(TypeError):
        del vectors[0]
    with pytest.raises(AttributeError):
        vectors.n = n + 1
    with pytest.raises(AttributeError):
        vectors.append((1, 0, 0, 0))
    with pytest.raises(TypeError):
        vectors.blocks[0] = vectors.blocks[-1]
    assert list(vectors) == brute


def test_one_block_is_all_of_the_module():
    for n in (1, 2, 3, 5):
        everything = VectorBlocks(n, ((range(n),) * 4,))
        brute = list(product(range(n), repeat=4))
        assert len(everything) == n ** 4 and list(everything) == brute
        gens = [mat_H(4, 0), mat_V(4, 0)]
        assert orbit_partition(gens, everything, n) == reference_partition(gens, brute, n)
    # blocks that meet, in a vector or in a row of codes, are no set of rows
    gens = [mat_H(4, 0), mat_V(4, 0)]
    for blocks in [(((0,), (0,), (0,), (1, 2)), ((0,), (0,), (0,), (2,))),
                   (((0,), (0,), (0,), (1,)), ((0,), (0,), (0,), (2,))),
                   (((1,), (0,), (0,), (1, 1)),)]:
        with pytest.raises(ValueError, match="repeat a vector or share a row"):
            orbit_partition(gens, VectorBlocks(3, blocks), 3)


def test_decagon_echo_counts():
    # N(n) for n = 2..15 (Table 1), and beyond it for n = 16..20
    expected = [3, 1, 3, 8, 3, 1, 3, 1, 24, 3, 3, 1, 3, 8, 3, 1, 3, 3, 24]
    N = {n: decagon_cyclic_echo_count(n) for n in range(2, 21)}
    assert [N[n] for n in range(2, 21)] == expected
    # N is multiplicative over coprime moduli
    for m in range(2, 21):
        for n in range(m + 1, 20 // m + 1):
            if gcd(m, n) == 1:
                assert N[m * n] == N[m] * N[n], (m, n)
    with pytest.raises(ValueError):
        decagon_cyclic_echo_count(1)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 9])
def test_orbit_labels_are_the_partition_unbuilt(n, monkeypatch):
    # label[c] is the component of the vector with code c, numbered in
    # order of least element, -2 off the vectors; the decagon count reads
    # the number of labels and builds no component
    gens = [mat_mod(rho_R(), n), mat_mod(rho_T(), n)]
    label, count = orbit_labels(gens, primitive_vectors(n), n)
    parts = orbit_partition(gens, primitive_vectors(n), n)
    assert count == len(parts)
    want = [-2] * n ** 4
    for k, part in enumerate(parts):
        for x0, x1, x2, x3 in part:
            want[((x0 * n + x1) * n + x2) * n + x3] = k
    assert label == want

    def refuse(*args):
        raise AssertionError("the decagon count built the components")

    monkeypatch.setattr(flatcover.monodromy, "orbit_partition", refuse)
    assert decagon_cyclic_echo_count(n) == count


# -- exact decagon periods ---------------------------------------------------

def test_decagon_period_verification():
    report = verify_decagon_periods()
    assert report["ok"], report["failures"]
    assert report["rank"] == 4
    assert report["identities_checked"] == 8


# -- eigenbasis of the real-multiplication generator -------------------------

def test_eigenbasis_structural_checks():
    for b, n in ((4, 3), (9, 5), (4, 9)):
        r = eigenbasis_checks(b, n)
        assert r["det_is_4b"]
        assert r["eigenvectors_ok"]
        assert r["blocks_diagonal"]
        assert r["invariant_constant"]
        assert r["invariant_complete"]
        assert r["family_orbit_count"] == r["partition_class_count"]
        assert r["ok"]


def test_eigenbasis_orbit_count_shortfall():
    # the separating invariant gcd(x, n) yields one class per divisor of n,
    # so the family orbit count is at most d(n); for n = 3 that still meets
    # phi(3) = 2, but for n = 5 it falls short of phi(5) = 4
    ok_case = eigenbasis_checks(4, 3)
    assert ok_case["family_orbit_count"] == 2 == ok_case["phi_n"]
    assert ok_case["phi_bound_met"]
    short = eigenbasis_checks(4, 5)
    assert short["family_orbit_count"] == 2 < short["phi_n"] == 4
    assert not short["phi_bound_met"]
    assert short["ok"]   # the reference bound is reported, not required


def test_eigenbasis_validation():
    with pytest.raises(ValueError):
        eigenbasis_checks(5, 3)   # b not a square
    with pytest.raises(ValueError):
        eigenbasis_checks(4, 4)   # n even
    with pytest.raises(ValueError):
        eigenbasis_checks(9, 9)   # n not coprime to b
    r = 10 ** 20 + 12345
    for b in (r * r + 1, -4, 0, 1):
        with pytest.raises(ValueError, match="b must be a perfect square"):
            eigenbasis_checks(b, 3)
    # float square roots miss the first square and overflow on the second
    assert eigenbasis_checks(r * r, 3)["b_sqrt"] == r
    assert eigenbasis_checks(10 ** 400, 3)["b_sqrt"] == 10 ** 200


def test_eigenbasis_blocks_catch_a_generator_off_the_eigenspaces(monkeypatch):
    # X does not keep T's eigenspaces, so neither projection vanishes on it
    monkeypatch.setattr(flatcover.monodromy, "mat_V", lambda b, e=0: mat_X())
    for b, n in ((4, 3), (9, 5)):
        r = eigenbasis_checks(b, n)
        assert r["eigenvectors_ok"]
        assert not r["blocks_diagonal"]
        assert not r["ok"]
