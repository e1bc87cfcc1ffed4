"""Self-contained verification suite: every documented headline result is
checked here, one criterion per function.  Shared by the `verify` CLI
subcommand and the test suite.

Each check returns (ok, detail).  `fast=True` restricts the expensive sweeps
to n <= 7 and discriminants <= 17.
"""
from __future__ import annotations

from .classify import (HYP_LABELS, branched_cover_types, count_formulas,
                       echoes_of_WD, frame_label_blocks, is_primitive_cover,
                       primitive_cover_oracle, primitive_echo_table, square_spins,
                       verify_sts_orbits)
from .covers import all_double_covers, cover_label
from .lshape import (IDENTITY4, modulus_ratio, rational, vertical_twist_matrix,
                     horizontal_twist_matrix)
from .monodromy import (constrained_subgroup, decagon_cyclic_echo_count,
                        group_closure, is_symplectic, commutes, self_adjoint,
                        mat_H, mat_T, mat_V, mat_X, mat_mod, mat_mul, mat_pow,
                        mat_vec, orbit_partition,
                        primitive_vectors, rho_R, rho_T, sp4_f2,
                        verify_decagon_periods, eigenbasis_checks)
from .origami import Origami, _tree_cycles, act_generator, l_origami, winding_index
from .perms import Permutation, parse_cycles

TABLE1 = (3, 1, 3, 8, 3, 1, 3, 1, 24, 3, 3, 1, 3, 8)  # N(n) for n = 2..15


def check_table1(fast: bool = False):
    top = 7 if fast else 15
    got = tuple(decagon_cyclic_echo_count(n) for n in range(2, top + 1))
    want = TABLE1[: top - 1]
    return got == want, f"N(2..{top}) = {got}" + ("" if got == want else f", expected {want}")


def check_decagon_mod2(fast: bool = False):
    R, T = mat_mod(rho_R(), 2), mat_mod(rho_T(), 2)
    G = group_closure([R, T], 2)
    k, P = 1, R   # k is the order of R
    while P != IDENTITY4:
        k, P = k + 1, mat_mul(P, R, 2)
    # the presentation of D_k, of order 2k: R^k = T^2 = 1 and T R T = R^-1
    if not (mat_mul(T, T, 2) == IDENTITY4 and len(G) == 2 * k
            and mat_mul(mat_mul(T, R, 2), T, 2) == mat_pow(R, k - 1, 2)):
        k = None
    parts = orbit_partition([R, T], primitive_vectors(2), 2)
    ok = len(G) == 10 and k == 5 and len(parts) == 3 and all(len(p) == 5 for p in parts)
    return ok, (f"order {len(G)} (want 10), dihedral k={k} (want 5), "
                f"orbit sizes {sorted(len(p) for p in parts)} (want [5,5,5])")


def check_decagon_periods(fast: bool = False):
    rep = verify_decagon_periods()
    return rep["ok"], (f"8 period identities, rank {rep['rank']}"
                       + (f", failures {rep['failures']}" if rep["failures"] else ""))


_REPRESENTATIVES = {0: (2, 0), 1: (4, 1), 4: (3, 0), 5: (3, -1)}


def check_group_orders(fast: bool = False):
    details = []
    ok = True
    expected = {0: 8, 1: 12, 4: 8, 5: 10}
    for cls, (b, e) in sorted(_REPRESENTATIVES.items()):
        gens = [mat_H(b, e), mat_V(b, e)]
        if cls == 1:
            hv = len(group_closure(gens, 2))
            ok &= hv == 6
            details.append(f"D=1 mod 8 <H,V>: {hv} (want 6)")
            gens.append(mat_X())
        order = len(group_closure(gens, 2))
        sub = len(constrained_subgroup(mat_T(b, e), HYP_LABELS))
        ok &= order == expected[cls] and sub == expected[cls]
        details.append(f"D={cls} mod 8: order {order}, constrained {sub} "
                       f"(want {expected[cls]})")
    n720 = len(sp4_f2())
    ok &= n720 == 720
    details.append(f"|Sp(4,F2)| = {n720} (want 720)")
    return ok, "; ".join(details)


#: Table 2 as exact partitions, keyed by D mod 8
TABLE2 = {
    0: (((2,), (3, 5, 9, 13)), ((1, 7, 11, 15), (4, 6), (8, 10, 12, 14))),
    1: (((2, 5), (3, 9, 13)), ((1, 6, 8, 11, 12, 15), (4, 10, 14), (7,))),
    4: (((2, 3, 9, 13), (5,)), ((1, 4, 11, 14), (6, 7, 8, 12), (10, 15))),
    5: (((2, 3, 5, 9, 13),), ((1, 8, 11, 12, 14), (4, 6, 7, 10, 15))),
}

_TABLE2_PARAMS = {
    0: [(8, 0), (24, 0)],
    1: [(17, 1), (17, -1)],
    4: [(12, 0), (28, 0)],
    5: [(13, -1), (21, -1)],
}


def check_table2(fast: bool = False):
    ok = True
    details = []
    for cls, params in sorted(_TABLE2_PARAMS.items()):
        if fast:
            params = [(D, e) for D, e in params if D <= 17] or params[:1]
        for D, e in params:
            t = echoes_of_WD(D, e)
            hyp_want, odd_want = TABLE2[cls]
            want_count = 3 if cls == 5 else 5
            good = (t.hyp_orbits == hyp_want and t.odd_orbits == odd_want
                    and t.echo_count == want_count)
            ok &= good
            details.append(f"D={D},e={e}: {'match' if good else 'MISMATCH ' + str(t.to_json())}")
    return ok, "; ".join(details)


def check_matrix_identities(fast: bool = False):
    top = 8 if fast else 20
    for b in range(1, top + 1):
        for e in (-1, 0, 1):
            T, H, V = mat_T(b, e), mat_H(b, e), mat_V(b, e)
            eTbI = tuple(tuple(e * T[i][j] + (b if i == j else 0)
                               for j in range(4)) for i in range(4))
            if mat_pow(T, 2) != eTbI:
                return False, f"T^2 != eT + bI at (b,e)=({b},{e})"
            if not self_adjoint(T):
                return False, f"T not self-adjoint at (b,e)=({b},{e})"
            if not (is_symplectic(H) and is_symplectic(V)):
                return False, f"H or V not symplectic at (b,e)=({b},{e})"
            if not (commutes(H, T) and commutes(V, T)):
                return False, f"H or V does not commute with T at (b,e)=({b},{e})"
    return True, f"T^2 = eT + bI, self-adjointness, symplecticity, commutation for b <= {top}"


def check_multitwists(fast: bool = False):
    cases = [(6, 1), (6, -1), (2, -1), (4, 0), (8, 1), (12, 0)]
    for b, e in cases:
        if horizontal_twist_matrix(b, e) != mat_H(b, e):
            return False, f"H not reproduced at (b,e)=({b},{e})"
        V = vertical_twist_matrix(b, e)
        if V != mat_V(b, e):
            return False, f"V not reproduced at (b,e)=({b},{e})"
        if mat_vec(V, (-1, 0, 1, 0)) != (-1, 0, 1, b - e - 1):
            return False, f"V image of (-1,0,1,0) wrong at (b,e)=({b},{e})"
        if modulus_ratio("vertical", b, e) != rational(b - e - 1, b, e):
            return False, f"vertical ratio wrong at (b,e)=({b},{e})"
    if modulus_ratio("slope_2_b", 10, 1).as_fraction() != 1:
        return False, "slope 2/b ratio wrong at (10,1)"
    if modulus_ratio("curly_slope", 8, 1).as_fraction() != 2:
        return False, "curly slope ratio wrong at (8,1)"
    return True, "H, V, and the three ratio families reproduced exactly"


def check_veech_lemma(fast: bool = False):
    n = 5
    alpha = parse_cycles("(1,2)", n)
    beta = parse_cycles("(2,3,4,5)", n)

    def lrl_pairs(a, b):
        # L, R^3, L; products read left to right ("a b^-1" applies a first):
        # gamma = a b^-1, delta = b gamma^-3, eps = gamma delta^-1
        h, v = act_generator(a.images, b.images, "L")
        gamma = Permutation(h)
        for _ in range(3):
            h, v = act_generator(h, v, "R")
        return gamma, Permutation(v), Permutation(act_generator(h, v, "L")[0])

    gamma, delta, eps = lrl_pairs(alpha, beta)
    if (gamma != parse_cycles("(1,5,4,3,2)", n)
            or delta != parse_cycles("(1,4,3,2)", n)
            or eps != parse_cycles("(1,5)", n)):
        return False, "intermediate permutations differ from the published ones"
    g = parse_cycles("(1,2,5)(3,4)", n)
    if eps.conjugate(g) != alpha or delta.conjugate(g) != beta:
        return False, "(eps, delta) not conjugate to (alpha, beta) by (1 2 5)(3 4)"

    M = ((4, 3), (5, 4))  # L R^3 L
    base = Origami(alpha, beta)
    if not base.veech_contains(M):
        return False, "M = LR^3L not in the Veech group of the 5-square base"

    ap = parse_cycles("(1,2)(6,7)(3,8)(4,9)(5,10)", 10)
    bp = parse_cycles("(2,3,4,5)(7,8,9,10)", 10)
    gp, dp, ep = lrl_pairs(ap, bp)
    if (ep != parse_cycles("(1,10)(5,6)", 10)
            or dp != parse_cycles("(1,4,8,2)(3,7,6,9)(5,10)", 10)):
        return False, "lifted (eps', delta') differ from the published ones"
    lift = Origami(ap, bp)
    if lift.veech_contains(M):
        return False, "M unexpectedly in the Veech group of the lift"
    return True, ("LR^3L = [[4,3],[5,4]] fixes the base but not its cover; "
                  "all intermediate permutation pairs match")


def check_covers(fast: bool = False):
    bases = [(6, 1), (6, -1), (4, 0), (2, -1)]
    details = []
    for b, e in bases:
        base = l_origami(b, e)
        covers = all_double_covers(base.origami, list(base.basis))
        if len(covers) != 15:
            return False, f"{len(covers)} covers at (b,e)=({b},{e}), want 15"
        big = 0
        for c in covers:
            lift = c.lift()
            if str(lift.stratum()) != "H(2,2)":
                return False, f"lift not in H(2,2) at (b,e)=({b},{e})"
            if not lift.is_reduced():
                return False, f"lift not reduced at (b,e)=({b},{e})"
            t = len(lift.translations())
            if t != 2:
                big += 1
                if (b, e) != (2, -1) or t != 6:
                    return False, f"translation order {t} at (b,e)=({b},{e})"
        if (b, e) == (2, -1) and big != 1:
            return False, f"expected exactly one special cover of the 3-square base, got {big}"
        details.append(f"({b},{e}): 15 covers ok")
    return True, "; ".join(details)


def check_arf_split(fast: bool = False):
    top = 4 if fast else 11
    for d in range(3, top + 1):
        for b, e in square_spins(d):
            base = l_origami(b, e)
            basis = list(base.basis)
            arf0 = set()
            for c in all_double_covers(base.origami, basis):
                _, label = cover_label(basis, c)
                if c.lift().arf_invariant() == 0:
                    arf0.add(label)
            if arf0 != set(HYP_LABELS):
                return False, f"Arf-0 labels {sorted(arf0)} at (d,e)=({d},{e})"

    # the published pair of 10-square covers: hyperelliptic on the right,
    # odd on the left
    base = l_origami(6, 1)
    basis = list(base.basis)
    covers = {cover_label(basis, c)[1]: c for c in all_double_covers(base.origami, basis)}
    right = Origami(parse_cycles("(1,2)(6,7)(3,8)(4,9)(5,10)", 10),
                    parse_cycles("(2,3,4,5)(7,8,9,10)", 10))
    lift2 = covers[2].lift()
    if lift2.canonical_form() != right.canonical_form():
        return False, "label-2 lift differs from the published right-hand surface"
    if lift2.arf_invariant() != 0:
        return False, "right-hand surface should have Arf 0"
    lift1 = covers[1].lift()
    if lift1.arf_invariant() != 1:
        return False, "odd cover should have Arf 1"
    # the winding numbers behind q, read off the tree, against the turns of
    # each fundamental cycle's taxi loop
    for lift in (lift1, lift2):
        winds = [wind for *_, wind in _tree_cycles(lift.h.images, lift.v.images)]
        if winds != [winding_index(c) for c in lift._fundamental_cycles()]:
            return False, f"tree winding numbers {winds} differ from winding_index"
    return True, f"Arf(lift) = 0 exactly on labels {sorted(HYP_LABELS)} for d <= {top}"


def check_sts_small(fast: bool = False):
    details = []
    for n in (3, 4, 5, 7):
        census = verify_sts_orbits(n)
        if not census["ok"]:
            return False, f"n={n}: {census['orbit_count']} orbits, want {census['expected_orbit_count']}"
        details.append(f"n={n}: {census['orbit_count']} orbits")
    a5, b5 = count_formulas(5)
    a7, b7 = count_formulas(7)
    if (a5, b5) != (18, 9) or (a7, b7) != (54, 36):
        return False, "counting formulas disagree"
    return True, "; ".join(details) + "; base sizes (18,9) and (54,36) confirmed"


def check_sts_eleven(fast: bool = False):
    if fast:
        return True, "skipped in fast mode (n <= 7)"
    census = verify_sts_orbits(11)
    # second derivation: direct orbit enumeration of each orbit's first lift
    for spin in census["spins"]:
        base = l_origami(spin["b"], spin["e"])
        basis = list(base.basis)
        # the census reads its blocks off the Weierstrass points; the F_2
        # frames are the reference
        points = {tuple(o["labels"]) for o in spin["orbits"]}
        frames = frame_label_blocks(base.origami, basis)
        if points != frames:
            return False, (f"spin e={spin['e']}: blocks {sorted(points)} from the "
                           f"Weierstrass points differ from the frame blocks {sorted(frames)}")
        lifts = {cover_label(basis, c)[1]: c.lift()
                 for c in all_double_covers(base.origami, basis)}
        for o in spin["orbits"]:
            members = lifts[o["labels"][0]].sl2z_orbit_forms()
            labels = sorted(label for label, lift in lifts.items()
                            if lift.canonical_form() in members)
            if len(members) != o["size"] or labels != o["labels"]:
                return False, (f"spin e={spin['e']}: orbit of labels {o['labels']} "
                               f"(size {o['size']}) differs from the direct orbit: "
                               f"labels {labels}, size {len(members)}")
    spin1 = next(s for s in census["spins"] if (s["d"] - s["e"]) % 4 == 2)
    sizes1 = sorted(o["size"] for o in spin1["orbits"])
    if not {1080, 180} <= set(sizes1):
        return False, f"spin-1 sizes {sizes1} missing 1080 or 180"
    sizes0 = census["spin0_sizes"]
    if 1350 not in sizes0:
        return False, f"spin-0 sizes {sizes0} missing 1350"
    note = ("fourth spin-0 size computed as 675 by direct enumeration; the "
            "published figure 900 is flagged as inconsistent with the block "
            "sizes" if census["fourth_size_flag"]
            else "fourth spin-0 size matches the published 900")
    return True, f"spin-1 sizes {sizes1}; spin-0 sizes {sizes0}; {note}"


#: Table 3 as exact partitions, keyed by (d mod 4, (d - e) mod 4);
#: d = 3 mod 4 behaves as d = 1 mod 4
TABLE3 = {
    (0, 0): (((3, 5, 9, 13),), ((1, 7, 11, 15), (8, 10, 12, 14))),
    (2, 2): (((2, 3, 9, 13),), ((1, 4, 11, 14), (6, 7, 8, 12))),
    (1, 0): (((3, 9, 13),), ((1, 6, 8, 11, 12, 15), (4, 10, 14))),
    (1, 2): (((2, 5), (3, 9, 13)), ((1, 6, 8, 11, 12, 15), (7,))),
}


def check_primitivity(fast: bool = False):
    top = 10 if fast else 30
    for d in range(3, top + 1):
        for _, e in square_spins(d):
            for label in range(1, 16):
                if is_primitive_cover(d, e, label) != primitive_cover_oracle(d, e, label):
                    return False, f"closed form vs oracle disagree at (d,e,label)=({d},{e},{label})"
    for (d, e) in ((4, 0), (6, 0), (5, 1), (5, -1), (8, 0), (7, -1), (7, 1)):
        t = primitive_echo_table(d, e)
        key = (d % 4 if d % 2 == 0 else 1, (d - e) % 4)
        want = TABLE3[key]
        if (t.hyp_orbits, t.odd_orbits) != want:
            return False, f"primitive table mismatch at (d,e)=({d},{e}): {t.to_json()}"
    for d, want in ((3, 3), (4, 3), (6, 3), (8, 3), (5, 7), (7, 7), (9, 7)):
        if branched_cover_types(d) != want:
            return False, f"branched_cover_types({d}) != {want}"
    return True, f"oracle equivalence for d <= {top}; Table of primitive echoes and type counts match"


#: |SL_2(F_5)| = 5 (5^2 - 1); <H, V> mod 5 is symplectic and block diagonal
#: in the eigenbasis, so it lies in SL_2 x SL_2 and is all of it exactly when
#: it has this order squared
SL2_F5_ORDER = 5 * (5 ** 2 - 1)


def check_eigenbasis(fast: bool = False):
    ok = True
    details = []
    for b in (4, 9):
        for n in (3, 5, 7, 9):
            if n % b == 0 or b % n == 0 or (b == 9 and n in (3, 9)):
                continue
            rep = eigenbasis_checks(b, n)
            structural = (rep["det_is_4b"] and rep["eigenvectors_ok"]
                          and rep["blocks_diagonal"])
            invariant = rep["invariant_constant"] and rep["invariant_complete"]
            count, cross = rep["family_orbit_count"], rep["partition_class_count"]
            ok &= rep["ok"]
            details.append(
                f"b={b},n={n}: structure {'ok' if structural else 'FAIL'}, "
                f"invariant gcd(x,n) values {rep['invariant_values']} "
                f"{'complete' if invariant else 'FAIL'}, "
                f"classes {count} {'=' if count == cross else '!='} "
                f"orbit_partition {cross}"
                + ("" if rep["phi_bound_met"] else
                   f", reference bound phi(n)={rep['phi_n']} flagged ({count} < {rep['phi_n']})"))
    if fast:
        details.append("<H,V> mod 5 closure skipped in fast mode")
    else:
        for b in (4, 9):
            size = len(group_closure([mat_H(b, 0), mat_V(b, 0)], 5))
            ok &= size == SL2_F5_ORDER ** 2
            details.append(f"b={b}: |<H,V> mod 5| = {size}, "
                           f"|SL2(F5)|^2 = {SL2_F5_ORDER ** 2}")
    return ok, "; ".join(details)


def check_escalator(fast: bool = False):
    o = Origami(parse_cycles("(1,2)(3,4)(5,6)(7,8)", 8),
                parse_cycles("(2,3)(4,5)(6,7)(8,1)", 8))
    quotients = set()
    for t in o.translations():
        if t.order() == 2:
            q = o.quotient_by_translation(t)
            quotients.add(q.canonical_form())
    q1 = Origami(parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)", 4))
    q2 = Origami(parse_cycles("(2,3)", 4), parse_cycles("(1,2)(3,4)", 4))
    if q1.canonical_form() == q2.canonical_form():
        return False, "the two published quotients should not be isomorphic"
    if not {q1.canonical_form(), q2.canonical_form()} <= quotients:
        return False, "published quotients not found among order-2 translation quotients"
    return True, (f"{len(quotients)} distinct order-2 quotients, including both "
                  "published non-isomorphic 4-square origamis")


CRITERIA = [
    (1, "Table of cyclic decagon echo counts", check_table1),
    (2, "decagon mod-2 monodromy: order 10, dihedral, 3 orbits of 5", check_decagon_mod2),
    (3, "exact cyclotomic decagon period identities", check_decagon_periods),
    (4, "Weierstrass mod-2 group orders and Sp(4,F2)", check_group_orders),
    (5, "echo table of the 15 double covers (all four columns)", check_table2),
    (6, "real-multiplication matrix identities", check_matrix_identities),
    (7, "multitwist reconstruction of H, V and modulus ratios", check_multitwists),
    (8, "LR^3L Veech-membership lemma with printed permutations", check_veech_lemma),
    (9, "15 connected double covers: stratum, reducedness, translations", check_covers),
    (10, "Arf split of the lifts matches the hyperelliptic labels", check_arf_split),
    (11, "orbit counts of lifted square-tiled surfaces (n <= 7)", check_sts_small),
    (12, "n = 11 worked example: lifted orbit sizes", check_sts_eleven),
    (13, "primitivity closed form vs lattice oracle; primitive tables", check_primitivity),
    (14, "T-eigenbasis checks and cross-checked class counts", check_eigenbasis),
    (15, "escalator: non-isomorphic order-2 translation quotients", check_escalator),
]


def run_all(fast: bool = False):
    """Run every criterion; returns (all_ok, lines)."""
    lines = []
    all_ok = True
    for num, title, fn in CRITERIA:
        try:
            ok, detail = fn(fast)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {title} — {detail}")
    return all_ok, lines
