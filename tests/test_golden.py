"""Pinned outputs: sha256 digests of census JSON, of the affine action's
edge matrices and of CLI stdout.

The census digests pin the whole census report (labels, orbit sizes, Arf
invariants, flags).  The matrix digests pin each edge matrix of
`affine_action_mod2`, which the census sees only through its orbits.  The
`orbit` digests pin the representatives, which are the canonical forms
(least relabelling over BFS with edge order (h, v) from every square whose
top-right corner is a cone point) in sorted order written as cycle text: a
different canonical labelling or text format changes them, which no other
test checks value for value.  Two of them are of surfaces with translations,
whose orbit BFS tries only one start per translation orbit of squares.  The
other CLI digests pin the cover labels, echo and primitive tables and the
decagon counts.  The labels, gammas and lift texts of `covers --origami`
depend on the basis, which `symplectic_basis` reduces over F_2 from the
tree-cotree split; the lift set does not.
"""
import hashlib

import pytest

from flatcover.classify import census_to_json, square_spins, verify_sts_orbits
from flatcover.cli import main
from flatcover.covers import affine_action_mod2
from flatcover.origami import l_origami


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, digest", [
    # n = 3 has one spin (e = -1) and b_3 = None
    (3, "4bb05e96c076e75abc8dd0cec6131f395494acaca07df748b3b7f3a997809dc3"),
    (4, "fd8eab142224e117f085586e74a8cdb74e353a30064a866159b7bed92ee5610d"),
    (5, "9e6d3c30e198e9add6e0990c14b82960b70eb1586c4d803c0d0f1adb98c96b2c"),
    (6, "f185691399c009494df4ef2e78bd788223724bd0b79467de901cce3732d34679"),
    (7, "55077a51f356fc368573039cb683921f52f47cf39342cf49efa8b41cd60902d8"),
    (8, "f1b5d7222c13a8cc3a738893f81616addd63d4196151fb5b3362571056f35904"),
    (9, "d1326699ab5233bd0b7e6b605b2bcea0da460f74daa3a34e8e714c1ea4ce7c20"),
    (10, "1a7a7cf97f819d046deb366999bc607a69ef4ecaac1d3cff5805f53b4b51187c"),
    (11, "cf17ad170cc410bb4f179c85c8bc48ba2120e6eb825ba4da3b50f1fce8c5fffd"),
    (12, "6028b9a87fc45b6072c2d2e038b6130c3b036a79be600b906129e9401eb40be1"),
    (13, "d852474b82851cba734d1008d9bfdcf636d52a836e8a0292a9362e2534719eeb"),
    (14, "494e0ece862fda7f4b9ce7ee8ce96bd39c7d2110f364e9cf101eb810dc004921"),
    (15, "ff068c1bff93b806cdf4affa54be2838451a37e83a2c9a9a3556dd543dbdcc17"),
    (16, "193cb5aeb2b1aa2f2d36febce06b20fc7d331dc33a6ac43d9feb0e07a31ebad3"),
    (17, "099d9fc8bb4a3b640bb4c09f3e478685dc11ac281edf075788551e14df61a4e9"),
    (18, "87bec6cc2759986cf22783b4d2ecfc353f0470627f446872f81a8fadc0d698df"),
    (19, "93b4305ca585ebc43ea88dbf4c3f082dec644e6a196026b32112331168f77539"),
    (20, "e671a3d59b4e23007b860761a8cb07b976e253c63850910cbea7bde2f9b7ad45"),
    (21, "91b6ab6e50dbb842d83e6d9178ad3661ccf3fd33819bba4c1ccfcddcf7502f48"),
])
def test_census_json_digest(n, digest):
    assert sha256(census_to_json(verify_sts_orbits(n))) == digest


@pytest.mark.parametrize("n, digest", [
    (5, "36ccab298632f70c67310f98a197bd6d221489bac2866e8f7785ed1b33ac0282"),
    (6, "beb8a29b51dfa3d6731521457d040ee6094e81570902eb293a63cb18d10fb2c5"),
    (7, "b8d79c1d69ec4bede3b5b15d4e453b51a77e592d251615d76bfe6b25468f627c"),
    (8, "f2a57ca343a1f04ac6c5efc867953c723b1f19ce2b25e5521d088432cb564168"),
    (9, "0a883a721bdba5253226b88a93c99f857bd975d640c14b56a98cef3773a78b88"),
    (10, "6e48d8ec54fd65b02325d13f139466f556486c5de73c3636750c17e2893f5b6b"),
    (11, "e5b02107a55eaf9ef0a129da3b6f62dbed32f27fd9b886e30a89137636b76c96"),
    (12, "5f9cb172c2276a1ee09d286b2d664056e5e1428458582190844fd5c66ea076a3"),
    (13, "35c9eec1109322ec471d9fb2bad69786ffaf25a14dc984bea3e37e0cde24da7e"),
    (14, "17925a0783455301ee058bcb4720e1d41a6a7da260cbf578f08b63718e63b930"),
    (15, "6b6463f641522a59b379a4a0b4eb6a86a123bb553c611ff86141c7b000c6d40b"),
    (16, "b88542fc7bc2443c445741567eb9514186108a9a56d1b83cbb4f4336695b9399"),
    (17, "db1c1370514a488c3fce72aa87723c8723e19fe02880df3c2f3df9415eb0a2bb"),
    (18, "d345c5e92f667e44d59588586aa0f70770d0d732c37f0cf0d1d3c3f3d374bf30"),
    (19, "3a1860a9e6f8e9e469feb132ebb718d82f68b4a76d9e6e5cec831aa09ecfdea7"),
    (20, "258d845a4e6e75600fbbebdf65cc9f472f1fe4be8acde09a76eb6042e4fe6e18"),
    (21, "5229d91031e56cfbc8f0278d4b66b5c89e1c565f3f1d0d190d7256bcdefbd514"),
])
def test_affine_action_mod2_digest(n, digest):
    # every edge matrix of every spin, in graph order
    matrices = []
    for b, e in square_spins(n):
        L = l_origami(b, e)
        matrices.append(affine_action_mod2(L.origami, list(L.basis))[1])
    assert sha256(repr(matrices)) == digest


def test_orbit_json_digest(capsys):
    code = main(["orbit", "--origami", "n=5 h=(1,2) v=(2,3,4,5)",
                 "--format", "json"])
    assert code == 0
    assert sha256(capsys.readouterr().out) == (
        "36a0b7e49cd9ae0034153053386f3e664d1b008a14e5abdaf41c094bff6d5105")


@pytest.mark.parametrize("text, digest", [
    # a double-cover lift with 2 translations (orbit size 36)
    ("n=10 h=(1,2)(6,7)(3,8)(4,9)(5,10) v=(2,3,4,5)(7,8,9,10)",
     "84611177d101de0ecc472a5ef64c93cc161e8cc88552ef2db650c4f3ee574408"),
    # the escalator: 8 translations, one orbit of squares (orbit size 3)
    ("n=8 h=(1,2)(3,4)(5,6)(7,8) v=(2,3)(4,5)(6,7)(8,1)",
     "39f0898582b7dcbd24b46d6f4431db25862a67301a4b7c7c128557fd7f171076"),
])
def test_orbit_json_digest_with_translations(capsys, text, digest):
    # the orbit BFS tries one start per translation orbit of squares here
    assert main(["orbit", "--origami", text, "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("argv, digest", [
    # labels, gammas and lift texts in the basis mod 2 of `symplectic_basis`;
    # test_generic_basis_gives_the_transported_lifts checks the lift set
    (["covers", "--origami", "n=5 h=(1,2) v=(2,3,4,5)"],
     "be4fe3d0549545eb53bb7b9222b7b22e7bf8abb7a1ca924e581e948222e2c802"),
    (["covers", "--b", "6", "--e", "1", "--format", "json"],
     "6b144ff1c096c4ff9970aa789753f8c2844e2e3611963e22fba6c272f721f568"),
    (["echoes", "--discriminant", "17", "--e", "-1", "--format", "json"],
     "a91ea3ba9c07c18b370d5cb30382ada1f840f7d684edb102007ad67d7519c64e"),
    (["primitive", "--d", "5", "--e", "1", "--format", "json"],
     "ef5e25d4e52caf1afce8712544305d642e4171ca73155d8d9b0a61a48391b47d"),
    (["decagon", "--max-n", "12", "--format", "json"],
     "819a36a71374db018f2d9635fe550e26a008202c54d62d0064f228d2557dab51"),
])
def test_cli_stdout_digest(capsys, argv, digest):
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == digest
