"""Pinned outputs: sha256 digests of census JSON, of the affine action's
step matrices and of CLI stdout.

The census digests pin the whole census report (labels, orbit sizes, Arf
invariants, flags).  The matrix digests pin each matrix of
`affine_action_mod2`, one per step of the S/U orbit walk in walk order,
which the census sees only through its orbits.  The
`orbit` digests pin the representatives, which are the canonical forms
(least relabelling over BFS with edge order (h, v) from every square whose
top-right corner is a cone point) in sorted order written as cycle text: a
different canonical labelling or text format changes them, which no other
test checks value for value.  Two of them are of surfaces with translations,
whose orbit walk tries only one start per translation orbit of squares.  The
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
    (5, "745447ef004c68a7370087134b27004738035dde49754e45ed86f5fd69dd3757"),
    (6, "ffcbc0fd4d4f0ae43d20c50821aad20648abf8e1db45aff7e286406e4e923e53"),
    (7, "30b5940e34b4fafb95fc46a45b61e24862f8f7022392ac62bd7f97c4e81e07af"),
    (8, "bda49da739d19f69635ed625d1539c04cd74d7351f44a10667cb1073317fefec"),
    (9, "cedd283b2ca5e11a47b3dd1c193b33b9c4c1a33cc39f8ca40d3902f22157d272"),
    (10, "36490b26c07a7ddfbfa275a4dd6996b6155bc0cb8cd9de2f1d577f8bf9272ac2"),
    (11, "72c8fb7256f176bb00df5d3c3bac028b6b423d9ca86588082d58b72992f5e929"),
    (12, "9d255c94550cf158e3ad05646ef451ad23c5b8a1ec8ce27dbfbb6a258d854dd8"),
    (13, "6b0e3192765592cd113e5ccae30bfb3183b87d3867abd1a13717ae3d92941794"),
    (14, "578d2ab8205c2bd4294830bf1b4f1c1075333fbd2b3450cda9d0c2c5e1e02aee"),
    (15, "ec7c848f123613a8105c8b26b583aa0871051e11f9ef6a128dbebf0f8cef270d"),
    (16, "378e2e6ee017e7681336b6703e85beb034491d07a587c4dc7fc1aa90fe14ddf1"),
    (17, "cca0b2758c899453b27919d1847a52e32d9b3e315a6b83bcdfefc0c5ddf7727a"),
    (18, "b9d90e23d301d71b73893dbd50574a88e6cc560ede6a7476226939487026a1c8"),
    (19, "0fd1f428b1be40169bc5b07fcadbd93913fdfd31e2892d231502187c1c75443c"),
    (20, "988c4bee6334274bb054eaec949a982096b531f3f2dfd0132faacd634d1dec64"),
    (21, "f574fd684fe15e10ba5b5ec05d0e040760165a8d576c59bf005ff7db29e7f660"),
])
def test_affine_action_mod2_digest(n, digest):
    # every step matrix of every spin, in walk order
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
    # the orbit walk tries one start per translation orbit of squares here
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
