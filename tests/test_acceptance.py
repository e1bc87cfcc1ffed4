"""Acceptance gate: one test per verification criterion, run in full mode.

Every criterion is expected to pass.  Criterion 14 flags, without failing,
the reference claim of at least phi(n) orbit classes: the separating
invariant takes one value per divisor of n, and the class count it gives is
cross-checked by an orbit partition of (Z/n)^4.  See the criterion detail
string for the computed numbers.  The sha256 of each full-mode detail
string is pinned, so `flatcover verify` output cannot drift unnoticed; the
`--fast` output is pinned by `tests/test_cli.py::test_verify_fast`.
"""
import hashlib

import pytest

from flatcover import acceptance
from flatcover.acceptance import CRITERIA
from flatcover.lshape import IDENTITY4

DETAIL_DIGESTS = (
    "93a00ac350ac5a8cdb6f1972239e8f62fb5db499b9074f562150f202c7790822",
    "efbca0f4297419d276ef04e47fe5e0ad71ae1cd27b645780260ef96555cb9b44",
    "75948a8eba90db00602f5286e0b2a9237e9076d653af905d20e738581a48eabd",
    "50fcedcc3fcf9249901f0393234b22c53aa00c28af43d459c85463d573d6edd3",
    "92f63ce80ba645daf2b25f459b45a4ca0083035f69485ac1f9b0f6e0c72266a5",
    "df418e8325a2b304c0026c110e90a016fd8dcb7964671cc04cf45f8ace27e01a",
    "4a3ff0bb4a4b0c325b8f51b36b788a65ba5a138255905f5495dd7eb959d9b52d",
    "a3fcde957304151c01cb9ba03257da47703347a2a2527344a5ac38aae0536c0b",
    "aafb318dc0e2465115b08ed3f9717d6bbf9d0b2d8e70180faccfd688134da104",
    "7c6ec0117c1b2b2b6e9b30e7e5b918137d5f2673fbad191a8689ad4933f25f79",
    "aa3fa779aa327e5b8609aa7e128b812e70e076920268c4074555488c17ac1c11",
    "aef0628ea9a9dbfd454316dcf091212a8bc8447d1aed0b234c2050d1752341ab",
    "fa2c4c2f8ea0923fae0d5c250c7fa471811ab4cad2b97d188cc33b5d58c5a570",
    "370bf95a4be5f5befb770a7ff21dd365fa801a9c4717f40ad23e668311bb595d",
    "bd00c6087c3926d258818dbbd3369c3522e3bc1b1428b38038e2b715fde2b433",
)


@pytest.mark.parametrize("num,title,fn,digest",
                         [c + (d,) for c, d in zip(CRITERIA, DETAIL_DIGESTS, strict=True)],
                         ids=[f"{num:02d}-{fn.__name__}" for num, _, fn in CRITERIA])
def test_criterion(num, title, fn, digest):
    ok, detail = fn(fast=False)
    assert ok, f"criterion {num} ({title}): {detail}"
    assert hashlib.sha256(detail.encode()).hexdigest() == digest, detail


@pytest.mark.parametrize("name,k", [("rho_T", None), ("rho_R", 1)])
def test_decagon_mod2_reads_the_dihedral_order_off_the_generators(monkeypatch, name, k):
    # rho(T) = I leaves <rho(R)>, cyclic of order 5, which is not dihedral;
    # rho(R) = I leaves <rho(T)> of order 2, the degenerate D_1
    monkeypatch.setattr(acceptance, name, lambda: IDENTITY4)
    ok, detail = acceptance.check_decagon_mod2()
    assert not ok
    assert f"dihedral k={k} (want 5)" in detail


def test_sts_eleven_compares_the_point_blocks_with_the_frames(monkeypatch):
    # criterion 12 fails when the F_2 frames, the reference, give other
    # blocks than the census reads off the Weierstrass points
    monkeypatch.setattr(acceptance, "frame_label_blocks",
                        lambda o, basis: {tuple(range(1, 16))})
    ok, detail = acceptance.check_sts_eleven()
    assert not ok
    assert "differ from the frame blocks [(1, 2, 3" in detail
