"""Pinned outputs: sha256 digests of census JSON and of `orbit` stdout.

The census digests pin the whole census report (labels, orbit sizes, Arf
invariants, flags).  The `orbit` digest pins the representatives, which are
the canonical forms in sorted order written as cycle text: a different
canonical labelling or text format changes it, which no other test checks
value for value.
"""
import hashlib

import pytest

from flatcover.classify import census_to_json, verify_sts_orbits
from flatcover.cli import main


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, digest", [
    (5, "9e6d3c30e198e9add6e0990c14b82960b70eb1586c4d803c0d0f1adb98c96b2c"),
    (6, "f185691399c009494df4ef2e78bd788223724bd0b79467de901cce3732d34679"),
    (7, "55077a51f356fc368573039cb683921f52f47cf39342cf49efa8b41cd60902d8"),
])
def test_census_json_digest(n, digest):
    assert sha256(census_to_json(verify_sts_orbits(n))) == digest


def test_orbit_json_digest(capsys):
    code = main(["orbit", "--origami", "n=5 h=(1,2) v=(2,3,4,5)",
                 "--format", "json"])
    assert code == 0
    assert sha256(capsys.readouterr().out) == (
        "d2d780fd6106c01772f29d7e6b8af002c2f878ba253a76cc3f7c6412bf21de86")
