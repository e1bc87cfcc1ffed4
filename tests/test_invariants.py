"""Library invariants raise `InvariantError`, which `python -O` keeps.

`assert` statements vanish under `-O`, so a failed invariant would go
unnoticed and a wrong result would be returned; the source guard keeps them
out of the library.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import flatcover

PACKAGE = Path(flatcover.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


def test_invariant_error_survives_optimize_flag():
    # a Gram matrix with pairing 2 is not unimodular on the quotient
    code = ("from flatcover import InvariantError\n"
            "from flatcover.origami import symplectic_reduce\n"
            "try:\n"
            "    print(symplectic_reduce([[0, 2], [-2, 0]]))\n"
            "except InvariantError as exc:\n"
            "    print('InvariantError:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError: intersection form is not unimodular")
