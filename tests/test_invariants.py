"""Source guards on the library.

Library invariants raise `InvariantError`, which `python -O` keeps: `assert`
statements vanish under `-O`, so a failed invariant would go unnoticed and a
wrong result would be returned.  The library is also pure-stdlib and exact,
so it imports nothing outside the standard library and uses no floating
point.  Every name it defines has a caller in the library or the benchmark;
helpers that only tests need live in the tests.
"""
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import flatcover

PACKAGE = Path(flatcover.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


FLOAT_NAMES = {"float", "complex"}
FLOAT_MATH = {"sqrt", "pi", "log", "exp"}


def library_nodes():
    """(file name, node) for every AST node of the library sources."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_library_has_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_library_imports_only_the_standard_library():
    found = []
    for name, node in library_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno} {m}" for m in modules
                  if m.partition(".")[0] not in sys.stdlib_module_names]
    assert not found, f"non-stdlib imports in the library: {found}"


def test_library_uses_no_floating_point():
    found = []
    for name, node in library_nodes():
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{name}:{node.lineno} literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            found.append(f"{name}:{node.lineno} {node.id}")
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append(f"{name}:{node.lineno} math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{name}:{node.lineno} math.{alias.name}"
                      for alias in node.names if alias.name in FLOAT_MATH]
    assert not found, f"floating point in the library: {found}"


def test_invariant_error_survives_optimize_flag():
    # the turns of a closed loop add up to a multiple of 4
    code = ("from flatcover import InvariantError\n"
            "from flatcover.origami import _winding\n"
            "try:\n"
            "    print(_winding(2))\n"
            "except InvariantError as exc:\n"
            "    print('InvariantError:', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError: turning count of a closed loop")


@pytest.mark.parametrize("module", ["lshape", "cyclotomic", "monodromy"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    # lshape imports cyclotomic: an import cycle between the two would fail
    # only in some import orders, so each is imported first on its own
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", f"import flatcover.{module}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def referenced_names(nodes, attributes_only: bool = False) -> Counter:
    """How often each identifier is read as a `Name` or an `Attribute`, or
    only as an `Attribute` (`.name`)."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in nodes if isinstance(n, kinds))


def test_every_library_definition_has_a_library_or_benchmark_caller():
    """A function or class needs a read of its name outside its own body; a
    method needs an attribute read `.name`, so that a bare name of another
    definition (a module function of the same name) does not count for it."""
    library = list(library_nodes())
    nodes = [node for _, node in library] + [
        node for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))]
    total = {False: referenced_names(nodes), True: referenced_names(nodes, True)}
    methods = {id(member) for _, node in library if isinstance(node, ast.ClassDef)
               for member in node.body}
    unused = []
    for name, node in library:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            method = id(node) in methods
            own = referenced_names(ast.walk(node), method)[node.name]
            if total[method][node.name] == own:
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, f"library names without a library or benchmark caller: {unused}"
