"""Package layout: modules share formulas only through public names, and
each tolerance has one home.

A leading-underscore name is private to its module; a module that
imports one from another package module is using a copy of a formula
that should have a public home (the leg table and joint-space factors
live in `mechanism`).

The exact structural identities share `mechanism.STRUCTURE_TOL`; the
other module-level tolerances are the matching distance of `modes` and
the two of the SO(3) layer.  Only `assembly_mode_id` takes a `tol`
argument (a rotation distance).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agile_eye"
MODULES = sorted(PACKAGE.glob("*.py"))
TOLERANCE_HOMES = {
    "mechanism.py": {"STRUCTURE_TOL"},
    "modes.py": {"MATCH_TOL", "assembly_mode_id(tol)"},
    "so3.py": {"SINGULAR_COS_TOL", "ORTHONORMAL_TOL"},
}


def _private_imports(path: Path):
    """(line, module, name) of every private name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("agile_eye"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def _tolerances(path: Path):
    """(line, name) of every module-level *_TOL name, and (line,
    "function(tol)") of every function taking a parameter named tol."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (node.lineno, name.id)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and name.id.endswith("_TOL")
            ]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if any(p is not None and p.arg == "tol" for p in params):
                found.append((node.lineno, f"{getattr(node, 'name', 'lambda')}(tol)"))
    return found


def test_package_modules_found():
    assert {"mechanism.py", "dk.py", "sweep.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_imports_across_modules(path):
    assert _private_imports(path) == []


def test_checker_flags_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .dk import solve_dk, _hidden\n"
        "from agile_eye.so3 import _private\n"
        "from math import _internal\n"
    )
    assert _private_imports(probe) == [(1, ".dk", "_hidden"), (2, "agile_eye.so3", "_private")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_tolerances_have_one_home(path):
    homes = TOLERANCE_HOMES.get(path.name, set())
    assert [t for t in _tolerances(path) if t[1] not in homes] == []


def test_checker_flags_tolerances(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "FOLD_TOL = 1e-9\n"
        "A, B_TOL = 1, 2\n"
        "def f(x, tol=1e-9):\n"
        "    LOCAL_TOL = 1e-9\n"
        "    return lambda *, tol: x\n"
        "def g(x, singular_tol):\n"
        "    return x\n"
    )
    assert _tolerances(probe) == [(1, "FOLD_TOL"), (2, "B_TOL"), (3, "f(tol)"), (5, "lambda(tol)")]
