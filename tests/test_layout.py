"""Package layout: modules share formulas only through public names, and
each tolerance has one home, and the CLI has one output path.

A leading-underscore name is private to its module; a module that
imports one from another package module is using a copy of a formula
that should have a public home (the leg table and joint-space factors
live in `mechanism`).

The exact structural identities share `mechanism.STRUCTURE_TOL`; the
other module-level tolerances are the matching distance of `modes` and
the orthonormality check of the SO(3) layer.  Only `assembly_mode_id`
and `_match`, the one match it shares with `track_path`'s start, take a
`tol` argument (a rotation distance).

Every name in `agile_eye.__all__` resolves on the package, once, so
`from agile_eye import *` works.

Each sign of diag(B) is computed once: `mechanism.leg_b` has the one
caller `b_diagonal`, as every caller that builds the Jacobian A reads
diag(B) from A's rows.  In the CLI only `agile dk` calls `solve_dk`.

Every `agile` command hands its document and CSV rows to `cli._emit`,
the only place that calls `_json` and reads `output_format`, apart from
`track`'s stderr `mode constant` line in CSV mode.  Every angle and
orientation read from the command line or a path file goes through
`cli._angles_in` or `cli._parse_orientation`, the only places that check
finiteness and convert degrees, so no angle is wrapped before it is in
radians.

The ZYX rotation formula has one home, `so3.rotation_entries`: no other
module writes a nine-entry matrix with its triple products.  The direct
kinematics cascade, theta and psi as `atan2(-a, b)` roots, is written
only in `dk`; `modes` tracks through `dk.direct_solution` and reads no
private name of `dk` or `so3`, imported or as a module attribute.  Every
finite direct solution is built in one `dk` function, the only caller of
`EulerZyx.from_wrapped`, for `solve_dk` and `direct_solution` alike, and
no second builder such as the former `finite_solutions` is defined.
`track_path` takes every waypoint, the first included, through
`direct_solution`: it references no `solve_dk`, `nearest_solution` or
`euler_to_rotation`.  A mode match decides once that its joints are
generic and evaluates their trig once, in `modes`: `modes` references no
`condition_pairs` (the generic-joints rule is `dk.joint_degeneracy`'s),
and calls `solve_dk` only in `_match`'s uncertified fallback.

Every name a package module imports is used there, apart from the names
the benchmark harness patches on a module (`PATCHED_IMPORTS`).

Each setting has one checking home: `ToolConfig` checks itself when it
is built, so no module defines or calls a `validate`, and neither
`sweep.py` nor `cli.py` compares a setting against a bound.  The CLI
resolves a `--family` name only through `dk.FAMILY_IDS`.

The 8 working-mode signatures are built once, in `mechanism.SIGNATURES`:
no other module calls `WorkingModeSignature(...)`, so every signature the
package returns is one of those shared instances.

The search for the nearest of four sign-flipped rotations has one home,
`so3.nearest_flip`: the trivial orientations and the direct solutions
are both matched by it, so no module outside `so3` imports or calls
`rotation_angle`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agile_eye"
MODULES = sorted(PACKAGE.glob("*.py"))
# ToolConfig fields and the CLI flags that set them
SETTINGS = {
    "grid_n", "residual_tol", "singular_tol", "output_format", "tol_residual", "tol_singular"
}
ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
# (module, name) imported only so that bench/tracing.py can patch it
PATCHED_IMPORTS = {("cli.py", "iter_records")}
TOLERANCE_HOMES = {
    "mechanism.py": {"STRUCTURE_TOL"},
    "modes.py": {"MATCH_TOL", "assembly_mode_id(tol)", "_match(tol)"},
    "so3.py": {"ORTHONORMAL_TOL"},
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


def _uses(path: Path, names=(), attrs=()):
    """(enclosing top-level function, name) of every use of a bare name in
    `names` and of every attribute in `attrs`, in source order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in names:
                found.append((node.lineno, owner, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in attrs:
                found.append((node.lineno, owner, node.attr))
    return [entry[1:] for entry in sorted(found)]


def _product_factors(node) -> int:
    """Number of factors in a chain of multiplications (1 if none)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _product_factors(node.left) + _product_factors(node.right)
    return 1


def _zyx_builds(path: Path):
    """Line of every tuple or list display of nine entries (flat, or three
    rows of three) with a product of three factors among them: the shape
    of the ZYX rotation formula."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.Tuple, ast.List)):
            continue
        leaves = node.elts
        if len(leaves) == 3 and all(isinstance(e, (ast.Tuple, ast.List)) for e in leaves):
            leaves = [leaf for row in leaves for leaf in row.elts]
        if len(leaves) != 9 or any(isinstance(e, (ast.Tuple, ast.List)) for e in leaves):
            continue
        if any(_product_factors(n) >= 3 for leaf in leaves for n in ast.walk(leaf)):
            found.append(node.lineno)
    return found


def _cascade_roots(path: Path):
    """Line of every `atan2(-a, b)` call, the form of the cascade's roots."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "atan2"
        and node.args
        and isinstance(node.args[0], ast.UnaryOp)
        and isinstance(node.args[0].op, ast.USub)
    ]


def _private_module_reads(path: Path, modules):
    """(line, module, name) of every private name read as an attribute of
    a package module in `modules` that the file imports whole."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "") == "agile_eye"):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.rpartition(".")[2]
                if alias.name.startswith("agile_eye.") and module in modules and alias.asname:
                    aliases[alias.asname] = module
    return [
        (node.lineno, aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]


def _output_decisions(path: Path):
    """(enclosing top-level function, name) of every use of `_json` and
    every `.output_format` read, in source order."""
    return _uses(path, names={"_json"}, attrs={"output_format"})


def _from_angles_in(call: ast.Call) -> bool:
    """Whether a call's only argument is `*_angles_in(...)`."""
    if call.keywords or len(call.args) != 1 or not isinstance(call.args[0], ast.Starred):
        return False
    inner = call.args[0].value
    return isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "_angles_in"


def _input_decisions(path: Path):
    """(enclosing top-level function, name) of every use of
    `_require_finite` and of `radians`, and of every `JointTriplet(...)`
    not built from `*_angles_in(...)`, in source order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "_require_finite":
                found.append((node.lineno, owner, "_require_finite"))
            elif getattr(node, "attr", getattr(node, "id", None)) == "radians":
                found.append((node.lineno, owner, "radians"))
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "JointTriplet"
                and not _from_angles_in(node)
            ):
                found.append((node.lineno, owner, "JointTriplet"))
    return [entry[1:] for entry in sorted(found)]


def _calls(path: Path, name: str):
    """(enclosing top-level function, line) of every call of `name`, as a
    bare name or an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (getattr(top, "name", "<module>"), node.lineno)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def _references(path: Path, name: str):
    """(enclosing top-level function, line) of every import of `name` and
    of every use of it as a bare name or an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (getattr(top, "name", "<module>"), node.lineno)
        for top in tree.body
        for node in ast.walk(top)
        if name in (getattr(node, "id", None), getattr(node, "attr", None))
        or (isinstance(node, ast.ImportFrom) and name in (a.name for a in node.names))
    ]


def _definitions(path: Path, name: str):
    """Line of every function, class or assigned name called `name`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == name)
    )


def _method_calls(path: Path, owner: str, method: str):
    """(enclosing top-level function, line) of every call of
    `owner.method(...)`, with `owner` a bare name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (getattr(top, "name", "<module>"), node.lineno)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and getattr(node.func.value, "id", None) == owner
    ]


def _unused_imports(path: Path):
    """(line, name) of every name bound by an import and never read as a
    bare name or listed in `__all__` (`__future__` imports aside)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in _names(node.targets[0]):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


def _validate_uses(path: Path):
    """Line of every definition, import, call or mention of `validate`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if "validate" in (getattr(node, a, None) for a in ("name", "attr", "id"))
    )


def _names(node):
    """Every bare name and attribute name in an expression."""
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


def _is_number(node) -> bool:
    """A number literal, its negation, or `math.inf`."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.Attribute):
        return node.attr == "inf"
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _setting_bounds(path: Path):
    """Line of every ordering comparison between a number and a setting:
    a name or attribute in SETTINGS, or a name assigned from an
    expression that mentions one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    settings = set(SETTINGS)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _names(node.value) & SETTINGS:
            settings |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, ORDERING) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        names = set().union(*(_names(o) for o in operands if not _is_number(o)))
        if names & settings and any(map(_is_number, operands)):
            found.append(node.lineno)
    return sorted(found)


def test_all_names_resolve_once():
    import agile_eye

    names = agile_eye.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(agile_eye, n)] == []


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


def test_cli_has_one_output_path():
    assert _output_decisions(PACKAGE / "cli.py") == [
        ("_emit", "output_format"),
        ("_emit", "_json"),
        ("track", "output_format"),
    ]


def test_checker_flags_output_decisions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _emit(cfg, doc):\n"
        "    return _json(doc) if cfg.output_format == 'json' else ''\n"
        "def dk(ctx):\n"
        "    fmt = ctx.obj['cfg'].output_format\n"
        "    def inner(doc):\n"
        "        return _json(doc)\n"
        "    return inner\n"
        "writer = _json\n"
    )
    assert _output_decisions(probe) == [
        ("_emit", "_json"),
        ("_emit", "output_format"),
        ("dk", "output_format"),
        ("dk", "_json"),
        ("<module>", "_json"),
    ]


def test_leg_b_called_only_by_b_diagonal():
    # every other caller builds A, whose diagonal is diag(B)
    uses = [
        (path.name, *use) for path in MODULES for use in _uses(path, {"leg_b"}, {"leg_b"})
    ]
    assert uses == [("mechanism.py", "b_diagonal", "leg_b")]


def test_cli_solves_dk_only_in_dk_command():
    # `agile track` reads its signature from the tracker's own solve
    assert _uses(PACKAGE / "cli.py", {"solve_dk"}, {"solve_dk"}) == [("dk", "solve_dk")]


def test_checker_flags_uses(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .mechanism import leg_b\n"
        "def jacobians(trig, table):\n"
        "    return mechanism.leg_b(trig, table), [leg_b][0]\n"
        "b = leg_b\n"
        "def leg_b(trig, table):\n"
        "    return 'leg_b'\n"
    )
    assert _uses(probe, {"leg_b"}, {"leg_b"}) == [
        ("jacobians", "leg_b"),
        ("jacobians", "leg_b"),
        ("<module>", "leg_b"),
    ]


def test_cli_has_one_input_path():
    assert _input_decisions(PACKAGE / "cli.py") == [
        ("_angles_in", "_require_finite"),
        ("_angles_in", "radians"),
        ("_parse_orientation", "_require_finite"),
    ]


def test_checker_flags_input_decisions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n"
        "def _angles_in(name, values, degrees):\n"
        "    _require_finite(name, values)\n"
        "    return tuple(map(math.radians, values))\n"
        "def dk(joints):\n"
        "    _require_finite('JOINTS', joints)\n"
        "    return JointTriplet(*_angles_in('JOINTS', joints, False))\n"
        "def track(rows, check=_require_finite):\n"
        "    return [JointTriplet(*row) for row in rows], JointTriplet(0, 0, 0)\n"
        "def jacobian(joints):\n"
        "    return JointTriplet(*_angles_in('--joints', joints, True), t=0)\n"
        "to_radians = math.radians\n"
    )
    assert _input_decisions(probe) == [
        ("_angles_in", "_require_finite"),
        ("_angles_in", "radians"),
        ("dk", "_require_finite"),
        ("track", "_require_finite"),
        ("track", "JointTriplet"),
        ("track", "JointTriplet"),
        ("jacobian", "JointTriplet"),
        ("<module>", "radians"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_validate_method(path):
    # ToolConfig checks itself in __post_init__; nothing re-checks it
    assert _validate_uses(path) == []


def test_checker_flags_validate(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class Config:\n"
        "    def validate(self):\n"
        "        return self\n"
        "cfg = Config().validate()\n"
        "check = validate_rotation\n"
    )
    assert _validate_uses(probe) == [2, 4]


@pytest.mark.parametrize("name", ["sweep.py", "cli.py"])
def test_settings_are_bounded_only_by_tool_config(name):
    assert _setting_bounds(PACKAGE / name) == []


def test_checker_flags_setting_bounds(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def run_sweep(grid_n, cfg):\n"
        "    n = operator.index(cfg.grid_n if grid_n is None else grid_n)\n"
        "    if n < 8:\n"
        "        raise ValueError\n"
        "    if not 0.0 < cfg.singular_tol < math.inf:\n"
        "        raise ValueError\n"
        "    tol = cfg.singular_tol\n"
        "    ok = det > tol, det < -tol, grid_n is None, cfg.output_format == 'csv'\n"
        "    return -8 >= grid_n, step > 1\n"
    )
    assert _setting_bounds(probe) == [3, 5, 9]


def test_cli_resolves_family_names_through_one_table():
    cli = PACKAGE / "cli.py"
    labels_index = [
        node.lineno
        for node in ast.walk(ast.parse(cli.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr == "index"
        and getattr(node.value, "id", None) == "FAMILY_LABELS"
    ]
    assert labels_index == []
    assert _uses(cli, attrs={"isdigit"}) == []
    assert _uses(cli, {"FAMILY_IDS"}) == [("self_motion", "FAMILY_IDS")]


def test_zyx_formula_has_one_home():
    builds = {path.name: _zyx_builds(path) for path in MODULES}
    assert {name: lines for name, lines in builds.items() if lines} == {
        "so3.py": builds["so3.py"]
    }
    assert len(builds["so3.py"]) == 1


def test_cascade_is_written_only_in_dk():
    roots = {path.name: _cascade_roots(path) for path in MODULES}
    assert {name: lines for name, lines in roots.items() if lines} == {"dk.py": roots["dk.py"]}
    assert len(roots["dk.py"]) == 2  # theta, then psi


def test_modes_reads_no_private_dk_or_so3_name():
    modes = PACKAGE / "modes.py"
    assert [i for i in _private_imports(modes) if i[1].lstrip(".") in ("dk", "so3")] == []
    assert _private_module_reads(modes, {"dk", "so3"}) == []


def test_checker_flags_formula_copies(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n"
        "from . import dk\n"
        "import agile_eye.so3 as so3\n"
        "def rows(cf, sf, ct, st, cp, sp):\n"
        "    return [[cf * ct, cf * st * sp - sf * cp, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]\n"
        "FLAT = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)\n"
        "def curve(c, s):\n"
        "    return ((c, s, 0.0), (0.0, 0.0, -1.0), (-s, c, 0.0))\n"
        "def roots(q1, q2):\n"
        "    order = dk._ORDERS, so3.wrap_angle, so3._private\n"
        "    return math.atan2(-q1, q2), math.atan2(q1, q2)\n"
    )
    assert _zyx_builds(probe) == [5]
    assert _cascade_roots(probe) == [11]
    assert _private_module_reads(probe, {"dk", "so3"}) == [(10, "dk", "_ORDERS"), (10, "so3", "_private")]


def test_signatures_are_built_only_in_mechanism():
    calls = {path.name: _calls(path, "WorkingModeSignature") for path in MODULES}
    assert {name: found for name, found in calls.items() if found} == {
        "mechanism.py": calls["mechanism.py"]
    }
    assert [owner for owner, _ in calls["mechanism.py"]] == ["<module>"]


def test_checker_flags_signature_copies(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .mechanism import WorkingModeSignature\n"
        "def sign(b) -> WorkingModeSignature:\n"
        "    return WorkingModeSignature(*(1 if x > 0 else -1 for x in b))\n"
        "TABLE = [mechanism.WorkingModeSignature(1, 1, 1)]\n"
        "def check(sig):\n"
        "    return isinstance(sig, WorkingModeSignature), WorkingModeSignature\n"
    )
    assert _calls(probe, "WorkingModeSignature") == [("sign", 3), ("<module>", 4)]


def test_rotation_angle_is_called_only_in_so3():
    # one nearest-of-four search, so3.nearest_flip, serves the trivial
    # orientations and the direct solutions alike
    refs = {path.name: _references(path, "rotation_angle") for path in MODULES}
    assert {name: found for name, found in refs.items() if found} == {"so3.py": refs["so3.py"]}
    assert [owner for owner, _ in refs["so3.py"]] == ["nearest_flip", "rotation_distance"]


def test_checker_flags_rotation_angle_references(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .so3 import euler_to_rotation, rotation_angle\n"
        "def nearest(m):\n"
        "    return so3.rotation_angle(m), min(map(rotation_angle, [m]))\n"
        "ANGLE = rotation_angle\n"
        "def rotation_angle(m):\n"
        "    return 'rotation_angle'\n"
    )
    assert _references(probe, "rotation_angle") == [
        ("<module>", 1),
        ("nearest", 3),
        ("nearest", 3),
        ("<module>", 4),
    ]


def test_direct_solutions_have_one_builder():
    # solve_dk and direct_solution build each EulerZyx through one function
    assert {path.name: _definitions(path, "finite_solutions") for path in MODULES} == dict.fromkeys(
        (path.name for path in MODULES), []
    )
    calls = {path.name: _method_calls(path, "EulerZyx", "from_wrapped") for path in MODULES}
    assert {name: found for name, found in calls.items() if found} == {"dk.py": calls["dk.py"]}
    assert len({owner for owner, _ in calls["dk.py"]}) == 1


def test_track_path_takes_no_full_solve():
    # every waypoint, the first included, goes through direct_solution;
    # the start is matched through modes._match
    modes = PACKAGE / "modes.py"
    for name in ("solve_dk", "nearest_solution", "euler_to_rotation"):
        assert "track_path" not in [owner for owner, _ in _references(modes, name)], name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    unused = [name for _, name in _unused_imports(path) if (path.name, name) not in PATCHED_IMPORTS]
    assert unused == []


def test_patched_imports_are_unused_otherwise():
    # an allow-listed name that the module comes to use needs no entry
    for module, name in PATCHED_IMPORTS:
        assert name in [n for _, n in _unused_imports(PACKAGE / module)]


def test_checker_flags_unused_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from .mechanism import condition_pairs, det_factor as q2, joint_trig\n"
        "from .dk import solve_dk\n"
        "__all__ = ['solve_dk']\n"
        "def f(trig: joint_trig) -> None:\n"
        "    return q2(*trig), os.sep, g.condition_pairs\n"
    )
    assert _unused_imports(probe) == [(2, "system"), (3, "condition_pairs")]


def test_modes_evaluates_joints_once_per_match():
    modes = PACKAGE / "modes.py"
    assert _references(modes, "condition_pairs") == []
    assert [owner for owner, _ in _calls(modes, "solve_dk")] == ["_match"]
    assert _definitions(modes, "_finite_dk") == []
    # the certificate takes its caller's joint evaluation
    for name in ("joint_trig", "joint_factors", "det_factor", "condition_pairs", "JointTriplet"):
        assert "_certified_mode" not in [owner for owner, _ in _references(modes, name)], name


def test_checker_flags_joint_evaluations(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .mechanism import condition_pairs\n"
        "def _certified_mode(j: JointTriplet, r):\n"
        "    return solve_dk(j), det_factor(*joint_trig(*j.as_tuple()))\n"
        "def _match(j, r):\n"
        "    return dk.solve_dk(j), mechanism.condition_pairs\n"
    )
    assert _references(probe, "condition_pairs") == [("<module>", 1), ("_match", 5)]
    assert _calls(probe, "solve_dk") == [("_certified_mode", 3), ("_match", 5)]
    for name in ("joint_trig", "det_factor", "JointTriplet"):
        assert [owner for owner, _ in _references(probe, name)] == ["_certified_mode"]


def test_checker_flags_builders_and_full_solves(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .so3 import EulerZyx\n"
        "def finite_solutions(phi, trig, q1, q2):\n"
        "    return EulerZyx.from_wrapped(phi, q1, q2), JointTriplet.from_wrapped(phi, q1, q2)\n"
        "finite_solutions = None\n"
        "def track_path(path, start):\n"
        "    dk0 = modes.solve_dk(path[0])\n"
        "    return [EulerZyx.from_wrapped(*e) for e in dk0.solutions], euler_to_rotation\n"
        "def other(finite_solutions):\n"
        "    return finite_solutions\n"
    )
    assert _definitions(probe, "finite_solutions") == [2, 4]
    assert _method_calls(probe, "EulerZyx", "from_wrapped") == [
        ("finite_solutions", 3),
        ("track_path", 7),
    ]
    assert _references(probe, "solve_dk") == [("track_path", 6)]
    assert _references(probe, "euler_to_rotation") == [("track_path", 7)]
