"""Package layout: each formula, tolerance, setting check and output
decision has one home, reached by other modules only through public names.
Where a name may appear is a row, with its reason, of `HOMES` (its every
site), `BARRED` (names a module or one of its functions never mentions) or
`RETIRED` (names with no site anywhere), all read off one walker, `_sites`.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agile_eye"
MODULES = sorted(PACKAGE.glob("*.py"))
# ToolConfig fields and the CLI flags that set them
SETTINGS = {
    "grid_n", "residual_tol", "singular_tol", "output_format", "tol_residual", "tol_singular"
}
ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
# (module, name) imported only so that bench/tracing.py can patch it: the
# sweep's record path, and the full direct solve that a mode match no longer runs
PATCHED_IMPORTS = {("cli.py", "iter_records"), ("modes.py", "solve_dk")}
TOLERANCE_HOMES = {
    "mechanism.py": {"STRUCTURE_TOL"},
    "modes.py": {"MATCH_TOL", "assembly_mode_id(tol)"},
    "so3.py": {"ORTHONORMAL_TOL"},
}

# (name, roles): every (module, owner) site of it in those roles, duplicates kept
HOMES = {
    # cli._emit writes every command's output, through one recursive writer (keys, values);
    # track's stderr line reads the format too
    ("_json", "name"): [("cli.py", "_emit"), ("cli.py", "_json"), ("cli.py", "_json")],
    ("output_format", "attr"):
        [("cli.py", "_emit"), ("cli.py", "track"), ("config.py", "ToolConfig")],
    # each sign of diag(B) is computed once; a caller with A reads A's rows
    ("leg_b", "name attr"): [("mechanism.py", "b_diagonal")],
    # `agile dk` alone; a mode match and the tracker solve from the cascade's first solution
    ("solve_dk", "name attr"): [("cli.py", "dk")],
    # one mode match, for assembly_mode_id and track_path's start alike
    ("nearest_direct_solution", "call"):
        [("modes.py", "assembly_mode_id"), ("modes.py", "track_path")],
    # the CLI resolves a --family name through this one table
    ("FAMILY_IDS", "name"):
        [("cli.py", "self_motion"), ("dk.py", "<module>"), ("dk.py", "self_motion_family")],
    # the 8 signatures are built once, in mechanism.SIGNATURES
    ("WorkingModeSignature", "call"): [("mechanism.py", "<module>")],
    # one nearest-of-four search, for trivial orientations and direct solutions alike
    ("rotation_angle", "import name attr"):
        [("so3.py", "nearest_flip"), ("so3.py", "rotation_distance")],
    # one builder of a finite direct solution, for solve_dk and direct_solution alike
    ("EulerZyx", "call"): [("dk.py", "_half_turn")],
}
# (module, owner or None for the whole module): names with no site there
BARRED = {
    # a --family name resolves only through dk.FAMILY_IDS
    ("cli.py", None): {"FAMILY_LABELS.index", "isdigit"},
    # the CLI's writers take the Python values its commands build, no numpy scalar or array
    ("cli.py", "_json"): {"np"},
    ("cli.py", "_cell"): {"np"},
    # the generic-joints rule is dk.joint_degeneracy's
    ("modes.py", None): {"condition_pairs"},
    # every waypoint, the first included, goes through dk.direct_solution
    ("modes.py", "track_path"): {"solve_dk", "euler_to_rotation"},
}
NOT_PACKAGE_NAMES = {"isdigit", "np"}  # BARRED names defined outside the package
RETIRED = {
    "validate",  # ToolConfig checks itself when it is built
    "finite_solutions",  # dk._half_turn builds every direct solution
    "_finite_dk",  # modes._generic evaluates a match's joints once
    # dk.nearest_direct_solution is the one mode match: no certificate, no fallback
    "_certified_mode", "_ROUNDING", "_SQRT3", "_match", "nearest_solution",
    "from_wrapped",  # one constructor per value type, which wraps every angle it stores
    "_write_json", "_matrix_rows",  # cli._json returns the text; matrices print by .tolist()
}


def _sites(path: Path):
    """(name, role, owner, line) of every name site in a module, `owner` being its
    top-level definition or "<module>".  Roles: "import"; "def" (a def, class, other
    binding or assigned bare name); a bare "name", in any context; "attr"; "call" of a
    bare name or attribute, which is a site of "Owner.attr" too on a bare name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            found = []
            if isinstance(node, ast.alias):
                found = [(node.name, "import")]
            elif isinstance(node, ast.Name):
                found = [(node.id, "name")] + [(node.id, "def")] * isinstance(node.ctx, ast.Store)
            elif isinstance(node, (ast.Attribute, ast.Call)):
                role, target = ("call", node.func) if isinstance(node, ast.Call) else ("attr", node)
                if isinstance(target, ast.Name):
                    found = [(target.id, role)]
                elif isinstance(target, ast.Attribute):
                    found = [(target.attr, role)]
                    if isinstance(target.value, ast.Name):
                        found.append((f"{target.value.id}.{target.attr}", role))
            elif isinstance(getattr(node, "name", None), str):
                found = [(node.name, "def")]
            for name, role in found:
                yield name, role, owner, node.lineno


SITES = [(path.name, *site) for path in MODULES for site in _sites(path)]


def _home_errors(sites, name, roles, homes):
    """(name, module, owner, line) of each site past the homes; line None: a home unfilled."""
    spare, extra = Counter(homes), []
    for module, n, role, owner, line in sites:
        if n == name and role in roles.split():
            spare[module, owner] -= 1
            extra += [(name, module, owner, line)] * (spare[module, owner] < 0)
    return sorted(extra) + [(name, *home, None) for home in spare.elements()]


def _barred_errors(sites, module, owner, names):
    """(name, module, owner, line), one a line, of `names` in `module` and `owner` (None: any)."""
    return sorted({(n, m, o, line) for m, n, _, o, line in sites
                   if n in names and module in (None, m) and owner in (None, o)})


def _stale(sites, module, owner, names):
    """Why a BARRED row would pass vacuously: its owner is gone from its module, or a
    package name it bars (a dotted name's head) is defined nowhere."""
    owners = {o for m, _, _, o, _ in sites if m == module}
    gone = [] if owners and owner in owners | {None} else [f"{module} has no {owner}"]
    defined = {n for _, n, role, _, _ in sites if role == "def"}
    heads = {n.partition(".")[0] for n in names} - NOT_PACKAGE_NAMES
    return gone + [f"{head} is defined nowhere" for head in sorted(heads - defined)]


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


def _slotless_dataclasses(path: Path):
    """(line, name) of every class decorated `dataclass` (bare, called or as
    an attribute) with neither `slots=True` nor a `__slots__` of its own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        own = [t for s in node.body if isinstance(s, ast.Assign) for t in s.targets]
        if "__slots__" in {getattr(t, "id", None) for t in own}:
            continue
        for deco in node.decorator_list:
            func, keywords = (deco.func, deco.keywords) if isinstance(deco, ast.Call) else (deco, [])
            if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
                continue
            if not any(k.arg == "slots" and getattr(k.value, "value", None) is True for k in keywords):
                found.append((node.lineno, node.name))
    return found


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


def test_dataclasses_have_slots():
    # value objects have no instance dict
    slotless = [(path.name, name) for path in MODULES for _, name in _slotless_dataclasses(path)]
    assert slotless == []


def test_checker_flags_slotless_dataclasses(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import dataclasses\n"
        "@dataclass\n"
        "class Bare: x: int\n"
        "@dataclass(frozen=True)\n"
        "class Frozen: x: int\n"
        "@dataclasses.dataclass(frozen=True, slots=False)\n"
        "class Dotted: x: int\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class Slots: x: int\n"
        "@dataclass\n"
        "class Own:\n"
        "    __slots__ = ('x',)\n"
        "class Plain: x: int\n"
        "@functools.total_ordering\n"
        "class Ordered: pass\n"
    )
    assert _slotless_dataclasses(probe) == [(3, "Bare"), (5, "Frozen"), (7, "Dotted")]


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


@pytest.mark.parametrize("name, roles", HOMES, ids=[name for name, _ in HOMES])
def test_homes(name, roles):
    assert _home_errors(SITES, name, roles, HOMES[name, roles]) == []


@pytest.mark.parametrize("module, owner", BARRED, ids=[f"{m[:-3]}.{o or '*'}" for m, o in BARRED])
def test_barred(module, owner):
    assert _stale(SITES, module, owner, BARRED[module, owner]) == []
    assert _barred_errors(SITES, module, owner, BARRED[module, owner]) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_validate_method(path):
    # the RETIRED row validate, one module at a time
    assert _barred_errors(SITES, path.name, None, {"validate"}) == []


@pytest.mark.parametrize("name", sorted(RETIRED - {"validate"}))
def test_retired(name):
    assert _barred_errors(SITES, None, None, {name}) == []


def _assert_flags(tmp_path, probes):
    """Each probe's sites join its module's; the tables flag exactly the names that a
    probe line's comment lists, duplicates kept."""
    sites, expected = list(SITES), []
    for module, source in probes.items():
        (tmp_path / module).write_text(source)
        sites += [(module, *site) for site in _sites(tmp_path / module)]
        for line, text in enumerate(source.splitlines(), 1):
            expected += [(name, module, line) for name in text.partition("#")[2].split()]
    flags = [e for (n, roles), homes in HOMES.items() for e in _home_errors(sites, n, roles, homes)]
    flags += [e for (m, o), names in BARRED.items() for e in _barred_errors(sites, m, o, names)]
    flags += _barred_errors(sites, None, None, RETIRED)
    assert sorted((name, module, line) for name, module, _, line in flags) == sorted(expected)


def test_checker_flags_output_decisions(tmp_path):
    _assert_flags(tmp_path, {"cli.py":
        "def dk(ctx):\n"
        "    fmt = ctx.obj['cfg'].output_format  # output_format\n"
        "    def inner(doc):\n"
        "        return _json(doc)  # _json\n"
        "writer = _json  # _json\n"
        "def track(cfg): return cfg.output_format  # output_format\n"
        "def main(output_format): return ToolConfig(output_format=output_format)\n"
        "def _json(obj):\n"
        "    return isinstance(obj, np.integer), _json(obj)  # np _json\n"
        "def _cell(x): return np.floating  # np\n"
        "def _write_json(obj, out): return _matrix_rows(obj)  # _write_json _matrix_rows\n"})


def test_checker_flags_uses(tmp_path):
    _assert_flags(tmp_path, {"mechanism.py":
        "from .mechanism import leg_b\n"
        "def jacobians(t): return mechanism.leg_b(t), [leg_b][0]  # leg_b leg_b\n"
        "b = leg_b  # leg_b\n"
        "def leg_b(t): return 'leg_b'\n", "cli.py":
        "def track(cfg): return solve_dk  # solve_dk\n"
        "def self_motion(name):\n"
        "    return FAMILY_IDS[name], FAMILY_LABELS.index(name), name.isdigit()"
        "  # FAMILY_IDS FAMILY_LABELS.index isdigit\n"})


def test_checker_flags_validate(tmp_path):
    _assert_flags(tmp_path, {"config.py":
        "class Config:\n"
        "    def validate(self): return self  # validate\n"
        "cfg = Config().validate()  # validate\n"
        "check = validate_rotation\n"})


def test_checker_flags_signature_copies(tmp_path):
    _assert_flags(tmp_path, {"mechanism.py":
        "from .mechanism import WorkingModeSignature\n"
        "def sign(b) -> WorkingModeSignature:\n"
        "    return WorkingModeSignature(*b)  # WorkingModeSignature\n"
        "TABLE = [mechanism.WorkingModeSignature(1, 1, 1)]  # WorkingModeSignature\n"
        "def check(sig): return isinstance(sig, WorkingModeSignature), WorkingModeSignature\n"})


def test_checker_flags_rotation_angle_references(tmp_path):
    _assert_flags(tmp_path, {"so3.py":
        "from .so3 import euler_to_rotation, rotation_angle  # rotation_angle\n"
        "def nearest_flip(m):\n"
        "    return so3.rotation_angle(m), rotation_angle  # rotation_angle rotation_angle\n"
        "ANGLE = rotation_angle  # rotation_angle\n"
        "def rotation_angle(m): return 'rotation_angle'\n"})


def test_checker_flags_joint_evaluations(tmp_path):
    _assert_flags(tmp_path, {"modes.py":
        "from .mechanism import condition_pairs  # condition_pairs\n"
        "_ROUNDING, _SQRT3 = 1e-14, math.sqrt(3.0)  # _ROUNDING _SQRT3\n"
        "def _certified_mode(j: JointTriplet, r):  # _certified_mode\n"
        "    q2 = det_factor(*joint_trig(*j.as_tuple()))\n"
        "    return solve_dk(j)  # solve_dk\n"
        "def _match(j, r):  # _match\n"
        "    return dk.solve_dk(j), mechanism.condition_pairs  # solve_dk condition_pairs\n"
        "def assembly_mode_for(j, sig):\n"
        "    return dk.nearest_direct_solution(*_generic(j), sig)  # nearest_direct_solution\n"})


def test_checker_flags_builders_and_full_solves(tmp_path):
    _assert_flags(tmp_path, {"dk.py":
        "def finite_solutions(phi, q1, q2):  # finite_solutions\n"
        "    return EulerZyx.from_wrapped(phi, q1, q2)  # from_wrapped\n"
        "finite_solutions = JointTriplet.from_wrapped  # finite_solutions from_wrapped\n"
        "def other(finite_solutions): return finite_solutions  # finite_solutions\n"
        "def direct_solution(k, e): return so3.EulerZyx(*e), EulerZyx  # EulerZyx\n", "modes.py":
        "def track_path(path, start):\n"
        "    dk0 = modes.solve_dk(path[0])  # solve_dk solve_dk\n"
        "    rows = [EulerZyx.from_wrapped(*e) for e in dk0]  # from_wrapped\n"
        "    first = EulerZyx(*dk0.solutions[0])  # EulerZyx\n"
        "    return euler_to_rotation, nearest_solution  # euler_to_rotation nearest_solution\n"})


def test_barred_rows_go_stale_when_renamed():
    # renaming a barred owner or name leaves its row stale, not passing
    renamed = {"track_path": "follow_path", "solve_dk": "solve_direct", "FAMILY_LABELS": "LABELS"}
    sites = [(m, renamed.get(n, n), r, renamed.get(o, o), line) for m, n, r, o, line in SITES]
    stale = [_stale(sites, *row, BARRED[row]) for row in BARRED]
    assert stale == [["FAMILY_LABELS is defined nowhere"], [], [], [], [
        "modes.py has no track_path", "solve_dk is defined nowhere"]]
