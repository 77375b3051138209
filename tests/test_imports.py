"""Static checks: every module of the package uses each name it imports,
every public function, class or method has a caller outside the tests,
every defaulted parameter of one is passed by such a caller, every
dataclass field is read by one, and every error class is raised by the
package."""

from __future__ import annotations

import ast
import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ale_lab"
# where the program's callers live: the package itself and the benchmark
CALLER_DIRS = ("src", "perfbench")

# Public functions and methods that only tests call, each with the test
# that relies on it: as the second route of a checked value, or (the gh
# ones) as the subject of a check that a suite is to carry.
ORACLES = {
    "connection.torsion_residual": "test_connection.py::test_connection_reproduces_parallel_triple",
    "connection.curvature_forms": "test_connection.py::test_curvature_forms_match_operator_route",
    "connection.decompose_curvature":
        "test_connection.py::test_curvature_forms_match_operator_route",
    "connection.bianchi_gauge": "test_connection.py::test_bianchi_gauge_conformal_factor",
    "connection.mixed_block_to_ric0":
        "test_connection.py::test_mixed_block_identifies_tracefree_ricci",
    "deformation.expm": "test_deformation.py::test_triple_closed_form_matches_expm",
    "forms.metric_from_triple":
        "test_deformation.py::test_metric_closed_form_matches_reconstruction_and_expm",
    "jets.pullback_jet2": "test_jets.py::test_pullback_consistency",
    "jets.metric_fn_from_jets": "test_jets.py::test_jet_curvature_matches_fd",
    "jets.cyclic_group": "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.binary_dihedral_group":
        "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.average": "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.jet2_first_row_zero": "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.random_quintic_field":
        "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "gh.axis_link_holonomy": "test_gh.py::test_axis_link_holonomy",
    "gh.center_flux": "test_gh.py::test_center_flux",
    "gh.v_laplacian_fd": "test_gh.py::test_potential_harmonic_off_centers",
    "quadrature.QuadraticTriple.d_varpi":
        "test_quadrature.py::test_random_closed_quadratic_is_closed",
}

# Defaulted parameters of public functions that only tests pass, each with
# the test that passes it: a second route of a checked value, a guard the
# program never trips, or the gauge a test compares against.
TEST_PARAMETERS = {
    "obstruction.A_coefficient(form)": "test_obstruction.py::test_A_forms_agree",
    "gh.metric_matrix(patch)": "test_gh.py::test_patches_agree_on_metric_invariants",
}


def unused_imports(source: str) -> list[str]:
    """Imported names that no expression of the module refers to."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def _names(tree: ast.AST) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def references(source: str) -> set[str]:
    """Every name and attribute name the module refers to, except a top-level
    definition's references to its own name."""
    found = set()
    for stmt in ast.parse(source).body:
        found |= _names(stmt) - {getattr(stmt, "name", None)}
    return found


def _public(stmts: list[ast.stmt], kinds: tuple[type, ...]) -> list[ast.stmt]:
    return [s for s in stmts if isinstance(s, kinds) and not s.name.startswith("_")]


def public_definitions(source: str) -> list[str]:
    """Names of the module's public top-level functions and classes, and
    ``Class.method`` for the public methods of its public classes."""
    body = ast.parse(source).body
    return [stmt.name for stmt in _public(body, (ast.FunctionDef, ast.ClassDef))] + [
        f"{cls.name}.{fn.name}" for cls in _public(body, (ast.ClassDef,))
        for fn in _public(cls.body, (ast.FunctionDef,))]


def uncalled(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` of every public definition no caller source refers to;
    a method counts as referred to when any source names its attribute."""
    used = set().union(*(references(src) for src in callers))
    return sorted(f"{mod}.{name}" for mod, src in modules.items()
                  for name in public_definitions(src) if name.rsplit(".", 1)[-1] not in used)


def _is_default(value: ast.expr, default: ast.expr) -> bool:
    """Whether an argument is the literal its parameter defaults to."""
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except (ValueError, TypeError, SyntaxError):
        return False


def _signature(fn: ast.FunctionDef, bound: bool) -> tuple[list[str], dict[str, ast.expr]]:
    """Names of the positional parameters a call fills (self or cls skipped
    when bound) and the default expression of each defaulted parameter."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return positional[bound:], defaults


@functools.cache
def _tree(source: str) -> ast.Module:
    return ast.parse(source)


@functools.cache
def _scan(source: str) -> tuple[list, list]:
    """Every function definition of the source with whether it is a bound
    method, and every call with its innermost enclosing function or None."""
    functions, calls = [], []

    def visit(node: ast.AST, enclosing: ast.FunctionDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                functions.append((child, isinstance(node, ast.ClassDef) and not static))
            elif isinstance(child, ast.Call):
                calls.append((child, enclosing))
            visit(child, child if isinstance(child, ast.FunctionDef) else enclosing)

    visit(_tree(source), None)
    return functions, calls


def _passes(call: ast.Call, positional: list[str],
            defaults: dict[str, ast.expr]) -> dict[str, ast.expr | None]:
    """The defaulted parameters a call passes, each with its argument, or
    None where a * or ** argument may carry it; an argument equal to the
    default literal passes nothing."""
    given: dict[str, ast.expr | None] = {}
    for i, arg in enumerate(call.args[:len(positional)]):
        if isinstance(arg, ast.Starred):
            given.update(dict.fromkeys(positional[i:]))
            break
        given[positional[i]] = arg
    given.update((kw.arg, kw.value) for kw in call.keywords if kw.arg is not None)
    if any(kw.arg is None for kw in call.keywords):
        given.update(dict.fromkeys(defaults))
    return {name: value for name, value in given.items() if name in defaults
            and (value is None or not _is_default(value, defaults[name]))}


def _forwarded(value: ast.expr | None, enclosing: ast.FunctionDef | None) -> tuple | None:
    """(function, parameter) when value hands on a defaulted parameter of the
    enclosing function that its body never rebinds, else None."""
    if (not isinstance(value, ast.Name) or enclosing is None
            or value.id not in _signature(enclosing, False)[1]):
        return None
    if any(isinstance(n, ast.Name) and n.id == value.id and isinstance(n.ctx, ast.Store)
           for n in ast.walk(enclosing)):
        return None
    return enclosing.name, value.id


def unset_parameters(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function(parameter)`` for every defaulted parameter of a public
    function or method that no call in the caller sources passes, matching
    calls to definitions by bare name as ``uncalled`` does.  A * or **
    argument counts as passing, a literal equal to the default does not, and
    handing on a defaulted parameter of the enclosing function counts only
    once something passes that one."""
    scans = [_scan(src) for src in callers]
    signatures: dict[str, list] = {}
    for functions, _ in scans:
        for fn, bound in functions:
            signatures.setdefault(fn.name, []).append(_signature(fn, bound))
    found = []  # ((callee, parameter), the (function, parameter) it hands on or None)
    for _, calls in scans:
        for call, enclosing in calls:
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            for positional, defaults in signatures.get(callee, ()):
                found += [((callee, name), _forwarded(value, enclosing))
                          for name, value in _passes(call, positional, defaults).items()]
    passed: set[tuple[str, str]] = set()
    while True:
        new = {key for key, source in found if source is None or source in passed} - passed
        if not new:
            break
        passed |= new
    body = {mod: _tree(src).body for mod, src in modules.items()}
    defs = [(f"{mod}.{fn.name}", fn) for mod, stmts in body.items()
            for fn in _public(stmts, (ast.FunctionDef,))] + [
        (f"{mod}.{cls.name}.{fn.name}", fn) for mod, stmts in body.items()
        for cls in _public(stmts, (ast.ClassDef,)) for fn in _public(cls.body, (ast.FunctionDef,))]
    return sorted(f"{qualname}({name})" for qualname, fn in defs
                  for name in _signature(fn, False)[1] if (fn.name, name) not in passed)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.Class.field`` for every annotated field of a dataclass whose
    name no caller source reads as an attribute, matching by bare name as
    ``uncalled`` does; building the dataclass (``Class(field=...)``) does
    not count as a read."""
    read = {node.attr for src in callers for node in ast.walk(_tree(src))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{mod}.{cls.name}.{stmt.target.id}" for mod, src in modules.items()
                  for cls in ast.walk(_tree(src))
                  if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                  for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name) and stmt.target.id not in read)


def _package_modules() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def _caller_sources() -> list[str]:
    return [p.read_text(encoding="utf-8")
            for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]


def _test_function(test_id: str) -> ast.FunctionDef | None:
    filename, name = test_id.split("::")
    tree = ast.parse((ROOT / "tests" / filename).read_text(encoding="utf-8"))
    return next((node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == name), None)


def test_unused_imports_detects_a_stray_name():
    source = "import math\nfrom typing import Callable, Sequence\nx: Callable = math.pi\n"
    assert unused_imports(source) == ["line 2: Sequence"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_uncalled_detects_a_lone_definition():
    module = ("def used():\n    pass\n\n"
              "def lone(n):\n    return lone(n - 1)\n\n"
              "class _Private:\n    pass\n")
    assert uncalled({"m": module}, [module, "used()\n"]) == ["m.lone"]


def test_uncalled_detects_a_lone_method():
    module = ("class Family:\n"
              "    def metric(self, t):\n        return t\n\n"
              "    def lone(self, x):\n        return x\n\n"
              "    def _helper(self):\n        pass\n")
    assert uncalled({"m": module}, [module, "Family().metric(0)\n"]) == [
        "m.Family.lone"]


def test_public_api_has_a_caller():
    # a public function only tests call is dead weight unless a test relies
    # on it as an independent route; those are listed in ORACLES
    missing = set(uncalled(_package_modules(), _caller_sources())) - set(ORACLES)
    assert sorted(missing) == []


def test_oracles_are_uncalled_and_used_by_their_test():
    uncalled_now = set(uncalled(_package_modules(), _caller_sources()))
    for qualname, test_id in ORACLES.items():
        assert qualname in uncalled_now, f"{qualname} has a caller now; drop it from ORACLES"
        test = _test_function(test_id)
        assert test is not None, f"{test_id} does not exist"
        assert qualname.rsplit(".", 1)[-1] in _names(test), (
            f"{test_id} does not call {qualname}")


def test_unset_parameters_flags_a_never_passed_parameter():
    module = "def f(x, h=1e-3, n=4):\n    return x\n\ndef _private(x, h=1e-3):\n    return x\n"
    assert unset_parameters({"m": module}, [module, "f(0, n=5)\n"]) == ["m.f(h)"]


def test_unset_parameters_flags_a_parameter_passed_only_its_default():
    module = ("def f(x, patch='north'):\n    return x\n\n"
              "class Bundle:\n    def field(self, order=96):\n        return order\n")
    callers = [module, "f(0, 'north')\nBundle().field(order=96)\n"]
    assert unset_parameters({"m": module}, callers) == ["m.Bundle.field(order)", "m.f(patch)"]
    assert unset_parameters({"m": module}, [module, "Bundle().field(48)\n"]) == ["m.f(patch)"]


def test_unset_parameters_follows_forwarded_parameters():
    module = ("def inner(x, h=1e-3):\n    return x\n\n"
              "def outer(x, h=1e-3):\n    return inner(x, h=h)\n\n"
              "def lone(x, h=1e-3):\n    return inner(x, h)\n")
    # handing on a parameter nothing passes passes nothing
    assert unset_parameters({"m": module}, [module]) == ["m.inner(h)", "m.lone(h)", "m.outer(h)"]
    assert unset_parameters({"m": module}, [module, "outer(0, h=0.5)\n"]) == ["m.lone(h)"]


def test_unset_parameters_counts_star_arguments_as_passing():
    module = "def f(x, h=1e-3, n=4):\n    return x\n"
    assert unset_parameters({"m": module}, [module, "f(0, **options)\n"]) == []
    assert unset_parameters({"m": module}, [module, "f(*args)\n"]) == []


def _test_sources(test_ids) -> list[str]:
    tests = (_test_function(test_id) for test_id in sorted(set(test_ids)))
    return [ast.unparse(test) for test in tests if test is not None]


def test_every_parameter_is_passed():
    # a defaulted parameter that no caller passes is a constant: it belongs
    # in the function body, unless a test passes it (TEST_PARAMETERS)
    callers = _caller_sources() + _test_sources(TEST_PARAMETERS.values())
    assert unset_parameters(_package_modules(), callers) == []


def test_test_parameters_are_unset_and_passed_by_their_test():
    modules, callers = _package_modules(), _caller_sources()
    unset_now = set(unset_parameters(modules, callers))
    for entry, test_id in TEST_PARAMETERS.items():
        assert entry in unset_now, f"{entry} has a caller now; drop it from TEST_PARAMETERS"
        assert _test_function(test_id) is not None, f"{test_id} does not exist"
        assert entry not in unset_parameters(modules, callers + _test_sources([test_id])), (
            f"{test_id} does not pass {entry}")


def test_unread_fields_flags_a_lone_field():
    module = ("from dataclasses import dataclass\n\n"
              "@dataclass(frozen=True)\nclass Result:\n    total: float\n    lone: float = 0.0\n\n"
              "class Plain:\n    lone: int\n")
    assert unread_fields({"m": module}, [module]) == ["m.Result.lone", "m.Result.total"]


def test_unread_fields_counts_an_attribute_read():
    module = "import dataclasses\n\n@dataclasses.dataclass\nclass Result:\n    total: float\n"
    assert unread_fields({"m": module}, [module, "print(result.total)\n"]) == []


def test_unread_fields_ignores_construction_and_stores():
    module = "from dataclasses import dataclass\n\n@dataclass\nclass Result:\n    total: float\n"
    callers = [module, "r = Result(total=1)\nr.total = 2\n"]
    assert unread_fields({"m": module}, callers) == ["m.Result.total"]


def test_every_dataclass_field_is_read():
    # a field no program caller reads is computed for nothing on every run;
    # a test that wants the value computes it from the remaining API
    assert unread_fields(_package_modules(), _caller_sources()) == []


def unraised_errors(errors_source: str, callers: list[str]) -> list[str]:
    """Exception classes of the errors module, other than the AleLabError
    base, that no raise statement of the caller sources names."""
    raised = set()
    for src in callers:
        for node in ast.walk(_tree(src)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return sorted(cls.name for cls in _public(_tree(errors_source).body, (ast.ClassDef,))
                  if cls.name != "AleLabError" and cls.name not in raised)


def test_unraised_errors_flags_a_lone_class():
    module = ("class AleLabError(Exception):\n    pass\n\n"
              "class Used(AleLabError):\n    pass\n\n"
              "class Lone(AleLabError):\n    pass\n")
    callers = ["from m import Used\nraise Used('x')\n",
               "import m\ntry:\n    pass\nexcept m.Lone:\n    pass\n"]
    assert unraised_errors(module, callers) == ["Lone"]
    assert unraised_errors(module, callers + ["import m\nraise m.Lone\n"]) == []


def test_every_error_class_is_raised():
    # an error class the package never raises is vocabulary for a failure
    # that cannot happen: callers catching it guard nothing
    modules = _package_modules()
    assert unraised_errors(modules["errors"], list(modules.values())) == []


ORACLE_PACKAGES = ("scipy", "sympy")


def oracle_imports(source: str) -> list[tuple[str | None, str]]:
    """(top-level definition that holds it, or None, package) for every
    import of scipy or sympy in the module."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(getattr(stmt, "name", None), top) for top in
                      (name.split(".")[0] for name in names) if top in ORACLE_PACKAGES]
    return found


def test_oracle_imports_finds_module_and_function_level_imports():
    source = ("import numpy\nimport scipy.linalg\n\n"
              "def f():\n    from sympy import Matrix\n    from . import scipy\n")
    assert oracle_imports(source) == [(None, "scipy"), ("f", "sympy")]


def test_scipy_and_sympy_stay_out_of_the_package():
    # they serve the tests as oracles; the one import left is scipy's expm in
    # the body of deformation.expm, the second route of the closed-form
    # triple, which stays in the package because the benchmark's tracer
    # wraps deformation.expm by name
    found = {(mod, *entry) for mod, src in _package_modules().items()
             for entry in oracle_imports(src)}
    assert found == {("deformation", "expm", "scipy")}


def test_jets_leaves_obstruction_unloaded():
    # obstruction decides the degenerate regime and imports jets for R_+ and
    # D; jets needs nothing of obstruction, so the two form no cycle
    code = "import sys\nimport ale_lab.jets\nprint('ale_lab.obstruction' in sys.modules)"
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_and_suites_leave_scipy_linalg_unloaded(tmp_path):
    # the triple families take exp(t M) in closed form and the closedness
    # null space is exact integer elimination, so `verify --suite all`
    # imports neither scipy.linalg nor sympy (about half a second); they
    # serve only as test oracles
    report = tmp_path / "report.json"
    code = ("import sys\nfrom ale_lab import cli\n"
            f"assert cli.main(['verify', '--suite', 'all', '--report', {str(report)!r}]) == 0\n"
            "print(sorted(m for m in ('scipy.linalg', 'sympy') if m in sys.modules))")
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert report.exists()
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_obstruct_leaves_harmonic_and_quadrature_unloaded(tmp_path):
    # obstruct takes the norm of the harmonic form from its closed form
    # (obstruction.closed_form_norm2), so a one-shot obstruct run, one
    # process, loads neither the harmonic-form nor the volume-quadrature module
    import numpy as np

    from ale_lab import jets

    jet, report = tmp_path / "jet.json", tmp_path / "report.json"
    jet.write_text(json.dumps({
        "k": 1, "H": jets.jet2_with_block(np.diag([0.0, 1.0, 1.0]), seed=0).H.tolist(),
        "H2": jets.random_jet4(0).H2.tolist()}))
    code = ("import sys\nfrom ale_lab import cli\n"
            f"assert cli.main(['obstruct', '--jet', {str(jet)!r}, '--report', {str(report)!r}])"
            " == 0\nprint(sorted(m for m in ('ale_lab.harmonic', 'ale_lab.quadrature')"
            " if m in sys.modules))")
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert report.exists()
    assert proc.stdout.strip().splitlines()[-1] == "[]"
