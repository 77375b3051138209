"""Static checks: every module of the package uses each name it imports, and
every public function, class or method has a caller outside the tests."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ale_lab"
# where the program's callers live: the package itself, the scripts, the benchmark
CALLER_DIRS = ("src", "scripts", "perfbench")

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
    "deformation.TripleFamily.generator":
        "test_deformation.py::test_triple_closed_form_matches_expm",
    "forms.form_inner": "test_forms.py::test_star_and_inner_on_curved_metrics",
    "jets.poly_eval": "test_jets.py::test_curvature_polys_match_fd_near_origin",
    "jets.pullback_jet2": "test_jets.py::test_pullback_consistency",
    "jets.cyclic_group": "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.binary_dihedral_group":
        "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.average_jet2": "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.average_jet4": "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.average_quintic_field":
        "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.delta_star_quintic": "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.jet2_first_row_zero": "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "jets.random_quintic_field":
        "test_acceptance.py::test_criterion_7_quartic_invariant_routes",
    "gh.axis_link_holonomy": "test_gh.py::test_axis_link_holonomy",
    "gh.center_flux": "test_gh.py::test_center_flux",
    "gh.v_laplacian_fd": "test_gh.py::test_potential_harmonic_off_centers",
    "quadrature.QuadraticTriple.d_varpi":
        "test_quadrature.py::test_random_closed_quadratic_is_closed",
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


def test_cli_and_suites_leave_scipy_linalg_unloaded(tmp_path):
    # the triple families take exp(t M) in closed form and the closedness
    # null space is exact Fraction elimination, so `verify --suite all`
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
