"""One metric rule: forms.metric_inverse is the package's one checked
inversion of a metric stack, so a NaN or singular metric raises
SingularMetric wherever a curvature is taken from it."""

from __future__ import annotations

import ast
import pathlib
import warnings

import numpy as np
import pytest

from ale_lab import connection, deformation, fd, forms, gh, jets, suites
from ale_lab.errors import SingularMetric

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ale_lab"

# (module, function) of each np.linalg.inv / det outside forms: neither
# inverts a metric
NOT_A_METRIC = {
    ("harmonic", "_cone_deviation", "inv"): "the cone coframe, to read g - g_cone in its frame",
    ("obstruction", "bold_det_from_block", "det"): "the 3x3 curvature block",
}


def linalg_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing top-level function, inv or det) of every np.linalg.inv and
    np.linalg.det the module refers to; an import of either from
    numpy.linalg counts under the name "import"."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and node.attr in ("inv", "det")
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append((getattr(stmt, "name", "<module>"), node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found += [("import", a.name) for a in node.names if a.name in ("inv", "det")]
    return found


def test_metric_inverses_are_taken_only_in_forms():
    source = ("import numpy as np\nfrom numpy.linalg import det\n"
              "def f(g):\n    return np.linalg.inv(g), np.linalg.solve(g, g)\n")
    assert linalg_calls(source) == [("import", "det"), ("f", "inv")]
    outside = {(path.stem, fn, kind)
               for path in sorted(SRC.glob("*.py")) if path.stem != "forms"
               for fn, kind in linalg_calls(path.read_text(encoding="utf-8"))}
    assert outside == set(NOT_A_METRIC)


# parameter names under which a function takes a metric or a bare g^{-1}
METRIC_PARAMS = {"metric", "metrics", "g", "ginv"}
# the two forms functions that turn a metric or a triple into the pair
PAIR_SOURCES = {"metric_inverse", "metric_from_triple"}


def test_forms_takes_the_metric_only_as_the_pair():
    # every other public operation takes inverse = metric_inverse(g) and
    # inverts nothing itself
    tree = ast.parse((SRC / "forms.py").read_text(encoding="utf-8"))
    public = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    takes_metric = {name for name, fn in public.items()
                    if METRIC_PARAMS & {a.arg for a in fn.args.args + fn.args.kwonlyargs}}
    inverts = {name for name, fn in public.items() for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "metric_inverse"}
    assert takes_metric <= PAIR_SOURCES
    assert inverts <= PAIR_SOURCES
    for name in ("hodge_star", "split_sd", "project_with", "J_with"):
        assert public[name].args.args[0].arg == "inverse"


def _nan_metric(y):
    return np.full(np.shape(y)[:-1] + (4, 4), np.nan)


def _flat_metric(y):
    return np.broadcast_to(np.eye(4), np.shape(y)[:-1] + (4, 4))


def _singular_metric(y):
    return np.broadcast_to(np.diag([1.0, 1.0, 1.0, 0.0]), np.shape(y)[:-1] + (4, 4))


@pytest.mark.parametrize("operator", [fd.christoffel, fd.ricci,
                                      connection.curvature_block_of_metric],
                         ids=["christoffel", "ricci", "curvature_block"])
def test_nan_or_singular_metric_raises_singular_metric(operator):
    x = np.array([[0.3, -0.2, 0.5, 0.1], [0.1, 0.4, -0.3, 0.2]])
    for metric in (_nan_metric, _singular_metric):
        with pytest.raises(SingularMetric, match="det g"):
            operator(metric, x)


def test_nan_metric_raises_singular_metric_before_any_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetric, match="det g = nan"):
            forms.metric_inverse(_nan_metric(np.zeros((2, 4))))


def test_flat_curvature_blocks_invert_nothing(record):
    calls = record(np.linalg, "inv")
    jets.curvature_from_jet2(jets.random_jet2(0))
    assert calls == []


def test_curvature_block_inverts_its_metric_once(record):
    # the Christoffels invert the nested stencil's metrics, the blocks the
    # metric at x, once for the frames and the raised bases together
    calls = record(np.linalg, "inv")
    connection.curvature_block_of_metric(_flat_metric, np.zeros((3, 4)))
    assert calls == [(3, 9, 4, 4), (3, 4, 4)]


def test_warm_verify_inverts_no_identity_metric(record):
    # the flat operations read forms.FLAT_INVERSE
    suites.run_suites(list(suites.SUITE_NAMES), 1, 1.0)
    calls = record(forms, "metric_inverse", entry=np.asarray)
    assert all(r.passed for r in suites.run_suites(list(suites.SUITE_NAMES), 1, 1.0))
    assert [g.shape for g in calls if np.all(g == np.eye(4))] == []
    # in suite order: four stacks in gh, four in harmonic, none in
    # quadrature and six in deformation
    assert [g.shape for g in calls] == [
        (20, 9, 4, 4), (6, 9, 4, 4), (6, 8, 4, 4), (4, 9, 4, 4),
        (5, 4, 4), (3, 8, 4, 4), (1, 3, 6, 8, 4, 4), (9, 4, 4),
        (2, 9, 5, 4, 4), (9, 5, 4, 4), (2, 9, 5, 4, 4), (2, 5, 4, 4), (3, 9, 4, 4), (4, 6, 4, 4)]


def test_moment_connection_checks_invert_each_point_stack_once(record):
    # gh.metric_at's pair on the stencil, the points and their eight
    # neighbours, serves the codifferential; the triple at the points
    # inverts nothing
    config = gh.GHConfig.canonical(1, 1.0)
    coeff = np.array([[0.0, 0.0, 0.0], [0.0, 0.7, -0.3], [0.0, -0.3, 0.2]])
    x4 = np.array([[1.2, 0.9, 0.5, 0.4], [-0.4, 1.1, -0.9, 0.4], [0.6, -1.3, 1.0, 0.4]])
    calls = record(forms, "metric_inverse")
    deformation.moment_connection_checks(config, coeff, x4)
    assert calls == [(3, 9, 4, 4)]


def test_suite_harmonic_inverts_its_check_point_metrics_once(record):
    # gh.metric_at's pair serves the omega split and the alpha split; the
    # stacks counted are the check points' metrics or their first rows (the
    # fiber-shifted stencil points repeat these metrics in another stack)
    config = gh.GHConfig.canonical(1, 1.0)
    checks = gh.metric_matrix(config, suites._check_points(config, 5))
    suites.suite_harmonic(1, 1.0)
    calls = record(forms, "metric_inverse", entry=np.asarray)
    suites.suite_harmonic(1, 1.0)
    at_checks = [g.shape for g in calls
                 if g.ndim == 3 and np.array_equal(g, checks[:len(g)])]
    assert at_checks == [(5, 4, 4)]
