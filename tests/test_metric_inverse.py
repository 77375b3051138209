"""One metric rule: forms.metric_inverse is the package's one checked
inversion of a metric stack, so a NaN or singular metric raises
SingularMetric wherever a curvature is taken from it."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from ale_lab import connection, fd
from ale_lab.errors import SingularMetric

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ale_lab"

# (module, function) of each np.linalg.inv / det outside forms: neither
# inverts a metric
NOT_A_METRIC = {
    ("harmonic", "decay_profiles", "inv"): "the cone coframe, to read g - g_cone in its frame",
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


def _nan_metric(y):
    return np.full(np.shape(y)[:-1] + (4, 4), np.nan)


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
