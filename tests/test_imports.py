"""Static check: every module of the package uses each name it imports."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ale_lab"


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


def test_unused_imports_detects_a_stray_name():
    source = "import math\nfrom typing import Callable, Sequence\nx: Callable = math.pi\n"
    assert unused_imports(source) == ["line 2: Sequence"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_and_suites_leave_scipy_linalg_unloaded():
    # only the exponential families use scipy.linalg (a quarter second to
    # import), so `verify --suite gh` and `--suite harmonic` never pay for it
    code = "import sys, ale_lab.cli, ale_lab.suites; print('scipy.linalg' in sys.modules)"
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
