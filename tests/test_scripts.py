"""Smoke runs of the scripts under scripts/: the API guards count them as
callers, so they must run."""

from __future__ import annotations

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_verify_passes_the_quadrature_suite(capsys):
    assert _load("run_verify").main(["--suite", "quadrature"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("k=1 lam=1 quadrature: PASS (")
    assert lines[-1].startswith("PASS in ")


def test_decay_profiles_prints_fitted_exponents(capsys):
    assert _load("decay_profiles").main(["--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # header, three radii, exponents
    assert lines[-1].startswith("fitted exponents: metric ")
