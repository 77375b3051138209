"""Shared fixtures: cached configurations and harmonic-form bundles, a
call recorder for the evaluation pins, and one thread per BLAS/OpenMP
call.

Building the harmonic-form bundle runs Sigma quadrature for the
normalization constant, so bundles are cached per (k, lam) for the whole
session.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

from ale_lab.cli import _configure_threads

# The tests call the library directly, outside the CLI: size the BLAS/OpenMP
# pools as the CLI does, one thread unless the environment sets a count.
# This has to happen before numpy loads.
_configure_threads()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ale_lab import gh, harmonic  # noqa: E402


@pytest.fixture(scope="session")
def canonical():
    cache: dict[tuple[int, float], gh.GHConfig] = {}

    def get(k: int, lam: float = 1.0) -> gh.GHConfig:
        key = (k, lam)
        if key not in cache:
            cache[key] = gh.GHConfig.canonical(k, lam)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def omega_bundle(canonical):
    cache: dict[tuple[int, float], harmonic.HarmonicFormBundle] = {}

    def get(k: int, lam: float = 1.0) -> harmonic.HarmonicFormBundle:
        key = (k, lam)
        if key not in cache:
            cache[key] = harmonic.build_omega(canonical(k, lam))
        return cache[key]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def point_shape(*args: Any, **kwargs: Any) -> tuple[int, ...]:
    """The default record of a call: the shape of its last positional
    argument, the point stack of an evaluation."""
    return np.shape(args[-1])


class Recorder:
    """Call logs for the evaluation pins.

    record(owner, name) replaces owner.name, and each binding of the same
    object under that name in an ale_lab module, by one wrapper that logs
    every call before it makes it; record.wrap(fn) wraps a plain callable.
    A call's record is entry(*args, **kwargs), by default its point stack's
    shape.  It goes to the list returned for its target and, as (name,
    record), to record.log, the calls of every target in call order.
    monkeypatch restores each binding at teardown.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self._monkeypatch = monkeypatch
        self.log: list[tuple[str, Any]] = []

    def wrap(self, fn: Callable, entry: Callable = point_shape,
             name: str = "") -> tuple[Callable, list]:
        calls: list = []

        def logged(*args, **kwargs):
            record = entry(*args, **kwargs)
            calls.append(record)
            self.log.append((name, record))
            return fn(*args, **kwargs)

        return logged, calls

    def __call__(self, owner: Any, name: str, entry: Callable = point_shape) -> list:
        target = getattr(owner, name)
        logged, calls = self.wrap(target, entry, name)
        self._monkeypatch.setattr(owner, name, logged)
        for key, module in list(sys.modules.items()):
            if key.partition(".")[0] == "ale_lab" and getattr(module, name, None) is target:
                self._monkeypatch.setattr(module, name, logged)
        return calls


@pytest.fixture()
def record(monkeypatch):
    return Recorder(monkeypatch)
