"""Shared fixtures: cached configurations and harmonic-form bundles, and
one thread per BLAS/OpenMP call.

Building the harmonic-form bundle runs Sigma quadrature for the
normalization constant, so bundles are cached per (k, lam) for the whole
session.
"""

from __future__ import annotations

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
