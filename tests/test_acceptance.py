"""Acceptance gate: seven headline checks, one timed test per criterion.

Run ``pytest tests/test_acceptance.py -v`` to get a single pass/fail line
for each criterion.  Every criterion also enforces a wall-clock budget so
the gate stays cheap enough to run on every change.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ale_lab import connection, gh, harmonic, jets, obstruction, suites

GRID = [(k, lam) for k in (1, 2, 3) for lam in (0.5, 1.0, 2.0)]
BLOCK0 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _assert_suite(res) -> None:
    failing = [c.check_id for c in res.checks if not c.passed]
    assert res.passed, f"suite {res.suite} failing checks: {failing}"


def test_criterion_1_surface_constants_grid():
    """Quadrature on the exceptional surface reproduces the closed-form
    constants on a 3x3 (k, lambda) grid at 1e-6 relative accuracy."""
    t0 = time.perf_counter()
    for k, lam in GRID:
        config = gh.GHConfig.canonical(k, lam)
        k1 = k + 1

        vol = gh.vol_sigma(config)
        assert vol == pytest.approx(2.0 * math.pi * k1 * lam, rel=1e-6)

        int_m = gh.sigma_integrate(
            config, lambda x1: gh.moment_map(config, gh.axis_points(x1)))
        assert int_m == pytest.approx(math.pi * k1**3 * lam**2, rel=1e-6)

        int_phi1 = gh.sigma_integrate(
            config,
            lambda x1: harmonic.phi1_value(config, gh.axis_points(x1)))
        if k == 1:
            assert abs(int_phi1) < 1e-8
        else:
            assert int_phi1 == pytest.approx(
                -2.0 * math.pi * k1**2 * (k - 1) * lam**2, rel=1e-6)

        assert gh.moment_map(config, config.p1) == pytest.approx(
            k1 * lam, rel=1e-6)
        assert harmonic.s_ratio(harmonic.build_omega(config)) == pytest.approx(
            -k * lam, rel=1e-6)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_2_quadrature_suite():
    """Sphere moments, closed-triple pairing, and determinism checks."""
    t0 = time.perf_counter()
    _assert_suite(suites.suite_quadrature())
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_geometry_suite():
    """Multi-center metric: curvature, closed triple, Killing field, decay, flatness."""
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        _assert_suite(suites.suite_gh(k, 1.0))
    assert time.perf_counter() - t0 < 60.0


def test_criterion_4_harmonic_suite():
    """Square-integrable harmonic form: norm, asymptotics, pairings."""
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        _assert_suite(suites.suite_harmonic(k, 1.0))
    assert time.perf_counter() - t0 < 120.0


def test_criterion_5_obstruction_pipeline():
    """Jet-to-report pipeline: dual curvature routes, gauge invariance,
    vanishing structure of the first-order coefficients, the degenerate
    quadratic coefficient, and wall-side classification."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    consts1 = obstruction.ak_constants(1, 1.0)

    # dual curvature routes on random jets
    for seed in range(20):
        jet = jets.random_jet2(seed)
        sym = jets.curvature_from_jet2(jet)
        num = connection.curvature_block_of_metric(
            jets.metric_fn_from_jets(jet, None), np.zeros(4))
        assert np.max(np.abs(sym.Rplus - num.Rplus)) < 1e-6
        assert np.max(np.abs(sym.Rminus - num.Rminus)) < 1e-6
        assert abs(4.0 * np.trace(sym.Rplus - num.Rplus)) < 1e-6

    # cubic gauge shifts leave the curvature block untouched
    for seed in range(20):
        jet = jets.random_jet2(seed)
        shift = jets.delta_star(0.05 * rng.normal(size=(4, 4, 4, 4)))
        shifted = jets.Jet2.from_array(jet.H + shift)
        assert np.max(np.abs(jets.curvature_from_jet2(jet).Rplus
                             - jets.curvature_from_jet2(shifted).Rplus)) < 1e-10

    # first-order coefficients vanish exactly when the first row does
    for seed in range(20):
        degenerate = jets.curvature_from_jet2(jets.jet2_first_row_zero(seed)).Rplus
        assert np.max(np.abs(
            obstruction.lambda_obstruction(degenerate, consts1))) < 1e-8
        generic = jets.curvature_from_jet2(jets.random_jet2(seed)).Rplus
        assert np.max(np.abs(
            obstruction.lambda_obstruction(generic, consts1))) > 1e-8

    # canonical quadratic coefficient
    report = obstruction.compute_report(
        jets.jet2_with_block(BLOCK0, seed=3), obstruction.ak_constants(1, 1.0),
        quartic=jets.random_jet4(0), apply_gauge=True)
    assert report.content["mu1"] == pytest.approx(4.0, abs=1e-8)

    # the two-cluster formula reduces to the generic one at k = 1
    for _ in range(100):
        sub = rng.normal(size=(2, 2))
        block = np.zeros((3, 3))
        block[1:, 1:] = sub + sub.T
        d = float(rng.normal())
        minor = obstruction.minor_of(block)
        assert abs(obstruction.mu1_Ak(minor, d, consts1)
                   - obstruction.mu1_generic(minor, consts1)) < 1e-12

    # pinned quartic invariant collapses the two-cluster coefficient
    for k in (2, 3):
        c = obstruction.ak_constants(k, 1.0)
        sub = rng.normal(size=(2, 2))
        block = np.zeros((3, 3))
        block[1:, 1:] = sub + sub.T
        minor = obstruction.minor_of(block)
        d = 16.0 * (k - 1) / (k + 1) * minor
        expected = 4.0 * k * c.vol_sigma**2 / ((k + 1) * c.omega_norm2) * minor
        assert abs(obstruction.mu1_Ak(minor, d, c) - expected) < 1e-10

    # surface-integral identity between the model constants
    for k, lam in GRID:
        c = obstruction.ak_constants(k, lam)
        assert c.int_m_omega == pytest.approx(
            math.pi * (k + 1) * (c.vol_sigma / (2.0 * math.pi)) ** 2, rel=1e-8)

    # the side of det of the negated block: diag(-d, 1, 1) has it equal to d
    for det_bold, side in ((+0.5, "einstein_side"), (0.0, "on_wall"), (-0.5, "empty_side")):
        block = np.diag([-det_bold, 1.0, 1.0])
        assert obstruction.wall_side(obstruction.bold_det_from_block(block), False) == side
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_deformation_suite():
    """Gauged deformation families and their finite-difference oracles."""
    t0 = time.perf_counter()
    _assert_suite(suites.suite_deformation(1, 1.0))
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_quartic_invariant_routes():
    """Second-derivative invariant: contour and polynomial routes agree,
    symmetry averaging kills it, and quintic gauge shifts leave it
    unchanged."""
    t0 = time.perf_counter()

    for seed in range(10):
        jet = jets.jet2_first_row_zero(seed)
        quartic = jets.random_jet4(seed + 100)
        sym = jets.d2_invariant_symbolic(jet, quartic)
        # the contour route: 7.2e-15 relative at worst on these jets
        contour = jets.d2_invariant_fd(jet, quartic)
        assert abs(sym - contour) <= 1e-12 * max(1.0, abs(sym))

    # averaging over the order-8 quaternion group forces the invariant to 0
    q8 = jets.binary_dihedral_group()
    for seed in (0, 1):
        jet = jets.Jet2.from_array(jets.average(jets.jet2_first_row_zero(seed).H, q8))
        quartic = jets.Jet4.from_array(jets.average(jets.random_jet4(seed + 50).H2, q8))
        assert abs(jets.d2_invariant_symbolic(jet, quartic)) < 1e-8

    # invariance under symmetry-compatible quintic gauge shifts
    mats = jets.cyclic_group(2)
    for seed in (0, 1):
        jet = jets.Jet2.from_array(jets.average(jets.jet2_first_row_zero(seed).H, mats))
        quartic = jets.Jet4.from_array(jets.average(jets.random_jet4(seed + 50).H2, mats))
        x5 = jets.average(jets.random_quintic_field(seed + 200), mats)
        shifted = jets.Jet4.from_array(
            quartic.H2 + jets.delta_star(x5))
        base = jets.d2_invariant_symbolic(jet, quartic)
        moved = jets.d2_invariant_symbolic(jet, shifted)
        assert abs(moved - base) <= 1e-6 * max(1.0, abs(base))

    assert time.perf_counter() - t0 < 60.0
