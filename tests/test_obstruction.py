"""Obstruction coefficients from curvature blocks: model constants,
first-order coefficients, the degenerate-regime quadratic coefficient,
the next-order coefficient, determinant leading term, wall-side
classification, and the end-to-end report."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ale_lab import cli, jets, obstruction
from ale_lab.errors import MissingConstants, SchemaError

BLOCK0 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
MINOR0 = obstruction.minor_of(BLOCK0)  # 1


# --- model constants ----------------------------------------------------------

@pytest.mark.parametrize("k,lam", [(1, 1.0), (2, 0.5), (3, 2.0)])
def test_ak_constants_closed_forms(k, lam):
    c = obstruction.ak_constants(k, lam)
    k1 = k + 1
    assert c.vol_sigma == pytest.approx(2 * math.pi * k1 * lam, rel=1e-6)
    assert c.omega_norm2 == pytest.approx(4 * math.pi**2 * k1 / k, rel=1e-6)
    assert c.int_m_omega == pytest.approx(math.pi * k1**3 * lam**2, rel=1e-6)
    assert c.m_p1 == pytest.approx(k1 * lam, rel=1e-6)
    # surface-integral identity tying the moment integral to the volume
    assert c.int_m_omega == pytest.approx(
        math.pi * k1 * (c.vol_sigma / (2 * math.pi)) ** 2, rel=1e-8
    )


def test_ak_constants_provenance():
    # the norm is its closed form, not a quadrature
    provenance = {name: entry["provenance"]
                  for name, entry in obstruction.ak_constants(2, 1.0).as_dict().items()}
    assert provenance == {"vol_sigma": "computed", "omega_norm2": "closed-form",
                          "int_m_omega": "computed", "m_p1": "computed"}


def test_constants_from_overrides():
    overrides = {"vol_sigma": 4 * math.pi, "omega_norm2": 8 * math.pi**2,
                 "int_m_omega": 8 * math.pi, "m_p1": 2.0}
    c = obstruction.constants_from_overrides(overrides)
    assert c.vol_sigma == pytest.approx(4 * math.pi)
    assert c.k is None
    assert obstruction.constants_from_overrides(overrides, k=2).k == 2
    with pytest.raises(MissingConstants):
        obstruction.constants_from_overrides({"vol_sigma": 1.0})


# --- first-order coefficients ---------------------------------------------------

def test_lambda_vanishes_iff_first_row():
    c = obstruction.ak_constants(1, 1.0)
    lam_vec = obstruction.lambda_obstruction(BLOCK0, c)
    assert np.max(np.abs(lam_vec)) < 1e-14
    generic = jets.curvature_from_jet2(jets.random_jet2(3)).Rplus
    assert np.max(np.abs(obstruction.lambda_obstruction(generic, c))) > 1e-6


def test_lambda_frozen_value():
    c = obstruction.ak_constants(1, 1.0)
    block = BLOCK0.copy()
    block[0, 0] = 0.25
    lam_vec = obstruction.lambda_obstruction(block, c)
    # pi * vol / norm2 * 2 * row = pi * 4pi / (8 pi^2) * 2 * 0.25
    assert lam_vec[0] == pytest.approx(0.25, rel=1e-9)


# --- quadratic coefficient -------------------------------------------------------

def test_mu1_canonical_value():
    c = obstruction.ak_constants(1, 1.0)
    assert obstruction.mu1_Ak(MINOR0, 0.0, c) == pytest.approx(4.0, rel=1e-9)
    assert obstruction.mu1_generic(MINOR0, c) == pytest.approx(4.0, rel=1e-9)


def test_mu1_two_cluster_matches_generic_at_k1():
    c = obstruction.ak_constants(1, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        sub = rng.normal(size=(2, 2))
        block = np.zeros((3, 3))
        block[1:, 1:] = sub + sub.T
        d = float(rng.normal())
        minor = obstruction.minor_of(block)
        assert obstruction.mu1_Ak(minor, d, c) == pytest.approx(
            obstruction.mu1_generic(minor, c), abs=1e-12
        )


def test_mu1_quartic_identity():
    # with the quartic invariant pinned to 16(k-1)/(k+1) * minor, the
    # two-cluster quadratic coefficient collapses to
    # 4 k vol^2 / ((k+1) norm2) * minor
    rng = np.random.default_rng(5)
    for k, lam in [(2, 1.0), (3, 0.7)]:
        c = obstruction.ak_constants(k, lam)
        sub = rng.normal(size=(2, 2))
        block = np.zeros((3, 3))
        block[1:, 1:] = sub + sub.T
        minor = obstruction.minor_of(block)
        d = 16.0 * (k - 1) / (k + 1) * minor
        expected = 4.0 * k * c.vol_sigma**2 / ((k + 1) * c.omega_norm2) * minor
        assert obstruction.mu1_Ak(minor, d, c) == pytest.approx(expected, abs=1e-10)


# --- next-order coefficient -------------------------------------------------------

def test_A_forms_agree():
    c = obstruction.ak_constants(2, 1.0)
    for d in (-3.0, 0.0, 8.0):
        closed = obstruction.A_coefficient(MINOR0, d, c, form="closed")
        inter = obstruction.A_coefficient(MINOR0, d, c, form="intermediate")
        assert closed == pytest.approx(inter, abs=1e-10)
    with pytest.raises(SchemaError):
        obstruction.A_coefficient(MINOR0, 0.0, c, form="bogus")


def test_A_frozen_example():
    c = obstruction.ak_constants(1, 1.0)
    # k = 1: the minor term drops and A = (vol / 2 pi) * (2 / 16) * D = D / 4
    assert obstruction.A_coefficient(MINOR0, 8.0, c) == pytest.approx(2.0, rel=1e-9)
    assert obstruction.A_coefficient(MINOR0, 0.0, c) == pytest.approx(0.0, abs=1e-12)


def test_det_leading():
    assert obstruction.det_leading(MINOR0, 2.0) == pytest.approx(2.0)


# --- wall side --------------------------------------------------------------------

def test_wall_side_signs():
    assert obstruction.wall_side(+0.5, False) == "einstein_side"
    assert obstruction.wall_side(0.0, False) == "on_wall"
    assert obstruction.wall_side(-0.5, False) == "empty_side"
    assert obstruction.wall_side(1e-8, False) == "on_wall"
    for value in (float("nan"), float("inf"), float("-inf")):
        for degenerate in (False, True):
            with pytest.raises(SchemaError):
                obstruction.wall_side(value, degenerate)
    # a first row inside the degenerate-regime rule, and det -2e-8 beyond the floor
    degenerate = np.array([[1e-8, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, -1.0]])
    assert obstruction.first_row_vanishes(degenerate)
    det_bold = obstruction.bold_det_from_block(degenerate)
    assert obstruction.wall_side(det_bold, False) == "einstein_side"
    assert obstruction.wall_side(det_bold, True) == "on_wall"


def _pure_gauge_jet(seed):
    """delta* of a random cubic field: R_+ is zero but for rounding."""
    return jets.Jet2(H=jets.delta_star(0.05 * np.random.default_rng(seed).normal(size=(4,) * 4)))


@pytest.mark.parametrize("scale", [1e-8, 1e-2, 1.0, 1e2, 1e4])
def test_wall_side_and_first_row_rule_do_not_depend_on_units(scale):
    # the first row and det are measured in units of the jet's largest
    # entry: random_jet2(3) scaled by 0.01 once read on_wall, and a block
    # measured against itself reads a pure-gauge jet's rounding as a nonzero
    # first row and a det of either sign
    constants = obstruction.ak_constants(1, 1.0)
    for jet, side, degenerate in ((jets.random_jet2(3), "einstein_side", False),
                                  (jets.jet2_first_row_zero(3), "on_wall", True),
                                  (_pure_gauge_jet(4), "on_wall", True),
                                  (_pure_gauge_jet(5), "on_wall", True)):
        report = obstruction.compute_report(jets.Jet2(H=scale * jet.H), constants).content
        assert report["wall_side"] == side
        assert (report["mu1"] is not None) == degenerate
        assert obstruction.first_row_vanishes(
            obstruction.in_jet_units(np.array(report["Rplus_block"]), scale * jet.H)) == degenerate


def test_bold_det_is_negated_det():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(3, 3))
    b = b + b.T
    assert obstruction.bold_det_from_block(b) == pytest.approx(-np.linalg.det(b))


# --- end-to-end report ------------------------------------------------------------

def test_report_degenerate_branch():
    jet = jets.jet2_with_block(BLOCK0, seed=3)
    quartic = jets.random_jet4(0)
    report = obstruction.compute_report(jet, obstruction.ak_constants(1, 1.0), quartic=quartic,
                                        apply_gauge=True).content
    assert report["mu1"] == pytest.approx(4.0, abs=1e-9)
    assert np.max(np.abs(report["lambda"])) < 1e-7
    assert report["D"] is not None
    assert report["wall_side"] == "on_wall"  # the degenerate block has det 0
    assert report["first_row_norm"] < 1e-8


def test_report_nondegenerate_branch():
    jet = jets.random_jet2(5)
    report = obstruction.compute_report(jet, obstruction.ak_constants(1, 1.0)).content
    assert report["mu1"] is None and report["D"] is None
    assert np.max(np.abs(report["lambda"])) > 1e-8
    assert report["first_row_norm"] > 1e-8


def test_report_gauge_invariance():
    rng = np.random.default_rng(7)
    constants = obstruction.ak_constants(1, 1.0)
    for seed in range(20):
        jet = jets.random_jet2(seed)
        xfield = 0.05 * rng.normal(size=(4, 4, 4, 4))
        shifted = jets.Jet2.from_array(jet.H + jets.delta_star(xfield))
        r0 = obstruction.compute_report(jet, constants).content
        r1 = obstruction.compute_report(shifted, constants).content
        for key in ("Rplus_block", "lambda"):
            assert np.max(np.abs(np.array(r0[key]) - np.array(r1[key]))) < 1e-10, key


def test_report_builds_and_checks_the_block_once(monkeypatch, tmp_path, capsys):
    # the report decides the regime, the floor and the side for every output:
    # per obstruct run one R_+, one block check, one regime test and one
    # determinant in jet units, which the line prints off the floor; the CLI
    # takes none of its own
    names = {"curvature_from_jet2": jets, "_check_block": obstruction,
             "first_row_vanishes": obstruction, "bold_det_from_block": obstruction}
    calls = dict.fromkeys(names, 0)

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # CI's canonical jet, on the floor; a generic jet; a degenerate first row
    # whose determinant in jet units (-3.5e-8) is above the floor
    jet, quartic = jets.jet2_with_block(np.diag([0.0, 1.0, 1.0]), seed=0), jets.random_jet4(0)
    cases = ((jet, quartic, "on_wall", False), (jets.random_jet2(5), None, "empty_side", True),
             (jets.jet2_with_block(np.diag([5e-9, 1.0, 1.0]), seed=4), None, "on_wall", True))
    for name, module in names.items():
        counted(module, name)
    report = obstruction.compute_report(jet, obstruction.ak_constants(1, 1.0), quartic=quartic)
    assert report.content["mu1"] is not None and report.content["D"] is not None
    assert report.det_unit is None
    assert calls == {"curvature_from_jet2": 1, "_check_block": 1, "first_row_vanishes": 1,
                     "bold_det_from_block": 1}

    path = tmp_path / "jet.json"
    for jet, quartic, side, printed in cases:
        raw = {"k": 1, "H": jet.H.tolist()}
        if quartic is not None:
            raw["H2"] = quartic.H2.tolist()
        path.write_text(json.dumps(raw), encoding="utf-8")
        calls.update(dict.fromkeys(names, 0))
        assert cli.main(["obstruct", "--jet", str(path), "--report", str(tmp_path / "o.json")]) == 0
        assert calls == {"curvature_from_jet2": 1, "_check_block": 1, "first_row_vanishes": 1,
                         "bold_det_from_block": 1}, side
        line = capsys.readouterr().out
        assert line.startswith(f"wall side: {side} ("), line
        assert ("det of the negated block = " in line) == printed, line


@settings(max_examples=20, deadline=None)
@given(st.floats(0, 2 * math.pi), st.integers(0, 100))
def test_rotation_equivariance_about_first_direction(theta, seed):
    # conjugating the block by a rotation fixing the first self-dual
    # direction rotates the first-order coefficients and preserves the
    # degenerate-regime scalars
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(3, 3))
    block = b + b.T
    q = np.array([
        [1.0, 0.0, 0.0],
        [0.0, math.cos(theta), -math.sin(theta)],
        [0.0, math.sin(theta), math.cos(theta)],
    ])
    rotated = q.T @ block @ q
    c = obstruction.ak_constants(2, 1.0)
    lam0 = obstruction.lambda_obstruction(block, c)
    lam1 = obstruction.lambda_obstruction(rotated, c)
    assert np.allclose(lam1, lam0 @ q, atol=1e-10)
    # minor of the complementary sub-block is rotation invariant once the
    # first row vanishes
    block_deg = block.copy()
    block_deg[0, :] = 0.0
    block_deg[:, 0] = 0.0
    rotated_deg = q.T @ block_deg @ q
    assert obstruction.minor_of(rotated_deg) == pytest.approx(
        obstruction.minor_of(block_deg), abs=1e-10
    )
    assert obstruction.mu1_generic(obstruction.minor_of(rotated_deg), c) == pytest.approx(
        obstruction.mu1_generic(obstruction.minor_of(block_deg), c), abs=1e-9
    )


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 3.0), st.integers(0, 100))
def test_scaling_covariance(c_scale, seed):
    rng = np.random.default_rng(seed)
    sub = rng.normal(size=(2, 2))
    block = np.zeros((3, 3))
    block[1:, 1:] = sub + sub.T
    consts = obstruction.ak_constants(1, 1.0)
    base = obstruction.mu1_Ak(obstruction.minor_of(block), 0.0, consts)
    scaled = obstruction.mu1_Ak(obstruction.minor_of(c_scale * block), 0.0, consts)
    assert scaled == pytest.approx(c_scale**2 * base, rel=1e-9)


# --- metamorphic laws of the report ----------------------------------------------

_UNIT_QUATERNIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(lambda q: np.asarray(q) / np.linalg.norm(q))


def _left_mult_matrix(q):
    """Matrix of x -> q x on R^4 identified with the quaternions."""
    a, b, c, d = q
    return np.array([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]])


def _rplus(jet):
    return np.array(obstruction.compute_report(jet, obstruction.ak_constants(2, 1.0))
                    .content["Rplus_block"])


@settings(max_examples=10, deadline=None)
@given(_UNIT_QUATERNIONS, _UNIT_QUATERNIONS, st.integers(0, 100))
def test_rplus_is_right_invariant_and_left_conjugated(p, q, seed):
    # right multiplication by a unit quaternion fixes every self-dual form,
    # so it leaves R+ fixed; left multiplication rotates the self-dual forms
    # and conjugates R+ by an SO(3) rotation
    left, right = _left_mult_matrix(p), jets.right_mult_matrix(q)
    assert np.max(np.abs(left @ right - right @ left)) < 1e-15  # the two actions commute
    jet = jets.random_jet2(seed)
    block = _rplus(jet)
    assert np.max(np.abs(_rplus(jets.pullback_jet2(jet, right)) - block)) < 1e-14
    conjugated = _rplus(jets.pullback_jet2(jet, left))
    assert np.max(np.abs(np.linalg.eigvalsh(conjugated) - np.linalg.eigvalsh(block))) < 1e-14
    assert np.linalg.det(conjugated) == pytest.approx(np.linalg.det(block), rel=1e-12, abs=1e-18)


@pytest.mark.parametrize("degenerate", [False, True], ids=["generic", "degenerate"])
def test_report_lambda_weights(degenerate):
    # x -> lam x pulls the lam-scaled model back to lam times the unit one:
    # lambda, A and the t^4 coefficient scale as lam, mu1 and mu1_generic as
    # lam^2, and the block, D and the wall side do not move
    if degenerate:
        jet, quartic = jets.gauge_project(jets.jet2_first_row_zero(2)).jet, jets.random_jet4(4)
    else:
        jet, quartic = jets.random_jet2(3), None
    weights = {"lambda": 1, "A": 1, "det_leading_t4_coefficient": 1,
               "mu1": 2, "mu1_generic": 2, "Rplus_block": 0, "minor": 0, "D": 0}
    one = obstruction.compute_report(jet, obstruction.ak_constants(2, 1.0), quartic).content
    three = obstruction.compute_report(jet, obstruction.ak_constants(2, 3.0), quartic).content
    assert three["wall_side"] == one["wall_side"]
    for key, weight in weights.items():
        if one[key] is None:
            assert three[key] is None, key
            continue
        expected = 3.0**weight * np.asarray(one[key])
        assert np.allclose(three[key], expected, rtol=1e-12, atol=1e-15), key


def _u1_actions(theta):
    """Left and right multiplication by e^(i theta) = (cos theta, sin theta, 0, 0)."""
    unit = [math.cos(theta), math.sin(theta), 0.0, 0.0]
    return {"left": _left_mult_matrix(unit), "right": jets.right_mult_matrix(unit)}


@settings(max_examples=10, deadline=None)
@given(st.floats(0, 2 * math.pi), st.integers(0, 100))
def test_u1_actions_keep_the_first_direction_and_D(theta, seed):
    # e^(i theta) on either side fixes the first self-dual form: on the left
    # it rotates the other two, on the right it fixes all three; so R+_00,
    # the minor R22 R33 - R23^2 and first_row_norm, the length of the first
    # row, stay, and in the degenerate regime, where the (1, 1, -1, -1) split
    # is kept, so does D
    generic = jets.random_jet2(seed)
    jet = jets.gauge_project(jets.jet2_first_row_zero(seed)).jet
    quartic = jets.random_jet4(seed)
    block = _rplus(generic)
    constants = obstruction.ak_constants(2, 1.0)
    d_one = obstruction.compute_report(jet, constants, quartic).content["D"]
    for side, mat in _u1_actions(theta).items():
        moved = _rplus(jets.pullback_jet2(generic, mat))
        assert moved[0, 0] == pytest.approx(block[0, 0], abs=1e-15), side
        assert obstruction.minor_of(moved) == pytest.approx(obstruction.minor_of(block),
                                                            abs=1e-15), side
        assert obstruction.first_row_norm(moved) == pytest.approx(
            obstruction.first_row_norm(block), abs=1e-15), side
        d_moved = obstruction.compute_report(
            jets.pullback_jet2(jet, mat), constants,
            jets.Jet4.from_array(jets.average(quartic.H2, [mat]))).content["D"]
        assert d_moved == pytest.approx(d_one, abs=1e-13), side


@settings(max_examples=10, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 100), st.integers(0, 100))
def test_lambda_and_rplus_are_linear_in_H(a, b, seed_a, seed_b):
    one, two = jets.random_jet2(seed_a), jets.random_jet2(seed_b)
    mixed = jets.Jet2.from_array(a * one.H + b * two.H)
    constants = obstruction.ak_constants(2, 1.0)
    r_one, r_two, r_mixed = (obstruction.compute_report(j, constants).content
                             for j in (one, two, mixed))
    for key in ("Rplus_block", "lambda"):
        want = a * np.array(r_one[key]) + b * np.array(r_two[key])
        assert np.max(np.abs(np.array(r_mixed[key]) - want)) < 1e-14, key
