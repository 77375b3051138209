"""Multi-center circle-fibered geometry: configuration validation, the
harmonic potential, metric structure, the symplectic triple, the moment
map, axis-link holonomy and center flux, and chart sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ale_lab import deformation, fd, forms, gh, harmonic, quadrature
from ale_lab.errors import AleLabError, CenterTooClose, OnDiracString, SchemaError
from ale_lab.forms import FormField


# --- configuration ----------------------------------------------------------

def test_canonical_layout():
    cfg = gh.GHConfig.canonical(3, 0.5)
    assert np.allclose(cfg.p0, [-1.5, 0.0, 0.0])
    assert np.allclose(cfg.p1, [0.5, 0.0, 0.0])
    assert cfg.weights.sum() == 4
    # weighted centroid at the origin
    assert np.allclose(cfg.weights @ cfg.positions, 0.0)
    assert cfg.segment == (-1.5, 0.5)


def test_config_validation():
    with pytest.raises(SchemaError):
        gh.GHConfig(k=2, lam=-1.0, centers=(((-2.0, 0, 0), 1), ((1.0, 0, 0), 2)))
    with pytest.raises(SchemaError):
        gh.GHConfig(k=2, lam=1.0, centers=(((-2.0, 0, 0), 1), ((1.0, 0, 0), 5)))
    with pytest.raises(SchemaError):
        gh.GHConfig.canonical(0, 1.0)
    for lam in (float("inf"), float("nan")):
        with pytest.raises(SchemaError, match="lambda"):
            gh.GHConfig.canonical(1, lam)
    with pytest.raises(SchemaError, match="coincides"):
        gh.GHConfig(k=1, lam=1.0, centers=(((0.0, 0, 0), 1), ((0.0, 0, 0), 1)))
    with pytest.raises(SchemaError, match="position"):
        gh.GHConfig(k=1, lam=1.0, centers=(((float("nan"), 0, 0), 1), ((1.0, 0, 0), 1)))
    for weight in (0, -1, 1.5):
        with pytest.raises(SchemaError, match="weight"):
            gh.GHConfig(k=1, lam=1.0, centers=(((-1.0, 0, 0), 2 - weight), ((1.0, 0, 0), weight)))


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.floats(0.1, 10.0),
    st.sampled_from(["lambda", "position", "weight", "coincident"]),
    st.sampled_from(_NON_FINITE + (0.0, -1.0)),
    st.sampled_from([0, -1, -3, 1.5]),
    st.integers(0, 1),
    st.integers(0, 2),
)
def test_bad_config_names_field(k, lam, fault, bad_real, bad_weight, idx, axis):
    # any non-finite, non-positive, coincident or badly weighted input stops
    # at construction with a library error that names the field
    centers = [[[-k * lam, 0.0, 0.0], 1], [[lam, 0.0, 0.0], k]]
    field = f"centers[{idx}]"
    if fault == "lambda":
        lam, field = bad_real, "lambda"
    elif fault == "position":
        centers[idx][0][axis] = _NON_FINITE[axis]
    elif fault == "weight":
        centers[idx][1] = bad_weight
    else:
        centers[1][0] = list(centers[0][0])
        field = "centers[1]"
    with pytest.raises(AleLabError) as info:
        gh.GHConfig(k=k, lam=lam, centers=tuple((tuple(p), n) for p, n in centers))
    assert field in str(info.value)
    if fault == "lambda":
        with pytest.raises(AleLabError, match="lambda"):
            gh.GHConfig(k=0, lam=lam, centers=(((0.0, 0.0, 0.0), 1),))


def test_domain_validation():
    cfg = gh.GHConfig.canonical(1, 1.0)
    with pytest.raises(CenterTooClose):
        gh.validate_base(cfg, np.array(cfg.p1))
    # north chart is singular along the negative-x1 ray below the simple center
    with pytest.raises(OnDiracString):
        gh.validate_base(cfg, np.array([-5.0, 0.0, 0.0]), patch="north")
    gh.validate_base(cfg, np.array([-5.0, 0.0, 0.0]), patch="south")


# --- potential and metric ---------------------------------------------------

def test_potential_matches_hand_sum():
    cfg = gh.GHConfig.canonical(2, 1.3)
    x = np.array([0.4, -0.9, 0.6])
    hand = 0.5 * sum(
        n / np.linalg.norm(x - np.asarray(p)) for p, n in cfg.centers
    )
    assert gh.eval_V(cfg, x) == pytest.approx(hand, rel=1e-14)
    step = 1e-6
    num_grad = np.array([
        (gh.eval_V(cfg, x + step * e) - gh.eval_V(cfg, x - step * e)) / (2 * step)
        for e in np.eye(3)
    ])
    assert np.allclose(gh.eval_V_grad(cfg, x), num_grad, atol=1e-7)


def test_potential_harmonic_off_centers():
    cfg = gh.GHConfig.canonical(3, 1.0)
    for x in ([0.5, 1.2, -0.3], [-2.0, 0.4, 0.9]):
        assert abs(gh.v_laplacian_fd(cfg, np.array(x))) < 1e-6


# three centers off the axis, weights 1, 1, 2 about the origin (k = 3)
OFF_AXIS = gh.GHConfig(k=3, lam=1.0, centers=(((-2.0, 1.0, 0.0), 1),
                                              ((1.0, -1.0, 0.5), 1),
                                              ((0.5, 0.0, -0.25), 2)))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _first_center(config):
    """The first center alone, the configuration of V0."""
    return gh.GHConfig(k=0, lam=config.lam, centers=config.centers[:1])


def _pass_points(case):
    """(config, (N, 3) points) of one case: the whole-space volume nodes, the
    shell nodes of the exact-form pairing or the core-surface nodes of the
    canonical configuration at k = 1, 2, 3 ("volume-2"), or random points of
    an off-axis one."""
    if case.startswith("off-axis"):
        cfg = OFF_AXIS_3 if case == "off-axis-3" else OFF_AXIS
        return cfg, gh.sample_chart_points(cfg, 64, seed=5, rho_min=0.2, rho_max=6.0,
                                           min_center_dist=0.2, min_axis_dist=0.0)[:, :3]
    rule, k = case.split("-")
    cfg = gh.GHConfig.canonical(int(k), 1.0)
    if rule == "axis":
        return cfg, gh.axis_points(gh.gauss_legendre(*cfg.segment, gh.SIGMA_ORDER)[0])
    shell = None if rule == "volume" else (6.0 * (cfg.k + 1), 12.0 * (cfg.k + 1))
    return cfg, np.concatenate([p for p, _ in quadrature.volume_blocks(cfg, shell)])


@pytest.mark.parametrize("case", ["volume-1", "volume-2", "volume-3", "shell-1", "shell-2",
                                  "shell-3", "axis-1", "axis-2", "axis-3", "off-axis",
                                  "off-axis-3"])
def test_grad_f_pass_is_the_quotient_rule_of_eval_V(case):
    # V and grad f bit for bit, so far within 1e-14: the pass takes the
    # operations of the two potentials up to exact factors of 2
    cfg, pts = _pass_points(case)
    first = _first_center(cfg)
    v, gv = gh.eval_V(cfg, pts), gh.eval_V_grad(cfg, pts)
    v0, gv0 = gh.eval_V(first, pts), gh.eval_V_grad(first, pts)
    quotient = (gv0 * v[:, None] - v0[:, None] * gv) / v[:, None] ** 2
    grads, v_pass = gh.grad_f_and_potential(cfg, pts)
    assert _same_bits(v_pass, v)
    assert _same_bits(np.stack(grads, axis=-1), quotient)
    # the components a caller reads are those of the whole gradient
    (g2,), _ = gh.grad_f_and_potential(cfg, pts, (1,))
    assert _same_bits(g2, grads[1])


def test_frame_sample_takes_J_on_first_read():
    # one structure alone, as the d^C fields take it, is that row of J
    cfg = gh.GHConfig.canonical(2, 1.0)
    sample = gh.metric_at(cfg, gh.sample_chart_points(cfg, 6, seed=4).reshape(2, 3, 4))
    assert "J" not in vars(sample)
    j1 = forms.J_from_form(sample.metric, sample.triple[..., 0, :])
    assert _same_bits(j1, sample.J[..., 0, :, :])
    assert sample.J is sample.J


def test_first_center_pass_gradients_match_finite_differences():
    pts = gh.sample_chart_points(OFF_AXIS, 16, seed=6, rho_min=0.5, rho_max=4.0,
                                 min_center_dist=0.5)
    grads, _ = gh.grad_f_and_potential(OFF_AXIS, pts[:, :3])
    grad = np.stack(grads, axis=-1)
    first = _first_center(OFF_AXIS)
    f = lambda x4: gh.eval_V(first, x4[..., :3]) / gh.eval_V(OFF_AXIS, x4[..., :3])
    partials = fd.all_partials(f, pts)  # (N, 4)
    err = np.linalg.norm(partials[:, :3] - grad, axis=-1) / np.linalg.norm(grad, axis=-1)
    assert np.max(err) < 1e-5
    assert np.all(partials[:, 3] == 0.0)


# three off-axis centers of weights 1, 1, 2 about the origin (k = 3)
OFF_AXIS_3 = gh.GHConfig(k=3, lam=1.0, centers=(((1.0, 0.5, -0.3), 1),
                                                ((-0.8, 0.2, 0.9), 1),
                                                ((-0.1, -0.35, -0.3), 2)))


def _reference_point_layer(config, x3, patch):
    """V, grad V, V0, grad V0, the eta components A_2, A_3, m and dm, written
    as before the center-major layout: over (..., centers, 3) offsets, with
    np.linalg.norm over the last axis and np.sum / einsum over the centers."""
    w = np.array(config.weights)
    diff = np.asarray(x3, dtype=float)[..., None, :] - np.array(config.positions)
    dists = np.linalg.norm(diff, axis=-1)
    sign = -1.0 if patch == "north" else 1.0
    rho_sq = diff[..., 1] ** 2 + diff[..., 2] ** 2
    on_axis = rho_sq == 0.0
    rho_sq = np.where(on_axis, 1.0, rho_sq)
    coeff = np.where(on_axis, 0.0,
                     0.5 * w * (diff[..., 0] / np.sqrt(diff[..., 0] ** 2 + rho_sq) + sign))
    eta1 = np.sum(coeff * (-diff[..., 2] / rho_sq), axis=-1)
    eta2 = np.sum(coeff * (diff[..., 1] / rho_sq), axis=-1)
    m = np.sum(w * dists, axis=-1)
    dm = np.einsum("...i,...ij->...j", w / dists, diff)
    q = diff / dists[..., None] ** 3
    return {
        "V": 0.5 * np.sum(w / dists, axis=-1),
        "grad V": -0.5 * np.einsum("c,...cd->...d", w, q),
        "V0": 0.5 * np.sum(w[:1] / dists[..., :1], axis=-1),
        "grad V0": -0.5 * np.einsum("c,...cd->...d", w[:1], q[..., :1, :]),
        "eta1": eta1, "eta2": eta2, "m": m, "dm": dm,
    }


def _point_layer(config, x3, patch):
    x3 = np.asarray(x3, dtype=float)
    _, v = gh.grad_f_and_potential(config, x3)
    gv = gh.eval_V_grad(config, x3)
    first = _first_center(config)
    v0, gv0 = gh.eval_V(first, x3), gh.eval_V_grad(first, x3)
    x4 = np.concatenate([x3, np.full(x3.shape[:-1] + (1,), 0.3)], axis=-1)
    v_eta, eta = gh.potential_and_eta(config, x4, patch)
    dm = gh.dm4(config, x3)
    assert _same_bits(v_eta, v) and _same_bits(gh.eval_V(config, x3), v)
    assert np.all(eta[..., 0] == 0.0) and np.all(eta[..., 3] == 1.0)
    assert np.all(dm[..., 3] == 0.0)
    return {"V": v, "grad V": gv, "V0": v0, "grad V0": gv0, "eta1": eta[..., 1],
            "eta2": eta[..., 2], "m": gh.moment_map(config, x3), "dm": dm[..., :3]}


def _layer_stacks(config, patch):
    """An (n, 3) stack with a point on the regular side of a center's axis
    ray, one point of it, and the stack repeated along a stride-0 node axis."""
    pos = np.array(config.positions)
    if patch == "north":
        on_ray = pos[np.argmax(pos[:, 0])] + [0.5, 0.0, 0.0]
    else:
        on_ray = pos[np.argmin(pos[:, 0])] - [0.5, 0.0, 0.0]
    pts = np.vstack([2.0 * np.random.default_rng(7).normal(size=(16, 3)), on_ray])
    return [pts, pts[3], deformation.node_points(np.zeros(2), pts)]


@pytest.mark.parametrize("patch", ["north", "south"])
@pytest.mark.parametrize("config", [gh.GHConfig.canonical(2, 1.0), OFF_AXIS_3],
                         ids=["canonical", "off-axis-3"])
def test_point_layer_is_bitwise_the_last_axis_expressions(config, patch):
    for x3 in _layer_stacks(config, patch):
        ref = _reference_point_layer(config, x3, patch)
        got = _point_layer(config, x3, patch)
        for name in ref:
            assert _same_bits(got[name], ref[name]), (name, np.shape(x3))


def test_validate_base_names_the_first_offending_point_and_its_center():
    pts = 2.0 * np.random.default_rng(8).normal(size=(6, 3))
    pos = np.array(OFF_AXIS_3.positions)
    near = pts.copy()
    near[3] = pos[2] + 1e-8
    near[5] = pos[0]
    with pytest.raises(CenterTooClose, match=r"within 1e-06 of center 2 ") as info:
        gh.validate_base(OFF_AXIS_3, near.reshape(2, 3, 3))
    assert str(info.value).startswith(f"point {near[3]} ")
    string = pts.copy()
    string[2] = pos[1] - [0.5, 0.0, 0.0]
    string[4] = pos[0] - [0.5, 0.0, 0.0]
    with pytest.raises(OnDiracString, match=r"-x1 ray of center at \(-0\.8, 0\.2, 0\.9\)") as info:
        gh.validate_base(OFF_AXIS_3, string, patch="north")
    assert str(info.value).startswith(f"point {string[2]} ")
    gh.validate_base(OFF_AXIS_3, string, patch="south")


def test_positions_and_weights_are_built_once_and_read_only():
    cfg = gh.GHConfig.canonical(2, 1.0)
    assert cfg.positions is cfg.positions and cfg.weights is cfg.weights
    with pytest.raises(ValueError):
        cfg.positions[0, 0] = 1.0
    with pytest.raises(ValueError):
        cfg.weights[0] = 2.0


def test_metric_determinant_is_V_squared():
    cfg = gh.GHConfig.canonical(2, 1.0)
    for x4 in ([1.2, 0.7, -0.4, 0.3], [-0.8, 1.5, 0.3, 2.1]):
        x4 = np.array(x4)
        g = gh.metric_matrix(cfg, x4)
        V = gh.eval_V(cfg, x4[:3])
        assert np.linalg.det(g) == pytest.approx(V**2, rel=1e-12)
        # positive definite
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_metric_fiber_independence():
    cfg = gh.GHConfig.canonical(1, 1.0)
    base = np.array([0.9, 0.4, -0.2])
    g1 = gh.metric_matrix(cfg, np.array([*base, 0.0]))
    g2 = gh.metric_matrix(cfg, np.array([*base, 2.5]))
    assert np.allclose(g1, g2)


def test_patches_agree_on_metric_invariants():
    cfg = gh.GHConfig.canonical(2, 1.0)
    x4 = np.array([0.4, 1.1, 0.8, 0.7])
    gn = gh.metric_matrix(cfg, x4, patch="north")
    gs = gh.metric_matrix(cfg, x4, patch="south")
    # the charts differ by a unit-determinant fiber-shifting transition,
    # so the determinant (= V^2) agrees while the matrices need not
    assert np.linalg.det(gn) == pytest.approx(np.linalg.det(gs), rel=1e-12)
    assert np.all(np.linalg.eigvalsh(gs) > 0)


def test_ricci_flat_sample():
    cfg = gh.GHConfig.canonical(2, 1.0)
    metric = gh.metric_fn(cfg)
    pts = gh.sample_chart_points(cfg, 5, seed=3, rho_min=1.5, rho_max=4.0,
                                 min_center_dist=0.8, min_axis_dist=0.8,
                                 string_cone_cos=0.45)
    for x4 in pts:
        assert np.max(np.abs(fd.ricci(metric, x4))) < 1e-5


def test_single_center_is_flat():
    cone = gh.GHConfig(k=0, lam=1.0, centers=(((0.0, 0.0, 0.0), 1),))
    metric = gh.metric_fn(cone)
    for x4 in gh.sample_chart_points(cone, 4, seed=1):
        assert np.max(np.abs(fd.riemann_lowered(metric, x4))) < 1e-5


# --- triple, moment map, Killing field --------------------------------------

def test_triple_closed_and_reconstructs_metric():
    cfg = gh.GHConfig.canonical(1, 1.0)
    x4 = gh.sample_chart_points(cfg, 1, seed=5, rho_min=1.5, rho_max=3.0,
                                string_cone_cos=0.45)[0]
    triple = gh.triple_field(cfg)
    g = forms.metric_from_triple(*triple(x4))
    assert np.allclose(g, gh.metric_matrix(cfg, x4), atol=1e-10)
    assert np.max(np.abs(fd.fd_d(triple, x4))) < 1e-5


def test_moment_potential_identity_second_and_third():
    # d(alpha_i) = omega_i for the second and third symplectic forms; the
    # function generating alpha is the same moment map whose Hamiltonian
    # form is the first symplectic form
    cfg = gh.GHConfig.canonical(2, 1.0)
    x4 = gh.sample_chart_points(cfg, 1, seed=2, rho_min=1.5, rho_max=3.0,
                                string_cone_cos=0.45)[0]
    alpha = FormField(1, lambda y: gh.alpha_covector(cfg, y)[..., 1:, :])
    dalpha = fd.fd_d(alpha, x4)
    assert np.max(np.abs(dalpha - gh.triple_field(cfg)(x4)[1:])) < 1e-5


def test_moment_values():
    cfg = gh.GHConfig.canonical(3, 0.5)
    # value at the heavy cluster point
    assert gh.moment_map(cfg, cfg.positions[1]) == pytest.approx(4 * 0.5, rel=1e-12)
    # gradient consistency
    x = np.array([0.7, 0.9, -0.4])
    step = 1e-6
    num = np.array([
        (gh.moment_map(cfg, x + step * e) - gh.moment_map(cfg, x - step * e)) / (2 * step)
        for e in np.eye(3)
    ])
    dm = gh.dm4(cfg, x)
    assert np.allclose(dm[..., :3], num, atol=1e-7)
    assert dm[..., 3] == 0.0


def test_killing_field():
    cfg = gh.GHConfig.canonical(1, 1.0)
    metric = gh.metric_fn(cfg)
    xi = gh.xi_fn(cfg)
    x4 = gh.sample_chart_points(cfg, 2, seed=4, rho_min=1.5, rho_max=3.0,
                                string_cone_cos=0.45)[1]
    res = fd.lie_derivative_metric(metric, xi, x4, h=5e-4)
    assert np.max(np.abs(res)) < 1e-5


# --- integrals, holonomy, flux ----------------------------------------------

def test_surface_volume_closed_form():
    for k, lam in [(1, 1.0), (2, 0.5), (3, 2.0)]:
        cfg = gh.GHConfig.canonical(k, lam)
        assert gh.vol_sigma(cfg) == pytest.approx(2 * math.pi * (k + 1) * lam, rel=1e-9)


@pytest.mark.parametrize("integrand,shape", [
    (lambda x1: 1.0, r"\(\)"),  # one value for the whole node array
    (lambda x1: x1[:, None] * np.ones(3), r"\(96, 3\)"),  # axis points, not values
])
def test_surface_integrand_shape_rejected(integrand, shape):
    cfg = gh.GHConfig.canonical(1, 1.0)
    with pytest.raises(SchemaError, match=rf"shape {shape} for 96 nodes"):
        gh.sigma_integrate(cfg, integrand)


@pytest.mark.parametrize("config", [
    gh.GHConfig(k=0, lam=1.0, centers=(((0.0, 0.0, 0.0), 1),)),
    harmonic.cone_config(gh.GHConfig.canonical(2, 1.0)),  # k = 2, one center of weight 3
], ids=["k0", "cone"])
def test_single_center_has_no_surface_or_volume_nodes(config):
    # the core surface and the spheroidal volume nodes sit on the segment
    # between two cluster points
    with pytest.raises(SchemaError, match="single-center"):
        gh.vol_sigma(config)
    with pytest.raises(SchemaError, match="one center"):
        next(quadrature.volume_blocks(config))


def test_segment_is_taken_from_the_cluster_points():
    # the canonical layout mirrored: the weight-2 center left of the simple one
    cfg = gh.GHConfig(k=2, lam=1.0, centers=(((2.0, 0.0, 0.0), 1), ((-1.0, 0.0, 0.0), 2)))
    assert cfg.segment == (-1.0, 2.0)
    assert gh.vol_sigma(cfg) == pytest.approx(2 * math.pi * 3, rel=1e-12)


def test_off_axis_cluster_points_are_rejected():
    # the core surface and the spheroidal volume rule are built about the
    # x1 axis; cluster points off it would be integrated about the wrong axis
    cfg = gh.GHConfig(k=1, lam=1.0, centers=(((0.0, -1.0, 0.0), 1), ((0.0, 1.0, 0.0), 1)))
    with pytest.raises(SchemaError, match="centers"):
        gh.sigma_integrate(cfg, np.ones_like)
    with pytest.raises(SchemaError, match="centers"):
        next(quadrature.volume_blocks(cfg))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.floats(0.3, 3.0))
def test_surface_volume_scales_linearly(k, lam):
    cfg = gh.GHConfig.canonical(k, lam)
    assert gh.vol_sigma(cfg) == pytest.approx(
        2 * math.pi * (k + 1) * lam, rel=1e-6
    )


def test_axis_link_holonomy():
    cfg = gh.GHConfig.canonical(2, 1.0)
    # a small loop around the axis between the clusters closes up only
    # after the full fiber period; beyond the outer center it contracts
    assert gh.axis_link_holonomy(cfg, -0.5) == pytest.approx(2 * math.pi, abs=1e-5)
    assert gh.axis_link_holonomy(cfg, -3.0) == pytest.approx(0.0, abs=1e-5)


def test_center_flux():
    cfg = gh.GHConfig.canonical(2, 1.0)
    assert gh.center_flux(cfg, 0, 0.3) == pytest.approx(-2 * math.pi, rel=1e-9)
    assert gh.center_flux(cfg, 1, 0.3) == pytest.approx(-4 * math.pi, rel=1e-9)


# --- sampling ---------------------------------------------------------------

def test_sample_chart_points_respects_exclusions():
    cfg = gh.GHConfig.canonical(3, 1.0)
    pts = gh.sample_chart_points(cfg, 30, seed=9, rho_min=1.5, rho_max=4.0,
                                 min_center_dist=0.8, min_axis_dist=0.8,
                                 string_cone_cos=0.45)
    assert pts.shape == (30, 4)
    for x3 in pts[:, :3]:
        r = np.linalg.norm(x3)
        assert 1.5 <= r <= 4.0 + 1e-12
        for pos in cfg.positions:
            assert np.linalg.norm(x3 - pos) >= 0.8 - 1e-12
        direction = x3 / r
        # outside the chart-string cone (north chart: negative-x1 cone)
        assert -direction[0] <= 0.45 + 1e-12


def test_sampling_deterministic():
    cfg = gh.GHConfig.canonical(1, 1.0)
    a = gh.sample_chart_points(cfg, 5, seed=11)
    b = gh.sample_chart_points(cfg, 5, seed=11)
    assert np.array_equal(a, b)


def _sample_by_offsets(config, count, seed=0, rho_min=0.5, rho_max=10.0,
                       min_center_dist=0.3, min_axis_dist=0.05, string_cone_cos=1.0):
    """The sampling loop with its distance test on the _offsets pass: the
    points and the number of candidates that test rejected."""
    rng = np.random.default_rng(seed)
    points, near = [], 0
    while len(points) < count:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        rho = rng.uniform(rho_min, rho_max)
        x3 = rho * direction
        if np.min(gh._offsets(config, x3)[1]) < min_center_dist:
            near += 1
            continue
        if math.hypot(x3[1], x3[2]) < min_axis_dist:
            continue
        if -direction[0] > string_cone_cos:
            continue
        points.append([*x3, rng.uniform(0.0, gh.FIBER_PERIOD)])
    return np.array(points).reshape(count, 4), near


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_sample_chart_points_are_bitwise_the_offsets_rule(k, lam):
    # the suites' calls: gh's 20 points, the cone's 4 (seed 1), harmonic's 5
    cfg = gh.GHConfig.canonical(k, lam)
    geo = max(1.0, lam)
    chart = dict(rho_min=1.5 * geo, rho_max=4.0 * geo, min_center_dist=0.8 * geo,
                 min_axis_dist=0.8 * geo, string_cone_cos=0.45)
    cone = harmonic.cone_config(cfg)
    for config, count, kwargs in [(cfg, 20, chart), (cone, 4, dict(seed=1)), (cfg, 5, chart)]:
        np.testing.assert_array_equal(gh.sample_chart_points(config, count, **kwargs),
                                      _sample_by_offsets(config, count, **kwargs)[0])


def test_sample_chart_points_reject_near_centers_as_the_offsets_rule():
    # the suites' calls reject no candidate near a center; this one does
    kwargs = dict(seed=5, rho_min=0.2, rho_max=6.0, min_center_dist=0.6, min_axis_dist=0.0)
    expected, near = _sample_by_offsets(OFF_AXIS, 64, **kwargs)
    assert near > 0
    np.testing.assert_array_equal(gh.sample_chart_points(OFF_AXIS, 64, **kwargs), expected)


def test_cone_config_matches_total_weight(canonical):
    cfg = canonical(2)
    cone = harmonic.cone_config(cfg)
    assert cone.weights.sum() == cfg.weights.sum()
    assert len(cone.centers) == 1
