"""Frame connection and curvature operator blocks: orthonormal duality
frames, the torsion-free connection of a parallel frame, curvature
blocks from the lowered curvature tensor, and the tracefree-Ricci
identification."""

from __future__ import annotations

import numpy as np
import pytest

from ale_lab import connection, deformation, fd, forms, gh
from ale_lab.errors import FrameNotOrthonormal


def flat(x):
    return np.broadcast_to(np.eye(4), np.shape(x)[:-1] + (4, 4))


def _gh_setup(k=1, lam=1.0, seed=5):
    cfg = gh.GHConfig.canonical(k, lam)
    return cfg, gh.sample_chart_points(cfg, 1, seed=seed, rho_min=1.5, rho_max=3.0,
                                       string_cone_cos=0.45)[0]


def test_frame_from_metric_orthonormal():
    cfg, x4 = _gh_setup()
    inverse = forms.metric_inverse(gh.metric_matrix(cfg, x4))
    for frame, sign in zip(connection.frame_from_metric(inverse), (1.0, -1.0)):
        gram = 2.0 * forms.project_with(inverse, frame, frame)
        assert np.max(np.abs(gram - 2.0 * np.eye(3))) < 1e-8
        for i in range(3):
            starred = forms.hodge_star(inverse, frame[i], 2)
            assert np.allclose(starred, sign * frame[i], atol=1e-10)


def test_frame_from_metric_complex_symmetric_metric():
    # the contour oracles evaluate metrics at complex t; the frame must stay
    # orthonormal for the bilinear (not the hermitian) pairing
    rng = np.random.default_rng(11)
    h = rng.normal(size=(4, 4))
    inverse = forms.metric_inverse(np.eye(4) + (0.06 + 0.08j) * (h + h.T))
    for frame, sign in zip(connection.frame_from_metric(inverse), (1.0, -1.0)):
        gram = 2.0 * forms.project_with(inverse, frame, frame)
        assert np.max(np.abs(gram - 2.0 * np.eye(3))) < 1e-12
        assert np.allclose(forms.hodge_star(inverse, frame, 2), sign * frame, atol=1e-12)


def test_connection_reproduces_parallel_triple():
    # the symplectic triple is parallel: its connection must be
    # torsion-free for the frame, and its curvature self-dual block zero
    cfg, x4 = _gh_setup(k=1)
    phi = gh.triple_field(cfg)
    a = connection.connection_from_Phi(phi, gh.metric_fn(cfg))
    assert connection.torsion_residual(phi, a, x4) < 1e-5


def _connection_through_metric(phi, metric_fn, x):
    """The frame connection with delta F = -*d*F taken on the given metric at
    every stencil point (fd.d_and_codifferential): the route that does not use *F = F."""
    jmats = forms.J_with(forms.metric_inverse(metric_fn(x)[..., None, :, :]), phi(x))
    deltas = fd.d_and_codifferential(
        2, lambda y: (phi(y), *forms.metric_inverse(metric_fn(y))), x)[1]
    j, k = forms.CYCLIC
    return 0.5 * (deltas + forms.apply_J_covector(jmats[..., k, :, :], deltas[..., j, :])
                  - forms.apply_J_covector(jmats[..., j, :, :], deltas[..., k, :]))


@pytest.mark.parametrize("family", [
    deformation.linear_gauged_family(0),
    deformation.einstein_first_order_family(5),
], ids=["linear", "einstein-first-order"])
def test_connection_from_frame_matches_metric_codifferential_on_families(family):
    # at the complex contour nodes: delta F = -*dF against d*F taken on the
    # family's metric at every stencil point
    t = fd.TAYLOR_RADIUS * np.exp(2j * np.pi * np.arange(1, 4) / deformation.TAYLOR_NODES)
    x = 0.4 * np.random.default_rng(19).normal(size=(2, 4))
    phi = lambda y: family.triple(t, y)
    got = family.connection(t)(x)
    want = _connection_through_metric(phi, family.metric_field(t), x)
    assert got.shape == (2, 3, 3, 4)
    assert np.max(np.abs(want)) > 1e-2
    assert np.max(np.abs(got - want)) < 1e-11


def test_connection_from_frame_matches_metric_codifferential_on_multi_center():
    # the triple is parallel, so both routes read the same O(h^2) stencil
    # residual (about 1e-6), and they must agree far below it
    cfg = gh.GHConfig.canonical(2, 1.0)
    x4 = gh.sample_chart_points(cfg, 4, seed=3, rho_min=1.5, rho_max=3.0,
                                string_cone_cos=0.45)
    phi = gh.triple_field(cfg)
    got = connection.connection_from_Phi(phi, gh.metric_fn(cfg))(x4)
    want = _connection_through_metric(phi, gh.metric_fn(cfg), x4)
    assert np.max(np.abs(got - want)) < 1e-11


def test_connection_rejects_a_frame_that_is_not_orthonormal():
    # the frame's Gram matrix is checked against the metric at the points
    skewed = np.asarray(forms.OMEGA_SD) * np.array([1.0, 1.0, 1.1])[:, None]
    a = connection.connection_from_Phi(
        lambda y: np.broadcast_to(skewed, np.shape(y)[:-1] + skewed.shape), flat)
    with pytest.raises(FrameNotOrthonormal):
        a(np.array([0.2, -0.1, 0.3, 0.4]))


def test_connection_rejects_a_metric_the_frame_is_not_orthonormal_for():
    # the family's triple at the contour nodes, with its metric scaled by
    # 1 + 1e-6: 2-form inner products scale by (1 + 1e-6)^-2, a Gram
    # deviation of about 4e-6, far above the 1e-8 the check accepts
    fam = deformation.einstein_first_order_family(5)
    t = fd.TAYLOR_RADIUS * np.exp(2j * np.pi * np.arange(1, 4) / deformation.TAYLOR_NODES)
    x = 0.4 * np.random.default_rng(19).normal(size=(2, 4))
    phi = lambda y: fam.triple(t, y)
    assert np.all(np.isfinite(connection.connection_from_Phi(phi, fam.metric_field(t))(x)))
    scaled = connection.connection_from_Phi(phi, lambda y: (1.0 + 1e-6) * fam.metric(t, y))
    with pytest.raises(FrameNotOrthonormal, match="Gram"):
        scaled(x)


def test_hyperkahler_curvature_blocks():
    # Ricci-flat with vanishing self-dual Weyl part: both the self-dual
    # block and the mixed (tracefree-Ricci) block vanish, and the
    # curvature is carried entirely by the anti-self-dual diagonal block
    cfg, x4 = _gh_setup(k=2, seed=7)
    metric_fn = gh.metric_fn(cfg)
    block = connection.curvature_block_of_metric(metric_fn, x4)
    assert np.max(np.abs(block.Rplus)) < 1e-5
    assert np.max(np.abs(block.Rminus)) < 1e-5
    assert abs(-4.0 * np.trace(block.Rplus)) < 1e-4
    g = metric_fn(x4)
    riem = fd.riemann_lowered(metric_fn, x4)
    _, _, a_asd = connection.operator_blocks_from_riemann(forms.metric_inverse(g), riem)
    assert np.max(np.abs(a_asd)) > 1e-3  # genuinely curved


def test_flat_blocks_zero():
    block = connection.curvature_block_of_metric(flat, np.array([0.3, 0.1, -0.2, 0.4]))
    assert np.max(np.abs(block.Rplus)) < 1e-12
    assert np.max(np.abs(block.Rminus)) < 1e-12


def test_operator_blocks_symmetries():
    # SD and ASD diagonal blocks of the curvature operator are symmetric
    rng = np.random.default_rng(3)
    sym = rng.normal(size=(4, 4, 4)) * 0.05
    sym = sym + np.swapaxes(sym, 0, 1)
    metric = lambda x: (np.eye(4) + np.einsum("abc,...c->...ab", sym, x)
                        + 0.05 * x[..., :, None] * x[..., None, :])
    x = np.array([0.2, -0.1, 0.3, 0.15])
    g = metric(x)
    riem = fd.metric_and_riemann_lowered(metric, x, 5e-3)[1]
    a_sd, mixed, a_asd = connection.operator_blocks_from_riemann(forms.metric_inverse(g), riem)
    assert np.allclose(a_sd, a_sd.T, atol=1e-6)
    assert np.allclose(a_asd, a_asd.T, atol=1e-6)
    assert np.max(np.abs(mixed)) > 0


def _curved_metric(scale):
    """A non-Einstein metric, complex for a complex scale, as the contour
    oracles see it."""
    sym = np.random.default_rng(4).normal(size=(4, 4, 4)) * 0.05
    sym = sym + np.swapaxes(sym, 0, 1)
    return lambda x: (np.eye(4) + scale * np.einsum("abc,...c->...ab", sym, x)
                      + 0.05 * x[..., :, None] * x[..., None, :])


@pytest.mark.parametrize("scale", [1.0, 0.8 + 0.6j], ids=["real", "complex"])
def test_stacked_frames_and_blocks_match_per_point(scale):
    # a (..., 4, 4) stack of metrics gives each metric's frame and blocks
    metric = _curved_metric(scale)
    x = 0.3 * np.random.default_rng(8).normal(size=(2, 3, 4))
    g = metric(x)
    stacked = np.stack(connection.frame_from_metric(forms.metric_inverse(g)))
    assert stacked.shape == (2, 2, 3, 3, 6)
    per_point = np.stack([[connection.frame_from_metric(forms.metric_inverse(gij)) for gij in gi]
                          for gi in g])
    assert np.max(np.abs(stacked - np.moveaxis(per_point, 2, 0))) <= 1e-15
    block = connection.curvature_block_of_metric(metric, x)
    assert block.Rplus.shape == block.Rminus.shape == (2, 3, 3, 3)
    for i, j in np.ndindex(2, 3):
        single = connection.curvature_block_of_metric(metric, x[i, j])
        assert np.max(np.abs(block.Rplus[i, j] - single.Rplus)) <= 1e-15
        assert np.max(np.abs(block.Rminus[i, j] - single.Rminus)) <= 1e-15
    assert np.max(np.abs(block.Rminus)) > 1e-3


def test_curvature_block_makes_one_metric_call(record):
    # the metric at x is the first point of the nested stencil, so the block
    # takes g from there instead of calling the metric again
    metric = _curved_metric(1.0)
    counted, calls = record.wrap(metric)
    x = 0.3 * np.random.default_rng(9).normal(size=(2, 4))
    block = connection.curvature_block_of_metric(counted, x)
    assert calls == [(2, 9, 9, 4)]
    a_sd, mixed, _ = connection.operator_blocks_from_riemann(
        forms.metric_inverse(metric(x)), fd.riemann_lowered(metric, x))
    assert np.max(np.abs(block.Rplus + a_sd)) <= 1e-14
    assert np.max(np.abs(block.Rminus + mixed)) <= 1e-14


def test_frame_from_metric_rejects_a_degenerate_metric_in_a_stack():
    # positive determinant, split signature: a pivot of the second is not positive
    g = np.stack([np.eye(4), np.diag([1.0, 1.0, -1.0, -1.0])])
    with pytest.raises(FrameNotOrthonormal):
        connection.frame_from_metric(forms.metric_inverse(g))


def test_mixed_block_identifies_tracefree_ricci():
    # the mixed operator block is an equivalent encoding of the
    # tracefree Ricci tensor; factor calibrated to exactly one
    rng = np.random.default_rng(11)
    sym = rng.normal(size=(4, 4, 4)) * 0.04
    sym = sym + np.swapaxes(sym, 0, 1)
    metric = lambda x: (np.eye(4) + np.einsum("abc,...c->...ab", sym, x)
                        + 0.03 * x[..., :, None] * x[..., None, :]
                        * np.sum(x * x, axis=-1)[..., None, None])
    x = np.array([0.25, -0.15, 0.1, 0.2])
    g = metric(x)
    block = connection.curvature_block_of_metric(metric, x)
    ric0_from_block = connection.mixed_block_to_ric0(block.Rminus, g)

    ric = fd.ricci(metric, x)
    ginv = np.linalg.inv(g)
    ric0 = ric - 0.25 * np.einsum("ab,ab->", ginv, ric) * g
    assert np.max(np.abs(ric0)) > 1e-3  # non-Einstein sample
    assert np.max(np.abs(ric0_from_block - ric0)) < 1e-6


def test_curvature_forms_match_operator_route():
    # curvature forms of the parallel-frame connection, decomposed on
    # duality bases, agree with the negated operator blocks of the metric
    cfg, x4 = _gh_setup(k=1, seed=9)
    metric_fn = gh.metric_fn(cfg)
    phi = gh.triple_field(cfg)
    a = connection.connection_from_Phi(phi, metric_fn)
    rforms = connection.curvature_forms(a, x4)
    dec = connection.decompose_curvature(rforms, metric_fn(x4))
    direct = connection.curvature_block_of_metric(metric_fn, x4)
    assert np.max(np.abs(-dec.Rminus - direct.Rminus)) < 1e-4
    assert np.max(np.abs(dec.Rplus)) < 1e-4


def test_bianchi_gauge_conformal_factor():
    # h = f g on the flat metric: the gauge covector is exactly df
    a = np.array([0.3, -0.2, 0.5, 0.1])
    h_field = lambda x: np.einsum("...c,c->...", x, a)[..., None, None] * np.eye(4)
    out = connection.bianchi_gauge(flat, h_field, np.array([0.05, 0.02, -0.01, 0.03]))
    assert np.allclose(out, a, atol=1e-9)


def test_bianchi_gauge_kills_killing_deformation():
    # h = Lie_X g for a flat Killing rotation is zero, hence in gauge
    h_field = lambda x: np.zeros(np.shape(x)[:-1] + (4, 4))
    out = connection.bianchi_gauge(flat, h_field, np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.max(np.abs(out)) < 1e-12
