"""Finite-difference calculus: exterior derivative, curvature stencils,
Lie derivative, codifferential, and scalar Laplacian on known fields."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ale_lab import fd, forms, gh, jets
from ale_lab.errors import EvaluationDomain, SchemaError



def FLAT(x):
    return np.broadcast_to(np.eye(4), np.shape(x)[:-1] + (4, 4))


def pairs(metric_fn):
    """The (g^{-1}, det g) pair field of a metric function."""
    return lambda x: forms.metric_inverse(metric_fn(x))


def test_step_at_ignores_fiber_coordinate():
    # conditioning tracks the base radius only: a large fiber angle must
    # not inflate the step for 4-vectors
    x_small = np.array([0.2, 0.1, 0.3, 0.0])
    x_fiber = np.array([0.2, 0.1, 0.3, 6.0])
    assert fd.step_at(x_small, 1e-3) == fd.step_at(x_fiber, 1e-3)
    x_far = np.array([7.0, 0.1, 0.3, 0.0])
    assert fd.step_at(x_far, 1e-3) == pytest.approx(7e-3)


def test_partial_exact_on_cubic():
    f = lambda x: x[..., 0] ** 3 + 2.0 * x[..., 1] * x[..., 2]
    x = np.array([0.4, -0.2, 0.7, 0.1])
    grad = fd.all_partials(f, x)
    # central second-order stencil is h^2-accurate; cubic in one variable
    assert grad[0] == pytest.approx(3 * 0.4**2, abs=1e-6)
    assert grad[1] == pytest.approx(2 * 0.7, abs=1e-9)
    assert grad[2] == pytest.approx(2 * -0.2, abs=1e-9)
    assert grad[3] == pytest.approx(0.0, abs=1e-12)


def test_fd_d_matches_analytic_on_polynomial_one_form():
    # alpha = x1^2 dx0  =>  d alpha = 2 x1 dx1 ^ dx0 = -2 x1 dx0 ^ dx1
    field = forms.FormField(
        degree=1, evaluator=lambda x: x[..., 1:2] ** 2 * np.array([1.0, 0.0, 0.0, 0.0])
    )
    x = np.array([0.3, 0.8, -0.4, 0.2])
    d = fd.fd_d(field, x)
    expected = np.zeros(6)
    expected[forms.TUPLE_INDEX[2][(0, 1)]] = -2 * x[1]
    assert np.allclose(d, expected, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_d_squared_vanishes(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(4, 4, 4))  # quadratic 1-form coefficients

    def one_form(x):
        return (coeffs[:, 0, 0] + np.einsum("ik,...k->...i", coeffs[:, 1], x)
                + 0.5 * np.einsum("ijk,...j,...k->...i", coeffs, x, x))

    field = forms.FormField(degree=1, evaluator=one_form)
    x = rng.normal(size=4) * 0.5
    dd = fd.fd_d(forms.FormField(2, lambda y: fd.fd_d(field, y)), x)
    assert np.max(np.abs(dd)) < 1e-6


def test_christoffel_conformal_linear_factor():
    # g = exp(2 a.x) delta: Gamma^a_bc = delta^a_b a_c + delta^a_c a_b - delta_bc a^a
    a = np.array([0.3, -0.1, 0.2, 0.05])
    metric = lambda x: np.exp(2.0 * np.einsum("...c,c->...", x, a))[..., None, None] * np.eye(4)
    x = np.array([0.1, 0.2, -0.1, 0.05])
    gamma = fd.christoffel(metric, x)
    expected = (
        np.einsum("ab,c->abc", np.eye(4), a)
        + np.einsum("ac,b->abc", np.eye(4), a)
        - np.einsum("bc,a->abc", np.eye(4), a)
    )
    assert np.allclose(gamma, expected, atol=1e-7)


def test_flat_curvature_zero():
    x = np.array([0.4, -0.3, 0.2, 0.1])
    assert np.max(np.abs(fd.riemann_lowered(FLAT, x))) < 1e-12
    assert np.max(np.abs(fd.ricci(FLAT, x))) < 1e-12


def test_riemann_symmetries_generic_metric():
    rng = np.random.default_rng(7)
    sym = rng.normal(size=(4, 4, 4)) * 0.05
    sym = sym + np.swapaxes(sym, 0, 1)

    def metric(x):
        return (np.eye(4) + np.einsum("abc,...c->...ab", sym, x)
                + 0.1 * x[..., :, None] * x[..., None, :] * np.sum(x * x, axis=-1)[..., None, None])

    x = rng.normal(size=4) * 0.3
    riem = fd.metric_and_riemann_lowered(metric, x, 5e-3)[1]
    scale = np.max(np.abs(riem))
    # first-pair antisymmetry and pair symmetry hold up to stencil truncation
    assert np.max(np.abs(riem + np.swapaxes(riem, 0, 1))) < 1e-4 * scale
    assert np.max(np.abs(riem + np.swapaxes(riem, 2, 3))) < 1e-12 * scale
    pair = np.transpose(riem, (2, 3, 0, 1))
    assert np.max(np.abs(riem - pair)) < 1e-4 * scale
    bianchi = riem + np.transpose(riem, (0, 2, 3, 1)) + np.transpose(riem, (0, 3, 1, 2))
    assert np.max(np.abs(bianchi)) < 1e-4 * scale


def test_lie_derivative_rotation_is_killing():
    rot = lambda x: np.stack([-x[..., 1], x[..., 0], 0.0 * x[..., 2], 0.0 * x[..., 3]], axis=-1)
    x = np.array([0.5, 0.2, -0.1, 0.3])
    assert np.max(np.abs(fd.lie_derivative_metric(FLAT, rot, x))) < 1e-10


def test_lie_derivative_radial_scaling():
    radial = lambda x: x.copy()
    x = np.array([0.2, 0.1, -0.3, 0.4])
    assert np.allclose(fd.lie_derivative_metric(FLAT, radial, x), 2.0 * np.eye(4), atol=1e-8)


def test_codifferential_flat_known_value():
    # delta(x1 dx0^dx1) = dx0 in this package's sign convention
    field = forms.FormField(
        degree=2, evaluator=lambda x: x[..., 1:2] * np.array([1.0, 0, 0, 0, 0, 0])
    )
    x = np.array([0.3, -0.2, 0.5, 0.1])
    out = fd.d_and_codifferential(pairs(FLAT), field, x)[1]
    assert np.allclose(out, np.array([1.0, 0, 0, 0]), atol=1e-9)


def test_stacked_field_matches_row_by_row():
    # one (3, 6) stack of 2-forms against three single-form fields
    rng = np.random.default_rng(2)
    lin, quad = rng.normal(size=(3, 6, 4)), rng.normal(size=(3, 6, 4, 4))

    def stack(x):
        return np.einsum("ina,...a->...in", lin, x) + np.einsum("inab,...a,...b->...in", quad, x, x)

    def metric(x):
        return np.eye(4) + 0.1 * x[..., :, None] * x[..., None, :]

    x = np.array([0.3, -0.2, 0.5, 0.1])
    field = forms.FormField(2, stack)
    rows = [forms.FormField(2, lambda y, i=i: stack(y)[..., i, :]) for i in range(3)]
    d = fd.fd_d(field, x)
    assert d.shape == (3, 4)
    assert np.allclose(d, [fd.fd_d(r, x) for r in rows], rtol=1e-13, atol=1e-13)
    delta = fd.d_and_codifferential(pairs(metric), field, x)[1]
    assert delta.shape == (3, 4)
    assert np.allclose(delta, [fd.d_and_codifferential(pairs(metric), r, x)[1] for r in rows],
                       rtol=1e-13, atol=1e-13)


def test_value_and_d_matches_value_and_fd_d():
    # one stencil call with the center first gives the field and its
    # derivative bit for bit as the two separate calls
    rng = np.random.default_rng(4)
    lin, quad = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 4, 4))

    def stack(x):
        return np.einsum("ina,...a->...in", lin, x) + np.einsum("inab,...a,...b->...in", quad, x, x)

    field = forms.FormField(1, stack)
    calls = []

    def counted(x):
        calls.append(x.shape)
        return stack(x)

    for x in (np.array([0.3, -0.2, 0.5, 0.1]), rng.normal(size=(2, 3, 4))):
        calls.clear()
        value, d = fd.value_and_d(forms.FormField(1, counted), x)
        assert calls == [x.shape[:-1] + (9, 4)]
        assert np.array_equal(value, field(x))
        assert np.array_equal(d, fd.fd_d(field, x))


def test_laplace_beltrami_flat():
    x = np.array([0.1, -0.2, 0.3, 0.05])
    assert fd.laplace_beltrami(FLAT, lambda x: np.sum(x * x, axis=-1), x) == pytest.approx(8.0, abs=1e-7)
    # harmonic polynomial
    assert fd.laplace_beltrami(FLAT, lambda x: x[..., 0] * x[..., 1], x) == pytest.approx(0.0, abs=1e-9)


def test_codifferential_rejects_degree_zero():
    field = forms.FormField(0, lambda x: x[..., :1])
    with pytest.raises(SchemaError, match="degree 0"):
        fd.d_and_codifferential(pairs(FLAT), field, np.array([0.3, -0.2, 0.5, 0.1]))[1]


def test_unstacked_field_output_is_rejected():
    # a per-point field ignores the stencil's point axis; its output must
    # not broadcast into a derivative
    x = np.array([0.3, -0.2, 0.5, 0.1])
    with pytest.raises(SchemaError, match=r"\(4, 4\)"):
        fd.christoffel(lambda y: np.eye(4), x)
    with pytest.raises(SchemaError, match=r"shape \(4,\)"):
        fd.all_partials(lambda y: y[0] * y[1], x)


def test_stencil_leaving_the_chart_names_the_point():
    cfg = gh.GHConfig.canonical(1, 1.0)
    metric = gh.metric_fn(cfg)
    good = np.array([1.5, 0.8, 0.9, 0.3])
    # one step below this point in x2 lands exactly on the center (1, 0, 0)
    bad = np.array([1.0, 1e-3, 0.0, 0.2])
    assert np.all(np.isfinite(fd.ricci(metric, good)))
    with pytest.raises(EvaluationDomain, match=r"point \[1\. 0\. 0\.\] within"):
        fd.ricci(metric, np.stack([good, bad]))


# --- stacked stencils against row-by-row evaluation --------------------------

GH_CFG = gh.GHConfig.canonical(2, 1.0)
GH_POINTS = gh.sample_chart_points(
    GH_CFG, 6, seed=13, rho_min=1.5, rho_max=4.0, min_center_dist=0.8,
    min_axis_dist=0.8, string_cone_cos=0.45)
JET_METRIC = jets.metric_fn_from_jets(jets.random_jet2(4), jets.random_jet4(5))
JET_POINTS = np.random.default_rng(6).normal(size=(6, 4)) * 0.3


_LIN, _QUAD = np.random.default_rng(8).normal(size=(3, 6, 4)), np.random.default_rng(9).normal(size=(3, 6, 4, 4))
_VEC = np.random.default_rng(10).normal(size=(4, 4))


def _poly_two_forms(x):
    return np.einsum("ina,...a->...in", _LIN, x) + np.einsum("inab,...a,...b->...in", _QUAD, x, x)


def _linear_vector_field(x):
    return np.einsum("ab,...b->...a", _VEC, x)


STACKED_OPERATORS = {
    "gh-ricci": lambda x: fd.ricci(gh.metric_fn(GH_CFG), x),
    "gh-christoffel": lambda x: fd.christoffel(gh.metric_fn(GH_CFG), x),
    "gh-triple-d": lambda x: fd.fd_d(gh.triple_field(GH_CFG), x),
    "gh-triple-codifferential": lambda x: fd.d_and_codifferential(
        pairs(gh.metric_fn(GH_CFG)), gh.triple_field(GH_CFG), x)[1],
    "gh-killing": lambda x: fd.lie_derivative_metric(
        gh.metric_fn(GH_CFG), gh.xi_fn(GH_CFG), x, h=5e-4),
    "jet-ricci": lambda x: fd.ricci(JET_METRIC, x),
    "jet-christoffel": lambda x: fd.christoffel(JET_METRIC, x),
    "jet-codifferential": lambda x: fd.d_and_codifferential(
        pairs(JET_METRIC), forms.FormField(2, _poly_two_forms), x)[1],
    "jet-lie": lambda x: fd.lie_derivative_metric(JET_METRIC, _linear_vector_field, x),
}


@pytest.mark.parametrize("name", sorted(STACKED_OPERATORS))
def test_stacked_stencil_matches_row_by_row(name):
    op = STACKED_OPERATORS[name]
    points = GH_POINTS if name.startswith("gh") else JET_POINTS
    stacked = op(points)
    rows = np.array([op(x) for x in points])
    assert stacked.shape == rows.shape
    assert np.all(np.abs(stacked - rows) <= 1e-12 * np.maximum(1.0, np.abs(rows)))
    # a (2, 3) grid of points gives the same values as the flat stack
    grid = op(points.reshape(2, 3, 4))
    assert np.all(np.abs(grid.reshape(rows.shape) - rows) <= 1e-12 * np.maximum(1.0, np.abs(rows)))
