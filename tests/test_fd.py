"""Finite-difference calculus: exterior derivative, curvature stencils,
Lie derivative, codifferential, and scalar Laplacian on known fields."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ale_lab import fd, forms

FLAT = lambda x: np.eye(4)


def test_step_at_ignores_fiber_coordinate():
    # conditioning tracks the base radius only: a large fiber angle must
    # not inflate the step for 4-vectors
    x_small = np.array([0.2, 0.1, 0.3, 0.0])
    x_fiber = np.array([0.2, 0.1, 0.3, 6.0])
    assert fd.step_at(x_small, 1e-3) == fd.step_at(x_fiber, 1e-3)
    x_far = np.array([7.0, 0.1, 0.3, 0.0])
    assert fd.step_at(x_far, 1e-3) == pytest.approx(7e-3)
    assert fd.step_at(x_far, 1e-3, scale=False) == pytest.approx(1e-3)


def test_partial_exact_on_cubic():
    f = lambda x: x[0] ** 3 + 2.0 * x[1] * x[2]
    x = np.array([0.4, -0.2, 0.7, 0.1])
    # central second-order stencil is h^2-accurate; cubic in one variable
    assert fd.partial(f, x, 0) == pytest.approx(3 * 0.4**2, abs=1e-6)
    assert fd.partial(f, x, 1) == pytest.approx(2 * 0.7, abs=1e-9)
    grad = fd.gradient(f, x)
    assert grad[2] == pytest.approx(2 * -0.2, abs=1e-9)
    assert grad[3] == pytest.approx(0.0, abs=1e-12)


def test_fd_d_matches_analytic_on_polynomial_one_form():
    # alpha = x1^2 dx0  =>  d alpha = 2 x1 dx1 ^ dx0 = -2 x1 dx0 ^ dx1
    field = forms.FormField(
        degree=1, evaluator=lambda x: np.array([x[1] ** 2, 0.0, 0.0, 0.0])
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
        return coeffs[:, 0, 0] + coeffs[:, 1] @ x + 0.5 * x @ coeffs @ x

    field = forms.FormField(degree=1, evaluator=one_form)
    x = rng.normal(size=4) * 0.5
    dd = fd.fd_d(fd.d_field(field), x)
    assert np.max(np.abs(dd)) < 1e-6


def test_richardson_reduces_truncation():
    f = lambda x: np.sin(x[0] * 2.0)
    x = np.array([0.3, 0.0, 0.0, 0.0])
    plain = abs(fd.partial(f, x, 0, h=1e-2) - 2 * np.cos(0.6))
    rich = abs(
        float(fd.richardson(lambda h: np.atleast_1d(fd.partial(f, x, 0, h=h)), 1e-2)[0])
        - 2 * np.cos(0.6)
    )
    assert rich < plain / 10.0


def test_christoffel_conformal_linear_factor():
    # g = exp(2 a.x) delta: Gamma^a_bc = delta^a_b a_c + delta^a_c a_b - delta_bc a^a
    a = np.array([0.3, -0.1, 0.2, 0.05])
    metric = lambda x: np.exp(2.0 * float(a @ x)) * np.eye(4)
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
    assert abs(fd.scalar_curvature(FLAT, x)) < 1e-12


def test_riemann_symmetries_generic_metric():
    rng = np.random.default_rng(7)
    sym = rng.normal(size=(4, 4, 4)) * 0.05
    sym = sym + np.swapaxes(sym, 0, 1)

    def metric(x):
        return np.eye(4) + np.einsum("abc,c->ab", sym, x) + 0.1 * np.outer(x, x) * (x @ x)

    x = rng.normal(size=4) * 0.3
    riem = fd.riemann_lowered(metric, x, h=5e-3)
    scale = np.max(np.abs(riem))
    # first-pair antisymmetry and pair symmetry hold up to stencil truncation
    assert np.max(np.abs(riem + np.swapaxes(riem, 0, 1))) < 1e-4 * scale
    assert np.max(np.abs(riem + np.swapaxes(riem, 2, 3))) < 1e-12 * scale
    pair = np.transpose(riem, (2, 3, 0, 1))
    assert np.max(np.abs(riem - pair)) < 1e-4 * scale
    bianchi = riem + np.transpose(riem, (0, 2, 3, 1)) + np.transpose(riem, (0, 3, 1, 2))
    assert np.max(np.abs(bianchi)) < 1e-4 * scale


def test_lie_derivative_rotation_is_killing():
    rot = lambda x: np.array([-x[1], x[0], 0.0, 0.0])
    x = np.array([0.5, 0.2, -0.1, 0.3])
    assert np.max(np.abs(fd.lie_derivative_metric(FLAT, rot, x))) < 1e-10


def test_lie_derivative_radial_scaling():
    radial = lambda x: x.copy()
    x = np.array([0.2, 0.1, -0.3, 0.4])
    assert np.allclose(fd.lie_derivative_metric(FLAT, radial, x), 2.0 * np.eye(4), atol=1e-8)


def test_codifferential_flat_known_value():
    # delta(x1 dx0^dx1) = dx0 in this package's sign convention
    field = forms.FormField(
        degree=2, evaluator=lambda x: np.array([x[1], 0, 0, 0, 0, 0])
    )
    x = np.array([0.3, -0.2, 0.5, 0.1])
    out = fd.codifferential(FLAT, field, x)
    assert np.allclose(out, np.array([1.0, 0, 0, 0]), atol=1e-9)


def test_stacked_field_matches_row_by_row():
    # one (3, 6) stack of 2-forms against three single-form fields
    rng = np.random.default_rng(2)
    lin, quad = rng.normal(size=(3, 6, 4)), rng.normal(size=(3, 6, 4, 4))

    def stack(x):
        return lin @ x + np.einsum("inab,a,b->in", quad, x, x)

    def metric(x):
        return np.eye(4) + 0.1 * np.outer(x, x)

    x = np.array([0.3, -0.2, 0.5, 0.1])
    field = forms.FormField(2, stack)
    rows = [forms.FormField(2, lambda y, i=i: stack(y)[i]) for i in range(3)]
    d = fd.fd_d(field, x)
    assert d.shape == (3, 4)
    assert np.allclose(d, [fd.fd_d(r, x) for r in rows], rtol=1e-13, atol=1e-13)
    delta = fd.codifferential(metric, field, x)
    assert delta.shape == (3, 4)
    assert np.allclose(delta, [fd.codifferential(metric, r, x) for r in rows],
                       rtol=1e-13, atol=1e-13)


def test_laplace_beltrami_flat():
    x = np.array([0.1, -0.2, 0.3, 0.05])
    assert fd.laplace_beltrami(FLAT, lambda x: float(x @ x), x) == pytest.approx(8.0, abs=1e-7)
    # harmonic polynomial
    assert fd.laplace_beltrami(FLAT, lambda x: x[0] * x[1], x) == pytest.approx(0.0, abs=1e-9)
