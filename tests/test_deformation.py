"""Deformation formalism on the flat model: gauged first-order data,
exponential triple families, second-order tracefree Ricci, and the
moment-map connection on the curved background."""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ale_lab import connection, deformation, fd, forms, gh, suites
from ale_lab.errors import GaugeViolation, SchemaError

X0 = np.array([0.2, -0.1, 0.3, -0.2])


# --- first-order data --------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.integers(0, 300), st.floats(-2, 2), st.floats(-2, 2))
def test_star_d_phi_linear(seed, s, t):
    rng = np.random.default_rng(seed)
    c1 = rng.normal(size=(3, 6, 4))
    c2 = rng.normal(size=(3, 6, 4))
    phi1 = lambda x: np.einsum("ica,...a->...ic", c1, x)
    phi2 = lambda x: np.einsum("ica,...a->...ic", c2, x)
    combo = lambda x: s * phi1(x) + t * phi2(x)
    lhs = deformation.star_d_phi(combo, X0)
    rhs = s * deformation.star_d_phi(phi1, X0) + t * deformation.star_d_phi(phi2, X0)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_linear_gauged_family_satisfies_gauge():
    fam = deformation.linear_gauged_family(3)
    phi = fam.phi_field
    for x in (X0, np.array([0.7, 0.1, -0.5, 0.4])):
        assert deformation.gauge_residual(fam.lam, deformation.star_d_phi(phi, x), x) < 1e-9


def test_deformation_first_order_rejects_bad_gauge():
    fam = deformation.linear_gauged_family(4)
    wrong_lam = lambda x: fam.lam(x) + 0.3 * x[..., 0]
    with pytest.raises(GaugeViolation):
        deformation.deformation_first_order(wrong_lam, fam.phi_field, X0)


def test_first_order_connection_matches_family_derivative():
    fam = deformation.linear_gauged_family(0)
    first = deformation.deformation_first_order(fam.lam, fam.phi_field, X0)
    t_route = fd.taylor_coefficient(
        lambda t: fam.connection(t)(deformation.node_points(t, X0)), 1, deformation.TAYLOR_NODES)
    assert np.max(np.abs(first - t_route)) < 1e-9
    assert deformation.gauge_residual(fam.lam, first, X0) < 1e-9


def test_connection_makes_one_triple_call(monkeypatch):
    # the triple on the base points and their stencil, the metric on the
    # base points alone
    fam = deformation.linear_gauged_family(0)
    calls = []

    def counting(name):
        inner = getattr(deformation.TripleFamily, name)

        def counted(self, t, x):
            calls.append((name, np.shape(x)))
            return inner(self, t, x)
        return counted

    for name in ("triple", "metric"):
        monkeypatch.setattr(deformation.TripleFamily, name, counting(name))
    t = _NODES["complex"]
    fam.connection(t)(deformation.node_points(t, X0))
    assert calls == [("triple", (3, 9, 4)), ("metric", (3, 4))]


# --- t-coefficients ------------------------------------------------------------

def test_taylor_coefficient_of_matrix_exponential():
    # exp(t A) has the t^n coefficient A^n / n! in closed form
    a = 0.3 * np.random.default_rng(13).normal(size=(4, 4))
    power = np.eye(4)
    for n in range(4):
        coeff = fd.taylor_coefficient(lambda t: deformation.expm(t[:, None, None] * a), n,
                                      deformation.TAYLOR_NODES)
        assert coeff.dtype == np.float64
        assert np.max(np.abs(coeff - power / math.factorial(n))) < 1e-12
        power = power @ a


def _zero_coefficient(x: np.ndarray) -> np.ndarray:
    return np.zeros(np.shape(x)[:-1] + (3, 3))


def _rank_one_coefficient(x: np.ndarray) -> np.ndarray:
    # C(x) = x_1 u v^T has two zero singular values everywhere, all three at x_1 = 0
    return np.einsum("...,ij->...ij", x[..., 1], np.outer([1.0, 2.0, 0.0], [0.5, -1.0, 2.0]))


_FAMILIES = pytest.mark.parametrize("family", [
    deformation.linear_gauged_family(0),
    deformation.einstein_first_order_family(5),
    deformation.TripleFamily(lam=lambda x: 0.3 * x[..., 0], coeff=_zero_coefficient),
    deformation.TripleFamily(lam=lambda x: 0.3 * x[..., 0], coeff=_rank_one_coefficient),
], ids=["linear", "einstein-first-order", "zero-C", "rank-one-C"])


def _closed_form_points_and_times():
    """(2, 3, 4) points, one with C = 0 for the rank-one family, and the
    real times 0, 0.1, -0.25 and the TAYLOR_NODES contour nodes."""
    x = np.random.default_rng(11).normal(size=(2, 3, 4))
    x[0, 0, 1] = 0.0
    contour = [fd.TAYLOR_RADIUS * np.exp(2j * np.pi * k / deformation.TAYLOR_NODES)
               for k in range(deformation.TAYLOR_NODES)]
    return x, [0.0, 0.1, -0.25, *contour]


def _generator(family: deformation.TripleFamily, x: np.ndarray) -> np.ndarray:
    """M(x) = lam I + [[0, -C], [-C^T, 0]] as (..., 6, 6) matrices at (..., 4) points."""
    c = forms.float_or_complex(family.coeff(x))
    lam = forms.float_or_complex(family.lam(x))[..., None, None] * np.eye(3)
    return np.block([[lam, -c], [-np.swapaxes(c, -1, -2), lam]])


_BASIS = np.vstack([forms.OMEGA_SD, forms.OMEGA_ASD])


def _sd(stack):
    """Coefficients of 2-forms on the flat self-dual basis."""
    return forms.project_with(forms.FLAT_INVERSE, stack, forms.OMEGA_SD)


def _asd(stack):
    """Coefficients of 2-forms on the flat anti-self-dual basis."""
    return forms.project_with(forms.FLAT_INVERSE, stack, forms.OMEGA_ASD)


@_FAMILIES
def test_triple_closed_form_matches_expm(family):
    # the closed form against scipy's exp(t M) on the first three columns
    x, times = _closed_form_points_and_times()
    for t in times:
        expected = np.swapaxes(deformation.expm(t * _generator(family, x))[..., :, :3], -1, -2)
        got = family.triple(t, x)
        assert got.shape == (2, 3, 3, 6)
        assert np.iscomplexobj(got) == isinstance(t, complex)
        assert np.max(np.abs(got - expected @ _BASIS)) < 1e-13
    # a single (4,) point gives its row of the stack
    assert np.max(np.abs(family.triple(0.1, x[1, 2]) - family.triple(0.1, x)[1, 2])) < 1e-14


@_FAMILIES
def test_metric_closed_form_matches_reconstruction_and_expm(family):
    # g(t) = e^(t lam) exp(t H) against the metric the triple fixes and
    # against scipy's exponential of t H, relative to the largest entry (25
    # at t = -0.25 on the einstein-first-order family, where scipy's expm
    # is 7e-13 off the reconstruction)
    x, times = _closed_form_points_and_times()
    h = deformation.metric_perturbation_from_coeffs(family.coeff(x))
    for t in times:
        got = family.metric(t, x)
        assert got.shape == (2, 3, 4, 4)
        assert np.iscomplexobj(got) == isinstance(t, complex)
        assert np.array_equal(got, np.swapaxes(got, -1, -2))
        scale = max(1.0, float(np.max(np.abs(got))))
        tr = family.triple(t, x)
        rebuilt = forms.metric_from_triple(tr[..., 0, :], tr[..., 1, :], tr[..., 2, :])
        assert np.max(np.abs(got - rebuilt)) <= 1e-13 * scale
        expm = np.exp(t * family.lam(x))[..., None, None] * deformation.expm(t * h)
        assert np.max(np.abs(got - expm)) <= 1e-13 * scale


# bounds on the error of orders 0-3 of the closed forms against their
# series, about 10x the aliased c_(n+8) r^8 floor measured at X0, the
# larger over both suite families (triple 1.4e-12, 2.0e-13, 2.6e-14,
# 9.2e-14; metric 9.1e-12, 1.6e-12, 2.6e-13, 7.4e-14)
_SERIES_BOUNDS = {"triple": (1.4e-11, 2e-12, 3e-13, 1e-12),
                  "metric": (1e-10, 2e-11, 3e-12, 1e-12)}


def test_closed_forms_match_their_taylor_series():
    # Phi(t) = exp(t M) omega and g(t) = exp(t (lam I + H)) have the t^n
    # coefficients M^n omega / n! (the first three columns, on the basis
    # [OMEGA_SD; OMEGA_ASD]) and (lam I + H)^n / n!: matrix powers, with no
    # exponential and no eigh.  Orders 0-3 come from one taylor_coefficient
    # call each on the family stack of the suite at X0.
    stack = deformation.family_stack(*_STACKED)
    xs = np.broadcast_to(X0, (2, 4))
    orders = range(4)
    got = {name: fd.taylor_coefficient(
        lambda t: getattr(stack, name)(t, deformation.node_points(t, xs)), orders,
        deformation.TAYLOR_NODES)
        for name in _SERIES_BOUNDS}
    m = _generator(stack, xs)
    a = (stack.lam(xs)[:, None, None] * np.eye(4)
         + deformation.metric_perturbation_from_coeffs(stack.coeff(xs)))
    power_m, power_a = np.eye(6), np.eye(4)
    for n in orders:
        series = {"triple": np.swapaxes(power_m[..., :, :3], -1, -2) @ _BASIS,
                  "metric": power_a}
        for name, bounds in _SERIES_BOUNDS.items():
            err = np.max(np.abs(got[name][n] - series[name] / math.factorial(n)))
            assert err < bounds[n], (name, n, err)
        power_m, power_a = m @ power_m, a @ power_a


_NODES = {
    "real": np.array([fd.TAYLOR_RADIUS, -fd.TAYLOR_RADIUS]),
    "complex": fd.TAYLOR_RADIUS * np.exp(2j * np.pi * np.arange(1, 4) / 8),
}


@pytest.mark.parametrize("kind", sorted(_NODES))
@pytest.mark.parametrize("family", [
    deformation.linear_gauged_family(0),
    deformation.einstein_first_order_family(5),
], ids=["linear", "einstein-first-order"])
def test_triple_on_node_axis_matches_per_node(family, kind):
    # a (m,) array of nodes with (m, ..., 4) points gives each node's triple
    t = _NODES[kind]
    x = 0.4 * np.random.default_rng(17).normal(size=(2, 3, 4))
    stacked = family.triple(t, deformation.node_points(t, x))
    assert stacked.shape == (len(t), 2, 3, 3, 6)
    per_node = np.stack([family.triple(complex(tk) if kind == "complex" else float(tk), x)
                         for tk in t])
    assert np.max(np.abs(stacked - per_node)) <= 1e-15
    metric = family.metric(t, deformation.node_points(t, x))
    assert np.max(np.abs(metric - np.stack([family.metric(tk, x) for tk in t]))) <= 1e-15


def test_taylor_coefficient_rejects_values_without_node_axis():
    fam = deformation.linear_gauged_family(0)
    # the point not broadcast to the nodes: one value for the whole contour
    with pytest.raises(SchemaError, match=r"shape \(3, 4\) for 5 nodes"):
        fd.taylor_coefficient(lambda t: fam.connection(0.1)(X0), 1, deformation.TAYLOR_NODES)
    # the nodes on a trailing axis
    with pytest.raises(SchemaError, match=r"shape \(4, 4, 5\) for 5 nodes"):
        fd.taylor_coefficient(lambda t: np.multiply.outer(np.eye(4), t), 1,
                              deformation.TAYLOR_NODES)


def test_taylor_coefficient_calls_f_once_on_the_nodes():
    # one complex array of the N/2 + 1 nodes r w^k, k = 0..N/2, in order,
    # with the real nodes r and -r exact
    calls = []

    def f(t):
        calls.append(np.array(t))
        return np.exp(t)

    coeff = fd.taylor_coefficient(f, 2, deformation.TAYLOR_NODES)
    assert len(calls) == 1
    (t,) = calls
    half = deformation.TAYLOR_NODES // 2
    r = fd.TAYLOR_RADIUS
    assert t.dtype == np.complex128 and t.shape == (half + 1,)
    assert t[0] == r and t[half] == -r
    k = np.arange(1, half)
    assert np.max(np.abs(t[1:half] - r * np.exp(2j * np.pi * k / deformation.TAYLOR_NODES))) == 0.0
    assert coeff.dtype == np.float64 and abs(coeff - 0.5) < 1e-12


def test_taylor_coefficient_orders_match_single_order_calls_bit_for_bit():
    # several orders from one call of f, each the coefficient of a call
    # with that order alone
    fam = deformation.einstein_first_order_family(5)
    calls = []

    def f(t):
        calls.append(t)
        return fam.connection(t)(deformation.node_points(t, X0))

    both = fd.taylor_coefficient(f, (1, 2), deformation.TAYLOR_NODES)
    assert len(calls) == 1 and both.shape == (2, 3, 4) and both.dtype == np.float64
    for row, n in zip(both, (1, 2)):
        assert np.array_equal(row, fd.taylor_coefficient(f, n, deformation.TAYLOR_NODES))
    assert np.array_equal(fd.taylor_coefficient(f, [2, 0, 2], deformation.TAYLOR_NODES),
                          np.stack([fd.taylor_coefficient(f, n, deformation.TAYLOR_NODES)
                                    for n in (2, 0, 2)]))


def test_triple_rejects_points_without_node_axis():
    fam = deformation.linear_gauged_family(0)
    t = _NODES["complex"]
    with pytest.raises(SchemaError, match=r"points of shape \(8, 4\) for 3 nodes"):
        fam.triple(t, np.zeros((8, 4)))


@pytest.mark.parametrize("method", ["triple", "metric"])
def test_node_rows_must_be_one_point_stack(method):
    # the t-independent part is taken on the first row of the node axis, so
    # rows that differ would be answered for the wrong points
    fam = deformation.linear_gauged_family(0)
    t = _NODES["complex"]
    x = np.array(deformation.node_points(t, 0.4 * np.random.default_rng(23).normal(size=(2, 4))))
    getattr(fam, method)(t, x)
    x[2, 1, 3] += 1e-12
    with pytest.raises(SchemaError, match=r"points of shape \(3, 2, 4\) differ along the node axis"):
        getattr(fam, method)(t, x)
    with pytest.raises(SchemaError, match=r"points of shape \(8, 4\) for 3 nodes"):
        getattr(fam, method)(t, np.zeros((8, 4)))


def test_curvature_contour_decomposes_once_per_point(monkeypatch):
    # one curvature block on a contour: its metric call gets the nested
    # stencil with the node axis in front, and eigh sees each point once,
    # not once per node
    fam = deformation.einstein_first_order_family(5)
    t = _NODES["complex"]
    sizes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    connection.curvature_block_of_metric(fam.metric_field(t), deformation.node_points(t, X0))
    assert sum(sizes) == 9 * 9  # the nested stencil of one point


def test_suite_deformation_evaluates_each_contour_as_one_stack(monkeypatch):
    calls = {"triple": 0, "metric": 0}

    def counting(name):
        inner = getattr(deformation.TripleFamily, name)

        def counted(self, t, x):
            calls[name] += 1
            return inner(self, t, x)
        return counted

    for name in calls:
        monkeypatch.setattr(deformation.TripleFamily, name, counting(name))

    def rebuilt(*triple):
        raise AssertionError("the suite rebuilt a metric from a triple")

    for name, module in list(sys.modules.items()):
        if name.startswith("ale_lab") and hasattr(module, "metric_from_triple"):
            monkeypatch.setattr(module, "metric_from_triple", rebuilt)
    assert suites.suite_deformation(1, 1.0).passed
    # both families are one family stack: one connection contour on x0 and
    # its stencil, whose metric call is on the base points, and one
    # curvature contour on the nested stencil of x0
    assert calls == {"triple": 1, "metric": 2}


_STACKED = [deformation.linear_gauged_family(0), deformation.einstein_first_order_family(5)]


def _contour_values(fam: deformation.TripleFamily, x: np.ndarray) -> dict:
    """What the deformation suite reads off a family's contours at (..., 4)
    points x: the triple and metric at the nodes, the t^1 and t^2
    connection coefficients with their d, and the t^2 curvature oracle."""
    t = _NODES["complex"]
    nodes = deformation.node_points

    def orders(y: np.ndarray) -> np.ndarray:
        coeffs = fd.taylor_coefficient(lambda s: fam.connection(s)(nodes(s, y)), (1, 2),
                                       deformation.TAYLOR_NODES)
        return np.moveaxis(coeffs, 0, -3)

    a, da = fd.value_and_d(forms.FormField(1, orders), x)
    return {
        "triple": fam.triple(t, nodes(t, x)),
        "metric": fam.metric(t, nodes(t, x)),
        "a": a,
        "da": da,
        "oracle": _second_order_oracle(fam, x),
    }


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_family_stack_equals_per_family_runs_bit_for_bit(shape):
    x = X0 if shape == (4,) else 0.4 * np.random.default_rng(29).normal(size=shape)
    stack = deformation.family_stack(*_STACKED)
    stacked = _contour_values(stack, np.broadcast_to(x, (2,) + shape))
    per_family = [_contour_values(fam, x) for fam in _STACKED]
    for key, value in stacked.items():
        # the node axis stays in front of the family axis
        axis = 1 if key in ("triple", "metric") else 0
        assert np.array_equal(value, np.stack([v[key] for v in per_family], axis=axis)), key


def test_family_stack_rejects_points_without_the_family_axis():
    stack = deformation.family_stack(*_STACKED)
    with pytest.raises(SchemaError, match=r"points of shape \(3, 4\) for 2 families"):
        stack.coeff(np.zeros((3, 4)))
    with pytest.raises(SchemaError, match=r"points of shape \(4,\) for 2 families"):
        stack.lam(X0)


# --- bracket and block helpers ----------------------------------------------

def test_bracket_minus_matches_hand_wedge():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4))
    out = deformation.bracket_minus(a)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        w = forms.wedge(a[j], 1, a[k], 1)
        _, minus = forms.split_sd(forms.FLAT_INVERSE, w)
        assert np.allclose(out[i], minus)
        # coefficient exactly one: no factor 2 on the quadratic term
        assert not np.allclose(out[i], 2.0 * minus) or np.allclose(minus, 0)


def test_blocks_recover_basis_coefficients():
    rng = np.random.default_rng(6)
    coeff_sd = rng.normal(size=(3, 3))
    coeff_asd = rng.normal(size=(3, 3))
    stack = (
        np.einsum("kj,jc->kc", coeff_sd, forms.OMEGA_SD)
        + np.einsum("kj,jc->kc", coeff_asd, forms.OMEGA_ASD)
    )
    assert np.allclose(_sd(stack), coeff_sd)
    assert np.allclose(_asd(stack), coeff_asd)


def test_metric_perturbation_symmetric_tracefree():
    rng = np.random.default_rng(7)
    h = deformation.metric_perturbation_from_coeffs(rng.normal(size=(3, 3)))
    assert np.allclose(h, h.T)
    assert abs(np.trace(h)) < 1e-12
    # the nine generators are linearly independent
    flat = np.stack([
        deformation.metric_perturbation_from_coeffs(np.eye(3)[i][:, None] * np.eye(3)[j][None, :]).ravel()
        for i in range(3) for j in range(3)
    ])
    assert np.linalg.matrix_rank(flat) == 9


# --- linearized tracefree Ricci ---------------------------------------------

def test_linearized_ric0_matches_fd_in_t():
    coeff = deformation.gauged_coefficient_field(9)
    pred = deformation.linearized_ric0_prediction(coeff, X0)

    def tracefree_ricci(t: np.ndarray) -> np.ndarray:
        metric = lambda y: np.eye(4) + np.einsum(
            "m,m...->m...", t, deformation.metric_perturbation_from_coeffs(coeff(y)))
        x = deformation.node_points(t, X0)
        ric = fd.ricci(metric, x)
        g = metric(x)
        ginv = np.linalg.inv(g)
        return ric - 0.25 * np.einsum("...ab,...ab->...", ginv, ric)[:, None, None] * g

    t_route = fd.taylor_coefficient(tracefree_ricci, 1, deformation.TAYLOR_NODES)
    assert np.max(np.abs(pred - t_route)) < 1e-8


# --- second-order tracefree Ricci -------------------------------------------

def _second_order_oracle(fam: deformation.TripleFamily, x: np.ndarray) -> np.ndarray:
    """t^2-coefficient of the anti-self-dual curvature block of the family
    metric."""
    return fd.taylor_coefficient(lambda t: connection.curvature_block_of_metric(
        fam.metric_field(t), deformation.node_points(t, x)).Rminus, 2, deformation.TAYLOR_NODES)


def _da2(fam: deformation.TripleFamily, x: np.ndarray) -> np.ndarray:
    """d of the second-order connection coefficients, the t^2-coefficient
    of the family's connection, at x."""
    return fd.fd_d(forms.FormField(1, lambda y: fd.taylor_coefficient(
        lambda t: fam.connection(t)(deformation.node_points(t, y)), 2,
        deformation.TAYLOR_NODES)), x)


def test_second_order_formula_linear_family():
    fam = deformation.linear_gauged_family(2)
    a1_field = lambda y: deformation.star_d_phi(fam.phi_field, y)
    formula = _asd(deformation.ric0_second_order(
        a1_field, _da2(fam, X0), fam.phi_field, X0))
    oracle = _second_order_oracle(fam, X0)
    assert np.max(np.abs(formula - oracle)) < 1e-6


def test_second_order_formula_couples_phi_and_curvature():
    # family with a genuinely nonzero first-order self-dual curvature
    # block at a point where phi does not vanish
    fam = deformation.einstein_first_order_family(8)
    a1_field = lambda y: deformation.star_d_phi(fam.phi_field, y)
    formula = _asd(deformation.ric0_second_order(
        a1_field, _da2(fam, X0), fam.phi_field, X0))
    oracle = _second_order_oracle(fam, X0)
    scale = max(1.0, float(np.max(np.abs(oracle))))
    assert np.max(np.abs(formula - oracle)) < 1e-4 * scale
    # the coupling term must actually matter for this family: it changes
    # the prediction measurably
    coupling = _sd(fd.fd_d(forms.FormField(1, a1_field), X0)) @ fam.phi_field(X0)
    assert np.max(np.abs(coupling)) > 1e-3


_DIV_POINTS = np.vstack([np.zeros(4), np.eye(4), [0.3, -0.7, 0.4, 0.9],
                         [-1.1, 0.2, -0.5, 0.6]])


def _centered_partials(fn, x, h):
    """(..., 4, *shape) centered differences of fn at (..., 4) points, step h,
    the direction axis after the point axes."""
    e = h * np.eye(4)
    return np.stack([(fn(x + e[a]) - fn(x - e[a])) / (2.0 * h) for a in range(4)],
                    axis=x.ndim - 1)


def test_constraint_matrices_match_per_vector_build():
    # second route: one coefficient field per unit vector, each through its
    # own stencils of step 0.25, which differentiate quadratics exactly up
    # to rounding; the divergence rows compared at the sample points
    pairs = np.array(forms.TUPLES[2])
    div_cols, asd_cols = [], []
    for vec in np.eye(9 * len(fd.QUAD_P)):
        coeff = deformation._polynomial_field(vec)
        h_field = lambda y: deformation.metric_perturbation_from_coeffs(coeff(y))
        div_cols.append(np.einsum("...aab->...b", _centered_partials(
            h_field, _DIV_POINTS, 0.25)).ravel())
        a1 = lambda y: deformation.star_d_phi(
            lambda z: deformation.phi_comps_from_coeffs(coeff(z)), y)
        da = np.swapaxes(_centered_partials(a1, np.zeros(4), 0.25), 0, 1)
        curl = (da - np.swapaxes(da, 1, 2))[:, pairs[:, 0], pairs[:, 1]]
        asd_cols.append(forms.split_sd(forms.FLAT_INVERSE, curl)[1].ravel())
    div = deformation._divergence_matrix()
    at_points = np.einsum("brn,kr->kbn", div.reshape(4, 4, -1), _DIV_POINTS)
    assert np.max(np.abs(at_points.reshape(-1, div.shape[1]) - np.stack(div_cols, axis=1))) <= 1e-13
    efo = deformation._efo_constraint_matrix()
    assert np.array_equal(efo[:len(div)], div)
    assert np.max(np.abs(efo[len(div):] - np.stack(asd_cols, axis=1))) <= 1e-13


@pytest.mark.parametrize("null_space", [deformation._gauge_null_space,
                                        deformation._efo_null_space], ids=["gauge", "efo"])
def test_constraint_null_spaces_are_built_in_bounded_memory(null_space):
    # exact tables: traced peaks 0.08 MiB (gauge) and 0.10 MiB (efo)
    built = null_space()
    null_space.cache_clear()
    tracemalloc.start()
    try:
        rebuilt = null_space()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20
    assert np.array_equal(rebuilt, built)


def test_constraint_null_spaces_are_built_without_a_stencil(monkeypatch):
    # the constraint matrices are exact tables: no field is evaluated
    gauge, efo = deformation._gauge_null_space(), deformation._efo_null_space()
    for cached in (deformation._gauge_null_space, deformation._efo_null_space):
        cached.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("a constraint matrix evaluated a field")

    monkeypatch.setattr(fd, "all_partials", refuse)
    monkeypatch.setattr(fd, "fd_d", refuse)
    assert np.array_equal(deformation._gauge_null_space(), gauge)
    assert np.array_equal(deformation._efo_null_space(), efo)
    assert not deformation._gauge_null_space().flags.writeable


def test_einstein_family_projects_onto_the_constraint_null_space():
    # the family's quadratic part is the orthogonal projection of its draw
    # onto the constraints' null space, as the least-squares route gives it
    seed = 5
    amat = deformation._efo_constraint_matrix()
    q = np.random.default_rng(seed).normal(size=amat.shape[1]) * 0.6
    null = deformation._efo_null_space()
    assert not null.flags.writeable
    proj = null @ (null.T @ q)
    assert np.max(np.abs(amat @ proj)) <= 1e-12
    sol, *_ = np.linalg.lstsq(amat, amat @ q, rcond=None)
    assert np.max(np.abs(proj - (q - sol))) <= 1e-12
    fam = deformation.einstein_first_order_family(seed)
    lin = deformation.linear_gauged_family(seed + 1)
    x = np.random.default_rng(3).normal(size=(4, 4))
    assert np.array_equal(fam.coeff(x), lin.coeff(x) + deformation._polynomial_field(proj)(x))


def test_einstein_family_constraints():
    fam = deformation.einstein_first_order_family(8)
    # anti-self-dual part of d a1 vanishes at the origin, while the
    # self-dual part (the coupling curvature) is genuinely nonzero
    a1_field = lambda y: deformation.star_d_phi(fam.phi_field, y)
    da1 = np.stack([
        fd.fd_d(forms.FormField(1, lambda y, i=i: a1_field(y)[..., i, :]), np.zeros(4))
        for i in range(3)
    ])
    assert np.max(np.abs(_asd(da1))) < 1e-6
    assert np.max(np.abs(_sd(da1))) > 1e-2
    # the quadratic part of the perturbation is divergence-gauged:
    # B h = 0 at sample points (the linear part is gauged through lam)
    lin = deformation.linear_gauged_family(8 + 1)
    quad_coeff = lambda y: fam.coeff(y) - lin.coeff(y)
    flat = lambda x: np.broadcast_to(np.eye(4), np.shape(x)[:-1] + (4, 4))
    h_field = lambda y: deformation.metric_perturbation_from_coeffs(quad_coeff(y))
    for x in (np.zeros(4), np.array([0.3, -0.7, 0.4, 0.9])):
        assert np.max(np.abs(connection.bianchi_gauge(flat, h_field, x))) < 1e-6


def test_second_order_tensor_identification():
    # the anti-self-dual stack, pushed to a symmetric tensor, equals the
    # t^2-coefficient of the nonlinear tracefree Ricci with factor one
    fam = deformation.linear_gauged_family(12)
    a1_field = lambda y: deformation.star_d_phi(fam.phi_field, y)
    stack = deformation.ric0_second_order(a1_field, _da2(fam, X0), fam.phi_field, X0)
    tensor = connection.mixed_block_to_ric0(_asd(stack), np.eye(4))

    def tracefree_ricci(t: np.ndarray) -> np.ndarray:
        metric = fam.metric_field(t)
        x = deformation.node_points(t, X0)
        ric = fd.ricci(metric, x)
        g = metric(x)
        ginv = np.linalg.inv(g)
        return ric - 0.25 * np.einsum("...ab,...ab->...", ginv, ric)[:, None, None] * g

    oracle = fd.taylor_coefficient(tracefree_ricci, 2, deformation.TAYLOR_NODES)
    assert np.max(np.abs(tensor - oracle)) < 1e-6


# --- moment-map connection on the curved background --------------------------

def test_moment_connection_curvature_and_coclosed():
    cfg = gh.GHConfig.canonical(1, 1.0)
    rng = np.random.default_rng(3)
    coeff = rng.normal(size=(3, 3))
    coeff = 0.5 * (coeff + coeff.T)
    coeff[0, :] = 0.0
    coeff[:, 0] = 0.0
    u = np.array([0.8, 0.5, 0.3317])
    u /= np.linalg.norm(u)
    x4 = np.array([*(2.0 * u), 0.4])
    res = deformation.moment_connection_checks(cfg, coeff, x4, h=5e-4)
    assert res["curvature_residual"] < 1e-5
    assert res["coclosed_residual"] < 1e-5


def test_moment_connection_checks_make_one_stencil_call(monkeypatch):
    # d a and delta a = -*d*a come from one evaluation of the connection on
    # the stencil, bit for bit the residuals of fd_d and of the codifferential
    # taken through a second evaluation of a on the stencil
    cfg = gh.GHConfig.canonical(1, 1.0)
    coeff = np.array([[0.0, 0.0, 0.0], [0.0, 0.7, -0.3], [0.0, -0.3, 0.2]])
    x4 = np.array([[1.2, 0.9, 0.5, 0.4], [-0.4, 1.1, -0.9, 0.4], [0.6, -1.3, 1.0, 0.4]])
    a = forms.FormField(1, lambda y: coeff @ gh.alpha_covector(cfg, y))
    mfn = gh.metric_fn(cfg)
    starred = forms.FormField(3, lambda y: forms.hodge_star(
        forms.metric_inverse(mfn(y)[..., None, :, :]), a(y), 1))
    delta = -forms.hodge_star(forms.metric_inverse(mfn(x4)[..., None, :, :]),
                              fd.fd_d(starred, x4), 4)
    d_res = np.max(np.abs(fd.fd_d(a, x4) - coeff @ gh.triple_field(cfg)(x4)))
    calls = []
    alpha = gh.alpha_covector

    def counted(config, y, *sample):
        calls.append(np.shape(y))
        return alpha(config, y, *sample)

    monkeypatch.setattr(gh, "alpha_covector", counted)
    res = deformation.moment_connection_checks(cfg, coeff, x4)
    assert calls == [(3, 8, 4)]
    assert res == {"curvature_residual": float(d_res),
                   "coclosed_residual": float(np.max(np.abs(delta)))}


def test_moment_connection_checks_build_the_metric_once_per_point_stack(monkeypatch):
    # one GH potential pass on the stencil serves a and the metric of the
    # codifferential there, and one at the points serves the triple and the
    # metric there; the residuals are bitwise those of separate passes
    cfg = gh.GHConfig.canonical(2, 0.7)
    coeff = np.array([[0.0, 0.0, 0.0], [0.0, 0.4, 0.6], [0.0, 0.6, -0.5]])
    x4 = np.array([[1.2, 0.9, 0.5, 0.4], [-0.4, 1.1, -0.9, 0.4], [0.6, -1.3, 1.0, 0.4]])
    a = forms.FormField(1, lambda y: coeff @ gh.alpha_covector(cfg, y))
    d_a, delta_a = fd.d_and_codifferential(
        lambda y: forms.metric_inverse(gh.metric_matrix(cfg, y)), a, x4, 5e-4)
    expected = {"curvature_residual": float(np.max(np.abs(d_a - coeff @ gh.triple_field(cfg)(x4)))),
                "coclosed_residual": float(np.max(np.abs(delta_a)))}
    calls = []
    inner = gh.potential_and_eta

    def counted(config, y, *patch):
        calls.append(np.shape(y))
        return inner(config, y, *patch)

    monkeypatch.setattr(gh, "potential_and_eta", counted)
    assert deformation.moment_connection_checks(cfg, coeff, x4, h=5e-4) == expected
    assert sorted(calls) == [(3, 4), (3, 8, 4)]


def test_radial_contraction_decay_rate():
    cfg = gh.GHConfig.canonical(1, 1.0)
    slope = deformation.radial_contraction_decay(cfg)
    assert slope <= -2.8
