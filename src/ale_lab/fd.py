"""Centered finite differences on 4-dimensional charts.

Point-stacking rule: every field, metric function and FormField
evaluator maps a (..., 4) stack of chart points to a (..., *shape) stack
of values, one per point, and every operator here accepts (..., 4) base
points and returns (..., *result); e.g. ricci on (N, 4) points gives
(N, 4, 4).  An operator builds its whole stencil, with per-point steps,
as one point array and calls the field once on it: the curvature operators
evaluate the nested Christoffel stencil (9 x 9 = 81 points per base
point) in one metric call, value_and_d gives a field and its exterior
derivative from one call on the points and their eight neighbours, and
d_and_codifferential a form's d and delta from one field call and one
call of a (g^{-1}, det g) pair field on those neighbours: the caller
inverts each metric stack, once, as forms.metric_inverse.  A field whose
output's leading axes do not match the points it was given raises
SchemaError, and a stencil point outside the chart raises
EvaluationDomain naming that point.

The step is DEFAULT_STEP = 1e-3 at unit scale, and the operators that a
caller runs at a second step take h; steps grow with the max base
coordinate (the bounded fiber angle is excluded) so far-field stencils
stay well conditioned relative to the decaying fields they probe.  All
geometric identities verified with these tools are exact in the
continuum, so plain O(h^2) accuracy suffices at the tolerances used in
the suites.

Two rules take no real step: taylor_coefficient reads a Taylor
coefficient off a circle of complex t on the caller's node count, and
riemann_from_derivatives takes the curvature of exactly known metric
derivatives, at real or complex points, by the nested stencil's formula.

Quadratic coefficients need no stencil: DQUAD holds the constant second
derivatives of the 10 monomials x_p x_q (QUAD_P, QUAD_Q); with the sign
tables forms.D_TABLE, which fd_d also reads, it gives d of such a form
exactly, as deformation and quadrature use it for their constraints.

Curvature conventions: R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X -
nabla_[X,Y] with R(e_c, e_d) e_b = R^a_{bcd} e_a, Ricci R_bd = R^a_{bad}.
The round metric then has positive scalar curvature.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import CenterTooClose, EvaluationDomain, OnDiracString, SchemaError
from .forms import D_TABLE, DIM, FormField, Inverse, float_or_complex, hodge_star, metric_inverse

DEFAULT_STEP = 1e-3
TAYLOR_RADIUS = 0.1  # the circle taylor_coefficient samples

# stencil offsets +e0, -e0, +e1, -e1, ... (rows)
_OFFSETS = np.repeat(np.eye(DIM), 2, axis=0) * np.tile([1.0, -1.0], DIM)[:, None]


def _call(fn: Callable, pts: np.ndarray):
    """fn on a (..., 4) point stack; its output, an array or a tuple of
    arrays, must lead with the stack's axes."""
    try:
        out = fn(pts)
    except (CenterTooClose, OnDiracString) as exc:
        raise EvaluationDomain(f"stencil left the chart: {exc}") from exc
    parts = tuple(map(float_or_complex, out if isinstance(out, tuple) else (out,)))
    lead = pts.shape[:-1]
    for part in parts:
        if part.shape[:len(lead)] != lead:
            raise SchemaError(
                f"field returned shape {part.shape} for points of shape {pts.shape}; "
                f"its leading axes must be {lead}"
            )
    return parts if isinstance(out, tuple) else parts[0]


def step_at(x: np.ndarray, h: float) -> np.ndarray:
    """Step per point of a (..., 4) stack: h times max(1, max |base coordinate|)."""
    x = np.asarray(x, dtype=float)
    # Charts put the bounded fiber coordinate last; step conditioning must
    # track the base radius only, never the fiber angle.
    return h * np.maximum(1.0, np.max(np.abs(x[..., :3]), axis=-1))


def _central(vals: np.ndarray, he: np.ndarray) -> np.ndarray:
    """(..., 2m, *shape) values at x + he e, x - he e, ... to the m centered
    differences (..., m, *shape)."""
    k = he.ndim
    pairs = vals.reshape(he.shape + (-1, 2) + vals.shape[k + 1:])
    step = 2.0 * he.reshape(he.shape + (1,) * (pairs.ndim - k - 1))
    return (np.take(pairs, 0, axis=k + 1) - np.take(pairs, 1, axis=k + 1)) / step


def _stencil(x: np.ndarray, h: float, center: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Stencil points (..., s, 4) around (..., 4) points, x itself first
    when center is set, and the per-point steps (...)."""
    x = np.asarray(x, dtype=float)
    he = step_at(x, h)
    pts = x[..., None, :] + he[..., None, None] * _OFFSETS
    if center:
        pts = np.concatenate([x[..., None, :], pts], axis=-2)
    return pts, he


def _value_and_partials(fn: Callable, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """fn and its four first partials at (..., 4) points, from one call of
    fn on x and its eight neighbours."""
    pts, he = _stencil(x, h, center=True)
    vals = _call(fn, pts)
    k = he.ndim
    lead = (slice(None),) * k
    return vals[lead + (0,)], _central(vals[lead + (slice(1, None),)], he)


def all_partials(fn: Callable, x: np.ndarray) -> np.ndarray:
    """The four first partials at (..., 4) points as (..., 4, *shape):
    the direction axis follows the point axes."""
    pts, he = _stencil(x, DEFAULT_STEP)
    return _central(_call(fn, pts), he)


# The 10 monomials x_p x_q, p <= q, of a quadratic coefficient, and
# DQUAD[m, a, r] = d_a d_r (x_p x_q) for m = (p, q), the x_r coefficient of
# d_a (x_p x_q), read-only: exact derivatives of quadratic coefficients.
QUAD_P, QUAD_Q = np.triu_indices(DIM)
_PQ = np.eye(DIM)[QUAD_P][:, :, None] * np.eye(DIM)[QUAD_Q][:, None, :]  # delta_ap delta_rq
DQUAD = _PQ + np.swapaxes(_PQ, 1, 2)
DQUAD.setflags(write=False)


def taylor_coefficient(f: Callable[[np.ndarray], np.ndarray],
                       n: int | Sequence[int], nodes: int) -> np.ndarray:
    """The t^n Taylor coefficient at t = 0 of f, analytic in t and real for
    real t, from N = nodes points (N even) of radius r = TAYLOR_RADIUS:

        c_n = (1 / (N r^n)) sum_k f(r w^k) w^(-nk),    w = exp(2 pi i / N)

    (Lyness & Moler 1967; Fornberg 1981), exact up to the aliased
    c_(n+N) r^N.  As f(conj t) = conj f(t), the nodes k and N - k pair:
    f is called once, on the complex array of the nodes r w^k, k = 0..N/2,
    with w^0 = 1 and w^(N/2) = -1 exactly, whose real parts count, and
    returns its values with that node axis leading, else SchemaError.  A
    sequence of orders n gives their real coefficients stacked on a leading
    axis, each bit for bit the one of a call with that order alone.
    """
    r, half = TAYLOR_RADIUS, nodes // 2
    w = np.exp(2j * np.pi * np.arange(half + 1) / nodes)
    w[0], w[half] = 1.0, -1.0
    vals = np.asarray(f(r * w))
    if vals.shape[:1] != w.shape:
        raise SchemaError(
            f"taylor_coefficient: f returned shape {vals.shape} for {w.size} nodes; "
            f"its leading axis must be the node axis, of length {w.size}"
        )

    def coefficient(order: int) -> np.ndarray:
        total = vals[0].real + (-1) ** order * vals[half].real
        for k in range(1, half):
            total = total + 2.0 * (vals[k] * w[k] ** -order).real
        return total / (nodes * r**order)

    if isinstance(n, (int, np.integer)):
        return coefficient(n)
    return np.stack([coefficient(order) for order in n])


def fd_d(field: FormField, point: np.ndarray) -> np.ndarray:
    """Exterior derivative at (..., 4) points, error O(h^2) in DEFAULT_STEP.

    A field returning (..., *shape, n_p) components gives
    (..., *shape, n_{p+1}): a stack of forms is differentiated row by row
    from one stencil of eight evaluations per point.  The derivative of a
    4-form is the zero 4-form.
    """
    return _d_from_partials(field.degree, all_partials(field, point), np.ndim(point))


def _d_from_partials(degree: int, partials: np.ndarray, point_ndim: int) -> np.ndarray:
    """(..., *shape, n_{p+1}) exterior derivatives from the (..., 4, *shape,
    n_p) partials of a degree-p field at points with point_ndim axes."""
    moved = np.moveaxis(partials, point_ndim - 1, -2)
    return np.tensordot(moved, D_TABLE[degree], axes=2)


def value_and_d(field: FormField, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(field, fd_d(field)) at (..., 4) points from one call of the field on
    the points and their eight stencil neighbours."""
    value, partials = _value_and_partials(field, point, DEFAULT_STEP)
    return value, _d_from_partials(field.degree, partials, np.ndim(point))


def _lowered_gamma(dg: np.ndarray) -> np.ndarray:
    """2 Gamma_{dbc} = d_b g_dc + d_c g_db - d_d g_bc, dg[c, a, b] = d_c g_ab."""
    return 0.5 * (np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg)


def _gamma(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^a_{bc} from g_ab and dg[c, a, b] = d_c g_ab (leading axes a stack);
    g^{-1} from forms.metric_inverse, so a singular or non-finite metric
    raises SingularMetric."""
    return np.einsum("...ad,...dbc->...abc", metric_inverse(g)[0], _lowered_gamma(dg))


def christoffel(metric_fn: Callable, x: np.ndarray) -> np.ndarray:
    """Gamma[..., a, b, c] = Gamma^a_{bc} from finite differences of the metric."""
    return _gamma(*_value_and_partials(metric_fn, x, DEFAULT_STEP))


def _riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R^a_{bcd} from Gamma[..., a, b, c] = Gamma^a_{bc} and
    dgamma[..., c, a, d, b] = d_c Gamma^a_{db}."""
    return (
        np.einsum("...cadb->...abcd", dgamma)
        - np.einsum("...dacb->...abcd", dgamma)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )


def _curvature(metric_fn: Callable, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(g_ab, R^a_{bcd}) at (..., 4) points from one metric call on the
    nested stencil: Christoffels at x and its eight neighbours, each from
    the metric at that point and its own eight neighbours."""
    y, he = _stencil(x, h, center=True)  # (..., 9, 4)
    g, dg = _value_and_partials(metric_fn, y, h)  # over (..., 9, 9, 4)
    gam = _gamma(g, dg)
    dgamma = _central(gam[..., 1:, :, :, :], he)  # dgamma[c, a, d, b] = d_c Gamma^a_{db}
    return g[..., 0, :, :], _riemann(gam[..., 0, :, :, :], dgamma)


def riemann_from_derivatives(g: np.ndarray, dg: np.ndarray,
                             ddg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Gamma^a_{bc}, d_e Gamma^a_{bc}, R_abcd) from the exact partials
    dg[c, a, b] = d_c g_ab and ddg[e, c, a, b] = d_e d_c g_ab of a real or
    complex metric stack, with d_e Gamma^a_{bc} = g^{ad} (d_e Gamma_{dbc} -
    d_e g_dp Gamma^p_{bc}) and _curvature's formula and layouts."""
    ginv = metric_inverse(g)[0]
    gamma = np.einsum("...ad,...dbc->...abc", ginv, _lowered_gamma(dg))
    dlow = _lowered_gamma(ddg) - np.einsum("...edp,...pbc->...edbc", dg, gamma)
    dgamma = np.einsum("...ad,...edbc->...eabc", ginv, dlow)
    return gamma, dgamma, np.einsum("...ae,...ebcd->...abcd", g, _riemann(gamma, dgamma))


def metric_and_riemann_lowered(metric_fn: Callable, x: np.ndarray,
                               h: float) -> tuple[np.ndarray, np.ndarray]:
    """(g_ab, R_abcd = g_ae R^e_bcd) at (..., 4) points from one metric
    call: g is the metric at x, the first point of the nested stencil."""
    g, r = _curvature(metric_fn, x, h)
    return g, np.einsum("...ae,...ebcd->...abcd", g, r)


def riemann_lowered(metric_fn: Callable, x: np.ndarray) -> np.ndarray:
    return metric_and_riemann_lowered(metric_fn, x, DEFAULT_STEP)[1]


def ricci(metric_fn: Callable, x: np.ndarray) -> np.ndarray:
    """Ric_bd = R^a_{bad}, R^a_{bcd} from nested differences of Christoffels."""
    return np.einsum("...abad->...bd", _curvature(metric_fn, x, DEFAULT_STEP)[1])


def lie_derivative_metric(metric_fn: Callable, vec_fn: Callable, x: np.ndarray,
                          h: float = DEFAULT_STEP) -> np.ndarray:
    """(L_X g)_ab = X^c d_c g_ab + g_cb d_a X^c + g_ac d_b X^c."""
    g, dg = _value_and_partials(metric_fn, x, h)
    v, dv = _value_and_partials(vec_fn, x, h)  # dv[a, c] = d_a X^c
    return (
        np.einsum("...c,...cab->...ab", v, dg)
        + np.einsum("...cb,...ac->...ab", g, dv)
        + np.einsum("...ac,...bc->...ab", g, dv)
    )


def _inverse_at(inverse_fn: Callable, values: np.ndarray, pts: np.ndarray) -> Inverse:
    """The (g^{-1}, det g) pair of inverse_fn at (..., 4) points, reshaped
    to broadcast against (..., *shape, n) form values at the same points."""
    ginv, det = _call(inverse_fn, pts)
    lead = det.shape + (1,) * (values.ndim - pts.ndim)
    return ginv.reshape(lead + ginv.shape[-2:]), det.reshape(lead)


def d_and_codifferential(inverse_fn: Callable, field: FormField, x: np.ndarray,
                         h: float = DEFAULT_STEP) -> tuple[np.ndarray, np.ndarray]:
    """(d, delta = -*d*) of a form of degree 1-4 (Riemannian, dimension 4)
    at (..., 4) points, from one field call and one call of the pair field
    inverse_fn on the stencil; inverse_fn maps (..., 4) points to the
    (g^{-1}, det g) pair of their metrics, as forms.metric_inverse returns
    it.  A field of (..., *shape, n) stacks gives stacks of both."""
    if not 1 <= field.degree <= DIM:
        raise SchemaError(f"codifferential needs a form of degree 1-4, got degree {field.degree}")
    pts, he = _stencil(x, h)
    w = _call(field, pts)
    starred = hodge_star(_inverse_at(inverse_fn, w, pts), w, field.degree)
    x = np.asarray(x, dtype=float)
    d_w = _d_from_partials(field.degree, _central(w, he), x.ndim)
    d_star = _d_from_partials(DIM - field.degree, _central(starred, he), x.ndim)
    return d_w, -hodge_star(_inverse_at(inverse_fn, d_star, x), d_star, DIM - field.degree + 1)


def laplace_beltrami(metric_fn: Callable, f: Callable, x: np.ndarray) -> np.ndarray:
    """Scalar Laplacian -delta(df), by d_and_codifferential of the 1-form
    df (itself by differences), inverting each metric stack once: sign
    convention Delta f = +f'' on R."""
    df = FormField(1, lambda y: all_partials(f, y))
    return -d_and_codifferential(lambda y: metric_inverse(metric_fn(y)), df, x)[1][..., 0]
