"""Centered finite differences on 4-dimensional charts.

Default step is 1e-3 at unit scale; steps grow with the max base
coordinate (the bounded fiber angle is excluded) so far-field stencils
stay well conditioned relative to the decaying fields they probe.  All geometric identities verified with these tools
are exact in the continuum, so plain O(h^2) accuracy plus optional
Richardson extrapolation suffices at the tolerances used in the suites.

Curvature conventions: R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X -
nabla_[X,Y] with R(e_c, e_d) e_b = R^a_{bcd} e_a, Ricci R_bd = R^a_{bad}.
The round metric then has positive scalar curvature.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import CenterTooClose, EvaluationDomain, OnDiracString
from .forms import DEGREE_SIZES, DIM, TUPLE_INDEX, TUPLES, FormField

DEFAULT_STEP = 1e-3


def _call(fn: Callable, x: np.ndarray) -> np.ndarray:
    try:
        return np.asarray(fn(x), dtype=float)
    except (CenterTooClose, OnDiracString) as exc:
        raise EvaluationDomain(f"stencil left the chart at {x}: {exc}") from exc


def step_at(x: np.ndarray, h: float, scale: bool = True) -> float:
    if not scale:
        return h
    x = np.asarray(x, dtype=float)
    # Charts put the bounded fiber coordinate last; step conditioning must
    # track the base radius only, never the fiber angle.
    span = x[:3] if x.size == DIM else x
    return h * max(1.0, float(np.max(np.abs(span))))


def partial(fn: Callable, x: np.ndarray, direction: int,
            h: float = DEFAULT_STEP, scale: bool = True) -> np.ndarray:
    """Centered first difference of an array-valued function."""
    x = np.asarray(x, dtype=float)
    he = step_at(x, h, scale)
    e = np.zeros_like(x)
    e[direction] = he
    return (_call(fn, x + e) - _call(fn, x - e)) / (2.0 * he)


def all_partials(fn: Callable, x: np.ndarray, h: float = DEFAULT_STEP,
                 scale: bool = True) -> np.ndarray:
    """Stack of the four first partials; leading axis is the direction."""
    return np.stack([partial(fn, x, a, h, scale) for a in range(DIM)])


def gradient(f: Callable, x: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    return np.array([float(partial(f, x, a, h)) for a in range(DIM)])


def _d_table(p: int) -> np.ndarray:
    """Sign table D[a, I, K]: (d w)_K = sum_{a, I} d_a w_I D[a, I, K]."""
    table = np.zeros((DIM, DEGREE_SIZES[p], DEGREE_SIZES[min(p + 1, DIM)]))
    for out_idx, tup in enumerate(TUPLES.get(p + 1, ())):
        for pos in range(p + 1):
            rest = tup[:pos] + tup[pos + 1:]
            table[tup[pos], TUPLE_INDEX[p][rest], out_idx] = (-1) ** pos
    return table


_D_TABLE = {p: _d_table(p) for p in range(DIM + 1)}


def fd_d(field: FormField, point: np.ndarray, h: float = DEFAULT_STEP,
         scale: bool = True) -> np.ndarray:
    """Exterior derivative at a point, error O(h^2).

    A field returning (..., n_p) components gives (..., n_{p+1}): a stack
    of forms is differentiated row by row from one stencil of eight
    evaluations.  The derivative of a 4-form is the zero 4-form.
    """
    partials = all_partials(field, point, h, scale)  # (4, ..., n_p)
    return np.tensordot(partials, _D_TABLE[field.degree], axes=([0, -1], [0, 1]))


def d_field(field: FormField, h: float = DEFAULT_STEP, scale: bool = True) -> FormField:
    """The exterior derivative as a lazily evaluated field."""
    return FormField(
        degree=min(field.degree + 1, DIM),
        evaluator=lambda x: fd_d(field, x, h, scale),
    )


def richardson(eval_at: Callable[[float], np.ndarray], h: float) -> np.ndarray:
    """One extrapolation level for an O(h^2) rule: (4 I(h/2) - I(h)) / 3."""
    return (4.0 * np.asarray(eval_at(h / 2.0)) - np.asarray(eval_at(h))) / 3.0


def christoffel(metric_fn: Callable, x: np.ndarray, h: float = DEFAULT_STEP,
                scale: bool = True) -> np.ndarray:
    """Gamma[a, b, c] = Gamma^a_{bc} from finite differences of the metric."""
    x = np.asarray(x, dtype=float)
    g = _call(metric_fn, x)
    ginv = np.linalg.inv(g)
    dg = all_partials(metric_fn, x, h, scale)  # dg[c, a, b] = d_c g_ab
    # 2 Gamma_{dbc} = d_b g_dc + d_c g_db - d_d g_bc
    low = 0.5 * (
        np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg) - dg
    )
    return np.einsum("ad,dbc->abc", ginv, low)


def riemann_up(metric_fn: Callable, x: np.ndarray, h: float = DEFAULT_STEP,
               scale: bool = True) -> np.ndarray:
    """R[a, b, c, d] = R^a_{bcd}; nested differences of Christoffel symbols."""
    x = np.asarray(x, dtype=float)
    gamma = christoffel(metric_fn, x, h, scale)
    dgamma = np.stack(
        [partial(lambda y: christoffel(metric_fn, y, h, scale), x, c, h, scale)
         for c in range(DIM)]
    )  # dgamma[c, a, d, b] = d_c Gamma^a_{db}
    r = (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("ace,edb->abcd", gamma, gamma)
        - np.einsum("ade,ecb->abcd", gamma, gamma)
    )
    return r


def riemann_lowered(metric_fn: Callable, x: np.ndarray, h: float = DEFAULT_STEP,
                    scale: bool = True) -> np.ndarray:
    g = _call(metric_fn, x)
    return np.einsum("ae,ebcd->abcd", g, riemann_up(metric_fn, x, h, scale))


def ricci(metric_fn: Callable, x: np.ndarray, h: float = DEFAULT_STEP,
          scale: bool = True) -> np.ndarray:
    return np.einsum("abad->bd", riemann_up(metric_fn, x, h, scale))


def scalar_curvature(metric_fn: Callable, x: np.ndarray, h: float = DEFAULT_STEP,
                     scale: bool = True) -> float:
    g = _call(metric_fn, x)
    return float(np.einsum("bd,bd->", np.linalg.inv(g), ricci(metric_fn, x, h, scale)))


def lie_derivative_metric(metric_fn: Callable, vec_fn: Callable, x: np.ndarray,
                          h: float = DEFAULT_STEP, scale: bool = True) -> np.ndarray:
    """(L_X g)_ab = X^c d_c g_ab + g_cb d_a X^c + g_ac d_b X^c."""
    x = np.asarray(x, dtype=float)
    g = _call(metric_fn, x)
    v = _call(vec_fn, x)
    dg = all_partials(metric_fn, x, h, scale)
    dv = all_partials(vec_fn, x, h, scale)  # dv[a, c] = d_a X^c
    return (
        np.einsum("c,cab->ab", v, dg)
        + np.einsum("cb,ac->ab", g, dv)
        + np.einsum("ac,bc->ab", g, dv)
    )


def codifferential(metric_fn: Callable, field: FormField, x: np.ndarray,
                   h: float = DEFAULT_STEP, scale: bool = True) -> np.ndarray:
    """delta = -*d* on any degree (Riemannian signature, dimension 4);
    a field of (..., n) stacks gives the stack of codifferentials."""
    from .forms import hodge_star  # local import to keep module load cheap

    def starred(y: np.ndarray) -> np.ndarray:
        return hodge_star(_call(metric_fn, y), field(y), field.degree)

    inner = FormField(degree=DIM - field.degree, evaluator=starred)
    d_star = fd_d(inner, x, h, scale)
    g = _call(metric_fn, x)
    return -hodge_star(g, d_star, DIM - field.degree + 1)


def laplace_beltrami(metric_fn: Callable, f: Callable, x: np.ndarray,
                     h: float = DEFAULT_STEP, scale: bool = True) -> float:
    """Scalar Laplacian via div(grad): sign convention Delta f = +f'' on R."""
    def flux(y: np.ndarray) -> np.ndarray:
        g = _call(metric_fn, y)
        ginv = np.linalg.inv(g)
        det = np.linalg.det(g)
        df = np.array([float(partial(f, y, a, h, scale)) for a in range(DIM)])
        return np.sqrt(det) * (ginv @ df)

    g0 = _call(metric_fn, x)
    div = sum(float(partial(flux, x, a, h, scale)[a]) for a in range(DIM))
    return div / float(np.sqrt(np.linalg.det(g0)))
