"""Multi-center circle-fibered geometry over R^3.

The chart is (x1, x2, x3, tau) with tau the fiber angle of period
2*pi.  The potential is V = (1/2) sum n_i / |x - p_i| and the fiber
connection eta = dtau + A satisfies dA = *dV for the standard
orientation dx1^dx2^dx3; that orientation is forced by closedness of
the 2-form triple below, not a free choice.

A is stored in two gauges.  In the north gauge each center contributes
(n_i/2)(cos th_i - 1) dphi_i, singular on the ray pointing in the -x1
direction from that center; the south gauge uses (cos th_i + 1) and is
singular on the +x1 rays.  The gauges differ by sum_i n_i dphi_i, a
pure fiber shift.  Points within EPS_STRING of an excluded ray raise
OnDiracString rather than extrapolating.  Only the point layer
(validate_base, potential_and_eta, metric_matrix) takes the gauge;
everything above it works in the north gauge.

The 2-form triple is w_i = dx^i ^ eta + V dx^j ^ dx^k (cyclic over the
three base directions); it is self-dual for the volume form
V dx1^dx2^dx3^dtau and satisfies J1 J2 = J3.

The exceptional fiber surface sits over the segment between the two
cluster points; the pullback of eta to it is exactly dtau, so surface
integrals reduce to 2*pi times a line quadrature (SIGMA_ORDER
Gauss-Legendre nodes) and never evaluate A on the axis.  The integrand is
evaluated with numpy's floating-point warnings off: one that is out of
range fails the finiteness check after it (QuadratureDivergence), so a
configuration out of range stops with that one error.

One pass over the centers: the offsets x - p_i and distances |x - p_i| of
a point stack are computed once (_offsets) and serve every use at that
stack.  They are stored center-major, the offsets as a (centers, 3, ...)
array and the distances as (centers, ...), so each per-center,
per-component slice is a contiguous (...) array and no reduction runs over a
trailing axis of length 3 or of the centers.  The distances are
sqrt(d0 d0 + d1 d1 + d2 d2), and every sum over the centers runs in center
order from +0.0 (_center_sum): for fewer than eight centers these are the
order and start of numpy's norm and sum over a trailing axis, so the values
are bit-identical to the (..., centers, 3) layout.  validate_base returns
the pass it checked, so the domain check, V and the connection's offsets
come from one evaluation.  grad f, for f = V0/V with V0 = 1/(2|x - p0|) the
first center's share of V, comes from the same pass (_grad_f_from, which
writes over it): per component read, the offsets over |x - p_i|^3 weighted
by n_i, their sum over the centers and the quotient rule, each one
contiguous (...) array.  V is the one expression of eval_V
(_potential_from), and up to exact factors of 2 the rest are the operations
of eval_V_grad, so V and grad f are theirs bit for bit; dividing
by r_i^2 instead would move finite-difference residuals such as
omega-closed by up to 1e-7 of themselves.  grad_f_and_potential gives them
unchecked, eta_and_grad_f with the north-gauge eta after domain validation.

Point-stacking rule: every pointwise function here takes a (..., 3) stack
of base points or a (..., 4) stack of chart points and returns one value
per point, (..., *shape): metric_matrix gives (..., 4, 4), the triple
field (..., 3, 6), alpha_covector (..., 3, 4).  metric_at samples the
metric, its (g^-1, det g) pair and the triple (FrameSample); the orthonormal
coframe is built only by coframe_and_metric.  validate_base checks the
whole stack and names the first offending point.  sample_chart_points
returns a (count, 4) stack that feeds these functions directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CenterTooClose,
    OnDiracString,
    QuadratureDivergence,
    SchemaError,
)
from .forms import CYCLIC, FormField, Inverse, J_with, apply_J_covector, metric_inverse, wedge

FIBER_PERIOD = 2.0 * math.pi
# domain radii: around each center, and around each patch's excluded rays
EPS_CENTER = 1e-6
EPS_STRING = 1e-6
# Gauss-Legendre nodes of every core-surface integral
SIGMA_ORDER = 96

Center = tuple[tuple[float, float, float], int]


def _read_only(values) -> np.ndarray:
    """A float array of the values that no caller can write to."""
    table = np.asarray(values, dtype=float)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class GHConfig:
    """Two-cluster configuration: one simple center and one of weight k.

    The canonical layout places the simple center at (-k*lam, 0, 0) and
    the weight-k center at (lam, 0, 0), so the weighted centroid is the
    origin.  A single unit-weight center (k = 0 sentinel) is allowed as
    the flat oracle.
    """

    k: int
    lam: float
    centers: tuple[Center, ...]

    def __post_init__(self) -> None:
        if self.k == 0:
            if len(self.centers) != 1 or self.centers[0][1] != 1:
                raise SchemaError("k=0 is reserved for the single-center oracle")
        elif self.k < 1:
            raise SchemaError(f"k must be >= 1, got {self.k}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise SchemaError(f"lambda must be finite and > 0, got {self.lam}")
        for idx, (pos, n) in enumerate(self.centers):
            if not np.all(np.isfinite(np.asarray(pos, dtype=float))):
                raise SchemaError(f"centers[{idx}]: position {pos} is not finite")
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise SchemaError(f"centers[{idx}]: weight must be a positive integer, got {n!r}")
        positions = self.positions
        for i in range(len(positions)):
            for j in range(i):
                if np.array_equal(positions[i], positions[j]):
                    raise SchemaError(
                        f"centers[{i}]: coincides with centers[{j}] at {positions[i]}")
        if self.k == 0:
            return
        total = sum(n for _, n in self.centers)
        if total != self.k + 1:
            raise SchemaError(
                f"total multiplicity {total} != k+1 = {self.k + 1}"
            )
        centroid = np.zeros(3)
        for pos, n in self.centers:
            centroid += n * np.asarray(pos, dtype=float)
        if np.max(np.abs(centroid)) > 1e-9 * max(1.0, self.lam):
            raise SchemaError(f"weighted centroid {centroid} is not the origin")

    @classmethod
    def canonical(cls, k: int, lam: float) -> "GHConfig":
        return cls(
            k=k,
            lam=lam,
            centers=(
                ((-k * lam, 0.0, 0.0), 1),
                ((lam, 0.0, 0.0), k),
            ),
        )

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """Center positions (centers, 3), built once per config, read-only."""
        return _read_only([pos for pos, _ in self.centers])

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Center weights (centers,), built once per config, read-only."""
        return _read_only([n for _, n in self.centers])

    @property
    def p0(self) -> np.ndarray:
        return np.asarray(self.centers[0][0], dtype=float)

    @property
    def p1(self) -> np.ndarray:
        return np.asarray(self.centers[-1][0], dtype=float)

    @property
    def segment(self) -> tuple[float, float]:
        """x1-range (low, high) between the two cluster points, which must lie
        on the x1 axis, the axis of the core surface and the volume rule."""
        if len(self.centers) < 2:
            raise SchemaError("single-center config: one center, no segment between cluster points")
        p0, p1 = self.p0, self.p1
        if np.any(p0[1:] != 0.0) or np.any(p1[1:] != 0.0):
            raise SchemaError(f"centers: cluster points {p0.tolist()} and "
                              f"{p1.tolist()} must lie on the x1 axis")
        return float(min(p0[0], p1[0])), float(max(p0[0], p1[0]))


def _offsets(config: GHConfig, x3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one pass over the centers, center-major: offsets x - p_i as a
    (centers, 3, ...) array and distances |x - p_i| as (centers, ...), for a
    (..., 3) stack of base points."""
    x3 = np.asarray(x3, dtype=float)
    lead = x3.ndim - 1
    positions = config.positions
    diff = np.empty(positions.shape + x3.shape[:-1])
    np.subtract(x3.transpose((lead, *range(lead))),
                positions.reshape(positions.shape + (1,) * lead), out=diff)
    dists = diff[:, 0] * diff[:, 0]
    dists += diff[:, 1] * diff[:, 1]
    dists += diff[:, 2] * diff[:, 2]
    return diff, np.sqrt(dists, out=dists)


def _center_sum(terms) -> np.ndarray:
    """Sum of per-center terms in center order, starting from +0.0."""
    return functools.reduce(np.add, terms, 0.0)


def _components_last(a: np.ndarray) -> np.ndarray:
    """A (3, ...) array as its (..., 3) view."""
    return a.transpose((*range(1, a.ndim), 0))


def validate_base(config: GHConfig, x3: np.ndarray,
                  patch: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Domain check of a (..., 3) stack of base points: none may lie within
    EPS_CENTER of a center, nor (given a patch) within EPS_STRING of that
    patch's excluded rays.  The error names the first offending point, in
    point order, and the center.  Returns the offsets and distances it
    checked (_offsets), so that callers evaluate from the same pass over the
    centers."""
    diff, dists = _offsets(config, x3)
    count = len(config.centers)
    flat_dists = dists.reshape(count, -1)
    near = flat_dists < EPS_CENTER
    if near.any():  # the point order is searched only when a point fails
        n = np.flatnonzero(near.any(axis=0))[0]
        idx = int(np.argmin(flat_dists[:, n]))
        raise CenterTooClose(
            f"point {np.reshape(x3, (-1, 3))[n]} within {EPS_CENTER} of center {idx} "
            f"(distance {flat_dists[idx, n]:.3e})"
        )
    if patch is not None:
        flat_diff = diff.reshape(count, 3, -1)
        on_ray = flat_diff[:, 0] <= 0.0 if patch == "north" else flat_diff[:, 0] >= 0.0
        on_string = on_ray & (np.hypot(flat_diff[:, 1], flat_diff[:, 2]) < EPS_STRING)
        if on_string.any():
            n, c = np.argwhere(on_string.T)[0]
            side = "-x1 ray" if patch == "north" else "+x1 ray"
            raise OnDiracString(
                f"point {np.reshape(x3, (-1, 3))[n]} on the {side} of center at "
                f"{config.centers[c][0]} ({patch} gauge)"
            )
    return diff, dists


def _shares(weights: np.ndarray, dists: np.ndarray):
    """The terms n_i / |x - p_i| of 2V, one (...) array per center in center
    order, from the (centers, ...) distances."""
    return (n / d for n, d in zip(weights, dists))


def _potential_from(shares) -> np.ndarray:
    """V = (1/2) sum n_i / |x - p_i| from its shares (_shares): the one
    expression of V, which _grad_f_from reads too."""
    return 0.5 * _center_sum(shares)


def eval_V(config: GHConfig, x3: np.ndarray) -> np.ndarray:
    """Harmonic potential at (..., 3) base points, after domain validation."""
    return _potential_from(_shares(config.weights, validate_base(config, x3)[1]))


def eval_V_grad(config: GHConfig, x3: np.ndarray) -> np.ndarray:
    """Gradient of the potential at (..., 3) base points, after domain
    validation: -(1/2) sum n_i (x - p_i) / |x - p_i|^3."""
    diff, dists = validate_base(config, x3)
    q = np.divide(diff, (dists**3)[:, None], out=diff)
    return _components_last(-0.5 * _center_sum(n * qi for n, qi in zip(config.weights, q)))


def _grad_f_from(config: GHConfig, diff: np.ndarray, dists: np.ndarray,
                 components: tuple[int, ...]) -> tuple[list[np.ndarray], np.ndarray]:
    """The listed components of grad f, f = V0/V, one (...) array each, and
    V, from the offsets and distances of one pass over the centers, which it
    writes over."""
    n0 = config.centers[0][1]
    if n0 != 1:
        raise SchemaError(
            f"centers[0]: V0 = 1/(2|x - p0|) needs the first center's weight to be 1, got {n0}")
    # points on one flat axis, so that every slice below is an array
    shape, count = dists.shape[1:], len(dists)
    diff, dists = diff.reshape(count, 3, -1), dists.reshape(count, -1)
    weights = config.weights[:, None]
    # s = 2 V, s0 = 2 V0 and, per component, q = -2 grad V and q0 = -2 grad V0
    # take the operations of eval_V and eval_V_grad up to exact factors of 2,
    # so V and grad f are those of the two potentials' quotient rule bit for bit
    shares = list(_shares(config.weights, dists))
    s = _potential_from(shares)
    s += s  # 2 V, the center sum exactly, halved back in place on return
    s_sq = s * s
    cubes = np.power(dists, 3, out=dists)
    grads = []
    for c in components:
        # n_i (x - p_i) / r_i^3 over the offsets; n_0 = 1 leaves q0 in row 0
        q_i = np.multiply(weights, np.divide(diff[:, c], cubes, out=diff[:, c]), out=diff[:, c])
        q = q_i.sum(axis=0)
        # grad f = (V grad V0 - V0 grad V) / V^2 = (s0 q - q0 s) / s^2
        q *= shares[0]
        q -= np.multiply(q_i[0], s, out=q_i[0])
        grads.append(np.divide(q, s_sq, out=q).reshape(shape))
    return grads, np.multiply(0.5, s, out=s).reshape(shape)


def grad_f_and_potential(config: GHConfig, pts: np.ndarray, components: tuple[int, ...] = (0, 1, 2)
                         ) -> tuple[list[np.ndarray], np.ndarray]:
    """The listed components of grad f, f = V0/V with V0 = 1/(2|x - p0|) the
    first center's share of V (whose weight must be 1), one (...) array
    each, and V, equal bit for bit to eval_V, at (..., 3) base points from one
    pass over the centers, without domain checks."""
    return _grad_f_from(config, *_offsets(config, pts), components)


def _eta(config: GHConfig, diff: np.ndarray, patch: str) -> np.ndarray:
    """The 4D covector eta = dtau + A (..., 4) from the (centers, 3, ...)
    offsets x - p_i of a stack of base points, unchecked."""
    sign = -1.0 if patch == "north" else 1.0
    d0, d1, d2 = diff[:, 0], diff[:, 1], diff[:, 2]
    rho_sq = d1**2 + d2**2
    # on the regular side of the axis the coefficient vanishes in the limit
    on_axis = rho_sq == 0.0
    rho_sq = np.where(on_axis, 1.0, rho_sq)
    half_n = 0.5 * config.weights.reshape((-1,) + (1,) * (diff.ndim - 2))
    coeff = np.where(on_axis, 0.0, half_n * (d0 / np.sqrt(d0**2 + rho_sq) + sign))
    out = np.zeros(diff.shape[2:] + (4,))
    out[..., 1] = _center_sum(coeff * (-d2 / rho_sq))
    out[..., 2] = _center_sum(coeff * (d1 / rho_sq))
    out[..., 3] = 1.0
    return out


def potential_and_eta(config: GHConfig, x4: np.ndarray,
                      patch: str = "north") -> tuple[np.ndarray, np.ndarray]:
    """V (...) and the 4D covector eta (..., 4) at (..., 4) chart points,
    after domain validation, from one pass over the centers."""
    x3 = np.asarray(x4, dtype=float)[..., :3]
    diff, dists = validate_base(config, x3, patch)
    return _potential_from(_shares(config.weights, dists)), _eta(config, diff, patch)


def eta_and_grad_f(config: GHConfig, x4: np.ndarray
                   ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The north-gauge eta (..., 4) with the three components of grad f and
    V as in grad_f_and_potential, at (..., 4) chart points, after domain
    validation, from one pass over the centers."""
    diff, dists = validate_base(config, np.asarray(x4, dtype=float)[..., :3], "north")
    eta = _eta(config, diff, "north")
    return (eta, *_grad_f_from(config, diff, dists, (0, 1, 2)))


def _metric_from(v: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """V dx.dx + V^{-1} eta^2 from the potential and the 4D covector eta."""
    g = eta[..., :, None] * eta[..., None, :] / v[..., None, None]
    diag = np.arange(3)
    g[..., diag, diag] += v[..., None]
    return g


def metric_matrix(config: GHConfig, x4: np.ndarray, patch: str = "north") -> np.ndarray:
    """Chart-coordinate metric V dx.dx + V^{-1} eta^2 at (..., 4) points."""
    return _metric_from(*potential_and_eta(config, x4, patch))


def metric_fn(config: GHConfig) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x4: metric_matrix(config, x4)


@dataclass
class FrameSample:
    """Metric data at a stack of chart points: the metric and its one
    inverse pair, the self-dual 2-form triple and its complex structures J,
    taken on first read from that pair."""

    metric: np.ndarray  # (..., 4, 4)
    inverse: Inverse  # ((..., 4, 4), (...))
    triple: np.ndarray  # (..., 3, 6), rows: component vectors of w1, w2, w3

    def rows(self, index) -> FrameSample:
        """The sample at points[index] of its point stack."""
        return FrameSample(self.metric[index], tuple(part[index] for part in self.inverse),
                           self.triple[index])

    @functools.cached_property
    def J(self) -> np.ndarray:
        """(..., 3, 4, 4) complex structures of the triple."""
        return J_with((self.inverse[0][..., None, :, :], self.inverse[1][..., None]), self.triple)


# dx^i and the cyclic base 2-forms dx^j ^ dx^k, rows i = 1, 2, 3
_DX = _read_only(np.eye(4)[:3])
_DX_PAIRS = _read_only(wedge(_DX[CYCLIC[0]], 1, _DX[CYCLIC[1]], 1))


def form_triple(v: np.ndarray, eta: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """w_i = dx^i ^ eta + sign V dx^j ^ dx^k (cyclic) as a (..., 3, 6) stack
    from V (...) and eta (..., 4): the self-dual triple for sign +1, the
    anti-self-dual one for -1."""
    v = np.asarray(v, dtype=float)[..., None, None]
    return wedge(_DX, 1, np.asarray(eta)[..., None, :], 1) + sign * v * _DX_PAIRS


def _coframe_from(v: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The orthonormal coframe (..., 4, 4) from V (...) and eta (..., 4): rows
    e^1, e^2, e^3, e^0, with e^0 = V^{-1/2} eta."""
    sqv = np.sqrt(v)[..., None]
    coframe = np.zeros(eta.shape + (4,))
    diag = np.arange(3)
    coframe[..., diag, diag] = sqv
    coframe[..., 3, :] = eta / sqv
    return coframe


def coframe_and_metric(config: GHConfig, x4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coframe and metric of metric_at at (..., 4) points, without its
    inverse pair and triple."""
    v, eta = potential_and_eta(config, x4)
    return _coframe_from(v, eta), _metric_from(v, eta)


def metric_at(config: GHConfig, x4: np.ndarray) -> FrameSample:
    v, eta = potential_and_eta(config, x4)
    g = _metric_from(v, eta)
    return FrameSample(g, metric_inverse(g), form_triple(v, eta))


def triple_field(config: GHConfig) -> FormField:
    """The self-dual triple as one degree-2 field with (..., 3, 6) values."""
    return FormField(2, lambda x4: form_triple(*potential_and_eta(config, x4)))


def moment_map(config: GHConfig, x3: np.ndarray) -> np.ndarray:
    """Weighted distance sum at (..., 3) base points; extends continuously
    to the centers."""
    return _center_sum(n * d for n, d in zip(config.weights, _offsets(config, x3)[1]))


def dm4(config: GHConfig, x3: np.ndarray) -> np.ndarray:
    """dm (..., 4) at (..., 3) base points, validated; its fiber component is 0."""
    diff, dists = validate_base(config, x3)
    out = np.zeros(diff.shape[2:] + (4,))
    out[..., :3] = _components_last(
        _center_sum((n / d) * di for n, d, di in zip(config.weights, dists, diff)))
    return out


def alpha_covector(config: GHConfig, x4: np.ndarray,
                   sample: FrameSample | None = None) -> np.ndarray:
    """alpha_i = (1/2) J_i dm as chart covectors, a (..., 3, 4) stack; J is
    read from sample, metric_at of the same points, when the caller has it."""
    x4 = np.asarray(x4, dtype=float)
    if sample is None:
        sample = metric_at(config, x4)
    return 0.5 * apply_J_covector(sample.J, dm4(config, x4[..., :3])[..., None, :])


def xi_fn(config: GHConfig) -> Callable[[np.ndarray], np.ndarray]:
    """Metric dual of J_1 dm; contracting into w1 gives -dm exactly."""

    def ev(x4: np.ndarray) -> np.ndarray:
        x4 = np.asarray(x4, dtype=float)
        sample = metric_at(config, x4)
        j1 = J_with(sample.inverse, sample.triple[..., 0, :])
        jdm = apply_J_covector(j1, dm4(config, x4[..., :3]))
        return np.linalg.solve(sample.metric, jdm[..., None])[..., 0]

    return ev


@functools.cache
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and read-only, since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _legendre_rule(order)
    half = 0.5 * (b - a)
    return a + half * (nodes + 1.0), half * weights


def axis_points(x1: np.ndarray) -> np.ndarray:
    """(..., 3) base points (x1, 0, 0) on the axis through the centers."""
    x1 = np.asarray(x1, dtype=float)
    zero = np.zeros_like(x1)
    return np.stack([x1, zero, zero], axis=-1)


def sigma_integrate(config: GHConfig, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of f against the area form of the exceptional surface.

    The surface is fibered over the open segment; its area form pulls
    back to dx1 ^ dtau, so the integral is 2*pi * int f(x1) dx1 by
    Gauss-Legendre quadrature of SIGMA_ORDER nodes.  f maps the (n,) array
    of x1 nodes to (n,) values in one call; any other shape raises
    SchemaError, as does one center or cluster points off the x1 axis
    (segment).
    """
    a, b = config.segment
    nodes, weights = gauss_legendre(a, b, SIGMA_ORDER)
    # an integrand out of range fails the finiteness check below, not a warning
    with np.errstate(all="ignore"):
        vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise SchemaError(
            f"surface integrand returned shape {vals.shape} for {len(nodes)} nodes, "
            f"expected {nodes.shape}")
    if not np.all(np.isfinite(vals)):
        raise QuadratureDivergence("integrand not finite on the segment")
    total = float(np.sum(weights * vals))
    if not math.isfinite(total):
        raise QuadratureDivergence("quadrature sum overflowed")
    return FIBER_PERIOD * total


def vol_sigma(config: GHConfig) -> float:
    return sigma_integrate(config, np.ones_like)


def axis_link_holonomy(config: GHConfig, x1: float) -> float:
    """Integral of A, south gauge, around the base circle of radius 1e-3
    about the axis at x1 (64 Gauss-Legendre nodes), read off eta = dtau + A."""
    nodes, weights = gauss_legendre(0.0, 2.0 * math.pi, 64)
    cos, sin = 1e-3 * np.cos(nodes), 1e-3 * np.sin(nodes)
    x4 = np.stack([np.full_like(cos, x1), cos, sin, np.zeros_like(cos)], axis=-1)
    _, eta = potential_and_eta(config, x4, "south")
    return float(np.sum(weights * (eta[:, 2] * cos - eta[:, 1] * sin)))


def center_flux(config: GHConfig, center_index: int, radius: float) -> float:
    """Flux of dA = *dV through a sphere around one center (outward normal).

    Exactly -2*pi*n for an enclosed weight-n center by the divergence
    theorem; computed here by quadrature of grad(V).n over the
    32 x 32 product nodes of the sphere in one call.
    """
    pos = np.asarray(config.centers[center_index][0], dtype=float)
    u, wu = gauss_legendre(-1.0, 1.0, 32)
    phi, wphi = gauss_legendre(0.0, 2.0 * math.pi, 32)
    s = np.sqrt(1.0 - u * u)[:, None]
    n_hat = np.stack(np.broadcast_arrays(u[:, None], s * np.cos(phi), s * np.sin(phi)), axis=-1)
    grad = eval_V_grad(config, pos + radius * n_hat)
    return float(wu @ np.sum(grad * n_hat, axis=-1) @ wphi) * radius**2


def v_laplacian_fd(config: GHConfig, x3: np.ndarray) -> np.ndarray:
    """Flat 3D Laplacian of V by second differences of step 1e-3
    (harmonicity check) at (..., 3) base points, from one potential call
    on the 7-point stencils."""
    h = 1e-3
    offsets = np.concatenate([np.zeros((1, 3)), h * np.eye(3), -h * np.eye(3)])
    v = eval_V(config, np.asarray(x3, dtype=float)[..., None, :] + offsets)
    return np.sum(v[..., 1:4] + v[..., 4:] - 2.0 * v[..., :1], axis=-1) / h**2


def sample_chart_points(
    config: GHConfig,
    count: int,
    seed: int = 0,
    rho_min: float = 0.5,
    rho_max: float = 10.0,
    min_center_dist: float = 0.3,
    min_axis_dist: float = 0.05,
    string_cone_cos: float = 1.0,
) -> np.ndarray:
    """Deterministic off-axis chart points (count, 4) for pointwise identity
    checks, each with a uniform fiber angle.

    string_cone_cos < 1 additionally rejects points inside the cone around
    the north gauge's string half-axis -x1 (where chart components stay
    smooth but their higher derivatives grow and wreck fixed-step finite
    differences): a point is kept only if the cosine of its angle to -x1
    is below string_cone_cos.
    """
    rng = np.random.default_rng(seed)
    positions = config.positions.tolist()
    points: list[list[float]] = []
    while len(points) < count:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        rho = rng.uniform(rho_min, rho_max)
        x3 = rho * direction
        # the distances of _offsets, in scalar arithmetic on the candidate
        a, b, c = x3.tolist()
        if any(math.sqrt((a - p) * (a - p) + (b - q) * (b - q) + (c - r) * (c - r))
               < min_center_dist for p, q, r in positions):
            continue
        if math.hypot(x3[1], x3[2]) < min_axis_dist:
            continue
        if -direction[0] > string_cone_cos:
            continue
        points.append([*x3, rng.uniform(0.0, FIBER_PERIOD)])
    return np.array(points).reshape(count, 4)
