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
pure fiber shift.  Points within eps_string of an excluded ray raise
OnDiracString rather than extrapolating.

The 2-form triple is w_i = dx^i ^ eta + V dx^j ^ dx^k (cyclic over the
three base directions); it is self-dual for the volume form
V dx1^dx2^dx3^dtau and satisfies J1 J2 = J3.

The exceptional fiber surface sits over the segment between the two
cluster points; the pullback of eta to it is exactly dtau, so surface
integrals reduce to 2*pi times a line quadrature and never evaluate A
on the axis.
"""

from __future__ import annotations

import json
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
from .forms import CYCLIC, J_from_form, apply_J_covector, wedge

FIBER_PERIOD = 2.0 * math.pi

Center = tuple[tuple[float, float, float], int]


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
    orientation_convention: str = "triple-self-dual"
    eps_center: float = 1e-6
    eps_string: float = 1e-6

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
    def canonical(cls, k: int, lam: float, **kw) -> "GHConfig":
        return cls(
            k=k,
            lam=lam,
            centers=(
                ((-k * lam, 0.0, 0.0), 1),
                ((lam, 0.0, 0.0), k),
            ),
            **kw,
        )

    @classmethod
    def single_center(cls, **kw) -> "GHConfig":
        return cls(k=0, lam=1.0, centers=(((0.0, 0.0, 0.0), 1),), **kw)

    @property
    def positions(self) -> np.ndarray:
        return np.asarray([pos for pos, _ in self.centers], dtype=float)

    @property
    def weights(self) -> np.ndarray:
        return np.asarray([n for _, n in self.centers], dtype=float)

    @property
    def p0(self) -> np.ndarray:
        return np.asarray(self.centers[0][0], dtype=float)

    @property
    def p1(self) -> np.ndarray:
        return np.asarray(self.centers[-1][0], dtype=float)

    @property
    def segment(self) -> tuple[float, float]:
        """x1-range of the segment between the two cluster points."""
        return (-self.k * self.lam, self.lam)

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "lambda": self.lam,
                "centers": [[list(pos), n] for pos, n in self.centers],
            }
        )

    @classmethod
    def from_json(cls, text: str | dict) -> "GHConfig":
        obj = json.loads(text) if isinstance(text, str) else text
        if "k" not in obj:
            raise SchemaError("config: missing field 'k'")
        k = obj["k"]
        lam = obj.get("lambda", 1.0)
        if "centers" in obj and obj["centers"] is not None:
            centers = tuple(
                (tuple(float(c) for c in pos), int(n)) for pos, n in obj["centers"]
            )
            return cls(k=int(k), lam=float(lam), centers=centers)
        if int(k) == 0:
            return cls.single_center()
        return cls.canonical(int(k), float(lam))


@dataclass(frozen=True)
class ChartPoint:
    base: tuple[float, float, float]
    fiber_angle: float = 0.0
    patch: str = "north"

    def __post_init__(self) -> None:
        if self.patch not in ("north", "south"):
            raise SchemaError(f"patch must be north or south, got {self.patch}")

    @property
    def x3(self) -> np.ndarray:
        return np.asarray(self.base, dtype=float)

    @property
    def x4(self) -> np.ndarray:
        return np.asarray([*self.base, self.fiber_angle], dtype=float)


def _center_distances(config: GHConfig, x3: np.ndarray) -> np.ndarray:
    return np.linalg.norm(config.positions - x3[None, :], axis=1)


def validate_base(config: GHConfig, x3: np.ndarray, patch: str | None = None) -> None:
    x3 = np.asarray(x3, dtype=float)
    dists = _center_distances(config, x3)
    if np.min(dists) < config.eps_center:
        idx = int(np.argmin(dists))
        raise CenterTooClose(
            f"point {x3} within {config.eps_center} of center {idx} "
            f"(distance {dists[idx]:.3e})"
        )
    if patch is None:
        return
    for (pos, _n) in config.centers:
        dx1 = x3[0] - pos[0]
        rho_perp = math.hypot(x3[1] - pos[1], x3[2] - pos[2])
        if rho_perp >= config.eps_string:
            continue
        if patch == "north" and dx1 <= 0.0:
            raise OnDiracString(
                f"point {x3} on the -x1 ray of center at {pos} (north gauge)"
            )
        if patch == "south" and dx1 >= 0.0:
            raise OnDiracString(
                f"point {x3} on the +x1 ray of center at {pos} (south gauge)"
            )


def potential(config: GHConfig, pts: np.ndarray) -> np.ndarray:
    """Harmonic potential (1/2) sum n_i / |x - p_i| at base points (..., 3),
    without domain checks."""
    dists = np.linalg.norm(np.asarray(pts, dtype=float)[..., None, :] - config.positions, axis=-1)
    return 0.5 * np.sum(config.weights / dists, axis=-1)


def eval_V(config: GHConfig, x3: np.ndarray) -> float:
    """Harmonic potential at one base point, after domain validation."""
    validate_base(config, x3)
    return float(potential(config, x3))


def potential_grad(config: GHConfig, pts: np.ndarray) -> np.ndarray:
    """Gradient of the potential at base points (..., 3), without domain checks."""
    diff = np.asarray(pts, dtype=float)[..., None, :] - config.positions
    dist = np.linalg.norm(diff, axis=-1)
    return -0.5 * np.einsum("c,...cd->...d", config.weights, diff / dist[..., None] ** 3)


def eval_V_grad(config: GHConfig, x3: np.ndarray) -> np.ndarray:
    validate_base(config, x3)
    return potential_grad(config, x3)


def eval_eta(config: GHConfig, p: ChartPoint) -> np.ndarray:
    """Connection coefficients A with eta = dtau + A, in p's gauge.

    Covector on the base, components (A1, A2, A3); A1 = 0 identically.
    """
    x3 = p.x3
    validate_base(config, x3, p.patch)
    sign = -1.0 if p.patch == "north" else 1.0
    out = np.zeros(3)
    for (pos, n) in config.centers:
        dx = x3 - np.asarray(pos, dtype=float)
        rho_sq = dx[1] ** 2 + dx[2] ** 2
        if rho_sq == 0.0:
            continue  # regular side of the axis: coefficient vanishes in the limit
        dist = math.sqrt(dx[0] ** 2 + rho_sq)
        coeff = 0.5 * n * (dx[0] / dist + sign)
        out[1] += coeff * (-dx[2] / rho_sq)
        out[2] += coeff * (dx[1] / rho_sq)
    return out


def eta4(config: GHConfig, p: ChartPoint) -> np.ndarray:
    a = eval_eta(config, p)
    return np.array([a[0], a[1], a[2], 1.0])


def _metric_from(v: float, eta: np.ndarray) -> np.ndarray:
    """V dx.dx + V^{-1} eta^2 from the potential and the 4D covector eta."""
    g = np.zeros((4, 4))
    g[:3, :3] = v * np.eye(3)
    g += np.outer(eta, eta) / v
    return g


def metric_matrix(config: GHConfig, x4: np.ndarray, patch: str = "north") -> np.ndarray:
    """Chart-coordinate metric V dx.dx + V^{-1} eta^2 at a 4D point."""
    x4 = np.asarray(x4, dtype=float)
    p = ChartPoint(base=tuple(x4[:3]), fiber_angle=float(x4[3]), patch=patch)
    return _metric_from(eval_V(config, p.x3), eta4(config, p))


def metric_fn(config: GHConfig, patch: str = "north") -> Callable[[np.ndarray], np.ndarray]:
    return lambda x4: metric_matrix(config, x4, patch)


@dataclass
class FrameSample:
    """Metric data at a chart point, with the orthonormal coframe, the
    self-dual 2-form triple and its complex structures."""

    point: ChartPoint
    coframe: np.ndarray  # rows e^1, e^2, e^3, e^0; e^0 = V^{-1/2} eta
    metric: np.ndarray
    triple: np.ndarray  # rows: component vectors of w1, w2, w3
    J: np.ndarray  # stack of three 4x4 matrices


def form_triple(v: float, eta: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """w_i = dx^i ^ eta + sign V dx^j ^ dx^k (cyclic) as a (3, 6) stack:
    the self-dual triple for sign +1, the anti-self-dual one for -1."""
    dx = np.eye(4)[:3]
    j, k = CYCLIC
    return wedge(dx, 1, eta, 1) + sign * v * wedge(dx[j], 1, dx[k], 1)


def metric_at(config: GHConfig, p: ChartPoint) -> FrameSample:
    v = eval_V(config, p.x3)
    eta = eta4(config, p)
    g = _metric_from(v, eta)
    sqv = math.sqrt(v)
    coframe = np.zeros((4, 4))
    for i in range(3):
        coframe[i, i] = sqv
    coframe[3] = eta / sqv
    triple = form_triple(v, eta)
    return FrameSample(point=p, coframe=coframe, metric=g, triple=triple,
                       J=J_from_form(g, triple))


def triple_fn(config: GHConfig, i: int, patch: str = "north") -> Callable[[np.ndarray], np.ndarray]:
    """Component field of w_i for finite-difference closedness checks."""

    def ev(x4: np.ndarray) -> np.ndarray:
        p = ChartPoint(base=tuple(x4[:3]), fiber_angle=float(x4[3]), patch=patch)
        return metric_at(config, p).triple[i]

    return ev


def moment_map(config: GHConfig, x3: np.ndarray) -> float:
    """Weighted distance sum; extends continuously to the centers."""
    x3 = np.asarray(x3, dtype=float)
    dists = np.linalg.norm(config.positions - x3[None, :], axis=1)
    return float(np.sum(config.weights * dists))


def moment_grad(config: GHConfig, x3: np.ndarray) -> np.ndarray:
    x3 = np.asarray(x3, dtype=float)
    validate_base(config, x3)
    diff = x3[None, :] - config.positions
    dists = np.linalg.norm(diff, axis=1)
    return np.einsum("i,ij->j", config.weights / dists, diff)


def dm4(config: GHConfig, x3: np.ndarray) -> np.ndarray:
    g = moment_grad(config, x3)
    return np.array([g[0], g[1], g[2], 0.0])


def alpha_covector(config: GHConfig, p: ChartPoint, i: int) -> np.ndarray:
    """alpha_i = (1/2) J_i dm as a chart covector."""
    sample = metric_at(config, p)
    return 0.5 * apply_J_covector(sample.J[i], dm4(config, p.x3))


def xi_field(config: GHConfig, p: ChartPoint) -> np.ndarray:
    """Metric dual of J_1 dm; contracting into w1 gives -dm exactly."""
    sample = metric_at(config, p)
    jdm = apply_J_covector(sample.J[0], dm4(config, p.x3))
    return np.linalg.solve(sample.metric, jdm)


def xi_fn(config: GHConfig, patch: str = "north") -> Callable[[np.ndarray], np.ndarray]:
    def ev(x4: np.ndarray) -> np.ndarray:
        p = ChartPoint(base=tuple(x4[:3]), fiber_angle=float(x4[3]), patch=patch)
        return xi_field(config, p)

    return ev


def gauss_legendre(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (nodes + 1.0), half * weights


def sigma_integrate(
    config: GHConfig,
    f: Callable[[float], float],
    order: int = 64,
) -> float:
    """Integral of f against the area form of the exceptional surface.

    The surface is fibered over the open segment; its area form pulls
    back to dx1 ^ dtau, so the integral is 2*pi * int f(x1) dx1 by
    Gauss-Legendre quadrature.  f takes the x1 coordinate.
    """
    if config.k == 0:
        raise SchemaError("single-center config has no exceptional surface")
    a, b = config.segment
    nodes, weights = gauss_legendre(a, b, order)
    vals = np.array([float(f(x)) for x in nodes])
    if not np.all(np.isfinite(vals)):
        raise QuadratureDivergence("integrand not finite on the segment")
    total = float(np.sum(weights * vals))
    if not math.isfinite(total):
        raise QuadratureDivergence("quadrature sum overflowed")
    return FIBER_PERIOD * total


def vol_sigma(config: GHConfig, order: int = 64) -> float:
    return sigma_integrate(config, lambda _x1: 1.0, order=order)


def fiber_holonomy(config: GHConfig, p: ChartPoint, order: int = 16) -> float:
    """Integral of eta over the fiber circle through p (equals the period)."""
    eta = eta4(config, p)
    nodes, weights = gauss_legendre(0.0, FIBER_PERIOD, order)
    vals = np.full(nodes.shape, eta[3])  # eta(d_tau) is fiber-independent
    return float(np.sum(weights * vals))


def axis_link_holonomy(
    config: GHConfig, x1: float, rho: float = 1e-3, patch: str = "south", order: int = 64
) -> float:
    """Integral of A around a base circle of radius rho linking the axis."""
    nodes, weights = gauss_legendre(0.0, 2.0 * math.pi, order)
    total = 0.0
    for phi, w in zip(nodes, weights):
        base = (x1, rho * math.cos(phi), rho * math.sin(phi))
        a = eval_eta(config, ChartPoint(base=base, patch=patch))
        tangent = np.array([0.0, -rho * math.sin(phi), rho * math.cos(phi)])
        total += w * float(a @ tangent)
    return total


def center_flux(config: GHConfig, center_index: int, radius: float, order: int = 32) -> float:
    """Flux of dA = *dV through a sphere around one center (outward normal).

    Exactly -2*pi*n for an enclosed weight-n center by the divergence
    theorem; computed here by quadrature of grad(V).n over the sphere.
    """
    pos = np.asarray(config.centers[center_index][0], dtype=float)
    unodes, uweights = gauss_legendre(-1.0, 1.0, order)
    pnodes, pweights = gauss_legendre(0.0, 2.0 * math.pi, order)
    total = 0.0
    for u, wu in zip(unodes, uweights):
        s = math.sqrt(1.0 - u * u)
        for phi, wp in zip(pnodes, pweights):
            n_hat = np.array([u, s * math.cos(phi), s * math.sin(phi)])
            grad = eval_V_grad(config, pos + radius * n_hat)
            total += wu * wp * float(grad @ n_hat) * radius**2
    return total


def v_laplacian_fd(config: GHConfig, x3: np.ndarray, h: float = 1e-3) -> float:
    """Flat 3D Laplacian of V by second differences (harmonicity check)."""
    x3 = np.asarray(x3, dtype=float)
    v0 = eval_V(config, x3)
    total = 0.0
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        total += (eval_V(config, x3 + e) - 2.0 * v0 + eval_V(config, x3 - e)) / h**2
    return total


def sample_chart_points(
    config: GHConfig,
    count: int,
    seed: int = 0,
    rho_min: float = 0.5,
    rho_max: float = 10.0,
    patch: str = "north",
    min_center_dist: float = 0.3,
    min_axis_dist: float = 0.05,
    string_cone_cos: float = 1.0,
) -> list[ChartPoint]:
    """Deterministic off-axis sample points for pointwise identity checks.

    string_cone_cos < 1 additionally rejects points inside the cone around
    the chart's string half-axis (where chart components stay smooth but
    their higher derivatives grow and wreck fixed-step finite differences):
    a point is kept only if the cosine of its angle to the string direction
    is below string_cone_cos.
    """
    rng = np.random.default_rng(seed)
    string_sign = -1.0 if patch == "north" else 1.0
    points: list[ChartPoint] = []
    while len(points) < count:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        rho = rng.uniform(rho_min, rho_max)
        x3 = rho * direction
        if np.min(_center_distances(config, x3)) < min_center_dist:
            continue
        if math.hypot(x3[1], x3[2]) < min_axis_dist:
            continue
        if string_sign * direction[0] > string_cone_cos:
            continue
        points.append(
            ChartPoint(
                base=tuple(x3),
                fiber_angle=float(rng.uniform(0.0, FIBER_PERIOD)),
                patch=patch,
            )
        )
    return points
