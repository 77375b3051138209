"""The decaying anti-self-dual harmonic 2-form on a multi-center space.

With V0 the potential of the first center and f = V0/V, the 2-form

    Omega_raw = d(f eta - eta_0) = sum_i (d_i f) wt_i,

with wt_i = dx^i ^ eta - V dx^j ^ dx^k the anti-self-dual triple, is
closed and anti-self-dual exactly (f V = V0 is harmonic on the base).
Its norm density is |Omega_raw|^2 = 2 |grad f|^2, a pure base
quantity.  The bundle normalizes Omega = c Omega_raw so that the
integral over the core surface equals 2 pi times the surface
self-intersection -(k+1)/k; for the canonical configuration
c = (k+1)/k and the total norm is ||Omega||^2 = 4 pi^2 (k+1)/k, the volume
integral 2 pi int |Omega|^2 V d^3x over the whole base, with V from the
pass that gives grad f, on one Gauss rule in 1/xi with no cutoff radius.

grad f and V come from one pass over the centers per point stack, the
grad f pass of gh (grad_f_and_potential, or eta_and_grad_f with eta), as
one array per component read: the norm density reads three, the
exact-form pairing two, the core-surface integral one.

Far-field models: with rhat^2 = 2(k+1) rho the exactly-fibered radial
coordinate, the leading profile is c_Gamma d d^C (1/rhat^2) with
c_Gamma = (k+1)^2 lam, and the subleading one is
a1 d d^C (phi1 / rhat^6) with phi1 = 2 (k+1) x^1 the harmonic
moment-coordinate and a1 = -(k^2 - 1) ((k+1) lam)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fd, gh
from .errors import FitUnstable, NormalizationFailure, QuadratureDivergence
from .forms import FormField, apply_J_covector, split_sd
from .quadrature import TWO_PI, volume_rule


# ---------------------------------------------------------------------------
# The anti-self-dual triple and the harmonic form
# ---------------------------------------------------------------------------


@dataclass
class HarmonicFormBundle:
    """Normalized decaying anti-self-dual harmonic 2-form."""

    config: gh.GHConfig
    normalization: float
    raw_sigma_integral: float

    def components(self, x4: np.ndarray) -> np.ndarray:
        """Components (..., 6) of the normalized form at (..., 4) chart points."""
        eta, grad, v = gh.eta_and_grad_f(self.config, x4)
        triple = gh.form_triple(v, eta, -1.0)
        return self.normalization * np.einsum("...i,...ic->...c", np.stack(grad, axis=-1), triple)

    def norm_density(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(|Omega|_g^2, V) at (..., 3) base points from one grad f pass."""
        (g1, g2, g3), v = gh.grad_f_and_potential(self.config, pts)
        return 2.0 * self.normalization**2 * (g1 * g1 + g2 * g2 + g3 * g3), v


def core_self_intersection(k: int) -> float:
    return -(k + 1) / k


def c_gamma(k: int, lam: float) -> float:
    """Leading asymptotic coefficient (k+1)^2 lam."""
    return (k + 1) ** 2 * lam


def _raw_sigma_integral(config: gh.GHConfig) -> float:
    """Core-surface integral of Omega_raw, whose pullback is (d_1 f) dx1 ^ dtau."""
    return gh.sigma_integrate(
        config, lambda x1: gh.grad_f_and_potential(config, gh.axis_points(x1), (0,))[0][0])


def build_omega(config: gh.GHConfig) -> HarmonicFormBundle:
    """Normalize the raw form by quadrature of its core-surface integral."""
    raw = _raw_sigma_integral(config)
    if not np.isfinite(raw) or abs(raw) < 1e-10:
        raise NormalizationFailure(
            f"degenerate core-surface integral {raw!r} for the raw harmonic form"
        )
    target = 2.0 * math.pi * core_self_intersection(config.k)
    return HarmonicFormBundle(
        config=config,
        normalization=target / raw,
        raw_sigma_integral=raw,
    )


def omega_norm(bundle: HarmonicFormBundle) -> float:
    """Total square norm 2 pi sum w |Omega|^2 V over the whole-space volume
    rule, with V from the pass that gives grad f; the azimuth sum is sum w_phi."""
    pts, w, _, w_phi = volume_rule(bundle.config)
    dens, v = bundle.norm_density(pts)
    if not np.all(np.isfinite(dens)):
        raise QuadratureDivergence("volume integrand not finite on region")
    return TWO_PI * float(np.sum(w * dens * v)) * float(np.sum(w_phi))


def sigma_omega_integral(bundle: HarmonicFormBundle) -> float:
    """Quadrature of the normalized form over the core surface, from the
    raw integral the bundle was normalized with."""
    return bundle.normalization * bundle.raw_sigma_integral


def s_ratio(bundle: HarmonicFormBundle) -> float:
    """s = (core integral of w1) / (core integral of Omega); equals -k lam."""
    return gh.vol_sigma(bundle.config) / sigma_omega_integral(bundle)


# ---------------------------------------------------------------------------
# Pointwise identities: alpha = -1/2 d d^C m splits as (-w1, s Omega)
# ---------------------------------------------------------------------------


def alpha_split_residuals(config: gh.GHConfig, x4: np.ndarray, sample: gh.FrameSample,
                          omega: np.ndarray) -> dict:
    """Residuals of alpha^+ = -w1 and alpha^- = s Omega for
    alpha = -d alpha_1 = -1/2 d (J_1 dm), one per point of a (..., 4) stack,
    from the caller's gh.metric_at sample and (..., 6) components of Omega
    there."""
    x4 = np.asarray(x4, dtype=float)
    alpha = -fd.fd_d(FormField(1, lambda y: gh.metric_at(config, y).alpha[..., 0, :]), x4)
    plus, minus = split_sd(sample.inverse, alpha)
    s = -config.k * config.lam
    w1 = sample.triple[..., 0, :]
    scale = np.max(np.abs(w1), axis=-1)
    return {
        "sd_residual": np.max(np.abs(plus + w1), axis=-1) / scale,
        "asd_residual": np.max(np.abs(minus - s * omega), axis=-1) / scale,
    }


# ---------------------------------------------------------------------------
# Far-field models and fits
# ---------------------------------------------------------------------------


def _model_grads(config: gh.GHConfig, x4: np.ndarray) -> np.ndarray:
    """(..., 2, 4) gradients of the lead and sub potentials at (..., 4) points."""
    k1 = config.k + 1
    x = x4[..., :3]
    rho = np.linalg.norm(x, axis=-1)[..., None]
    out = np.zeros(x4.shape[:-1] + (2, 4))
    out[..., 0, :3] = -x / (2.0 * k1 * rho**3)
    out[..., 1, :3] = -3.0 * x[..., :1] * x / (4.0 * k1**2 * rho**5)
    out[..., 1, :1] += 1.0 / (4.0 * k1**2 * rho**3)
    return out


def model_form(config: gh.GHConfig, x4: np.ndarray) -> np.ndarray:
    """d d^C of the lead (1/rhat^2) and sub (phi1/rhat^6) potentials at
    (..., 4) points, stacked as (..., 2, 6): one degree-1 field J_1 du, with
    J_1 read from the gh.metric_at sample, so one stencil and one
    gh.metric_at call for both.

    The normalization is pinned by the k = 1 fit: with this model the
    lead coefficient recovers c_Gamma = (k+1)^2 lam directly.
    """
    fld = FormField(1, lambda y: apply_J_covector(gh.metric_at(config, y).J[..., :1, :, :],
                                                  _model_grads(config, y)))
    return fd.fd_d(fld, np.asarray(x4, dtype=float))


@dataclass
class AsymptoticFit:
    c_gamma: float
    a1: float
    expected_c_gamma: float


def _fit_directions(n: int, seed: int) -> np.ndarray:
    """Antipodal direction pairs kept away from the axis.

    The pairing makes even- and odd-parity far-field models exactly
    orthogonal over the sample, so parity-mixing aliasing drops out of
    the joint fit.
    """
    rng = np.random.default_rng(seed)
    half = max(1, (n + 1) // 2)
    dirs = rng.normal(size=(half, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # keep away from the axis so chart components stay well-scaled
    dirs[:, 1] += np.sign(dirs[:, 1] + 1e-12) * 0.3
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.vstack([dirs, -dirs])


def asymptotic_fits(config: gh.GHConfig, bundle: HarmonicFormBundle,
                    radii: np.ndarray | Sequence) -> list[AsymptoticFit]:
    """Joint least-squares fit of Omega against the lead and sub models,
    sampled along 6 fit directions (seed 0) at the radii of each radius set
    of a (..., n) stack, in C order, from one model_form call and one
    components call on all their sample points."""
    k = config.k
    radii = np.asarray(radii, dtype=float)[..., None, None]
    base = radii * _fit_directions(6, 0)  # (..., radius, direction, 3)
    x4 = np.concatenate([base, np.full(base.shape[:-1] + (1,), 0.4)], axis=-1)
    weight = (2.0 * (k + 1) * radii) ** 2  # rhat^4: puts radii on equal footing
    models = weight[..., None] * model_form(config, x4)  # (..., radius, direction, model, 6)
    sets = int(np.prod(radii.shape[:-3]))
    amats = np.moveaxis(models, -2, -1).reshape(sets, -1, 2)
    bvecs = (weight * bundle.components(x4)).reshape(sets, -1)
    fits = []
    for amat, bvec in zip(amats, bvecs):
        sol, _res, rank, _sv = np.linalg.lstsq(amat, bvec, rcond=None)
        if rank < 2 or not np.all(np.isfinite(sol)):
            raise FitUnstable("asymptotic model matrix is rank-deficient")
        fits.append(AsymptoticFit(c_gamma=float(sol[0]), a1=float(sol[1]),
                                  expected_c_gamma=c_gamma(k, config.lam)))
    return fits


def cone_config(config: gh.GHConfig) -> gh.GHConfig:
    """Single-center configuration with the same total multiplicity."""
    return gh.GHConfig(
        k=config.k,
        lam=config.lam,
        centers=(((0.0, 0.0, 0.0), config.k + 1),),
    )


def _slope(logr: Sequence[float], logv: Sequence[float]) -> float:
    return float(np.polyfit(logr, logv, 1)[0])


def _log_slope(r: Sequence[float], values: Sequence[float]) -> float:
    """Fitted slope of log(value), floored at 1e-300, against log r."""
    return _slope([math.log(x) for x in r], [math.log(max(v, 1e-300)) for v in values])


@dataclass
class DecayProfile:
    r: float
    metric_deviation: float
    moment_deviation: float
    omega_profile_coeff: float


def _cone_deviation(config: gh.GHConfig, radii: np.ndarray,
                    n_dirs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At base radii: the (radius, direction, 3) sample points, the
    asymptotic radii and the frame-measured distance to the cone metric,
    max |g - g_cone| in the cone's orthonormal coframe, averaged over the
    directions."""
    base = radii[:, None, None] * _fit_directions(n_dirs, 0)  # (radius, direction, 3)
    x4 = np.concatenate([base, np.full(base.shape[:-1] + (1,), 0.7)], axis=-1)
    g = gh.metric_matrix(config, x4)
    coframe, g_cone = gh.coframe_and_metric(cone_config(config), x4)
    finv = np.linalg.inv(coframe)
    hframe = np.swapaxes(finv, -1, -2) @ (g - g_cone) @ finv
    r4 = np.sqrt(2.0 * (config.k + 1) * radii)
    return base, r4, np.mean(np.max(np.abs(hframe), axis=(-2, -1)), axis=-1)


def decay_profiles(bundle: HarmonicFormBundle,
                   radii_rho: Sequence[float]) -> list[DecayProfile]:
    """Far-field deviation table of the bundle's space at base radii, over 6
    fit directions: frame-measured distance to the cone metric, moment-map
    deviation, and the profile coefficient |Omega| r^4 / sqrt(32)."""
    config = bundle.config
    radii = np.asarray(radii_rho, dtype=float)
    base, r4, gdev = _cone_deviation(config, radii, 6)
    mdev = np.mean(np.abs(gh.moment_map(config, base) - (config.k + 1) * radii[:, None]), axis=-1)
    oprof = np.mean(np.sqrt(bundle.norm_density(base)[0]) * r4[:, None] ** 4 / np.sqrt(32.0), axis=-1)
    return [
        DecayProfile(r=float(r), metric_deviation=float(gd), moment_deviation=float(md),
                     omega_profile_coeff=float(op))
        for r, gd, md, op in zip(r4, gdev, mdev, oprof)
    ]


# a deviation within 1e3 roundings of the quantity it is taken from is noise
_ROUNDING_FLOOR = 1e3 * np.finfo(float).eps


def decay_exponents(profiles: Sequence[DecayProfile]) -> dict:
    """Fitted log-log slopes of the three columns against r.  FitUnstable
    when a column reaches its rounding floor, where it has no slope: a metric
    deviation at most 1e3 eps (the cone metric is the identity in its
    frame), a moment deviation at most 1e3 eps times the moment map
    (k+1) rho = r^2/2, or an Omega coefficient that is 0 or not finite."""
    for p in profiles:
        if (p.metric_deviation <= _ROUNDING_FLOOR
                or p.moment_deviation <= _ROUNDING_FLOOR * p.r**2 / 2.0
                or not (math.isfinite(p.omega_profile_coeff) and p.omega_profile_coeff != 0.0)):
            raise FitUnstable(f"deviations at r = {p.r:g} are at their rounding floor")
    r = [p.r for p in profiles]
    return {
        "metric": _log_slope(r, [p.metric_deviation for p in profiles]),
        "moment": _log_slope(r, [p.moment_deviation for p in profiles]),
        "omega": _log_slope(r, [p.omega_profile_coeff / p.r**4 * math.sqrt(32.0)
                                for p in profiles]),
    }


def metric_decay_exponent(config: gh.GHConfig, radii_rho: Sequence[float],
                          n_dirs: int) -> float:
    """The metric exponent of decay_exponents from the metric column
    alone, over n_dirs fit directions."""
    _base, r4, gdev = _cone_deviation(config, np.asarray(radii_rho, dtype=float), n_dirs)
    return _log_slope(r4, gdev)


def annulus_density_exponent(bundle: HarmonicFormBundle) -> float:
    """Fitted slope of the |Omega|^2 averaged over 8 fit directions (seed 1)
    against log r, at base radii 10, 20, 40 and 80 (k+1) lam."""
    cfg = bundle.config
    k1 = cfg.k + 1
    base = 10.0 * k1 * cfg.lam
    radii = np.asarray((base, 2 * base, 4 * base, 8 * base), dtype=float)
    dens = bundle.norm_density(radii[:, None, None] * _fit_directions(8, 1))[0]
    return _slope(0.5 * np.log(2.0 * k1 * radii), np.log(np.mean(dens, axis=-1)))


# ---------------------------------------------------------------------------
# Pairing checks: intersection identity and vanishing on exact forms
# ---------------------------------------------------------------------------


def intersection_pairing_residual(bundle: HarmonicFormBundle, norm: float) -> float:
    """Relative residual of int_Y (-Omega ^ Omega) = -2 pi int_core Omega,
    with ``norm`` the bundle's omega_norm."""
    rhs = -2.0 * math.pi * sigma_omega_integral(bundle)
    return abs(norm - rhs) / abs(rhs)


def _bump(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chi = exp(-1/(s (1 - s))) on 0 < s < 1, zero outside, and dchi/ds,
    which is 0 wherever chi is (also where s^2 (1 - s)^2 underflows)."""
    inside = (s > 0.0) & (s < 1.0)
    si = np.where(inside, s, 0.5)  # any point inside (0, 1) keeps the outside finite
    rest = 1.0 - si
    chi = np.where(inside, np.exp(-1.0 / (si * rest)), 0.0)
    return chi, chi * (1.0 - 2.0 * si) / np.where(chi > 0.0, si**2 * rest**2, 1.0)


def exact_form_pairing_residual(bundle: HarmonicFormBundle) -> float:
    """int_Y Omega ^ d(gamma) for gamma = chi(rho) x^2 dx^3, chi a bump
    supported on 6 (k+1) lam < rho < 12 (k+1) lam, normalized by the
    integral of the absolute integrand; vanishes for closed Omega.

    For a pure base 2-form beta, Omega ^ beta reduces to
    -c (grad f . b) dx^123 ^ dtau with b the dual vector of beta, here
    b = grad(chi x^2) x e_3, so no connection components enter.  The x^2
    factor keeps the integrand from being sin(phi) times an axisymmetric
    function, which the azimuthal rule would integrate to 0 for any
    axisymmetric grad f, closed or not; with grad f axisymmetric, the
    integrand is A + B cos^2(phi).
    """
    cfg = bundle.config
    k1 = cfg.k + 1
    inner, outer = 6.0 * k1 * cfg.lam, 12.0 * k1 * cfg.lam
    pts, w, cos_phi, w_phi = volume_rule(cfg, shell=(inner, outer))
    # (x, y) = (x^1, rho_perp); at azimuth phi, x^2 = y cos(phi) and d_2 f = f_perp cos(phi)
    x, y = pts[:, 0], pts[:, 1]
    rho = np.sqrt(x * x + y * y)
    chi, dchi = _bump((rho - inner) / (outer - inner))
    (f1, f_perp), _ = gh.grad_f_and_potential(cfg, pts, (0, 1))
    # b = (s x^2 + chi, -s x^1, 0), s = chi' x^2 / rho; Omega ^ beta = -c (grad f . b) dx^123 ^ dtau
    a = -bundle.normalization * f1 * chi
    b = -bundle.normalization * (dchi / ((outer - inner) * rho)) * y * (f1 * y - f_perp * x)
    cos_sq = cos_phi * cos_phi
    dens = np.multiply.outer(b, cos_sq)
    dens += a[:, None]
    if not np.all(np.isfinite(dens)):
        raise QuadratureDivergence("volume integrand not finite on region")
    total = np.sum(w * (a * np.sum(w_phi) + b * np.sum(w_phi * cos_sq)))
    # |w w_phi d| = w w_phi |d| exactly: every weight is positive
    np.multiply(np.abs(dens, out=dens), w_phi, out=dens)
    return float(abs(total) / max(np.sum(w * dens.sum(axis=1)), 1e-300))


# ---------------------------------------------------------------------------
# The harmonic moment coordinate phi1
# ---------------------------------------------------------------------------


def phi1_value(config: gh.GHConfig, base: np.ndarray) -> np.ndarray:
    return 2.0 * (config.k + 1) * np.asarray(base, dtype=float)[..., 0]


def phi1_laplacian_residual(config: gh.GHConfig, x4: np.ndarray) -> float:
    mfn = gh.metric_fn(config)

    def scalar(x4: np.ndarray) -> np.ndarray:
        return phi1_value(config, x4[..., :3])

    return abs(float(fd.laplace_beltrami(mfn, scalar, x4)))


def q1_estimate(config: gh.GHConfig, base: np.ndarray) -> np.ndarray:
    """Invariant quadratic estimated from the moment map at (..., 3) base
    points, q1 ~ phi1 at large radius: sign(x1) sqrt(4 m^2 - 4 (k+1)^2 rho_perp^2)."""
    base = np.asarray(base, dtype=float)
    k1 = config.k + 1
    m = gh.moment_map(config, base)
    rho_perp_sq = base[..., 1] ** 2 + base[..., 2] ** 2
    val = 4.0 * m**2 - 4.0 * k1**2 * rho_perp_sq
    return np.copysign(np.sqrt(np.maximum(val, 0.0)), base[..., 0])


def phi1_q1_ratio(config: gh.GHConfig) -> np.ndarray:
    """phi1 / q1 at asymptotic radius 50 along the 6 fit directions (seed 2)
    at least 0.2 off the x1 = 0 plane."""
    dirs = _fit_directions(6, 2)
    base = 50.0**2 / (2.0 * (config.k + 1)) * dirs[np.abs(dirs[:, 0]) >= 0.2]
    return phi1_value(config, base) / q1_estimate(config, base)
