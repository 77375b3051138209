"""Named verification suites behind the command-line ``verify`` entry point.

A suite only computes values: it yields each check's id, computed value
and, where the kind compares against one, expected value.  What a check id
means lives in one row of ``CHECKS``: the kind of comparison, its tolerance
t, its provenance, whether ``--tol`` multiplies t (``scaled``) and whether
it is advisory.  ``check_result`` turns a value and its row into a typed
result.  With s the ``--tol`` scale of a scaled row (1 for the others):

* ``abs``   — |computed - expected| <= t s;
* ``rel``   — |computed - expected| <= t s |expected|;
* ``floor`` — |computed - expected| <= t max(1, |expected|) s;
* ``upper`` — computed <= t s; the bound itself is reported as the
  tolerance, and is negative for the two decay exponents;
* ``band``  — 1/t <= computed <= t for a signed ratio: the same sign and a
  magnitude within a factor t.

A row keyed ``id@k=1`` replaces the row of ``id`` at k = 1, where the
closed form of ``int-phi1-omega`` vanishes; the report names it ``id``.

The provenance names one of three kinds of reference value:

* ``closed-form-constant`` — the expected value has an exact closed form
  and the computed value comes from an independent numerical route;
* ``derived-oracle``       — two independent computational routes of the
  same quantity are compared (e.g. an exact formula against a
  finite-difference oracle);
* ``trivial-identity``     — a residual that must vanish by construction.

Checks marked ``advisory`` report their outcome but do not affect the
suite's overall pass/fail status; they cover stretch fits whose accuracy
depends on how deep into the asymptotic regime the sample sits.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import connection, deformation, fd, gh, harmonic, obstruction, quadrature
from .forms import FLAT_INVERSE, OMEGA_ASD, FormField, project_with, split_sd

PROVENANCE_TAGS = ("closed-form-constant", "derived-oracle", "trivial-identity")
_CLOSED, _ORACLE, _IDENTITY = PROVENANCE_TAGS


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    expected: float | str
    computed: float
    tolerance: float
    passed: bool
    provenance: str
    advisory: bool = False

    def to_dict(self) -> dict:
        return {"check_id": self.check_id, "expected": self.expected,
                "computed": self.computed, "tolerance": self.tolerance,
                "passed": self.passed, "provenance": self.provenance,
                "advisory": self.advisory}


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed or c.advisory for c in self.checks)

    def to_dict(self) -> dict:
        """The deterministic part of the result: no duration."""
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else ("warn" if c.advisory else "FAIL")
            out.append(
                f"  [{status}] {self.suite}/{c.check_id}: computed={c.computed:.6g} "
                f"expected={c.expected if isinstance(c.expected, str) else format(c.expected, '.6g')} "
                f"tol={c.tolerance:.2g} ({c.provenance})"
            )
        out.append(
            f"  suite {self.suite}: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.checks)} checks, {self.duration_s:.2f}s)"
        )
        return out


@dataclass(frozen=True)
class Check:
    """One row of ``CHECKS``."""
    kind: str
    tolerance: float
    provenance: str
    scaled: bool = True
    advisory: bool = False


CHECKS = {
    # gh
    "vol-sigma": Check("rel", 1e-6, _CLOSED),
    "int-m-omega": Check("rel", 1e-6, _CLOSED),
    "int-phi1-omega": Check("rel", 1e-6, _CLOSED),
    "int-phi1-omega@k=1": Check("abs", 1e-8, _CLOSED),
    "moment-at-far-center": Check("rel", 1e-6, _CLOSED),
    "ricci-flat": Check("upper", 1e-5, _IDENTITY),
    "triple-closed": Check("upper", 1e-5, _IDENTITY),
    "killing-residual": Check("upper", 1e-5, _IDENTITY),
    "moment-triple-identity": Check("upper", 1e-5, _ORACLE),
    "metric-decay-exponent": Check("upper", -3.9, _CLOSED, scaled=False),
    "single-center-flat": Check("upper", 1e-5, _IDENTITY),
    # quadrature
    "s3-cross-moment": Check("abs", 1e-8, _CLOSED),
    "s3-quadratic-moment": Check("abs", 1e-8, _CLOSED),
    **{f"pairing-sd-seed{seed}": Check("floor", 1e-6, _ORACLE) for seed in range(5)},
    "pairing-asd-null": Check("abs", 1e-8, _IDENTITY),
    "pairing-radius-independent": Check("floor", 1e-8, _IDENTITY),
    # harmonic
    "norm-squared": Check("rel", 2e-11, _CLOSED),
    "omega-closed": Check("upper", 1e-5, _IDENTITY),
    "omega-antiselfdual": Check("upper", 1e-5, _IDENTITY),
    "alpha-selfdual-part": Check("upper", 1e-4, _ORACLE),
    "alpha-antiselfdual-part": Check("upper", 1e-4, _ORACLE),
    "leading-fit-coefficient": Check("rel", 0.01, _CLOSED),
    "anisotropic-coefficient-null": Check("abs", 1e-3, _CLOSED),
    "anisotropic-ratio": Check("rel", 0.10, _CLOSED, scaled=False, advisory=True),
    "anisotropic-consistency": Check("band", 2.0, _ORACLE, scaled=False),
    "segment-ratio": Check("rel", 1e-6, _CLOSED),
    "density-annulus-exponent": Check("upper", 0.5, _CLOSED, scaled=False),
    "dual-pairing-residual": Check("upper", 1e-4, _ORACLE),
    "exact-form-pairing-null": Check("upper", 1e-8, _IDENTITY),
    "linear-potential-harmonic": Check("upper", 1e-8, _IDENTITY),
    "linear-potential-far-ratio": Check("abs", 0.02, _ORACLE),
    # deformation
    "first-order-connection": Check("upper", 1e-4, _ORACLE),
    "linearized-tracefree-ricci": Check("upper", 1e-4, _ORACLE),
    "second-order-ricci-linear": Check("upper", 1e-4, _ORACLE),
    "second-order-ricci-coupled": Check("upper", 1e-4, _ORACLE),
    "moment-connection-curvature": Check("upper", 1e-5, _ORACLE),
    "moment-connection-coclosed": Check("upper", 1e-5, _IDENTITY),
    "radial-contraction-decay": Check("upper", -2.8, _CLOSED, scaled=False),
}


def check_result(key: str, computed: float, tol_scale: float,
                 expected: float | None = None) -> CheckResult:
    """The check of row ``CHECKS[key]`` on a computed value."""
    row = CHECKS[key]
    scale = tol_scale if row.scaled else 1.0
    tol = row.tolerance * scale
    if row.kind == "rel":
        tol = tol * abs(expected)
    elif row.kind == "floor":  # t max(1, |e|) s in this order keeps the reported bits
        tol = row.tolerance * max(1.0, abs(expected)) * scale
    if row.kind == "upper":
        passed, expected = computed <= tol, f"<= {tol:g}"
    elif row.kind == "band":
        passed, expected = 1.0 / tol <= computed <= tol, f"same sign, magnitude within {tol:g}x"
    else:
        passed, expected = abs(computed - expected) <= tol, float(expected)
    return CheckResult(key.partition("@")[0], expected, float(computed), float(tol),
                       bool(passed), row.provenance, row.advisory)


def _suite(values):
    """The suite of a generator of (key, computed[, expected]) values: it
    takes the generator's arguments and a ``tol_scale``, and is timed."""
    @functools.wraps(values)
    def run(*args, tol_scale: float = 1.0) -> SuiteResult:
        t0 = time.perf_counter()
        checks = [check_result(key, computed, tol_scale, *expected)
                  for key, computed, *expected in values(*args)]
        return SuiteResult(values.__name__.removeprefix("suite_"), checks,
                           time.perf_counter() - t0)
    return run


def _check_points(config: gh.GHConfig, n: int) -> np.ndarray:
    """The n chart points (seed 0) the gh and harmonic suites check at: on
    rho in [1.5, 4] geo, at least 0.8 geo from the centers and the axis and
    outside the string cone of cosine 0.45, with geo = max(1, lambda)."""
    geo = max(1.0, config.lam)
    return gh.sample_chart_points(config, n, rho_min=1.5 * geo,
                                  rho_max=4.0 * geo, min_center_dist=0.8 * geo,
                                  min_axis_dist=0.8 * geo, string_cone_cos=0.45)


# ---------------------------------------------------------------------------
# Multi-center geometry suite
# ---------------------------------------------------------------------------


@_suite
def suite_gh(k: int, lam: float):
    """Closed-form surface constants, curvature/Killing/triple residuals
    (at 20 sample points, seed 0), far-field decay rate, and single-center
    flatness."""
    config = gh.GHConfig.canonical(k, lam)
    k1 = k + 1

    consts = obstruction.ak_constants(k, lam)
    yield "vol-sigma", consts.vol_sigma, 2.0 * math.pi * k1 * lam
    yield "int-m-omega", consts.int_m_omega, math.pi * k1 ** 3 * lam ** 2
    # -2 pi (k+1)^2 (k-1) lambda^2, written to be +0.0 at k = 1
    yield ("int-phi1-omega@k=1" if k == 1 else "int-phi1-omega",
           gh.sigma_integrate(config, lambda x1: 2.0 * k1 * x1),
           2.0 * math.pi * k1 ** 2 * (1 - k) * lam ** 2)
    yield "moment-at-far-center", consts.m_p1, k1 * lam

    metric = gh.metric_fn(config)
    x4 = _check_points(config, 20)
    yield "ricci-flat", float(np.max(np.abs(fd.ricci(metric, x4))))

    sub = x4[:6]
    triple = gh.triple_field(config)
    yield "triple-closed", float(np.max(np.abs(fd.fd_d(triple, sub))))
    yield "killing-residual", float(np.max(np.abs(
        fd.lie_derivative_metric(metric, gh.xi_fn(config), sub, h=5e-4))))
    # the moment map is a potential only for the second and third
    # symplectic forms; the first is its Hamiltonian form
    alpha = FormField(1, lambda y: gh.alpha_covector(config, y)[..., 1:, :])
    yield "moment-triple-identity", float(np.max(np.abs(
        fd.fd_d(alpha, sub) - triple(sub)[..., 1:, :])))

    radii = [8.0 * k1 * lam * (1.6 ** j) for j in range(4)]
    yield "metric-decay-exponent", harmonic.metric_decay_exponent(config, radii, n_dirs=4)

    cone = harmonic.cone_config(config)
    cone_pts = gh.sample_chart_points(cone, 4, seed=1)
    yield "single-center-flat", float(np.max(np.abs(
        fd.riemann_lowered(gh.metric_fn(cone), cone_pts))))


# ---------------------------------------------------------------------------
# Sphere quadrature / pairing suite
# ---------------------------------------------------------------------------


@_suite
def suite_quadrature():
    """Degree-4 sphere moments and the boundary pairing identity for closed
    self-dual quadratic data of seeds 0-4 (anti-self-dual inputs pair to
    zero)."""
    yield "s3-cross-moment", quadrature.integrate_S3(
        lambda p: (p[..., 0] * p[..., 3] + p[..., 1] * p[..., 2]) ** 2,
        radius=1.0), math.pi ** 2 / 6.0
    yield "s3-quadratic-moment", quadrature.integrate_S3(
        lambda p: (p[..., 0] ** 2 + p[..., 1] ** 2 - p[..., 2] ** 2 - p[..., 3] ** 2) ** 2,
        radius=1.0), 2.0 * math.pi ** 2 / 3.0

    sd_pairings = []
    for seed in range(5):
        triple = quadrature.random_closed_quadratic(seed)
        lhs, rhs = quadrature.dCF_pairing(triple)
        sd_pairings.append((triple, lhs))
        yield f"pairing-sd-seed{seed}", lhs, rhs

    asd = quadrature.random_closed_quadratic(7, duality="asd")
    yield "pairing-asd-null", quadrature.dCF_pairing(asd)[0], 0.0

    # seed 0 at the unit radius is the first pairing above
    triple0, lhs_a = sd_pairings[0]
    yield "pairing-radius-independent", quadrature.dCF_pairing(triple0, radius=1.6)[0], lhs_a


# ---------------------------------------------------------------------------
# Square-integrable harmonic form suite
# ---------------------------------------------------------------------------


@_suite
def suite_harmonic(k: int, lam: float):
    """Norm, closedness/anti-self-duality, connection-derivative split,
    far-field fit coefficients, and pairing identities of the normalized
    square-integrable form."""
    config = gh.GHConfig.canonical(k, lam)
    bundle = harmonic.build_omega(config)
    k1 = k + 1

    norm = harmonic.omega_norm(bundle)
    yield "norm-squared", norm, obstruction.closed_form_norm2(k)

    x4 = _check_points(config, 5)
    omega, d_omega = fd.value_and_d(FormField(2, bundle.components), x4)
    yield "omega-closed", float(np.max(np.abs(d_omega)))
    sample = gh.metric_at(config, x4)
    plus, _ = split_sd(sample.inverse, omega)
    yield "omega-antiselfdual", float(np.max(np.abs(plus)))

    res = harmonic.alpha_split_residuals(config, x4[:3], sample.rows(slice(3)), omega[:3])
    yield "alpha-selfdual-part", float(np.max(res["sd_residual"]))
    yield "alpha-antiselfdual-part", float(np.max(res["asd_residual"]))

    # the fit radii b (1, 1.5, 2.25), b = 20 (k+1) lambda, and at k >= 2 the
    # next set out, from one evaluation
    scales = np.array([[1.0, 1.5, 2.25], [1.5, 2.25, 3.375]])[:min(k, 2)]
    fits = harmonic.asymptotic_fits(config, bundle, 20.0 * k1 * lam * scales)
    fit, fit_b = fits[0], fits[-1]
    yield "leading-fit-coefficient", fit.c_gamma, fit.expected_c_gamma
    if k == 1:
        yield "anisotropic-coefficient-null", fit.a1, 0.0
    if k >= 2:
        yield "anisotropic-ratio", fit.a1 / (k1 * lam) ** 2, -(k * k - 1.0)
        same_sign = math.copysign(1.0, fit.a1) == math.copysign(1.0, fit_b.a1)
        mag_ratio = abs(fit_b.a1) / max(abs(fit.a1), 1e-30)
        yield "anisotropic-consistency", mag_ratio if same_sign else -mag_ratio

    yield "segment-ratio", harmonic.s_ratio(bundle), -k * lam
    yield "density-annulus-exponent", abs(harmonic.annulus_density_exponent(bundle) + 8.0)
    yield "dual-pairing-residual", harmonic.intersection_pairing_residual(bundle, norm)
    yield "exact-form-pairing-null", abs(harmonic.exact_form_pairing_residual(bundle))
    yield "linear-potential-harmonic", harmonic.phi1_laplacian_residual(config, x4[0])
    yield "linear-potential-far-ratio", float(np.mean(harmonic.phi1_q1_ratio(config))), 1.0


# ---------------------------------------------------------------------------
# Deformation formalism suite
# ---------------------------------------------------------------------------


@_suite
def suite_deformation(k: int, lam: float):
    """First/second-order connection and trace-free Ricci formulas against
    the t-coefficients of deformed metrics, taken on a circle of complex t
    (fd.taylor_coefficient), plus the moment-map connection on the
    multi-center space; the random families take seeds 0, 3 and 5.  The
    families of seeds 0 and 5 are one family stack, so their connection
    contour and their curvature contour are one evaluation each."""
    x0 = np.array([0.2, -0.1, 0.3, -0.2])
    nodes = deformation.node_points  # each contour evaluates its nodes as one stack

    # the linear and the coupled family as one family stack, each at x0
    fam_lin = deformation.linear_gauged_family(0)
    fam = deformation.family_stack(fam_lin, deformation.einstein_first_order_family(5))
    xs = np.broadcast_to(x0, (2, 4))

    def a_orders(y: np.ndarray) -> np.ndarray:
        """(..., order, 3, 4): the t^1 and t^2 connection coefficients."""
        coeffs = fd.taylor_coefficient(lambda t: fam.connection(t)(nodes(t, y)), (1, 2),
                                       deformation.TAYLOR_NODES)
        return np.moveaxis(coeffs, 0, -3)

    # a_i^(1), a_i^(2) at x0 and d a_i^(2), from one connection(t) evaluation
    # on x0 and its stencil
    a_t, da_t = fd.value_and_d(FormField(1, a_orders), xs)
    first = deformation.deformation_first_order(fam_lin.lam, fam_lin.phi_field, x0)
    yield "first-order-connection", float(np.max(np.abs(first - a_t[0, 0])))

    coeff2 = deformation.gauged_coefficient_field(3)
    pred = deformation.linearized_ric0_prediction(coeff2, x0)
    h_field = lambda y: deformation.metric_perturbation_from_coeffs(coeff2(y))

    def ric0(t: np.ndarray) -> np.ndarray:
        mfn = lambda y: np.eye(4) + np.einsum("m,m...->m...", t, h_field(y))
        ric = fd.ricci(mfn, nodes(t, x0))
        g = mfn(nodes(t, x0))
        trace = np.trace(np.linalg.solve(g, ric), axis1=-2, axis2=-1)
        return ric - 0.25 * trace[:, None, None] * g

    yield "linearized-tracefree-ricci", float(np.max(np.abs(
        pred - fd.taylor_coefficient(ric0, 1, deformation.TAYLOR_NODES))))

    a1_field = lambda y: deformation.star_d_phi(fam.phi_field, y)
    stack = deformation.ric0_second_order(a1_field, da_t[:, 1], fam.phi_field, xs)
    oracle = fd.taylor_coefficient(
        lambda t: connection.curvature_block_of_metric(fam.metric_field(t), nodes(t, xs)).Rminus, 2,
        deformation.TAYLOR_NODES)
    gap_lin, gap_coupled = np.max(np.abs(project_with(FLAT_INVERSE, stack, OMEGA_ASD) - oracle),
                                  axis=(-2, -1))
    yield "second-order-ricci-linear", float(gap_lin)
    yield "second-order-ricci-coupled", float(gap_coupled)

    config = gh.GHConfig.canonical(k, lam)
    rng = np.random.default_rng(0)
    coeff = rng.normal(size=(3, 3))
    coeff[0, :] = 0.0
    coeff[:, 0] = 0.0
    coeff = 0.5 * (coeff + coeff.T)
    base = np.array([1.5, 3.0, 6.0])[:, None] * np.array([
        [0.8, 0.5, 0.33166247903554],
        [-0.6, 0.64031242374328, 0.48],
        [0.2, -0.5, 0.84261498161975],
    ])
    res = deformation.moment_connection_checks(
        config, coeff, np.concatenate([base, np.full((3, 1), 0.4)], axis=1), h=5e-4)
    yield "moment-connection-curvature", res["curvature_residual"]
    yield "moment-connection-coclosed", res["coclosed_residual"]
    yield "radial-contraction-decay", deformation.radial_contraction_decay(config)


SUITES = {
    "gh": suite_gh,
    "harmonic": suite_harmonic,
    "quadrature": lambda k, lam, tol_scale: suite_quadrature(tol_scale=tol_scale),
    "deformation": suite_deformation,
}
SUITE_NAMES = tuple(SUITES)


def run_suites(names: list[str], k: int, lam: float,
               tol_scale: float = 1.0) -> list[SuiteResult]:
    out = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        out.append(SUITES[name](k, lam, tol_scale=tol_scale))
    return out
