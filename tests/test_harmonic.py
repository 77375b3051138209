"""The square-integrable anti-self-dual 2-form: normalization, closed-form
norm, duality splits of the moment-map derivative, far-field model fits,
pairings, and the invariant linear potential."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ale_lab import fd, forms, gh, harmonic, obstruction, quadrature, suites
from ale_lab.errors import SchemaError
from ale_lab.forms import FormField


def test_closed_form_constants():
    for k in (1, 2, 3):
        assert harmonic.core_self_intersection(k) == pytest.approx(-(k + 1) / k)
        assert obstruction.closed_form_norm2(k) == pytest.approx(
            4 * math.pi**2 * (k + 1) / k
        )
    assert harmonic.c_gamma(1, 1.0) == pytest.approx(4.0)
    assert harmonic.c_gamma(2, 0.5) == pytest.approx(4.5)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 10])
def test_norm_matches_closed_form(k, omega_bundle):
    # the whole-space rule has no cutoff radius, so nothing but float
    # rounding separates it from the closed form at any k
    norm = harmonic.omega_norm(omega_bundle(k))
    assert norm == pytest.approx(obstruction.closed_form_norm2(k), rel=1e-11)


@pytest.mark.parametrize("k,lam", [(1, 0.5), (2, 2.0), (3, 0.5), (3, 2.0)])
def test_norm_is_independent_of_the_scale(k, lam, omega_bundle):
    norm = harmonic.omega_norm(omega_bundle(k, lam))
    assert norm == pytest.approx(obstruction.closed_form_norm2(k), rel=1e-11)


_CHART_POINTS = np.array([[1.2, 0.7, -0.4, 0.3], [-0.8, 1.5, 0.3, 2.1], [2.5, -1.1, 0.9, 4.0]])


def _pairing_shell(config):
    k1 = config.k + 1
    return 6.0 * k1 * config.lam, 12.0 * k1 * config.lam


def _volume_rule(config, shell=None):
    """The volume rule as one stack of nodes (N, 3) and weights (N,)."""
    pts, w = zip(*quadrature.volume_blocks(config, shell))
    return np.concatenate(pts), np.concatenate(w)


@pytest.mark.parametrize("evaluate,nodes", [
    (harmonic.omega_norm, lambda cfg: _volume_rule(cfg)[0]),
    (harmonic.exact_form_pairing_residual, lambda cfg: _volume_rule(cfg, _pairing_shell(cfg))[0]),
    (lambda bundle: bundle.components(_CHART_POINTS), lambda cfg: _CHART_POINTS[:, :3]),
], ids=["omega_norm", "exact_form_pairing", "components"])
def test_makes_one_pass_over_the_centers(evaluate, nodes, monkeypatch, omega_bundle):
    # V of the volume weight, and V and eta of the form's components, come
    # from the pass that computes grad f; a volume rule is passed over block
    # by block, and the blocks cover each node once, in the rule's order
    bundle = omega_bundle(2)
    offsets, stacks = gh._offsets, []

    def counted(config, x3):
        stacks.append(np.array(x3))
        return offsets(config, x3)

    monkeypatch.setattr(gh, "_offsets", counted)
    evaluate(bundle)
    block = quadrature.VOLUME_BLOCK_SHELLS * quadrature.SPHERE_ORDER**2
    assert all(stack.ndim == 2 and len(stack) <= block for stack in stacks)
    assert np.concatenate(stacks).tobytes() == nodes(bundle.config).tobytes()


def _masked_bump(s):
    """The bump on the nodes inside (0, 1) by boolean-mask indexing."""
    chi, dchi = np.zeros_like(s), np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    chi[inside] = np.exp(-1.0 / (si * (1.0 - si)))
    dchi[inside] = chi[inside] * (1.0 - 2.0 * si) / (si**2 * (1.0 - si) ** 2)
    return chi, dchi


def test_bump_is_bitwise_the_masked_bump():
    s = np.concatenate([np.linspace(-0.5, 1.5, 2001), [0.0, 1.0, -0.0, 1e-150, 1.0 - 1e-16]])
    for got, ref in zip(harmonic._bump(s), _masked_bump(s)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("s", [1e-300, 1e-200])
def test_bump_derivative_is_zero_where_chi_underflows(s):
    # s^2 (1 - s)^2 underflows to 0 here, as chi does: dchi/ds is 0, not 0/0
    chi, dchi = harmonic._bump(np.array([s]))
    assert chi[0] == 0.0
    assert dchi[0] == 0.0


def _one_stack_norm(bundle):
    """omega_norm with the whole-space rule evaluated as one stack."""
    pts, w = _volume_rule(bundle.config)
    v = gh.eval_V(bundle.config, pts)
    return quadrature.TWO_PI * float(np.sum(w * bundle.norm_density(pts)[0] * v))


def _one_stack_pairing(bundle):
    """exact_form_pairing_residual with its shell rule evaluated as one stack."""
    inner, outer = _pairing_shell(bundle.config)
    pts, weights = _volume_rule(bundle.config, (inner, outer))
    x, y, z = pts.T
    rho = np.sqrt(x * x + y * y + z * z)
    chi, dchi = harmonic._bump((rho - inner) / (outer - inner))
    s = dchi * y / ((outer - inner) * rho)
    (f1, f2), _ = gh.grad_f_and_potential(bundle.config, pts, (0, 1))
    dens = -bundle.normalization * (f1 * (s * y + chi) - f2 * (s * x))
    total = np.sum(weights * dens)
    return float(abs(total) / max(np.sum(weights * np.abs(dens)), 1e-300))


@pytest.mark.parametrize("k,lam", [(1, 1.0), (3, 2.0)])
@pytest.mark.parametrize("evaluate,one_stack", [
    (harmonic.omega_norm, _one_stack_norm),
    (harmonic.exact_form_pairing_residual, _one_stack_pairing),
], ids=["omega_norm", "exact_form_pairing"])
def test_volume_integrals_are_bitwise_the_one_stack_sums(evaluate, one_stack, k, lam,
                                                          omega_bundle):
    # block by block into one vector of weighted terms, then one sum over it
    bundle = omega_bundle(k, lam)
    assert evaluate(bundle) == one_stack(bundle)


@pytest.mark.parametrize("evaluate,parent_peak", [
    (harmonic.omega_norm, 1_004_305),
    (harmonic.exact_form_pairing_residual, 1_337_417),
], ids=["omega_norm", "exact_form_pairing"])
def test_volume_integrals_keep_a_bounded_working_set(evaluate, parent_peak, omega_bundle):
    # evaluated as one stack of the whole rule, the traced peaks were
    # 2.43 MiB (norm) and 5.70 MiB (pairing); one block of xi-shells at a
    # time keeps them near 1 MiB.  The bounds are the peaks, in bytes, of
    # the quotient rule on transposed gradient views that the grad f pass
    # replaced (0.96 and 1.28 MiB): the pass writes over the offsets and
    # distances of its block and keeps one new array per component read
    bundle = omega_bundle(2)
    evaluate(bundle)
    tracemalloc.start()
    try:
        evaluate(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak


def test_omega_closed_and_antiselfdual(canonical, omega_bundle):
    cfg = canonical(2)
    bundle = omega_bundle(2)
    pts = gh.sample_chart_points(cfg, 3, seed=0, rho_min=1.5, rho_max=4.0,
                                 min_center_dist=0.8, min_axis_dist=0.8,
                                 string_cone_cos=0.45)
    metric = gh.metric_fn(cfg)
    omega_comps = bundle.components

    for x4 in pts:
        d = fd.fd_d(FormField(2, omega_comps), x4)
        assert np.max(np.abs(d)) < 1e-5
        comps = omega_comps(x4)
        starred = forms.hodge_star(forms.metric_inverse(metric(x4)), comps, 2)
        assert np.max(np.abs(starred + comps)) < 1e-5


def test_alpha_split(canonical, omega_bundle):
    cfg = canonical(1)
    bundle = omega_bundle(1)
    x4 = gh.sample_chart_points(cfg, 1, seed=6, rho_min=1.5, rho_max=3.0,
                                string_cone_cos=0.45)[0]
    res = harmonic.alpha_split_residuals(cfg, x4, gh.metric_at(cfg, x4), bundle.components(x4))
    assert res["sd_residual"] < 1e-4
    assert res["asd_residual"] < 1e-4


def test_segment_ratio_closed_form():
    for k, lam in ((1, 1.0), (3, 0.5)):
        bundle = harmonic.build_omega(gh.GHConfig.canonical(k, lam))
        assert harmonic.s_ratio(bundle) == pytest.approx(-k * lam, rel=1e-6)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 3), st.floats(0.4, 2.5), st.floats(1.2, 2.0))
def test_segment_ratio_rescales_linearly(k, lam, c):
    def ratio(scale):
        bundle = harmonic.build_omega(gh.GHConfig.canonical(k, scale))
        return harmonic.s_ratio(bundle)

    assert ratio(c * lam) == pytest.approx(c * ratio(lam), rel=1e-6)


def _fit(cfg, bundle):
    """The fit at the radii b (1, 1.5, 2.25), b = 20 (k+1) lambda."""
    radii = 20.0 * (cfg.k + 1) * cfg.lam * np.array([1.0, 1.5, 2.25])
    return harmonic.asymptotic_fits(cfg, bundle, radii)[0]


@pytest.mark.parametrize("k", [1, 2])
def test_asymptotic_fit(k, canonical, omega_bundle):
    fit = _fit(canonical(k), omega_bundle(k))
    assert fit.c_gamma == pytest.approx(fit.expected_c_gamma, rel=0.01)
    if k == 1:
        assert abs(fit.a1) < 1e-3
    else:
        ratio = fit.a1 / ((k + 1) * 1.0) ** 2
        # anisotropic coefficient: right sign and magnitude range
        assert ratio < 0
        assert 0.5 <= abs(ratio / -(k**2 - 1)) <= 2.0


def _two_model_fit(cfg, bundle):
    """The joint fit with the lead and sub models as two fields, each with
    its own stencil and metric call."""
    radii = 20.0 * (cfg.k + 1) * cfg.lam * np.array([1.0, 1.5, 2.25])[:, None, None]
    base = radii * harmonic._fit_directions(6, 0)
    x4 = np.concatenate([base, np.full(base.shape[:-1] + (1,), 0.4)], axis=-1)
    weight = (2.0 * (cfg.k + 1) * radii) ** 2
    lead, sub = (weight * fd.fd_d(FormField(1, harmonic.dC_scalar_field(
        cfg, lambda y, m=m: harmonic._model_grads(cfg, y)[..., m, :])), x4) for m in (0, 1))
    amat = np.stack([lead, sub], axis=-1).reshape(-1, 2)
    sol, *_ = np.linalg.lstsq(amat, (weight * bundle.components(x4)).ravel(), rcond=None)
    return sol


@pytest.mark.parametrize("k", [1, 2, 3])
def test_asymptotic_fit_makes_one_metric_call(k, canonical, omega_bundle, monkeypatch):
    # both models are one stacked field: one stencil, one gh.metric_at call,
    # and the coefficients of the two-field route bit for bit
    cfg, bundle = canonical(k), omega_bundle(k)
    calls = []
    metric_at = gh.metric_at

    def counted(config, x4):
        calls.append(np.shape(x4))
        return metric_at(config, x4)

    monkeypatch.setattr(gh, "metric_at", counted)
    fit = _fit(cfg, bundle)
    assert calls == [(3, 6, 8, 4)]
    monkeypatch.setattr(gh, "metric_at", metric_at)
    c_gamma, a1 = _two_model_fit(cfg, bundle)
    assert (fit.c_gamma, fit.a1) == (float(c_gamma), float(a1))


def test_decay_profile_exponents(omega_bundle):
    radii = [24.0 * 1.6**j for j in range(4)]
    profiles = harmonic.decay_profiles(omega_bundle(2), radii)
    slopes = harmonic.decay_exponents(profiles)
    assert slopes["metric"] <= -3.9
    assert slopes["moment"] == pytest.approx(-2.0, abs=0.1)
    assert slopes["omega"] == pytest.approx(-4.0, abs=0.1)


def test_metric_decay_exponent_is_the_profiles_metric_slope(canonical, omega_bundle,
                                                            monkeypatch):
    # the metric column alone, bit for bit, without the harmonic form
    cfg = canonical(2)
    radii = [24.0 * 1.6**j for j in range(4)]
    expected = harmonic.decay_exponents(harmonic.decay_profiles(omega_bundle(2), radii))["metric"]

    def no_bundle(config):
        raise AssertionError("the metric column builds no harmonic form")

    monkeypatch.setattr(harmonic, "build_omega", no_bundle)
    assert harmonic.metric_decay_exponent(cfg, radii, 6) == expected


def test_annulus_density_exponent(omega_bundle):
    slope = harmonic.annulus_density_exponent(omega_bundle(1))
    assert abs(slope + 8.0) <= 0.5


def test_pairing_residuals(omega_bundle):
    bundle = omega_bundle(1)
    assert harmonic.intersection_pairing_residual(bundle, harmonic.omega_norm(bundle)) < 1e-4
    assert harmonic.exact_form_pairing_residual(bundle) < 1e-8


@pytest.mark.parametrize("k", [1, 2])
def test_exact_form_pairing_sees_an_axisymmetric_non_closed_form(k, monkeypatch, omega_bundle):
    # grad f + 1e-6 rho^-3 e_1 is axisymmetric, but its curl is not 0, so
    # its pairing with an exact form does not vanish; the perturbation goes
    # into the one grad f route, of which the pairing reads e_1 and e_2
    bundle = omega_bundle(k)
    grad_f = gh.grad_f_and_potential

    def perturbed(config, pts, components=(0, 1, 2)):
        (f1, *rest), v = grad_f(config, pts, components)
        assert components[0] == 0
        rho = np.linalg.norm(pts, axis=-1)
        return [f1 + 1e-6 * rho**-3, *rest], v

    monkeypatch.setattr(gh, "grad_f_and_potential", perturbed)
    assert harmonic.exact_form_pairing_residual(bundle) > 1e-8


def test_suite_harmonic_computes_each_core_quantity_once(monkeypatch):
    calls = {}

    def counted(name):
        inner = getattr(harmonic, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(harmonic, name, wrapper)

    for name in ("omega_norm", "build_omega", "_raw_sigma_integral"):
        counted(name)
    assert suites.suite_harmonic(2, 1.0).passed
    assert calls == {"omega_norm": 1, "build_omega": 1, "_raw_sigma_integral": 1}


@pytest.mark.parametrize("k", [1, 2])
def test_suite_harmonic_shares_its_evaluations(k, monkeypatch):
    # Omega at the five check points comes from the fd.value_and_d call on
    # them and their stencil, with one metric_at sample there for
    # omega-antiselfdual and alpha-*; the far-field fits, two of them at
    # k >= 2, come from one model_form and one components call
    calls = {"components": [], "model_form": [], "metric_at": []}

    def spy(owner, name, key):
        inner = getattr(owner, name)

        def counted(*args):
            calls[key].append(np.shape(args[-1]))
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)

    spy(harmonic.HarmonicFormBundle, "components", "components")
    spy(harmonic, "model_form", "model_form")
    spy(gh, "metric_at", "metric_at")
    assert suites.suite_harmonic(k, 1.0).passed
    fits = (1, 3, 6, 4) if k == 1 else (2, 3, 6, 4)
    assert calls == {"components": [(5, 9, 4), fits], "model_form": [fits],
                     "metric_at": [(5, 4), (3, 8, 4), fits[:-1] + (8, 4)]}


def test_stacked_fits_and_shared_samples_are_bitwise_the_separate_ones(canonical, omega_bundle):
    cfg, bundle = canonical(2), omega_bundle(2)
    base = 20.0 * 3 * 1.0
    inner = (base, 1.5 * base, 2.25 * base)
    outer = (1.5 * base, 2.25 * base, 3.375 * base)
    stacked = harmonic.asymptotic_fits(cfg, bundle, np.array([inner, outer]))
    assert stacked == [_fit(cfg, bundle), harmonic.asymptotic_fits(cfg, bundle, outer)[0]]
    # alpha-* read the check points' metric_at sample and Omega off their stencil
    x4 = suites._check_points(cfg, 5)
    omega, _ = fd.value_and_d(FormField(2, bundle.components), x4)
    shared = harmonic.alpha_split_residuals(cfg, x4[:3], gh.metric_at(cfg, x4).rows(slice(3)),
                                            omega[:3])
    alone = harmonic.alpha_split_residuals(cfg, x4[:3], gh.metric_at(cfg, x4[:3]),
                                           bundle.components(x4[:3]))
    for key in alone:
        assert np.array_equal(shared[key], alone[key]), key


def test_first_center_weight_other_than_one_is_named():
    # V0 = 1/(2|x - p0|) is the first center's share only for weight 1
    cfg = gh.GHConfig(k=2, lam=1.0, centers=(((-0.5, 0.0, 0.0), 2), ((1.0, 0.0, 0.0), 1)))
    with pytest.raises(SchemaError, match=r"centers\[0\].*got 2"):
        gh.grad_f_and_potential(cfg, np.array([0.3, 0.4, 0.5]))
    with pytest.raises(SchemaError, match=r"centers\[0\].*got 2"):
        harmonic.build_omega(cfg)


def test_linear_potential(canonical):
    cfg = canonical(2)
    # the invariant linear potential is 2 (k+1) x1 and is harmonic
    assert harmonic.phi1_value(cfg, np.array([0.7, 0.2, -0.1])) == pytest.approx(
        2 * 3 * 0.7, rel=1e-12
    )
    x4 = gh.sample_chart_points(cfg, 1, seed=8, rho_min=1.5, rho_max=3.0,
                                string_cone_cos=0.45)[0]
    assert harmonic.phi1_laplacian_residual(cfg, x4) < 1e-8
    ratios = harmonic.phi1_q1_ratio(cfg)
    assert abs(float(np.mean(ratios)) - 1.0) < 0.02


def test_cone_config_is_flat(canonical):
    cone = harmonic.cone_config(canonical(3))
    metric = gh.metric_fn(cone)
    for x4 in gh.sample_chart_points(cone, 3, seed=2):
        assert np.max(np.abs(fd.riemann_lowered(metric, x4))) < 1e-5


def test_model_form_matches_omega_at_large_radius(canonical, omega_bundle):
    # far field: the normalized form approaches c_Gamma * the model shape
    cfg = canonical(1)
    bundle = omega_bundle(1)
    rho = 40.0
    u = np.array([0.55, 0.75, 0.37])
    u /= np.linalg.norm(u)
    x4 = np.array([*(rho * u), 0.2])
    omega_here = bundle.components(x4)
    model = harmonic.model_form(cfg, x4)[0]  # the lead model
    num = float(np.linalg.norm(omega_here - harmonic.c_gamma(1, 1.0) * model))
    den = float(np.linalg.norm(omega_here))
    assert num / den < 0.05
