"""Deformations of 2-form triples and the order-by-order Ricci expansion.

A deformation of the flat triple is generated pointwise by

    M(x) = [[lam(x) I3, -C(x)], [-C(x)^T, lam(x) I3]]

acting on the (self-dual, anti-self-dual) coefficient stack, with
Phi(t) = exp(t M) omega.  M is conformal-symplectic for the wedge
pairing, so the deformed triple stays a definite orthonormal frame of
its reconstructed metric.  Writing phi_i = sum_j C_ij(x) wt_j for the
anti-self-dual data, the gauge condition

    sum_i J_i (*d phi_i) + d lam = 0

makes the first-order connection coefficients a_i^(1) = *d phi_i with
curvature R_i^(1) = d * d phi_i, and the trace-free Ricci at second
order is

    Ric0^(2)_i = (d a_i^(2))_- + (a_j^(1) ^ a_k^(1))_-   (i,j,k cyclic)
                 - sum_j (Rplus1)_ij phi_j .

Both nonlinear coefficients are pinned numerically against the
t-coefficients of actual deformed metrics, read off a circle of complex
t by fd.taylor_coefficient on TAYLOR_NODES nodes: to about 7e-9 on the
linear family and 2e-6 on the coupled one, where the O(h^2) truncation
of the x-differences rules.

H = metric_perturbation_from_coeffs(C) is symmetric and trace-free and
acts on 2-forms as the off-diagonal block [[0, -C], [-C^T, 0]] of M, so

    g(t) = e^(t lam) exp(t H),    Phi(t) = e^(t lam) omega_+ . L2(exp(t H / 2))

with L2(A): v ^ w -> A v ^ A w on 2-forms, and one real 4x4 eigh of H per
point gives the triple, its metric and, through both, its connection.

Node axis: a contour is evaluated as one stack, not node by node.  A
(m,) array of t values goes with plain (..., 4) point stacks, and every
value has the node axis right after the point axes, (..., m, *shape): a
value stack, as fd and forms take one, so each fd operator and each
(..., 4, 4) stack of connection serves all nodes of a contour in one
call.  A family takes its t-independent part (lam and the
eigendecomposition of H) once per point.  That part is real: triple and
metric are sums of real per-point tables with weights in which t alone
enters, and a complex weight is one real product for its real and its
imaginary part.

Family axis: family_stack(*families) is one TripleFamily whose coeff and
lam read row f of a leading family axis with families[f].  fd, forms and
connection treat that axis as one more point axis, so one contour, with
the node axis after the family axis, serves every family, each bit for
bit as its own contour would.

The gauged families project seeded quadratic C onto the null spaces of
two linear constraints, delta h = 0 and (d a^(1))_- = 0.  Both are exact
tables on the 90 coefficients, from the constant second derivatives of
x_p x_q (fd.DQUAD) and the constant form tables: no field is evaluated.

On a multi-center fibration the analogous first-order connection uses
the moment-map covectors alpha_i = (1/2) J_i dm, which satisfy
d alpha_i = w_i and are coclosed; they are read off gh.metric_at's sample
(FrameSample.alpha), the one route to them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fd, gh
from .connection import connection_from_Phi
from .errors import GaugeViolation, SchemaError
from .forms import (
    CYCLIC,
    D_TABLE,
    FLAT_INVERSE,
    FLAT_STAR,
    OMEGA_ASD,
    OMEGA_SD,
    FormField,
    J_with,
    apply_J_covector,
    float_or_complex,
    project_with,
    split_sd,
    wedge,
)

ScalarField = Callable[[np.ndarray], np.ndarray]  # (..., 4) points -> (...)
MatrixField = Callable[[np.ndarray], np.ndarray]  # (..., 4) points -> (..., 3, 3)

_J_SD_FLAT = J_with(FLAT_INVERSE, OMEGA_SD)
_J_ASD_FLAT = J_with(FLAT_INVERSE, OMEGA_ASD)

GAUGE_TOL = 1e-6  # largest gauge residual deformation_first_order accepts
TAYLOR_NODES = 8  # the nodes of every deformation contour (fd.taylor_coefficient)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a (..., n, n) stack, by scipy.linalg (imported
    here, on first use): the second route for TripleFamily.triple and
    metric, which take exp(t M) and exp(t H) in closed form."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def phi_comps_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """(..., 3, 6) anti-self-dual component stacks from (..., 3, 3)
    coefficient matrices."""
    return float_or_complex(coeffs) @ OMEGA_ASD


def star_d_phi(phi: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """a_i = *d phi_i on the flat background; returns a (..., 3, 4) stack."""
    return fd.fd_d(FormField(2, phi), x) @ FLAT_STAR[3].T


def _j_sum(a: np.ndarray) -> np.ndarray:
    """sum_i J_i a_i for a (..., 3, 4) covector stack, flat self-dual J_i."""
    return apply_J_covector(_J_SD_FLAT, a).sum(axis=-2)


def gauge_residual(lam: ScalarField, a: np.ndarray, x: np.ndarray) -> float:
    """Max component of sum_i J_i a_i + d lam over (..., 4) points, for the
    first-order connection a = star_d_phi(phi, x) there."""
    return float(np.max(np.abs(_j_sum(a) + fd.all_partials(lam, x))))


def deformation_first_order(
    lam: ScalarField,
    phi: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """First-order connection a_i = *d phi_i, a (3, 4) covector stack, of
    a deformation whose gauge residual is at most GAUGE_TOL."""
    x = np.asarray(x, dtype=float)
    a = star_d_phi(phi, x)
    res = gauge_residual(lam, a, x)
    if res > GAUGE_TOL:
        raise GaugeViolation(
            f"deformation data violates the gauge condition: residual {res:.3e}"
        )
    return a


# ---------------------------------------------------------------------------
# The exponential family and its exact metric
# ---------------------------------------------------------------------------


# the pairs a <= b of a symmetric 4x4 matrix, and the pair of every entry
_PAIR_A, _PAIR_B = np.triu_indices(4)
_PAIR_OF = np.zeros((4, 4), dtype=int)
_PAIR_OF[_PAIR_A, _PAIR_B] = _PAIR_OF[_PAIR_B, _PAIR_A] = np.arange(_PAIR_A.size)
_PAIR_OF = _PAIR_OF.ravel()
_PAIR_J, _PAIR_K = np.triu_indices(4, 1)  # the eigenvector pairs of v_j ^ v_k


def _weighted_rows(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(..., m, n): sum_j weights[..., k, j] table[..., j, :] for a real
    (..., J, n) table at a point stack and (..., m, J) weights, real or
    complex, one row per node at the same points.  The table is
    t-independent; the weights carry t, and a complex one goes through one
    real product per point, its real rows above its imaginary rows."""
    if not np.iscomplexobj(weights):
        return weights @ table
    rows = np.concatenate([weights.real, weights.imag], axis=-2) @ table
    out = np.empty(weights.shape[:-1] + table.shape[-1:], dtype=complex)
    out.real, out.imag = np.split(rows, 2, axis=-2)
    return out


@dataclass
class TripleFamily:
    """Phi(t) = exp(t M(x)) omega for M built from (lam, C) and the metric
    g(t) = e^(t lam) exp(t H) it fixes, both from one eigh H = V diag(mu) V^T
    per point (_spectrum); connection(t) is the frame connection of Phi(t)
    for g(t), which reads no metric off the triple.

    Every t-method takes a (m,) array of times, real or complex, and its
    values at (..., 4) points carry the node axis right after the point
    axes (see the module docstring)."""

    lam: ScalarField
    coeff: MatrixField  # C(x)

    def _spectrum(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lam (..., 1), mu (..., 4) and V^T (..., 4, 4) of H = V diag(mu) V^T
        at a (..., 4) point stack, one eigh per point."""
        x = np.asarray(x, dtype=float)
        mu, v = np.linalg.eigh(metric_perturbation_from_coeffs(
            np.asarray(self.coeff(x), dtype=float)))
        return np.asarray(self.lam(x), dtype=float)[..., None], mu, np.swapaxes(v, -1, -2)

    def triple(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(..., m, 3, 6) triples Phi(t) at (..., 4) points for (m,) times
        t: L2(exp(t H / 2)) multiplies the flat-orthonormal 2-forms v_j ^ v_k
        (j < k) by e^(t (mu_j + mu_k) / 2), so t enters only through six
        weights on the real table <omega_+i, v_j ^ v_k> v_j ^ v_k
        (_weighted_rows)."""
        lam, mu, vt = self._spectrum(x)
        wedges = wedge(vt[..., _PAIR_J, :], 1, vt[..., _PAIR_K, :], 1)
        table = (wedges @ OMEGA_SD.T)[..., None] * wedges[..., None, :]
        rates = lam + 0.5 * (mu[..., _PAIR_J] + mu[..., _PAIR_K])
        weights = np.exp(t[:, None] * rates[..., None, :])
        flat = _weighted_rows(weights, table.reshape(table.shape[:-2] + (-1,)))
        return flat.reshape(flat.shape[:-1] + (3, 6))

    def metric(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(..., m, 4, 4) metrics g(t) = sum_j e^(t (lam + mu_j)) v_j v_j^T
        at (..., 4) points for (m,) times t: the projectors v_j v_j^T are
        real and t enters only through the weights (_weighted_rows).  Each
        g is read off its upper triangle, so it is exactly symmetric."""
        lam, mu, vt = self._spectrum(x)
        # projectors[j, pair] = v_aj v_bj over the pairs a <= b
        projectors = vt[..., _PAIR_A] * vt[..., _PAIR_B]
        upper = _weighted_rows(np.exp(t[:, None] * (lam + mu)[..., None, :]), projectors)
        return upper[..., _PAIR_OF].reshape(upper.shape[:-1] + (4, 4))

    def metric_field(self, t: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: self.metric(t, x)

    def phi_field(self, x: np.ndarray) -> np.ndarray:
        return phi_comps_from_coeffs(self.coeff(x))

    def connection(self, t: np.ndarray) -> FormField:
        return connection_from_Phi(lambda x: self.triple(t, x), self.metric_field(t))


# ---------------------------------------------------------------------------
# Second-order trace-free Ricci
# ---------------------------------------------------------------------------


def bracket_minus(a_values: np.ndarray) -> np.ndarray:
    """Anti-self-dual part of the curvature's quadratic term,
    (a_j ^ a_k)_- per cyclic component, from a (..., 3, 4) covector stack."""
    a = float_or_complex(a_values)
    j, k = CYCLIC
    return split_sd(FLAT_INVERSE, wedge(a[..., j, :], 1, a[..., k, :], 1))[1]


def ric0_second_order(
    a1: Callable[[np.ndarray], np.ndarray],
    da2: np.ndarray,
    phi: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """(..., 3, 6) anti-self-dual stacks of the second-order trace-free
    Ricci at (..., 4) points x.

    a1:  first-order connection coefficient field (x -> (..., 3, 4));
    da2: (..., 3, 6) exterior derivatives of the second-order connection
         coefficients at x;
    phi: anti-self-dual data field (x -> (..., 3, 6)).

    Rplus1 = -project_with(FLAT_INVERSE, d a1, OMEGA_SD) is the first-order
    self-dual curvature block, so the coupling term -Rplus1 phi is
    + project_with(FLAT_INVERSE, d a1, OMEGA_SD) phi.  a1 and d a1 come from
    one call of a1 on x and its stencil (fd.value_and_d).
    """
    x = np.asarray(x, dtype=float)
    a1_here, da1 = fd.value_and_d(FormField(1, a1), x)
    return (split_sd(FLAT_INVERSE, da2)[1] + bracket_minus(a1_here)
            + project_with(FLAT_INVERSE, da1, OMEGA_SD) @ float_or_complex(phi(x)))


# ---------------------------------------------------------------------------
# Linearized trace-free Ricci as d_- d_-^* on anti-self-dual data
# ---------------------------------------------------------------------------

# symmetric trace-free matrices associated to wt_j o w_i (Eq-38 pattern,
# flat background); h = sum_ij C_ij * _EIJ[i, j]
_COMPOSED = _J_ASD_FLAT @ _J_SD_FLAT[:, None]  # [i, j] = Jt_j J_i
_EIJ = 0.5 * (_COMPOSED + np.swapaxes(_COMPOSED, -1, -2))


def metric_perturbation_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Trace-free symmetric perturbations h (..., 4, 4) from (..., 3, 3)
    coefficient matrices."""
    return np.einsum("...ij,ijab->...ab", float_or_complex(coeffs), _EIJ)


def d_minus_codifferential(phi: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """(d delta phi)_- for an anti-self-dual 2-form field (or a (..., 6)
    stack of them), flat.  As *phi = -phi, delta phi = -*d*phi = *d phi,
    which is star_d_phi."""
    delta_field = FormField(1, lambda y: star_d_phi(phi, y))
    return split_sd(FLAT_INVERSE, fd.fd_d(delta_field, x))[1]


def linearized_ric0_prediction(coeff: MatrixField, x: np.ndarray) -> np.ndarray:
    """Predicted d/dt Ric(euc + t h)|_0 for h = map(coeff), as a 4x4 tensor.

    The operator acts componentwise: phi_i -> (d d^* phi_i)_-, pushed back
    through the same identification used to build h.
    """
    rows = project_with(FLAT_INVERSE, d_minus_codifferential(
        lambda y: phi_comps_from_coeffs(coeff(y)), x), OMEGA_ASD)
    return metric_perturbation_from_coeffs(rows)


def _polynomial_field(vec: np.ndarray) -> MatrixField:
    """C(x) = sum_m vec[i, j, m] x_p x_q over the monomials m = (p, q) of
    fd.QUAD_P, fd.QUAD_Q."""
    v = vec.reshape(3, 3, -1)

    def coeff(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.einsum("ijn,...n->...ij", v, x[..., fd.QUAD_P] * x[..., fd.QUAD_Q])

    return coeff


def _divergence_matrix() -> np.ndarray:
    """(16, 90): the x_r coefficient, in row 4 b + r, of d_a h_ab for
    h = map(C), one column per coefficient (i, j, m) of _polynomial_field.

    d_a h_ab is linear in x with the exact coefficients of fd.DQUAD, so
    these rows express the constraint delta h = 0 as a linear map on the
    coefficient vector."""
    return np.einsum("ijab,mar->brijm", _EIJ, fd.DQUAD).reshape(16, -1)


def _null_space(constraints: np.ndarray) -> np.ndarray:
    """(90, n) orthonormal basis, as columns, of the coefficient vectors a
    (rows, 90) constraint matrix annihilates, from its SVD; read-only."""
    _, s, vt = np.linalg.svd(constraints)
    rank = int(np.sum(s > 1e-9 * s[0])) if s.size else 0
    null = vt[rank:].T
    null.setflags(write=False)
    return null


@functools.cache
def _gauge_null_space() -> np.ndarray:
    """Null space of _divergence_matrix: the coefficient vectors with
    delta h = 0; built on first use and read-only."""
    return _null_space(_divergence_matrix())


def gauged_coefficient_field(seed: int) -> MatrixField:
    """Random homogeneous quadratic C(x) with delta h = 0 for h = map(C)
    (flat gauge)."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(3, 3, len(fd.QUAD_P)))
    null = _gauge_null_space()
    target = raw.reshape(-1)
    vec = null @ (null.T @ target)
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError("gauge projection annihilated the sample")
    return _polynomial_field(vec / norm)


def linear_gauged_family(seed: int) -> TripleFamily:
    """Random linear coefficient family, normal entries of scale 0.5, with
    its exact (linear) gauge scalar.

    For linear C the gauge covector sum is constant, so the gauge condition
    integrates to lam(x) = -c.x in closed form and holds at every point.
    """
    rng = np.random.default_rng(seed)
    cmat = rng.normal(size=(3, 3, 4)) * 0.5

    def coeff(x: np.ndarray) -> np.ndarray:
        return np.einsum("ija,...a->...ij", cmat, x)

    phi = lambda x: phi_comps_from_coeffs(coeff(x))
    csum = _j_sum(star_d_phi(phi, np.zeros(4)))
    return TripleFamily(lam=lambda x: -np.einsum("...a,a->...", x, csum), coeff=coeff)


def _efo_constraint_matrix() -> np.ndarray:
    """Linear constraints on homogeneous quadratic C: divergence-free
    perturbation and vanishing anti-self-dual part of d a^(1), one column
    per coefficient (i, j, m).  For quadratic C, a^(1)_i = *d phi_i is
    linear in x and d a^(1) is constant, so its rows (i, component) follow
    exactly from fd.DQUAD and the constant form tables."""
    # [j, m, r, c]: the x_r coefficient of *d(x_p x_q wt_j), component c
    a1 = np.einsum("mar,jI,aIK->jmrK", fd.DQUAD, OMEGA_ASD, D_TABLE[2]) @ FLAT_STAR[3].T
    minus = split_sd(FLAT_INVERSE, np.einsum("jmrc,rcL->jmL", a1, D_TABLE[1]))[1]
    asd = np.einsum("ik,jmL->iLkjm", np.eye(3), minus).reshape(3 * minus.shape[-1], -1)
    return np.concatenate([_divergence_matrix(), asd])


@functools.cache
def _efo_null_space() -> np.ndarray:
    """Null space of _efo_constraint_matrix; built on first use and
    read-only."""
    return _null_space(_efo_constraint_matrix())


def family_stack(*families: TripleFamily) -> TripleFamily:
    """The families as one TripleFamily whose coeff and lam take a leading
    family axis: row f of a (F, ..., 4) point stack is read by families[f].
    fd, forms and connection treat the family axis as one more point axis,
    so one evaluation of the stack serves every family, and the node axis
    of a contour follows the family axis as it follows every point axis."""

    def stacked(field: Callable[[TripleFamily], Callable]) -> Callable[[np.ndarray], np.ndarray]:
        def value(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            if x.shape[:1] != (len(families),):
                raise SchemaError(
                    f"points of shape {x.shape} for {len(families)} families; "
                    f"their leading axis must be the family axis, of length {len(families)}"
                )
            return np.stack([field(fam)(row) for fam, row in zip(families, x)])
        return value

    return TripleFamily(lam=stacked(lambda fam: fam.lam), coeff=stacked(lambda fam: fam.coeff))


def einstein_first_order_family(seed: int) -> TripleFamily:
    """Family that solves the linearized equation at first order.

    The quadratic coefficient part (normal entries of scale 0.6) is
    projected orthogonally, through the null space of the constraint
    matrix (built once), onto divergence-free fields whose first-order
    curvature is purely self-dual, so the second-order trace-free Ricci
    formula applies with a nonvanishing phi/self-dual-block coupling; a
    gauged linear part (linear_gauged_family of the next seed) keeps the
    connection bracket nonzero.
    """
    null = _efo_null_space()
    rng = np.random.default_rng(seed)
    q = rng.normal(size=null.shape[0]) * 0.6
    cquad = _polynomial_field(null @ (null.T @ q))

    lin = linear_gauged_family(seed + 1)
    lin_coeff, lin_lam = lin.coeff, lin.lam

    def coeff(x: np.ndarray) -> np.ndarray:
        return lin_coeff(x) + cquad(x)

    return TripleFamily(lam=lin_lam, coeff=coeff)


# ---------------------------------------------------------------------------
# First-order deformation of a multi-center fibration
# ---------------------------------------------------------------------------


def moment_connection_checks(config: gh.GHConfig, coeff: np.ndarray,
                             x4: np.ndarray, h: float = fd.DEFAULT_STEP) -> dict:
    """Residuals of d a_i = sum_j coeff[i,j] w_j and of coclosedness, the
    max over a (..., 4) stack of points, for the connection
    a_i = sum_j coeff[i, j] alpha_j with alpha_j = (1/2) J_j dm.

    coeff is symmetric with vanishing first row/column in the intended
    use (deformations transverse to the first curvature row).  The GH
    metric is built and inverted once, by one gh.metric_at sample on the
    stencil, x and its eight neighbours, whose one pass over the centers
    gives a, through the sample's alpha, and the (g^{-1}, det g) pair of the
    codifferential; the triple at x inverts nothing.  That makes two passes
    over the centers in all.
    """
    x4 = np.asarray(x4, dtype=float)
    c = float_or_complex(coeff)

    def field(y: np.ndarray) -> tuple[np.ndarray, ...]:
        with np.errstate(all="ignore"):  # out of range: metric_inverse raises, unwarned
            sample = gh.metric_at(config, y)
        return (c @ sample.alpha, *sample.inverse)

    d_a, delta_a = fd.d_and_codifferential(1, field, x4, h)
    d_res = float(np.max(np.abs(d_a - c @ gh.triple_field(config)(x4))))
    delta_res = float(np.max(np.abs(delta_a)))
    return {"curvature_residual": d_res, "coclosed_residual": delta_res}


def radial_contraction_decay(config: gh.GHConfig) -> float:
    """Fitted log-log slope of |dr-contraction of alpha_2| vs the
    asymptotic radius, over 6 random directions (seed 0) at base radii 8,
    16, 32 and 64; the expected rate is -3."""
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(6, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    kfac = config.k + 1
    rho = np.asarray((8.0, 16.0, 32.0, 64.0))[:, None, None]
    base = rho * dirs  # (radius, direction, 3)
    x4 = np.concatenate([base, np.full(base.shape[:-1] + (1,), 0.3)], axis=-1)
    alpha = gh.metric_at(config, x4).alpha[..., 1, :3]
    r4 = np.sqrt(2.0 * kfac * rho)
    vals = np.abs(np.sum(alpha * ((r4 / kfac) * dirs), axis=-1))
    logs_v = np.log(np.maximum(np.mean(vals, axis=-1), 1e-300))
    slope = np.polyfit(np.log(r4[:, 0, 0]), logs_v, 1)[0]
    return float(slope)
