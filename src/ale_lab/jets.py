"""Polynomial metric jets at an orbifold point and their curvature data.

A quadratic jet stores the coefficients H[i][j][k][l] of the metric
perturbation h_kl(x) = H_ijkl x^i x^j (symmetric in (i, j) and (k, l));
a quartic jet stores H2[i][j][k][l][m][n] for
h_mn(x) = H2_ijklmn x^i x^j x^k x^l.  The module provides

* the linear Bianchi gauge projection by a cubic vector-field corrector
  (divergence + half trace-gradient annihilated), through delta_star, the
  symmetrized gradient of a polynomial vector field of any degree,
* the curvature block of a quadratic jet at the origin,
* the signature-split second covariant derivative invariant
  D = <(D^2_11 + D^2_22 - D^2_33 - D^2_44) R (b_1), b_1> computed two
  independent ways: a closed form in H and H2 (at the origin g = I and
  dg = 0, so the curvature, d Gamma and the second derivatives of the
  curvature are short contractions of the jet coefficients), and a
  contour route with no step, which feeds the exact partials of the
  jets' metric at complex points z e_e to fd.riemann_from_derivatives
  and reads d_e^2 R(0) off a circle of z (fd.taylor_coefficient), with
  the same Christoffel corrections; D belongs to the degenerate
  regime (first row of R_+ zero), which obstruction.compute_report decides
  before it asks for D, so neither route checks it, and
* finite-group averaging (cyclic and binary-dihedral right quaternion
  actions) of jets and gauge fields by one pullback rule: every axis of the
  array is contracted against the first index of the matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import connection, fd
from .errors import FitUnstable, SchemaError, SymmetryError
from .forms import FLAT_INVERSE, OMEGA_ASD, OMEGA_SD, comps_to_tensor

DIM = 4

# ---------------------------------------------------------------------------
# Jet containers
# ---------------------------------------------------------------------------


@functools.cache
def _orbit_table(ndim: int, groups: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """The orbit label of every flat index under the transposes within the groups
    (orbits ranked by their least flat index) and every orbit's size; read-only."""
    flat = np.arange(DIM**ndim).reshape((DIM,) * ndim)
    least = flat.copy()
    for combo in itertools.product(*map(itertools.permutations, groups)):
        moved = dict(zip(itertools.chain(*groups), itertools.chain(*combo)))
        np.minimum(least, np.transpose(flat, [moved.get(a, a) for a in range(ndim)]), out=least)
    # sizes and ranks from bincount alone: a first comparison or cumsum adds peak RSS
    counts = np.bincount(least.ravel())
    first = np.flatnonzero(counts)
    rank = np.zeros_like(counts)
    rank[first] = np.arange(first.size)
    labels, sizes = rank[least.ravel()], counts[first]
    labels.setflags(write=False)
    sizes.setflags(write=False)
    return labels, sizes


def _symmetrize_pairs(arr: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Mean of every entry's orbit under the transposes within each group:
    the orbit's sum, from 0.0 in flat order, divided by its size, so every
    entry of an orbit reads the same bits."""
    labels, sizes = _orbit_table(arr.ndim, tuple(map(tuple, groups)))
    return (np.bincount(labels, weights=arr.ravel()) / sizes)[labels].reshape(arr.shape)


# Index symmetries as groups of commuting axes, covering the axes in order: a jet
# in its point indices and its metric pair, a field X[n][i][j]... in its points.
_JET2_GROUPS = ((0, 1), (2, 3))
_JET4_GROUPS = ((0, 1, 2, 3), (4, 5))


def _field_groups(ndim: int) -> tuple[tuple[int, ...], ...]:
    return ((0,), tuple(range(1, ndim)))


def _symmetric_basis(groups: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Basis of the arrays symmetric within each group: every orbit's
    indicator divided by its size, orbits in the order of their least flat
    index (the sorted index tuples per group in itertools.product order)."""
    labels, sizes = _orbit_table(sum(map(len, groups)), groups)
    return np.diag(1.0 / sizes)[:, labels].reshape((len(sizes),) + (DIM,) * sum(map(len, groups)))


def _random_symmetric(seed: int, scale: float, groups: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Normal entries of the given scale, symmetrized within the groups."""
    raw = scale * np.random.default_rng(seed).normal(size=(DIM,) * sum(map(len, groups)))
    return _symmetrize_pairs(raw, groups)


def _checked_jet(arr: np.ndarray, name: str, kind: str,
                 groups: tuple[tuple[int, ...], ...], tol: float) -> np.ndarray:
    """The symmetrized, read-only jet array after checking its shape,
    finiteness and index symmetries; every message starts with the field
    name."""
    arr = np.asarray(arr, dtype=float)
    shape = (4,) * sum(len(g) for g in groups)
    if arr.shape != shape:
        raise SchemaError(f"{name}: {kind} jet must have shape {shape}, got {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        raise SchemaError(f"{name}: non-finite entry at {bad[0].tolist()}")
    sym = _symmetrize_pairs(arr, groups)  # an orbit sum beyond a float reads inf, unwarned
    if not np.isfinite(sym).all():
        index = np.argwhere(~np.isfinite(sym))[0].tolist()
        raise SchemaError(f"{name}: entry at {index} is out of range, the sum of its index "
                          "transposes overflows a float")
    with np.errstate(over="ignore"):  # an entry may lie beyond a float from its orbit mean
        gap = float(np.max(np.abs(arr - sym)))
    scale = max(float(np.max(np.abs(arr))), 1.0)
    if gap > tol * scale:
        raise SymmetryError(
            f"{name}: {kind} jet asymmetry {gap:.3e} exceeds tolerance {tol:.1e}"
        )
    sym.setflags(write=False)
    return sym


@dataclass(frozen=True)
class Jet2:
    """Quadratic metric jet h_kl = H[i][j][k][l] x^i x^j."""

    H: np.ndarray

    @classmethod
    def from_array(cls, arr: np.ndarray, tol: float = 1e-12) -> "Jet2":
        return cls(H=_checked_jet(arr, "H", "quadratic", _JET2_GROUPS, tol))


@dataclass(frozen=True)
class Jet4:
    """Quartic metric jet h_mn = H2[i][j][k][l][m][n] x^i x^j x^k x^l."""

    H2: np.ndarray

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Jet4":
        return cls(H2=_checked_jet(arr, "H2", "quartic", _JET4_GROUPS, 1e-12))


def _contract_points(h: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """h_{i..j ...} x^i .. x^j over the first ``order`` indices of h at
    (..., 4) real or complex points x: one index against x for an odd
    order, then one pair at a time against x (x) x; the largest
    intermediate holds h.size values per point."""
    xx = (x[..., :, None] * x[..., None, :]).reshape(x.shape[:-1] + (DIM * DIM,))
    t = h.reshape(-1)
    if order % 2:
        t = np.einsum("...i,...ij->...j", x, t.reshape(DIM, -1))
    for _ in range(order // 2):
        t = np.einsum("...i,...ij->...j", xx, t.reshape(t.shape[:-1] + (DIM * DIM, -1)))
    return t.reshape(t.shape[:-1] + (DIM,) * (h.ndim - order))


def _metric_partials(jet: Jet2, quartic: Jet4 | None, x: np.ndarray, n: int) -> np.ndarray:
    """The n-th partials d_e1 .. d_en g_ab, n <= 2, of the metric I + h of the
    jets at (..., 4) real or complex points x, exactly, as (..., 4 (n times),
    4, 4): the degree-p term contributes p! / (p - n)! times its
    coefficients contracted with x on p - n point indices."""
    terms = [(jet.H, 2)] + ([] if quartic is None else [(quartic.H2, 4)])
    out = np.eye(DIM) if n == 0 else 0.0
    for coeffs, degree in terms:
        out = out + math.perm(degree, n) * _contract_points(coeffs, x, degree - n)
    return out


def metric_fn_from_jets(jet: Jet2, quartic: Jet4 | None) -> Callable[[np.ndarray], np.ndarray]:
    """Metrics (..., 4, 4) of the jets at (..., 4) points."""
    return lambda x: _metric_partials(jet, quartic, np.asarray(x, dtype=float), 0)


# ---------------------------------------------------------------------------
# Bianchi gauge: divergence + half trace-gradient as a linear form
# ---------------------------------------------------------------------------


def bianchi_form(jet: Jet2) -> np.ndarray:
    """Coefficients B[j][c] of (div-trace form)(x) = B[j][c] x^j dx^c."""
    h = jet.H
    div = -2.0 * np.einsum("ajac->jc", h)
    trgrad = np.einsum("cjaa->jc", h)
    return div + trgrad


def delta_star(xfield: np.ndarray) -> np.ndarray:
    """Symmetrized gradient (1/2)(d_m X_n + d_n X_m) of the vector field
    X_n = X[n][i][j]... x^i x^j ... of degree r = xfield.ndim - 1, as the
    jet array of degree r - 1 with the metric pair (m, n) last."""
    xs = _symmetrize_pairs(np.asarray(xfield, dtype=float), _field_groups(np.ndim(xfield)))
    grad = (xs.ndim - 1) * np.moveaxis(xs, (0, 1), (-1, -2))  # d_m X_n = r X[n][m][i]... x^i ...
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


@functools.cache
def _gauge_system() -> tuple[np.ndarray, np.ndarray]:
    """The cubic-field basis and the least-squares columns of its Bianchi
    forms, built on first use and read-only."""
    basis = _symmetric_basis(_field_groups(4))
    columns = np.array([bianchi_form(Jet2(H=delta_star(x))).ravel() for x in basis]).T
    basis.setflags(write=False)
    columns.setflags(write=False)
    return basis, columns


@dataclass
class GaugeProjection:
    jet: Jet2


def gauge_project(jet: Jet2) -> GaugeProjection:
    """Correct the jet by a symmetrized cubic-field gradient so the
    linear Bianchi form vanishes; curvature is unchanged."""
    basis, columns = _gauge_system()
    target = -bianchi_form(jet).ravel()
    sol, *_ = np.linalg.lstsq(columns, target, rcond=None)
    corrector = np.einsum("b,bcijk->cijk", sol, basis)
    try:
        return GaugeProjection(jet=Jet2.from_array(jet.H + delta_star(corrector)))
    except SchemaError as exc:
        # an index of the corrected jet may point at a zero input entry
        raise SchemaError("H: the jet is out of range, its gauge projection overflows a "
                          "float") from exc


# ---------------------------------------------------------------------------
# Curvature of a quadratic jet at the origin
# ---------------------------------------------------------------------------


def riemann_from_jet2(jet: Jet2) -> np.ndarray:
    """Lowered curvature tensor at the origin of euc + h2.

    Quadratic-coefficient second partials d_i d_j h_kl = 2 H_ijkl feed
    the standard linearized expression; the sign is pinned to the
    finite-difference curvature convention of the fd module.
    """
    h = jet.H
    return -(
        np.einsum("acbd->abcd", h)
        + np.einsum("bdac->abcd", h)
        - np.einsum("adbc->abcd", h)
        - np.einsum("bcad->abcd", h)
    )


def curvature_from_jet2(jet: Jet2) -> connection.CurvatureBlock:
    riem = riemann_from_jet2(jet)
    sd, mixed, _asd = connection.operator_blocks_from_riemann(
        FLAT_INVERSE, riem, (OMEGA_SD, OMEGA_ASD)
    )
    return connection.CurvatureBlock(Rplus=-sd, Rminus=-mixed)


# ---------------------------------------------------------------------------
# The signature-split second-derivative invariant
# ---------------------------------------------------------------------------

_SIGNATURE = np.array([1.0, 1.0, -1.0, -1.0])
_W1 = comps_to_tensor(OMEGA_SD[0], 2)
_D2_CONTOUR_NODES = 16  # _d2_tensor_contour: the nodes of each direction's circle


def _contract_invariant(tens: np.ndarray) -> float:
    """-(1/4) T_abcd (w1)^ab (w1)^cd with flat raised indices."""
    return float(-0.25 * np.einsum("abcd,ab,cd->", tens, _W1, _W1))


def _hessian_correction(riem0: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Sum over slots of (d_e Gamma^f_{e slot}) R(slot -> f), already
    signature-weighted and summed over e.

    dgamma[e, f, a, b] = d_e Gamma^f_{ab}; the correction to the second
    covariant derivative at a point with vanishing Christoffels is
    -(d_e Gamma^f_{e slot}) R(slot -> f) for each tensor slot, with the
    derivative index contracted against the first lower index.
    """
    wdg = np.einsum("e,efea->fa", _SIGNATURE, dgamma)
    corr = (
        np.einsum("fa,fbcd->abcd", wdg, riem0)
        + np.einsum("fb,afcd->abcd", wdg, riem0)
        + np.einsum("fc,abfd->abcd", wdg, riem0)
        + np.einsum("fd,abcf->abcd", wdg, riem0)
    )
    return corr


def _dgamma_exact(jet: Jet2) -> np.ndarray:
    """d_e Gamma^f_ab at the origin, [e, f, a, b], in closed form."""
    h = jet.H
    return np.einsum("eafb->efab", h) + np.einsum("ebfa->efab", h) - h


def _d2_tensor_exact(jet: Jet2, quartic: Jet4 | None) -> np.ndarray:
    """The signature-split second covariant derivative of the curvature at
    the origin, sum_e sigma_e (D_e D_e R)_abcd, in closed form.

    At the origin g = I, dg = 0, d_i d_j g_ab = 2 H_ijab and
    d_i d_j d_k d_l g_ab = 24 H2_ijklab, so L[e, f, a, b] = d_e Gamma^f_ab
    = H_eafb + H_ebfa - H_efab, and d_e^2 R_abcd is the linear curvature of
    d_e^2 h4 (second partials 24 H2_eeijab) plus the second derivative of
    the Gamma Gamma terms, 2 sum_f (L_efda L_efcb - L_efca L_efdb).
    """
    dgamma = _dgamma_exact(jet)
    quad = np.einsum("e,efda,efcb->abcd", _SIGNATURE, dgamma, dgamma)
    hess = 2.0 * (quad - np.swapaxes(quad, 2, 3))
    if quartic is not None:
        hess = hess + riemann_from_jet2(
            Jet2(H=12.0 * np.einsum("e,eeijab->ijab", _SIGNATURE, quartic.H2)))
    return hess - _hessian_correction(riemann_from_jet2(jet), dgamma)


def _curvature_at(jet: Jet2, quartic: Jet4 | None,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Gamma, d Gamma, R lowered) of the jets' metric at (..., 4) real or
    complex points, by fd.riemann_from_derivatives on its exact partials."""
    return fd.riemann_from_derivatives(*(_metric_partials(jet, quartic, x, n) for n in range(3)))


def _d2_tensor_contour(jet: Jet2, quartic: Jet4 | None) -> np.ndarray:
    """The same tensor from the exact partials of the jets' metric, with no
    step: d_e^2 R(0) is twice the z^2 Taylor coefficient of z -> R(z e_e),
    read off a circle of complex z (fd.taylor_coefficient), and R and
    d Gamma at the origin come from the same formula there."""
    axes = lambda z: _curvature_at(jet, quartic, z[:, None, None] * np.eye(DIM))[2]
    second = 2.0 * fd.taylor_coefficient(axes, 2, _D2_CONTOUR_NODES)  # [e, a, b, c, d]
    _, dgamma, riem0 = _curvature_at(jet, quartic, np.zeros(DIM))
    return np.einsum("e,e...->...", _SIGNATURE, second) - _hessian_correction(riem0, dgamma)


def d2_invariant_fd(jet: Jet2, quartic: Jet4 | None) -> float:
    """Contour route, named for the finite-difference route it replaced:
    the contraction of _d2_tensor_contour."""
    return _contract_invariant(_d2_tensor_contour(jet, quartic))


def d2_invariant_symbolic(jet: Jet2, quartic: Jet4 | None) -> float:
    """Exact route: the contraction of _d2_tensor_exact."""
    return _contract_invariant(_d2_tensor_exact(jet, quartic))


# ---------------------------------------------------------------------------
# Finite symmetry groups acting by right quaternion multiplication
# ---------------------------------------------------------------------------


def right_mult_matrix(q: Sequence[float]) -> np.ndarray:
    """Matrix of x -> x q on R^4 identified with the quaternions."""
    a, b, c, d = q
    return np.array([[a, -b, -c, -d], [b, a, d, -c], [c, -d, a, b], [d, c, -b, a]], dtype=float)


def cyclic_group(k: int) -> list[np.ndarray]:
    """Right multiplications by the (k+1)-th roots of unity in the
    i-complex line."""
    mats = []
    for m in range(k + 1):
        theta = 2.0 * math.pi * m / (k + 1)
        mats.append(right_mult_matrix([math.cos(theta), math.sin(theta), 0.0, 0.0]))
    return mats


def binary_dihedral_group() -> list[np.ndarray]:
    """The order-8 right-quaternion group {+-1, +-i, +-j, +-k}."""
    return [right_mult_matrix(sign * unit) for unit in np.eye(4) for sign in (1.0, -1.0)]


def _pullback(arr: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """arr with every axis contracted against the first index of Q (one matrix
    or a (..., 4, 4) stack): a jet pulled back by x -> Q x, or, for orthogonal
    Q, the field Q^-1 X(Q x).  numpy lays out intermediates by letter, so the
    metric pair sums as "ab", below the kept "ijklmn", the rest as "pqrs"."""
    summed = "pqrs"[: arr.ndim - 2] + "ab"
    kept = "ijklmn"[: arr.ndim]
    operands = ",".join([summed] + [f"...{s}{t}" for s, t in zip(summed, kept)])
    return np.einsum(f"{operands}->...{kept}", arr, *[Q] * arr.ndim, optimize=True)


def pullback_jet2(jet: Jet2, Q: np.ndarray) -> Jet2:
    return Jet2.from_array(_pullback(jet.H, Q), tol=1e-9)


def average(arr: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Mean over the group of the pullbacks of a jet or field array."""
    return np.mean(_pullback(arr, np.array(mats)), axis=0)


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def random_jet2(seed: int) -> Jet2:
    """Symmetrized normal entries of scale 0.05."""
    return Jet2.from_array(_random_symmetric(seed, 0.05, _JET2_GROUPS))


def random_jet4(seed: int) -> Jet4:
    """Symmetrized normal entries of scale 0.02."""
    return Jet4.from_array(_random_symmetric(seed, 0.02, _JET4_GROUPS))


def random_quintic_field(seed: int) -> np.ndarray:
    """Symmetrized normal entries of scale 0.02."""
    return _random_symmetric(seed, 0.02, _field_groups(6))


# upper-triangle entries of a 3x3 block, first row first: 00 01 02 11 12 22
_UPPER = np.triu_indices(3)


@functools.cache
def _block_functionals() -> tuple[np.ndarray, np.ndarray]:
    """The symmetric quadratic-jet basis and the (6, n) matrix of the
    upper-triangle R_+ entries of its elements, built on first use and
    read-only; the first three rows are the first block row."""
    basis = _symmetric_basis(_JET2_GROUPS)
    amat = np.array([curvature_from_jet2(Jet2(H=b)).Rplus[_UPPER] for b in basis]).T
    basis.setflags(write=False)
    amat.setflags(write=False)
    return amat, basis


def _fit_block(seed: int, rows: slice, target: np.ndarray | float) -> Jet2:
    """random_jet2(seed) minus the minimum-norm combination of the basis
    that moves the upper-triangle R_+ entries ``rows`` to ``target``."""
    jet = random_jet2(seed)
    amat, basis = _block_functionals()
    current = curvature_from_jet2(jet).Rplus[_UPPER][rows]
    sol, *_ = np.linalg.lstsq(amat[rows], current - target, rcond=None)
    return Jet2.from_array(jet.H - np.einsum("b,bijkl->ijkl", sol, basis))


def jet2_first_row_zero(seed: int) -> Jet2:
    """Random symmetric jet corrected so R_+(H) annihilates the first
    self-dual generator."""
    out = _fit_block(seed, slice(0, 3), 0.0)
    if np.linalg.norm(curvature_from_jet2(out).Rplus[0, :]) > 1e-10:
        raise FitUnstable("first-row projection failed to converge")
    return out


def jet2_with_block(target: np.ndarray, seed: int = 0) -> Jet2:
    """Jet whose self-dual curvature block matches the symmetric target."""
    target = np.asarray(target, dtype=float)
    if target.shape != (3, 3) or np.max(np.abs(target - target.T)) > 1e-12:
        raise SchemaError("target block must be a symmetric 3x3 matrix")
    return _fit_block(seed, slice(None), target[_UPPER])
