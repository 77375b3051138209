"""Polynomial metric jets at an orbifold point and their curvature data.

A quadratic jet stores the coefficients H[i][j][k][l] of the metric
perturbation h_kl(x) = H_ijkl x^i x^j (symmetric in (i, j) and (k, l));
a quartic jet stores H2[i][j][k][l][m][n] for
h_mn(x) = H2_ijklmn x^i x^j x^k x^l.  The module provides

* exact truncated polynomial arithmetic (degree <= 4 in 4 variables)
  used as the symbolic oracle for curvature expansions: a polynomial
  tensor carries its 70 monomial coefficients on the last axis, and every
  product goes through one gathered table built at import, the (left,
  right) monomial pairs sorted by product monomial.  poly_product gathers
  a[..., left] * b[..., right], contracts the tensor axes in the same
  einsum and sums each product monomial with one reduceat; truncating at
  degree d takes a prefix of the table.  The curvature route truncates the
  Christoffel symbols at degree 3 and the curvature at degree 2, the
  degrees the second-derivative invariant reads,
* the linear Bianchi gauge projection by a cubic vector-field corrector
  (divergence + half trace-gradient annihilated), through delta_star, the
  symmetrized gradient of a polynomial vector field of any degree,
* the curvature block of a quadratic jet at the origin,
* the signature-split second covariant derivative invariant
  D = <(D^2_11 + D^2_22 - D^2_33 - D^2_44) R (b_1), b_1> computed two
  independent ways (finite differences with Christoffel corrections,
  and the polynomial expansion), and
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
from .forms import EUCLIDEAN, OMEGA_ASD, OMEGA_SD, comps_to_tensor
from .obstruction import first_row_norm, in_jet_units, require_first_row_zero

DIM = 4

# ---------------------------------------------------------------------------
# Truncated polynomial algebra: degree <= 4 in 4 variables
# ---------------------------------------------------------------------------

MAX_DEG = 4
MONOS: tuple[tuple[int, int, int, int], ...] = tuple(
    sorted(
        (e for e in itertools.product(range(MAX_DEG + 1), repeat=DIM) if sum(e) <= MAX_DEG),
        key=lambda e: (sum(e), e),
    )
)
N_MONO = len(MONOS)
_MONO_INDEX = {e: i for i, e in enumerate(MONOS)}
# MONOS is sorted by degree: the monomials of degree <= d are its first _N_UPTO[d]
_N_UPTO = [sum(1 for e in MONOS if sum(e) <= d) for d in range(MAX_DEG + 1)]


def _build_product_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, starts): the monomial pairs whose product has degree
    <= MAX_DEG, grouped by product monomial; the pairs of product m are
    left[starts[m]:starts[m + 1]], right[...].  The pairs of degree <= d are
    the prefix up to starts[_N_UPTO[d]]."""
    left, right, starts = [], [], [0]
    for e in MONOS:
        for i, ei in enumerate(MONOS):
            rest = tuple(a - b for a, b in zip(e, ei))
            if min(rest) >= 0:
                left.append(i)
                right.append(_MONO_INDEX[rest])
        starts.append(len(left))
    return np.array(left), np.array(right), np.array(starts)


_PROD_L, _PROD_R, _PROD_START = _build_product_table()


def _build_diff_table() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    tables = []
    for v in range(DIM):
        src, dst, coef = [], [], []
        for i, e in enumerate(MONOS):
            if e[v] == 0:
                continue
            lower = list(e)
            lower[v] -= 1
            src.append(i)
            dst.append(_MONO_INDEX[tuple(lower)])
            coef.append(float(e[v]))
        tables.append((np.array(src), np.array(dst), np.array(coef)))
    return tables


_DIFF_TABLES = _build_diff_table()


def _jet_monomials(order: int) -> np.ndarray:
    """Monomial index of x^i x^j ... for every index tuple (i, j, ...) of the
    given order, flattened in row-major order."""
    return np.array([
        _MONO_INDEX[tuple(idx.count(v) for v in range(DIM))]
        for idx in itertools.product(range(DIM), repeat=order)
    ])


_QUADRATIC_MONOS = _jet_monomials(2)
_QUARTIC_MONOS = _jet_monomials(4)


def poly_zero(shape: tuple[int, ...] = ()) -> np.ndarray:
    return np.zeros(shape + (N_MONO,))


def poly_product(subscripts: str, a: np.ndarray, b: np.ndarray, deg: int = MAX_DEG) -> np.ndarray:
    """Product of two polynomial tensors, contracted as in ``np.einsum``.

    ``subscripts`` names the tensor axes only, e.g. ``"fc,cab->fab"`` or
    ``"...,...->..."``; the monomial axis is last in a, b and the result
    and takes the letter ``z``, which the subscripts must not use.  One gather forms a[..., L] * b[..., R]
    over the table's (left, right) pairs, the einsum contracts the tensor
    axes pair by pair, and one reduceat sums the pairs of each product
    monomial.  Coefficients above degree ``deg`` are zero.  The result
    takes the dtype of the product, so complex operands stay complex.
    """
    n = _N_UPTO[deg]
    pairs = _PROD_START[n]
    operands, result = subscripts.split("->")
    sa, sb = operands.split(",")
    gathered = np.einsum(
        f"{sa}z,{sb}z->{result}z", a[..., _PROD_L[:pairs]], b[..., _PROD_R[:pairs]]
    )
    out = np.zeros(gathered.shape[:-1] + (N_MONO,), dtype=gathered.dtype)
    out[..., :n] = np.add.reduceat(gathered, _PROD_START[:n], axis=-1)
    return out


def poly_diff(a: np.ndarray, v: int) -> np.ndarray:
    src, dst, coef = _DIFF_TABLES[v]
    out = np.zeros_like(a)
    out[..., dst] = a[..., src] * coef
    return out


# ---------------------------------------------------------------------------
# Jet containers
# ---------------------------------------------------------------------------


@functools.cache
def _axis_permutations(ndim: int, groups: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """(count, ndim) axis orders of every transpose within the groups, in
    itertools.product order; built on first use and read-only."""
    perms = []
    for combo in itertools.product(*map(itertools.permutations, groups)):
        moved = dict(zip(itertools.chain(*groups), itertools.chain(*combo)))
        perms.append([moved.get(a, a) for a in range(ndim)])
    table = np.array(perms)
    table.setflags(write=False)
    return table


def _symmetrize_pairs(arr: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Mean of the transposes within each group, summed in place from 0.0 in
    table order; no (count, size) stack, which would add 3 MB at the quartic."""
    table = _axis_permutations(arr.ndim, tuple(map(tuple, groups)))
    out = np.zeros_like(arr)
    for perm in table:
        out += np.transpose(arr, perm)
    return out / len(table)


# Index symmetries as groups of commuting axes, covering the axes in order: a jet
# in its point indices and its metric pair, a field X[n][i][j]... in its points.
_JET2_GROUPS = ((0, 1), (2, 3))
_JET4_GROUPS = ((0, 1, 2, 3), (4, 5))


def _field_groups(ndim: int) -> tuple[tuple[int, ...], ...]:
    return ((0,), tuple(range(1, ndim)))


def _symmetric_basis(groups: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Basis of the arrays symmetric within each group: the symmetrized unit
    array of every sorted index tuple per group, in itertools.product order."""
    per_group = (itertools.combinations_with_replacement(range(DIM), len(g)) for g in groups)
    basis = []
    for combo in itertools.product(*per_group):
        unit = np.zeros((DIM,) * sum(map(len, groups)))
        unit[tuple(itertools.chain(*combo))] = 1.0
        basis.append(_symmetrize_pairs(unit, groups))
    return np.array(basis)


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
    sym = _symmetrize_pairs(arr, groups)
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
    def from_array(cls, arr: np.ndarray, tol: float = 1e-12) -> "Jet4":
        return cls(H2=_checked_jet(arr, "H2", "quartic", _JET4_GROUPS, tol))


def _contract_points(h: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """h_{i..j kl} x^i .. x^j over the first ``order`` (even) indices of h
    at (..., 4) points x, one index pair at a time against x (x) x; the
    largest intermediate holds 4^order values per point."""
    xx = (x[..., :, None] * x[..., None, :]).reshape(x.shape[:-1] + (DIM * DIM,))
    t = h.reshape(-1)
    for _ in range(order // 2):
        t = np.einsum("...i,...ij->...j", xx, t.reshape(t.shape[:-1] + (DIM * DIM, -1)))
    return t.reshape(t.shape[:-1] + (DIM, DIM))


def metric_fn_from_jets(jet: Jet2, quartic: Jet4 | None = None) -> Callable[[np.ndarray], np.ndarray]:
    hq = jet.H
    h4 = quartic.H2 if quartic is not None else None

    def ev(x: np.ndarray) -> np.ndarray:
        """Metrics (..., 4, 4) at (..., 4) points."""
        x = np.asarray(x, dtype=float)
        g = np.eye(4) + _contract_points(hq, x, 2)
        if h4 is not None:
            g = g + _contract_points(h4, x, 4)
        return g

    return ev


def metric_poly(jet: Jet2, quartic: Jet4 | None = None) -> np.ndarray:
    """(4, 4, N_MONO) coefficient array of euc + h2 (+ h4)."""
    out = poly_zero((4, 4))
    out[:, :, _MONO_INDEX[(0, 0, 0, 0)]] = np.eye(4)
    np.add.at(out, (..., _QUADRATIC_MONOS), np.moveaxis(jet.H.reshape(-1, 4, 4), 0, -1))
    if quartic is not None:
        np.add.at(out, (..., _QUARTIC_MONOS), np.moveaxis(quartic.H2.reshape(-1, 4, 4), 0, -1))
    return out


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
    return GaugeProjection(jet=Jet2.from_array(jet.H + delta_star(corrector)))


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
        (EUCLIDEAN, 1.0), riem, (OMEGA_SD, OMEGA_ASD)
    )
    return connection.CurvatureBlock(Rplus=-sd, Rminus=-mixed)


# ---------------------------------------------------------------------------
# The signature-split second-derivative invariant
# ---------------------------------------------------------------------------

_SIGNATURE = np.array([1.0, 1.0, -1.0, -1.0])
_W1 = comps_to_tensor(OMEGA_SD[0], 2)


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


_D2_OUTER_STEP = 0.16  # d2_invariant_fd: outer second differences
_D2_INNER_STEP = 5e-3  # d2_invariant_fd: curvature and Christoffel stencils


def d2_invariant_fd(jet: Jet2, quartic: Jet4 | None) -> float:
    """Finite-difference route with Christoffel corrections.

    The inner curvature and Christoffel evaluations use one Richardson
    level (steps h, h/2); the outer second differences use two levels
    (h, h/2, h/4), leaving O(h^6) truncation.  The outer step is kept
    large because inner round-off is amplified by 1/h^2.  Every stencil
    point lies within |x| < 1, where fd.step_at leaves the step unscaled.
    """
    require_first_row_zero(in_jet_units(curvature_from_jet2(jet).Rplus, jet.H))
    metric = metric_fn_from_jets(jet, quartic)
    origin = np.zeros(4)

    def riem_at(x: np.ndarray) -> np.ndarray:
        return fd.richardson(
            lambda hh: fd.riemann_lowered(metric, x, hh), _D2_INNER_STEP
        )

    def gamma_at(x: np.ndarray) -> np.ndarray:
        return fd.richardson(
            lambda hh: fd.christoffel(metric, x, hh), _D2_INNER_STEP
        )

    riem0 = riem_at(origin)

    # rows +h e_0 .. +h e_3, then -h e_0 .. -h e_3
    signs = np.concatenate([np.eye(4), -np.eye(4)])

    def hess_at(h: float) -> np.ndarray:
        riem = riem_at(h * signs)
        second = (riem[:4] + riem[4:] - 2.0 * riem0) / h**2
        return np.einsum("e,e...->...", _SIGNATURE, second)

    def dgamma_at(h: float) -> np.ndarray:
        gamma = gamma_at(h * signs)
        return (gamma[:4] - gamma[4:]) / (2.0 * h)

    def two_level(rule: Callable[[float], np.ndarray], h: float) -> np.ndarray:
        v1, v2, v4 = rule(h), rule(h / 2.0), rule(h / 4.0)
        r1a = (4.0 * v2 - v1) / 3.0
        r1b = (4.0 * v4 - v2) / 3.0
        return (16.0 * r1b - r1a) / 15.0

    hess = two_level(hess_at, _D2_OUTER_STEP)
    dgamma = two_level(dgamma_at, _D2_OUTER_STEP)
    tens = hess - _hessian_correction(riem0, dgamma)
    return _contract_invariant(tens)


# Degrees of the polynomial route: d2_invariant_symbolic reads the curvature
# to degree 2, and its derivative term needs the Christoffels to degree 3.
_CURV_DEG = 2
_GAMMA_DEG = _CURV_DEG + 1


def _curvature_polys(jet: Jet2, quartic: Jet4 | None) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel symbols gamma[f, a, b] = Gamma^f_ab to degree _GAMMA_DEG
    and the lowered curvature tensor to degree _CURV_DEG, as (..., N_MONO)
    coefficients, exact up to those degrees and zero above them."""
    g = metric_poly(jet, quartic)
    # g^-1 = I - h + h h - ... = 2 I - g + O(h^2): h starts at degree 2 and
    # each Christoffel term carries a derivative of g, so h h reaches the
    # Christoffels only from degree 5 on.
    ginv = -g
    ginv[:, :, _MONO_INDEX[(0, 0, 0, 0)]] += 2.0 * np.eye(4)

    dg = np.stack([poly_diff(g, v) for v in range(4)])  # [c, a, b, mono]
    # sym[c, a, b] = d_a g_bc + d_b g_ac - d_c g_ab
    sym = np.einsum("abcm->cabm", dg) + np.einsum("bacm->cabm", dg) - dg
    gamma = 0.5 * poly_product("fc,cab->fab", ginv, sym, _GAMMA_DEG)

    dgamma = np.stack([poly_diff(gamma, v) for v in range(4)])  # [c, a, d, b, mono]
    # gg[a, c, d, b] = Gamma^a_ce Gamma^e_db
    gg = poly_product("ace,edb->acdb", gamma, gamma, _CURV_DEG)
    riem_up = (
        np.einsum("cadbm->abcdm", dgamma)
        - np.einsum("dacbm->abcdm", dgamma)
        + np.einsum("acdbm->abcdm", gg)
        - np.einsum("adcbm->abcdm", gg)
    )
    riem_low = poly_product("ae,ebcd->abcd", g, riem_up, _CURV_DEG)
    return gamma, riem_low


def d2_invariant_symbolic(jet: Jet2, quartic: Jet4 | None) -> float:
    """Polynomial-exact route: curvature expanded to quadratic order."""
    require_first_row_zero(in_jet_units(curvature_from_jet2(jet).Rplus, jet.H))
    gamma, riem = _curvature_polys(jet, quartic)
    riem0 = riem[..., _MONO_INDEX[(0, 0, 0, 0)]]
    hess = np.zeros((4, 4, 4, 4))
    for e in range(4):
        mono = [0, 0, 0, 0]
        mono[e] = 2
        hess += _SIGNATURE[e] * 2.0 * riem[..., _MONO_INDEX[tuple(mono)]]
    # d_e Gamma^f_ab at the origin: the linear coefficients, as [e, f, a, b]
    linear = [_MONO_INDEX[tuple(int(v == e) for v in range(DIM))] for e in range(DIM)]
    dgamma = np.moveaxis(gamma[..., linear], -1, 0)

    tens = hess - _hessian_correction(riem0, dgamma)
    return _contract_invariant(tens)


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
    if first_row_norm(curvature_from_jet2(out).Rplus) > 1e-10:
        raise FitUnstable("first-row projection failed to converge")
    return out


def jet2_with_block(target: np.ndarray, seed: int = 0) -> Jet2:
    """Jet whose self-dual curvature block matches the symmetric target."""
    target = np.asarray(target, dtype=float)
    if target.shape != (3, 3) or np.max(np.abs(target - target.T)) > 1e-12:
        raise SchemaError("target block must be a symmetric 3x3 matrix")
    return _fit_block(seed, slice(None), target[_UPPER])
