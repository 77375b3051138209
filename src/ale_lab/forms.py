"""Component algebra for differential forms on a 4-dimensional chart.

Forms of degree p are stored as coefficient vectors over the sorted
index tuples of length p (sizes 1, 4, 6, 4, 1).  The degree-2 ordering
is (01, 02, 03, 12, 13, 23).  All metric-dependent operations take the
metric as an explicit 4x4 matrix so the same code serves the flat chart
and curved charts alike.

Stacking rule: every operation here reads the last axis of a component
array as its components and any leading axes as a stack, broadcast
against each other; e.g. wedge of (3, 4) and (3, 6) stacks gives the
(3, 4) stack of row-by-row products, and a FormField may return a
(3, 6) stack of 2-forms.  Covectors, J matrices and metrics follow the
same rule ((..., 4), (..., 4, 4) and (..., 4, 4)): a stack of metrics
broadcasts against a stack of forms with its own leading axes, so
g[..., None, :, :] pairs one metric per point with a (..., 3, 6) triple.

Metric operations go through fixed index tables built once at import:
  - the p-th compound C_p(A) of a 4x4 matrix A is the matrix of its
    p x p minors, C_p(A)[I, J] = det A[I, J] over sorted tuples I, J;
    the induced inner product of p-forms is <a, b> = a . C_p(g^{-1}) . b;
  - the complement table sends each sorted (4-p)-tuple K to the index of
    its sorted complement I with the sign eps(I, K) of the permutation
    (I, K), so (*a)_K = sqrt(det g) eps(I, K) (C_p(g^{-1}) a)_I, and on
    the flat metric * is the signed permutation FLAT_STAR[p];
  - comps_to_tensor scatters components into the full antisymmetric
    array, and tensor_to_comps gathers them back, through one index and
    sign table per degree.
g^{-1} and det g come from metric_inverse, the package's one checked metric
inversion; star_with, project_with and J_with take its result to share it.

Conventions fixed here and relied on everywhere else:
  - the standard self-dual basis is w1 = e01+e23, w2 = e02-e13,
    w3 = e03+e12 (anti-self-dual partners flip the second sign), with
    <wi, wj> = 2 delta_ij for the euclidean metric;
  - a 2-form W and a compatible almost-complex structure J are related
    by W(X, Y) = g(JX, Y), i.e. J = g^{-1} W^T on column vectors;
  - on covectors, (J b)(X) = -b(JX).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FrameNotOrthonormal, SingularMetric

DIM = 4
DEGREE_SIZES = (1, 4, 6, 4, 1)

TUPLES: dict[int, tuple[tuple[int, ...], ...]] = {
    p: tuple(itertools.combinations(range(DIM), p)) for p in range(DIM + 1)
}
TUPLE_INDEX: dict[int, dict[tuple[int, ...], int]] = {
    p: {t: i for i, t in enumerate(TUPLES[p])} for p in range(DIM + 1)
}


def _perm_sign(seq: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def _flat_index(idx: tuple[int, ...]) -> int:
    out = 0
    for i in idx:
        out = out * DIM + i
    return out


def _scatter_table(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat position, source component, sign) of every nonzero entry of
    the full antisymmetric degree-p array."""
    entries = [
        (_flat_index(perm), idx, _perm_sign(perm))
        for idx, tup in enumerate(TUPLES[p])
        for perm in itertools.permutations(tup)
    ]
    flat, src, sign = zip(*entries)
    return np.array(flat), np.array(src), np.array(sign, dtype=float)


def _compound_table(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices (I, J, permutation, slot) and permutation
    signs of the Leibniz expansion of every p x p minor."""
    perms = list(itertools.permutations(range(p)))
    n = DEGREE_SIZES[p]
    rows = np.empty((n, n, len(perms), p), dtype=int)
    cols = np.empty_like(rows)
    for i, tup_i in enumerate(TUPLES[p]):
        for j, tup_j in enumerate(TUPLES[p]):
            for s, perm in enumerate(perms):
                rows[i, j, s] = tup_i
                cols[i, j, s] = [tup_j[k] for k in perm]
    return rows, cols, np.array([_perm_sign(perm) for perm in perms], dtype=float)


def _complement_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """For each sorted (4-p)-tuple K: the index of its sorted complement I
    among the p-tuples and the sign of the permutation (I, K)."""
    idx, sign = [], []
    for tup in TUPLES[DIM - p]:
        comp = tuple(i for i in range(DIM) if i not in tup)
        idx.append(TUPLE_INDEX[p][comp])
        sign.append(_perm_sign(comp + tup))
    return np.array(idx), np.array(sign, dtype=float)


_SCATTER = {p: _scatter_table(p) for p in range(DIM + 1)}
_GATHER = {p: np.array([_flat_index(t) for t in TUPLES[p]]) for p in range(DIM + 1)}
_COMPOUND = {p: _compound_table(p) for p in range(DIM + 1)}
_COMPLEMENT = {p: _complement_table(p) for p in range(DIM + 1)}


def float_or_complex(values) -> np.ndarray:
    """values as a float array, or a complex one when they are complex: the
    value casts of forms, fd, connection and deformation, so that a family
    evaluated at complex t (deformation.taylor_coefficient) keeps its
    imaginary part.  Chart points stay real."""
    values = np.asarray(values)
    return values if np.iscomplexobj(values) else values.astype(float, copy=False)


def comps_to_tensor(comps: np.ndarray, degree: int) -> np.ndarray:
    """Expand sorted-tuple coefficients (..., n) into full antisymmetric
    arrays (..., 4, ..., 4)."""
    comps = float_or_complex(comps)
    flat, src, sign = _SCATTER[degree]
    lead = comps.shape[:-1]
    out = np.zeros(lead + (DIM**degree,), dtype=comps.dtype)
    out[..., flat] = sign * comps[..., src]
    return out.reshape(lead + (DIM,) * degree)


def tensor_to_comps(tensor: np.ndarray, degree: int) -> np.ndarray:
    tensor = float_or_complex(tensor)
    lead = tensor.shape[: tensor.ndim - degree]
    return tensor.reshape(lead + (DIM**degree,))[..., _GATHER[degree]]


def compound(matrix: np.ndarray, p: int) -> np.ndarray:
    """p-th compound of (..., 4, 4) matrices: the p x p minors, rows and
    columns ordered like TUPLES[p]."""
    rows, cols, signs = _COMPOUND[p]
    entries = float_or_complex(matrix)[..., rows, cols]
    return (entries.prod(axis=-1) * signs).sum(axis=-1)


def _wedge_table(p: int, q: int) -> np.ndarray:
    """Dense sign table T with (a ^ b)_k = sum a_ia b_ib T[ia * n_q + ib, k]."""
    table = np.zeros((DEGREE_SIZES[p], DEGREE_SIZES[q], DEGREE_SIZES[p + q]))
    for ia, ta in enumerate(TUPLES[p]):
        for ib, tb in enumerate(TUPLES[q]):
            joined = ta + tb
            if len(set(joined)) == p + q:
                table[ia, ib, TUPLE_INDEX[p + q][tuple(sorted(joined))]] = _perm_sign(joined)
    return table.reshape(-1, DEGREE_SIZES[p + q])


_WEDGE = {(p, q): _wedge_table(p, q) for p in range(DIM + 1) for q in range(DIM + 1 - p)}


def wedge(a: np.ndarray, p: int, b: np.ndarray, q: int) -> np.ndarray:
    """Wedge product of component arrays (..., n_p) and (..., n_q); the
    result has degree p + q and the broadcast leading shape."""
    if p + q > DIM:
        raise ValueError(f"wedge degree {p}+{q} exceeds {DIM}")
    a = float_or_complex(a)
    b = float_or_complex(b)
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (-1,)) @ _WEDGE[(p, q)]


def metric_inverse(metric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g^{-1} and det g of (..., 4, 4) metrics; a det g that is not finite
    with positive real part (a NaN or singular metric; the real part for the
    complex contour metrics) raises SingularMetric, naming it, and no
    RuntimeWarning before it."""
    g = float_or_complex(metric)
    with np.errstate(invalid="ignore"):
        det = np.linalg.det(g)
    bad = (det.real <= 0.0) | ~np.isfinite(det)
    if np.any(bad):
        raise SingularMetric(f"det g = {det[bad].flat[0] if det.ndim else det}")
    return np.linalg.inv(g), det


def _star_matrix(ginv: np.ndarray, det: np.ndarray, degree: int) -> np.ndarray:
    """(..., n_{4-p}, n_p) matrices of * on degree-p components."""
    idx, sign = _COMPLEMENT[degree]
    return np.sqrt(det)[..., None, None] * sign[:, None] * compound(ginv, degree)[..., idx, :]


# * on the flat metric, a signed permutation: comps @ FLAT_STAR[p].T
FLAT_STAR = {p: _star_matrix(np.eye(DIM), np.float64(1.0), p) for p in range(DIM + 1)}
for _table in FLAT_STAR.values():
    _table.setflags(write=False)


def star_with(inverse: tuple[np.ndarray, np.ndarray], comps: np.ndarray, degree: int) -> np.ndarray:
    """hodge_star for the metrics whose (g^{-1}, det g) is inverse, as
    metric_inverse returns it, so that one inversion serves several duals."""
    star = _star_matrix(*inverse, degree)
    comps = float_or_complex(comps)
    return (comps[..., None, :] @ np.swapaxes(star, -1, -2))[..., 0, :]


def hodge_star(metric: np.ndarray, comps: np.ndarray, degree: int) -> np.ndarray:
    """Hodge dual of degree-p component vectors (..., n) for (..., 4, 4)
    metrics, leading axes broadcast."""
    return star_with(metric_inverse(metric), comps, degree)


def form_inner(metric: np.ndarray, a: np.ndarray, b: np.ndarray, degree: int) -> float:
    """Pointwise inner product <a, b> = a_I b^I / p! for degree-p forms."""
    ginv, _ = metric_inverse(metric)
    return float(float_or_complex(a) @ compound(ginv, degree) @ float_or_complex(b))


def project_with(ginv: np.ndarray, stack: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """project_stack for the metrics whose inverse is ginv (metric_inverse)."""
    stack = float_or_complex(stack)
    return 0.5 * stack @ compound(ginv, 2) @ np.swapaxes(float_or_complex(basis), -1, -2)


def project_stack(metric: np.ndarray, stack: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coefficients (1/2) <stack_k, basis_j> of 2-forms on rows of a basis
    with <b_i, b_j> = 2 delta_ij; stack may be one form or a stack."""
    return project_with(metric_inverse(metric)[0], stack, basis)


def split_sd(metric: np.ndarray, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a 2-form into (self-dual, anti-self-dual) parts for the metric."""
    comps = float_or_complex(comps)
    starred = hodge_star(metric, comps, 2)
    return (comps + starred) / 2.0, (comps - starred) / 2.0


# Standard flat-chart dual bases, rows w1, w2, w3.
OMEGA_SD = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
    ]
)
OMEGA_SD.setflags(write=False)

OMEGA_ASD = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        [0.0, -1.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
    ]
)
OMEGA_ASD.setflags(write=False)

EUCLIDEAN = np.eye(DIM)
EUCLIDEAN.setflags(write=False)

# (j, k) index arrays with (i, j, k) cyclic for i = 0, 1, 2, so that
# stack[j] and stack[k] line up the cyclic partners of every row
CYCLIC = (np.array([1, 2, 0]), np.array([2, 0, 1]))


def J_with(ginv: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """J_from_form for the metrics whose inverse is ginv (metric_inverse)."""
    return ginv @ np.swapaxes(comps_to_tensor(comps, 2), -1, -2)


def J_from_form(metric: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """Endomorphism J with W(X, Y) = g(JX, Y); J^2 = -Id iff (g, W) compatible.
    A (..., 6) stack of forms gives a (..., 4, 4) stack of matrices."""
    return J_with(metric_inverse(metric)[0], comps)


def apply_J_covector(jmat: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(J b)(X) = -b(JX) on covector components; (..., 4, 4) matrices and
    (..., 4) covectors broadcast."""
    beta = float_or_complex(beta)
    return -(beta[..., None, :] @ float_or_complex(jmat))[..., 0, :]


_TRIPLE_TOL = 1e-8  # metric_from_triple: largest Gram deviation accepted


def metric_from_triple(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """Reconstruct the metric for which (c1, c2, c3) is the orthonormal
    self-dual triple with <ci, cj> = 2 delta_ij; (..., 6) stacks of
    triples give (..., 4, 4) metrics.  The Gram matrix must hold to
    _TRIPLE_TOL and J1^2 = -Id to its square root.

    Uses J1 = W3^{-1} W2 (exact for a compatible quaternionic triple),
    then g = W1 J1, rescaled so |c1|^2 = 2.
    """
    triple = np.stack([float_or_complex(c) for c in (c1, c2, c3)], axis=-2)
    w = comps_to_tensor(triple, 2)
    w1, w2, w3 = w[..., 0, :, :], w[..., 1, :, :], w[..., 2, :, :]
    try:
        j1 = np.linalg.solve(w3, w2)
    except np.linalg.LinAlgError as exc:
        raise FrameNotOrthonormal(f"third form degenerate: {exc}") from exc
    scale_sq = -np.trace(j1 @ j1, axis1=-2, axis2=-1) / DIM
    if np.any(scale_sq.real <= 0):
        raise FrameNotOrthonormal("triple does not define a complex structure")
    j1 = j1 / np.sqrt(scale_sq)[..., None, None]
    if np.max(np.abs(j1 @ j1 + np.eye(DIM))) > math.sqrt(_TRIPLE_TOL):
        raise FrameNotOrthonormal("J1^2 deviates from -Id beyond tolerance")
    g = w1 @ j1
    g = (g + np.swapaxes(g, -1, -2)) / 2.0
    g = np.where((np.trace(g, axis1=-2, axis2=-1).real < 0)[..., None, None], -g, g)
    gram = 2.0 * project_stack(g, triple, triple)
    norm1 = gram[..., 0, 0]
    if np.any(norm1.real <= 0):
        raise FrameNotOrthonormal("|c1|^2 <= 0 for reconstructed metric")
    # rescaling g by s scales 2-form inner products by 1/s^2
    g = g * np.sqrt(norm1 / 2.0)[..., None, None]
    dev = float(np.max(np.abs(gram * (2.0 / norm1)[..., None, None] - 2.0 * np.eye(3))))
    if dev > _TRIPLE_TOL:
        raise FrameNotOrthonormal(f"triple Gram matrix off by {dev:.2e}")
    return g


@dataclass
class FormField:
    """A degree-p form sampled by an evaluator over chart points.

    evaluator maps a (..., 4) stack of points to a component array of
    shape (..., *shape, n), one entry per point, with n the size of the
    stated degree: one form per point, or a stack of forms (shape) that
    the finite-difference tools differentiate together.
    """

    degree: int
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not 0 <= self.degree <= DIM:
            raise ValueError(f"degree {self.degree} out of range")

    def __call__(self, point: np.ndarray) -> np.ndarray:
        out = float_or_complex(self.evaluator(np.asarray(point, dtype=float)))
        if out.ndim == 0 or out.shape[-1] != DEGREE_SIZES[self.degree]:
            raise ValueError(
                f"evaluator returned shape {out.shape}, expected "
                f"(..., {DEGREE_SIZES[self.degree]}) for degree {self.degree}"
            )
        return out

