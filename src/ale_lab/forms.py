"""Component algebra for differential forms on a 4-dimensional chart.

Forms of degree p are stored as coefficient vectors over the sorted
index tuples of length p (sizes 1, 4, 6, 4, 1).  The degree-2 ordering
is (01, 02, 03, 12, 13, 23).  Metric-dependent operations take the metric
as the pair (g^{-1}, det g) of metric_inverse, so the same code serves the
flat chart (FLAT_INVERSE) and curved charts alike.

Stacking rule: every operation here reads the last axis of a component
array as its components and any leading axes as a stack, broadcast
against each other; e.g. wedge of (3, 4) and (3, 6) stacks gives the
(3, 4) stack of row-by-row products, and a form field (fd) may return a
(3, 6) stack of 2-forms.  Covectors, J matrices and metrics follow the
same rule ((..., 4), (..., 4, 4) and (..., 4, 4)): a stack of metrics
broadcasts against a stack of forms with its own leading axes, so
g[..., None, :, :] pairs one metric per point with a (..., 3, 6) triple.

The wedge table _WEDGE[(p, q)] of basis products is the one sign table
built by hand; every other table is read off it at import:
  - d: D_TABLE[p] is _WEDGE[(1, p)] read as [a, I, K], the sign of
    dx^a ^ dx^I, so (d w)_K = sum_{a, I} d_a w_I D_TABLE[p][a, I, K];
  - the * complement: each sorted (4-p)-tuple K has one p-tuple I with
    dx^I ^ dx^K = eps(I, K) dx^0123 nonzero, so (*a)_K = sqrt(det g)
    eps(I, K) (C_p(g^{-1}) a)_I, and on the flat metric * is the signed
    permutation FLAT_STAR[p];
  - the tensor scatter: _TENSOR[p] holds dx^a1 ^ ... ^ dx^ap for every
    index tuple (a1, ..., ap), by iterated wedge, and comps_to_tensor
    scatters components into the full antisymmetric array through its
    nonzero entries;
  - the Leibniz minors: the p-th compound C_p(A) of a 4x4 matrix A is the
    matrix of its p x p minors, C_p(A)[I, J] = det A[I, J] over sorted
    tuples I, J, a signed sum over the nonzero entries of column J of
    _TENSOR[p]; the induced inner product of p-forms is
    <a, b> = a . C_p(g^{-1}) . b.
g^{-1} and det g come from metric_inverse, the package's one checked metric
inversion and the one place a metric enters this layer; hodge_star, split_sd,
project_with, J_with and check_orthonormal_triple take its result, so one
inversion serves them all.

Conventions fixed here and relied on everywhere else:
  - the standard self-dual basis is w1 = e01+e23, w2 = e02-e13,
    w3 = e03+e12, and its anti-self-dual partners are w~1 = e01-e23,
    w~2 = -e02-e13, w~3 = e03-e12, with <wi, wj> = 2 delta_ij for the
    euclidean metric;
  - a 2-form W and a compatible almost-complex structure J are related
    by W(X, Y) = g(JX, Y), i.e. J = g^{-1} W^T on column vectors;
  - on covectors, (J b)(X) = -b(JX).
"""

from __future__ import annotations

import itertools
import math

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


def float_or_complex(values) -> np.ndarray:
    """values as a float array, or a complex one when they are complex: the
    value casts of forms, fd, connection and deformation, so that a family
    evaluated at complex t (fd.taylor_coefficient) keeps its imaginary
    part.  Chart points stay real."""
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


def compound(matrix: np.ndarray, p: int) -> np.ndarray:
    """p-th compound of (..., 4, 4) matrices: the p x p minors, rows and
    columns ordered like TUPLES[p]."""
    rows, cols, signs = _LEIBNIZ[p]
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

# read-only like FLAT_STAR; d of a 4-form is the zero 4-form
D_TABLE = {p: _WEDGE[(1, p)].reshape(DIM, DEGREE_SIZES[p], -1) for p in range(DIM)}
D_TABLE[DIM] = np.zeros((DIM, 1, 1))


def _complement(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of the complement I of each sorted (4-p)-tuple K and eps(I, K):
    the one nonzero entry of column K of the wedge table of (p, 4-p)."""
    eps = _WEDGE[(p, DIM - p)].reshape(DEGREE_SIZES[p], -1).T  # [K, I] = eps(I, K)
    return np.nonzero(eps)[1], eps[eps != 0]


_COMPLEMENT = {p: _complement(p) for p in range(DIM + 1)}


def wedge(a: np.ndarray, p: int, b: np.ndarray, q: int) -> np.ndarray:
    """Wedge product of component arrays (..., n_p) and (..., n_q); the
    result has degree p + q and the broadcast leading shape."""
    if p + q > DIM:
        raise ValueError(f"wedge degree {p}+{q} exceeds {DIM}")
    a = float_or_complex(a)
    b = float_or_complex(b)
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (-1,)) @ _WEDGE[(p, q)]


# _TENSOR[p][a1 4^(p-1) + ... + ap, I]: component I of dx^a1 ^ ... ^ dx^ap
_TENSOR = {0: np.ones((1, 1))}
for _p in range(1, DIM + 1):
    _rows = wedge(np.eye(DIM)[:, None, :], 1, _TENSOR[_p - 1], _p - 1)
    _TENSOR[_p] = _rows.reshape(-1, DEGREE_SIZES[_p])


def _scatter(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat position, source component, sign) of each nonzero of _TENSOR[p]."""
    flat, src = np.nonzero(_TENSOR[p])
    return flat, src, _TENSOR[p][flat, src]


def _leibniz(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices (I, J, term, slot) and signs (J, term) of the
    Leibniz expansion of every p x p minor: the nonzero entries of column J
    of _TENSOR[p], in lexicographic order of (a1..ap), which fixes the sum's bits."""
    col, flat = np.nonzero(_TENSOR[p].T)
    shape = (DEGREE_SIZES[p], math.factorial(p))
    cols = flat.reshape(shape + (1,)) // DIM ** np.arange(p - 1, -1, -1) % DIM
    rows, cols = np.broadcast_arrays(np.array(TUPLES[p], dtype=int)[:, None, None, :], cols)
    return rows.copy(), cols.copy(), _TENSOR[p][flat, col].reshape(shape)


_SCATTER = {p: _scatter(p) for p in range(DIM + 1)}
_LEIBNIZ = {p: _leibniz(p) for p in range(DIM + 1)}


# (g^{-1}, det g) of a metric stack: the one form in which a metric enters here
Inverse = tuple[np.ndarray, np.ndarray]


def metric_inverse(metric: np.ndarray) -> Inverse:
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


EUCLIDEAN = np.eye(DIM)
# the flat pair, equal bit for bit to metric_inverse(EUCLIDEAN), read-only
FLAT_INVERSE = (EUCLIDEAN, np.float64(1.0))
# * on the flat metric, a signed permutation: comps @ FLAT_STAR[p].T
FLAT_STAR = {p: _star_matrix(*FLAT_INVERSE, p) for p in range(DIM + 1)}
for _table in (EUCLIDEAN, *FLAT_STAR.values(), *D_TABLE.values()):
    _table.setflags(write=False)


def hodge_star(inverse: Inverse, comps: np.ndarray, degree: int) -> np.ndarray:
    """Hodge dual of degree-p component vectors (..., n) for the (..., 4, 4)
    metrics whose (g^{-1}, det g) is inverse, leading axes broadcast."""
    star = _star_matrix(*inverse, degree)
    comps = float_or_complex(comps)
    return (comps[..., None, :] @ np.swapaxes(star, -1, -2))[..., 0, :]


def project_with(inverse: Inverse, stack: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coefficients (1/2) <stack_k, basis_j> of 2-forms on rows of a basis
    with <b_i, b_j> = 2 delta_ij, for the metrics whose pair is inverse."""
    stack = float_or_complex(stack)
    return 0.5 * stack @ compound(inverse[0], 2) @ np.swapaxes(float_or_complex(basis), -1, -2)


def split_sd(inverse: Inverse, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split 2-forms into (self-dual, anti-self-dual) parts for the pair's metrics."""
    comps = float_or_complex(comps)
    starred = hodge_star(inverse, comps, 2)
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

# (j, k) index arrays with (i, j, k) cyclic for i = 0, 1, 2, so that
# stack[j] and stack[k] line up the cyclic partners of every row
CYCLIC = (np.array([1, 2, 0]), np.array([2, 0, 1]))


def J_with(inverse: Inverse, comps: np.ndarray) -> np.ndarray:
    """Endomorphism J with W(X, Y) = g(JX, Y), J = g^{-1} W^T, for the
    metrics whose pair is inverse; J^2 = -Id iff (g, W) compatible.  A
    (..., 6) stack of forms gives a (..., 4, 4) stack of matrices."""
    return inverse[0] @ np.swapaxes(comps_to_tensor(comps, 2), -1, -2)


def apply_J_covector(jmat: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(J b)(X) = -b(JX) on covector components; (..., 4, 4) matrices and
    (..., 4) covectors broadcast."""
    beta = float_or_complex(beta)
    return -(beta[..., None, :] @ float_or_complex(jmat))[..., 0, :]


_TRIPLE_TOL = 1e-8  # check_orthonormal_triple: largest Gram deviation accepted


def check_orthonormal_triple(inverse: Inverse, triple: np.ndarray) -> None:
    """Raise FrameNotOrthonormal unless <c_i, c_j> = 2 delta_ij holds to
    _TRIPLE_TOL for the (..., 3, 6) triples and the pair's metrics."""
    dev = float(np.max(np.abs(2.0 * project_with(inverse, triple, triple) - 2.0 * np.eye(3))))
    if not dev <= _TRIPLE_TOL:
        raise FrameNotOrthonormal(f"triple Gram matrix off by {dev:.2e}")


def metric_from_triple(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """The (..., 4, 4) metrics for which the (..., 6) stacks (c1, c2, c3) are
    orthonormal self-dual triples, <ci, cj> = 2 delta_ij: J1 = W3^{-1} W2
    (exact for a compatible quaternionic triple) must square to -Id to the
    square root of _TRIPLE_TOL, and g = W1 J1, rescaled so |c1|^2 = 2,
    passes check_orthonormal_triple.  A second route, for tests: the
    package hands every connection its metric."""
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
    ginv, det = metric_inverse(g)
    norm1 = 2.0 * project_with((ginv, det), triple[..., :1, :], triple[..., :1, :])[..., 0, 0]
    if np.any(norm1.real <= 0):
        raise FrameNotOrthonormal("|c1|^2 <= 0 for reconstructed metric")
    # g s has the pair (g^{-1} / s, det g s^4) and 2-form products over s^2
    scale = np.sqrt(norm1 / 2.0)
    check_orthonormal_triple((ginv / scale[..., None, None], det * scale**4), triple)
    return g * scale[..., None, None]
