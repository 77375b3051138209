"""Connection and curvature of a 2-form frame, and curvature-operator
blocks of a metric.

The rank-3 bundle carries the basis (v1, v2, v3) with <v_i, v_j> =
2 delta_ij.  The connection of an orthonormal self-dual frame
(F1, F2, F3) is

    a_1 = (1/2) (delta F1 + J3 delta F2 - J2 delta F3)   (cyclic)

for the metric it is orthonormal for, which the caller hands in, where
delta F = -*d*F = -*dF as F is self-dual, so only dF is differentiated.
Its curvature is R_k = d a_k + a_i ^ a_j (cyclic); the quadratic term's
normalization (coefficient 1.0) is pinned numerically against the
t^2-coefficient of the curvature of deformed metrics, taken on a circle
of complex t (fd.taylor_coefficient), to about 7e-9.  Blocks
follow the sign convention in which these curvature forms decompose as
R_+ = -(Scal/12 + W_+) on the frame and R_- maps to the trace-free
Ricci part, so a round metric has R_+ = -(Scal/12) Id and hyperkahler
metrics have vanishing blocks.  Scal = -4 tr(R_+).

For curvature computed directly from a metric's Riemann tensor, the
operator matrix on a duality basis (b_i) is A_ij = (1/8) R_abcd
(b_i)^ab (b_j)^cd; the stored blocks are the negatives of these, which
matches the frame-connection convention above (verified against a
constant-curvature jet and a conformal non-Einstein oracle).

Frames, operator blocks and curvature blocks take (..., 4, 4) metric
stacks and (..., 4) point stacks, so one call serves every point of a
stencil, and every node of a contour when the metric values carry a node
axis after the point axes (fd's value stacks).  Every g^{-1} comes from
forms.metric_inverse, taken once per metric stack: frame_from_metric and
operator_blocks_from_riemann take the caller's pair, as every forms operation
on a metric does, and frame_from_metric gives both duality frames from it.
The flat bases take forms.FLAT_INVERSE and invert nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fd
from .errors import FrameNotOrthonormal
from .forms import (
    CYCLIC,
    OMEGA_ASD,
    OMEGA_SD,
    FormField,
    Inverse,
    J_with,
    apply_J_covector,
    comps_to_tensor,
    check_orthonormal_triple,
    float_or_complex,
    hodge_star,
    metric_inverse,
    project_with,
    wedge,
)

TripleField = Callable[[np.ndarray], np.ndarray]  # x -> (3, 6) components
MetricField = Callable[[np.ndarray], np.ndarray]


@dataclass
class CurvatureBlock:
    """Self-dual and mixed blocks of the curvature at a point.

    Rplus[k][j]: component of the k-th curvature form on the j-th
    self-dual basis element; Rminus[k][j] likewise on the
    anti-self-dual basis (it represents the trace-free Ricci).
    """

    Rplus: np.ndarray
    Rminus: np.ndarray


def _cholesky3(gram: np.ndarray) -> np.ndarray | None:
    """Lower factors L with L L^T = gram for (..., 3, 3) symmetric matrices,
    or None when a pivot L_ii^2 (its real part) is at most 1e-12 at any of
    them.  Unlike np.linalg.cholesky it never conjugates, so for a
    complex-symmetric gram it stays analytic in the entries, as the contour
    oracles need."""
    chol = np.zeros_like(gram)
    for i in range(3):
        for j in range(i):
            dot = (chol[..., i, None, :j] @ chol[..., j, :j, None])[..., 0, 0]
            chol[..., i, j] = (gram[..., i, j] - dot) / chol[..., j, j]
        pivot = gram[..., i, i] - (chol[..., i, None, :i] @ chol[..., i, :i, None])[..., 0, 0]
        if not np.all(pivot.real > 1e-12):
            return None
        chol[..., i, i] = np.sqrt(pivot)
    return chol


def frame_from_metric(inverse: Inverse) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal self-dual and anti-self-dual frames (rows,
    <b_i,b_i> = 2), each (..., 3, 6) for the (..., 4, 4) metrics whose
    (g^{-1}, det g) is inverse, as metric_inverse returns it, by
    Gram-Schmidt of the projected flat bases; deterministic and smooth in
    the metric.

    Gram-Schmidt in this order is the Cholesky factor L of the Gram
    matrix of the projections: frame = sqrt(2) L^{-1} projections."""
    ginv, det = inverse
    stacked = (ginv[..., None, :, :], det[..., None])
    frames = []
    for seeds, sign, duality in ((OMEGA_SD, 1.0, "sd"), (OMEGA_ASD, -1.0, "asd")):
        cands = 0.5 * (seeds + sign * hodge_star(stacked, seeds, 2))
        chol = _cholesky3(2.0 * project_with(inverse, cands, cands))
        if chol is None:
            raise FrameNotOrthonormal(f"projected flat basis degenerate for duality {duality!r}")
        frames.append(np.sqrt(2.0) * np.linalg.solve(chol, cands))
    return tuple(frames)


def connection_from_Phi(phi: TripleField, metric: MetricField) -> FormField:
    """Connection covectors of the self-dual frame phi, orthonormal for the
    metric field, as a degree-1 field with (..., 3, 4) values.

    phi maps (..., 4) points to (..., 3, 6) frames and metric to (..., 4, 4)
    metrics (a node axis after the point axes is one more value axis of
    both).  One call of phi on the points and their stencil
    (fd.value_and_d) gives the frame and dF, one call of metric on the
    points gives g, inverted once: the frame's Gram matrix is checked
    against it (forms.check_orthonormal_triple), and J and delta F = -*dF
    share its inverse.
    """

    def components(x: np.ndarray) -> np.ndarray:
        comps, dphi = fd.value_and_d(FormField(2, phi), x)
        ginv, det = metric_inverse(metric(x))
        check_orthonormal_triple((ginv, det), comps)
        inverse = ginv[..., None, :, :], det[..., None]
        jmats = J_with(inverse, comps)
        deltas = -hodge_star(inverse, dphi, 3)
        j, k = CYCLIC
        return 0.5 * (
            deltas
            + apply_J_covector(jmats[..., k, :, :], deltas[..., j, :])
            - apply_J_covector(jmats[..., j, :, :], deltas[..., k, :])
        )

    return FormField(1, components)


def torsion_residual(phi: TripleField, a: FormField, x: np.ndarray) -> float:
    """Max component of dF_i - a_k ^ F_j + a_j ^ F_k over the cycle."""
    x = np.asarray(x, dtype=float)
    avals = a(x)
    comps = float_or_complex(phi(x))
    j, k = CYCLIC
    dphi = fd.fd_d(FormField(2, phi), x)
    res = (dphi - wedge(avals[..., k, :], 1, comps[..., j, :], 2)
           + wedge(avals[..., j, :], 1, comps[..., k, :], 2))
    return float(np.max(np.abs(res)))


def curvature_forms(a: FormField, x: np.ndarray) -> np.ndarray:
    """R_k = d a_k + a_i ^ a_j (cyclic); returns a (..., 3, 6) stack."""
    x = np.asarray(x, dtype=float)
    avals = a(x)
    i, j = CYCLIC
    return fd.fd_d(a, x) + wedge(avals[..., i, :], 1, avals[..., j, :], 1)


def decompose_curvature(rforms: np.ndarray, metric: np.ndarray) -> CurvatureBlock:
    """Blocks of the curvature forms on duality bases of the metric."""
    inverse = metric_inverse(metric)
    sd, asd = frame_from_metric(inverse)
    return CurvatureBlock(Rplus=project_with(inverse, rforms, sd),
                          Rminus=project_with(inverse, rforms, asd))


def operator_blocks_from_riemann(
    inverse: Inverse,
    riemann_low: np.ndarray,
    frames: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(SD block, mixed block, ASD block) of the curvature operator
    A_ij = (1/8) R_abcd b_i^ab b_j^cd on orthonormal duality bases, each
    (..., 3, 3) for the (..., 4, 4) metrics whose (g^{-1}, det g) is inverse
    and (..., 4, 4, 4, 4) tensors; the bases are frames = (sd, asd),
    frame_from_metric(inverse) when None."""
    ginv, _ = inverse
    sd, asd = frame_from_metric(inverse) if frames is None else frames

    # raise both indices of every basis form, then contract pairwise
    raised = (ginv[..., None, :, :] @ comps_to_tensor(np.concatenate([sd, asd], axis=-2), 2)
              @ np.swapaxes(ginv, -1, -2)[..., None, :, :])
    up = raised.reshape(raised.shape[:-2] + (16,))
    riem = float_or_complex(riemann_low)
    full = up @ riem.reshape(riem.shape[:-4] + (16, 16)) @ np.swapaxes(up, -1, -2) / 8.0
    return full[..., :3, :3], full[..., :3, 3:], full[..., 3:, 3:]


def curvature_block_of_metric(metric_fn: MetricField, x: np.ndarray) -> CurvatureBlock:
    """CurvatureBlock of a metric via finite differences, (..., 3, 3)
    blocks at (..., 4) points."""
    g, rlow = fd.metric_and_riemann_lowered(metric_fn, x, fd.DEFAULT_STEP)
    a_sd, mixed, _ = operator_blocks_from_riemann(metric_inverse(g), rlow)
    return CurvatureBlock(Rplus=-a_sd, Rminus=-mixed)


def bianchi_gauge(metric_fn: MetricField, h_field: Callable[[np.ndarray], np.ndarray],
                  x: np.ndarray) -> np.ndarray:
    """B h = delta_g h + (1/2) d Tr_g h as covectors at (..., 4) points."""
    x = np.asarray(x, dtype=float)
    ginv, _ = metric_inverse(metric_fn(x))
    gamma = fd.christoffel(metric_fn, x)
    dh = fd.all_partials(h_field, x)  # dh[a, b, c] = d_a h_bc
    hval = float_or_complex(h_field(x))
    # delta h_c = -g^{ab} (d_a h_bc - Gamma^e_ab h_ec - Gamma^e_ac h_be)
    nabla = (dh - np.einsum("...eab,...ec->...abc", gamma, hval)
             - np.einsum("...eac,...be->...abc", gamma, hval))
    delta = -np.einsum("...ab,...abc->...c", ginv, nabla)

    def trace_fn(y: np.ndarray) -> np.ndarray:
        return np.einsum("...ab,...ab->...", metric_inverse(metric_fn(y))[0], h_field(y))

    return delta + 0.5 * fd.all_partials(trace_fn, x)


def mixed_block_to_ric0(rminus: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Trace-free Ricci as a symmetric 2-tensor from the mixed block.

    Ric0 = sum_kj Rminus[k, j] * g (Jt_j o J_k . , .), the composition
    map on the duality bases; calibration fixed by a conformal
    non-Einstein oracle.
    """
    g = float_or_complex(metric)
    inverse = metric_inverse(g)
    sd, asd = frame_from_metric(inverse)
    endo = np.einsum("kj,jab,kbc->ac", rminus, J_with(inverse, asd), J_with(inverse, sd))
    ric0 = g @ endo
    return 0.5 * (ric0 + ric0.T)
