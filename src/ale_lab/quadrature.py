"""Deterministic Gauss-Legendre quadrature on S^3, the volume rule of the
whole space or a shell of an axisymmetric two-cluster configuration (its
half-plane nodes and its azimuth nodes apart), and the sphere pairing
identity for closed self-dual 2-forms with quadratic coefficients.

S^3 is parametrized torus-style: with r1 = r cos(chi), r2 = r sin(chi),

    x = (r1 cos t1, r1 sin t1, r2 cos t2, r2 sin t2),

and u = cos(2 chi) as the Legendre variable, so the round measure is
(r^3/4) du dt1 dt2 and polynomial integrands separate into low-degree
factors.  The frame (d_u, d_t1, d_t2) is outward-boundary oriented for
the standard orientation of R^4, which fixes the sign of the 3-form
pullback: its 3x3 minors are (r^2/4) *x, the Euclidean dual of the outward
normal times the measure density.

The S^3 rule is streamed in blocks of whole u-shells: integrate_S3 reads
node and weight tables filled from the blocks once per radius, and the
pairing kernels sum over the blocks without them.

Closedness of varpi = sum_i z_i w_i (w_i the constant dual basis) is a
fixed integer-coefficient linear system on the 3 x 10 quadratic
coefficients, read off the exact derivative table fd.DQUAD; its null
space is computed exactly once per duality, by fraction-free integer
elimination, and cached, so sampled triples satisfy d(varpi) = 0 to
machine precision.  The pairing int_{S^3} d^C F ^ varpi
is linear in Z: it is summed block by block once per duality and radius
into a (3, 4, 4) kernel K, and each pairing is <K, Z>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import fd
from .errors import SchemaError
from .forms import (
    D_TABLE,
    FLAT_INVERSE,
    FLAT_STAR,
    OMEGA_ASD,
    OMEGA_SD,
    J_with,
    apply_J_covector,
    wedge,
)
from .gh import gauss_legendre

TWO_PI = 2.0 * math.pi


# orders of the product rules; each Legendre factor is exact to degree
# 2 * order - 1
SPHERE_ORDER = 24
RADIAL_NODES = 48
# u-shells per block of the S^3 rule: 8 x SPHERE_ORDER^2 = 4608 nodes
S3_BLOCK_SHELLS = 8


def _s3_blocks(radius: float) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Nodes (n, 4), weights (n,) and the 3x3 minors (n, 4) of the tangent
    frame (d_u, d_t1, d_t2) on the columns of each sorted triple, of the
    radius-r sphere on the SPHERE_ORDER product rule, yielded in blocks of
    S3_BLOCK_SHELLS whole u-shells in (u, t1, t2)-major node order, so
    that a caller's working set is one block; cos and sin are taken once
    per angle node."""
    u, wu = gauss_legendre(-1.0, 1.0, SPHERE_ORDER)
    t1, w1 = gauss_legendre(0.0, TWO_PI, SPHERE_ORDER)
    t2, w2 = gauss_legendre(0.0, TWO_PI, SPHERE_ORDER)
    # u on the leading axis, t1 on the middle one, t2 on the last
    c, s = np.sqrt((1.0 + u) / 2.0)[:, None, None], np.sqrt((1.0 - u) / 2.0)[:, None, None]
    wu, w1 = wu[:, None, None], w1[:, None]
    cos1, sin1 = np.cos(t1)[:, None], np.sin(t1)[:, None]
    cos2, sin2 = np.cos(t2), np.sin(t2)
    for b in range(0, SPHERE_ORDER, S3_BLOCK_SHELLS):
        shells = slice(b, b + S3_BLOCK_SHELLS)
        cb, sb = c[shells], s[shells]
        pts = np.empty(cb.shape[:1] + (SPHERE_ORDER, SPHERE_ORDER, 4))
        pts[..., 0] = cb * cos1
        pts[..., 1] = cb * sin1
        pts[..., 2] = sb * cos2
        pts[..., 3] = sb * sin2
        pts = pts.reshape(-1, 4)
        pts *= radius
        minors = pts @ FLAT_STAR[1].T
        minors *= radius**2 / 4.0
        yield pts, (wu[shells] * w1 * w2).ravel(), minors


@functools.lru_cache(maxsize=8)
def _s3_nodes(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, 4) and weights (N,) of the radius-r sphere on the whole
    SPHERE_ORDER product rule, filled block by block from _s3_blocks; built
    once per radius that integrate_S3 reads, and read-only."""
    n = SPHERE_ORDER**3
    pts, w = np.empty((n, 4)), np.empty(n)
    start = 0
    for block_pts, block_w, _ in _s3_blocks(radius):
        stop = start + len(block_w)
        pts[start:stop], w[start:stop] = block_pts, block_w
        start = stop
    for table in (pts, w):
        table.setflags(write=False)
    return pts, w


def integrate_S3(integrand: Callable[[np.ndarray], np.ndarray], radius: float) -> float:
    """Integral over the radius-r sphere against the round measure, on the
    SPHERE_ORDER product rule.

    The integrand is vectorized: it maps the (N, 4) array of quadrature
    nodes (read-only, shared between calls) to N values of shape (N,) in one
    call.  Any other shape raises SchemaError.
    """
    pts, w = _s3_nodes(radius)
    vals = np.asarray(integrand(pts), dtype=float)
    if vals.shape != (len(pts),):
        raise SchemaError(
            f"integrand returned shape {vals.shape} for {len(pts)} nodes, "
            f"expected {(len(pts),)}")
    return float(np.sum(w * vals * (radius**3 / 4.0)))


def volume_rule(config, shell: tuple[float, float] | None = None) -> tuple[np.ndarray, ...]:
    """The rule for d^3x in prolate spheroidal coordinates (xi, mu, phi)
    about the two cluster points, azimuth apart: the (xi, mu) nodes on the
    phi = 0 half-plane (SPHERE_ORDER in mu), (x1, rho_perp, 0) in xi-major
    order as the (n, 3) view of a (3, n) array (the layout of gh._offsets),
    their weights, and cos(phi) and the weights w_phi of the SPHERE_ORDER
    azimuth nodes; the node (x1, rho_perp cos(phi), rho_perp sin(phi)) has
    the weight w w_phi.

    With shell None the rule covers the whole space: SPHERE_ORDER Legendre
    nodes in u = 1/xi on (0, 1], weighted by 1/u^2, so an integrand that
    decays faster than |x|^-3 is integrated with no cutoff radius.  With
    shell = (inner, outer) it covers the spheroidal shell that contains the
    base annulus inner <= |x| <= outer, with RADIAL_NODES nodes linear in xi.

    The integrand's phi dependence is written out over (cos(phi), w_phi),
    so every center must lie on the x1 axis, the spheroid's, where V and
    f = V0/V are axisymmetric: a single-center config, or a center off the
    axis (the first named), raises SchemaError (config.segment)."""
    lo, hi = config.segment
    mid, a_f = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if shell is None:
        u, wu = gauss_legendre(0.0, 1.0, SPHERE_ORDER)
        xi, wxi = 1.0 / u, wu / u**2
    else:
        # a_f sqrt(xi^2 - 1) <= |x - mid| <= a_f xi on the spheroid xi
        inner, outer = shell
        xi_lo = max(1.0, (inner - abs(mid)) / a_f)
        xi_hi = math.sqrt(((outer + abs(mid)) / a_f) ** 2 + 1.0)
        xi, wxi = gauss_legendre(xi_lo, xi_hi, RADIAL_NODES)
    xi, wxi, (mu, wmu) = xi[:, None], wxi[:, None], gauss_legendre(-1.0, 1.0, SPHERE_ORDER)
    coords = np.zeros((3, len(xi), SPHERE_ORDER))
    coords[0] = mid + a_f * xi * mu
    coords[1] = a_f * np.sqrt(np.clip((xi**2 - 1.0) * (1.0 - mu**2), 0.0, None))
    w = wxi * wmu * a_f**3 * (xi**2 - mu**2)
    phi, w_phi = gauss_legendre(0.0, TWO_PI, SPHERE_ORDER)
    return coords.reshape(3, -1).T, w.ravel(), np.cos(phi), w_phi


# ----------------------------------------------------------------------
# Closed (anti-)self-dual 2-forms with quadratic coefficients
# ----------------------------------------------------------------------

def _dual_basis(duality: str) -> np.ndarray:
    if duality == "sd":
        return OMEGA_SD
    if duality == "asd":
        return OMEGA_ASD
    raise SchemaError(f"duality must be sd or asd, got {duality!r}")


def _closedness_matrix(duality: str) -> np.ndarray:
    """Integer matrix of the linear system d(varpi) = 0 on coefficients.

    Unknown layout: 3 forms x 10 monomials x_p x_q (fd.QUAD_P, fd.QUAD_Q).
    Equations: the four degree-3 components of d(varpi), each linear in x,
    give 16 scalar conditions, row 4 (component) + r for the x_r
    coefficient, exact from fd.DQUAD and forms.D_TABLE.
    """
    rows = np.einsum("mar,iI,aIt->trim", fd.DQUAD, _dual_basis(duality), D_TABLE[2])
    return np.rint(rows).astype(np.int64).reshape(16, 30)


@functools.cache
def closedness_null_basis(duality: str = "sd") -> np.ndarray:
    """Exact null-space basis of the closedness system, as a read-only
    float array of shape (dim, 30) with integer entries: one vector per
    free column of the reduced row echelon form, scaled to the smallest
    integers with a positive free entry.

    Fraction-free Gauss-Jordan elimination (Bareiss) on Python integers:
    each step divides exactly by the previous pivot, so every entry stays
    an integer and the pivot columns end as d times the identity, d the
    last pivot; the free column f then gives d e_f - sum_r M[r, f] e_(pivot r)."""
    rows = [[int(v) for v in row] for row in _closedness_matrix(duality)]
    ncols = len(rows[0])
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[p], rows[r] = rows[r], rows[p]
        piv = rows[r]
        rows = [row if i == r else [(piv[col] * a - row[col] * b) // prev for a, b in zip(row, piv)]
                for i, row in enumerate(rows)]
        prev = piv[col]
        pivots.append(col)
    vecs = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [prev * (c == free) for c in range(ncols)]
        for row, col in zip(rows, pivots):
            v[col] = -row[free]
        scale = math.gcd(*v) * (1 if prev > 0 else -1)
        vecs.append([x // scale for x in v])
    out = np.asarray(vecs, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuadraticTriple:
    """varpi = sum_i z_i w_i with z_i = x^T Z_i x; Z has shape (3, 4, 4)."""

    Z: np.ndarray
    duality: str = "sd"

    def __post_init__(self) -> None:
        z = np.asarray(self.Z, dtype=float)
        if z.shape != (3, 4, 4):
            raise SchemaError(f"Z must have shape (3,4,4), got {z.shape}")
        if np.max(np.abs(z - z.transpose(0, 2, 1))) > 1e-12:
            raise SchemaError("Z matrices must be symmetric")
        object.__setattr__(self, "Z", z)

    def d_varpi(self, x: np.ndarray) -> np.ndarray:
        """Exact exterior derivative, (..., 4) degree-3 components at x."""
        x = np.asarray(x, dtype=float)
        grad = 2.0 * np.einsum("iab,...b->...ia", self.Z, x)
        return wedge(grad, 1, _dual_basis(self.duality), 2).sum(axis=-2)


def _coeffs_to_Z(coeffs: np.ndarray) -> np.ndarray:
    # the coefficient of the monomial x_p x_q goes half to Z_pq, half to Z_qp
    half = np.zeros((3, 4, 4))
    half[:, fd.QUAD_P, fd.QUAD_Q] = np.reshape(coeffs, (3, -1)) / 2.0
    return half + np.swapaxes(half, 1, 2)


def random_closed_quadratic(seed: int, duality: str = "sd") -> QuadraticTriple:
    """Seeded sample from the closedness null space; d(varpi) = 0 exactly."""
    basis = closedness_null_basis(duality)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=basis.shape[0]) @ basis
    return QuadraticTriple(Z=_coeffs_to_Z(coeffs), duality=duality)


_J1_FLAT = J_with(FLAT_INVERSE, OMEGA_SD[0])
_F_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])  # F = (x . _F_SIGNS x) / r^6


def grad_F(x: np.ndarray) -> np.ndarray:
    """Gradient of F = (r1^2 - r2^2)/r^6 at points x of shape (..., 4)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    q = np.sum(_F_SIGNS * x * x, axis=-1, keepdims=True)
    return 2.0 * _F_SIGNS * x / r2**3 - 6.0 * q * x / r2**4


@functools.lru_cache(maxsize=8)
def _pairing_kernel(duality: str, radius: float) -> np.ndarray:
    """Read-only (3, 4, 4) kernel K with int_{S^3} d^C F ^ varpi = <K, Z>,
    built once per duality and radius: K_iab = sum_n weight_n g_i x_na x_nb,
    g_i the pullback of d^C F ^ w_i at node n (varpi = sum_i x^T Z_i x w_i),
    summed block by block over _s3_blocks, so no table of the whole rule is
    built or kept."""
    # table[a, i] = dx_a ^ w_i, degree-3 components
    table = wedge(np.eye(4)[:, None, :], 1, _dual_basis(duality), 2).reshape(4, 12)
    kernel = np.zeros((12, 4))
    for pts, w, minors in _s3_blocks(radius):
        dcf = apply_J_covector(_J1_FLAT, grad_F(pts))
        # g[n, i]: d^C F ^ w_i pulled back at node n
        g = w[:, None] * np.einsum("nik,nk->ni", (dcf @ table).reshape(-1, 3, 4), minors)
        kernel += (g[:, :, None] * pts[:, None, :]).reshape(len(pts), 12).T @ pts
    kernel = kernel.reshape(3, 4, 4)
    kernel.setflags(write=False)
    return kernel


def dCF_pairing(triple: QuadraticTriple, radius: float = 1.0) -> tuple[float, float]:
    """(lhs, rhs) of the sphere pairing: lhs = int_{S^3} d^C F ^ varpi by
    quadrature of the 3-form pullback, as the contraction of Z with the
    kernel of its duality and radius; rhs analytic from Z_1.

    The integrand is homogeneous of degree 0, so lhs is radius
    independent.  For anti-self-dual input the analytic value is 0.
    """
    lhs = float(np.sum(_pairing_kernel(triple.duality, radius) * triple.Z))
    if triple.duality == "sd":
        z1 = triple.Z[0]
        rhs = math.pi**2 * (-z1[0, 0] - z1[1, 1] + z1[2, 2] + z1[3, 3])
    else:
        rhs = 0.0
    return lhs, rhs
