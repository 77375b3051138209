"""Desingularization obstruction coefficients from curvature blocks.

Inputs are the self-dual curvature block R_+ (negated-pairing sign
convention, symmetric 3x3, entries R_ij) of a quadratic metric jet at
the orbifold point,
optionally the signature-split second-derivative invariant D of a
quartic jet, and the geometric constants of the model space:

    vol_sigma    area of the exceptional surface, 2 pi (k+1) lam
    omega_norm2  square norm of the decaying harmonic form, 4 pi^2 (k+1)/k
                 (closed_form_norm2)
    int_m_omega  integral of the moment map against the surface form,
                 pi (k+1)^3 lam^2
    m_p1         moment-map value at the heavy cluster, (k+1) lam

For the two-cluster family the constants are computed by quadrature
(ak_constants); for other symmetry groups the caller supplies them
(constants_from_overrides).  compute_report(jet, constants, quartic=None,
apply_gauge=False) takes them built, so the caller decides them and their
range (factor_faults) once.

The outputs are the first-order coefficients lambda_i (vanishing iff
the first block row vanishes), the second-order coefficient mu1 in the
generic and two-cluster forms, the higher coefficient A in its two
equivalent forms, the leading t^4 term of det R_+ at the residual
singular point, and the wall-side classification of det of the
opposite-sign operator.

Each output reads R_+ through its first row or its minor R22 R33 - R23^2.
compute_report alone builds R_+, checks it, decides the degenerate regime,
takes the minor and the determinant of the negated block in jet units, and
decides the wall side from that determinant and the regime; the formulas
take the minor and check nothing again.  The report is the JSON object
compute_report fills (ObstructionReport.content), keyed as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import gh, jets
from .errors import MissingConstants, SchemaError

_INNER_SCALE = 2.0  # <b_i, b_j> = 2 delta_ij on the unit-normalized basis
_CONSTANT_NAMES = ("vol_sigma", "omega_norm2", "int_m_omega", "m_p1")


@dataclass(frozen=True)
class ModelConstants:
    vol_sigma: float
    omega_norm2: float
    int_m_omega: float
    m_p1: float
    k: int | None = None
    provenance: Mapping[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {name: {"value": getattr(self, name),
                       "provenance": self.provenance.get(name, "user-supplied")}
                for name in _CONSTANT_NAMES}


def closed_form_norm2(k: int) -> float:
    """||Omega||^2 = 4 pi^2 (k+1)/k for the canonical configuration."""
    return 4.0 * math.pi**2 * (k + 1) / k


def ak_constants(k: int, lam: float) -> ModelConstants:
    """Two-cluster constants by quadrature (norm from its closed form)."""
    config = gh.GHConfig.canonical(k, lam)
    vol = gh.vol_sigma(config)
    int_m = gh.sigma_integrate(config, lambda x1: gh.moment_map(config, gh.axis_points(x1)))
    m_p1 = gh.moment_map(config, config.p1)
    return ModelConstants(
        vol_sigma=vol,
        omega_norm2=closed_form_norm2(k),
        int_m_omega=int_m,
        m_p1=m_p1,
        k=k,
        provenance={
            "vol_sigma": "computed",
            "omega_norm2": "closed-form",
            "int_m_omega": "computed",
            "m_p1": "computed",
        },
    )


def constants_from_overrides(overrides: Mapping[str, float],
                             k: int | None = None) -> ModelConstants:
    """User-supplied constants for non-cyclic symmetry groups, with the k
    of the two-cluster forms when one is given."""
    missing = [name for name in _CONSTANT_NAMES if name not in overrides]
    if missing:
        raise MissingConstants(
            f"constants {missing} must be supplied for non-two-cluster models"
        )
    return ModelConstants(**{name: float(overrides[name]) for name in _CONSTANT_NAMES}, k=k,
                          provenance={name: "user-supplied" for name in _CONSTANT_NAMES})


def factor_faults(constants: ModelConstants) -> tuple[tuple[str, ...], str]:
    """The first factor that the report formulas take from the constants
    alone and that is not finite, as (the constants it reads, the factor),
    or ((), ""): 4 pi / omega_norm2 (mu1_generic), pi vol_sigma /
    omega_norm2 (lambda_obstruction) and, given k, vol_sigma^2 and
    vol_sigma^2 / omega_norm2 (mu1_Ak), whatever the regime of the jet."""
    vol, norm = constants.vol_sigma, constants.omega_norm2
    if not math.isfinite(4.0 * math.pi / norm):
        return ("omega_norm2",), "4 pi / omega_norm2"
    if not math.isfinite(math.pi * vol / norm):
        return ("vol_sigma", "omega_norm2"), "pi vol_sigma / omega_norm2"
    if constants.k is None:
        return (), ""
    try:
        square = vol**2
    except OverflowError:
        return ("vol_sigma",), "vol_sigma^2"
    if not math.isfinite(square / norm):
        return ("vol_sigma", "omega_norm2"), "vol_sigma^2 / omega_norm2"
    return (), ""


def _check_block(block: np.ndarray) -> np.ndarray:
    """The curvature block of the jet H, checked once per report.  The block
    of a Jet2 is 3x3 and symmetric to rounding; a jet near the float
    maximum overflows it."""
    if not np.all(np.isfinite(block)):
        raise SchemaError("H: the jet is out of range, its curvature block has a "
                          "non-finite entry")
    return block


def minor_of(block: np.ndarray) -> float:
    """R22 R33 - R23^2, the complementary 2x2 determinant."""
    return float(block[1, 1] * block[2, 2] - block[1, 2] ** 2)


def first_row_norm(block: np.ndarray) -> float:
    """Euclidean length of the first row, which the rotations fixing the
    first self-dual direction keep."""
    return float(np.linalg.norm(block[0, :]))


def lambda_obstruction(block: np.ndarray, constants: ModelConstants) -> np.ndarray:
    """First-order coefficients: pi vol_sigma / omega_norm2 times the
    pairing of the block's first row under the <.,.> = 2 delta
    convention."""
    factor = math.pi * constants.vol_sigma / constants.omega_norm2
    return factor * _INNER_SCALE * block[0, :]


def in_jet_units(block: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The block over the largest entry of the jet H it is read from (the
    block itself when H = 0).  R_+ is linear in H, so the floors that
    first_row_vanishes and wall_side set on this are free of units, and a
    block that is zero up to rounding, as for a pure-gauge or an
    anti-self-dual H, reads as zero."""
    size = float(np.max(np.abs(H)))
    return block / size if size > 0.0 else block


def first_row_vanishes(block: np.ndarray) -> bool:
    """The degenerate regime: first row of length at most 1e-8, for a block
    in units of its jet (in_jet_units).  The one rule for every
    degenerate-regime quantity: compute_report applies it once, for the
    formulas, D and the side."""
    return first_row_norm(block) <= 1e-8


def mu1_generic(minor: float, constants: ModelConstants) -> float:
    """4 pi / omega_norm2 * minor * int_m_omega (any symmetry group)."""
    return 4.0 * math.pi / constants.omega_norm2 * minor * constants.int_m_omega


def mu1_Ak(minor: float, d_invariant: float, constants: ModelConstants) -> float:
    """Two-cluster form with the quartic correction, for constants with k:
    (vol^2/norm^2) { (k+1) minor - (1/16)(k-1) D }."""
    k = constants.k
    vol = constants.vol_sigma
    return (
        vol**2
        / constants.omega_norm2
        * ((k + 1) * minor - (k - 1) / 16.0 * d_invariant)
    )


def A_coefficient(
    minor: float,
    d_invariant: float,
    constants: ModelConstants,
    form: str = "closed",
) -> float:
    """Next-order coefficient at the residual singular point, for constants
    with k.

    form="closed":      (vol/2pi) ( -(k-1) minor + (1/16)(k+1) D )
    form="intermediate": 2 minor (m_p1 - int_m_omega / vol)
                         + (1/16)(k+1)(vol/2pi) D
    The two agree when m_p1 = vol/(2 pi) (two-cluster identity).
    """
    k = constants.k
    vol = constants.vol_sigma
    if form == "closed":
        return vol / (2.0 * math.pi) * (-(k - 1) * minor + (k + 1) / 16.0 * d_invariant)
    if form == "intermediate":
        return (
            2.0 * minor * (constants.m_p1 - constants.int_m_omega / vol)
            + (k + 1) / 16.0 * vol / (2.0 * math.pi) * d_invariant
        )
    raise SchemaError(f"unknown A form {form!r}")


def det_leading(minor: float, a_coeff: float) -> float:
    """Coefficient minor * A of the leading term minor * A * t^4 of det R_+
    at the residual point."""
    return minor * a_coeff


def bold_det_from_block(block: np.ndarray) -> float:
    """det of the opposite-sign operator: for a 3x3 block this is
    -det(R_+)."""
    return float(-np.linalg.det(block))


_DET_FLOOR = 1e-8  # |det| of the negated block in jet units that reads on_wall


def wall_side(det_bold: float, degenerate: bool) -> str:
    """The side of the wall det = 0 for det_bold, the determinant of the
    negated block in units of its jet (in_jet_units), within 1e-8 of it
    counting as on it.  A zero first row makes det R_+ = 0, so a block of
    the degenerate regime (degenerate, first_row_vanishes) reads on_wall,
    though the first row that rule allows can leave |det| above the floor;
    its side is carried by the sign of the t^4 coefficient instead.

    Through the wall, d/dt det R_+ = -a (R22 R33 - R23^2)^2 < 0 with a > 0,
    so the determinant strictly decreases, and z(t) = -mu1 t + O(t^(3/2))
    to leading order; neither claim is computed here.
    """
    if not math.isfinite(det_bold):
        raise SchemaError(f"wall side undefined for non-finite determinant {det_bold}")
    if degenerate or abs(det_bold) <= _DET_FLOOR:
        return "on_wall"
    return "einstein_side" if det_bold > 0 else "empty_side"


@dataclass(frozen=True)
class ObstructionReport:
    content: dict  # the report object, keyed as written
    # det of the negated block in jet units, the one the side is decided
    # from, which the wall-side line prints; None within the floor, where it
    # is rounding.  Not part of the report.
    det_unit: float | None


def compute_report(jet, constants: ModelConstants, quartic=None,
                   apply_gauge: bool = False) -> ObstructionReport:
    """Full pipeline from a quadratic (and optional quartic) jet and the
    model constants: one R_+, one block check, one minor and one
    determinant in jet units per report, and the regime decided here for the
    formulas, D and the side.  The two-cluster forms mu1, A and the t^4
    coefficient need constants with k."""
    if apply_gauge:
        jet = jets.gauge_project(jet).jet
    block = _check_block(jets.curvature_from_jet2(jet).Rplus)
    unit = in_jet_units(block, jet.H)
    minor = minor_of(block)

    degenerate = first_row_vanishes(unit)
    content = {
        "Rplus_block": block.tolist(),
        "lambda": lambda_obstruction(block, constants).tolist(),
        "minor": minor,
        "D": None,
        "mu1": None,
        "mu1_generic": None,
        "A": None,
        "det_leading_t4_coefficient": None,
        "constants": constants.as_dict(),
        "first_row_norm": first_row_norm(block),
        "gauge_projected": apply_gauge,
        "notes": {},
    }
    if degenerate:
        content["mu1_generic"] = mu1_generic(minor, constants)
        if quartic is not None:
            content["D"] = jets.d2_invariant_symbolic(jet, quartic)
        if constants.k is not None:
            d_for_ak = content["D"] if content["D"] is not None else 0.0
            content["mu1"] = mu1_Ak(minor, d_for_ak, constants)
            content["A"] = A_coefficient(minor, d_for_ak, constants)
            content["det_leading_t4_coefficient"] = det_leading(minor, content["A"])
            if content["D"] is None:
                content["notes"]["quartic"] = "no quartic jet supplied; D treated as 0"
    else:
        content["notes"]["regime"] = (
            "first block row nonzero: first-order coefficients lambda_i "
            "obstruct; degenerate-regime outputs omitted"
        )

    det_unit = bold_det_from_block(unit)
    content["wall_side"] = wall_side(det_unit, degenerate)
    return ObstructionReport(content, None if abs(det_unit) <= _DET_FLOOR else det_unit)
