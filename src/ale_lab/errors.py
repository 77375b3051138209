"""Exception vocabulary shared by all modules.

Every error below signals a violated precondition or a diagnostic
failure; none is recoverable by retrying with the same inputs.
"""

from __future__ import annotations


class AleLabError(Exception):
    """Base class for all library errors."""


class CenterTooClose(AleLabError):
    """Evaluation point within the exclusion radius of a center."""


class OnDiracString(AleLabError):
    """Point lies on (or too near) the excluded axis ray of its gauge patch."""


class EvaluationDomain(AleLabError):
    """A finite-difference stencil left the valid chart region."""


class SingularMetric(AleLabError):
    """Metric matrix not positive definite where one was required."""


class FrameNotOrthonormal(AleLabError):
    """A 2-form frame failed the pointwise orthonormality requirement."""


class GaugeViolation(AleLabError):
    """Declared gauge condition violated beyond tolerance."""


class QuadratureDivergence(AleLabError):
    """Integrand singular (non-finite) on the quadrature domain."""


class NormalizationFailure(AleLabError):
    """Normalizing integral degenerate; cannot fix a scale factor."""


class FitUnstable(AleLabError):
    """Least-squares fit ill-conditioned beyond the allowed threshold."""


class MissingConstants(AleLabError):
    """Geometry constants required but neither computable nor supplied."""


class SchemaError(AleLabError):
    """Structured input failed schema validation; message names the field path."""


class SymmetryError(AleLabError):
    """Input coefficient array violates its declared index symmetries."""
