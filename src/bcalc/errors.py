"""Shared exception types.

``HypothesisViolation`` and its subclasses mark situations where a theorem
hypothesis fails (the CLI maps them to exit code 2, distinct from malformed
input, which is exit code 1).  ``NumericFailure`` and its subclasses mark a
numeric oracle that failed (exit code 3).
"""


class HypothesisViolation(Exception):
    """A hypothesis of one of the transport/calculus theorems is violated."""


class NotBFibration(HypothesisViolation):
    """Map fails the b-fibration requirements of the push-forward theorem."""


class CompositionUndefined(HypothesisViolation):
    """inf E_rb + inf F_lb <= 0: the composition integral diverges."""


class IntegrabilityError(HypothesisViolation):
    """An integrability condition fails (symbolically or detected numerically)."""


class InadmissibleWeight(HypothesisViolation):
    """Weight parameter coincides with the real part of an indicial root."""


class NotBElliptic(HypothesisViolation):
    """Leading coefficient vanishes at the boundary."""


class LatticeError(ValueError):
    """Malformed face lattice or illegal blow-up center."""


class BMapError(ValueError):
    """Inconsistent b-map descriptor (shape, lattice mismatch, non-face image)."""


class SchemaError(ValueError):
    """JSON object does not match any known schema."""


class NumericFailure(RuntimeError):
    """A numeric oracle could not produce a trustworthy answer (CLI exit code 3)."""


class QuadratureError(NumericFailure):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ConditioningError(NumericFailure):
    """Fit basis is numerically degenerate."""


class FitRejection(NumericFailure):
    """Fit residual does not decay at the rate the candidate set implies."""
