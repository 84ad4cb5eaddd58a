"""Exception hierarchy shared by all toolkit modules."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class OverlapError(ToolkitError):
    """Two gap arcs intersect (or share an endpoint)."""


class DegenerateArc(ToolkitError):
    """An arc has normalized length >= 1 where a proper subarc is required."""


class BandTooLarge(ToolkitError):
    """Requested Fourier band exceeds the Nyquist limit of the grid."""


class OutsideDomain(ToolkitError):
    """Evaluation point lies outside the admissible disk region."""


class ResolutionError(ToolkitError):
    """The grid or the double-precision range cannot resolve the request:
    too coarse a grid for the dyadic levels, or an atom too heavy for its
    closed-form coefficients."""


class WeightNotLogIntegrable(ToolkitError):
    """A weight is not finite and positive on its carrier."""


class IngredientMismatch(ToolkitError):
    """Member ingredients are inconsistent (wrong family, wrong base set)."""


class NotADivisor(ToolkitError):
    """Sampled quotient |b/b_n| exceeds 1, so b_n does not divide b."""


class RangeExhausted(ToolkitError):
    """Weight construction ran out of coefficients before reaching N_max."""


class LengthMismatch(ToolkitError):
    """Coefficient vector is longer than the weight sequence."""


class ConfigError(ToolkitError):
    """Malformed or inconsistent run configuration."""
