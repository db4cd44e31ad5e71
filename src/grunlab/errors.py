"""Semantic exception hierarchy shared by all grunlab modules."""


class GrunlabError(Exception):
    """Base class for all grunlab errors."""


class ParameterError(GrunlabError, ValueError):
    """A numeric parameter is outside its admissible range (e.g. beta <= 0)."""


class DomainError(GrunlabError, ValueError):
    """An evaluation point or interval falls outside the function's domain."""


class ProfileError(GrunlabError, ValueError):
    """Profile data violates a structural invariant (ordering, sign, concavity)."""


class DegenerateProfileError(GrunlabError, ValueError):
    """A profile has zero mass where positive mass is required."""


class DegenerateBodyError(GrunlabError, ValueError):
    """A body has empty interior or otherwise degenerate geometry."""


class PreconditionError(GrunlabError, ValueError):
    """A theorem's hypothesis fails; carries the numeric witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConvergenceError(GrunlabError, RuntimeError):
    """An iterative integral did not reach its tolerance: the incomplete beta
    continued fraction of a ball section, or the reference integrator
    quadrature.adaptive_simpson.

    The best available estimate is kept so callers can decide whether to
    accept it anyway.
    """

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


class FloatRangeError(GrunlabError, OverflowError):
    """A number leaves the float range: an absolute integral, where a power
    of the profile's scale overflows, a moment about t = 0 of a profile far
    from the origin, or a report's ratio. Centroids and tail ratios read the
    integrals at the scale each profile names, so scaling h alone never
    raises it for them."""
