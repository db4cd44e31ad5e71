"""Semantic exception hierarchy shared by all grunlab modules, and the five
checks every parameter and position goes through: check_exponent,
check_power, check_count and check_tolerance raise ParameterError for
exponents, powers, counts, seeds and tolerances; check_position raises
DomainError for a point, interval end or cut outside its interval."""

import math
import sys

import numpy as np


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


# The numeric-parameter rule: every exponent, power, count, seed and tolerance
# is checked here. A bool is an int to Python but never a number to grunlab.
REALS = (float, int, np.floating, np.integer)
_FLOAT_MAX = sys.float_info.max


def check_exponent(name, value):
    """Raise ParameterError unless value is a finite, non-negative int or float, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, REALS)
            or not 0 <= value < math.inf or isinstance(value, int) and value > _FLOAT_MAX):
        raise ParameterError(f"{name} must be finite and non-negative, got {value!r}")


def check_power(name, value):
    """Raise ParameterError unless value is a finite, positive int or float, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, REALS)
            or not 0 < value < math.inf or isinstance(value, int) and value > _FLOAT_MAX):
        raise ParameterError(f"{name} must be finite and positive, got {value!r}")


def check_count(name, value, lo, hi=None):
    """int(value); raise ParameterError unless value is an int or numpy
    integer, not a bool, with lo <= value (and value < hi when hi is given)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if hi is None and value < lo:
        raise ParameterError(f"{name} must be at least {lo}, got {value}")
    if hi is not None and not lo <= value < hi:
        top = f"2^{hi.bit_length() - 1}" if hi > 1024 and hi & (hi - 1) == 0 else hi
        raise ParameterError(f"{name} must lie in [{lo}, {top}), got {value}")
    return value


def check_tolerance(value):
    """float(value); raise ParameterError unless value is an int or float, not
    a bool, not NaN and not an int past the float range. An infinite or
    negative tolerance is kept."""
    if (isinstance(value, bool) or not isinstance(value, REALS)
            or isinstance(value, int) and abs(value) > _FLOAT_MAX or math.isnan(value)):
        raise ParameterError(f"tolerance must be a number, got {value!r}")
    return float(value)


def position_slack(a, b, rel):
    """How far a position may lie beyond [a, b]: rel (b - a) + 4 ulps of max(|a|, |b|)."""
    return rel * (b - a) + 4.0 * math.ulp(max(abs(a), abs(b)))


def check_position(what, value, a, b):
    """value clipped into [a, b]: a float for a Python float or int, a float
    array otherwise. Raise DomainError if value is NaN or lies beyond [a, b]
    by more than position_slack(a, b, 1e-12)."""
    slack = position_slack(a, b, 1e-12)
    if isinstance(value, (float, int)):  # the float path takes no numpy call
        if a - slack <= value <= b + slack:  # NaN fails
            return min(max(float(value), a), b)
    else:
        values = np.asarray(value, dtype=float)
        if np.all((a - slack <= values) & (values <= b + slack)):
            return np.clip(values, a, b)[()]
    raise DomainError(f"{what} {value!r} outside [{a!r}, {b!r}]")
