"""Adaptive Simpson quadrature for the profile kinds without antiderivatives."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget for adaptive integration.

    abs_tol is an absolute tolerance on each requested integral;
    max_subdivisions bounds the recursion depth per smooth piece.
    """

    abs_tol: float = 1e-10
    max_subdivisions: int = 60

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise ParameterError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ParameterError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0, True
    if depth <= 0:
        return left + right + err / 15.0, False
    lv, lok = _adaptive(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
    rv, rok = _adaptive(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1)
    return lv + rv, lok and rok


def adaptive_simpson(f, a, b, spec=DEFAULT_QUADRATURE, breakpoints=()):
    """Integrate f on [a, b] to spec.abs_tol, splitting at known breakpoints.

    Raises ConvergenceError (carrying the best estimate) if any piece fails
    to converge within spec.max_subdivisions bisection levels.
    """
    if b <= a:
        return 0.0
    cuts = [a]
    for t in sorted(breakpoints):
        if a < t < b and t - cuts[-1] > 1e-15 * (b - a):
            cuts.append(float(t))
    cuts.append(b)
    total = 0.0
    converged = True
    length = b - a
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tol = spec.abs_tol * max((hi - lo) / length, 1e-3)
        mid = 0.5 * (lo + hi)
        flo, fmid, fhi = f(lo), f(mid), f(hi)
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        val, ok = _adaptive(f, lo, flo, hi, fhi, mid, fmid, whole,
                            tol, spec.max_subdivisions)
        total += val
        converged = converged and ok
    if not converged:
        raise ConvergenceError(
            f"quadrature did not converge to abs_tol={spec.abs_tol} "
            f"within {spec.max_subdivisions} subdivisions", best_estimate=total)
    return total


def unit_ball_volume(n):
    """Lebesgue volume of the Euclidean unit ball in R^n (n >= 0)."""
    if n < 0:
        raise ParameterError("dimension must be non-negative")
    return float(np.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0))
