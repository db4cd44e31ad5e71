"""Fixed Gauss rules for the spline section profiles, and adaptive Simpson.

The profile engine integrates by closed forms and fixed Gauss rules only:
_gauss_jacobi(n, gamma) is the n-node rule on [0, 1] for the weight y^gamma
(gamma = 0 is Gauss-Legendre), from the eigenvalues of the Jacobi matrix
(Golub & Welsch, 1969). adaptive_simpson is a reference integrator for tests
of the closed forms; no profile integral calls it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ParameterError, check_count


@lru_cache(maxsize=64)
def _gauss_jacobi(n, gamma):
    """Nodes y and weights w with sum w p(y) = int_0^1 y^gamma p(y) dy for
    every polynomial p of degree below 2 n."""
    # three-term recurrence of the Jacobi polynomials P^(0, gamma) on [-1, 1]
    k = np.arange(1.0, n)
    s = 2.0 * k + gamma
    diag = np.concatenate([[gamma / (gamma + 2.0)], gamma * gamma / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k * k * (k + gamma) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + x), vec[0] ** 2 / (gamma + 1.0)


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


def adaptive_simpson(f, a, b, abs_tol=1e-10, max_subdivisions=60):
    """Integrate f on [a, b] to abs_tol by adaptive Simpson bisection.

    Raises ConvergenceError (carrying the best estimate) if it does not
    converge within max_subdivisions bisection levels.
    """
    if not abs_tol > 0.0:
        raise ParameterError(f"abs_tol must be positive, got {abs_tol}")
    max_subdivisions = check_count("max_subdivisions", max_subdivisions, 1)
    if b <= a:
        return 0.0
    mid = 0.5 * (a + b)
    fa, fmid, fb = f(a), f(mid), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    total, converged = _adaptive(f, a, fa, b, fb, mid, fmid, whole, abs_tol, max_subdivisions)
    if not converged:
        raise ConvergenceError(
            f"quadrature did not converge to abs_tol={abs_tol} "
            f"within {max_subdivisions} subdivisions", best_estimate=total)
    return total


def unit_ball_volume(n):
    """Lebesgue volume of the Euclidean unit ball in R^n (an integer n >= 0)."""
    n = check_count("n", n, 0)
    return float(np.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0))
