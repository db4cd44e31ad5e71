"""Sharp constants for the halfspace-mass inequalities and their verifiers.

The bound family, for a nonnegative concave h on [a, b] cut at its
alpha-centroid:

    beta <= alpha:   tail ratio >= ((beta+1)/(alpha+2))^(beta+1)
    alpha <= beta:   tail ratio >= ((alpha+1)/(alpha+2))^(beta+1)

Specializations: alpha = beta = n-1 gives the classical (n/(n+1))^n; the
beta -> 0 limit gives 1/(alpha+2) (projection ratio); the beta -> infinity
root-limit gives (alpha+1)/(alpha+2) (section ratio). In body form with a
p-concave section profile cut at the r-powered centroid the constants become
((p+1)/(2p+r))^((p+1)/p) for r >= 1 and ((p+r)/(2p+r))^((p+1)/p) for r <= 1,
both strictly above the Jensen-route constant (p/(2p+r))^((p+1)/p).

This module also builds the extremal comparison function: the decreasing
affine g(t) = c (delta - t) matching h's value at the cut and its total and
right-tail beta-powered masses, against which the sharp constants are read
off in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateProfileError, ParameterError, check_count, check_exponent,
                     check_power, check_tolerance, position_slack)
from .profiles import (
    _certify_p_concave,
    _tail_ratio_cut,
    alpha_centroid,
    evaluate,
    integration_provenance,
    powered_split,
    tail_masses,
)
from .reports import make_report

BOUND_TOL = 1e-9

REGIMES = (
    "beta_le_alpha", "alpha_le_beta", "r_ge_1", "r_le_1", "midpoint",
    "jensen_bbl", "minkowski_radon", "makai_fradelizi", "grunbaum_classic",
)


@dataclass(frozen=True)
class SharpBound:
    """A sharp constant in (0, 1) with the regime that selected it."""

    value: float
    regime: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.value < 1.0):
            raise ParameterError(f"bound value {self.value} outside (0, 1)")
        if self.regime not in REGIMES:
            raise ParameterError(f"unknown regime {self.regime!r}")


def functional_bound(alpha, beta):
    """Sharp lower bound for the tail-mass ratio of a concave profile.

    Accepts beta = 0 as the continuous limit (value 1/(alpha+2)); the two
    branch expressions coincide at alpha = beta.
    """
    check_exponent("alpha", alpha)
    check_exponent("beta", beta)
    lo = min((beta + 1.0) / (alpha + 2.0), (alpha + 1.0) / (alpha + 2.0))
    regime = "beta_le_alpha" if beta <= alpha else "alpha_le_beta"
    return SharpBound(lo ** (beta + 1.0), regime, {"alpha": alpha, "beta": beta})


def functional_root_limit(alpha):
    """beta -> infinity limit of functional_bound(alpha, beta)^(1/beta)."""
    check_exponent("alpha", alpha)
    return (alpha + 1.0) / (alpha + 2.0)


def grunbaum_r_bound(p, r):
    """Sharp halfspace-mass bound for a p-concave section profile cut at the
    r-powered centroid; the branches agree at r = 1."""
    check_power("p", p)
    check_exponent("r", r)
    base = min(p + 1.0, p + r) / (2.0 * p + r)
    if r == 0.0:
        regime = "midpoint"
    else:
        regime = "r_ge_1" if r >= 1.0 else "r_le_1"
    return SharpBound(base ** ((p + 1.0) / p), regime, {"p": p, "r": r})


def jensen_bbl_bound(p, r):
    """Weaker constant (p/(2p+r))^((p+1)/p) from the Jensen route."""
    check_power("p", p)
    check_power("r", r)
    return SharpBound((p / (2.0 * p + r)) ** ((p + 1.0) / p),
                      "jensen_bbl", {"p": p, "r": r})


def classic_bounds(n):
    """The three classical constants in dimension n >= 2, from the functional
    bound at alpha = a = n - 1: at beta = a, at beta = 0, and the a-th power
    of its root limit."""
    n = check_count("n", n, 2)
    a = n - 1
    return {
        "grunbaum": SharpBound(functional_bound(a, a).value, "grunbaum_classic", {"n": n}),
        "minkowski_radon": SharpBound(functional_bound(a, 0).value, "minkowski_radon", {"n": n}),
        "makai_fradelizi": SharpBound(functional_root_limit(a) ** a, "makai_fradelizi", {"n": n}),
    }


# ---------------------------------------------------------------------------
# profile verification
# ---------------------------------------------------------------------------

def verify_functional(h, alpha, beta, tol=BOUND_TOL):
    """Check the tail-mass inequality for one concave profile.

    Returns a TheoremReport with ratio, sharp bound, slack and provenance;
    raises PreconditionError when h fails the concavity certificate.
    """
    _certify_p_concave(h, 1.0, "profile")
    ratio, cut = _tail_ratio_cut(h, alpha, beta)
    bound = functional_bound(alpha, beta)
    prov = integration_provenance(h, (alpha, beta))
    prov["params"] = {"alpha": alpha, "beta": beta}
    details = {"cut": cut, "regime": bound.regime}
    return make_report("functional-tail", ratio, bound.value, tol, prov, details)


# ---------------------------------------------------------------------------
# the extremal comparison function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonAffine:
    """Decreasing affine comparison g(t) = c (delta - t) on [gamma, delta].

    anchor is the alpha-centroid of the profile it was built from; by
    construction g matches the profile's value there and both its total and
    right-tail beta-powered masses.
    """

    gamma: float
    delta: float
    c: float
    anchor: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise ParameterError("slope scale c must be positive")
        if not (self.gamma <= self.anchor <= self.delta):
            raise ParameterError("need gamma <= anchor <= delta")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.gamma) & (t <= self.delta)
        return np.where(inside, self.c * (self.delta - t), 0.0)[()]

    def powered_tail(self, beta, s):
        """int_max(s, gamma)^delta g^beta dt, in closed form."""
        s = np.maximum(np.asarray(s, dtype=float), self.gamma)
        width = np.maximum(self.delta - s, 0.0)
        return self.c ** beta * width ** (beta + 1.0) / (beta + 1.0)

    def powered_total(self, beta):
        return float(self.powered_tail(beta, self.gamma))

    def alpha_centroid(self, alpha):
        """g_alpha of the comparison function, in closed form."""
        return self.delta - (alpha + 1.0) * (self.delta - self.gamma) / (alpha + 2.0)

    def g0(self, alpha, beta):
        """Closed-form dominating point gamma + (delta-gamma)(alpha-beta+1)/(alpha+2)."""
        return self.gamma + (self.delta - self.gamma) * (alpha - beta + 1.0) / (alpha + 2.0)


def build_comparison_affine(h, alpha, beta):
    """Construct the comparison affine function for h at exponents (alpha, beta).

    delta = (beta+1) I_right / h(g)^beta + g,  c = h(g)/(delta - g),
    gamma = delta - ((beta+1) I_total / c^beta)^(1/(beta+1)),
    where g is the alpha-centroid and I_* are beta-powered masses of h.
    """
    check_power("beta", beta)
    g = alpha_centroid(h, alpha)
    hg = float(evaluate(h, g))
    if not hg > 0.0:
        raise DegenerateProfileError("profile vanishes at its alpha-centroid")
    total, right = powered_split(h, beta, g)
    delta = (beta + 1.0) * right / hg ** beta + g
    c = hg / (delta - g)
    gamma = delta - ((beta + 1.0) * total / c ** beta) ** (1.0 / (beta + 1.0))
    return ComparisonAffine(gamma=float(gamma), delta=float(delta), c=float(c),
                            anchor=float(g))


@dataclass(frozen=True)
class ComparisonValidation:
    """Outcome of validating a comparison function against its profile.

    Mass errors are relative to the profile's total beta-powered mass, the
    value error relative to h(anchor). Crossing counts are the number of sign
    changes of h - g on each side of the anchor (at most one each).
    """

    value_error: float
    total_mass_error: float
    tail_mass_error: float
    ordering_ok: bool
    tail_domination_margin: float
    crossings_left: int
    crossings_right: int
    tol: float

    @property
    def passed(self):
        return bool(
            self.value_error <= self.tol
            and self.total_mass_error <= self.tol
            and self.tail_mass_error <= self.tol
            and self.ordering_ok
            and self.tail_domination_margin >= -self.tol
            and self.crossings_left <= 1
            and self.crossings_right <= 1
        )


def _sign_changes(diff, scale, anchor_mask):
    signs = np.sign(np.where(np.abs(diff) <= 1e-9 * scale, 0.0, diff)[anchor_mask])
    signs = signs[signs != 0.0]
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0.0))


def validate_comparison(h, g, alpha, beta, s_grid_size=128, tol=1e-8):
    """Check the defining identities and domination structure of g against h.

    Verifies: value match at the anchor; total and right-tail mass equality;
    the ordering chain a <= gamma <= anchor <= b <= delta, each step up to
    position_slack(a, b, tol); tail domination
    int_s^b h^beta <= int_s^delta g^beta on an s-grid over [a, delta]; and the
    single-crossing structure of h - g on each side of the anchor.
    """
    s_grid_size = check_count("s_grid_size", s_grid_size, 1)
    tol = check_tolerance(tol)
    a, b = h.domain
    hg = float(evaluate(h, g.anchor))
    total, right = powered_split(h, beta, g.anchor)
    value_error = abs(g.value(g.anchor) - hg) / max(hg, 1e-300)
    total_mass_error = abs(g.powered_total(beta) - total) / max(total, 1e-300)
    tail_mass_error = abs(float(g.powered_tail(beta, g.anchor)) - right) / max(total, 1e-300)

    slack = position_slack(a, b, tol)
    ordering_ok = bool(
        g.gamma >= a - slack
        and g.anchor >= g.gamma - slack
        and g.anchor <= b + slack
        and g.delta >= b - slack
    )

    cuts = np.linspace(a, g.delta, s_grid_size)
    h_tails = tail_masses(h, beta, cuts)
    g_tails = g.powered_tail(beta, cuts)
    margin = float(np.min((g_tails - h_tails) / max(total, 1e-300)))

    grid = np.linspace(a, g.delta, 512)
    h_vals = np.zeros_like(grid)
    inside = grid <= b
    h_vals[inside] = np.asarray(h.value(np.clip(grid[inside], a, b)), dtype=float)
    diff = h_vals - g.value(grid)
    scale = max(float(np.max(np.abs(h_vals))), 1e-300)
    left = _sign_changes(diff, scale, grid <= g.anchor)
    right_changes = _sign_changes(diff, scale, grid >= g.anchor)

    return ComparisonValidation(
        value_error=float(value_error),
        total_mass_error=float(total_mass_error),
        tail_mass_error=float(tail_mass_error),
        ordering_ok=ordering_ok,
        tail_domination_margin=margin,
        crossings_left=left,
        crossings_right=right_changes,
        tol=tol,
    )


@dataclass(frozen=True)
class CentroidDomination:
    """Comparison of the profile's alpha-centroid against its closed-form cap."""

    regime: str
    g_alpha_h: float
    threshold: float
    margin: float
    passed: bool


def centroid_domination_check(h, alpha, beta, tol=BOUND_TOL):
    """Verify the centroid cap behind each regime of the sharp bound.

    For beta <= alpha the cap is g0 = gamma + (delta-gamma)(alpha-beta+1)/(alpha+2);
    for alpha <= beta it is the alpha-centroid of the comparison function,
    delta - (alpha+1)(delta-gamma)/(alpha+2). Both are evaluated in closed
    form from (gamma, delta) so no quadrature error compounds.
    """
    tol = check_tolerance(tol)
    g = build_comparison_affine(h, alpha, beta)
    if beta <= alpha:
        regime, threshold = "beta_le_alpha", g.g0(alpha, beta)
    else:
        regime, threshold = "alpha_le_beta", g.alpha_centroid(alpha)
    margin = threshold - g.anchor
    return CentroidDomination(regime=regime, g_alpha_h=g.anchor,
                              threshold=float(threshold), margin=float(margin),
                              passed=bool(margin >= -tol))
