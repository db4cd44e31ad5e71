"""Reference computations written apart from grunlab.

Each function here recomputes a number that grunlab also produces, by a
different method: halfspace volumes of simplices, boxes and balls from their
closed forms, section profiles as the derivative of those volumes, powered
centroids and tail ratios by scipy's adaptive quadrature. Nothing here imports
grunlab.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import betainc

_QUAD = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def _quad(f, lo, hi, knots=()):
    """Integral of f over [lo, hi], one quad call per piece between knots."""
    cuts = [lo] + sorted(k for k in knots if lo < k < hi) + [hi]
    return sum(quad(f, a, b, **_QUAD)[0] for a, b in zip(cuts[:-1], cuts[1:]) if b > a)


# ---------------------------------------------------------------------------
# convex bodies: fraction of volume below the hyperplane <x, u> = c
# ---------------------------------------------------------------------------

def _divided_difference(nodes, taylor):
    """[y_0, ..., y_n] f for sorted nodes, repeats allowed.

    taylor(k, y) is f^(k)(y) / k!; runs of equal nodes take it in place of
    the difference quotient (Hermite's rule)."""
    level = [taylor(0, y) for y in nodes]
    for k in range(1, len(nodes)):
        level = [taylor(k, nodes[i]) if nodes[i + k] == nodes[i]
                 else (level[i + 1] - level[i]) / (nodes[i + k] - nodes[i])
                 for i in range(len(nodes) - k)]
    return level[0]


def _truncated_power(c, n):
    """Taylor coefficients of x -> (x - c)_+^n."""
    def taylor(k, y):
        return math.comb(n, k) * (y - c) ** (n - k) if y > c else 0 * y
    return taylor


class SimplexOracle:
    """Uniform simplex: the upper fraction is the divided difference
    [y_0, ..., y_n] (. - c)_+^n over the vertex projections y_i (the integral
    of the B-spline with those knots). Fractions and sections are evaluated
    in exact rational arithmetic, so nearby or repeated projections lose no
    digits."""

    def __init__(self, verts, u):
        verts = np.asarray(verts, dtype=float)
        self.n = verts.shape[1]
        self.volume = abs(np.linalg.det(verts[1:] - verts[0])) / math.factorial(self.n)
        self.knots = sorted(float(v) for v in verts @ np.asarray(u, dtype=float))
        self._exact = [Fraction(y) for y in self.knots]
        self.support = (self.knots[0], self.knots[-1])

    def lower_fraction(self, c):
        upper = _divided_difference(self._exact, _truncated_power(Fraction(float(c)), self.n))
        return float(1 - upper)

    def section(self, t):
        """d/dt of vol{<x, u> <= t}."""
        dd = _divided_difference(self._exact, _truncated_power(Fraction(float(t)), self.n - 1))
        return self.volume * self.n * float(dd)


class BoxOracle:
    """Axis-aligned box: inclusion-exclusion over the corners of the box
    spline with widths w_i = |u_i| (hi_i - lo_i), in exact rational
    arithmetic, so a thin width loses no digits."""

    def __init__(self, lo, hi, u):
        lo, hi, u = (np.asarray(v, dtype=float) for v in (lo, hi, u))
        self.n = lo.size
        if np.any(u == 0.0):
            raise ValueError("direction must have no zero component")
        self.volume = float(np.prod(hi - lo))
        w = np.abs(u) * (hi - lo)
        self.start = float(np.sum(np.where(u > 0, u * lo, u * hi)))
        self._w = [Fraction(float(x)) for x in w]
        self._start = Fraction(self.start)
        self._scale = math.factorial(self.n) * math.prod(self._w)
        self._corners = [(sum(s, Fraction(0)), (-1) ** len(s))
                         for k in range(self.n + 1) for s in combinations(self._w, k)]
        self.knots = sorted({float(self._start + o) for o, _ in self._corners})
        self.support = (self.knots[0], self.knots[-1])

    def lower_fraction(self, c):
        x = Fraction(float(c)) - self._start
        return float(sum(sg * (x - o) ** self.n for o, sg in self._corners if x > o)
                     / self._scale)

    def section(self, t):
        x = Fraction(float(t)) - self._start
        acc = sum(sg * (x - o) ** (self.n - 1) for o, sg in self._corners if x > o)
        return self.volume * self.n * float(acc / self._scale)


class BallOracle:
    """Euclidean ball: cap fractions by the regularized incomplete beta."""

    def __init__(self, center, radius, u):
        self.n = len(center)
        self.radius = float(radius)
        self.mid = float(np.dot(center, u))
        self.volume = math.pi ** (self.n / 2) / math.gamma(self.n / 2 + 1) * self.radius ** self.n
        self._kappa = math.pi ** ((self.n - 1) / 2) / math.gamma((self.n - 1) / 2 + 1)
        self.support = (self.mid - self.radius, self.mid + self.radius)
        self.knots = [self.mid]

    def lower_fraction(self, c):
        s = min(max((c - self.mid) / self.radius, -1.0), 1.0)
        cap = 0.5 * float(betainc((self.n + 1) / 2.0, 0.5, 1.0 - s * s))
        return cap if s < 0 else 1.0 - cap

    def section(self, t):
        d = self.radius ** 2 - (t - self.mid) ** 2
        return self._kappa * d ** ((self.n - 1) / 2.0) if d > 0 else 0.0


def body_oracle(kind, params, u):
    if kind == "simplex":
        return SimplexOracle(params["vertices"], u)
    if kind == "box":
        return BoxOracle(params["lo"], params["hi"], u)
    if kind == "ball":
        return BallOracle(params["center"], params["radius"], u)
    raise ValueError(f"unknown body kind {kind!r}")


def r_centroid(oracle, r):
    """int t f^r / int f^r over the support, f the oracle's section profile."""
    a, b = oracle.support
    if r == 0.0:
        return 0.5 * (a + b)
    f = oracle.section
    mass = _quad(lambda t: f(t) ** r, a, b, oracle.knots)
    moment = _quad(lambda t: t * f(t) ** r, a, b, oracle.knots)
    return moment / mass


def max_section(oracle):
    """Largest section: f^(1/(n-1)) is concave, so f is unimodal."""
    a, b = oracle.support
    res = minimize_scalar(lambda t: -oracle.section(t), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12 * (b - a)})
    return -res.fun


# ---------------------------------------------------------------------------
# piecewise-linear profiles
# ---------------------------------------------------------------------------

def _pl_power_integral(ts, hs, beta, lo, hi, weight_t=False):
    total = 0.0
    for t0, t1, h0, h1 in zip(ts[:-1], ts[1:], hs[:-1], hs[1:]):
        a, b = max(t0, lo), min(t1, hi)
        if b <= a:
            continue
        slope = (h1 - h0) / (t1 - t0)
        if weight_t:
            g = lambda t, t0=t0, h0=h0, s=slope: t * max(h0 + s * (t - t0), 0.0) ** beta
        else:
            g = lambda t, t0=t0, h0=h0, s=slope: max(h0 + s * (t - t0), 0.0) ** beta
        total += quad(g, a, b, **_QUAD)[0]
    return total


def pl_alpha_centroid(ts, hs, alpha):
    ts, hs = [float(t) for t in ts], [float(h) for h in hs]
    if alpha == 0.0:
        return 0.5 * (ts[0] + ts[-1])
    return (_pl_power_integral(ts, hs, alpha, ts[0], ts[-1], weight_t=True)
            / _pl_power_integral(ts, hs, alpha, ts[0], ts[-1]))


def pl_tail_ratio(ts, hs, alpha, beta, cut=None):
    """int_g^b h^beta / int_a^b h^beta, g the alpha-centroid, by quad per segment."""
    ts, hs = [float(t) for t in ts], [float(h) for h in hs]
    g = pl_alpha_centroid(ts, hs, alpha) if cut is None else cut
    return (_pl_power_integral(ts, hs, beta, g, ts[-1])
            / _pl_power_integral(ts, hs, beta, ts[0], ts[-1]))


def functional_bound(alpha, beta):
    """The sharp tail-ratio constant, from its formula."""
    return min((beta + 1.0) / (alpha + 2.0), (alpha + 1.0) / (alpha + 2.0)) ** (beta + 1.0)


def grunbaum_r_bound(p, r):
    return (min(p + 1.0, p + r) / (2.0 * p + r)) ** ((p + 1.0) / p)
