"""One-dimensional engine for nonnegative concave profiles.

Everything downstream (sharp-bound verification, body sectioning, extremal
search) reduces to weighted integrals of a nonnegative function h on a compact
interval [a, b]:

    powered mass      I_beta(h; s, e) = int_s^e h(t)^beta dt
    powered moment    M_beta(h; s, e) = int_s^e t h(t)^beta dt
    alpha-centroid    g_alpha(h) = M_alpha(h; a, b) / I_alpha(h; a, b)
    tail-mass ratio   I_beta(h; g_alpha(h), b) / I_beta(h; a, b)

Piecewise-linear profiles integrate through one segment kernel, shared with
the extremal search; power laws and ball sections have closed forms. Every
profile kind integrates itself and names the scale it integrates at:
integrals(beta, lo, hi) gives (mass, moment, top), the integrals of
(h / top)^beta and t (h / top)^beta on a sub-interval lo < hi at every
beta >= 0, with a scale top > 0 of the kind's choosing (its maximum, or the
largest value it looked at), where beta = 0 integrates the indicator of
{h > 0} (the limit as the power tends to 0). Ratios and centroids read the
scaled integrals, so they do not change when h is scaled by a power of 2 and
stay in range at every beta; absolute integrals multiply by top^beta once,
and raise FloatRangeError when that leaves the float range. All profiles are
immutable after construction and all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateProfileError,
    DomainError,
    FloatRangeError,
    ParameterError,
    PreconditionError,
    ProfileError,
)
from .quadrature import unit_ball_volume

# Chord-test tolerance certifying concavity, relative to the profile's maximum.
CONCAVITY_TOL = 1e-9
_CONCAVITY_GRID = 129  # uniform points added to an analytic profile's knots

# A segment whose relative change d = (hb - ha) / (ha + hb) has
# |d| (e + 2) <= _SERIES_CUT is integrated by its midpoint series in d.
_SERIES_CUT = 0.05
_R_MAX = 1.0 - 2.0 ** -53  # keeps log1p finite on segments that reach zero


def _check_exponent(name, value):
    """Raise ParameterError unless value is a finite, non-negative exponent."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ParameterError(f"{name} must be finite and non-negative, got {value}")


def _check_power(name, value):
    """Raise ParameterError unless value is a finite, positive exponent."""
    if not 0.0 < value < math.inf:
        raise ParameterError(f"{name} must be finite and positive, got {value}")


# ---------------------------------------------------------------------------
# the segment kernel (every piecewise-linear integral goes through it)
# ---------------------------------------------------------------------------

def _horner(coeffs, x):
    acc = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        acc = acc * x + c
    return acc


@lru_cache(maxsize=64)
def _series(e):
    """Midpoint-series coefficients in d^2, highest power first: C(e, k) / (k + 1)
    for even k <= 6 (mass) and C(e, k) / (k + 2) for odd k <= 7 (moment)."""
    binom = [1.0]
    for k in range(1, 8):
        binom.append(binom[-1] * (e - k + 1) / k)
    return (tuple(binom[k] / (k + 1) for k in (6, 4, 2, 0)),
            tuple(binom[k] / (k + 2) for k in (7, 5, 3, 1)))


def _segments(ha, hb, dt, e, moment):
    """int h^e and int (t - t_mid) h^e over affine segments, elementwise.

    h runs from ha to hb over a width dt and t_mid is the segment's midpoint;
    the centred moment is None unless moment is set. Ordinates are clamped at
    0. With s = (ha + hb) / 2 and d = (hb - ha) / (ha + hb), a segment with
    |d| (e + 2) <= _SERIES_CUT uses the midpoint series

        mass    = dt s^e          sum_{k even} C(e, k) d^k / (k + 1)
        centred = dt^2 s^e / 2    sum_{k odd}  C(e, k) d^k / (k + 2)

    through d^7; there the closed form cancels. For e <= 100 the first
    omitted terms stay below 1.2e-16 of the mass and 5e-15 of the centred
    moment. Other segments use the closed form written in
    r = |hb - ha| / max(ha, hb) with log1p and expm1, which keeps it accurate
    down to the cut and on segments that reach zero. e = 0 integrates the
    indicator of {h > 0}: dt on a segment, 0 where both ends are 0, with a
    zero centred moment. Callers scale ordinates to max 1, since h^e is where
    the range is lost.
    """
    ha = np.maximum(ha, 0.0)
    hb = np.maximum(hb, 0.0)
    if e == 0.0:
        mass = np.where(np.maximum(ha, hb) > 0.0, dt, 0.0)
        return mass, np.zeros_like(mass) if moment else None
    s2 = ha + hb
    dh = hb - ha
    d = dh / np.where(s2 > 0.0, s2, 1.0)
    near = np.abs(d) * (e + 2.0) <= _SERIES_CUT
    even, odd = _series(e)
    d2 = d * d
    mid_e = (0.5 * s2) ** e
    hi = np.maximum(ha, hb)
    r = np.where(near, 0.5, np.abs(dh) / np.where(near, 1.0, hi))
    log_ratio = np.log1p(-np.minimum(r, _R_MAX))  # log(min(ha, hb) / max(ha, hb))
    hi_e = hi ** e
    g1 = -np.expm1((e + 1.0) * log_ratio) / ((e + 1.0) * r)
    mass = dt * np.where(near, mid_e * _horner(even, d2), hi_e * g1)
    if not moment:
        return mass, None
    # int (t - t_mid) h^e = (dt / dh) (int h^(e+1) - s int h^e)
    g2 = -np.expm1((e + 2.0) * log_ratio) / ((e + 2.0) * r)
    closed = np.copysign(hi_e * (g2 - (1.0 - 0.5 * r) * g1) / r, dh)
    centred = dt * dt * np.where(near, 0.5 * mid_e * d * _horner(odd, d2), closed)
    return mass, centred


def _mass_moment(ts, hs, e):
    """Row-wise int h^e and int t h^e; hs is (B, m), ts is (m,) or (B, m)."""
    mass, centred = _segments(hs[:, :-1], hs[:, 1:], ts[..., 1:] - ts[..., :-1], e, True)
    mid = 0.5 * (ts[..., :-1] + ts[..., 1:])
    return mass.sum(axis=1), (mid * mass + centred).sum(axis=1)


def _mass_tail(ts, hs, e, cut):
    """Row-wise int_a^b h^e and int_cut^b h^e for cuts (B,) inside the domain."""
    rows, m = np.arange(hs.shape[0]), hs.shape[1]
    ts = np.broadcast_to(ts, hs.shape)
    i = (ts[:, 1:-1] <= cut[:, None]).sum(axis=1)  # the segment holding the cut
    t0, t1, h0, h1 = ts[rows, i], ts[rows, i + 1], hs[rows, i], hs[rows, i + 1]
    hcut = h0 + (h1 - h0) / (t1 - t0) * (cut - t0)
    # the m - 1 segments and, as one more column, [cut, t1]
    ha, hb, dt = np.empty(hs.shape), np.empty(hs.shape), np.empty(hs.shape)
    ha[:, :-1], ha[:, -1] = hs[:, :-1], hcut
    hb[:, :-1], hb[:, -1] = hs[:, 1:], h1
    dt[:, :-1], dt[:, -1] = ts[:, 1:] - ts[:, :-1], t1 - cut
    seg, _ = _segments(ha, hb, dt, e, False)
    full = seg[:, :-1]
    after = np.arange(m - 1) > i[:, None]
    return full.sum(axis=1), np.where(after, full, 0.0).sum(axis=1) + seg[:, -1]


def _tail_ratios(ts, hs, alpha, beta):
    """Tail-mass ratios and alpha-centroids of a (B, m) stack of profiles with
    positive rows; ts is (m,) or (B, m). Both are 0-homogeneous in h, so each
    row is scaled to max 1 first."""
    hs = hs / hs.max(axis=1, keepdims=True)
    mass, moment = _mass_moment(ts, hs, alpha)
    cut = np.clip(moment / mass, ts[..., 0], ts[..., -1])
    total, tail = _mass_tail(ts, hs, beta, cut)
    return tail / total, cut


# ---------------------------------------------------------------------------
# profile types
# ---------------------------------------------------------------------------

class PiecewiseLinear:
    """Nonnegative piecewise-linear function given by breakpoints.

    No concavity requirement: this is the raw-profile representation used as
    input to the p-concavity certifier. Use ConcaveProfile for validated
    concave profiles.
    """

    def __init__(self, breakpoints):
        pts = np.asarray(breakpoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ProfileError("breakpoints must be an (m, 2) array with m >= 2")
        if not np.all(np.isfinite(pts)):
            raise ProfileError("breakpoints must be finite")
        ts, hs = pts[:, 0].copy(), pts[:, 1].copy()
        if np.any(np.diff(ts) <= 0.0):
            raise ProfileError("abscissas must be strictly increasing")
        if np.any(hs < 0.0):
            raise ProfileError("ordinates must be non-negative")
        ts.setflags(write=False)
        hs.setflags(write=False)
        self.ts = ts
        self.hs = hs
        self._top = float(hs.max())
        self._unit = hs / self._top if self._top > 0.0 else hs

    @property
    def domain(self):
        return float(self.ts[0]), float(self.ts[-1])

    @property
    def breakpoints(self):
        return np.column_stack([self.ts, self.hs])

    def value(self, t):
        t = _check_in_domain(t, self.domain)
        return np.interp(t, self.ts, self.hs)

    def max_value(self):
        return self._top

    @property
    def quadrature_breakpoints(self):
        return self.ts

    def _restricted(self, lo, hi):
        """Breakpoints and ordinates scaled to max 1 of h on [lo, hi]."""
        ts = np.concatenate([[lo], self.ts[(self.ts > lo) & (self.ts < hi)], [hi]])
        return ts, np.interp(ts, self.ts, self._unit)

    def integrals(self, beta, lo, hi):
        ts, hs = self._restricted(lo, hi)
        mass, moment = _mass_moment(ts, hs[None], beta)
        return float(mass[0]), float(moment[0]), self._top or 1.0

    def to_json(self):
        return {"breakpoints": [[float(t), float(h)] for t, h in zip(self.ts, self.hs)]}

    def __repr__(self):
        a, b = self.domain
        return f"{type(self).__name__}({len(self.ts)} pts on [{a:g}, {b:g}])"


class ConcaveProfile(PiecewiseLinear):
    """Piecewise-linear profile certified concave with positive interior.

    Invariants: the chord test of p_concavity_check at p = 1 (so no verdict
    repeats it), ordinates >= 0 with strict positivity at interior
    breakpoints, total mass positive. Endpoint ordinates may vanish.
    """

    def __init__(self, breakpoints):
        super().__init__(breakpoints)
        viol = _knot_chords(self.ts, self.hs)
        if np.any(viol > CONCAVITY_TOL):
            i = int(np.argmax(viol))
            raise ProfileError(f"not concave: chord violation {viol[i]:.3e} "
                               f"at breakpoint t={self.ts[i + 1]:g}")
        if self.hs.shape[0] > 2 and np.any(self.hs[1:-1] <= 0.0):
            raise ProfileError("interior ordinates must be strictly positive")
        # non-negative ordinates on positive widths: zero mass means all zero
        if not self._top > 0.0:
            raise DegenerateProfileError("profile has zero total integral")


class AnalyticProfile:
    """Base for closed-form profile families; subclasses fix the formula."""

    kind = None

    @property
    def domain(self):
        raise NotImplementedError

    def value(self, t):
        raise NotImplementedError

    def max_value(self):
        raise NotImplementedError

    def _check_finite(self):
        """Raise ProfileError unless every parameter is finite and the maximum
        is a positive float, the scale that integrals names."""
        for name, value in self._params().items():
            if not math.isfinite(value):
                raise ProfileError(f"{name} must be finite, got {value}")
        try:
            top = self.max_value()
        except OverflowError:
            top = math.inf
        if not 0.0 < top < math.inf:
            raise ProfileError(f"maximum {top:g} is not a positive float")

    def to_json(self):
        return {"kind": self.kind, "params": self._params()}

    def __repr__(self):
        return f"{type(self).__name__}({self._params()})"


class ConstantProfile(AnalyticProfile):
    """h(t) = c on [gamma, delta]."""

    kind = "constant"

    def __init__(self, c, gamma, delta):
        if not c > 0.0:
            raise ProfileError("constant level c must be positive")
        if not gamma < delta:
            raise ProfileError("need gamma < delta")
        self.c = float(c)
        self.gamma = float(gamma)
        self.delta = float(delta)
        self._check_finite()

    @property
    def domain(self):
        return self.gamma, self.delta

    def value(self, t):
        t = _check_in_domain(t, self.domain)
        if np.ndim(t) == 0:
            return self.c
        return np.full(np.shape(t), self.c)

    def max_value(self):
        return self.c

    def integrals(self, beta, lo, hi):
        return hi - lo, 0.5 * (hi * hi - lo * lo), self.c

    def _params(self):
        return {"c": self.c, "gamma": self.gamma, "delta": self.delta}


class _PowerLawProfile(AnalyticProfile):
    """Shared closed forms for c * (signed distance to an endpoint)^q.

    With L the domain length and s in [0, 1] the distance to the vanishing
    end over L, (h / max)^beta = s^m for m = q beta, so every mass and
    moment at the scale max is L times powers of s, which stay in range at
    every beta. Subclasses set _sign: +1 when h vanishes at gamma, -1 at delta.
    """

    def __init__(self, c, gamma, delta, q):
        if not c > 0.0:
            raise ProfileError("scale c must be positive")
        if not q > 0.0:
            raise ProfileError("exponent q must be positive")
        if not gamma < delta:
            raise ProfileError("need gamma < delta")
        self.c = float(c)
        self.gamma = float(gamma)
        self.delta = float(delta)
        self.q = float(q)
        self._check_finite()

    @property
    def domain(self):
        return self.gamma, self.delta

    def max_value(self):
        return self.c * (self.delta - self.gamma) ** self.q

    def integrals(self, beta, lo, hi):
        length = self.delta - self.gamma
        end = self.gamma if self._sign > 0 else self.delta
        s0, s1 = sorted((self._sign * (lo - end) / length, self._sign * (hi - end) / length))
        m = self.q * beta
        mass = (s1 ** (m + 1.0) - s0 ** (m + 1.0)) / (m + 1.0)
        # t = end + _sign L s
        moment = end * mass + self._sign * length * (s1 ** (m + 2.0) - s0 ** (m + 2.0)) / (m + 2.0)
        return length * mass, length * moment, self.max_value()

    def _params(self):
        return {"c": self.c, "gamma": self.gamma, "delta": self.delta, "q": self.q}


class DecreasingPowerProfile(_PowerLawProfile):
    """h(t) = c (delta - t)^q on [gamma, delta]; vanishes at the right endpoint."""

    kind = "decreasing-power"
    _sign = -1.0

    def value(self, t):
        t = _check_in_domain(t, self.domain)
        return self.c * np.maximum(self.delta - t, 0.0) ** self.q


class IncreasingPowerProfile(_PowerLawProfile):
    """h(t) = c (t - gamma)^q on [gamma, delta]; vanishes at the left endpoint."""

    kind = "increasing-power"
    _sign = 1.0

    def value(self, t):
        t = _check_in_domain(t, self.domain)
        return self.c * np.maximum(t - self.gamma, 0.0) ** self.q


class BallSectionProfile(AnalyticProfile):
    """Section-volume profile of a Euclidean ball in R^dim.

    h(t) = kappa_{dim-1} (radius^2 - (t - center)^2)^{(dim-1)/2}. With
    x = (t - center) / radius and g = (dim - 1) beta / 2, h^beta is
    max^beta (1 - x^2)^g, so every mass at the scale max is a difference
    of incomplete beta integrals B_y(g + 1, g + 1) at y = (1 + x) / 2 (see
    _ball_tail) and every moment is center times the mass plus an elementary
    odd term, exact on every sub-interval at every beta.
    """

    kind = "ball-section"

    def __init__(self, radius, dim, center=0.0):
        if not radius > 0.0:
            raise ProfileError("radius must be positive")
        if dim < 2 or int(dim) != dim:
            raise ProfileError("ambient dimension must be an integer >= 2")
        self.radius = float(radius)
        self.dim = int(dim)
        self.center = float(center)
        self._kappa = unit_ball_volume(self.dim - 1)
        self._check_finite()

    @property
    def domain(self):
        return self.center - self.radius, self.center + self.radius

    def value(self, t):
        t = _check_in_domain(t, self.domain)
        x = np.asarray(t, dtype=float) - self.center
        return self._kappa * np.maximum(self.radius ** 2 - x * x, 0.0) ** ((self.dim - 1) / 2.0)

    def max_value(self):
        return self._kappa * self.radius ** (self.dim - 1)

    def _ends(self, t):
        """(y, 1 - y) at t, y = (t - a) / (2 radius), each side measured from
        its own end of the domain so that it is exactly 0 there."""
        a, b = self.domain
        w = 2.0 * self.radius
        return max(t - a, 0.0) / w, max(b - t, 0.0) / w

    def integrals(self, beta, lo, hi):
        e = 0.5 * (self.dim - 1) * beta + 1.0
        (p0, q0), (p1, q1) = self._ends(lo), self._ends(hi)
        if p1 <= 0.5:  # left of the centre: two left tails
            unit = _ball_tail(p1, q1, e) - _ball_tail(p0, q0, e)
        elif q0 <= 0.5:  # right of the centre: two right tails
            unit = _ball_tail(q0, p0, e) - _ball_tail(q1, p1, e)
        else:  # across the centre: the whole less each side's own tail
            unit = 2.0 * _ball_tail(0.5, 0.5, e) - _ball_tail(p0, q0, e) - _ball_tail(q1, p1, e)
        mass = max(unit, 0.0) * self.radius
        # int x (1 - x^2)^g dx = -(1 - x^2)^(g + 1) / (2 (g + 1)), with 1 - x^2 = 4 y (1 - y)
        odd = ((4.0 * p0 * q0) ** e - (4.0 * p1 * q1) ** e) / (2.0 * e)
        return mass, self.center * mass + odd * self.radius * self.radius, self.max_value()

    def _params(self):
        return {"radius": self.radius, "dim": self.dim, "center": self.center}


_BETA_CF_TINY = 1e-300
_BETA_CF_EPS = 4e-16
_BETA_CF_MAX_ITER = 10_000  # about 0.9 sqrt(e) iterations at y = 1/2


def _ball_tail(y, z, e):
    """int_{-1}^{2y - 1} (1 - x^2)^(e - 1) dx for y <= 1/2 and z = 1 - y.

    It is 2^(2e - 1) B(e, e) I_y(e, e); with the continued fraction of the
    regularized incomplete beta I_y(e, e), evaluated by the modified Lentz
    method, the complete beta function cancels and the tail is
    (4 y z)^e / (2 e) times the fraction. The fraction converges fast for
    y <= 1/2, which is why callers measure each tail from its own end (by
    symmetry, I_y(e, e) = 1 - I_(1-y)(e, e)). Raises ConvergenceError past
    _BETA_CF_MAX_ITER iterations.
    """
    if y <= 0.0:
        return 0.0
    lead = (4.0 * y * z) ** e / (2.0 * e)
    c, d = 1.0, 1.0 - 2.0 * e * y / (e + 1.0)
    d = 1.0 / (d if abs(d) > _BETA_CF_TINY else _BETA_CF_TINY)
    frac = d
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        for num in (m * (e - m) * y / ((e + 2.0 * m - 1.0) * (e + 2.0 * m)),
                    -(e + m) * (2.0 * e + m) * y / ((e + 2.0 * m) * (e + 2.0 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _BETA_CF_TINY else _BETA_CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _BETA_CF_TINY else _BETA_CF_TINY
            frac *= c * d
        if abs(c * d - 1.0) <= _BETA_CF_EPS:
            return lead * frac
    raise ConvergenceError(
        f"incomplete beta fraction at index {e:g} did not converge in "
        f"{_BETA_CF_MAX_ITER} iterations", best_estimate=lead * frac)


class PowerProfile:
    """Lazy pointwise power base(t)^exponent of another profile.

    Integrals of (base^e)^beta are integrals of base^(e*beta), which
    _integrals takes from the base, so the wrapper stays exact whenever the
    base is.
    """

    def __init__(self, base, exponent):
        _check_power("exponent", exponent)
        self.base = base
        self.exponent = float(exponent)

    @property
    def domain(self):
        return self.base.domain

    @property
    def quadrature_breakpoints(self):
        return self.base.quadrature_breakpoints

    def value(self, t):
        return np.maximum(self.base.value(t), 0.0) ** self.exponent

    def max_value(self):
        return self.base.max_value() ** self.exponent

    def __repr__(self):
        return f"PowerProfile({self.base!r} ** {self.exponent:g})"


def power_profile(base, exponent):
    """Raise a profile to a positive power, collapsing closed forms eagerly
    unless the collapsed maximum leaves the float range."""
    _check_power("exponent", exponent)
    if exponent == 1.0:
        return base
    if isinstance(base, PowerProfile):
        return power_profile(base.base, base.exponent * exponent)
    try:
        if isinstance(base, ConstantProfile):
            return ConstantProfile(base.c ** exponent, base.gamma, base.delta)
        if isinstance(base, _PowerLawProfile):
            return type(base)(base.c ** exponent, base.gamma, base.delta, base.q * exponent)
    except (OverflowError, ProfileError):
        pass
    return PowerProfile(base, exponent)


def reflect(h):
    """The profile t -> h(-t), with the matching reversed domain."""
    if isinstance(h, PowerProfile):
        return PowerProfile(reflect(h.base), h.exponent)
    if isinstance(h, PiecewiseLinear):  # a ConcaveProfile stays one
        return type(h)(np.column_stack([-h.ts[::-1], h.hs[::-1]]))
    if isinstance(h, ConstantProfile):
        return ConstantProfile(h.c, -h.delta, -h.gamma)
    if isinstance(h, DecreasingPowerProfile):
        return IncreasingPowerProfile(h.c, -h.delta, -h.gamma, h.q)
    if isinstance(h, IncreasingPowerProfile):
        return DecreasingPowerProfile(h.c, -h.delta, -h.gamma, h.q)
    if isinstance(h, BallSectionProfile):
        return BallSectionProfile(h.radius, h.dim, -h.center)
    raise ProfileError(f"cannot reflect profile of type {type(h).__name__}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_ANALYTIC_KINDS = {
    "constant": lambda p: ConstantProfile(p["c"], p["gamma"], p["delta"]),
    "increasing-power": lambda p: IncreasingPowerProfile(p["c"], p["gamma"], p["delta"], p["q"]),
    "decreasing-power": lambda p: DecreasingPowerProfile(p["c"], p["gamma"], p["delta"], p["q"]),
    "ball-section": lambda p: BallSectionProfile(p["radius"], p["dim"], p.get("center", 0.0)),
}


def profile_from_json(data):
    """Build a profile from its JSON object form.

    {"breakpoints": [[t, h], ...]} yields a ConcaveProfile when the data
    certifies concave, otherwise a raw PiecewiseLinear. {"kind": ...,
    "params": {...}} yields the matching analytic family.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ProfileError("profile JSON must be an object")
    if "breakpoints" in data:
        try:
            return ConcaveProfile(data["breakpoints"])
        except DegenerateProfileError:
            raise
        except ProfileError:
            return PiecewiseLinear(data["breakpoints"])
    if "kind" in data:
        kind = data["kind"]
        if kind not in _ANALYTIC_KINDS:
            raise ProfileError(f"unknown analytic profile kind {kind!r}")
        try:
            return _ANALYTIC_KINDS[kind](dict(data.get("params", {})))
        except KeyError as exc:
            raise ProfileError(f"missing parameter {exc} for kind {kind!r}") from exc
    raise ProfileError("profile JSON needs either 'breakpoints' or 'kind'")


def profile_to_json(profile):
    return profile.to_json()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _check_in_domain(t, domain):
    a, b = domain
    slack = 1e-12 * max(b - a, 1.0)
    t_arr = np.asarray(t, dtype=float)
    if not np.all((a - slack <= t_arr) & (t_arr <= b + slack)):  # NaN fails too
        raise DomainError(f"point {t!r} outside profile domain [{a:g}, {b:g}]")
    return np.clip(t_arr, a, b)[()] if np.ndim(t) == 0 else np.clip(t_arr, a, b)


def _check_interval(h, interval):
    a, b = h.domain
    if interval is None:
        return a, b
    lo, hi = float(interval[0]), float(interval[1])
    slack = 1e-12 * max(b - a, 1.0)
    if lo < a - slack or hi > b + slack or hi < lo:
        raise DomainError(
            f"interval [{lo:g}, {hi:g}] not contained in domain [{a:g}, {b:g}]")
    return max(lo, a), min(hi, b)


def evaluate(h, t):
    """Evaluate a profile at t; raises DomainError outside its domain."""
    return float(h.value(t)) if np.ndim(t) == 0 else h.value(t)


def _range_error(what, beta):
    return FloatRangeError(f"{what} at power {beta:g} leaves the float range")


def _in_range(val, what, beta):
    if not math.isfinite(val):
        raise _range_error(what, beta)
    return float(val)


def _integrals(h, beta, interval=None):
    """(mass, moment, (top, power)) of h at power beta >= 0 over the interval,
    where power 0 integrates the indicator of {h > 0}: the integrals of
    (g / top)^power and t (g / top)^power, with g h's innermost base and
    power beta times the exponents of the PowerProfiles around it. The mass
    is range-checked; the moment, which can overflow where the mass does not,
    is left to the callers that read it."""
    lo, hi = _check_interval(h, interval)
    power = beta
    while isinstance(h, PowerProfile):
        power, h = power * h.exponent, h.base
    if not hi > lo:
        return 0.0, 0.0, (1.0, power)
    with np.errstate(over="ignore", invalid="ignore"):  # checked here or by callers
        mass, moment, top = h.integrals(power, lo, hi)
    return max(_in_range(mass, "powered mass", beta), 0.0), float(moment), (top, power)


def _absolute(value, scale, what, beta):
    """value * top^power for a scale (top, power) as _integrals gives it: a
    float, or an array under the caller's numpy error state. Raises
    FloatRangeError when the product leaves the float range."""
    top, power = scale
    try:
        value = value * top ** power
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise _range_error(what, beta)
    return value


def powered_integral(h, beta, interval=None):
    """int h(t)^beta dt over the interval (default: full domain).

    Raises FloatRangeError when the integral leaves the float range.
    """
    _check_power("beta", beta)
    mass, _, scale = _integrals(h, beta, interval)
    return _absolute(mass, scale, "powered mass", beta)


def moment_integral(h, beta, interval=None):
    """int t h(t)^beta dt over the interval (default: full domain).

    Raises FloatRangeError when the integral leaves the float range.
    """
    _check_power("beta", beta)
    _, moment, scale = _integrals(h, beta, interval)
    return _absolute(moment, scale, "powered moment", beta)


def powered_split(h, beta, cut):
    """(int_a^b h^beta, int_cut^b h^beta) for a cut inside the domain.

    beta = 0 gives the lengths of {h > 0} and of its part right of the cut.
    Raises FloatRangeError when the masses leave the float range.
    """
    _check_exponent("beta", beta)
    b = h.domain[1]
    cut = _check_interval(h, (cut, b))[0]
    if isinstance(h, PiecewiseLinear):
        total, right = _mass_tail(h.ts, h._unit[None], beta, np.array([cut]))
        total, right = (float(total[0]), (h._top, beta)), (float(right[0]), (h._top, beta))
    else:
        total, right = _integrals(h, beta)[::2], _integrals(h, beta, (cut, b))[::2]
    return _absolute(*total, "powered mass", beta), _absolute(*right, "powered mass", beta)


def _centroid_mass(h, alpha):
    """(g_alpha(h), mass, scale) from one integration of h, as _integrals."""
    total, moment, scale = _integrals(h, alpha)
    moment = _in_range(moment, "powered moment", alpha)
    if not total > 0.0:
        raise DegenerateProfileError("zero total powered mass; centroid undefined")
    a, b = h.domain
    return min(max(moment / total, a), b), total, scale


def alpha_centroid(h, alpha):
    """Weighted mean g_alpha(h) = int t h^alpha / int h^alpha.

    alpha = 0 weighs by the indicator of {h > 0} (the alpha -> 0 limit), so
    it gives the centroid of {h > 0}: about the midpoint on a profile
    positive inside its domain, as every concave one is. Scale-free: it is
    read from the integrals at the scale the profile names, so it stays in
    range at every alpha.
    """
    _check_exponent("alpha", alpha)
    return _centroid_mass(h, alpha)[0]


def _ratio_cut(h, alpha, beta):
    """The tail ratio and its cut; at alpha = beta the centroid's mass is the total."""
    cut, total, (top, power) = _centroid_mass(h, alpha)
    if beta != alpha:
        total, _, (top, power) = _integrals(h, beta)
    right, _, (top_right, _) = _integrals(h, beta, (cut, h.domain[1]))
    if not total > 0.0:
        raise DegenerateProfileError("zero total powered mass")
    if not right > 0.0:  # an empty tail (a cut rounded onto b) names the scale 1
        return 0.0, cut
    return _absolute(right / total, (top_right / top, power), "tail ratio", beta), cut


def _tail_ratio_cut(h, alpha, beta):
    """The tail-mass ratio of h and the alpha-centroid it is cut at."""
    _check_exponent("alpha", alpha)
    _check_exponent("beta", beta)
    if isinstance(h, PiecewiseLinear):
        if not h._top > 0.0:
            raise DegenerateProfileError("zero total powered mass")
        with np.errstate(over="ignore", invalid="ignore"):  # a moment far from t = 0 overflows
            ratio, cut = _tail_ratios(h.ts, h.hs[None], alpha, beta)
        ratio, cut = float(ratio[0]), float(cut[0])
        if not (math.isfinite(ratio) and math.isfinite(cut)):
            raise FloatRangeError(f"tail ratio at powers ({alpha:g}, {beta:g}) is not finite: "
                                  "a mass or a moment about t = 0 leaves the float range")
        return ratio, cut
    return _ratio_cut(h, alpha, beta)


def tail_mass_ratio(h, alpha, beta):
    """Right-tail powered-mass fraction cut at the alpha-centroid.

    Returns int_{g_alpha(h)}^b h^beta / int_a^b h^beta, a number in (0, 1).
    Power 0 (alpha or beta) weighs by the indicator of {h > 0}, the limit as
    the power tends to 0: beta = 0 gives the length of {h > 0} right of the
    cut over the length of {h > 0}. Scale-free: it is read from the
    integrals at the scales the profile names, so it stays in range at every
    power.
    """
    return _tail_ratio_cut(h, alpha, beta)[0]


def integration_provenance(h, powers):
    """Describe how a report's integrals of h at these powers were computed.

    "exact" when closed forms, or a Gauss rule that is exact at that power,
    gave the mass and the moment at every power; otherwise the fixed Gauss
    rule of a spline profile served some, and its node count is named.
    """
    while isinstance(h, PowerProfile):
        powers, h = [p * h.exponent for p in powers], h.base
    nodes = [n for n, exact in map(h._rule, powers) if not exact] if hasattr(h, "_rule") else []
    if not nodes:
        return {"kind": "exact"}
    return {"kind": "quadrature", "rule": "gauss-legendre, gauss-jacobi at ends",
            "nodes": max(nodes)}


# ---------------------------------------------------------------------------
# concavity certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcavityCheck:
    """Result of a discrete concavity test.

    ok is True when every sampled triple satisfies the chord inequality within
    tolerance; witness holds the worst triple (t0, t1, t2, violation) scaled
    by the profile's maximum.
    """

    ok: bool
    max_violation: float
    witness: tuple | None


def _unwrap_piecewise_linear(f):
    g = f
    while isinstance(g, PowerProfile):
        g = g.base
    return g if isinstance(g, PiecewiseLinear) else None


def _concavity_triples(f):
    """Sample triples (t0, t1, t2) for the discrete chord test.

    For piecewise-linear data the triples are the across-knot ones plus one
    midpoint triple per segment: checking consecutive points of the refined
    grid instead would test the interpolant against itself and falsely fail
    exactly p-concave sample sets. Analytic profiles use a uniform grid.
    """
    a, b = f.domain
    pl = _unwrap_piecewise_linear(f)
    if pl is not None:
        knots = pl.ts
        mids = 0.5 * (knots[:-1] + knots[1:])
        t0 = np.concatenate([knots[:-2], knots[:-1]])
        t1 = np.concatenate([knots[1:-1], mids])
        t2 = np.concatenate([knots[2:], knots[1:]])
        return t0, t1, t2
    knots = np.asarray(getattr(f, "quadrature_breakpoints", [a, b]), dtype=float)
    pts = np.union1d(knots, np.linspace(a, b, _CONCAVITY_GRID))
    return pts[:-2], pts[1:-1], pts[2:]


def _knot_chords(ts, hs):
    """Chord violations at the interior knots of each row of hs (B, m) or (m,)
    over the row's maximum: p_concavity_check's across-knot triples at p = 1."""
    t0, t1, t2 = ts[..., :-2], ts[..., 1:-1], ts[..., 2:]
    lam = (t1 - t0) / (t2 - t0)
    scale = np.maximum(hs.max(axis=-1, keepdims=True), 1e-300)
    return ((1.0 - lam) * hs[..., :-2] + lam * hs[..., 2:] - hs[..., 1:-1]) / scale


def p_concavity_check(f, p, tol=CONCAVITY_TOL):
    """Certify that f^p is concave by discrete chord tests.

    Every sampled triple of the powered values must lie above its chord
    within tol (relative to the powered maximum). Total: never raises on a
    valid profile; a failure returns the violating triple as witness.
    """
    _check_power("p", p)
    t0, t1, t2 = _concavity_triples(f)
    pts, inverse = np.unique(np.concatenate([t0, t1, t2]), return_inverse=True)
    vals = np.maximum(np.asarray(f.value(pts), dtype=float), 0.0) ** p
    g0, g1, g2 = np.split(vals[inverse], 3)
    scale = max(vals.max(), 1e-300)
    lam = (t1 - t0) / (t2 - t0)
    viol = ((1.0 - lam) * g0 + lam * g2 - g1) / scale
    worst = int(np.argmax(viol))
    max_violation = float(viol[worst])
    if max_violation <= tol:
        return ConcavityCheck(True, max_violation, None)
    witness = (float(t0[worst]), float(t1[worst]), float(t2[worst]), max_violation)
    return ConcavityCheck(False, max_violation, witness)


def _certify_p_concave(f, p, what):
    """Raise PreconditionError unless f^p passes the chord test, which a
    ConcaveProfile passed at p = 1 when it was built."""
    if p == 1.0 and isinstance(f, ConcaveProfile):
        return
    check = p_concavity_check(f, p)
    if not check.ok:
        raise PreconditionError(
            f"{what} is not {p:g}-concave (violation {check.max_violation:.3e} "
            f"at triple {check.witness[:3]})", witness=check.witness)


@dataclass(frozen=True)
class SuperlevelCheck:
    """Concavity verdict for s -> W(s)^(1/(beta+1)) on a uniform level grid."""

    ok: bool
    max_violation: float
    worst_level: float


def superlevel_masses(h, beta, levels):
    """W(s) = (1/beta) int_{h >= s} (h(t)^beta - s^beta) dt for each level s.

    This is the mass, under the weight y^{beta-1} dy dt, of the part of the
    hypograph of h lying above height s. Exact per segment for piecewise-
    linear h, the only kind it takes; vectorized over levels.
    """
    _check_power("beta", beta)
    if not isinstance(h, PiecewiseLinear):
        raise ProfileError(f"superlevel masses need a piecewise-linear profile, "
                           f"not {type(h).__name__}")
    ts, hs = h.ts, h.hs
    s = np.asarray(levels, dtype=float)[:, None]
    t0, t1 = ts[:-1][None, :], ts[1:][None, :]
    h0, h1 = hs[:-1][None, :], hs[1:][None, :]
    slope = (h1 - h0) / (t1 - t0)
    rising = slope > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cross = t0 + (s - h0) / np.where(slope == 0.0, 1.0, slope)
    lo = np.where(rising & (h0 < s), np.minimum(np.maximum(t_cross, t0), t1), t0)
    hi = np.where(~rising & (h1 < s), np.minimum(np.maximum(t_cross, t0), t1), t1)
    flat_out = (slope == 0.0) & (h0 < s)
    hi = np.where(flat_out, lo, hi)
    hi = np.maximum(hi, lo)
    ha = np.maximum(h0 + slope * (lo - t0), s)
    hb = np.maximum(h0 + slope * (hi - t0), s)
    mass = _segments(ha, hb, hi - lo, beta, False)[0] - s ** beta * (hi - lo)
    return np.maximum(mass.sum(axis=1), 0.0) / beta


def superlevel_measure_concavity_check(h, beta, grid_size=512, tol=1e-7):
    """Test concavity of W^(1/(beta+1)) on a uniform grid over [0, max h].

    W(s) is the superlevel mass of superlevel_masses; the verdict compares
    centered second differences against tol (positive difference = violation).

    The property is a theorem for beta >= 1: W is the mass of a family of
    sets that is convex in s, under the weight y^(beta-1), which is
    1/(beta-1)-concave on R^2, so Borell's theorem makes W^(1/(beta+1))
    concave. For 0 < beta < 1 it fails at both ends of [0, max h]. At s = 0,
    W'(s) = -s^(beta-1) |{h >= s}| -> -inf, a cusp that the check reports at
    the first interior level. At a strict maximum M, W^(1/(beta+1)) behaves
    like (M - s)^(2/(beta+1)), which is convex. What does hold for
    0 < beta <= 1 is the form in sigma = s^beta: sigma -> W(sigma^(1/beta))^(1/2)
    is concave on [0, (max h)^beta], because beta * W(sigma^(1/beta)) is the
    area above height sigma of the hypograph of h^beta, a convex set, and
    Brunn-Minkowski applies. At beta = 1 the two forms coincide.
    """
    _check_power("beta", beta)
    if grid_size < 3:
        raise ParameterError("grid_size must be at least 3")
    levels = np.linspace(0.0, h.max_value(), int(grid_size))
    u = superlevel_masses(h, beta, levels) ** (1.0 / (beta + 1.0))
    d2 = u[2:] - 2.0 * u[1:-1] + u[:-2]
    worst = int(np.argmax(d2))
    return SuperlevelCheck(bool(d2[worst] <= tol), float(d2[worst]),
                           float(levels[worst + 1]))


def tail_masses(h, beta, cuts):
    """int_{max(s, a)}^{b} h^beta dt for an array of cut positions s.

    Cuts at or beyond b give 0. beta = 0 gives the length of {h > 0} right
    of each cut. For piecewise-linear profiles this is the mass of the
    segments right of each cut plus that of its partial segment.
    """
    _check_exponent("beta", beta)
    a, b = h.domain
    s = np.clip(np.asarray(cuts, dtype=float), a, b)
    if isinstance(h, PiecewiseLinear):
        ts, hs = h.ts, h._unit
        full, _ = _segments(hs[:-1], hs[1:], np.diff(ts), beta, False)
        after = np.append(np.cumsum(full[::-1])[::-1], 0.0)  # segments i, i + 1, ...
        i = np.searchsorted(ts[1:-1], s, side="right")  # the segment holding s
        hcut = hs[i] + (hs[i + 1] - hs[i]) / (ts[i + 1] - ts[i]) * (s - ts[i])
        part, _ = _segments(hcut, hs[i + 1], ts[i + 1] - s, beta, False)
        with np.errstate(over="ignore"):
            return _absolute(part + after[i + 1], (h._top, beta), "powered mass", beta)
    return np.array([_absolute(mass, scale, "powered mass", beta)
                     for mass, _, scale in (_integrals(h, beta, (si, b)) for si in s)])
