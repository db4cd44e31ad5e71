"""Random concave profiles and extremal search on the tail-mass ratio.

The search probes sharpness of the tail-mass bounds by minimizing

    R(h) = int_{g_alpha(h)}^b h^beta / int_a^b h^beta

over concave piecewise-linear profiles on [0, 1] with max ordinate 1 (both
normalizations leave R invariant). The optimizer is deliberately simple:
seeded multi-restart coordinate descent on the ordinates, with re-sorting of
the slope sequence as the concavity projection. Determinism: a fixed seed
fixes the entire trajectory; restarts and sweep trials use independently
derived generators.

Every ratio comes from the profile engine's segment kernel applied to a
(B, m) stack of profiles: the restarts of a search move in lockstep as one
stack, and a sweep cell evaluates all of its trials in one call. A stacked
row gives bitwise the same ratio as the same row alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .bounds import functional_bound
from .errors import ParameterError
from .profiles import CONCAVITY_TOL, ConcaveProfile, _check_exponent, _knot_chords, _tail_ratios

_MIN_GAP = 1e-3  # minimum abscissa spacing in random profiles, relative to the domain
_STEP_INIT, _STEP_FINAL = 0.3, 1e-4  # descent step, decayed geometrically over the budget


# ---------------------------------------------------------------------------
# random concave profiles
# ---------------------------------------------------------------------------

def _check_draw(m, domain):
    if m < 3:
        raise ParameterError(f"need at least 3 breakpoints, got {m}")
    if (m - 1) * _MIN_GAP > 1.0:
        raise ParameterError(f"at most {round(1.0 / _MIN_GAP) + 1} breakpoints fit "
                             f"the minimum gap {_MIN_GAP}, got {m}")
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ParameterError("domain must have positive length")
    return a, b


def _gaps(rng, n):
    """n abscissa gaps summing to 1, each at least _MIN_GAP.

    The law is that of the endpoints plus the m - 2 middle order statistics
    of m = n + 1 uniforms, conditioned on every gap >= _MIN_GAP. Unconditioned
    those gaps are Dirichlet(2, 1, ..., 1, 2). Writing gap = g + f y with
    g = _MIN_GAP and f = 1 - n g, the conditioned y has density proportional
    to (g + f y_0)(g + f y_last) on the simplex: a mixture of the Dirichlet
    laws with 1 or 2 at either end, weighted g^2 n (n+1), g f (n+1),
    g f (n+1) and f^2. A Gamma(2) draw is the sum of two exponential ones.
    """
    g = _MIN_GAP
    free = 1.0 - n * g
    end = g * free * (n + 1)
    weights = np.cumsum([g * g * n * (n + 1), end, end, free * free])
    part = int(np.searchsorted(weights, rng.random() * weights[-1], side="right"))
    y = rng.standard_exponential(n + 2)
    gaps = y[:n]
    gaps[0] += y[n] * (part in (1, 3))
    gaps[-1] += y[n + 1] * (part >= 2)
    return g + free * gaps / gaps.sum()


def _draw(rng, m, a, b):
    """One profile's random draws, in the generator's order: abscissas,
    slopes, and the lift (0 when the minimum stays at zero)."""
    ts = np.empty(m)
    ts[0] = 0.0
    np.cumsum(_gaps(rng, m - 1), out=ts[1:])
    ts = a + (b - a) * ts
    ts[-1] = b
    slopes = rng.normal(0.0, 2.0 / (b - a), m - 1)
    lift = rng.uniform(0.05, 0.5) if rng.random() < 0.5 else 0.0
    return ts, slopes, lift


def _random_stack(seeds, m, domain=(0.0, 1.0)):
    """Abscissas and ordinates, each (B, m), of random_concave(seed, m, domain)
    for every seed; the ordinates are built for the whole stack at once."""
    a, b = _check_draw(m, domain)
    n = len(seeds)
    ts, slopes, lift = np.empty((n, m)), np.empty((n, m - 1)), np.empty(n)
    for k, seed in enumerate(seeds):
        ts[k], slopes[k], lift[k] = _draw(np.random.default_rng(seed), m, a, b)
    # strictly decreasing slopes, even under ties
    slopes = np.sort(slopes, axis=1)[:, ::-1] - np.arange(m - 1) * 1e-9
    hs = np.zeros(ts.shape)
    np.cumsum(slopes * np.diff(ts, axis=1), axis=1, out=hs[:, 1:])
    hs -= hs.min(axis=1, keepdims=True)
    hs += (lift * np.maximum(hs.max(axis=1), 1e-12))[:, None]
    hs /= hs.max(axis=1, keepdims=True)
    return ts, hs


def random_concave(seed, m, domain=(0.0, 1.0)):
    """Draw a random concave profile with m breakpoints, valid by construction.

    Abscissas are sorted uniforms with the endpoints pinned and every gap at
    least _MIN_GAP of the domain, drawn directly (m <= 1001). Ordinates come
    from a strictly decreasing random slope sequence (sorted normal draws),
    shifted nonnegative and scaled to max 1; with probability 1/2 the minimum
    stays at an endpoint zero, otherwise the profile is lifted. The same seed
    always returns the same profile.
    """
    ts, hs = _random_stack([seed], m, domain)
    return ConcaveProfile(np.column_stack([ts[0], hs[0]]))


def _check_concave_rows(ts, hs):
    """Raise what ConcaveProfile raises for the first row it would reject.

    The vectorized test flags every row that may break an invariant (order,
    sign, concavity, interior positivity, positive maximum); the constructor
    then decides on the flagged rows alone.
    """
    bad = (~np.isfinite(ts).all(axis=1) | ~np.isfinite(hs).all(axis=1)
           | (np.diff(ts, axis=1) <= 0.0).any(axis=1) | (hs < 0.0).any(axis=1)
           | (_knot_chords(ts, hs) > CONCAVITY_TOL).any(axis=1)
           | (hs[:, 1:-1] <= 0.0).any(axis=1)
           | ~(hs.max(axis=1) > 0.0))
    for k in np.flatnonzero(bad):
        ConcaveProfile(np.column_stack([ts[k], hs[k]]))


# ---------------------------------------------------------------------------
# tail ratios and the concavity projection on (B, m) stacks
# ---------------------------------------------------------------------------

def tail_ratio_grid(ts, hs, alpha, beta):
    """Tail-mass ratio of the PL profile (ts, hs) without object overhead."""
    _check_exponent("alpha", alpha)
    _check_exponent("beta", beta)
    ts = np.asarray(ts, dtype=float)
    hs = np.asarray(hs, dtype=float)
    return float(_tail_ratios(ts, hs[None, :], alpha, beta)[0][0])


def _project_concave(ts, hs):
    """Concavity projection of each row of hs (B, m): re-sort the slope
    sequence, shift to min 0, scale to max 1.

    Returns (rows, feasible); a row is infeasible when it comes out flat or
    with a zero inside.
    """
    dt = np.diff(ts)
    slopes = np.sort(np.diff(hs, axis=1) / dt, axis=1)[:, ::-1]
    out = np.empty_like(hs)
    out[:, 0] = hs[:, 0]
    np.cumsum(slopes * dt, axis=1, out=out[:, 1:])
    out[:, 1:] += hs[:, :1]
    out -= out.min(axis=1, keepdims=True)
    mx = out.max(axis=1)
    feasible = mx > 0.0
    out /= np.where(feasible, mx, 1.0)[:, None]
    feasible &= (out[:, 1:-1] > 0.0).all(axis=1)
    return out, feasible


# ---------------------------------------------------------------------------
# the search itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    alpha: float
    beta: float
    seed: int
    m: int = 16
    budget: int = 10_000
    restarts: int = 8

    def __post_init__(self):
        _check_exponent("alpha", self.alpha)
        _check_exponent("beta", self.beta)
        if self.m < 3:
            raise ParameterError("m must be at least 3")
        if self.budget < 1:
            raise ParameterError("budget must be at least 1")
        if self.restarts < 1:
            raise ParameterError("restarts must be at least 1")
        if self.seed is None:
            raise ParameterError("search requires an explicit seed")


@dataclass(frozen=True)
class SearchResult:
    profile: ConcaveProfile
    ratio: float
    bound: float
    gap: float
    trace: list = field(default_factory=list)
    config: SearchConfig | None = None


def minimize_tail_ratio(config):
    """Seeded multi-restart coordinate descent; gap >= -1e-9 always.

    Restart k draws from its own generator [seed, k]. All restarts move in
    lockstep as one (restarts, m) stack and follow the same trajectories as
    if each ran alone; the trace lists each restart's accepted moves
    (k, iteration, ratio) in order, restart by restart.

    A gap below -1e-9 would falsify the underlying inequality and raises
    RuntimeError; nothing downstream should ever see it.
    """
    m, alpha, beta = config.m, config.alpha, config.beta
    ts = np.linspace(0.0, 1.0, m)
    bound = functional_bound(alpha, beta).value
    decay = (_STEP_FINAL / _STEP_INIT) ** (1.0 / max(config.budget, 1))
    rngs = [np.random.default_rng([config.seed, k]) for k in range(config.restarts)]
    hs, feasible = _project_concave(
        ts, np.array([np.maximum(rng.uniform(0.0, 1.0, m), 1e-3) for rng in rngs]))
    hs[~feasible] = 1.0 - 0.5 * ts
    cur, _ = _tail_ratios(ts, hs, alpha, beta)
    traces = [[] for _ in rngs]
    rows = np.arange(len(rngs))
    cols = np.empty(len(rngs), dtype=np.intp)
    moves = np.empty(len(rngs))
    step = _STEP_INIT
    for it in range(config.budget):
        for k, rng in enumerate(rngs):
            cols[k] = rng.integers(0, m)
            # same draws as rng.choice((-1.0, 1.0)), at a fraction of its cost
            moves[k] = (-1.0, 1.0)[rng.integers(0, 2)] * step * rng.uniform(0.1, 1.0)
        prop = hs.copy()
        prop[rows, cols] = np.maximum(prop[rows, cols] + moves, 0.0)
        proj, feasible = _project_concave(ts, prop)
        step = max(step * decay, _STEP_FINAL)
        if not feasible.any():
            continue
        vals, _ = _tail_ratios(ts, np.where(feasible[:, None], proj, hs), alpha, beta)
        accept = feasible & (vals < cur - 1e-15)
        for k in np.flatnonzero(accept):
            traces[k].append((int(k), it, float(vals[k])))
        hs[accept] = proj[accept]
        cur[accept] = vals[accept]
    best = int(np.argmin(cur))
    best_ratio = float(cur[best])
    gap = best_ratio - bound
    if gap < -1e-9:
        raise RuntimeError(
            f"search found ratio {best_ratio!r} below the sharp bound {bound!r}: "
            "this falsifies the inequality and is a build-stopping failure")
    profile = ConcaveProfile(np.column_stack([ts, hs[best]]))
    return SearchResult(profile=profile, ratio=best_ratio, bound=float(bound),
                        gap=float(gap), trace=[t for trace in traces for t in trace],
                        config=config)


# ---------------------------------------------------------------------------
# falsification sweep
# ---------------------------------------------------------------------------

def profile_hash(profile):
    """Stable short hash of a profile's breakpoints (for sweep provenance)."""
    return hashlib.sha256(np.ascontiguousarray(
        profile.breakpoints).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    beta: float
    trials: int
    min_slack: float
    argmin_profile_hash: str
    seed: int


@dataclass(frozen=True)
class SweepTable:
    rows: tuple

    COLUMNS = ("alpha", "beta", "trials", "min_slack", "argmin_profile_hash", "seed")

    @property
    def violations(self):
        return sum(1 for r in self.rows if r.min_slack < -1e-9)

    def to_csv(self, stream=None):
        own = stream is None
        if own:
            stream = io.StringIO()
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        for r in self.rows:
            writer.writerow([repr(r.alpha), repr(r.beta), r.trials,
                             repr(r.min_slack), r.argmin_profile_hash, r.seed])
        return stream.getvalue() if own else None


def sweep(alpha_grid, beta_grid, trials, seed, m=12):
    """Random-profile falsification sweep over an (alpha, beta) grid.

    Each cell draws its own deterministic batch of profiles, trial k being
    random_concave([seed, i, j, k], m) (so cells are order-independent), and
    records the minimum slack ratio - bound and the profile attaining it.
    """
    if trials < 0:
        raise ParameterError(f"trials must be non-negative, got {trials}")
    rows = []
    for i, alpha in enumerate(alpha_grid):
        for j, beta in enumerate(beta_grid):
            bound = functional_bound(alpha, beta).value
            min_slack, argmin = np.nan, ""
            if trials:
                ts, hs = _random_stack([[seed, i, j, k] for k in range(trials)], m)
                _check_concave_rows(ts, hs)
                slack = _tail_ratios(ts, hs, alpha, beta)[0] - bound
                k = int(np.argmin(slack))
                min_slack = slack[k]
                argmin = profile_hash(ConcaveProfile(np.column_stack([ts[k], hs[k]])))
            rows.append(SweepRow(float(alpha), float(beta), int(trials),
                                 float(min_slack), argmin, int(seed)))
    return SweepTable(rows=tuple(rows))
