"""Random concave profiles and extremal search on the tail-mass ratio.

The search probes sharpness of the tail-mass bounds by minimizing

    R(h) = int_{g_alpha(h)}^b h^beta / int_a^b h^beta

over concave piecewise-linear profiles on [0, 1] with max ordinate 1 (both
normalizations leave R invariant). The optimizer is deliberately simple:
seeded multi-restart coordinate descent on the ordinates, with re-sorting of
the slope sequence as the concavity projection. Determinism: a fixed seed
fixes the entire trajectory; search restart k draws from generator [seed, k],
sweep cell (i, j) draws its trials as one stack from [seed, i, j].

Every ratio comes from the profile engine's segment kernel applied to a
(B, m) stack of profiles: a sweep cell evaluates all of its trials in one
call, and each round of a search evaluates the next _AHEAD proposals of
every restart, all from its current state, as one stack. A stacked row gives
bitwise the same ratio as the same row alone, so the trajectories are those
of one restart at a time, one step at a time. A restart draws its moves
_BLOCK steps at a time as one block of raw generator words, decoded to
exactly the values of the scalar draws.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .bounds import functional_bound
from .errors import (DegenerateProfileError, ParameterError, ProfileError, check_count,
                     check_exponent)
from .profiles import (CONCAVITY_TOL, ConcaveProfile, _check_breakpoints, _knot_chords,
                       _tail_ratios)

_MIN_GAP = 1e-3  # minimum abscissa spacing in random profiles, relative to the domain
_STEP_INIT, _STEP_FINAL = 0.3, 1e-4  # descent step, decayed geometrically over the budget
_BLOCK = 1024  # descent steps a restart draws from its generator at once
_AHEAD = 4  # proposals per restart evaluated in one kernel round
_LO32 = np.uint64(0xFFFF_FFFF)


# ---------------------------------------------------------------------------
# random concave profiles
# ---------------------------------------------------------------------------

def _check_draw(m, domain=(0.0, 1.0)):
    check_count("m", m, 3, round(1.0 / _MIN_GAP) + 2)  # m - 1 gaps >= _MIN_GAP fit in 1
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ParameterError("domain must have positive length")
    return a, b


def _gaps(rng, rows, n):
    """(rows, n) abscissa gaps, each row summing to 1, each gap >= _MIN_GAP.

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
    part = np.searchsorted(weights, rng.random(rows) * weights[-1], side="right")
    y = rng.standard_exponential((rows, n + 2))
    gaps = y[:, :n]
    gaps[:, 0] += y[:, n] * ((part == 1) | (part == 3))
    gaps[:, -1] += y[:, n + 1] * (part >= 2)
    return g + free * gaps / gaps.sum(axis=1, keepdims=True)


def _random_stack(rng, rows, m, domain=(0.0, 1.0)):
    """Abscissas and ordinates, each (rows, m), of rows random concave
    profiles drawn from rng as one stack: the gaps, then the slopes, the
    coins and the lifts, each drawn once for all rows. A lift drawn on tails
    is not read."""
    a, b = _check_draw(m, domain)
    ts = np.zeros((rows, m))
    np.cumsum(_gaps(rng, rows, m - 1), axis=1, out=ts[:, 1:])
    ts = a + (b - a) * ts
    ts[:, -1] = b
    slopes = rng.normal(0.0, 2.0 / (b - a), (rows, m - 1))
    lift = np.where(rng.random(rows) < 0.5, rng.uniform(0.05, 0.5, rows), 0.0)
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
    stays at an endpoint zero, otherwise the profile is lifted. It is the
    one-row stack of default_rng(seed), so a seed (a non-negative integer or
    a list of them) always gives one profile.
    """
    for part in seed if isinstance(seed, (list, tuple)) else [seed]:
        check_count("seed", part, 0)
    ts, hs = _random_stack(np.random.default_rng(seed), 1, m, domain)
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
    """Tail-mass ratio of the PL profile (ts, hs) without object overhead.

    It raises what tail_mass_ratio(PiecewiseLinear(...), alpha, beta) does:
    ProfileError for breakpoints that are not m >= 2 finite pairs with
    increasing abscissas and non-negative ordinates, DegenerateProfileError
    for zero mass.
    """
    check_exponent("alpha", alpha)
    check_exponent("beta", beta)
    ts = np.asarray(ts, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if ts.ndim != 1 or ts.shape != hs.shape or ts.size < 2:
        raise ProfileError("ts and hs must be 1-D arrays of one length m >= 2")
    _check_breakpoints(ts, hs)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero mass gives nan
        ratio = float(_tail_ratios(ts, hs[None, :], alpha, beta)[0][0])
    if not ratio >= 0.0:
        raise DegenerateProfileError("zero total powered mass")
    return ratio


def _project_concave(ts, hs):
    """Concavity projection of each row of hs (B, m): re-sort the slope
    sequence, shift to min 0, scale to max 1.

    Returns (rows, feasible); a row is infeasible when it comes out flat or
    with a zero inside.
    """
    dt = ts[1:] - ts[:-1]
    slopes = np.sort((hs[:, 1:] - hs[:, :-1]) / dt, axis=1)[:, ::-1]
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
        check_exponent("alpha", self.alpha)
        check_exponent("beta", self.beta)
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))
        object.__setattr__(self, "m", check_count("m", self.m, 3, 1 << 32))
        object.__setattr__(self, "budget", check_count("budget", self.budget, 1))
        object.__setattr__(self, "restarts", check_count("restarts", self.restarts, 1))


@dataclass(frozen=True)
class SearchResult:
    """The best restart's profile and ratio, and how the search got there.

    accepted, rejected and infeasible count, per restart, the steps of its
    trajectory whose proposal lowered the ratio, did not, or was flat or zero
    inside after projection; they sum to the budget. rounds counts kernel
    rounds: one projection call and one tail-ratio call each.
    """

    profile: ConcaveProfile
    ratio: float
    bound: float
    gap: float
    trace: list = field(default_factory=list)
    config: SearchConfig | None = None
    accepted: tuple = ()
    rejected: tuple = ()
    infeasible: tuple = ()
    rounds: int = 0


def _decode_moves(words, m):
    """Decode raw PCG64 words (..., 2n) into what n rounds of the scalar
    draws integers(0, m), integers(0, 2), uniform(0.1, 1.0) take from them.

    numpy's bounded integers are Lemire's method on a 32-bit draw, and PCG64
    serves a word's low half first, then its high half. So word 2i gives the
    column (lo32 * m) >> 32 and the coin (hi32 * 2) >> 32, its top bit; word
    2i + 1 gives the uniform's 53-bit double. Lemire draws again when
    (lo32 * m) mod 2^32 < (2^32 - m) mod m, which shifts every later draw:
    `rejected` flags each row of words where that happens, and its other
    values are then not the scalar draws. Returns (cols, up, mags, rejected).
    """
    even, odd = words[..., 0::2], words[..., 1::2]
    scaled = (even & _LO32) * np.uint64(m)
    cols = (scaled >> np.uint64(32)).astype(np.intp)
    up = (even >> np.uint64(63)) == 1
    mags = 0.1 + (1.0 - 0.1) * ((odd >> np.uint64(11)) * 2.0 ** -53)
    rejected = ((scaled & _LO32) < (2 ** 32 - m) % m).any(axis=-1)
    return cols, up, mags, rejected


def _draw_moves(rngs, m, steps):
    """Columns and moves, each (len(rngs), n), of the next n = steps.size
    descent steps of each generator: column integers(0, m) and move
    (-1.0, 1.0)[integers(0, 2)] * step * uniform(0.1, 1.0), bitwise as the
    scalar draws give them.

    Each generator gives its block as one random_raw call for _decode_moves.
    One that holds half a word back, or whose block meets a Lemire
    rejection, goes back to its saved state and makes the scalar draws.
    """
    n = steps.size
    saved = [rng.bit_generator.state for rng in rngs]
    words = np.stack([rng.bit_generator.random_raw(2 * n) for rng in rngs])
    cols, up, mags, redraw = _decode_moves(words, m)
    for i in np.flatnonzero(redraw | [state["has_uint32"] for state in saved]):
        rng = rngs[i]
        rng.bit_generator.state = saved[i]
        for j in range(n):
            cols[i, j] = rng.integers(0, m)
            up[i, j] = rng.integers(0, 2)
            mags[i, j] = rng.uniform(0.1, 1.0)
    return cols, np.where(up, 1.0, -1.0) * steps * mags


def _decayed_steps(first, decay, n):
    """n steps from first on, each max(step * decay, _STEP_FINAL) of the one
    before: bitwise that loop, since a product below the floor stays below."""
    steps = np.full(n, decay)
    steps[0] = first
    np.multiply.accumulate(steps, out=steps)
    return np.maximum(steps, _STEP_FINAL, out=steps)


def minimize_tail_ratio(config):
    """Seeded multi-restart coordinate descent; gap >= -1e-9 always.

    Restart k draws from its own generator [seed, k]: the initial ordinates,
    then per step a column, a sign and a magnitude scaled by a step size that
    decays geometrically over the budget. A step projects the move; a
    feasible proposal that lowers the ratio by more than 1e-15 is accepted.

    The moves never depend on the state, so each restart draws _BLOCK steps'
    moves at once (_draw_moves), and each kernel round evaluates every
    restart's next _AHEAD proposals from its current state, as one stack; the
    rows of finished restarts and of infeasible proposals are not read. A
    restart takes its first accepted proposal and discards the rest; with
    none accepted it moves past all of them. Every trajectory, the trace
    (k, iteration, ratio) of accepted moves, restart by restart, and the best
    profile are bitwise those of one restart at a time, one step at a time.

    A gap below -1e-9 would falsify the underlying inequality and raises
    RuntimeError; nothing downstream should ever see it.
    """
    m, alpha, beta, budget = config.m, config.alpha, config.beta, config.budget
    ts = np.linspace(0.0, 1.0, m)
    bound = functional_bound(alpha, beta).value
    decay = (_STEP_FINAL / _STEP_INIT) ** (1.0 / budget)
    rngs = [np.random.default_rng([config.seed, k]) for k in range(config.restarts)]
    hs, feasible = _project_concave(
        ts, np.array([np.maximum(rng.uniform(0.0, 1.0, m), 1e-3) for rng in rngs]))
    hs[~feasible] = 1.0 - 0.5 * ts
    cur, _ = _tail_ratios(ts, hs, alpha, beta)
    n = len(rngs)
    traces = [[] for _ in rngs]
    accepted, rejected, infeasible = (np.zeros(n, dtype=np.int64) for _ in range(3))
    # restart k's block of drawn moves; its step pos[k] is entry head[k]
    cols = np.zeros((n, min(_BLOCK, budget) + _AHEAD), dtype=np.intp)
    moves = np.zeros(cols.shape)
    head = np.zeros(n, dtype=np.intp)
    size = np.zeros(n, dtype=np.intp)
    pos = np.zeros(n, dtype=np.intp)
    first_step = {0: _STEP_INIT}  # block start -> the step size there
    ahead = np.arange(_AHEAD)
    rows, restart = np.arange(n * _AHEAD), np.arange(n)[:, None]
    rounds = 0
    # a finished restart has spent its last block: its rows are never valid
    while (pos < budget).any():
        spent = np.flatnonzero((head == size) & (pos < budget))
        for start in set(pos[spent].tolist()):  # each a multiple of _BLOCK
            group = spent[pos[spent] == start]
            steps = _decayed_steps(first_step[start], decay, min(_BLOCK, budget - start))
            first_step[start + steps.size] = max(float(steps[-1]) * decay, _STEP_FINAL)
            cols[group, :steps.size], moves[group, :steps.size] = _draw_moves(
                [rngs[k] for k in group], m, steps)
            head[group], size[group] = 0, steps.size
        at = head[:, None] + ahead
        valid = at < size[:, None]
        prop = np.repeat(hs, _AHEAD, axis=0)
        col = cols[restart, at].ravel()
        prop[rows, col] = np.maximum(prop[rows, col] + moves[restart, at].ravel(), 0.0)
        proj, feasible = _project_concave(ts, prop)
        if not feasible.all():  # a flat row would give 0 / 0; these rows are not read
            proj[~feasible] = 1.0
        feasible = feasible.reshape(valid.shape) & valid
        ratios = _tail_ratios(ts, proj, alpha, beta)[0]
        vals = np.where(feasible, ratios.reshape(valid.shape), np.inf)
        accept = vals < (cur - 1e-15)[:, None]
        hit = accept.any(axis=1)
        # the trajectory takes the first accepted proposal; the rest are not steps
        first = np.where(hit, accept.argmax(axis=1), valid.sum(axis=1))
        seen = ahead < first[:, None]
        accepted += hit
        rejected += (seen & feasible).sum(axis=1)
        infeasible += (seen & ~feasible).sum(axis=1)
        won = np.flatnonzero(hit)
        if won.size:
            w = first[won]
            for k, it, val in zip(won.tolist(), (pos[won] + w).tolist(),
                                  vals[won, w].tolist()):
                traces[k].append((k, it, val))
            hs[won] = proj.reshape(n, _AHEAD, m)[won, w]
            cur[won] = vals[won, w]
        pos += first + hit
        head += first + hit
        rounds += 1
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
                        config=config, accepted=tuple(accepted.tolist()),
                        rejected=tuple(rejected.tolist()),
                        infeasible=tuple(infeasible.tolist()), rounds=rounds)


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

    Trial k of cell (i, j) is row k of one stack drawn from
    default_rng([seed, i, j]), with the law of random_concave (so cells are
    order-independent), and each cell records the minimum slack
    ratio - bound and the profile attaining it.
    """
    trials = check_count("trials", trials, 0)
    seed = check_count("seed", seed, 0)
    _check_draw(m)
    rows = []
    for i, alpha in enumerate(alpha_grid):
        for j, beta in enumerate(beta_grid):
            bound = functional_bound(alpha, beta).value
            min_slack, argmin = np.nan, ""
            if trials:
                ts, hs = _random_stack(np.random.default_rng([seed, i, j]), trials, m)
                _check_concave_rows(ts, hs)
                slack = _tail_ratios(ts, hs, alpha, beta)[0] - bound
                k = int(np.argmin(slack))
                min_slack = slack[k]
                argmin = profile_hash(ConcaveProfile(np.column_stack([ts[k], hs[k]])))
            rows.append(SweepRow(float(alpha), float(beta), trials,
                                 float(min_slack), argmin, seed))
    return SweepTable(rows=tuple(rows))
