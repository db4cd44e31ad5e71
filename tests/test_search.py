"""Random profile generator, coordinate-descent search, falsification sweep."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import grunlab as gl
import grunlab.search as search
from conftest import exact_tail_ratio, project_concave_row, reference_minimize
from grunlab.errors import DegenerateProfileError, ParameterError, ProfileError


def test_random_concave_always_valid():
    for k in range(300):
        prof = gl.random_concave(k, 3 + k % 14)
        assert isinstance(prof, gl.ConcaveProfile)
        assert prof.max_value() == pytest.approx(1.0, rel=1e-12)


def test_random_concave_deterministic():
    a = gl.random_concave(1234, 9)
    b = gl.random_concave(1234, 9)
    assert np.array_equal(a.breakpoints, b.breakpoints)
    c = gl.random_concave(1235, 9)
    assert not np.array_equal(a.breakpoints, c.breakpoints)


def test_random_concave_rejects_small_m():
    with pytest.raises(ParameterError):
        gl.random_concave(0, 2)


@pytest.mark.parametrize("ts,hs,error", [
    ([0.0, 0.5, 1.0], [0.2, math.nan, 0.3], ProfileError),        # NaN ordinate
    ([0.0, 0.5, math.inf], [0.2, 1.0, 0.3], ProfileError),        # infinite abscissa
    ([0.0, 1.0, 0.5], [0.2, 1.0, 0.3], ProfileError),             # unsorted abscissas
    ([0.0, 0.5, 1.0], [0.2, -0.1, 0.3], ProfileError),            # negative ordinate
    ([0.0, 0.5, 1.0], [0.2, 0.3], ProfileError),                  # mismatched lengths
    ([0.0], [1.0], ProfileError),                                 # a single point
    ([0.0, 0.5, 1.0], [[0.2, 1.0, 0.3]], ProfileError),           # 2-D ordinates
    ([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], DegenerateProfileError),   # zero mass
], ids=["nan", "inf", "unsorted", "negative", "lengths", "one-point", "2-d", "zero"])
def test_tail_ratio_grid_raises_what_the_object_path_raises(ts, hs, error):
    with pytest.raises(error):
        gl.tail_ratio_grid(ts, hs, 1.0, 2.0)
    if np.shape(ts) == np.shape(hs):
        with pytest.raises(error):
            gl.tail_mass_ratio(gl.PiecewiseLinear(np.column_stack([ts, hs])), 1.0, 2.0)


def test_tail_ratio_grid_matches_object_path():
    # both paths make the same kernel calls, so they agree bitwise
    for k in range(10):
        prof = gl.random_concave(k, 8)
        for alpha, beta in ((1.3, 2.1), (0.0, 1.0), (2.0, 0.0), (1.0, 2.0)):
            fast = gl.tail_ratio_grid(prof.ts, prof.hs, alpha, beta)
            assert fast == gl.tail_mass_ratio(prof, alpha, beta)
            scaled = gl.ConcaveProfile(np.column_stack([prof.ts, 3.7 * prof.hs]))
            assert gl.tail_mass_ratio(scaled, alpha, beta) == gl.tail_ratio_grid(
                scaled.ts, scaled.hs, alpha, beta)
            bumped = gl.PiecewiseLinear(np.column_stack([prof.ts, prof.hs ** (np.arange(8) % 3)]))
            assert gl.tail_mass_ratio(bumped, alpha, beta) == gl.tail_ratio_grid(
                bumped.ts, bumped.hs, alpha, beta)  # not concave, the same bits


def test_search_deterministic_and_nonnegative_gap():
    cfg = gl.SearchConfig(alpha=2.0, beta=1.0, seed=11, m=10, budget=800, restarts=2)
    r1 = gl.minimize_tail_ratio(cfg)
    r2 = gl.minimize_tail_ratio(cfg)
    assert r1.ratio == r2.ratio
    assert r1.trace == r2.trace
    assert r1.gap >= -1e-9
    assert r1.bound == gl.functional_bound(2.0, 1.0).value


def test_search_converges_toward_equality_case():
    cfg = gl.SearchConfig(alpha=1.0, beta=1.0, seed=3, m=12, budget=4000, restarts=3)
    res = gl.minimize_tail_ratio(cfg)
    assert res.gap <= 2e-2
    assert res.profile.max_value() == pytest.approx(1.0, rel=1e-9)


def test_search_config_validation():
    with pytest.raises(ParameterError):
        gl.SearchConfig(alpha=1, beta=1, seed=1, m=2)
    with pytest.raises(ParameterError):
        gl.SearchConfig(alpha=1, beta=1, seed=1, budget=0)
    with pytest.raises(ParameterError):
        gl.SearchConfig(alpha=1, beta=1, seed=None)


@pytest.mark.parametrize("field,value", [
    ("m", 16.5), ("budget", 2.5), ("restarts", 2.5),  # numpy raised TypeError
    ("seed", -1),                                      # numpy raised ValueError
    ("seed", 1.5),                                     # numpy raised TypeError
    ("restarts", True),                                # ran as one restart
    ("m", True), ("budget", True), ("seed", False),
    ("m", 2 ** 32),                                    # past the 32-bit column decode
    ("m", "16"),
])
def test_search_config_rejects_what_the_search_cannot_run(field, value):
    with pytest.raises(ParameterError, match=field):
        gl.SearchConfig(**{"alpha": 1.0, "beta": 1.0, "seed": 1, field: value})


def test_search_config_takes_numpy_integers_as_ints():
    cfg = gl.SearchConfig(alpha=1.0, beta=1.0, seed=np.uint64(7), m=np.int64(2 ** 31),
                          budget=np.int64(3), restarts=np.int8(2))
    assert (cfg.seed, cfg.m, cfg.budget, cfg.restarts) == (7, 2 ** 31, 3, 2)
    assert all(type(v) is int for v in (cfg.seed, cfg.m, cfg.budget, cfg.restarts))


def test_sweep_default_grid_200_trials_no_violations():
    grid = [0.5, 1.0, 1.5, 2.0, 3.0]
    table = gl.sweep(grid, grid, trials=200, seed=20260808)
    assert len(table.rows) == 25
    assert table.violations == 0
    assert min(r.min_slack for r in table.rows) >= 0.0


def test_sweep_zero_violations_and_determinism():
    t1 = gl.sweep([0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 40, seed=7)
    t2 = gl.sweep([0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 40, seed=7)
    assert t1.violations == 0
    assert t1.to_csv() == t2.to_csv()
    assert all(r.min_slack >= -1e-9 for r in t1.rows)


def test_sweep_csv_columns():
    table = gl.sweep([1.0], [2.0], 5, seed=9)
    text = table.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "alpha,beta,trials,min_slack,argmin_profile_hash,seed"
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "1.0" and row[2] == "5" and row[5] == "9"
    assert len(row[4]) == 16  # profile hash


def test_sweep_empty_grid():
    table = gl.sweep([], [], 10, seed=1)
    assert table.rows == ()
    assert table.violations == 0
    assert table.to_csv().strip() == "alpha,beta,trials,min_slack,argmin_profile_hash,seed"


def test_sweep_rejects_negative_trials():
    with pytest.raises(ParameterError):
        gl.sweep([1.0], [1.0], -1, seed=1)


def test_sweep_cells_are_order_independent():
    full = gl.sweep([0.5, 2.0], [1.0], 12, seed=21)
    single = gl.sweep([2.0], [1.0], 12, seed=21)
    # cell (2.0, 1.0) sits at different grid indices, so draws differ, but
    # rerunning the same grid reproduces the same cells exactly
    again = gl.sweep([0.5, 2.0], [1.0], 12, seed=21)
    assert full.rows[1].min_slack == again.rows[1].min_slack
    assert single.violations == 0


def test_profile_hash_stable():
    prof = gl.random_concave(5, 6)
    assert gl.profile_hash(prof) == gl.profile_hash(gl.random_concave(5, 6))
    assert gl.profile_hash(prof) != gl.profile_hash(gl.random_concave(6, 6))


# ---------------------------------------------------------------------------
# the batched kernel, the lockstep search and the batched sweep
# ---------------------------------------------------------------------------

NEARLY_FLAT = (1e-8, 1e-7, 1e-6, 1e-5)


@pytest.mark.parametrize("alpha,beta", [(2, 1), (1, 1), (3, 2)])
@pytest.mark.parametrize("change", NEARLY_FLAT)
def test_tail_ratio_grid_exact_on_nearly_flat_segments(alpha, beta, change):
    ts = np.linspace(0.0, 1.0, 6)
    shapes = (
        [0.2, 0.6, 0.9, 1.0, 1.0 - change, 0.5],       # flat near the top
        [1.0, 1.0 - change, 0.7, 0.4, 0.2, 0.0],       # flat first segment
        [0.0, 0.5, 0.8, 0.9, 0.9 * (1.0 + change), 0.9 * (1.0 + 2 * change)],
    )
    for hs in shapes:
        got = gl.tail_ratio_grid(ts, hs, alpha, beta)
        assert abs(got - exact_tail_ratio(ts, hs, alpha, beta)) <= 1e-14, (hs, got)


def test_tail_ratio_grid_exact_on_random_profiles():
    for k in range(40):
        prof = gl.random_concave([404, k], 4 + k % 13)
        for alpha, beta in ((2, 1), (1, 3), (0, 2)):
            got = gl.tail_ratio_grid(prof.ts, prof.hs, alpha, beta)
            assert abs(got - exact_tail_ratio(prof.ts, prof.hs, alpha, beta)) <= 1e-14


# integer powers take the terminating series, others the closed form as well
_powers = st.one_of(st.integers(0, 8).map(float), st.floats(0.0, 5.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 12),
       m=st.integers(3, 30),
       alpha=_powers, beta=_powers, flatten=st.integers(0, 12))
def test_stacked_rows_match_single_rows_bitwise(seed, rows, m, alpha, beta, flatten):
    ts, hs = search._random_stack(np.random.default_rng(seed), rows, m)
    if flatten:  # make one segment of every row nearly flat
        j = flatten % (m - 1)
        hs[:, j + 1] = hs[:, j] * (1.0 + 10.0 ** -flatten)
    stacked, _ = search._tail_ratios(ts, hs, alpha, beta)
    single = [gl.tail_ratio_grid(t, h, alpha, beta) for t, h in zip(ts, hs)]
    assert stacked.tolist() == single
    shared, _ = search._tail_ratios(ts[0], hs, alpha, beta)
    assert shared.tolist() == [gl.tail_ratio_grid(ts[0], h, alpha, beta) for h in hs]


@pytest.mark.parametrize("alpha,beta,seed,m,budget,restarts", [
    (1.0, 1.0, 7, 10, 300, 4),
    (2.0, 1.0, 3, 16, 300, 8),
    (0.5, 3.0, 5, 5, 300, 3),
    (0.0, 1.0, 2, 6, 200, 3),
    (1.0, 2.0, 4, 8, 1, 5),                        # budget 1
    (2.0, 3.0, 9, 12, 250, 1),                     # one restart
    (0.5, 1.0, 6, 7, 4 * search._AHEAD + 3, 4),    # budget not a multiple of the window
    (1.0, 1.0, 8, 5, 3 * search._BLOCK + 5, 2),    # four draw blocks, the last short
    (1.5, 1.5, 10, 9, 180, 3),                     # alpha = beta
])
def test_lockstep_search_matches_restarts_run_alone(alpha, beta, seed, m, budget, restarts):
    cfg = gl.SearchConfig(alpha=alpha, beta=beta, seed=seed, m=m, budget=budget,
                          restarts=restarts)
    ts, hs, ratio, trace = reference_minimize(cfg)
    res = gl.minimize_tail_ratio(cfg)
    assert np.array_equal(res.profile.ts, ts)
    assert np.array_equal(res.profile.hs, hs)
    assert res.ratio == ratio
    assert res.trace == trace


def test_batched_projection_matches_rows_projected_alone():
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 1.0, 7)
    hs = rng.uniform(0.0, 1.0, (40, 7))
    hs[::5] = np.maximum(hs[::5] - 0.5, 0.0)  # rows with zeros
    hs[3] = 0.4  # flat: infeasible
    proj, feasible = search._project_concave(ts, hs)
    assert not feasible[3]
    for row, out, ok in zip(hs, proj, feasible):
        want = project_concave_row(ts, row)
        assert ok == (want is not None)
        if ok:
            assert np.array_equal(out, want)


def test_sweep_rows_match_per_trial_minimum():
    alphas, betas, trials, seed, m = [1.0, 2.0], [1.0, 3.0], 40, 2024, 12
    table = gl.sweep(alphas, betas, trials, seed, m=m)
    rows = iter(table.rows)
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            row = next(rows)
            bound = gl.functional_bound(alpha, beta).value
            ts, hs = search._random_stack(np.random.default_rng([seed, i, j]), trials, m)
            profs = [gl.ConcaveProfile(np.column_stack([t, h])) for t, h in zip(ts, hs)]
            exact = [exact_tail_ratio(p.ts, p.hs, int(alpha), int(beta)) - bound for p in profs]
            k = int(np.argmin(exact))
            assert row.argmin_profile_hash == gl.profile_hash(profs[k])
            assert abs(row.min_slack - exact[k]) <= 1e-12
            # the object path runs the same kernel on each row alone
            assert row.min_slack == min(gl.tail_mass_ratio(p, alpha, beta) - bound
                                        for p in profs)


def test_sweep_rejects_a_stack_the_constructor_rejects():
    ts, hs = search._random_stack(np.random.default_rng(1), 5, 8)
    search._check_concave_rows(ts, hs)
    hs[3, 4] += 0.5  # a slope increase: not concave
    with pytest.raises(ProfileError, match="not concave"):
        search._check_concave_rows(ts, hs)
    hs[3, 4] -= 0.5
    hs[2] = 0.0
    with pytest.raises(ProfileError, match="interior ordinates"):
        search._check_concave_rows(ts, hs)


# ---------------------------------------------------------------------------
# parameters, and random_concave at large m
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_negative_exponents_rejected(bad):
    with pytest.raises(ParameterError):
        gl.SearchConfig(alpha=bad, beta=1.0, seed=1)
    with pytest.raises(ParameterError):
        gl.SearchConfig(alpha=1.0, beta=bad, seed=1)
    with pytest.raises(ParameterError):
        gl.functional_bound(bad, 1.0)
    with pytest.raises(ParameterError):
        gl.functional_bound(1.0, bad)
    with pytest.raises(ParameterError):
        gl.functional_root_limit(bad)
    ts, hs = np.linspace(0.0, 1.0, 4), [0.2, 1.0, 0.8, 0.1]
    with pytest.raises(ParameterError, match="alpha"):
        gl.tail_ratio_grid(ts, hs, bad, 1.0)
    with pytest.raises(ParameterError, match="beta"):
        gl.tail_ratio_grid(ts, hs, 1.0, bad)


def test_random_concave_large_m_returns_and_past_the_gap_limit_raises():
    prof = gl.random_concave(3, 500)
    assert prof.ts.size == 500
    assert np.diff(prof.ts).min() >= 1e-3 * (1.0 - 1e-12)
    assert gl.random_concave(4, 1001).ts.size == 1001
    with pytest.raises(ParameterError):
        gl.random_concave(3, 1002)


def test_random_concave_abscissas_keep_the_rejection_sampler_law(monkeypatch):
    # with a large minimum gap the conditioning shapes the law strongly
    monkeypatch.setattr(search, "_MIN_GAP", 0.15)
    m, draws = 5, 4000
    rng = np.random.default_rng(77)

    def rejection():
        while True:
            ts = np.sort(rng.uniform(0.0, 1.0, m))
            ts[0], ts[-1] = 0.0, 1.0
            if np.all(np.diff(ts) >= 0.15):
                return np.diff(ts)

    old = np.array([rejection() for _ in range(draws)])
    # the rows of one stack, and one-row stacks as random_concave draws them
    stacked = np.diff(search._random_stack(np.random.default_rng(77), draws, m)[0], axis=1)
    single = np.array([np.diff(search._random_stack(np.random.default_rng([77, k]), 1, m)[0][0])
                       for k in range(draws)])
    for new in (stacked, single):
        assert new.min() >= 0.15 - 1e-12
        for j in range(m - 1):
            assert ks_2samp(old[:, j], new[:, j]).pvalue > 1e-3


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), m=st.integers(3, 1001),
       a=st.floats(-10.0, 10.0), length=st.floats(0.01, 100.0),
       rows=st.integers(2, 8))
def test_random_concave_is_the_one_row_stack(seed, m, a, length, rows):
    domain = (a, a + length)
    ts, hs = search._random_stack(np.random.default_rng(seed), 1, m, domain)
    prof = gl.random_concave(seed, m, domain)
    assert np.array_equal(prof.breakpoints, np.column_stack([ts[0], hs[0]]))
    ts, hs = search._random_stack(np.random.default_rng(seed), rows, m, domain)
    search._check_concave_rows(ts, hs)
    b = domain[1]
    assert np.diff(ts, axis=1).min() >= 1e-3 * (b - a) - 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("seed,m,digest", [
    (7, 12, "c383c731d40e45cc"),
    ([2024, 1, 0, 3], 16, "fd10a732a463d93d"),
    (31, 1001, "4d6a995bf0093eb8"),
])
def test_random_concave_profiles_are_pinned(seed, m, digest):
    assert gl.profile_hash(gl.random_concave(seed, m)) == digest


def test_sweep_builds_one_generator_per_cell(monkeypatch):
    seeds, make = [], np.random.default_rng

    def counting(seed=None):
        seeds.append(seed)
        return make(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    gl.sweep([1.0, 2.0], [1.0, 3.0], 200, seed=5)
    assert seeds == [[5, 0, 0], [5, 0, 1], [5, 1, 0], [5, 1, 1]]


# ---------------------------------------------------------------------------
# the descent's block-drawn moves, its windows and its counts
# ---------------------------------------------------------------------------

def _scalar_moves(rng, m, n):
    draws = [(rng.integers(0, m), rng.integers(0, 2), rng.uniform(0.1, 1.0)) for _ in range(n)]
    return [np.array(d) for d in zip(*draws)]


@pytest.mark.parametrize("m", [3, 5, 10, 12, 16, 40, 1001])
def test_block_decode_is_the_scalar_draws(m):
    # numpy's Generator.integers and uniform on PCG64: if numpy changes either
    # stream, this fails before any trajectory can change silently
    for seed in range(30):
        block = np.random.default_rng([seed, 1])
        scalar = np.random.default_rng([seed, 1])
        for rng in (block, scalar):  # as a restart starts: m initial ordinates
            rng.uniform(0.0, 1.0, m)
        for n in (200, 37):
            cols, up, mags, rejected = search._decode_moves(
                block.bit_generator.random_raw(2 * n), m)
            assert not rejected
            want_cols, want_up, want_mags = _scalar_moves(scalar, m, n)
            assert np.array_equal(cols, want_cols)
            assert np.array_equal(up, want_up == 1)
            assert np.array_equal(mags, want_mags)
        assert block.bit_generator.state["state"] == scalar.bit_generator.state["state"]


def test_block_decode_flags_lemire_rejections():
    # lo32 = 0 scales to 0, below the threshold (2^32 - m) mod m unless m is a
    # power of two, where the threshold is 0 and nothing is rejected
    top = 0xFFFF_FFFF  # scales to 2^32 - m: never below the threshold
    words = np.array([[5 << 32 | top, 17, top, 3], [1 << 63, 17, 7 << 40 | top, 3]],
                     dtype=np.uint64)
    for m in (3, 5, 10, 12, 40, 1001, 2 ** 31 + 1, 2 ** 32 - 1):
        assert search._decode_moves(words, m)[3].tolist() == [False, True]
    for m in (2, 4, 16, 1024, 2 ** 31):
        assert search._decode_moves(words, m)[3].tolist() == [False, False]
    cols, up, _, _ = search._decode_moves(words, 10)
    assert cols.tolist() == [[9, 9], [0, 9]]
    assert up.tolist() == [[False, False], [True, False]]


def test_drawn_moves_are_the_scalar_draws_through_real_rejections():
    # at m = 2^31 + 1 Lemire rejects about half of all draws, so blocks fall
    # back to scalar draws, some of which end holding half a word back
    m, n = 2 ** 31 + 1, 6
    steps = search._decayed_steps(0.3, 0.9, n)
    for seed in range(12):
        rngs = [np.random.default_rng([seed, k]) for k in range(3)]
        twins = [np.random.default_rng([seed, k]) for k in range(3)]
        for _ in range(4):
            cols, moves = search._draw_moves(rngs, m, steps)
            for i, twin in enumerate(twins):
                want_cols, want_up, want_mags = _scalar_moves(twin, m, n)
                assert np.array_equal(cols[i], want_cols)
                assert np.array_equal(moves[i], np.where(want_up == 1, 1.0, -1.0)
                                      * steps * want_mags)
                assert rngs[i].bit_generator.state == twin.bit_generator.state


def test_decayed_steps_are_the_step_loop():
    for budget in (1, 7, 50, 3000):
        decay = (search._STEP_FINAL / search._STEP_INIT) ** (1.0 / budget)
        step, want = search._STEP_INIT, []
        for _ in range(budget + 20):
            want.append(step)
            step = max(step * decay, search._STEP_FINAL)
        got = search._decayed_steps(search._STEP_INIT, decay, budget + 20)
        assert got.tolist() == want


def test_a_rejected_block_is_drawn_again_with_the_same_trajectory(monkeypatch):
    decode, blocks = search._decode_moves, []

    def one_rejection(words, m):
        cols, up, mags, rejected = decode(words, m)
        blocks.append(words.shape)
        if len(blocks) == 2:
            rejected = np.ones_like(rejected)
        return cols, up, mags, rejected

    monkeypatch.setattr(search, "_decode_moves", one_rejection)
    monkeypatch.setattr(search, "_BLOCK", 16)
    cfg = gl.SearchConfig(alpha=1.0, beta=2.0, seed=3, m=9, budget=70, restarts=3)
    ts, hs, ratio, trace = reference_minimize(cfg)
    res = gl.minimize_tail_ratio(cfg)
    assert len(blocks) >= 3
    assert np.array_equal(res.profile.hs, hs)
    assert res.ratio == ratio
    assert res.trace == trace


def test_search_counts_every_step_of_each_trajectory_once():
    for cfg in (gl.SearchConfig(alpha=1.0, beta=2.0, seed=7, m=16, budget=50, restarts=8),
                gl.SearchConfig(alpha=0.5, beta=3.0, seed=2, m=4, budget=333, restarts=5),
                gl.SearchConfig(alpha=3.0, beta=0.0, seed=5, m=3, budget=1, restarts=2)):
        res = gl.minimize_tail_ratio(cfg)
        assert len(res.accepted) == len(res.rejected) == len(res.infeasible) == cfg.restarts
        for k in range(cfg.restarts):
            assert res.accepted[k] + res.rejected[k] + res.infeasible[k] == cfg.budget
            assert res.accepted[k] == sum(1 for t in res.trace if t[0] == k)
        assert sum(res.accepted) == len(res.trace)
        # each round moves every unfinished restart at least one step, at most a window
        assert cfg.budget / search._AHEAD <= res.rounds <= cfg.budget


def test_search_counts_infeasible_proposals(monkeypatch):
    # the projection hardly ever fails on its own, so a third of its rows are
    # made infeasible by a rule on their values, the same stacked or alone
    project = search._project_concave

    def failing(ts, hs):
        proj, feasible = project(ts, hs)
        return proj, feasible & (proj[:, 1] * 1e6 % 3.0 >= 1.0)

    monkeypatch.setattr(search, "_project_concave", failing)
    cfg = gl.SearchConfig(alpha=1.0, beta=2.0, seed=4, m=6, budget=301, restarts=3)
    res = gl.minimize_tail_ratio(cfg)
    ts = np.linspace(0.0, 1.0, cfg.m)
    decay = (search._STEP_FINAL / search._STEP_INIT) ** (1.0 / cfg.budget)
    trace, counts = [], []
    for k in range(cfg.restarts):  # one restart, one step at a time
        rng = np.random.default_rng([cfg.seed, k])
        hs, ok = failing(ts, np.maximum(rng.uniform(0.0, 1.0, (1, cfg.m)), 1e-3))
        hs = hs[0] if ok[0] else 1.0 - 0.5 * ts
        cur, step, seen = gl.tail_ratio_grid(ts, hs, 1.0, 2.0), search._STEP_INIT, [0, 0, 0]
        for it in range(cfg.budget):
            j = rng.integers(0, cfg.m)
            prop = hs.copy()
            prop[j] = max(prop[j] + (-1.0, 1.0)[rng.integers(0, 2)] * step
                          * rng.uniform(0.1, 1.0), 0.0)
            proj, ok = failing(ts, prop[None])
            step = max(step * decay, search._STEP_FINAL)
            if not ok[0]:
                seen[2] += 1
                continue
            val = gl.tail_ratio_grid(ts, proj[0], 1.0, 2.0)
            better = val < cur - 1e-15
            if better:
                cur, hs = val, proj[0]
                trace.append((k, it, val))
            seen[0 if better else 1] += 1
        counts.append(seen)
    assert res.trace == trace
    assert [list(c) for c in zip(res.accepted, res.rejected, res.infeasible)] == counts
    assert min(res.infeasible) > 0


class _CountingNumpy:
    """numpy with its log1p and expm1 calls counted."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("log1p", "expm1"):
            return attr

        def counted(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)
        return counted


def test_integer_powers_take_no_logarithm_or_exponential(monkeypatch):
    calls = []
    monkeypatch.setattr(gl.profiles, "np", _CountingNumpy(calls))
    ts, hs = search._random_stack(np.random.default_rng(9), 5, 10)
    for alpha, beta in ((1.0, 2.0), (3.0, 1.0)):
        search._tail_ratios(ts, hs, alpha, beta)
        search._tail_ratios(ts[0], hs, alpha, beta)
    assert calls == []
    search._tail_ratios(ts, hs, 0.5, 2.0)
    assert "log1p" in calls and "expm1" in calls


def test_workload_search_makes_at_most_32_kernel_calls(monkeypatch):
    # one call for the initial ratios, then one per round; one proposal per
    # step made 51
    calls = []
    kernel = search._tail_ratios

    def counted(*args):
        calls.append(args[1].shape[0])
        return kernel(*args)

    monkeypatch.setattr(search, "_tail_ratios", counted)
    gl.minimize_tail_ratio(gl.SearchConfig(alpha=1.0, beta=2.0, seed=7, m=16, budget=50,
                                           restarts=8))
    assert len(calls) <= 32, calls
