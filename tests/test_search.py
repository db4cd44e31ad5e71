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
from grunlab.errors import ParameterError, ProfileError


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


def test_tail_ratio_grid_matches_object_path():
    # both paths make the same kernel calls, so they agree bitwise
    for k in range(10):
        prof = gl.random_concave(k, 8)
        for alpha, beta in ((1.3, 2.1), (0.0, 1.0), (2.0, 0.0)):
            fast = gl.tail_ratio_grid(prof.ts, prof.hs, alpha, beta)
            assert fast == gl.tail_mass_ratio(prof, alpha, beta)
            scaled = gl.ConcaveProfile(np.column_stack([prof.ts, 3.7 * prof.hs]))
            assert gl.tail_mass_ratio(scaled, alpha, beta) == gl.tail_ratio_grid(
                scaled.ts, scaled.hs, alpha, beta)


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


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=12),
       m=st.integers(3, 30),
       alpha=st.floats(0.0, 5.0), beta=st.floats(0.0, 5.0),
       flatten=st.integers(0, 12))
def test_stacked_rows_match_single_rows_bitwise(seeds, m, alpha, beta, flatten):
    ts, hs = search._random_stack(seeds, m)
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
            profs = [gl.random_concave([seed, i, j, k], m) for k in range(trials)]
            exact = [exact_tail_ratio(p.ts, p.hs, int(alpha), int(beta)) - bound for p in profs]
            k = int(np.argmin(exact))
            assert row.argmin_profile_hash == gl.profile_hash(profs[k])
            assert abs(row.min_slack - exact[k]) <= 1e-12
            # the object path runs the same kernel on each row alone
            assert row.min_slack == min(gl.tail_mass_ratio(p, alpha, beta) - bound
                                        for p in profs)


def test_sweep_rejects_a_stack_the_constructor_rejects():
    ts, hs = search._random_stack([[1, k] for k in range(5)], 8)
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
    new = np.array([np.diff(search._draw(np.random.default_rng([77, k]), m, 0.0, 1.0)[0])
                    for k in range(draws)])
    assert new.min() >= 0.15 - 1e-12
    for j in range(m - 1):
        assert ks_2samp(old[:, j], new[:, j]).pvalue > 1e-3
