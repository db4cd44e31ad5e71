"""Profile engine: evaluation, powered integrals, centroids, concavity checks.

Derived expected values are frozen from independent oracles: elementary
antiderivatives for the affine cases, scipy quadrature for everything else.
"""

import dataclasses
import inspect
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

import grunlab as gl
import grunlab.search as search
from grunlab.bodies import SimplexSplineProfile
from grunlab.errors import (
    DegenerateProfileError,
    DomainError,
    ParameterError,
    ProfileError,
)
from grunlab.profiles import CONCAVITY_TOL
from grunlab.quadrature import adaptive_simpson

from conftest import (
    exact_centroid,
    exact_integrals,
    exact_tail_ratio,
    random_profiles,
    superlevel_sigma_violation,
)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_piecewise_linear(affine):
    assert gl.evaluate(affine, 0.5) == pytest.approx(0.5, abs=0)


def test_evaluate_constant():
    h = gl.ConstantProfile(2.0, 0.0, 3.0)
    assert gl.evaluate(h, 1.7) == 2.0


def test_evaluate_decreasing_power():
    h = gl.DecreasingPowerProfile(1.0, 0.0, 1.0, 2.0)
    assert gl.evaluate(h, 0.5) == pytest.approx(0.25, abs=0)


def test_evaluate_outside_domain_rejected(affine):
    with pytest.raises(DomainError):
        gl.evaluate(affine, 1.5)
    with pytest.raises(DomainError):
        gl.evaluate(affine, -0.1)


def test_the_domain_slack_scales_with_the_domain():
    tiny = gl.ConcaveProfile([[0.0, 1.0], [1e-20, 0.0]])
    with pytest.raises(DomainError):  # 10^7 widths outside
        gl.evaluate(tiny, 1e-13)
    far = gl.ConcaveProfile([[1e9, 1.0], [1e9 + 1.0, 0.0]])
    assert gl.evaluate(far, math.nextafter(1e9 + 1.0, math.inf)) == 0.0  # one ulp outside
    with pytest.raises(DomainError, match=r"\[1000000000\.0, 1000000001\.0\]"):
        gl.evaluate(far, 1e9 + 1.001)


def test_profile_validation_errors():
    with pytest.raises(ProfileError):
        gl.ConcaveProfile([[0.0, 1.0]])
    with pytest.raises(ProfileError):
        gl.ConcaveProfile([[0.0, 1.0], [0.0, 0.5]])
    with pytest.raises(ProfileError):
        gl.ConcaveProfile([[0.0, 1.0], [1.0, -0.1]])
    with pytest.raises(ProfileError):  # convex kink
        gl.ConcaveProfile([[0.0, 1.0], [0.5, 0.2], [1.0, 1.0]])
    with pytest.raises(ProfileError):  # interior zero
        gl.ConcaveProfile([[0.0, 1.0], [0.5, 0.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# powered and moment integrals
# ---------------------------------------------------------------------------

def test_powered_integral_unit_constant():
    h = gl.ConcaveProfile([[0.0, 1.0], [3.0, 1.0]])
    assert gl.powered_integral(h, 5.0) == pytest.approx(3.0, rel=1e-14)


def test_powered_integral_affine(affine):
    # oracle: -(1-t)^3/3 antiderivative
    assert gl.powered_integral(affine, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    # oracle: (2/3)^2/2
    assert gl.powered_integral(affine, 1.0, (1.0 / 3.0, 1.0)) == pytest.approx(2.0 / 9.0, rel=1e-13)


def test_powered_integral_rejects_bad_beta(affine):
    with pytest.raises(ParameterError):
        gl.powered_integral(affine, 0.0)
    with pytest.raises(ParameterError):
        gl.powered_integral(affine, -1.0)


def test_powered_integral_rejects_interval_outside_domain(affine):
    with pytest.raises(DomainError):
        gl.powered_integral(affine, 1.0, (0.5, 1.5))


_TENT = gl.ConcaveProfile([[0.0, 0.2], [0.3, 1.0], [1.0, 0.1]])


@pytest.mark.parametrize("h", [_TENT, gl.ConstantProfile(1.0, 0.0, 1.0)], ids=["pl", "constant"])
@pytest.mark.parametrize("call", [
    lambda h: gl.powered_integral(h, 1.0, (math.nan, 1.0)),
    lambda h: gl.moment_integral(h, 1.0, (math.nan, math.nan)),
    lambda h: gl.profiles.powered_split(h, 1.0, math.nan),
    lambda h: gl.tail_masses(h, 1.0, [math.nan]),
    lambda h: gl.tail_masses(h, 1.0, [0.5, math.nan]),
], ids=["powered_integral", "moment_integral", "powered_split", "tail_masses",
        "tail_masses_second_cut"])
def test_nan_intervals_and_cuts_are_refused_not_integrated(h, call):
    with pytest.raises(DomainError):
        call(h)
    if isinstance(h, gl.PiecewiseLinear):  # nothing was kept under a NaN key
        assert not any(math.isnan(x) for key in h._memo for x in np.atleast_1d(key))


def test_nan_superlevel_levels_are_refused():
    with pytest.raises(DomainError):
        gl.superlevel_masses(_TENT, 1.0, [0.5, math.nan])


def test_infinite_cuts_are_clipped_to_the_domain():
    tails = gl.tail_masses(_TENT, 1.0, [-math.inf, math.inf])
    assert tails[0] == gl.powered_integral(_TENT, 1.0) and tails[1] == 0.0


def test_moment_integral_examples(affine):
    h = gl.ConcaveProfile([[0.0, 1.0], [2.0, 1.0]])
    assert gl.moment_integral(h, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert gl.moment_integral(affine, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-13)
    rising = gl.ConcaveProfile([[0.0, 0.0], [1.0, 1.0]])
    assert gl.moment_integral(rising, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-13)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.7, 2.0, 3.3])
def test_pl_integrals_match_quadrature_oracle(beta):
    rng = np.random.default_rng(101)
    for prof in random_profiles(7, 5, m=7):
        a, b = prof.domain
        lo = rng.uniform(a, (a + b) / 2)
        hi = rng.uniform((a + b) / 2, b)
        ref, _ = quad(lambda t: prof.value(t) ** beta, lo, hi, limit=200,
                      points=list(prof.ts[(prof.ts > lo) & (prof.ts < hi)]))
        assert gl.powered_integral(prof, beta, (lo, hi)) == pytest.approx(ref, rel=1e-9, abs=1e-12)
        ref_m, _ = quad(lambda t: t * prof.value(t) ** beta, lo, hi, limit=200,
                        points=list(prof.ts[(prof.ts > lo) & (prof.ts < hi)]))
        assert gl.moment_integral(prof, beta, (lo, hi)) == pytest.approx(ref_m, rel=1e-9, abs=1e-12)


def test_powered_integral_additivity(affine):
    for prof in random_profiles(3, 8, m=9):
        a, b = prof.domain
        mid = 0.456 * a + 0.544 * b
        whole = gl.powered_integral(prof, 1.7)
        parts = gl.powered_integral(prof, 1.7, (a, mid)) + gl.powered_integral(prof, 1.7, (mid, b))
        assert abs(whole - parts) <= 1e-12 * whole


def test_closed_form_matches_adaptive_simpson_on_power_profiles():
    h = gl.DecreasingPowerProfile(1.3, 0.2, 1.7, 0.8)
    for beta in (0.5, 1.0, 2.5):
        exact = gl.powered_integral(h, beta)
        numeric = adaptive_simpson(lambda t: float(h.value(t)) ** beta, 0.2, 1.7)
        assert numeric == pytest.approx(exact, rel=1e-9)


def test_ball_section_profile_against_quad_oracle():
    h = gl.BallSectionProfile(1.0, 3, center=0.0)
    ref, _ = quad(lambda t: float(h.value(t)) ** 1.5, -1.0, 0.6)
    assert gl.powered_integral(h, 1.5, (-1.0, 0.6)) == pytest.approx(ref, rel=1e-8)


BALL_BETAS = (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 7.3)
# sub-intervals of [-1, 1] in x = (t - center) / radius: near the left end,
# across the centre, near the right end, and the whole support
BALL_INTERVALS = ((-1.0, -0.98), (-0.999, -0.6), (-0.7, 0.4), (-0.05, 0.03),
                  (0.6, 0.999), (0.97, 1.0), (-1.0, 1.0))


@pytest.mark.parametrize("n", range(2, 13))
def test_ball_section_integrals_match_incomplete_beta_and_quad(n):
    rng = np.random.default_rng(100 + n)
    radius, center = rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0)
    h = gl.BallSectionProfile(radius, n, center)
    kappa = math.pi ** ((n - 1) / 2) / math.gamma((n - 1) / 2 + 1)
    for beta in BALL_BETAS:
        g = (n - 1) * beta / 2
        scale = kappa ** beta * radius ** (2 * g + 1)
        total = scale * 2.0 ** (2 * g + 1) * special.beta(g + 1, g + 1)
        assert gl.powered_integral(h, beta) == pytest.approx(total, rel=1e-13)
        for x0, x1 in BALL_INTERVALS:
            lo, hi = center + radius * x0, center + radius * x1
            want = total * (special.betainc(g + 1, g + 1, (1 + x1) / 2)
                            - special.betainc(g + 1, g + 1, (1 + x0) / 2))
            assert abs(gl.powered_integral(h, beta, (lo, hi)) - want) <= 1e-13 * total
            # at a touched end, the fractional part of the exponent of (1 + x)^g
            # or (1 - x)^g goes to quad's algebraic weight; the rest is smooth
            w0, w1 = (g % 1.0 if x0 == -1.0 else 0.0), (g % 1.0 if x1 == 1.0 else 0.0)
            size = total * (abs(center) + radius)
            want_m = quad(lambda x: (center + radius * x) * scale * (1 + x) ** (g - w0)
                          * (1 - x) ** (g - w1), x0, x1, weight="alg", wvar=(w0, w1),
                          epsabs=1e-14 * size, epsrel=0.0, limit=200)[0]
            assert abs(gl.moment_integral(h, beta, (lo, hi)) - want_m) <= 1e-13 * size


def test_ball_section_large_index_tails_converge():
    # n = 3 and beta = g: the index g + 1 reaches 501
    h = gl.BallSectionProfile(1.0, 3, 0.0)
    for g in (50.0, 200.0, 500.0):
        log_total = g * math.log(math.pi) + (2 * g + 1) * math.log(2.0) \
            + special.betaln(g + 1, g + 1)
        total = gl.powered_integral(h, g)
        assert math.log(total) == pytest.approx(log_total, abs=1e-12)
        for x in (-0.3, -0.02, 0.01, 0.1):
            tail = gl.powered_integral(h, g, (x, 1.0))
            assert abs(tail / total - special.betainc(g + 1, g + 1, (1 - x) / 2)) <= 1e-13
    with pytest.raises(gl.ConvergenceError) as err:
        gl.powered_integral(h, 1e12)
    assert err.value.best_estimate > 0.0


@pytest.mark.parametrize("radius,n,center", [(1.0, 2, 1.0), (1.3, 2, -1.0), (0.7, 6, 0.37),
                                             (2.5, 11, -3.1)])
def test_ball_section_centroid_is_the_centre(radius, n, center):
    h = gl.BallSectionProfile(radius, n, center)
    for r in (0.5, 1.0, 3.0):
        # the odd part of the moment vanishes exactly on the whole support
        mass, moment, _ = gl.profiles._integrals(h, r)
        assert moment == center * mass
        assert abs(gl.alpha_centroid(h, r) - center) <= math.ulp(center)


def test_increasing_power_profile_matches_quad():
    h = gl.IncreasingPowerProfile(2.0, -1.0, 2.0, 0.5)
    ref, _ = quad(lambda t: float(h.value(t)) ** 2.0, -1.0, 2.0)
    assert gl.powered_integral(h, 2.0) == pytest.approx(ref, rel=1e-10)
    ref_m, _ = quad(lambda t: t * float(h.value(t)) ** 2.0, -1.0, 2.0)
    assert gl.moment_integral(h, 2.0) == pytest.approx(ref_m, rel=1e-10)


def test_quadrature_convergence_error_carries_best_estimate():
    with pytest.raises(gl.ConvergenceError) as err:
        adaptive_simpson(lambda t: np.sqrt(abs(t)), -1.0, 1.0, abs_tol=1e-13, max_subdivisions=2)
    assert err.value.best_estimate == pytest.approx(4.0 / 3.0, rel=1e-2)
    for bad in ({"abs_tol": 0.0}, {"max_subdivisions": 0}):
        with pytest.raises(ParameterError):
            adaptive_simpson(np.sqrt, 0.0, 1.0, **bad)


# ---------------------------------------------------------------------------
# centroids and tail ratios
# ---------------------------------------------------------------------------

def test_alpha_centroid_examples(affine):
    h = gl.ConcaveProfile([[0.0, 1.0], [2.0, 1.0]])
    assert gl.alpha_centroid(h, 7.0) == pytest.approx(1.0, rel=1e-14)
    assert gl.alpha_centroid(affine, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert gl.alpha_centroid(affine, 2.0) == pytest.approx(1.0 / 4.0, rel=1e-13)
    rising = gl.ConcaveProfile([[0.0, 0.0], [1.0, 1.0]])
    assert gl.alpha_centroid(rising, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-13)


_UNIT_TENT = gl.ConcaveProfile([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])


_TRIANGLE = gl.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_TENT_COMPARISON = gl.build_comparison_affine(_UNIT_TENT, 1.0, 1.0)
_NOT_REALS = {"str": "1", "bool": True, "numpy-bool": np.True_, "none": None, "complex": 1j,
              "list": [1.0], "huge-int": 10 ** 400, "nan": math.nan}
_NOT_COUNTS = {"str": "5", "bool": True, "numpy-bool": np.True_, "none": None, "float": 5.5,
               "whole-float": 3.0, "nan": math.nan, "inf": math.inf}
_REALS = (1, 1.0, np.int64(1), np.float32(1.0))

# (id, call, rule): an exponent, a power, a count with its least value, or a tolerance
_PARAMETERS = [
    ("config-alpha", lambda v: gl.SearchConfig(alpha=v, beta=1.0, seed=1), "exponent"),
    ("config-beta", lambda v: gl.SearchConfig(alpha=1.0, beta=v, seed=1), "exponent"),
    ("bound-alpha", lambda v: gl.functional_bound(v, 1.0), "exponent"),
    ("bound-beta", lambda v: gl.functional_bound(1.0, v), "exponent"),
    ("grid-alpha", lambda v: gl.tail_ratio_grid([0.0, 1.0], [1.0, 1.0], v, 1.0), "exponent"),
    ("grid-beta", lambda v: gl.tail_ratio_grid([0.0, 1.0], [1.0, 1.0], 1.0, v), "exponent"),
    ("ratio-alpha", lambda v: gl.tail_mass_ratio(_UNIT_TENT, v, 1.0), "exponent"),
    ("ratio-beta", lambda v: gl.tail_mass_ratio(_UNIT_TENT, 1.0, v), "exponent"),
    ("r-bound-r", lambda v: gl.grunbaum_r_bound(1.0, v), "exponent"),
    ("centroid-r", lambda v: gl.r_centroid_point(_TRIANGLE, [1.0, 0.0], v), "exponent"),
    ("r-bound-p", lambda v: gl.grunbaum_r_bound(v, 1.0), "power"),
    ("jensen-p", lambda v: gl.jensen_bbl_bound(v, 1.0), "power"),
    ("jensen-r", lambda v: gl.jensen_bbl_bound(1.0, v), "power"),
    ("power-profile", lambda v: gl.PowerProfile(_UNIT_TENT, v), "power"),
    ("powered-integral", lambda v: gl.powered_integral(_UNIT_TENT, v), "power"),
    ("p-concavity", lambda v: gl.p_concavity_check(_UNIT_TENT, v), "power"),
    ("comparison-beta", lambda v: gl.build_comparison_affine(_UNIT_TENT, 1.0, v), "power"),
    ("classic-n", lambda v: gl.classic_bounds(v), 2),
    ("revolve-dim", lambda v: gl.revolve(gl.ConstantProfile(1.0, 0.0, 1.0), v), 2),
    ("ball-section-dim", lambda v: gl.BallSectionProfile(1.0, v), 2),
    ("ball-volume-n", lambda v: gl.unit_ball_volume(v), 0),
    ("simpson-levels", lambda v: adaptive_simpson(abs, 0.0, 1.0, max_subdivisions=v), 1),
    ("superlevel-grid",
     lambda v: gl.superlevel_measure_concavity_check(_UNIT_TENT, 1.0, grid_size=v), 3),
    ("comparison-s-grid",
     lambda v: gl.validate_comparison(_UNIT_TENT, _TENT_COMPARISON, 1.0, 1.0, s_grid_size=v), 1),
    ("sweep-trials", lambda v: gl.sweep([1.0], [1.0], v, 1), 0),
    ("sweep-seed", lambda v: gl.sweep([1.0], [1.0], 3, v), 0),
    ("sweep-m", lambda v: gl.sweep([1.0], [1.0], 3, 1, m=v), 3),
    ("random-seed", lambda v: gl.random_concave(v, 5), 0),
    ("random-seed-entry", lambda v: gl.random_concave([v, 2], 5), 0),
    ("random-m", lambda v: gl.random_concave(1, v), 3),
    ("config-seed", lambda v: gl.SearchConfig(alpha=1.0, beta=1.0, seed=v), 0),
    ("config-m", lambda v: gl.SearchConfig(alpha=1.0, beta=1.0, seed=1, m=v), 3),
    ("config-budget", lambda v: gl.SearchConfig(alpha=1.0, beta=1.0, seed=1, budget=v), 1),
    ("config-restarts", lambda v: gl.SearchConfig(alpha=1.0, beta=1.0, seed=1, restarts=v), 1),
    ("mc-seed", lambda v: gl.McSpec(seed=v), 0),
    ("mc-samples", lambda v: gl.McSpec(seed=1, samples=v), 10_000),
    ("mc-bins", lambda v: gl.McSpec(seed=1, bins=v), 16),
    ("tolerance", lambda v: gl.verify_functional(_UNIT_TENT, 1.0, 1.0, tol=v), "tolerance"),
    ("report-tolerance", lambda v: gl.make_report("t", 0.5, 0.25, v, {}), "tolerance"),
    ("p-concavity-tol", lambda v: gl.p_concavity_check(_UNIT_TENT, 1.0, tol=v), "tolerance"),
    ("superlevel-tol",
     lambda v: gl.superlevel_measure_concavity_check(_UNIT_TENT, 1.0, tol=v), "tolerance"),
    ("comparison-tol",
     lambda v: gl.validate_comparison(_UNIT_TENT, _TENT_COMPARISON, 1.0, 1.0, tol=v),
     "tolerance"),
    ("domination-tol",
     lambda v: gl.centroid_domination_check(_UNIT_TENT, 1.0, 1.0, tol=v), "tolerance"),
    ("roundtrip-tol",
     lambda v: gl.revolve_roundtrip(gl.ConstantProfile(1.0, 0.0, 1.0), 3, tol=v), "tolerance"),
    ("grunbaum-r-tol",  # sampled, so the tolerance reaches max(tol, z sigma)
     lambda v: gl.verify_grunbaum_r(_TRIANGLE, [1.0, 0.0], 1.0, 1.0,
                                    mc=gl.McSpec(1, 10_000), tol=v), "tolerance"),
    ("minkowski-radon-tol",
     lambda v: gl.verify_minkowski_radon(_TRIANGLE, [1.0, 0.0], tol=v), "tolerance"),
    ("makai-fradelizi-tol",
     lambda v: gl.verify_makai_fradelizi(_TRIANGLE, [1.0, 0.0], tol=v), "tolerance"),
]


def _parameter_cases():
    for name, call, rule in _PARAMETERS:
        if rule == "exponent":
            match, good = "must be finite and non-negative", _REALS
            bad = {**_NOT_REALS, "negative": -1.0}
        elif rule == "power":
            match, good = "must be finite and positive", _REALS
            bad = {**_NOT_REALS, "zero": 0.0}
        elif rule == "tolerance":
            match, good = "tolerance must be a number", (*_REALS, 0, -1.0, math.inf, -math.inf)
            bad = _NOT_REALS
        else:
            match, good = "must be an integer|must be at least|must lie in", (rule, np.int64(rule))
            bad = {**_NOT_COUNTS, "below": rule - 1}
        for value_id, value in bad.items():
            yield pytest.param(call, value, match, good, id=f"{name}-{value_id}")


@pytest.mark.parametrize("call,value,match,accepted", _parameter_cases())
def test_exponents_are_real_numbers_and_not_bools(call, value, match, accepted):
    """Every exponent, power, count, seed and tolerance of the public surface
    refuses a value of the wrong type or range with ParameterError, and still
    takes Python and numpy numbers of the right kind."""
    with pytest.raises(ParameterError, match=match):
        call(value)
    for number in accepted:
        call(number)


def test_every_tolerance_parameter_has_a_tolerance_row():
    """A public function that takes tol= or tolerance= is probed above, so
    none can skip the tolerance rule."""
    covered = {name for _, call, rule in _PARAMETERS if rule == "tolerance"
               for name in call.__code__.co_names}
    takes_tol = {name for name, obj in vars(gl).items() if inspect.isfunction(obj)
                 and {"tol", "tolerance"} & set(inspect.signature(obj).parameters)}
    assert "verify_functional" in takes_tol and not takes_tol - covered, takes_tol - covered


def test_alpha_centroid_zero_is_exact_midpoint():
    h = gl.ConcaveProfile([[0.25, 0.3], [2.0, 1.0], [3.0, 0.2]])
    assert gl.alpha_centroid(h, 0.0) == (0.25 + 3.0) / 2.0


def test_alpha_centroid_beta_power_of_decreasing_affine():
    # for h = c(delta - t) on [gamma, delta]: g_alpha = delta - (alpha+1)(delta-gamma)/(alpha+2)
    h = gl.DecreasingPowerProfile(2.0, 0.0, 1.0, 1.0)
    for alpha in (0.5, 1.0, 2.0, 5.0):
        expect = 1.0 - (alpha + 1.0) / (alpha + 2.0)
        assert gl.alpha_centroid(h, alpha) == pytest.approx(expect, rel=1e-13)


def test_alpha_centroid_scale_invariance_and_translation_covariance():
    for prof in random_profiles(11, 6, m=8):
        lam = 3.7
        scaled = gl.ConcaveProfile(np.column_stack([prof.ts, lam * prof.hs]))
        shifted = gl.ConcaveProfile(np.column_stack([prof.ts + 2.5, prof.hs]))
        for alpha in (0.5, 1.0, 3.0):
            g = gl.alpha_centroid(prof, alpha)
            assert gl.alpha_centroid(scaled, alpha) == pytest.approx(g, abs=1e-12)
            assert gl.alpha_centroid(shifted, alpha) == pytest.approx(g + 2.5, abs=1e-10)


def test_alpha_centroid_strictly_interior():
    for prof in random_profiles(13, 10, m=6):
        a, b = prof.domain
        for alpha in (0.25, 1.0, 4.0):
            g = gl.alpha_centroid(prof, alpha)
            assert a < g < b


def test_tail_mass_ratio_examples(affine, flat):
    for alpha, beta in ((0.3, 1.0), (2.0, 0.7), (1.0, 1.0)):
        assert gl.tail_mass_ratio(flat, alpha, beta) == pytest.approx(0.5, rel=1e-13)
    assert gl.tail_mass_ratio(affine, 1.0, 1.0) == pytest.approx(4.0 / 9.0, rel=1e-13)
    assert gl.tail_mass_ratio(affine, 1.0, 2.0) == pytest.approx(8.0 / 27.0, rel=1e-13)


def test_tail_mass_ratio_scale_invariance_and_reflection():
    for prof in random_profiles(17, 6, m=8):
        for alpha, beta in ((1.0, 1.0), (0.5, 2.0), (3.0, 1.5)):
            r = gl.tail_mass_ratio(prof, alpha, beta)
            assert 0.0 < r < 1.0
            scaled = gl.ConcaveProfile(np.column_stack([prof.ts, 0.37 * prof.hs]))
            assert gl.tail_mass_ratio(scaled, alpha, beta) == pytest.approx(r, abs=1e-12)
            # reflection swaps the two sides of the cut
            mirrored = gl.reflect(prof)
            assert gl.tail_mass_ratio(mirrored, alpha, beta) == pytest.approx(1.0 - r, abs=1e-10)


def test_tail_masses_vectorized_matches_scalar():
    prof = random_profiles(23, 1, m=9)[0]
    a, b = prof.domain
    cuts = np.linspace(a - 0.1, b + 0.1, 37)
    vec = gl.tail_masses(prof, 1.8, cuts)
    for s, v in zip(cuts, vec):
        lo = min(max(s, a), b)
        assert v == pytest.approx(gl.powered_integral(prof, 1.8, (lo, b)), rel=1e-12, abs=1e-15)


def test_tail_masses_at_a_cut_just_before_a_zero_end():
    # the ordinate interpolated there rounds below zero; the kernel clamps it
    prof = gl.random_concave([9, 754], 6)
    assert prof.hs[-1] == 0.0
    tail = gl.tail_masses(prof, 0.5, [np.nextafter(1.0, 0.0)])[0]
    assert 0.0 <= tail <= 1e-20


def test_degenerate_profile_rejected():
    with pytest.raises(DegenerateProfileError):
        gl.ConcaveProfile([[0.0, 0.0], [1.0, 0.0]])


def test_tiny_profile_accepted():
    # a valid profile scaled by 1e-200 has a mass that underflows, not zero mass
    h = gl.ConcaveProfile([[0.0, 0.0], [0.5, 1e-200], [1.0, 3e-201]])
    assert gl.tail_mass_ratio(h, 2.0, 3.0) == gl.tail_ratio_grid(h.ts, h.hs / 1e-200, 2.0, 3.0)


def test_exponents_must_be_finite_and_non_negative(affine):
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ParameterError, match="alpha"):
            gl.alpha_centroid(affine, bad)
        with pytest.raises(ParameterError, match="alpha"):
            gl.tail_mass_ratio(affine, bad, 1.0)
        with pytest.raises(ParameterError, match="beta"):
            gl.tail_mass_ratio(affine, 1.0, bad)


def test_beta_zero_is_the_support_length_limit():
    # h > 0 inside the domain, so the limit is (b - g_alpha) / (b - a)
    for prof in random_profiles(19, 8, m=7):
        a, b = prof.domain
        for alpha in (0.0, 1.0, 2.5):
            r = gl.tail_mass_ratio(prof, alpha, 0.0)
            assert r == gl.tail_ratio_grid(prof.ts, prof.hs, alpha, 0.0)
            assert r == pytest.approx((b - gl.alpha_centroid(prof, alpha)) / (b - a),
                                      abs=1e-14)
            assert r == pytest.approx(gl.tail_mass_ratio(prof, alpha, 1e-9), abs=1e-8)
    power = gl.DecreasingPowerProfile(1.0, 0.0, 1.0, 0.5)
    assert gl.tail_mass_ratio(power, 1.0, 0.0) == 1.0 - gl.alpha_centroid(power, 1.0)


def test_power_zero_weighs_by_the_indicator_of_positive_h():
    # h vanishes on [0, 1], so the powers' -> 0 limits see only {h > 0} = (1, 3)
    h = gl.PiecewiseLinear([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    assert gl.tail_mass_ratio(h, 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert gl.alpha_centroid(h, 0.0) == pytest.approx(2.0, abs=1e-14)
    assert gl.tail_mass_ratio(h, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert gl.tail_mass_ratio(h, 1.0, 0.0) == pytest.approx(
        gl.tail_mass_ratio(h, 1.0, 1e-9), abs=1e-8)
    assert gl.alpha_centroid(h, 0.0) == pytest.approx(gl.alpha_centroid(h, 1e-9), abs=1e-8)
    assert gl.tail_mass_ratio(h, 0.0, 1.0) == pytest.approx(
        gl.tail_mass_ratio(h, 1e-9, 1.0), abs=1e-8)
    assert gl.profiles.powered_split(h, 0.0, 2.5) == pytest.approx((2.0, 0.5), abs=1e-14)
    assert gl.tail_masses(h, 0.0, [0.5, 1.5]) == pytest.approx([2.0, 1.5], abs=1e-14)
    # zeros at isolated points leave {h > 0} the whole domain: the exact midpoint
    dips = gl.PiecewiseLinear([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
    assert gl.alpha_centroid(dips, 0.0) == 1.5


def test_histogram_power_zero_weighs_by_the_non_empty_bins():
    # the first bin is empty, so the powers' -> 0 limits see only (1, 3)
    h = gl.HistogramProfile([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0])
    assert gl.tail_mass_ratio(h, 1.0, 0.0) == 0.5
    assert gl.alpha_centroid(h, 0.0) == 2.0
    assert gl.tail_mass_ratio(h, 1.0, 0.0) == pytest.approx(
        gl.tail_mass_ratio(h, 1.0, 1e-9), abs=1e-8)
    assert gl.alpha_centroid(h, 0.0) == pytest.approx(gl.alpha_centroid(h, 1e-9), abs=1e-8)
    assert gl.tail_mass_ratio(gl.power_profile(h, 2.0), 0.0, 1.0) == pytest.approx(
        gl.tail_mass_ratio(h, 1e-9, 2.0), abs=1e-8)
    # no empty bin: the midpoint and the length right of the cut, as before
    full = gl.HistogramProfile([0.0, 1.0, 2.0, 3.0], [2.0, 1.0, 1.0])
    assert gl.alpha_centroid(full, 0.0) == 1.5
    cut = gl.alpha_centroid(full, 1.0)
    assert gl.tail_mass_ratio(full, 1.0, 0.0) == (3.0 - cut) / 3.0


def _spline_section():
    rng = np.random.default_rng(29)
    u = rng.normal(size=3)
    return gl.exact_section_profile(gl.Simplex(rng.normal(size=(4, 3))), u / np.linalg.norm(u))


@pytest.mark.parametrize("h,support", [
    (gl.PiecewiseLinear([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]]), (1.0, 3.0)),
    (gl.ConcaveProfile([[0.0, 0.5], [1.0, 2.0], [3.0, 0.0]]), (0.0, 3.0)),
    (gl.ConstantProfile(2.0, -1.0, 0.5), (-1.0, 0.5)),
    (gl.DecreasingPowerProfile(1.5, 0.0, 2.0, 0.7), (0.0, 2.0)),
    (gl.IncreasingPowerProfile(0.5, -1.0, 1.0, 3.0), (-1.0, 1.0)),
    (gl.BallSectionProfile(1.0, 3), (-1.0, 1.0)),
    (gl.PowerProfile(gl.BallSectionProfile(1.0, 4, center=0.5), 0.5), (-0.5, 1.5)),
    (gl.HistogramProfile([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 0.0]), (1.0, 3.0)),
    (_spline_section(), None),
], ids=["piecewise-linear", "concave", "constant", "decreasing-power", "increasing-power",
        "ball-section", "power", "histogram", "simplex-spline"])
def test_power_zero_integrates_the_indicator_of_positive_h_on_every_kind(h, support):
    a, b = h.domain
    lo, hi = support or (a, b)
    cuts = np.linspace(a, b, 9)
    want = np.maximum(hi - np.maximum(cuts, lo), 0.0)
    assert gl.tail_masses(h, 0.0, cuts) == pytest.approx(want, rel=1e-14, abs=1e-14 * (b - a))
    assert gl.alpha_centroid(h, 0.0) == pytest.approx(0.5 * (lo + hi), abs=1e-14 * (b - a))
    mid = 0.5 * (lo + hi)
    assert gl.profiles.powered_split(h, 0.0, mid) == pytest.approx(
        (hi - lo, hi - mid), rel=1e-14)


def test_histogram_validates_its_input():
    with pytest.raises(ProfileError):  # 2 edges, 3 values
        gl.HistogramProfile([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ProfileError):
        gl.HistogramProfile([0.0, 2.0, 1.0], [1.0, 1.0])
    for edges, values in (([0.0, math.inf], [1.0]), ([0.0, 1.0], [math.nan]),
                          ([0.0, 1.0, 2.0], [1.0, -0.5])):
        with pytest.raises(ProfileError):
            gl.HistogramProfile(edges, values)


def test_empty_histogram_has_no_centroid():
    h = gl.HistogramProfile([0.0, 1.0, 2.0], [0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateProfileError):
            gl.alpha_centroid(h, 1.0)
        for alpha, beta in ((1.0, 1.0), (0.0, 2.0), (2.0, 0.0)):
            with pytest.raises(DegenerateProfileError):
                gl.tail_mass_ratio(h, alpha, beta)


def test_histogram_ratios_are_scale_free():
    h = gl.HistogramProfile([0.0, 1.0, 2.0], [3.0, 4.0])
    # g_1 = 15/14; the tail at power 700 is 4^700 (2 - g_1) over 3^700 + 4^700
    want = (2.0 - 15.0 / 14.0) / (1.0 + 0.75 ** 700)
    with np.errstate(over="raise"):
        assert gl.tail_mass_ratio(h, 1.0, 700.0) == pytest.approx(want, rel=1e-14)
        assert gl.alpha_centroid(h, 700.0) == pytest.approx(1.5, rel=1e-14)
        with pytest.raises(gl.FloatRangeError):
            gl.powered_integral(h, 700.0)
    tiny = gl.HistogramProfile([0.0, 1.0, 2.0], [3e-300, 4e-300])
    assert gl.tail_mass_ratio(tiny, 1.0, 2.0) == pytest.approx(
        gl.tail_mass_ratio(h, 1.0, 2.0), rel=1e-14)


def test_scale_free_results_at_large_powers_come_from_the_profile_at_max_one():
    ball = gl.BallSectionProfile(1.0, 3)
    assert gl.tail_mass_ratio(ball, 1.0, 700.0) == pytest.approx(0.5, abs=1e-12)
    assert gl.verify_functional(ball, 1.0, 700.0).ratio == pytest.approx(0.5, abs=1e-12)
    assert gl.tail_mass_ratio(gl.power_profile(ball, 2.0), 1.0, 350.0) == pytest.approx(
        0.5, abs=1e-12)
    off = gl.BallSectionProfile(1.0, 3, center=0.3)
    assert gl.alpha_centroid(off, 700.0) == pytest.approx(0.3, abs=1e-14)
    # h = c (10 - t) on [0, 10] is (1 - s) at max 1, with t = 10 s: g_1 is at
    # s = 1/3 and the tail mass at power 400 is (2/3)^401; c = 1 overflows,
    # c = 1e-4 underflows
    for c in (1.0, 1e-4):
        ramp = gl.DecreasingPowerProfile(c, 0.0, 10.0, 1.0)
        assert gl.tail_mass_ratio(ramp, 1.0, 400.0) == pytest.approx((2.0 / 3.0) ** 401,
                                                                     rel=1e-12)
        assert gl.tail_mass_ratio(gl.reflect(ramp), 1.0, 400.0) == pytest.approx(
            1.0 - (2.0 / 3.0) ** 401, rel=1e-14)
        assert gl.alpha_centroid(ramp, 400.0) == pytest.approx(10.0 / 402.0, rel=1e-12)
    tall = gl.ConcaveProfile([[0.0, 0.0], [1.0, 10.0], [2.0, 10.0], [3.0, 0.0]])
    assert gl.tail_mass_ratio(gl.power_profile(tall, 2.0), 1.0, 200.0) == pytest.approx(
        gl.tail_mass_ratio(tall, 2.0, 400.0), abs=1e-12)


@pytest.mark.parametrize("h,beta", [(gl.BallSectionProfile(1.0, 3), 700.0),
                                    (gl.DecreasingPowerProfile(1.0, 0.0, 10.0, 1.0), 400.0),
                                    (gl.ConstantProfile(10.0, 0.0, 1.0), 400.0)])
def test_absolute_integrals_out_of_float_range_raise(h, beta):
    for integral in (gl.powered_integral, gl.moment_integral):
        with pytest.raises(gl.FloatRangeError) as info:
            integral(h, beta)
        assert isinstance(info.value, gl.GrunlabError)


def test_equal_powers_integrate_the_total_mass_once(monkeypatch):
    h = gl.BallSectionProfile(1.3, 4, center=-0.2)
    a, b = h.domain
    calls = []
    real = h.integrals

    def counted(beta, lo, hi):
        calls.append((beta, lo, hi))
        return real(beta, lo, hi)

    monkeypatch.setattr(h, "integrals", counted)
    ratio, cut = gl.profiles._tail_ratio_cut(h, 2.0, 2.0)
    assert calls == [(2.0, a, b), (2.0, cut, b)]
    assert ratio == real(2.0, cut, b)[0] / real(2.0, a, b)[0]
    cut = gl.alpha_centroid(h, 1.0)
    calls.clear()
    gl.tail_mass_ratio(h, 1.0, 2.0)
    assert calls == [(1.0, a, b), (2.0, a, b), (2.0, cut, b)]


# ---------------------------------------------------------------------------
# p-concavity certification
# ---------------------------------------------------------------------------

def test_p_concavity_sampled_square_root_affine():
    ts = np.linspace(0.0, 1.0, 64)
    f = gl.PiecewiseLinear(np.column_stack([ts, (1.0 - ts) ** 2]))
    assert gl.p_concavity_check(f, 0.5).ok


def test_p_concavity_affine_squared_fails_near_midpoint(affine):
    res = gl.p_concavity_check(affine, 2.0)
    assert not res.ok
    assert res.witness is not None
    assert abs(res.witness[1] - 0.5) < 0.3


def test_p_concavity_constant_any_p(flat):
    for p in (0.1, 1.0, 10.0):
        assert gl.p_concavity_check(flat, p).ok


def test_p_concavity_rejects_bad_p(flat):
    with pytest.raises(ParameterError):
        gl.p_concavity_check(flat, 0.0)


def test_p_concavity_check_reads_a_power_at_its_base_scale():
    def check(t, p):
        f = gl.PowerProfile(gl.ConcaveProfile([[0, t], [0.4, 1.7 * t], [1, 0]]), 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return gl.p_concavity_check(f, p)

    for p in (0.5, 1.0):  # f^(1/2) is the concave base, f itself is not concave
        small, large = check(1.0, p), check(1e200, p)
        assert small.ok == large.ok == (p == 0.5)
        assert large.max_violation == pytest.approx(small.max_violation, rel=1e-12, abs=1e-15)


def test_p_concavity_on_analytic_profiles():
    cone_section = gl.DecreasingPowerProfile(np.pi, 0.0, 1.0, 2.0)
    assert gl.p_concavity_check(cone_section, 0.5).ok
    assert not gl.p_concavity_check(cone_section, 1.0).ok
    ball3 = gl.BallSectionProfile(1.0, 3)
    assert gl.p_concavity_check(ball3, 0.5).ok


def _accepted(ts, hs):
    try:
        gl.ConcaveProfile(np.column_stack([ts, hs]))
    except ProfileError:
        return False
    return True


@st.composite
def _dented_profiles(draw):
    """A concave profile on dyadic abscissas, positive inside, with one knot
    moved by a relative amount from 1e-14 to 1e-3 either way."""
    m = draw(st.integers(3, 12))
    ts = np.cumsum(draw(st.lists(st.integers(1, 64), min_size=m, max_size=m))) / 64.0
    slopes = np.sort(draw(st.lists(st.floats(-4.0, 4.0), min_size=m - 1,
                                   max_size=m - 1)))[::-1]
    hs = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))])
    # lifted above zero by more than the largest dent
    hs += draw(st.floats(0.01, 1.0)) * (np.ptp(hs) + 1.0) - hs.min()
    j = draw(st.integers(1, m - 2))
    hs[j] += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-14.0, -3.0)) * hs.max()
    return ts, hs


@settings(max_examples=200, deadline=None)
@given(data=_dented_profiles(), k=st.integers(-60, 60), shift=st.integers(-2 ** 30, 2 ** 30))
def test_concave_profile_is_the_chord_certificate_at_every_scale_and_place(data, k, shift):
    ts, hs = data
    check = gl.p_concavity_check(gl.PiecewiseLinear(np.column_stack([ts, hs])), 1.0)
    assume(abs(check.max_violation - CONCAVITY_TOL) > 1e-12)
    accepted = _accepted(ts, hs)
    assert accepted == check.ok
    # scaling by 2^k and a dyadic shift of t are exact, so the verdict cannot move
    assert _accepted(ts + shift / 64.0, 2.0 ** k * hs) == accepted
    # the sweep's vectorised test refuses exactly the rows the constructor refuses
    if accepted:
        search._check_concave_rows(ts[None], hs[None])
    else:
        with pytest.raises(ProfileError, match="not concave"):
            search._check_concave_rows(ts[None], hs[None])


def test_concave_profile_refuses_a_tiny_kink_and_accepts_a_fine_grid():
    # a convex kink is refused at every scale, 1e-12 included
    for scale in (1e-12, 1.0, 1e12):
        with pytest.raises(ProfileError, match="not concave"):
            gl.ConcaveProfile([[0.0, 0.0], [0.5, 0.2 * scale], [1.0, scale]])
    # a slope rise of 1e-6 on a 1001-point grid moves one knot 5e-10 of the
    # maximum below its chord: inside the certificate, as verify-fn agrees
    ts = np.linspace(0.0, 1.0, 1001)
    slopes = np.full(1000, -0.5)
    slopes[500:] += 1e-6
    data = {"breakpoints": np.column_stack(
        [ts, np.concatenate([[1.0], 1.0 + np.cumsum(slopes * np.diff(ts))])]).tolist()}
    h = gl.profile_from_json(data)
    assert isinstance(h, gl.ConcaveProfile)
    assert gl.p_concavity_check(gl.PiecewiseLinear(h.breakpoints), 1.0).max_violation \
        == pytest.approx(5e-10, rel=1e-3)
    assert gl.verify_functional(h, 1.0, 1.0).passed


# ---------------------------------------------------------------------------
# superlevel measure concavity
# ---------------------------------------------------------------------------

def test_superlevel_mass_closed_form_flat(flat):
    # W(s) = (1 - s^beta)/beta * |{h >= s}| = (1 - s)/1 for beta = 1, h = 1
    levels = np.linspace(0.0, 1.0, 11)
    w = gl.superlevel_masses(flat, 1.0, levels)
    assert np.allclose(w, 1.0 - levels, atol=1e-14)
    assert gl.superlevel_measure_concavity_check(flat, 1.0).ok


def test_superlevel_mass_closed_form_affine(affine):
    # hypograph is a triangle: W(s) = (1-s)^2/2 for beta = 1
    levels = np.linspace(0.0, 1.0, 9)
    w = gl.superlevel_masses(affine, 1.0, levels)
    assert np.allclose(w, 0.5 * (1.0 - levels) ** 2, atol=1e-14)
    assert gl.superlevel_measure_concavity_check(affine, 1.0).ok


def test_superlevel_mass_matches_brute_force():
    prof = random_profiles(31, 1, m=8)[0]
    grid = np.linspace(*prof.domain, 200_001)
    vals = prof.value(grid)
    dt = grid[1] - grid[0]
    for beta in (0.5, 1.0, 2.0):
        for s in (0.0, 0.21, 0.55, 0.9):
            brute = np.sum(np.maximum(vals ** beta - s ** beta, 0.0)
                           * (vals >= s)) * dt / beta
            w = gl.superlevel_masses(prof, beta, [s])[0]
            assert w == pytest.approx(brute, rel=5e-4, abs=1e-6)


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
def test_superlevel_power_concavity_holds_for_beta_ge_one(beta):
    # oracle: the same grid check at double resolution agrees
    for prof in random_profiles(37, 10, m=9):
        assert gl.superlevel_measure_concavity_check(prof, beta).ok
        assert gl.superlevel_measure_concavity_check(prof, beta, grid_size=1024).ok


def test_superlevel_power_concavity_fails_below_one():
    # the (beta+1)-th root of the superlevel mass is genuinely non-concave for
    # beta < 1: even the extremal decreasing affine profile violates it.
    affine = gl.ConcaveProfile([[0.0, 1.0], [1.0, 0.0]])
    res = gl.superlevel_measure_concavity_check(affine, 0.5)
    assert not res.ok
    assert res.max_violation > 1e-3
    # the cause is the cusp at s = 0: for h = 1 - t and beta = 1/2,
    # W(s) = 2(2/3 - sqrt(s) + s^(3/2)/3), so W'(s) = -(1 - s)/sqrt(s) -> -inf
    levels = np.linspace(0.0, 1.0, 512)
    w = gl.superlevel_masses(affine, 0.5, levels)
    closed = 2.0 * (2.0 / 3.0 - np.sqrt(levels) + levels ** 1.5 / 3.0)
    assert np.allclose(w, closed, rtol=0.0, atol=1e-14)
    assert res.worst_level == levels[1]
    # in the level variable sigma = s^beta the square root is concave
    assert superlevel_sigma_violation(affine, 0.5) <= 1e-7


def test_superlevel_masses_keep_the_shape_of_their_levels():
    h = gl.ConcaveProfile([[0.0, 0.2], [0.3, 1.0], [1.0, 0.1]])
    w = gl.superlevel_masses(h, 1.0, 0.5)
    # {h >= 1/2} is [0.3 - 0.15/0.8, 0.3 + 0.35/0.9], under a triangle of height 1/2
    assert isinstance(w, float) and w == pytest.approx(0.25 * (0.15 / 0.8 + 0.35 / 0.9), rel=1e-15)
    grid = gl.superlevel_masses(h, 1.0, [[0.5, 0.2], [0.0, 1.0]])
    assert grid.shape == (2, 2) and grid[0, 0] == w
    assert np.array_equal(grid.ravel(), gl.superlevel_masses(h, 1.0, [0.5, 0.2, 0.0, 1.0]))
    assert gl.superlevel_masses(h, 1.0, [[0.5]]).shape == (1, 1)


# ---------------------------------------------------------------------------
# power wrappers, reflection, serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", [gl.DecreasingPowerProfile, gl.IncreasingPowerProfile])
def test_power_law_value_is_its_closed_form_bit_for_bit(kind):
    rng = np.random.default_rng(17)
    for _ in range(20):
        c, gamma, q = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 0.0), rng.uniform(0.1, 5.0)
        delta = gamma + rng.uniform(0.1, 3.0)
        h = kind(c, gamma, delta, q)
        if kind is gl.DecreasingPowerProfile:
            def closed(t):
                return c * (delta - t) ** q
        else:
            def closed(t):
                return c * (t - gamma) ** q
        ts = np.concatenate([[gamma, delta], rng.uniform(gamma, delta, 30)])
        assert _bits(h.value(ts)) == _bits(closed(ts))
        for t in ts.tolist():
            assert _bits([h.value(t)]) == _bits([closed(t)])

def test_power_profile_collapse_and_delegation(affine):
    p = gl.power_profile(gl.DecreasingPowerProfile(2.0, 0.0, 1.0, 1.0), 3.0)
    assert isinstance(p, gl.DecreasingPowerProfile)
    assert p.c == 8.0 and p.q == 3.0
    w = gl.power_profile(affine, 2.0)
    assert gl.evaluate(w, 0.25) == pytest.approx(0.5625, abs=0)
    assert gl.powered_integral(w, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-13)
    ref, _ = quad(lambda t: t * (1.0 - t) ** 3.0, 0.0, 1.0)
    assert gl.moment_integral(w, 1.5) == pytest.approx(ref, rel=1e-12)


def test_reflect_all_kinds(affine):
    mirrored = gl.reflect(affine)
    assert mirrored.domain == (-1.0, 0.0)
    assert gl.evaluate(mirrored, -0.25) == pytest.approx(0.75, abs=0)
    dec = gl.reflect(gl.DecreasingPowerProfile(1.0, 0.0, 1.0, 2.0))
    assert isinstance(dec, gl.IncreasingPowerProfile)
    assert gl.evaluate(dec, -0.5) == pytest.approx(0.25, abs=0)
    ball = gl.reflect(gl.BallSectionProfile(1.0, 3, center=0.3))
    assert ball.center == -0.3


def test_json_round_trips(affine):
    profiles = [
        affine,
        gl.ConstantProfile(2.0, -1.0, 4.0),
        gl.DecreasingPowerProfile(np.pi, 0.0, 1.0, 2.0),
        gl.IncreasingPowerProfile(0.5, -2.0, 0.0, 0.7),
        gl.BallSectionProfile(1.5, 4, center=0.2),
    ]
    for prof in profiles:
        back = gl.profile_from_json(gl.profile_to_json(prof))
        assert type(back) is type(prof)
        t = 0.5 * sum(prof.domain)
        assert gl.evaluate(back, t) == pytest.approx(gl.evaluate(prof, t), rel=1e-15)


def test_json_schema_field_names(affine):
    data = gl.profile_to_json(affine)
    assert list(data.keys()) == ["breakpoints"]
    assert data["breakpoints"][0] == [0.0, 1.0]
    data = gl.profile_to_json(gl.DecreasingPowerProfile(1.0, 0.0, 1.0, 2.0))
    assert set(data.keys()) == {"kind", "params"}
    assert data["kind"] == "decreasing-power"


def test_json_errors():
    with pytest.raises(ProfileError):
        gl.profile_from_json({"kind": "spiral", "params": {}})
    with pytest.raises(ProfileError):
        gl.profile_from_json({"nope": 1})
    raw = gl.profile_from_json({"breakpoints": [[0.0, 1.0], [0.5, 0.1], [1.0, 1.0]]})
    assert isinstance(raw, gl.PiecewiseLinear)
    assert not isinstance(raw, gl.ConcaveProfile)


# ---------------------------------------------------------------------------
# the object path against exact rational arithmetic, and its invariances
# ---------------------------------------------------------------------------

NEARLY_FLAT = (1e-8, 1e-7, 1e-6, 1e-5)
INTEGER_EXPONENTS = ((2, 1), (1, 1), (3, 2), (1, 3))


def _object_path_errors(ts, hs, alpha, beta):
    """Largest deviation of each object-path result from exact rationals,
    relative to the exact value where that exceeds 1."""
    h = gl.PiecewiseLinear(np.column_stack([ts, hs]))
    a, b = h.domain
    lo, hi = a + 0.31 * (b - a), a + 0.87 * (b - a)

    def err(got, exact):
        return abs(got - float(exact)) / max(1.0, abs(float(exact)))

    mass, moment = exact_integrals(ts, hs, beta, lo, hi)
    cuts = np.linspace(a - 0.1, b, 9)
    tails = [exact_integrals(ts, hs, beta, lo=min(max(c, a), b))[0] for c in cuts]
    split = gl.profiles.powered_split(h, beta, lo)
    return {
        "ratio": abs(gl.tail_mass_ratio(h, alpha, beta) - exact_tail_ratio(ts, hs, alpha, beta)),
        "centroid": abs(gl.alpha_centroid(h, alpha) - float(exact_centroid(ts, hs, alpha))),
        "mass": err(gl.powered_integral(h, beta, (lo, hi)), mass),
        "moment": err(gl.moment_integral(h, beta, (lo, hi)), moment),
        "tails": max(err(v, t) for t, v in zip(tails, gl.tail_masses(h, beta, cuts))),
        "split": max(err(split[0], tails[0]), err(split[1], exact_integrals(ts, hs, beta, lo)[0])),
    }


@pytest.mark.parametrize("alpha,beta", INTEGER_EXPONENTS)
@pytest.mark.parametrize("change", NEARLY_FLAT)
def test_object_path_exact_on_nearly_flat_segments(alpha, beta, change):
    ts = np.linspace(0.0, 1.0, 6)
    shapes = (
        [0.2, 0.6, 0.9, 1.0, 1.0 - change, 0.5],       # flat near the top
        [1.0, 1.0 - change, 0.7, 0.4, 0.2, 0.0],       # flat first segment
        [0.0, 0.5, 0.8, 0.9, 0.9 * (1.0 + change), 0.9 * (1.0 + 2 * change)],
    )
    for hs in shapes:
        errors = _object_path_errors(ts, hs, alpha, beta)
        assert max(errors.values()) <= 1e-14, (hs, errors)


def test_object_path_exact_on_random_profiles():
    for k in range(40):
        prof = gl.random_concave([505, k], 4 + k % 13, domain=(-0.5, 1.5))
        for alpha, beta in INTEGER_EXPONENTS:
            errors = _object_path_errors(prof.ts, 1.7 * prof.hs, alpha, beta)
            assert max(errors.values()) <= 1e-14, (k, alpha, beta, errors)


_seeds = st.integers(0, 2 ** 32 - 1)
_exponents = st.floats(0.0, 6.0)


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, m=st.integers(3, 20), alpha=_exponents, beta=_exponents,
       power=st.sampled_from([-150, 150]))
def test_ratio_and_centroid_invariant_under_scaling(seed, m, alpha, beta, power):
    prof = gl.random_concave(seed, m)
    scaled = gl.ConcaveProfile(np.column_stack([prof.ts, 10.0 ** power * prof.hs]))
    r = gl.tail_mass_ratio(scaled, alpha, beta)
    assert math.isfinite(r)
    assert r == pytest.approx(gl.tail_mass_ratio(prof, alpha, beta), abs=1e-12)
    assert gl.alpha_centroid(scaled, alpha) == pytest.approx(gl.alpha_centroid(prof, alpha),
                                                             abs=1e-12)
    assert gl.tail_ratio_grid(scaled.ts, scaled.hs, alpha, beta) == r


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, m=st.integers(3, 20), alpha=_exponents, beta=_exponents,
       stretch=st.floats(1e-3, 1e3), shift=st.floats(-1e3, 1e3))
def test_ratio_invariant_and_centroid_covariant_under_affine_time(seed, m, alpha, beta,
                                                                  stretch, shift):
    prof = gl.random_concave(seed, m)
    moved = gl.ConcaveProfile(np.column_stack([stretch * prof.ts + shift, prof.hs]))
    # rounding the moved abscissas already costs eps |shift| / stretch of the width
    assert gl.tail_mass_ratio(moved, alpha, beta) == pytest.approx(
        gl.tail_mass_ratio(prof, alpha, beta), abs=1e-12 * (1.0 + abs(shift) / stretch))
    g = gl.alpha_centroid(prof, alpha)
    assert gl.alpha_centroid(moved, alpha) == pytest.approx(
        stretch * g + shift, abs=1e-12 * (stretch + abs(shift)))


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, m=st.integers(3, 20), alpha=_exponents, beta=_exponents)
def test_reflection_swaps_the_two_sides_of_the_cut(seed, m, alpha, beta):
    prof = gl.random_concave(seed, m)
    mirrored = gl.reflect(prof)
    assert gl.tail_mass_ratio(mirrored, alpha, beta) == pytest.approx(
        1.0 - gl.tail_mass_ratio(prof, alpha, beta), abs=1e-12)
    assert gl.alpha_centroid(mirrored, alpha) == pytest.approx(-gl.alpha_centroid(prof, alpha),
                                                               abs=1e-12)


def test_ratio_finite_and_unchanged_at_extreme_scales():
    ts = np.linspace(0.0, 1.0, 6)
    hs = np.array([0.2, 0.6, 0.9, 1.0, 1.0 - 1e-6, 0.5])
    base = gl.tail_ratio_grid(ts, hs, 2.0, 3.0)
    for scale in (1e200, 1e-200):
        h = gl.ConcaveProfile(np.column_stack([ts, scale * hs]))
        assert abs(gl.tail_mass_ratio(h, 2.0, 3.0) - base) <= 1e-12
        assert abs(gl.tail_ratio_grid(ts, scale * hs, 2.0, 3.0) - base) <= 1e-12
        assert gl.verify_functional(h, 2.0, 3.0).ratio == gl.tail_mass_ratio(h, 2.0, 3.0)
    far = gl.ConstantProfile(1.0, 1e154, 2e154)  # hi * hi leaves the float range
    assert gl.tail_mass_ratio(far, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert gl.alpha_centroid(far, 1.0) == 1.5e154


# ---------------------------------------------------------------------------
# every integral names its own scale
# ---------------------------------------------------------------------------

_SPLINE = gl.exact_section_profile(
    gl.Simplex([[0.0, 0.0, 0.0], [1.3, 0.0, 0.0], [0.2, 0.9, 0.0], [0.1, 0.3, 1.1]]),
    [0.3, -0.5, 0.8])


def _kinds_scaled_by(f):
    """Every profile kind with a scale, and a PowerProfile of each, scaled by f."""
    kinds = [gl.ConcaveProfile([[0.0, 0.3 * f], [0.4, 1.7 * f], [1.1, 2.0 * f], [2.0, 0.0]]),
             gl.ConstantProfile(3.7 * f, -0.2, 1.3),
             gl.DecreasingPowerProfile(1.3 * f, 0.2, 1.7, 0.8),
             gl.IncreasingPowerProfile(2.3 * f, -1.0, 2.0, 1.7),
             gl.HistogramProfile([0.0, 0.5, 1.2, 2.0], [1.0 * f, 3.5 * f, 0.0]),
             SimplexSplineProfile(_SPLINE.knots, _SPLINE.volumes * f)]
    return kinds + [gl.PowerProfile(h, 1.5) for h in kinds]


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-400, 400), alpha=st.floats(0.0, 700.0), beta=st.floats(0.0, 700.0))
def test_ratios_and_centroids_are_bitwise_scale_free(k, alpha, beta):
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # no warning escapes
        for h, scaled in zip(_kinds_scaled_by(1.0), _kinds_scaled_by(2.0 ** k)):
            assert gl.tail_mass_ratio(scaled, alpha, beta) == gl.tail_mass_ratio(h, alpha, beta)
            assert gl.alpha_centroid(scaled, alpha) == gl.alpha_centroid(h, alpha)
            if beta > 0.0:
                for integral in (gl.powered_integral, gl.moment_integral):
                    try:
                        assert math.isfinite(integral(scaled, beta))
                    except gl.FloatRangeError:
                        pass


_ZIGZAG = np.linspace(0.0, 1.0, 24)
_TAIL_KINDS = {
    "piecewise-linear": gl.PiecewiseLinear(np.column_stack(
        [_ZIGZAG, 1.0 + 0.5 * np.sin(7.0 * _ZIGZAG) + 0.3 * (np.arange(24) % 2)])),
    "concave": gl.random_concave(11, 24),
    "power-of-concave": gl.PowerProfile(gl.random_concave(3, 24), 0.5),
    "simplex-spline": _SPLINE,
    "ball-section": gl.BallSectionProfile(1.3, 4, center=-0.2),
    "constant": gl.ConstantProfile(3.7, -0.2, 1.3),
    "power-law": gl.DecreasingPowerProfile(1.3, 0.2, 1.7, 0.8),
    "histogram": gl.HistogramProfile([0.0, 0.5, 1.2, 2.0], [1.0, 3.5, 0.0]),
}


@pytest.mark.parametrize("kind", list(_TAIL_KINDS))
def test_powered_split_and_tail_masses_read_one_tail_formula(kind):
    h = _TAIL_KINDS[kind]
    a, b = h.domain
    for beta in (0.0, 0.5, 1.0, 2.5):
        for cut in (a, a + 0.37 * (b - a), gl.alpha_centroid(h, 1.0), b):
            assert gl.profiles.powered_split(h, beta, cut)[1] == gl.tail_masses(h, beta, [cut])[0]


def test_powered_split_and_tail_masses_agree_bitwise_on_random_profiles():
    for seed in range(300):
        h = gl.random_concave(seed, 24)
        cut = gl.alpha_centroid(h, 1.0)
        for beta in (0.5, 1.0, 2.0, 3.0):
            split = gl.profiles.powered_split(h, beta, cut)[1]
            assert split == gl.tail_masses(h, beta, [cut])[0], (seed, beta)


def test_piecewise_linear_tails_in_blocks_are_the_search_formula(monkeypatch):
    monkeypatch.setattr(gl.profiles, "_TAIL_BLOCK", 64)  # blocks of one row, of 64 cuts
    h = gl.random_concave(5, 100)
    a, b = h.domain
    cuts = np.concatenate([np.random.default_rng(1).uniform(a, b, 300), h.ts, [a, b]])
    rows = np.broadcast_to(h._unit, (cuts.size, h.ts.size))
    for beta in (0.0, 0.5, 1.5, 3.0):
        tails, top = h.tails(beta, cuts)
        assert top == h.max_value()
        assert np.array_equal(tails, gl.profiles._mass_tail(h.ts, rows, beta, cuts)[1])


def test_many_cuts_keep_tail_masses_in_bounded_memory():
    h = gl.random_concave(5, 1000)
    cuts = np.linspace(0.0, 1.0, 10 ** 5)
    tracemalloc.start()
    try:
        masses = gl.tail_masses(h, 1.5, cuts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6  # a segment kernel pass over all the cuts at once peaks at 15.3 MB
    picks = np.random.default_rng(2).choice(cuts.size, 50, replace=False)
    rows = np.broadcast_to(h._unit, (picks.size, h.ts.size))
    want = gl.profiles._mass_tail(h.ts, rows, 1.5, cuts[picks])[1] * h.max_value() ** 1.5
    assert np.array_equal(masses[picks], want)


def test_a_centroid_rounded_onto_the_right_end_leaves_an_empty_tail():
    spike = gl.IncreasingPowerProfile(1e-10, 0.0, 1.0, 1.0)
    assert gl.alpha_centroid(spike, 1e17) == 1.0
    assert gl.tail_mass_ratio(spike, 1e17, 1000.0) == 0.0


def test_profile_far_from_the_origin_raises_instead_of_a_nan_ratio():
    far = gl.ConcaveProfile([[1e155, 1.0], [1.5e155, 2.0], [2e155, 1.0]])
    for fn in (lambda: gl.tail_mass_ratio(far, 1.0, 1.0), lambda: gl.alpha_centroid(far, 1.0),
               lambda: gl.verify_functional(far, 1.0, 1.0)):
        with pytest.raises(gl.FloatRangeError):
            fn()


@pytest.mark.parametrize("build,error", [
    (lambda: gl.ConstantProfile(math.inf, 0.0, 1.0), ProfileError),
    (lambda: gl.ConstantProfile(1.0, 0.0, math.inf), ProfileError),
    (lambda: gl.ConstantProfile(math.nan, 0.0, 1.0), ProfileError),
    (lambda: gl.DecreasingPowerProfile(1.0, 0.0, 1.0, math.inf), ProfileError),
    (lambda: gl.IncreasingPowerProfile(math.inf, 0.0, 1.0, 1.0), ProfileError),
    (lambda: gl.IncreasingPowerProfile(1.0, -math.inf, 1.0, 1.0), ProfileError),
    (lambda: gl.DecreasingPowerProfile(1.0, 0.0, 10.0, 400.0), ProfileError),  # max overflows
    (lambda: gl.BallSectionProfile(1.0, 3, math.nan), ProfileError),
    (lambda: gl.BallSectionProfile(math.inf, 3), ProfileError),
    (lambda: gl.BallSectionProfile(1e100, 6), ProfileError),  # max overflows
    (lambda: gl.PowerProfile(gl.ConstantProfile(1.0, 0.0, 1.0), math.inf), ParameterError),
    (lambda: gl.PowerProfile(gl.ConstantProfile(1.0, 0.0, 1.0), math.nan), ParameterError),
    (lambda: gl.power_profile(gl.ConcaveProfile([[0, 0], [1, 1], [2, 0]]), math.inf),
     ParameterError),
], ids=["const-c", "const-delta", "const-nan", "dec-q", "inc-c", "inc-gamma", "dec-max",
        "ball-center", "ball-radius", "ball-max", "power-inf", "power-nan", "power_profile"])
def test_profiles_reject_non_finite_parameters(build, error):
    with pytest.raises(error):
        build()


def test_power_profile_keeps_the_wrapper_when_the_collapse_overflows():
    ramp = gl.DecreasingPowerProfile(1.0, 0.0, 10.0, 1.0)
    steep = gl.power_profile(ramp, 400.0)  # c (10 - t)^400 peaks at 1e400
    assert isinstance(steep, gl.PowerProfile)
    assert gl.tail_mass_ratio(steep, 1.0, 2.0) == gl.tail_mass_ratio(ramp, 400.0, 800.0)


@pytest.mark.parametrize("p", [0.0, math.nan, math.inf])
def test_p_concavity_check_rejects_p_outside_the_positive_floats(p):
    with pytest.raises(ParameterError):
        gl.p_concavity_check(gl.ConcaveProfile([[0, 0], [1, 1], [2, 0]]), p)


@pytest.mark.parametrize("fn", [lambda h, b: gl.superlevel_masses(h, b, [0.0, 0.5]),
                                lambda h, b: gl.superlevel_measure_concavity_check(h, b)],
                         ids=["masses", "check"])
def test_superlevel_checks_take_a_positive_beta_and_a_piecewise_linear_profile(fn):
    tent = gl.ConcaveProfile([[0, 0], [1, 1], [2, 0]])
    for beta in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            fn(tent, beta)
    with pytest.raises(ProfileError):
        fn(gl.BallSectionProfile(1.0, 3), 1.0)


@pytest.mark.parametrize("ratio,bound,tol,error", [
    (math.nan, 0.5, 1e-9, gl.FloatRangeError), (math.inf, 0.5, 1e-9, gl.FloatRangeError),
    (0.5, math.nan, 1e-9, gl.FloatRangeError), (0.5, 0.4, math.nan, ParameterError)])
def test_reports_refuse_non_finite_numbers(ratio, bound, tol, error):
    with pytest.raises(error):
        gl.make_report("functional-tail", ratio, bound, tol, {})
    with pytest.raises(ParameterError):
        gl.verify_functional(gl.ConcaveProfile([[0, 0], [1, 1], [2, 0]]), 1.0, 1.0, tol=math.nan)


# ---------------------------------------------------------------------------
# the powered-integral memo of a piecewise-linear profile
# ---------------------------------------------------------------------------

def test_unit_ordinates_are_read_only():
    h = gl.ConcaveProfile([[0.0, 0.5], [0.3, 2.0], [1.0, 1.0]])
    for arr in (h.ts, h.hs, h._unit):
        with pytest.raises(ValueError):
            arr[0] = 0.25


def _bits(values):
    return tuple(v.hex() if isinstance(v, float) else repr(v) for v in values)


def _outcome(read, h):
    """What read(h) returns, bit for bit, or the error it raises."""
    try:
        return _bits(read(h))
    except gl.GrunlabError as exc:
        return type(exc).__name__, str(exc)


def _memo_readers(alpha, beta, where):
    """Every reader of the memo at powers (alpha, beta) and at the cut
    a + where (b - a), as (name, function of a profile to a tuple)."""
    def cut(h):
        a, b = h.domain
        return a + where * (b - a)

    def report(h):
        rep = gl.verify_functional(h, alpha, beta)
        return rep.ratio, rep.bound, rep.slack, rep.passed, rep.details["cut"]

    def comparison(h):
        return dataclasses.astuple(gl.build_comparison_affine(h, alpha, beta))

    def validation(h):
        g = gl.build_comparison_affine(h, alpha, beta)
        return dataclasses.astuple(gl.validate_comparison(h, g, alpha, beta, s_grid_size=16))

    readers = [
        ("tail_mass_ratio", lambda h: (gl.tail_mass_ratio(h, alpha, beta),)),
        ("alpha_centroid", lambda h: (gl.alpha_centroid(h, alpha),)),
        ("powered_split", lambda h: gl.profiles.powered_split(h, beta, cut(h))),
        ("powered_split at g_alpha",
         lambda h: gl.profiles.powered_split(h, beta, gl.alpha_centroid(h, alpha))),
        ("tail_masses", lambda h: tuple(gl.tail_masses(h, beta, [cut(h), *h.ts[1:-1]]))),
        ("verify_functional", report),
    ]
    if beta > 0.0:
        readers += [
            ("powered_integral", lambda h: (gl.powered_integral(h, beta),)),
            ("moment_integral", lambda h: (gl.moment_integral(h, beta),)),
            ("build_comparison_affine", comparison),
            ("validate_comparison", validation),
            ("centroid_domination_check",
             lambda h: dataclasses.astuple(gl.centroid_domination_check(h, alpha, beta))),
        ]
    return readers


_memo_powers = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.0, 8.0)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, m=st.integers(3, 20), k=st.integers(-60, 60),
       calls=st.lists(st.tuples(_memo_powers, _memo_powers, st.floats(0.0, 1.0)),
                      min_size=1, max_size=6),
       order=st.randoms(use_true_random=False))
def test_memo_results_are_bitwise_those_of_a_cold_profile(seed, m, k, calls, order):
    base = gl.random_concave(seed, m)
    pts = np.column_stack([base.ts, 2.0 ** k * base.hs])
    warm = gl.ConcaveProfile(pts)
    work = [reader for alpha, beta, where in calls for reader in _memo_readers(alpha, beta, where)]
    order.shuffle(work)
    for name, read in work:
        assert _outcome(read, warm) == _outcome(read, gl.ConcaveProfile(pts)), name
        assert len(warm._memo) <= gl.profiles._MEMO_KEYS
    for alpha, beta, _ in calls:
        assert gl.tail_mass_ratio(warm, alpha, beta) == gl.tail_ratio_grid(
            warm.ts, warm.hs, alpha, beta)


def test_memo_keeps_at_most_its_cap_of_keys():
    h = gl.random_concave(2024, 12)
    powers = np.linspace(0.01, 10.0, 1000)
    random.Random(3).shuffle(powers)
    for beta in powers:
        gl.tail_mass_ratio(h, 1.0, beta)
        gl.alpha_centroid(h, beta)
    assert len(h._memo) == gl.profiles._MEMO_KEYS
    cold = gl.random_concave(2024, 12)
    for beta in powers[:50]:  # evicted keys are recomputed to the same bits
        assert gl.tail_mass_ratio(h, 1.0, beta) == gl.tail_mass_ratio(cold, 1.0, beta)
