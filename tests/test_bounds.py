"""Sharp constants, theorem verdicts, and the comparison-affine construction."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import grunlab as gl
from grunlab import bodies, bounds, profiles
from grunlab.errors import ParameterError, PreconditionError

from conftest import random_profiles


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_functional_bound_values():
    assert gl.functional_bound(1, 1).value == pytest.approx(4.0 / 9.0, rel=1e-15)
    assert gl.functional_bound(2, 1).value == pytest.approx(1.0 / 4.0, rel=1e-15)
    assert gl.functional_bound(1, 2).value == pytest.approx(8.0 / 27.0, rel=1e-15)
    # beta -> 0 limit at alpha = n-1 equals 1/(n+1)
    assert gl.functional_bound(2, 0).value == pytest.approx(1.0 / 4.0, rel=1e-15)
    assert gl.functional_bound(1, 0).value == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert gl.functional_bound(2, 1e-13).value == pytest.approx(0.25, rel=1e-12)


def test_functional_bound_regimes_and_errors():
    assert gl.functional_bound(3, 1).regime == "beta_le_alpha"
    assert gl.functional_bound(1, 3).regime == "alpha_le_beta"
    with pytest.raises(ParameterError):
        gl.functional_bound(-0.1, 1)
    with pytest.raises(ParameterError):
        gl.functional_bound(1, -0.1)


def test_grunbaum_r_bound_values():
    assert gl.grunbaum_r_bound(0.5, 1).value == pytest.approx(27.0 / 64.0, rel=1e-15)
    assert gl.grunbaum_r_bound(1, 0).value == pytest.approx(0.25, rel=1e-15)
    assert gl.grunbaum_r_bound(1, 2).value == pytest.approx(0.25, rel=1e-15)
    assert gl.grunbaum_r_bound(1, 0).regime == "midpoint"


def test_jensen_bbl_values_and_dominance_example():
    assert gl.jensen_bbl_bound(1, 1).value == pytest.approx(1.0 / 9.0, rel=1e-15)
    assert gl.jensen_bbl_bound(0.5, 1).value == pytest.approx(1.0 / 64.0, rel=1e-15)
    assert gl.jensen_bbl_bound(1, 2).value == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert gl.jensen_bbl_bound(1, 2).value < gl.grunbaum_r_bound(1, 2).value


def test_classic_bounds():
    two = {k: v.value for k, v in gl.classic_bounds(2).items()}
    assert two == pytest.approx(
        {"grunbaum": 4.0 / 9.0, "minkowski_radon": 1.0 / 3.0, "makai_fradelizi": 2.0 / 3.0},
        rel=1e-15)
    three = {k: v.value for k, v in gl.classic_bounds(3).items()}
    assert three == pytest.approx(
        {"grunbaum": 27.0 / 64.0, "minkowski_radon": 0.25, "makai_fradelizi": 9.0 / 16.0},
        rel=1e-15)
    # same-base algebra: grunbaum = makai_fradelizi * n/(n+1)
    assert two["grunbaum"] == pytest.approx(two["makai_fradelizi"] * 2.0 / 3.0, rel=1e-15)
    with pytest.raises(ParameterError):
        gl.classic_bounds(1)


def test_branch_continuity():
    for alpha in (0.3, 1.0, 2.5):
        lo = ((alpha + 1.0) / (alpha + 2.0)) ** (alpha + 1.0)
        assert gl.functional_bound(alpha, alpha).value == lo
    for p in (0.25, 1.0, 3.0):
        both = ((p + 1.0) / (2.0 * p + 1.0)) ** ((p + 1.0) / p)
        assert gl.grunbaum_r_bound(p, 1.0).value == pytest.approx(both, rel=1e-15)
        # branch expressions agree exactly at r = 1
        assert ((p + 1.0) / (2.0 * p + 1.0)) == ((p + 1.0) / (2.0 * p + 1.0))


def test_dominance_over_jensen_on_grid():
    ps = np.linspace(0.1, 5.0, 20)
    rs = np.linspace(0.1, 5.0, 20)
    for p in ps:
        for r in rs:
            assert gl.grunbaum_r_bound(p, r).value > gl.jensen_bbl_bound(p, r).value


def test_reduction_identities():
    for n in (2, 3, 4, 7):
        cb = gl.classic_bounds(n)
        assert gl.functional_bound(n - 1, n - 1).value == pytest.approx(
            cb["grunbaum"].value, rel=1e-15)
        assert gl.functional_bound(n - 1, 0).value == pytest.approx(
            cb["minkowski_radon"].value, rel=1e-15)
        # root-limit: the beta -> infinity limit of bound^(1/beta)
        assert gl.functional_root_limit(n - 1) == pytest.approx(
            cb["makai_fradelizi"].value ** (1.0 / (n - 1)), rel=1e-15)
        gaps = [abs(gl.functional_bound(n - 1, b).value ** (1.0 / b)
                    - gl.functional_root_limit(n - 1)) for b in (8, 32, 128)]
        assert gaps[0] > gaps[1] > gaps[2]


def test_sharp_bound_invariants():
    with pytest.raises(ParameterError):
        gl.SharpBound(0.0, "midpoint")
    with pytest.raises(ParameterError):
        gl.SharpBound(1.0, "midpoint")
    with pytest.raises(ParameterError):
        gl.SharpBound(0.5, "bogus")


# ---------------------------------------------------------------------------
# verify_functional
# ---------------------------------------------------------------------------

def test_verify_functional_equality_case(affine):
    rep = gl.verify_functional(affine, 1.0, 1.0)
    assert rep.passed and rep.slack == pytest.approx(0.0, abs=1e-12)
    rep = gl.verify_functional(affine, 1.0, 2.0)
    assert rep.passed and rep.slack == pytest.approx(0.0, abs=1e-12)


def test_verify_functional_symmetric_case(flat):
    rep = gl.verify_functional(flat, 1.0, 1.0)
    assert rep.passed
    assert rep.ratio == pytest.approx(0.5, rel=1e-13)
    assert rep.slack == pytest.approx(0.5 - 4.0 / 9.0, rel=1e-12)


def test_verify_functional_random_profiles_never_violate():
    for prof in random_profiles(41, 25, m=9):
        for alpha, beta in ((0.5, 0.5), (2.0, 0.5), (1.0, 3.0), (3.0, 3.0), (1.0, 0.0)):
            rep = gl.verify_functional(prof, alpha, beta)
            assert rep.passed, (alpha, beta, rep.slack)
            assert rep.ratio == gl.tail_mass_ratio(prof, alpha, beta)
            assert rep.details["cut"] == gl.alpha_centroid(prof, alpha)


def test_verify_functional_beta_zero_limit():
    # the increasing affine profile attains the beta -> 0 constant 1/(alpha+2)
    rising = gl.ConcaveProfile([[0.0, 0.0], [1.0, 1.0]])
    ball = gl.BallSectionProfile(1.0, 3)  # concave section profile of the R^3 ball
    for alpha in (0.5, 1.0, 3.0):
        rep = gl.verify_functional(rising, alpha, 0.0)
        assert rep.ratio == pytest.approx(gl.functional_bound(alpha, 0.0).value, abs=1e-15)
        assert rep.passed
        rep = gl.verify_functional(ball, alpha, 0.0)
        assert rep.passed and rep.ratio == pytest.approx(0.5, abs=1e-12)


def test_verify_functional_rejects_non_concave():
    raw = gl.PiecewiseLinear([[0.0, 1.0], [0.5, 0.2], [1.0, 1.0]])
    with pytest.raises(PreconditionError) as err:
        gl.verify_functional(raw, 1.0, 1.0)
    assert err.value.witness is not None


class _Certified(Exception):
    pass


def test_a_concave_profile_is_certified_once_when_built(monkeypatch):
    def certify(f, p, tol=None):
        raise _Certified

    for module in (profiles, bounds, bodies):  # wherever a verdict could call it from
        if hasattr(module, "p_concavity_check"):
            monkeypatch.setattr(module, "p_concavity_check", certify)
    h = gl.ConcaveProfile([[0.0, 0.5], [0.3, 1.0], [1.0, 0.2]])
    assert gl.verify_functional(h, 1.0, 1.0).passed
    triangle = gl.Polytope2D([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert gl.verify_grunbaum_r(triangle, [1.0, 2.0], 1.0, 1.0).passed  # a ConcaveProfile
    for other in (gl.PiecewiseLinear(h.breakpoints), gl.DecreasingPowerProfile(1.0, 0.0, 1.0, 0.5),
                  gl.PowerProfile(h, 0.5)):
        with pytest.raises(_Certified):
            gl.verify_functional(other, 1.0, 1.0)
    with pytest.raises(_Certified):  # a ConcaveProfile at p != 1
        gl.verify_grunbaum_r(triangle, [1.0, 2.0], 0.5, 1.0)


def test_verify_functional_report_serialization(affine):
    rep = gl.verify_functional(affine, 1.0, 1.0)
    data = rep.to_json_dict()
    assert set(data) >= {"theorem", "ratio", "bound", "slack", "pass", "provenance"}
    assert data["pass"] is True
    assert data["provenance"]["kind"] == "exact"
    assert data["provenance"]["params"] == {"alpha": 1.0, "beta": 1.0}
    csv_text = gl.reports_to_csv([rep])
    assert csv_text.splitlines()[0] == "theorem,alpha,beta,p,r,n,ratio,bound,slack,pass"


# ---------------------------------------------------------------------------
# comparison affine construction
# ---------------------------------------------------------------------------

def test_comparison_fixes_decreasing_affine(affine):
    g = gl.build_comparison_affine(affine, 1.0, 1.0)
    assert g.gamma == pytest.approx(0.0, abs=1e-12)
    assert g.delta == pytest.approx(1.0, rel=1e-12)
    assert g.c == pytest.approx(1.0, rel=1e-12)
    val = gl.validate_comparison(affine, g, 1.0, 1.0)
    assert val.passed
    # identity comparison: tail domination an equality at every grid point
    assert val.tail_domination_margin == pytest.approx(0.0, abs=1e-10)


def test_comparison_flat_profile_closed_form(flat):
    g = gl.build_comparison_affine(flat, 1.0, 1.0)
    assert g.delta == pytest.approx(1.5, rel=1e-14)
    assert g.c == pytest.approx(1.0, rel=1e-14)
    assert g.gamma == pytest.approx(1.5 - np.sqrt(2.0), rel=1e-12)
    val = gl.validate_comparison(flat, g, 1.0, 1.0)
    assert val.passed


def test_comparison_conditions_on_random_profiles():
    pairs = ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 3.0))
    for prof in random_profiles(47, 15, m=8):
        a, b = prof.domain
        for alpha, beta in pairs:
            g = gl.build_comparison_affine(prof, alpha, beta)
            assert a - 1e-9 <= g.gamma <= g.anchor <= b <= g.delta + 1e-9
            val = gl.validate_comparison(prof, g, alpha, beta)
            assert val.passed, (alpha, beta, val)


def test_comparison_masses_against_quad_oracle():
    prof = random_profiles(53, 1, m=7)[0]
    alpha, beta = 2.0, 1.5
    g = gl.build_comparison_affine(prof, alpha, beta)
    a, b = prof.domain
    total_ref, _ = quad(lambda t: prof.value(t) ** beta, a, b, points=list(prof.ts[1:-1]), limit=200)
    g_total = g.c ** beta * (g.delta - g.gamma) ** (beta + 1.0) / (beta + 1.0)
    assert g_total == pytest.approx(total_ref, rel=1e-8)
    right_ref, _ = quad(lambda t: prof.value(t) ** beta, g.anchor, b,
                        points=list(prof.ts[(prof.ts > g.anchor) & (prof.ts < b)]), limit=200)
    assert float(g.powered_tail(beta, g.anchor)) == pytest.approx(right_ref, rel=1e-8)


def test_comparison_on_analytic_profile():
    h = gl.BallSectionProfile(1.0, 3)  # concave section profile of the R^3 ball
    g = gl.build_comparison_affine(h, 1.0, 1.0)
    val = gl.validate_comparison(h, g, 1.0, 1.0)
    assert val.passed


def test_comparison_degenerate_profile_rejected():
    with pytest.raises(ParameterError):
        gl.build_comparison_affine(gl.ConcaveProfile([[0, 1], [1, 0]]), 1.0, 0.0)


def test_comparison_ordering_slack_scales_with_the_domain():
    h = gl.ConcaveProfile([[0.0, 1.0], [1e-20, 0.5]])
    g = gl.build_comparison_affine(h, 1.0, 1.0)
    assert gl.validate_comparison(h, g, 1.0, 1.0).ordering_ok
    # tol (b - a) is 1e-28: gamma half of it left of a passes, twice it fails,
    # and 1e-9 left of a (1e11 widths) fails
    for gamma, ok in ((-5e-29, True), (-2e-28, False), (g.gamma - 1e-9, False)):
        moved = dataclasses.replace(g, gamma=gamma)
        assert gl.validate_comparison(h, moved, 1.0, 1.0).ordering_ok is ok, gamma


@pytest.mark.parametrize("size", [0, -3, 0.5, np.nan, np.inf])
def test_validate_comparison_refuses_an_s_grid_without_points(size):
    h = gl.ConcaveProfile([[0.0, 0.2], [0.3, 1.0], [1.0, 0.1]])
    g = gl.build_comparison_affine(h, 1.0, 1.0)
    with pytest.raises(ParameterError, match="s_grid_size"):
        gl.validate_comparison(h, g, 1.0, 1.0, s_grid_size=size)
    assert gl.validate_comparison(h, g, 1.0, 1.0, s_grid_size=1).passed


def _grid_and_six_comparisons(h):
    """verify_functional on the 4x4 grid, then criterion 4's construction on
    six pairs of it."""
    grid = (0.5, 1.0, 2.0, 3.0)
    pairs = ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 0.5), (2.0, 3.0))
    for alpha in grid:
        for beta in grid:
            assert gl.verify_functional(h, alpha, beta).passed
    for alpha, beta in pairs:
        g = gl.build_comparison_affine(h, alpha, beta)
        assert gl.validate_comparison(h, g, alpha, beta).passed
        assert gl.centroid_domination_check(h, alpha, beta).passed


def test_a_grid_and_six_comparisons_make_26_kernel_passes(kernel_passes):
    # one pass per power (4), one partial segment per (power, centroid) (16)
    # and one per tail_masses grid (6)
    passes = kernel_passes
    _grid_and_six_comparisons(gl.random_concave(20, 24))
    assert len(passes) <= 26, sorted(passes)


def test_a_power_of_a_piecewise_linear_profile_reads_its_memo(kernel_passes):
    # the same 26 passes at the powers 0.5 (alpha, beta), through the base's
    # memo; integrating each tail on its own would make 567
    h = gl.PowerProfile(gl.random_concave(20, 24), 0.5)
    _grid_and_six_comparisons(h)
    assert len(kernel_passes) <= 26, sorted(kernel_passes)
    assert sorted(set(kernel_passes)) == [0.25, 0.5, 1.0, 1.5]


# ---------------------------------------------------------------------------
# centroid domination
# ---------------------------------------------------------------------------

def test_centroid_domination_equality_for_affine(affine):
    res = gl.centroid_domination_check(affine, 1.0, 1.0)
    assert res.passed
    assert res.g_alpha_h == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert res.threshold == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_centroid_domination_flat_profile(flat):
    res = gl.centroid_domination_check(flat, 1.0, 1.0)
    assert res.passed
    gamma = 1.5 - np.sqrt(2.0)
    assert res.threshold == pytest.approx(gamma + np.sqrt(2.0) / 3.0, rel=1e-12)
    res = gl.centroid_domination_check(flat, 1.0, 2.0)
    assert res.regime == "alpha_le_beta"
    assert res.passed and res.g_alpha_h == pytest.approx(0.5, rel=1e-13)


def test_centroid_domination_random_profiles():
    pairs = ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 3.0))
    for prof in random_profiles(59, 20, m=9):
        for alpha, beta in pairs:
            res = gl.centroid_domination_check(prof, alpha, beta)
            assert res.passed, (alpha, beta, res)


@pytest.mark.parametrize("p,r,name", [(np.inf, 1.0, "p"), (1.0, np.inf, "r"),
                                      (np.nan, 1.0, "p")])
def test_jensen_bbl_bound_names_a_non_finite_parameter(p, r, name):
    with pytest.raises(ParameterError, match=f"{name} must be finite and positive"):
        gl.jensen_bbl_bound(p, r)
