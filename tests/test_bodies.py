"""Bodies: supports, sections, centroids, verifiers, revolution round trips."""

import importlib
import inspect
import json
import math
import pkgutil
import time
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import grunlab as gl
from grunlab.bodies import SimplexSplineProfile
from grunlab.errors import (
    DegenerateBodyError,
    DomainError,
    FloatRangeError,
    GrunlabError,
    ParameterError,
    PreconditionError,
)

from conftest import (
    BoxSections,
    SimplexSections,
    chord_length,
    exact_section_integrals,
    largest_section,
    load_fixture,
    random_convex_polygon,
    random_polytope3d,
    reference_mc_blocks,
    reference_mc_chunks,
    reference_mc_estimates,
    reference_projections,
    rotation_matrix_3d,
    row_major_contains,
)

E1_3 = np.array([1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# support intervals and section volumes
# ---------------------------------------------------------------------------

def test_support_examples():
    ball = gl.Ball([0.0, 0.0, 0.0], 1.0)
    u = np.array([1.0, 2.0, -2.0]) / 3.0
    assert gl.support_interval(ball, u) == pytest.approx((-1.0, 1.0))
    tri = gl.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert gl.support_interval(tri, [1.0, 0.0]) == pytest.approx((0.0, 1.0))
    box = gl.Box([0.0, 0.0], [1.0, 2.0])
    assert gl.support_interval(box, [0.0, 1.0]) == pytest.approx((0.0, 2.0))
    assert gl.support_interval(box, [-1.0, 0.0]) == pytest.approx((-1.0, 0.0))


def test_section_volume_takes_the_sampled_route_its_mc_spec_names():
    ball, mc = gl.Ball(np.zeros(3), 1.0), gl.McSpec(3, 20_000, 32)
    sampled = gl.evaluate(gl.mc_section_profile(ball, E1_3, mc).profile, 0.0)
    assert gl.section_volume(ball, E1_3, 0.0, mc=mc) == sampled != np.pi


def test_section_volume_examples():
    ball = gl.Ball([0.0, 0.0, 0.0], 1.0)
    assert gl.section_volume(ball, E1_3, 0.0) == pytest.approx(np.pi, rel=1e-14)
    assert gl.section_volume(ball, E1_3, 0.6) == pytest.approx(np.pi * 0.64, rel=1e-13)
    tri = gl.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert gl.section_volume(tri, [1.0, 0.0], 0.5) == pytest.approx(0.5, rel=1e-13)
    with pytest.raises(DomainError):
        gl.section_volume(ball, E1_3, 1.5)


def test_simplex_cone_axis_closed_form():
    tet = gl.Simplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    prof = gl.exact_section_profile(tet, E1_3)
    assert isinstance(prof, gl.DecreasingPowerProfile)
    # area of {y+z <= 1-t, y,z >= 0} = (1-t)^2/2
    assert gl.evaluate(prof, 0.3) == pytest.approx(0.5 * 0.49, rel=1e-12)


def test_tetra_general_direction_matches_quad_volume():
    rng = np.random.default_rng(7)
    tet = gl.Simplex(rng.normal(size=(4, 3)))
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    prof = gl.exact_section_profile(tet, u)
    a, b = prof.domain
    vol = gl.powered_integral(prof, 1.0)
    assert vol == pytest.approx(tet.volume(), rel=1e-12)


def test_polygon_profile_is_exact_chord():
    rng = np.random.default_rng(11)
    poly = random_convex_polygon(rng)
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    prof = gl.exact_section_profile(poly, u)
    assert isinstance(prof, gl.ConcaveProfile)
    assert gl.powered_integral(prof, 1.0) == pytest.approx(poly.volume(), rel=1e-12)
    a, b = prof.domain
    for t in np.linspace(a, b, 7):
        assert gl.evaluate(prof, t) == pytest.approx(chord_length(poly, u, t), abs=1e-12)


def test_cube_diagonal_section():
    box = gl.Box([0, 0, 0], [1, 1, 1])
    u = np.ones(3) / np.sqrt(3.0)
    prof = gl.exact_section_profile(box, u)
    mid = 0.5 * sum(prof.domain)
    assert prof.value(mid) == pytest.approx(3.0 * np.sqrt(3.0) / 4.0, rel=1e-12)
    assert gl.powered_integral(prof, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_fubini_identity_on_fixtures(cone3):
    checks = [
        (gl.Ball([0.0, 0.0, 0.0], 1.0), np.array([0.0, 1.0, 0.0])),
        (cone3, E1_3),
        (gl.Box([0, 0, 0], [1, 1, 1]), np.ones(3) / np.sqrt(3.0)),
        (gl.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([0.6, 0.8])),
    ]
    for body, u in checks:
        prof = gl.exact_section_profile(body, u)
        assert gl.powered_integral(prof, 1.0) == pytest.approx(body.volume(), rel=1e-8)


# ---------------------------------------------------------------------------
# centroids and powered centroid points
# ---------------------------------------------------------------------------

def test_polygon_centroid_matches_fan_oracle():
    rng = np.random.default_rng(13)
    poly = random_convex_polygon(rng)
    # oracle: triangle fan from vertex 0
    v = poly.verts
    acc, area = np.zeros(2), 0.0
    for i in range(1, len(v) - 1):
        d1, d2 = v[i] - v[0], v[i + 1] - v[0]
        a = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        acc += a * (v[0] + v[i] + v[i + 1]) / 3.0
        area += a
    assert gl.centroid(poly) == pytest.approx(acc / area, rel=1e-12)


def test_polytope3d_cube_volume_centroid():
    body = gl.body_from_json({"variant": "polytope3d",
                              "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                                           [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
                              "faces": [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 5, 4],
                                        [2, 3, 7, 6], [0, 3, 7, 4], [1, 2, 6, 5]]})
    assert body.volume() == pytest.approx(1.0, rel=1e-12)
    assert gl.centroid(body) == pytest.approx([0.5, 0.5, 0.5], rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_simplex_volume_and_centroid_match_closed_forms(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        v = rng.normal(size=(n + 1, n)) * rng.uniform(0.5, 2.0, n) + rng.normal(size=n)
        body = gl.Simplex(v)
        det_volume = abs(np.linalg.det(v[1:] - v[0])) / math.factorial(n)
        assert body.volume() == pytest.approx(det_volume, rel=1e-12)
        assert np.allclose(gl.centroid(body), v.mean(axis=0), rtol=0.0,
                           atol=1e-12 * np.abs(v).max())


def test_polygon_area_matches_shoelace():
    rng = np.random.default_rng(23)
    for n_pts in (3, 5, 12, 40):
        poly = random_convex_polygon(rng, n_pts)
        x, y = poly.verts[:, 0], poly.verts[:, 1]
        shoelace = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert poly.volume() == pytest.approx(shoelace, rel=1e-12)


def test_tetrahedron_polytope3d_equals_simplex():
    rng = np.random.default_rng(31)
    faces = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]
    for _ in range(4):
        v = rng.normal(size=(4, 3))
        simplex, poly = gl.Simplex(v), gl.Polytope3D(v, faces)
        assert poly.volume() == pytest.approx(simplex.volume(), rel=1e-12)
        assert np.allclose(gl.centroid(poly), gl.centroid(simplex), rtol=0.0, atol=1e-12)
        for _ in range(3):
            u = rng.normal(size=3)
            a, b = simplex.support_interval(u)
            assert poly.support_interval(u) == pytest.approx((a, b), rel=1e-12, abs=1e-12)
            ts = a + (b - a) * np.linspace(0.0, 1.0, 9)
            exact = gl.exact_section_profile(simplex, u).value(ts)
            assert gl.exact_section_profile(poly, u).value(ts) == pytest.approx(
                exact, rel=1e-12, abs=1e-12 * exact.max())
            assert [poly.section_area(u, t) for t in ts] == pytest.approx(
                exact, rel=1e-12, abs=1e-12 * exact.max())


def test_r_centroid_examples(cone3):
    ball = gl.Ball([0.2, -0.3], 1.0)
    for r in (0.0, 0.5, 1.0, 3.0):
        assert gl.r_centroid_point(ball, [1.0, 0.0], r) == pytest.approx(0.2, abs=1e-10)
    assert gl.r_centroid_point(cone3, E1_3, 1.0) == pytest.approx(0.25, rel=1e-12)
    assert gl.r_centroid_point(cone3, E1_3, 0.0) == pytest.approx(0.5, abs=0)
    with pytest.raises(ParameterError):
        gl.r_centroid_point(cone3, E1_3, -1.0)


def test_r1_centroid_equals_volume_centroid():
    rng = np.random.default_rng(17)
    poly = random_convex_polygon(rng)
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    assert gl.r_centroid_point(poly, u, 1.0) == pytest.approx(
        float(gl.centroid(poly) @ u), rel=1e-10)
    body = random_polytope3d(rng)
    u3 = rng.normal(size=3)
    u3 /= np.linalg.norm(u3)
    assert gl.r_centroid_point(body, u3, 1.0) == pytest.approx(
        float(gl.centroid(body) @ u3), rel=1e-12)


def test_halfspace_fraction_examples(cone3):
    ball = gl.Ball([0.0, 0.0, 0.0], 1.0)
    assert gl.halfspace_fraction(ball, E1_3, 0.0) == pytest.approx(0.5, rel=1e-10)
    assert gl.halfspace_fraction(cone3, E1_3, 0.25) == pytest.approx(37.0 / 64.0, rel=1e-12)
    box = gl.Box([0.0, 0.0], [1.0, 1.0])
    assert gl.halfspace_fraction(box, [1.0, 0.0], 0.3) == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(DomainError):
        gl.halfspace_fraction(ball, E1_3, 2.0)


def test_halfspace_fraction_routes_share_the_support_slack():
    # c lies 1e-10 past b = 1000, inside the relative slack 1e-12 (b - a)
    box = gl.Box([0.0, 0.0, 0.0], [1000.0, 1.0, 1.0])
    c = 1000.0 + 1e-10
    assert gl.halfspace_fraction(box, E1_3, c) == 1.0
    mc = gl.McSpec(seed=5, samples=10_000)
    assert gl.halfspace_fraction(box, E1_3, c, mc=mc) == 1.0
    assert gl.mc_halfspace_fraction(box, E1_3, c, mc).value == 1.0
    for route in (None, mc):
        with pytest.raises(DomainError):
            gl.halfspace_fraction(box, E1_3, 1000.0 + 1e-8, mc=route)


def test_mass_only_routes_ignore_an_out_of_range_moment():
    # the 6-ball of radius 1e50 has mass about 5e300, but |t| times it overflows
    ball = gl.Ball(np.zeros(6), 1e50)
    e1 = np.eye(6)[0]
    assert gl.halfspace_fraction(ball, e1, 0.0) == 0.5
    profile = gl.exact_section_profile(ball, e1)
    total, right = gl.profiles.powered_split(profile, 1.0, 0.0)
    assert right / total == 0.5
    assert gl.profiles.tail_masses(profile, 1.0, [0.0])[0] == right
    with pytest.raises(FloatRangeError):
        gl.profiles.moment_integral(profile, 1.0, (profile.domain[0], 0.0))


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_verify_grunbaum_r_cone_equality(cone3):
    rep = gl.verify_grunbaum_r(cone3, E1_3, 0.5, 1.0)
    assert rep.passed
    assert rep.ratio == pytest.approx(27.0 / 64.0, rel=1e-12)
    assert abs(rep.slack) <= 1e-9
    assert rep.details["lower_fraction"] == pytest.approx(37.0 / 64.0, rel=1e-12)


def test_verify_grunbaum_r_ball2():
    rep = gl.verify_grunbaum_r(gl.Ball([0.0, 0.0], 1.0), [0.0, 1.0], 1.0, 1.0)
    assert rep.passed
    assert rep.ratio == pytest.approx(0.5, rel=1e-8)


def test_verify_grunbaum_r_off_centre_disk_is_exact():
    rep = gl.verify_grunbaum_r(gl.Ball([1.0, 0.0], 1.0), [1.0, 0.0], 1.0, 1.0)
    assert rep.passed
    assert rep.details["cut"] == 1.0
    assert abs(rep.details["lower_fraction"] - 0.5) <= 1e-14


def test_verify_grunbaum_r_off_centre_disk_below_r_one_is_fast():
    start = time.perf_counter()
    rep = gl.verify_grunbaum_r(gl.Ball([-1.0, 0.0], 1.3), [1.0, 0.0], 1.0, 0.5)
    assert time.perf_counter() - start < 1.0
    assert rep.passed
    assert rep.details["cut"] == pytest.approx(-1.0, abs=1e-15)
    assert abs(rep.details["lower_fraction"] - 0.5) <= 1e-14


def test_no_production_path_reaches_adaptive_simpson(monkeypatch):
    """Adaptive Simpson is a reference integrator only: no module but
    quadrature binds it, no public callable takes a quadrature spec, and the
    ball, piecewise-linear, power-law, revolution and spline routes run with
    it disabled and report no abs_tol."""
    modules = [gl] + [importlib.import_module(f"grunlab.{m.name}")
                      for m in pkgutil.iter_modules(gl.__path__)]
    for mod in modules:
        if mod.__name__ != "grunlab.quadrature":
            assert not hasattr(mod, "adaptive_simpson"), mod.__name__
        for name, obj in vars(mod).items():
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type(gl)):
                try:
                    params = inspect.signature(obj).parameters
                except (TypeError, ValueError):
                    continue
                assert "spec" not in params, f"{mod.__name__}.{name}"

    def disabled(*args, **kwargs):
        raise AssertionError("adaptive_simpson called")

    monkeypatch.setattr(gl.quadrature, "adaptive_simpson", disabled)
    rng = np.random.default_rng(61)
    h = gl.BallSectionProfile(1.3, 5, center=0.4)
    for beta in (1.0 / 3.0, 1.0, 2.5):
        gl.powered_integral(h, beta, (0.0, 1.1))
        gl.moment_integral(h, beta, (-0.5, 0.2))
        gl.tail_mass_ratio(h, beta, 1.0)
        gl.tail_masses(h, beta, [-0.3, 0.5])
        gl.tail_mass_ratio(gl.power_profile(h, 0.5), beta, 1.0)
    reports = []
    for n in (2, 3, 6):
        ball = gl.Ball(rng.normal(size=n), 1.0)
        reports.append(gl.verify_grunbaum_r(ball, _rand_unit(rng, n), 1.0 / (n - 1), 0.5))
        reports.append(gl.verify_makai_fradelizi(ball, _rand_unit(rng, n)))
    reports.append(gl.verify_grunbaum_r(gl.revolve(gl.BallSectionProfile(1.0, 4), 4),
                                        np.eye(4)[0], 1.0 / 3, 2.0))
    reports.append(gl.verify_functional(gl.random_concave(3, 9), 0.7, 2.3))
    reports.append(gl.verify_functional(gl.DecreasingPowerProfile(1.3, 0.2, 1.7, 0.8), 0.7, 2.3))
    assert all(rep.provenance["kind"] == "exact" for rep in reports)
    simplex = gl.Simplex(rng.normal(size=(4, 3)))
    rep = gl.verify_grunbaum_r(simplex, _rand_unit(rng, 3), 0.5, 1.5)
    reports.append(rep)
    assert (rep.provenance["kind"], rep.provenance["nodes"]) == ("quadrature", 40)
    assert not any("abs_tol" in rep.provenance for rep in reports)


def test_grunbaum_r_at_r_one_integrates_the_total_mass_once(monkeypatch):
    rng = np.random.default_rng(71)
    for body in (gl.Ball(rng.normal(size=4), 1.3), gl.Simplex(rng.normal(size=(4, 3)))):
        u = _rand_unit(rng, body.dim)
        profile = gl.exact_section_profile(body, u)
        a, b = profile.domain
        calls = []
        integrals = type(profile).integrals

        def counted(self, beta, lo, hi):
            calls.append((beta, lo, hi))
            return integrals(self, beta, lo, hi)

        monkeypatch.setattr(type(profile), "integrals", counted)
        rep = gl.verify_grunbaum_r(body, u, 1.0 / (body.dim - 1), 1.0)
        monkeypatch.undo()
        cut = rep.details["cut"]
        assert calls == [(1.0, a, b), (1.0, cut, b)]
        assert rep.details["lower_fraction"] == 1.0 - gl.tail_mass_ratio(profile, 1.0, 1.0)


@pytest.mark.parametrize("body,u,p,r", [
    (gl.Ball(np.zeros(6), 1e50), np.eye(6)[0], 0.2, 2.0),
    (gl.Simplex(1e40 * np.vstack([np.zeros(4), np.eye(4)])), [0.5, 0.5, 0.5, -0.5], 1.0 / 3, 3.0),
], ids=["ball", "simplex"])
def test_exact_grunbaum_r_verdict_is_scale_free(body, u, p, r):
    # the powered masses leave the float range; the ratio is that of the body at scale 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = gl.verify_grunbaum_r(body, u, p, r)
    assert rep.passed
    # the report carries the tail ratio and cut that verify_functional reads
    upper, cut = gl.profiles._tail_ratio_cut(gl.exact_section_profile(body, u), r, 1.0)
    assert (rep.details["upper_fraction"], rep.details["cut"]) == (upper, cut)
    assert rep.details["lower_fraction"] == 1.0 - upper
    if isinstance(body, gl.Ball):
        assert rep.ratio == 0.5
    else:
        unit = gl.verify_grunbaum_r(gl.Simplex(body.verts / 1e40), u, p, r)
        assert rep.ratio == pytest.approx(unit.ratio, rel=1e-12)


def test_provenance_names_the_route_at_the_powers_used():
    rng = np.random.default_rng(67)
    ball = gl.Ball(rng.normal(size=3), 1.2)
    for r in (0.5, 2.0):
        rep = gl.verify_grunbaum_r(ball, _rand_unit(rng, 3), 0.5, r)
        assert rep.provenance["kind"] == "exact"
    simplex = gl.Simplex(rng.normal(size=(5, 4)))
    u = _rand_unit(rng, 4)
    assert gl.verify_grunbaum_r(simplex, u, 1.0 / 3, 1.0).provenance["kind"] == "exact"
    prov = gl.verify_grunbaum_r(simplex, u, 1.0 / 3, 0.5).provenance
    assert (prov["kind"], prov["nodes"]) == ("quadrature", 40)
    assert "abs_tol" not in prov


@pytest.mark.parametrize("body", [gl.Simplex([[0.0], [1.0]]), gl.Ball([0.5], 0.5),
                                  gl.Box([0.0], [1.0])], ids=["simplex", "ball", "box"])
def test_bodies_in_r1_have_a_constant_profile(body):
    for u in ([1.0], [-2.0]):
        prof = gl.exact_section_profile(body, u)
        assert isinstance(prof, gl.ConstantProfile) and prof.c == 1.0
        a, b = gl.support_interval(body, u)
        assert gl.halfspace_fraction(body, u, 0.5 * (a + b)) == 0.5
    rep = gl.verify_grunbaum_r(body, [1.0], 1.0, 1.0)
    assert rep.passed and rep.details["cut"] == 0.5


def test_verify_grunbaum_r_cone_midpoint(cone3):
    rep = gl.verify_grunbaum_r(cone3, E1_3, 0.5, 0.0)
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0 / 8.0, rel=1e-12)
    assert abs(rep.slack) <= 1e-9


def test_verify_grunbaum_r_precondition_witness(cone3):
    # the cone profile pi (1-t)^2 is 1/2-concave but not 1-concave
    with pytest.raises(PreconditionError) as err:
        gl.verify_grunbaum_r(cone3, E1_3, 1.0, 1.0)
    assert err.value.witness is not None


def test_verify_minkowski_radon_simplex_equality():
    tri = gl.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rep = gl.verify_minkowski_radon(tri, [1.0, 0.0])
    assert rep.passed and rep.ratio == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert abs(rep.slack) <= 1e-9
    tet = gl.Simplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = gl.verify_minkowski_radon(tet, E1_3)
    assert rep.passed and rep.ratio == pytest.approx(0.25, rel=1e-12)


def test_verify_minkowski_radon_ball_and_random_polytope():
    rep = gl.verify_minkowski_radon(gl.Ball([1.0, 0.0, 0.0], 2.0), E1_3)
    assert rep.passed and rep.ratio == pytest.approx(0.5, rel=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(5):
        body = random_polytope3d(rng)
        u = rng.normal(size=3)
        rep = gl.verify_minkowski_radon(body, u / np.linalg.norm(u))
        assert rep.passed


def test_verify_makai_fradelizi(cone3):
    rep = gl.verify_makai_fradelizi(cone3, E1_3)
    assert rep.passed
    assert rep.ratio == pytest.approx(9.0 / 16.0, rel=1e-12)
    assert abs(rep.slack) <= 1e-9
    rep = gl.verify_makai_fradelizi(gl.Ball([0.0, 0.0, 0.0], 1.0), [0.0, 0.0, 1.0])
    assert rep.passed and rep.ratio == pytest.approx(1.0, rel=1e-9)
    rng = np.random.default_rng(29)
    for _ in range(5):
        poly = random_convex_polygon(rng)
        u = rng.normal(size=2)
        rep = gl.verify_makai_fradelizi(poly, u / np.linalg.norm(u))
        assert rep.passed
        assert rep.ratio >= 2.0 / 3.0 - 1e-9


# ---------------------------------------------------------------------------
# Brunn concavity of section profiles
# ---------------------------------------------------------------------------

def test_brunn_concavity_on_exact_profiles(cone3):
    rng = np.random.default_rng(31)
    cases = [
        (gl.Ball([0.0, 0.0, 0.0], 1.0), np.array([0.0, 0.0, 1.0])),
        (cone3, E1_3),
        (gl.Box([0, 0, 0], [1, 2, 3]), np.ones(3) / np.sqrt(3.0)),
        (random_polytope3d(rng), _rand_unit(rng, 3)),
        (random_convex_polygon(rng), _rand_unit(rng, 2)),
        (gl.Simplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]), _rand_unit(rng, 3)),
    ]
    # no verdict at p <= 1/(n - 1) runs this certificate, so a fault in
    # building a profile fails here: seeded bodies of every kind
    cases += [(gl.Simplex(rng.normal(size=(n + 1, n))), _rand_unit(rng, n)) for n in range(2, 7)]
    for n in (4, 5, 6):  # Kuhn-spline profiles
        lo = rng.normal(size=n)
        cases.append((gl.Box(lo, lo + rng.uniform(0.5, 2.0, n)), _rand_unit(rng, n)))
    axis = np.sort(rng.uniform(-1.0, 1.0, 3))
    tent = gl.ConcaveProfile(np.column_stack([axis, [0.2, 1.0, 0.1]]))
    revolution = gl.revolve(gl.power_profile(tent, 3.0), 4)
    cases += [(random_polytope3d(rng), _rand_unit(rng, 3)),
              (random_convex_polygon(rng), _rand_unit(rng, 2)),
              (gl.Ball(rng.normal(size=6), rng.uniform(0.5, 2.0)), _rand_unit(rng, 6)),
              (revolution, revolution.axis)]
    for body, u in cases:
        prof = gl.exact_section_profile(body, u)
        assert gl.p_concavity_check(prof, 1.0 / (body.dim - 1), tol=1e-9).ok


def _rand_unit(rng, dim):
    u = rng.normal(size=dim)
    return u / np.linalg.norm(u)


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

def test_rigid_motion_invariance():
    rng = np.random.default_rng(37)
    body = random_polytope3d(rng)
    u = _rand_unit(rng, 3)
    rep0 = gl.verify_minkowski_radon(body, u)
    mf0 = gl.verify_makai_fradelizi(body, u)
    for _ in range(3):
        rot = rotation_matrix_3d(rng)
        shift = rng.normal(size=3)
        moved = gl.Polytope3D(body.verts @ rot.T + shift, body.faces)
        rep = gl.verify_minkowski_radon(moved, rot @ u)
        assert rep.ratio == pytest.approx(rep0.ratio, abs=1e-9)
        mf = gl.verify_makai_fradelizi(moved, rot @ u)
        assert mf.ratio == pytest.approx(mf0.ratio, abs=1e-12)


def test_scaling_invariance():
    rng = np.random.default_rng(41)
    poly = random_convex_polygon(rng)
    u = _rand_unit(rng, 2)
    a, b = gl.support_interval(poly, u)
    lam = gl.r_centroid_point(poly, u, 2.0)
    frac = gl.halfspace_fraction(poly, u, lam)
    rel = (lam - a) / (b - a)
    scaled = gl.Polytope2D(3.7 * poly.verts)
    a2, b2 = gl.support_interval(scaled, u)
    lam2 = gl.r_centroid_point(scaled, u, 2.0)
    assert gl.halfspace_fraction(scaled, u, lam2) == pytest.approx(frac, rel=1e-10)
    assert (lam2 - a2) / (b2 - a2) == pytest.approx(rel, rel=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_mc_spec_invariants():
    with pytest.raises(ParameterError):
        gl.McSpec(seed=1, samples=5000)
    with pytest.raises(ParameterError):
        gl.McSpec(seed=1, bins=8)
    with pytest.raises(ParameterError):
        gl.McSpec(seed=None)
    # seed an integer in [0, 2^128); samples and bins integers, bools rejected
    for fields in ({"samples": float("nan")}, {"samples": 20_000.5}, {"samples": 20_000.0},
                   {"samples": True}, {"seed": -3}, {"seed": 2 ** 128}, {"seed": 1.5},
                   {"seed": False}, {"seed": "7"}, {"bins": float("inf")}, {"bins": 32.0},
                   {"bins": np.float64(32)}):
        with pytest.raises(ParameterError):
            gl.McSpec(**{"seed": 1, **fields})


def test_mc_halfspace_matches_exact_within_4_sigma(cone3):
    mc = gl.McSpec(seed=1234, samples=120_000)
    est = gl.mc_halfspace_fraction(cone3, E1_3, 0.25, mc)
    assert abs(est.value - 37.0 / 64.0) <= 4.0 * est.sigma
    ball = gl.Ball([0.0, 0.0, 0.0], 1.0)
    est = gl.mc_halfspace_fraction(ball, [0.0, 1.0, 0.0], 0.0, mc)
    assert abs(est.value - 0.5) <= 4.0 * est.sigma
    assert est.meta == {"seed": 1234, "samples": 120_000, "bins": 256}


def test_mc_determinism_and_chunk_order_independence():
    from grunlab.bodies import mc_chunks

    ball = gl.Ball([0.0, 0.0, 0.0], 1.0)
    spec = gl.McSpec(seed=5, samples=100_000)
    a = gl.mc_halfspace_fraction(ball, E1_3, 0.2, spec)
    b = gl.mc_halfspace_fraction(ball, E1_3, 0.2, spec)
    assert a.value == b.value
    # substreams are seed+index derived: accumulating them in any order
    # (e.g. distributed over workers) gives the same totals
    forward = [proj.shape[0] for proj, _ in mc_chunks(ball, spec, E1_3)]
    again = [proj.shape[0] for proj, _ in mc_chunks(ball, spec, E1_3)]
    assert forward == again
    assert sum(forward) == sum(reversed(again))


def test_mc_section_profile_and_grunbaum(cone3):
    mc = gl.McSpec(seed=99, samples=150_000, bins=64)
    sp = gl.mc_section_profile(cone3, E1_3, mc)
    assert sp.kind == "mc"
    assert gl.powered_integral(sp.profile, 1.0) == pytest.approx(
        cone3.volume(), rel=0.05)
    rep = gl.verify_grunbaum_r(cone3, E1_3, 0.5, 1.0, mc=mc)
    assert rep.passed
    assert rep.provenance["kind"] == "mc"
    assert rep.provenance["seed"] == 99


def test_sampled_grunbaum_r_at_zero_cuts_at_the_support_midpoint():
    # the 0-centroid of the binned shares is the centre of the non-empty
    # bins (0.311 here), not the midpoint of the exact route and the bound
    body = gl.Simplex(np.vstack([np.zeros(3), np.eye(3)]))
    u = np.ones(3) / math.sqrt(3.0)
    rep = gl.verify_grunbaum_r(body, u, 0.5, 0.0, mc=gl.McSpec(seed=3, samples=2 ** 16))
    a, b = gl.support_interval(body, u)
    assert rep.details["cut"] == 0.5 * (a + b) == gl.r_centroid_point(body, u, 0.0)
    exact = gl.verify_grunbaum_r(body, u, 0.5, 0.0)
    assert exact.details["lower_fraction"] == pytest.approx(1.0 / 8.0, rel=1e-12)  # equality
    assert abs(rep.details["lower_fraction"] - 1.0 / 8.0) <= 4.0 * rep.provenance["sigma"]


def test_high_dimensional_polytopes_exact_equals_mc():
    simplex4 = gl.Simplex(np.vstack([np.zeros(4), np.eye(4)]))
    u = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)  # tied vertex projections
    assert isinstance(gl.exact_section_profile(simplex4, u), SimplexSplineProfile)
    exact = gl.r_centroid_point(simplex4, u, 1.0)
    assert exact == pytest.approx(float(simplex4.centroid() @ u), abs=1e-12)
    lam = gl.r_centroid_point(simplex4, u, 1.0, mc=gl.McSpec(seed=3, samples=50_000))
    assert lam == pytest.approx(exact, abs=0.02)
    # along a facet normal the closed form still applies in R^4
    prof = gl.exact_section_profile(simplex4, np.array([1.0, 0, 0, 0]))
    assert isinstance(prof, gl.DecreasingPowerProfile)
    assert prof.q == 3.0
    # at non-integer r the exact lower fraction at the exact cut agrees with
    # a sampled count at that cut; a perturbed standard simplex fills about
    # 1/n! of its bounding box, so a million samples put some 1,400 inside in
    # R^6, and a box's cut is its centre
    rng = np.random.default_rng(89)
    mc = gl.McSpec(seed=89, samples=1_000_000)
    for n in (4, 5, 6):
        lo = rng.normal(size=n)
        fat = np.vstack([np.zeros(n), np.eye(n)]) + 0.2 * rng.normal(size=(n + 1, n))
        for body in (gl.Simplex(fat), gl.Box(lo, lo + rng.uniform(0.5, 2.0, n))):
            u = _rand_unit(rng, n)
            for r in (0.5, 2.5):
                rep = gl.verify_grunbaum_r(body, u, 1.0 / (n - 1), r)
                assert rep.passed and rep.provenance["kind"] == "quadrature"
                est = gl.mc_halfspace_fraction(body, u, rep.details["cut"], mc)
                assert abs(rep.details["lower_fraction"] - est.value) <= 4.0 * est.sigma
    # a box above R^6 along a generic direction still needs Monte Carlo
    box7, u7 = gl.Box(np.zeros(7), np.ones(7)), np.arange(1.0, 8.0)
    assert gl.exact_section_profile(box7, u7) is None
    with pytest.raises(GrunlabError):
        gl.section_profile(box7, u7)


def _mc_reference_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for n in range(3, 7):
        lo = rng.normal(size=n)
        cases += [(f"simplex{n}", gl.Simplex(rng.normal(size=(n + 1, n))), _rand_unit(rng, n)),
                  (f"box{n}", gl.Box(lo, lo + rng.uniform(0.5, 2.0, n)), _rand_unit(rng, n)),
                  (f"ball{n}", gl.Ball(rng.normal(size=n), rng.uniform(0.5, 2.0)),
                   _rand_unit(rng, n))]
    return cases + [("cone3", gl.body_from_json(load_fixture("cone3.json")), E1_3)]


MC_REFERENCE_CASES = _mc_reference_cases()


@pytest.mark.parametrize("seed", [11, 2 ** 40 + 7])
@pytest.mark.parametrize("name,body,u", MC_REFERENCE_CASES,
                         ids=[c[0] for c in MC_REFERENCE_CASES])
def test_mc_equals_row_major_reference(name, body, u, seed):
    """Coordinate-major chunks accept the same points, project them to the
    same values and give the same estimates, bit for bit, as row-major
    rejection sampling. 150,000 samples are three substreams, the last one
    partial."""
    from grunlab.bodies import mc_chunks

    mc = gl.McSpec(seed=seed, samples=150_000, bins=64)
    unit = u / np.linalg.norm(u)
    chunks = list(mc_chunks(body, mc, unit))
    reference = list(reference_mc_chunks(body, mc))
    assert [m for _, m in chunks] == [m for _, m in reference] == [65_536, 65_536, 18_928]
    for (proj, _), (want, _) in zip(chunks, reference):
        assert proj.shape == (want.shape[0],)
        assert np.array_equal(proj, reference_projections(want, unit))
    a, b = body.support_interval(u)
    cut = a + 0.4 * (b - a)
    values, sigma, frac, frac_sigma = reference_mc_estimates(body, u, cut, mc, reference)
    sp = gl.mc_section_profile(body, u, mc)
    assert np.array_equal(sp.profile.values, values)
    assert np.array_equal(sp.sigma, sigma)
    est = gl.mc_halfspace_fraction(body, u, cut, mc)
    assert (est.value, est.sigma) == (frac, frac_sigma)


MC_TILE_CASES = {  # a tile of 2^14 // d points: 4,096, 3,276, 2,730, 5,461 and 2,340
    "simplex4": lambda rng: gl.Simplex(rng.normal(size=(5, 4))),
    "box5": lambda rng: gl.Box(-rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 5)),
    "ball6": lambda rng: gl.Ball(rng.normal(size=6), rng.uniform(0.5, 2.0)),
    "cone3": lambda rng: gl.body_from_json(load_fixture("cone3.json")),
    "box7": lambda rng: gl.Box(-rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 7)),
}


@pytest.mark.parametrize("name", MC_TILE_CASES)
def test_mc_tiles_equal_row_major_reference(name):
    """65,536 + 4,097 samples: the partial last substream ends in a partial
    tile (of 1 point in R^4). Each tile's mask is the row-major mask of its
    rows, and the projections and estimates are the row-major ones, bit for
    bit."""
    from grunlab.bodies import _MC_TILE, mc_chunks

    rng = np.random.default_rng(31)
    body = MC_TILE_CASES[name](rng)
    u = E1_3 if name == "cone3" else _rand_unit(rng, body.dim)
    mc = gl.McSpec(seed=2 ** 40 + 7, samples=65_536 + 4_097, bins=64)
    masks, contains = [], body.contains

    def recorded(pts):
        masks.append(contains(pts))
        return masks[-1]

    body.contains = recorded
    unit = u / np.linalg.norm(u)
    chunks = list(mc_chunks(body, mc, unit))
    del body.contains
    rows = _MC_TILE // body.dim
    tiles = [min(rows, m - start) for m in (65_536, 4_097) for start in range(0, m, rows)]
    assert [mask.size for mask in masks] == tiles and tiles[-1] == 4_097 % rows
    blocks = list(reference_mc_blocks(body, mc))
    assert np.array_equal(np.concatenate(masks),
                          np.concatenate([row_major_contains(body, pts) for pts in blocks]))
    reference = list(reference_mc_chunks(body, mc))
    assert [m for _, m in chunks] == [m for _, m in reference] == [65_536, 4_097]
    for (proj, _), (want, _) in zip(chunks, reference):
        assert np.array_equal(proj, reference_projections(want, unit))
    a, b = body.support_interval(u)
    cut = a + 0.4 * (b - a)
    values, sigma, frac, frac_sigma = reference_mc_estimates(body, u, cut, mc, reference)
    sp = gl.mc_section_profile(body, u, mc)
    assert np.array_equal(sp.profile.values, values) and np.array_equal(sp.sigma, sigma)
    est = gl.mc_halfspace_fraction(body, u, cut, mc)
    assert (est.value, est.sigma) == (frac, frac_sigma)


@pytest.mark.parametrize("tile", [1 << 10, 3 << 12])
@pytest.mark.parametrize("name", MC_TILE_CASES)
def test_mc_values_do_not_depend_on_the_tile_size(monkeypatch, name, tile):
    """<x, u> is summed coordinate by coordinate in a fixed order, so tiles of
    another size give the same projections, binned values and fractions, bit
    for bit. A BLAS product's rounding can depend on the width and offset of
    the tile, so it could not stand in for the sum."""
    from grunlab import bodies

    rng = np.random.default_rng(37)
    body = MC_TILE_CASES[name](rng)
    u = E1_3 if name == "cone3" else _rand_unit(rng, body.dim)
    mc = gl.McSpec(seed=41, samples=65_536 + 4_097, bins=64)
    a, b = body.support_interval(u)
    cut = a + 0.4 * (b - a)

    def estimates():
        proj, total = _fresh(monkeypatch, bodies._mc_projections, body, bodies._unit(u), mc)
        sp = gl.mc_section_profile(body, u, mc)
        est = gl.mc_halfspace_fraction(body, u, cut, mc)
        return proj, total, sp.profile.values, sp.sigma, est.value, est.sigma

    want = estimates()
    monkeypatch.setattr(bodies, "_MC_TILE", tile)
    got = estimates()
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_each_chunk_is_drawn_from_its_own_substream():
    """Chunk i is what the generator of SeedSequence(seed, spawn_key=(i,))
    through PCG64DXSM draws alone: it does not depend on the chunks before it
    or on the sample budget, and a shorter last chunk keeps a prefix of it."""
    from grunlab.bodies import _unit, mc_chunks

    body, u, seed = gl.Ball([0.2, -0.1, 0.4], 1.3), _unit(MC_U3), 2 ** 90 + 5
    lo, hi = body.bounding_box()
    three = [proj for proj, _ in mc_chunks(body, gl.McSpec(seed, 3 * 65_536), u)]
    for i in (2, 0, 1):
        seq = np.random.SeedSequence(seed, spawn_key=(i,))
        pts = lo + np.random.Generator(np.random.PCG64DXSM(seq)).random((65_536, 3)) * (hi - lo)
        assert np.array_equal(three[i], reference_projections(pts[row_major_contains(body, pts)], u))
    (alone, m), = mc_chunks(body, gl.McSpec(seed, 65_536), u)
    assert m == 65_536 and np.array_equal(alone, three[0])
    short = list(mc_chunks(body, gl.McSpec(seed, 2 * 65_536 + 10_000), u))
    assert [m for _, m in short] == [65_536, 65_536, 10_000]
    assert np.array_equal(short[1][0], three[1])
    k = short[2][0].size
    assert 0 < k < three[2].size and np.array_equal(short[2][0], three[2][:k])


def test_seeds_at_the_ends_of_the_range_sample_end_to_end(cone3):
    """Both ends of McSpec's seed range [0, 2^128), which is unchanged, seed
    their own substreams and give estimates of the exact cone values."""
    for bad in (-1, 2 ** 128):
        with pytest.raises(ParameterError, match=r"seed must lie in \[0, 2\^128\)"):
            gl.McSpec(seed=bad)
    fractions = set()
    for seed in (0, 2 ** 128 - 1):
        mc = gl.McSpec(seed=seed, samples=150_000, bins=64)
        est = gl.mc_halfspace_fraction(cone3, E1_3, 0.25, mc)
        assert abs(est.value - 37.0 / 64.0) <= 4.0 * est.sigma
        assert gl.r_centroid_point(cone3, E1_3, 1.0, mc=mc) == pytest.approx(0.25, abs=0.01)
        rep = gl.verify_grunbaum_r(cone3, E1_3, 0.5, 1.0, mc=mc)
        assert rep.passed and rep.provenance["seed"] == seed
        fractions.add(est.value)
    assert len(fractions) == 2


def test_ratio_routes_sample_a_box_whose_volume_underflows():
    """Centroids and ratios do not read the profile's scale, so the ratio
    routes bin each sample's share and need no volume.
    A cube of side 1e-110 (volume 1e-330, which is 0 in floats) gets the
    exact route's centroid and a verdict; a dyadic rescaling of the unit cube
    moves the sampled centroid and cut by exactly the scale. The binned
    profile, scaled by the volume, refuses."""
    mc = gl.McSpec(1, 10_000)
    unit_cube = gl.Box(np.zeros(3), np.ones(3))
    tiny = gl.Box(np.zeros(3), 1e-110 * np.ones(3))
    lam = gl.r_centroid_point(tiny, E1_3, 1.0, mc=mc)
    assert abs(lam - gl.r_centroid_point(tiny, E1_3, 1.0)) <= 0.02e-110  # exact: 5e-111
    lam = gl.r_centroid_point(tiny, MC_U3, 1.0, mc=mc)
    assert lam == pytest.approx(1e-110 * gl.r_centroid_point(unit_cube, MC_U3, 1.0, mc=mc),
                                rel=1e-12)
    assert gl.verify_grunbaum_r(tiny, MC_U3, 0.5, 1.0, mc=mc).passed
    with pytest.raises(FloatRangeError, match="below the float range"):
        gl.mc_section_profile(tiny, MC_U3, mc)
    scale = 2.0 ** -366  # the volume 2^-1098 underflows to 0 too
    small = gl.Box(np.zeros(3), scale * np.ones(3))
    want = gl.verify_grunbaum_r(unit_cube, MC_U3, 0.5, 1.0, mc=mc)
    got = gl.verify_grunbaum_r(small, MC_U3, 0.5, 1.0, mc=mc)
    assert got.details["cut"] == scale * want.details["cut"]
    assert (got.ratio, got.provenance["sigma"]) == (want.ratio, want.provenance["sigma"])
    assert gl.r_centroid_point(small, MC_U3, 1.0, mc=mc) == scale * want.details["cut"]


@pytest.mark.parametrize("body", [gl.Ball(np.zeros(6), 1.0),
                                  gl.Simplex(np.vstack([np.zeros(6), np.eye(6)]))],
                         ids=["ball6", "simplex6"])
def test_mc_pass_holds_no_uniform_block(monkeypatch, body):
    """One 2^16-sample pass in R^6 allocates, at its traced peak, less than
    one substream's (65,536, 6) block of uniforms (3 MiB): it draws and
    tests in tiles."""
    from grunlab import bodies

    monkeypatch.setattr(bodies, "_MC_LAST", None)
    u = bodies._unit(np.arange(1.0, 7.0), 6)
    mc = gl.McSpec(seed=5, samples=1 << 16)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        proj, total = bodies._mc_projections(body, u, mc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert total == 1 << 16 and proj.size > 0
    assert peak < (1 << 16) * 6 * 8


def test_sampled_routes_outside_the_float_range_raise_float_range_error():
    """The sampling box's edges and volume are checked before drawing; the
    fraction below a cut needs no volume, so a box whose volume alone
    overflows still gives one."""
    mc = gl.McSpec(1, 10_000)
    with pytest.raises(FloatRangeError, match="float range"):  # the moment about 0 overflows
        gl.r_centroid_point(gl.Box(np.zeros(3), 1e200 * np.ones(3)), E1_3, 1.0, mc=mc)
    with pytest.raises(FloatRangeError, match="float range"):  # an edge overflows
        gl.mc_halfspace_fraction(gl.Box(-1e308 * np.ones(3), 1e308 * np.ones(3)), E1_3, 0.0, mc)
    with pytest.raises(FloatRangeError, match="float range"):  # the volume overflows
        gl.mc_section_profile(gl.Ball(np.zeros(3), 1e300), E1_3, mc)
    est = gl.mc_halfspace_fraction(gl.Box(np.zeros(3), 1e200 * np.ones(3)), E1_3, 5e199, mc)
    assert abs(est.value - 0.5) <= 4.0 * est.sigma


def test_no_sample_inside_raises_one_error_on_every_sampled_route():
    sliver = gl.Simplex([[0, 0, 0], [1, 1, 1], [1, 1.001, 1], [1, 1, 1.001]])
    mc = gl.McSpec(1, 10_000)
    for call in (lambda: gl.mc_halfspace_fraction(sliver, E1_3, 0.5, mc),
                 lambda: gl.r_centroid_point(sliver, E1_3, 1.0, mc=mc),
                 lambda: gl.verify_grunbaum_r(sliver, E1_3, 0.5, 1.0, mc=mc),
                 lambda: gl.mc_section_profile(sliver, E1_3, mc)):
        with pytest.raises(DegenerateBodyError, match="no Monte Carlo samples"):
            call()


def _counted_passes(monkeypatch):
    """Record every mc_chunks pass, starting from an empty memo."""
    from grunlab import bodies

    passes = []
    real = bodies.mc_chunks

    def counted(body, mc, u):
        passes.append((body, mc))
        return real(body, mc, u)

    monkeypatch.setattr(bodies, "mc_chunks", counted)
    monkeypatch.setattr(bodies, "_MC_LAST", None)
    return passes


def _fresh(monkeypatch, fn, *args):
    """fn(*args) from an empty memo, as in a new process."""
    from grunlab import bodies

    monkeypatch.setattr(bodies, "_MC_LAST", None)
    return fn(*args)


MC_SIMPLEX3 = gl.Simplex([[0.1, 0.0, 0.2], [1.3, 0.1, 0.0], [0.2, 1.1, 0.1], [0.0, 0.3, 0.9]])
MC_U3 = np.array([0.3, -0.5, 0.8])


def test_sampled_centroid_and_fraction_share_one_pass(monkeypatch):
    passes = _counted_passes(monkeypatch)
    mc = gl.McSpec(seed=17, samples=150_000, bins=64)
    cut = gl.r_centroid_point(MC_SIMPLEX3, MC_U3, 1.0, mc=mc)
    est = gl.mc_halfspace_fraction(MC_SIMPLEX3, MC_U3, cut, mc)
    assert len(passes) == 1
    again = _fresh(monkeypatch, gl.mc_halfspace_fraction, MC_SIMPLEX3, MC_U3, cut, mc)
    assert len(passes) == 2
    assert (again.value, again.sigma) == (est.value, est.sigma)


def test_sampled_verdict_makes_one_pass(monkeypatch, cone3):
    passes = _counted_passes(monkeypatch)
    mc = gl.McSpec(seed=99, samples=150_000, bins=64)
    rep = gl.verify_grunbaum_r(cone3, E1_3, 0.5, 1.0, mc=mc)
    assert rep.passed and len(passes) == 1
    cut = rep.details["cut"]
    fresh = _fresh(monkeypatch, gl.mc_halfspace_fraction, cone3, E1_3, cut, mc)
    assert (rep.details["lower_fraction"], rep.provenance["sigma"]) == (fresh.value, fresh.sigma)


def test_another_draw_draws_again_with_fresh_values(monkeypatch):
    from dataclasses import replace

    passes = _counted_passes(monkeypatch)
    mc = gl.McSpec(seed=17, samples=70_000, bins=64)
    twin = gl.Simplex(MC_SIMPLEX3.verts.copy())
    a, b = MC_SIMPLEX3.support_interval(MC_U3)
    cut = a + 0.45 * (b - a)
    variants = [(MC_SIMPLEX3, MC_U3, replace(mc, seed=18)),
                (MC_SIMPLEX3, MC_U3, replace(mc, samples=80_000)),
                (MC_SIMPLEX3, np.array([0.3, -0.5, 0.81]), mc),
                (twin, MC_U3, mc)]
    seen = set()
    for body, u, spec in variants:
        gl.mc_halfspace_fraction(MC_SIMPLEX3, MC_U3, cut, mc)  # differs in one field
        before = len(passes)
        sp = gl.mc_section_profile(body, u, spec)
        est = gl.mc_halfspace_fraction(body, u, cut, spec)
        assert len(passes) == before + 1  # one new pass, shared by both
        fresh_sp = _fresh(monkeypatch, gl.mc_section_profile, body, u, spec)
        fresh = _fresh(monkeypatch, gl.mc_halfspace_fraction, body, u, cut, spec)
        assert np.array_equal(sp.profile.values, fresh_sp.profile.values)
        assert np.array_equal(sp.sigma, fresh_sp.sigma)
        assert (est.value, est.sigma) == (fresh.value, fresh.sigma)
        seen.add(est.value)
    assert len(seen) > 1


def test_bin_count_does_not_enter_the_draw(monkeypatch):
    from dataclasses import replace

    passes = _counted_passes(monkeypatch)
    mc = gl.McSpec(seed=23, samples=70_000, bins=64)
    gl.mc_section_profile(MC_SIMPLEX3, MC_U3, mc)
    coarse = gl.mc_section_profile(MC_SIMPLEX3, MC_U3, replace(mc, bins=16))
    assert len(passes) == 1
    assert coarse.profile.values.size == 16
    fresh = _fresh(monkeypatch, gl.mc_section_profile, MC_SIMPLEX3, MC_U3, replace(mc, bins=16))
    assert np.array_equal(coarse.profile.values, fresh.profile.values)


def test_projection_memo_holds_one_read_only_entry():
    import gc
    import weakref

    from grunlab import bodies

    mc = gl.McSpec(seed=29, samples=70_000)
    first = gl.Simplex(MC_SIMPLEX3.verts.copy())
    gone = weakref.ref(first)
    gl.mc_section_profile(first, MC_U3, mc)
    second = gl.Ball([0.0, 0.0, 0.0], 1.0)
    unit = MC_U3 / np.linalg.norm(MC_U3)
    proj, total = bodies._mc_projections(second, unit, mc)
    del first
    gc.collect()
    assert gone() is None  # the older entry is not kept
    assert bodies._MC_LAST[0] is second and bodies._MC_LAST[2] is proj
    assert total == mc.samples
    assert proj.shape == (sum(part.shape[0] for part, _ in bodies.mc_chunks(second, mc, unit)),)
    assert not proj.flags.writeable
    with pytest.raises(ValueError):
        proj[0] = 0.0


def test_mc_spec_keeps_plain_integers():
    spec = gl.McSpec(seed=np.uint64(2 ** 63), samples=np.int32(20_000), bins=np.int64(32))
    assert spec.meta() == {"seed": 2 ** 63, "samples": 20_000, "bins": 32}
    assert all(type(v) is int for v in spec.meta().values())
    assert gl.McSpec(seed=2 ** 128 - 1, samples=10_000).seed == 2 ** 128 - 1


@pytest.mark.parametrize("bad", [[np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [0.0, -np.inf, 1.0]])
def test_directions_must_be_finite(bad):
    mc = gl.McSpec(seed=1, samples=10_000)
    calls = [lambda: gl.halfspace_fraction(MC_SIMPLEX3, bad, 0.2),
             lambda: gl.mc_halfspace_fraction(MC_SIMPLEX3, bad, 0.2, mc),
             lambda: gl.r_centroid_point(MC_SIMPLEX3, bad, 1.0),
             lambda: gl.section_profile(MC_SIMPLEX3, bad, mc=mc),
             lambda: gl.support_interval(gl.Ball([0.0, 0.0, 0.0], 1.0), bad)]
    for call in calls:
        with pytest.raises(ParameterError):
            call()


def test_directions_at_the_float_limits_are_normalised():
    simplex3 = gl.body_from_json(load_fixture("simplex3.json"))
    expected = simplex3.support_interval([1.0, 1.0, 0.0])
    for scale in (1e200, 1e-170, 1e308, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simplex3.support_interval([scale, scale, 0.0])
        assert got == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ParameterError, match="nonzero"):
        simplex3.support_interval([0.0, 0.0, 0.0])
    u = np.random.default_rng(37).normal(size=5)
    assert np.array_equal(gl.bodies._unit(u), u / np.linalg.norm(u))


@pytest.mark.parametrize("p,r", [(np.nan, 1.0), (-1.0, 1.0), (np.inf, 1.0),
                                 (0.5, np.nan), (0.5, -1.0), (0.5, np.inf)])
def test_sampled_verdict_validates_before_drawing(monkeypatch, p, r):
    passes = _counted_passes(monkeypatch)
    mc = gl.McSpec(seed=3, samples=20_000)
    with pytest.raises(ParameterError):
        gl.verify_grunbaum_r(MC_SIMPLEX3, MC_U3, p, r, mc=mc)
    assert passes == []


def test_sampled_centroid_rejects_r_before_drawing(monkeypatch):
    passes = _counted_passes(monkeypatch)
    for r in (np.nan, np.inf, -1.0):
        with pytest.raises(ParameterError):
            gl.r_centroid_point(MC_SIMPLEX3, MC_U3, r, mc=gl.McSpec(seed=3, samples=20_000))
    assert passes == []


# the section hypothesis is Brunn's principle at p <= 1/(n - 1)
BRUNN_WITNESS = (gl.Ball([0.3373219761261745, 0.2969922350001155, 0.3257752605332605], 1.0),
                 [-0.7700468314458669, -0.4425105237384622, -0.45957840871922223],
                 gl.McSpec(seed=4566305126165134251, samples=32768))


def test_a_sampled_verdict_on_a_convex_body_is_not_refused():
    ball, u, mc = BRUNN_WITNESS
    rep = gl.verify_grunbaum_r(ball, u, 0.5, 1.0, mc=mc)
    assert rep.passed and rep.provenance["hypothesis"] == "brunn"


def test_no_verdict_certifies_at_or_below_brunns_bound(monkeypatch):
    from grunlab import profiles

    def certify(f, p, tol=None):
        raise AssertionError("a verdict ran the concavity certificate")

    rng = np.random.default_rng(43)
    lo = rng.normal(size=4)
    cases = [(gl.Simplex(rng.normal(size=(4, 3))), _rand_unit(rng, 3)),
             (gl.Box(lo, lo + rng.uniform(0.5, 2.0, 4)), _rand_unit(rng, 4)),
             (gl.Ball(rng.normal(size=6), 1.0), _rand_unit(rng, 6)),
             (gl.Box([0.3], [1.7]), [1.0])]
    mc = gl.McSpec(seed=5, samples=20_000)
    monkeypatch.setattr(profiles, "p_concavity_check", certify)
    for body, u in cases:
        n = body.dim
        brunn = 1.0 / (n - 1) if n > 1 else 8.0  # every p counts in R^1
        for p in (0.5 * brunn, brunn):
            for rep in (gl.verify_grunbaum_r(body, u, p, 1.0),
                        gl.verify_grunbaum_r(body, u, p, 1.0, mc=mc)):
                assert rep.passed and rep.provenance["hypothesis"] == "brunn"


def test_above_brunns_bound_exact_verdicts_certify_and_sampled_ones_refuse(monkeypatch):
    ball = gl.Ball([0.2, -0.1, 0.3], 1.0)
    rep = gl.verify_grunbaum_r(ball, E1_3, 1.0, 1.0)  # pi (1 - t^2) is concave
    assert rep.passed and rep.provenance["hypothesis"] == "certified"
    simplex = gl.Simplex(np.random.default_rng(3).normal(size=(4, 3)))
    with pytest.raises(PreconditionError, match="not 1-concave"):
        gl.verify_grunbaum_r(simplex, E1_3, 1.0, 1.0)
    passes = _counted_passes(monkeypatch)
    for body in (ball, simplex):
        with pytest.raises(PreconditionError, match=r"p <= 1/\(n - 1\) = 0\.5, Brunn's bound"):
            gl.verify_grunbaum_r(body, E1_3, 0.75, 1.0, mc=gl.McSpec(seed=3, samples=20_000))
    assert passes == []


def test_nan_point_is_outside_every_domain():
    profiles = [gl.ConcaveProfile([[0.0, 1.0], [1.0, 0.0]]), gl.ConstantProfile(1.0, 0.0, 1.0),
                gl.DecreasingPowerProfile(1.0, 0.0, 1.0, 2.0), gl.BallSectionProfile(1.0, 3),
                gl.HistogramProfile([0.0, 1.0, 2.0], [1.0, 2.0])]
    for prof in profiles:
        with pytest.raises(DomainError):
            gl.evaluate(prof, np.nan)
        with pytest.raises(DomainError):
            gl.evaluate(prof, np.array([0.5, np.nan]))
    with pytest.raises(DomainError):
        gl.section_volume(MC_SIMPLEX3, MC_U3, np.nan)
    box7, u7 = gl.Box(np.zeros(7), np.ones(7)), np.arange(1.0, 8.0)
    with pytest.raises(DomainError):
        gl.section_volume(box7, u7, np.nan, mc=gl.McSpec(seed=4, samples=10_000, bins=16))


def _near_boundary(body, rng, m):
    """m points within 1e-13 of the boundary, on both sides: bisect rays from
    the centroid to the crossing, then step along the ray by up to 1e-13."""
    centre = np.asarray(body.centroid(), dtype=float)
    lo, hi = body.bounding_box()
    rays = rng.normal(size=(m, body.dim))
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    inner, outer = np.zeros(m), np.full(m, 2.0 * float(np.linalg.norm(hi - lo)))
    for _ in range(80):
        mid = 0.5 * (inner + outer)
        inside = body.contains(centre + mid[:, None] * rays)
        inner, outer = np.where(inside, mid, inner), np.where(inside, outer, mid)
    return centre + (inner + rng.uniform(-1e-13, 1e-13, m))[:, None] * rays


def _layout_cases():
    rng = np.random.default_rng(8)
    cases = [(f"ball{n}", gl.Ball(rng.normal(size=n), rng.uniform(0.5, 2.0)))
             for n in range(2, 8)]
    lo = rng.normal(size=3)
    cases += [
        ("box3", gl.Box(lo, lo + rng.uniform(0.5, 2.0, 3))),
        ("simplex4", gl.Simplex(rng.normal(size=(5, 4)))),
        ("polygon", random_convex_polygon(rng)),
        ("polytope3d", random_polytope3d(rng)),
        ("cone3", gl.body_from_json(load_fixture("cone3.json"))),
    ]
    # sections f = tent^3 on a random axis interval: f^(1/3) is concave
    axis = np.sort(rng.uniform(-1.0, 1.0, 3))
    tent = gl.ConcaveProfile(np.column_stack([axis, [0.2, 1.0, 0.1]]))
    return cases + [("revolution4", gl.revolve(gl.power_profile(tent, 3.0), 4))]


LAYOUT_CASES = _layout_cases()


@pytest.mark.parametrize("name,body", LAYOUT_CASES, ids=[c[0] for c in LAYOUT_CASES])
def test_contains_mask_does_not_depend_on_layout(name, body):
    rng = np.random.default_rng(9)
    lo, hi = body.bounding_box()
    pts = np.vstack([_near_boundary(body, rng, 3000),
                     lo + rng.random((3000, body.dim)) * (hi - lo)])
    mask = body.contains(pts)
    assert mask.shape == (6000,) and mask.dtype == bool
    assert np.array_equal(body.contains(np.ascontiguousarray(pts.T).T), mask)
    if not isinstance(body, gl.Polytope2D):  # its test was always per coordinate
        assert np.array_equal(row_major_contains(body, pts), mask)


# ---------------------------------------------------------------------------
# polytope profiles against exact rational sections
# ---------------------------------------------------------------------------

def _oracle_cases():
    rng = np.random.default_rng(43)
    cases = []
    for n in range(2, 7):
        verts = rng.normal(size=(n + 1, n))
        u = _rand_unit(rng, n)
        cases.append((f"simplex{n}", gl.Simplex(verts), u, SimplexSections(verts, u)))
    for n in range(3, 7):
        lo = 0.5 * rng.normal(size=n)
        hi = lo + rng.uniform(0.5, 1.5, n)
        u = _rand_unit(rng, n)
        cases.append((f"box{n}", gl.Box(lo, hi), u, BoxSections(lo, hi, u)))
    simplex4 = np.vstack([np.zeros(4), np.eye(4)])
    u = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    cases.append(("simplex4-tied", gl.Simplex(simplex4), u, SimplexSections(simplex4, u)))
    return cases


ORACLE_CASES = _oracle_cases()


def test_spline_maximum_matches_the_rational_sections():
    rng = np.random.default_rng(61)
    for i in range(20):
        n = 3 + i % 3
        u = _rand_unit(rng, n)
        if i % 2:
            lo = 0.5 * rng.normal(size=n)
            hi = lo + rng.uniform(0.5, 1.5, n)
            body, oracle = gl.Box(lo, hi), BoxSections(lo, hi, u)
        else:
            verts = rng.normal(size=(n + 1, n))
            body, oracle = gl.Simplex(verts), SimplexSections(verts, u)
        prof = gl.exact_section_profile(body, u)
        assert isinstance(prof, SimplexSplineProfile)
        want = largest_section(oracle)
        assert abs(prof.max_value() - want) <= 1e-13 * want, (i, type(body).__name__, n)


@pytest.mark.parametrize("name,body,u,oracle", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_polytope_profile_matches_rational_sections(name, body, u, oracle):
    prof = gl.exact_section_profile(body, u)
    expected = SimplexSplineProfile if body.dim > 2 else gl.ConcaveProfile
    assert isinstance(prof, expected)
    a, b = prof.domain
    assert (a, b) == pytest.approx((float(oracle.knots[0]), float(oracle.knots[-1])),
                                   abs=1e-15 * (b - a))
    ts = np.linspace(a, b, 13)
    want = np.array([float(oracle.section(t)) for t in ts])
    assert np.abs(prof.value(ts) - want).max() <= 1e-12 * want.max()
    assert prof.max_value() >= want.max() * (1.0 - 1e-12)
    for c in ts[1:-1:3]:
        assert gl.halfspace_fraction(body, u, c) == pytest.approx(
            float(oracle.lower_fraction(c)), abs=1e-12)
    mass, moment = exact_section_integrals(oracle, 1)
    assert gl.r_centroid_point(body, u, 1.0) == pytest.approx(
        float(moment / mass), abs=1e-12 * (b - a))


# box6 is left out: its 63 knot intervals make the rational integrals take
# seconds; simplex6 covers integrals in R^6
INTEGRAL_CASES = [c for c in ORACLE_CASES if c[0] != "box6"]


@pytest.mark.parametrize("name,body,u,oracle", INTEGRAL_CASES, ids=[c[0] for c in INTEGRAL_CASES])
def test_polytope_integer_powers_match_rational_integrals(name, body, u, oracle):
    prof = gl.exact_section_profile(body, u)
    a, b = prof.domain
    part = (a + 0.3 * (b - a), a + 0.8 * (b - a))
    for beta in (1, 2, 3):
        for interval in (None, part):
            mass, moment = exact_section_integrals(oracle, beta, *(interval or ()))
            got = gl.powered_integral(prof, float(beta), interval)
            assert got == pytest.approx(float(mass), rel=1e-12)
            scale = float(mass) * max(abs(a), abs(b))
            assert abs(gl.moment_integral(prof, float(beta), interval) - float(moment)) \
                <= 1e-12 * scale


def _split_quad(prof, beta, lo, hi, moment=False):
    """int_lo^hi f^beta (t f^beta with moment) by scipy quad on each knot interval."""
    knots = prof.quadrature_breakpoints
    cuts = [lo, *knots[(knots > lo) & (knots < hi)], hi]
    if moment:
        def fn(t): return t * prof.value(t) ** beta
    else:
        def fn(t): return prof.value(t) ** beta
    return sum(quad(fn, c, d, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for c, d in zip(cuts[:-1], cuts[1:]))


def _assert_rule_matches_quad(prof, beta, intervals):
    a, b = prof.domain
    for lo, hi in intervals:
        mass = _split_quad(prof, beta, lo, hi)
        assert abs(gl.powered_integral(prof, beta, (lo, hi)) - mass) <= 1e-12 * mass
        moment = _split_quad(prof, beta, lo, hi, moment=True)
        assert abs(gl.moment_integral(prof, beta, (lo, hi)) - moment) \
            <= 1e-12 * mass * max(abs(a), abs(b))


def _end_intervals(prof):
    """The support, and sub-intervals with an end inside the first or the last
    knot interval."""
    a, b = prof.domain
    knots = prof.quadrature_breakpoints
    first, last = knots[1], knots[-2]
    return [(a, b), (a + 0.3 * (first - a), b - 0.6 * (b - last)),
            (0.5 * (a + b), b - 0.2 * (b - last)), (a + 0.05 * (first - a), a + 0.9 * (first - a))]


def test_spline_profile_non_integer_power_uses_quadrature():
    rng = np.random.default_rng(47)
    body = gl.Simplex(rng.normal(size=(4, 3)))
    u = _rand_unit(rng, 3)
    prof = gl.exact_section_profile(body, u)
    _assert_rule_matches_quad(prof, 1.5, _end_intervals(prof))
    assert gl.profiles.integration_provenance(prof, (1.5,))["nodes"] == 40
    assert gl.profiles.integration_provenance(prof, (2.0,)) == {"kind": "exact"}


def _rule_cases():
    rng = np.random.default_rng(83)
    cases = []
    for n in range(3, 7):
        lo = rng.normal(size=n)
        cases += [(f"simplex{n}", gl.Simplex(rng.normal(size=(n + 1, n))), _rand_unit(rng, n)),
                  (f"box{n}", gl.Box(lo, lo + rng.uniform(0.5, 2.0, n)), _rand_unit(rng, n))]
    tied = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    return cases + [("simplex4-tied", gl.Simplex(np.vstack([np.zeros(4), np.eye(4)])), tied)]


RULE_CASES = _rule_cases()


@pytest.mark.parametrize("name,body,u", RULE_CASES, ids=[c[0] for c in RULE_CASES])
def test_spline_rule_matches_split_quad(name, body, u):
    """The fixed rule against scipy quad on each knot interval, at powers
    below 1, non-integer powers above it and a large integer power, on the
    profile scaled to maximum 1 (the large power would underflow otherwise)."""
    prof = gl.exact_section_profile(body, u)
    assert isinstance(prof, SimplexSplineProfile)
    prof = SimplexSplineProfile(prof.knots, prof.volumes / prof.max_value())
    # boxes in R^5 and R^6 have 120 and 720 simplices, and quad's scalar
    # evaluations of them cost seconds per power
    powers = {"box5": (0.5, 2.5, 7.3), "box6": (0.5,)}.get(
        name, (1.0 / 3.0, 0.5, 1.5, 2.5, 7.3, 150.0))
    for beta in powers:
        _assert_rule_matches_quad(prof, beta, _end_intervals(prof)[:2 if body.dim > 4 else 4])


def test_spline_rule_is_fast_at_large_and_non_integer_powers():
    rng = np.random.default_rng(1)
    tetra = gl.Simplex(rng.normal(size=(4, 3)) * 10)
    prof = gl.exact_section_profile(tetra, rng.normal(size=3))
    start = time.perf_counter()
    mass = gl.powered_integral(prof, 100.0)
    assert time.perf_counter() - start < 1.0
    assert mass == pytest.approx(_split_quad(prof, 100.0, *prof.domain), rel=1e-12)
    box = gl.Box([0.1161, -0.0979, 0.1275], [3.1407, 383.9414, 1.115])
    u = np.array([-0.24926, 0.0022, -0.96843])
    for r in (0.5, 2.5):
        start = time.perf_counter()
        rep = gl.verify_grunbaum_r(box, u, 0.5, r)
        assert time.perf_counter() - start < 1.0
        assert rep.passed
    simplex5 = gl.Simplex(rng.normal(size=(6, 5)))
    u5 = _rand_unit(rng, 5)
    prof = gl.exact_section_profile(simplex5, u5)
    a, b = prof.domain
    want = _split_quad(prof, 2.5, a, b, moment=True) / _split_quad(prof, 2.5, a, b)
    assert abs(gl.r_centroid_point(simplex5, u5, 2.5) - want) <= 1e-13 * max(abs(a), abs(b))


def test_spline_ratios_are_scale_free():
    rng = np.random.default_rng(1)
    tetra = gl.Simplex(rng.normal(size=(4, 3)) * 10)
    prof = gl.exact_section_profile(tetra, rng.normal(size=3))
    unit = SimplexSplineProfile(prof.knots, prof.volumes / prof.max_value())
    assert unit.max_value() == pytest.approx(1.0, rel=1e-14)
    scaled = SimplexSplineProfile(prof.knots, prof.volumes * 2.0 ** -40)
    with np.errstate(over="raise", invalid="raise"):  # no warning escapes
        with pytest.raises(gl.FloatRangeError):
            gl.powered_integral(prof, 600.0)
        for beta in (600.0, 640.5):
            ratio, centroid = gl.tail_mass_ratio(prof, 1.0, beta), gl.alpha_centroid(prof, beta)
            assert gl.tail_mass_ratio(scaled, 1.0, beta) == ratio
            assert gl.alpha_centroid(scaled, beta) == centroid
            assert gl.tail_mass_ratio(unit, 1.0, beta) == pytest.approx(ratio, rel=1e-12)
            assert gl.alpha_centroid(unit, beta) == pytest.approx(centroid, rel=1e-12)
    tiny = SimplexSplineProfile(prof.knots, prof.volumes * 1e-300)
    assert gl.tail_mass_ratio(tiny, 2.0, 3.5) == pytest.approx(
        gl.tail_mass_ratio(prof, 2.0, 3.5), rel=1e-12)


def test_spline_ratios_at_extreme_powers_raise_only_float_range_errors():
    # the largest f at the tail's nodes can exceed that at the whole's, and
    # its ratio to the power 1e12 overflows
    rng = np.random.default_rng(3)
    for _ in range(5):
        prof = gl.exact_section_profile(gl.Simplex(rng.normal(size=(4, 3))), rng.normal(size=3))
        for alpha, beta in ((1e12, 1e12), (0.5, 1e15)):
            try:
                gl.tail_mass_ratio(prof, alpha, beta)
            except FloatRangeError:
                pass


def test_spline_profile_takes_facet_area_at_the_ends():
    # frustum: base [0, 2]^2 at height 0, top [0.5, 1.5]^2 at height 1, so
    # f(s) = (2 - s)^2 along the axis; rotate so the facets are not axis-aligned
    base = [[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0]]
    top = [[0.5, 0.5, 1], [1.5, 0.5, 1], [1.5, 1.5, 1], [0.5, 1.5, 1]]
    faces = [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6],
             [3, 0, 4, 7]]
    rot = rotation_matrix_3d(np.random.default_rng(53))
    body = gl.Polytope3D(np.array(base + top, dtype=float) @ rot.T, faces)
    u = rot @ E1_3[[2, 1, 0]]
    prof = gl.exact_section_profile(body, u)
    a, b = prof.domain
    assert prof.value(b) == pytest.approx(1.0, rel=1e-12)
    assert prof.value(a) == pytest.approx(4.0, rel=1e-12)
    assert prof.value(a + 0.25 * (b - a)) == pytest.approx(1.75 ** 2, rel=1e-12)
    assert prof.max_value() == pytest.approx(4.0, rel=1e-12)
    assert body.section_area(u, b) == pytest.approx(1.0, rel=1e-12)
    assert body.section_area(u, b + 0.1) == 0.0
    assert gl.powered_integral(prof, 1.0) == pytest.approx(7.0 / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# revolution bodies
# ---------------------------------------------------------------------------

def test_revolve_cone_sections(cone3):
    f = gl.DecreasingPowerProfile(np.pi, 0.0, 1.0, 2.0)
    body = gl.revolve(f, 3)
    assert body.section_scale == 1.0
    assert gl.section_volume(body, E1_3, 0.4) == pytest.approx(np.pi * 0.36, rel=1e-12)
    assert body.radius(0.4) == pytest.approx(0.6, rel=1e-12)
    assert body.volume() == pytest.approx(np.pi / 3.0, rel=1e-12)


def test_revolve_requires_root_concavity():
    f = gl.DecreasingPowerProfile(1.0, 0.0, 1.0, 4.0)  # f^(1/2) = (1-t)^2 convex
    with pytest.raises(PreconditionError):
        gl.revolve(f, 3)


def test_revolve_flat_profile_slab():
    body = gl.revolve(gl.ConstantProfile(1.0, 0.0, 1.0), 2)
    assert gl.section_volume(body, np.array([1.0, 0.0]), 0.3) == pytest.approx(1.0)
    trip = gl.revolve_roundtrip(gl.ConstantProfile(1.0, 0.0, 1.0), 2)
    assert trip.functional_ratio == pytest.approx(0.5, rel=1e-12)
    assert trip.geometric_ratio == pytest.approx(0.5, rel=1e-12)


def test_revolve_roundtrip_matches_functional(cone3):
    f = gl.DecreasingPowerProfile(np.pi, 0.0, 1.0, 2.0)
    for r in (0.0, 0.5, 1.0, 2.0):
        trip = gl.revolve_roundtrip(f, 3, r=r)
        assert trip.passed
        assert trip.discrepancy < 1e-10


def test_revolve_roundtrip_piecewise_linear_profile():
    h = gl.random_concave(61, 7)
    f = gl.power_profile(h, 2.0)  # beta = 2, so revolve in R^3
    trip = gl.revolve_roundtrip(f, 3, r=0.5)
    assert trip.passed
    # the functional side equals the tail-mass ratio of h at alpha = r*beta
    assert trip.functional_ratio == pytest.approx(
        gl.tail_mass_ratio(h, 1.0, 2.0), rel=1e-10)


def test_revolution_off_axis_rejected(cone3):
    with pytest.raises(GrunlabError):
        gl.support_interval(cone3, np.array([0.0, 1.0, 0.0]))
    mirrored = gl.exact_section_profile(cone3, -E1_3)
    assert isinstance(mirrored, gl.IncreasingPowerProfile)
    assert gl.evaluate(mirrored, -0.25) == pytest.approx(np.pi * 0.5625, rel=1e-12)


# ---------------------------------------------------------------------------
# serialization and validation
# ---------------------------------------------------------------------------

def test_body_json_round_trips(cone3):
    bodies = [
        gl.Ball([0.5, -1.0], 2.0),
        gl.Box([0, 0, 0], [1, 2, 3]),
        gl.Simplex([[0, 0], [1, 0], [0, 1]]),
        gl.Polytope2D([[0, 0], [1, 0], [1, 1], [0, 1]]),
        cone3,
    ]
    cube_faces = [[0, 1, 3, 2], [4, 5, 7, 6], [0, 1, 5, 4],
                  [2, 3, 7, 6], [0, 2, 6, 4], [1, 3, 7, 5]]
    bodies.append(gl.Polytope3D(bodies[1].vertices(), cube_faces))
    for body in bodies:
        data = gl.body_to_json(body)
        back = gl.body_from_json(json.dumps(data))
        assert type(back) is type(body)
        assert back.volume() == pytest.approx(body.volume(), rel=1e-12)
        assert np.array_equal(gl.centroid(back), gl.centroid(body))
        assert back.to_json() == data
    assert data["faces"] == cube_faces


def _copy_cases():
    """(build from the caller's arrays, the arrays, the body's arrays) per kind."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tetra = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    faces = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]
    return [
        (lambda c: gl.Ball(c[0], 1.0), [np.array([0.5, -1.0, 0.2])], lambda b: [b.center]),
        # both corners are views of one array
        (lambda c: gl.Box(c[0][:3], c[0][3:]), [np.array([0.0, 0, 0, 1, 2, 3])],
         lambda b: [b.lo, b.hi]),
        (lambda c: gl.Simplex(c[0]), [tetra.copy()], lambda b: [b.verts]),
        (lambda c: gl.Polytope2D(c[0]), [square], lambda b: [b.verts]),
        (lambda c: gl.Polytope3D(c[0], faces), [tetra.copy()], lambda b: [b.verts]),
    ]


@pytest.mark.parametrize("build,arrays,held", _copy_cases(),
                         ids=["ball", "box", "simplex", "polytope2d", "polytope3d"])
def test_constructors_copy_their_inputs(build, arrays, held):
    body = build(arrays)
    before = (body.to_json(), body.volume(), gl.centroid(body))
    for arr in arrays:
        assert arr.flags.writeable
        arr[0] += 0.25  # a later write to the caller's array
    assert body.to_json() == before[0]
    assert body.volume() == before[1]
    assert np.array_equal(gl.centroid(body), before[2])
    for arr in held(body):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_body_validation_errors():
    with pytest.raises(DegenerateBodyError):
        gl.Ball([0.0, 0.0], 0.0)
    with pytest.raises(DegenerateBodyError):
        gl.Box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DegenerateBodyError):
        gl.Simplex([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(DegenerateBodyError):
        gl.Polytope2D([[0, 0], [0, 1], [1, 0]])  # clockwise
    with pytest.raises(DegenerateBodyError):
        gl.body_from_json({"variant": "moebius"})


def test_fixture_files_load(cone3):
    for name in ("ball2.json", "ball3.json", "box2.json", "box3.json",
                 "simplex2.json", "simplex3.json", "cone3.json"):
        body = gl.body_from_json(load_fixture(name))
        assert body.volume() > 0.0


# ---------------------------------------------------------------------------
# constructors refuse what is not a body
# ---------------------------------------------------------------------------

_CUBE_VERTS = [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
_CUBE_FACES = [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1], [2, 3, 7, 6], [0, 2, 6, 4],
               [1, 5, 7, 3]]
_TETRA = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("build", [
    lambda: gl.Ball([math.nan, 0.0], 1.0),
    lambda: gl.Ball([0.0, 0.0], math.inf),
    lambda: gl.Ball([0.0, 0.0], math.nan),
    lambda: gl.Box([0.0, math.nan], [1.0, 1.0]),
    lambda: gl.Box([0.0, 0.0], [1.0, math.inf]),
    lambda: gl.Simplex([[0, 0], [1, 0], [math.nan, 1]]),
    lambda: gl.Polytope2D([[0, 0], [1, 0], [math.inf, 1]]),
    lambda: gl.Polytope3D([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -math.inf]],
                          [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]),
], ids=["ball-center", "ball-radius-inf", "ball-radius-nan", "box-lo", "box-hi", "simplex",
        "polygon", "polytope3d"])
def test_bodies_reject_non_finite_input(build):
    with pytest.raises(DegenerateBodyError):
        build()


def test_polygon_whose_edges_wind_twice_is_refused():
    step2 = 4.0 * np.pi * np.arange(5) / 5.0  # a pentagram: every turn is left
    with pytest.raises(DegenerateBodyError, match="wind"):
        gl.Polytope2D(np.column_stack([np.cos(step2), np.sin(step2)]))
    step1 = 2.0 * np.pi * np.arange(5) / 5.0
    pentagon = gl.Polytope2D(np.column_stack([np.cos(step1), np.sin(step1)]))
    assert pentagon.volume() == pytest.approx(2.5 * np.sin(2.0 * np.pi / 5.0), rel=1e-14)
    rng = np.random.default_rng(17)
    for _ in range(20):
        random_convex_polygon(rng)
    gl.Polytope2D([[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]])  # a straight angle is a vertex


def test_polytope3d_needs_a_closed_boundary():
    with pytest.raises(DegenerateBodyError, match="two faces"):
        gl.Polytope3D(_TETRA, [[1, 2, 3], [0, 3, 2], [0, 1, 3]])
    assert gl.Polytope3D(_TETRA, [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]).volume() \
        == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert gl.Polytope3D(_CUBE_VERTS, _CUBE_FACES).volume() == pytest.approx(1.0, rel=1e-14)
    rng = np.random.default_rng(18)
    for _ in range(10):
        random_polytope3d(rng)


# ---------------------------------------------------------------------------
# where a body sits: translation leaves its constructor's verdict alone
# ---------------------------------------------------------------------------

def test_translated_polytopes_are_judged_as_at_the_origin():
    assert gl.Simplex(np.array(_TETRA) + 1e4).volume() == pytest.approx(1.0 / 6.0, rel=1e-12)
    cube = gl.Polytope3D(np.array(_CUBE_VERTS) + 1e8, _CUBE_FACES)
    assert cube.volume() == pytest.approx(1.0, rel=1e-12)
    assert cube.contains(np.array([[1e8 + 0.5] * 3, [1e8 + 1.5] * 3])).tolist() == [True, False]
    reflex = np.array([[0, 0], [2, 0], [2, 2], [1, 0.9], [0, 2]])  # dented at (1, 0.9)
    for offset in (0.0, 1e5):
        with pytest.raises(DegenerateBodyError, match="convex"):
            gl.Polytope2D(reflex + offset)


def test_translated_polytopes_contain_only_their_own_points():
    rng = np.random.default_rng(16)
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for offset in (0.0, 1e8):
        share = gl.Polytope2D(triangle + offset).contains(
            offset + rng.uniform(0.0, 1.0, (100_000, 2))).mean()
        assert abs(share - 0.5) < 0.01
    square = gl.Polytope2D(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) + 1e8)
    assert square.contains(np.array([[1e8 + 0.5, 1e8 + 0.5],
                                     [1e8 + 201.0, 1e8 + 0.5]])).tolist() == [True, False]
    cube = gl.Polytope3D(np.array(_CUBE_VERTS) + 1e8, _CUBE_FACES)
    assert not cube.contains(np.array([[1e8 + 1.0 + 1e-5, 1e8 + 0.5, 1e8 + 0.5]]))[0]


def _volume_or_refused(build):
    try:
        return build().volume()
    except DegenerateBodyError:
        return "refused"


def _dyadic(shape, scale=16):
    """Arrays of multiples of 1/16 up to scale in size: their sums, differences
    and the body's vertex mean stay exact under the offsets below."""
    return st.lists(st.integers(-scale * 16, scale * 16), min_size=math.prod(shape),
                    max_size=math.prod(shape)).map(lambda k: np.reshape(k, shape) / 16.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["simplex", "polygon", "polytope3d"]))
def test_dyadic_offsets_leave_acceptance_and_volume_unchanged(data, kind):
    if kind == "simplex":
        n = data.draw(st.integers(2, 4))
        verts = data.draw(_dyadic((n + 1, n)))
        build = gl.Simplex
    elif kind == "polygon":  # points in angular order: convex, dented or flat
        pts = data.draw(_dyadic((data.draw(st.integers(3, 7)), 2)))
        d = pts - pts.mean(axis=0)
        verts = pts[np.argsort(np.arctan2(d[:, 1], d[:, 0]), kind="stable")]
        build = gl.Polytope2D
    else:  # a parallelepiped: eight vertices, so their mean is exact
        verts = np.array(_CUBE_VERTS) @ data.draw(_dyadic((3, 3), scale=4))

        def build(v):
            return gl.Polytope3D(v, _CUBE_FACES)
    offset = data.draw(_dyadic((verts.shape[1],), scale=2 ** 36))
    assert _volume_or_refused(lambda: build(verts + offset)) \
        == _volume_or_refused(lambda: build(verts))


def test_ball_volume_out_of_the_float_range_raises_float_range_error():
    with pytest.raises(FloatRangeError, match="float range"):
        gl.Ball(np.zeros(6), 1e100).volume()  # the power overflows
    with pytest.raises(FloatRangeError, match="float range"):
        gl.Ball([0.0], 1e308).volume()  # the product overflows
    assert gl.Ball(np.zeros(6), 1e50).volume() == pytest.approx(np.pi ** 3 / 6.0 * 1e300,
                                                                 rel=1e-14)


def test_box_volume_out_of_the_float_range_raises_float_range_error():
    with pytest.raises(FloatRangeError, match="float range"):
        gl.Box(np.zeros(6), 1e100 * np.ones(6)).volume()  # the product overflows
    with pytest.raises(FloatRangeError, match="float range"):
        gl.Box([-1e308], [1e308]).volume()  # the edge overflows
    assert gl.Box(np.zeros(6), 1e50 * np.ones(6)).volume() == pytest.approx(1e300, rel=1e-14)


def test_every_fixture_loads():
    names = sorted(p.name for p in (resources.files("grunlab") / "fixtures").iterdir()
                   if p.name.endswith(".json"))
    assert len(names) == 10
    for name in names:
        data = load_fixture(name)
        built = gl.body_from_json(data) if "variant" in data else gl.profile_from_json(data)
        assert built is not None
