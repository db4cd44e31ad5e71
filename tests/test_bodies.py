"""Bodies: supports, sections, centroids, verifiers, revolution round trips."""

import time

import numpy as np
import pytest
from scipy.integrate import quad

import grunlab as gl
from grunlab.bodies import SimplexSplineProfile
from grunlab.errors import (
    DegenerateBodyError,
    DomainError,
    GrunlabError,
    ParameterError,
    PreconditionError,
)

from conftest import (
    BoxSections,
    SimplexSections,
    exact_section_integrals,
    load_fixture,
    random_convex_polygon,
    random_polytope3d,
    reference_mc_chunks,
    reference_mc_estimates,
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
        assert gl.evaluate(prof, t) == pytest.approx(poly.chord_length(u, t), abs=1e-12)


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


def test_ball_integrals_never_reach_adaptive_simpson(monkeypatch):
    calls = []
    simpson = gl.profiles.adaptive_simpson

    def counted(*args, **kwargs):
        calls.append(1)
        return simpson(*args, **kwargs)

    monkeypatch.setattr(gl.profiles, "adaptive_simpson", counted)
    rng = np.random.default_rng(61)
    h = gl.BallSectionProfile(1.3, 5, center=0.4)
    for beta in (1.0 / 3.0, 1.0, 2.5):
        gl.powered_integral(h, beta, (0.0, 1.1))
        gl.moment_integral(h, beta, (-0.5, 0.2))
        gl.tail_mass_ratio(h, beta, 1.0)
        gl.tail_masses(h, beta, [-0.3, 0.5])
        gl.tail_mass_ratio(gl.power_profile(h, 0.5), beta, 1.0)
    for n in (2, 3, 6):
        ball = gl.Ball(rng.normal(size=n), 1.0)
        gl.verify_grunbaum_r(ball, _rand_unit(rng, n), 1.0 / (n - 1), 0.5)
        gl.verify_makai_fradelizi(ball, _rand_unit(rng, n))
    gl.verify_grunbaum_r(gl.revolve(gl.BallSectionProfile(1.0, 4), 4), np.eye(4)[0], 1.0 / 3, 2.0)
    assert not calls
    spline = gl.exact_section_profile(gl.Simplex(rng.normal(size=(4, 3))), _rand_unit(rng, 3))
    gl.powered_integral(spline, 1.5)
    assert calls  # the counter does see quadrature where it runs


def test_grunbaum_r_at_r_one_integrates_the_total_mass_once(monkeypatch):
    calls = []
    real = gl.profiles.powered_integral

    def counted(h, beta, interval=None, spec=gl.DEFAULT_QUADRATURE):
        calls.append(interval)
        return real(h, beta, interval, spec)

    rng = np.random.default_rng(71)
    for body in (gl.Ball(rng.normal(size=4), 1.3), gl.Simplex(rng.normal(size=(4, 3)))):
        u = _rand_unit(rng, body.dim)
        profile = gl.exact_section_profile(body, u)
        a, b = profile.domain
        monkeypatch.setattr(gl.profiles, "powered_integral", counted)
        calls.clear()
        rep = gl.verify_grunbaum_r(body, u, 1.0 / (body.dim - 1), 1.0)
        monkeypatch.undo()
        cut = rep.details["cut"]
        assert calls == [None, (cut, b)]
        assert rep.details["lower_fraction"] == 1.0 - real(profile, 1.0, (cut, b)) / real(
            profile, 1.0)


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
    assert (prov["kind"], prov["abs_tol"]) == ("quadrature", 1e-10)


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
    forward = [pts.shape[0] for pts, _ in mc_chunks(ball, spec)]
    again = [pts.shape[0] for pts, _ in mc_chunks(ball, spec)]
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
    """Coordinate-major chunks hold the same points, accept the same ones and
    give the same estimates, bit for bit, as row-major rejection sampling.
    150,000 samples are three substreams, the last one partial."""
    from grunlab.bodies import mc_chunks

    mc = gl.McSpec(seed=seed, samples=150_000, bins=64)
    chunks = list(mc_chunks(body, mc))
    reference = list(reference_mc_chunks(body, mc))
    assert [m for _, m in chunks] == [m for _, m in reference] == [65_536, 65_536, 18_928]
    for (pts, _), (want, _) in zip(chunks, reference):
        assert pts.shape == want.shape == (want.shape[0], body.dim)
        assert np.array_equal(pts, want)
    a, b = body.support_interval(u)
    cut = a + 0.4 * (b - a)
    values, sigma, frac, frac_sigma = reference_mc_estimates(body, u, cut, mc, reference)
    sp = gl.mc_section_profile(body, u, mc)
    assert np.array_equal(sp.profile.values, values)
    assert np.array_equal(sp.sigma, sigma)
    est = gl.mc_halfspace_fraction(body, u, cut, mc)
    assert (est.value, est.sigma) == (frac, frac_sigma)


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
    return cases + [
        ("box3", gl.Box(lo, lo + rng.uniform(0.5, 2.0, 3))),
        ("simplex4", gl.Simplex(rng.normal(size=(5, 4)))),
        ("polygon", random_convex_polygon(rng)),
        ("polytope3d", random_polytope3d(rng)),
        ("cone3", gl.body_from_json(load_fixture("cone3.json"))),
    ]


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


def test_spline_profile_non_integer_power_uses_quadrature():
    rng = np.random.default_rng(47)
    body = gl.Simplex(rng.normal(size=(4, 3)))
    u = _rand_unit(rng, 3)
    prof = gl.exact_section_profile(body, u)
    assert prof.powered_integral_exact(1.5, *prof.domain) is None
    a, b = prof.domain
    want = quad(lambda t: prof.value(t) ** 1.5, a, b, points=prof.quadrature_breakpoints,
                epsabs=1e-13, limit=200)[0]
    assert gl.powered_integral(prof, 1.5) == pytest.approx(want, rel=1e-9)


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
    for body in bodies:
        back = gl.body_from_json(gl.body_to_json(body))
        assert type(back) is type(body)
        assert back.volume() == pytest.approx(body.volume(), rel=1e-12)


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
