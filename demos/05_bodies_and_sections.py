"""Convex bodies, their section profiles, and the Brunn concavity certificate.

Exact sectioning: balls in any dimension, simplices in any dimension,
polygons and 3-polytopes, boxes (any direction up to R^6, a coordinate axis
in any dimension), and bodies of revolution. Every polytope profile is one
sum of simplex B-splines over a simplicial decomposition.
"""

import numpy as np

import grunlab as gl

# a cube sliced along its main diagonal: profile rises to the hexagon slice
box = gl.Box([0, 0, 0], [1, 1, 1])
u = np.ones(3) / np.sqrt(3.0)
prof = gl.exact_section_profile(box, u)
a, b = prof.domain
print("unit cube along the main diagonal:")
for t in np.linspace(a, b, 7):
    bar = "#" * int(40 * prof.value(t) / prof.max_value())
    print(f"  t={t:6.3f}  area {prof.value(t):.4f}  {bar}")
print(f"  Fubini check: integral of the profile = {gl.powered_integral(prof, 1.0):.12f}"
      f" (volume 1)")

# Brunn concavity: area^(1/(n-1)) is concave for every convex body
check = gl.p_concavity_check(prof, 1.0 / 2.0)
print(f"  area^(1/2) concave: {check.ok} (max violation {check.max_violation:.1e})")

# powered centroids slide from the midpoint toward the centroid and beyond
tet = gl.Simplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
print("\nstandard tetrahedron along e1: r-powered centroid positions")
for r in (0.0, 0.5, 1.0, 2.0, 5.0):
    lam = gl.r_centroid_point(tet, [1, 0, 0], r)
    print(f"  r={r:3.1f}: lambda_r = {lam:.6f}")
print(f"  (r=1 equals the centroid component {gl.centroid(tet)[0]:.6f})")

# halfspace fractions through any cut
print("\nhalfspace volume fractions of the tetrahedron along e1:")
for c in (0.1, 0.25, 0.5):
    frac = gl.halfspace_fraction(tet, [1, 0, 0], c)
    print(f"  cut at {c:.2f}: lower {frac:.6f} upper {1 - frac:.6f}")

# a random convex polygon: chord profile is exact piecewise-linear geometry
rng = np.random.default_rng(7)
pts = rng.normal(size=(14, 2))
from scipy.spatial import ConvexHull  # demo-only oracle for building the hull

hull = ConvexHull(pts)
poly = gl.Polytope2D(pts[hull.vertices])
u2 = np.array([0.6, 0.8])
rep = gl.verify_makai_fradelizi(poly, u2)
print(f"\nrandom polygon, central section ratio {rep.ratio:.4f} "
      f">= {rep.bound:.4f}: pass={rep.passed}")
rep = gl.verify_minkowski_radon(poly, u2)
print(f"random polygon, projection split {rep.ratio:.4f} "
      f">= {rep.bound:.4f}: pass={rep.passed}")

# a random simplex in R^5 along a random direction: exact, no Monte Carlo
s5 = gl.Simplex(rng.normal(size=(6, 5)))
u5 = rng.normal(size=5)
u5 /= np.linalg.norm(u5)
print(f"\nrandom 5-simplex: r=1 centroid {gl.r_centroid_point(s5, u5, 1.0):.12f} "
      f"vs centroid along u {float(gl.centroid(s5) @ u5):.12f}")

# body of revolution from a profile: sections reproduce the profile exactly
f = gl.power_profile(gl.random_concave(5, 6), 2.0)
body = gl.revolve(f, 3)
t = 0.4
print(f"\nrevolved profile in R^3: section at t={t} -> "
      f"{gl.section_volume(body, [1, 0, 0], t):.9f} vs f(t) = {gl.evaluate(f, t):.9f}")
