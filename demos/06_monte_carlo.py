"""Seeded Monte Carlo: binned section profiles and halfspace counting.

Rejection sampling in the bounding box with one PCG64DXSM substream per
fixed-size chunk, seeded by SeedSequence(seed, spawn_key=(chunk,)): a fixed
seed reproduces every number exactly, regardless of how the sample budget
would be split across workers. Each tile of points is held coordinate-major,
one contiguous row per coordinate, while it is tested and projected, and
each projection is summed coordinate by coordinate in a fixed order; so
neither the layout nor the tile size changes a seeded value.
"""

import json

import numpy as np

import grunlab as gl

with open(gl.fixture_path("cone3.json"), encoding="utf-8") as fh:
    cone = gl.body_from_json(json.load(fh))
mc = gl.McSpec(seed=424242, samples=400_000, bins=64)

# halfspace fraction at the centroid cut: exact 37/64 on the lower side
est = gl.mc_halfspace_fraction(cone, [1, 0, 0], 0.25, mc)
exact = 37.0 / 64.0
print(f"cone lower fraction at the centroid cut:")
print(f"  exact     {exact:.6f}")
print(f"  MC        {est.value:.6f} +- {est.sigma:.6f}  (seed {est.meta['seed']})")
print(f"  |diff|    {abs(est.value - exact):.2e}  ({abs(est.value - exact) / est.sigma:.2f} sigma)")

# the binned profile tracks pi(1-t)^2 with declared error bars
sp = gl.mc_section_profile(cone, [1, 0, 0], mc)
print("\nbinned section profile vs truth (every 8th bin):")
centers = sp.profile.centers
for i in range(0, mc.bins, 8):
    t = centers[i]
    truth = np.pi * (1 - t) ** 2
    print(f"  t={t:5.3f}  f^ {sp.profile.values[i]:8.5f} +- {sp.sigma[i]:.5f}"
          f"   truth {truth:8.5f}")

# the same 1-D machinery runs on the binned profile
lam = gl.r_centroid_point(cone, [1, 0, 0], 1.0, mc=mc)
print(f"\nr=1 powered centroid from the binned profile: {lam:.4f} (exact 0.25)")

rep = gl.verify_grunbaum_r(cone, [1, 0, 0], 0.5, 1.0, mc=mc)
print(f"MC-backed verdict: ratio {rep.ratio:.5f} vs bound {rep.bound:.5f} "
      f"(tolerance {rep.tolerance:.1e} from the one-sided 99% CI): pass={rep.passed}")

again = gl.mc_halfspace_fraction(cone, [1, 0, 0], 0.25, mc)
print(f"\ndeterminism: rerun with the same seed -> identical estimate: "
      f"{again.value == est.value}")
