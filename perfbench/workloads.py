"""The four workloads: how each op's inputs are made and what each op calls.

Inputs come from numpy generators seeded with (workload seed, workload code,
op index), never from grunlab's own random_concave, so a change to that
function leaves the other layers' inputs alone. Each op does the same fixed
mix of work; where cost depends on the input kind, one op covers one of each
kind. `make` builds the op's inputs (program objects included) and is not
timed; `run` is the timed call into grunlab. checks.py holds the checks.
"""

from __future__ import annotations

import numpy as np

import grunlab as gl

GRID = (0.5, 1.0, 2.0, 3.0)
COMPARISON_PAIRS = ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 0.5), (2.0, 3.0))
NEAR_FLAT = 1e-4  # relative ordinate change of a falsify segment, at least


def _rng(seed, code, i):
    return np.random.default_rng([int(seed), code, int(i)])


def _direction(rng, n):
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


# ---------------------------------------------------------------------------
# falsify: closed-form profile engine and verification layer
# ---------------------------------------------------------------------------

class Falsify:
    """One concave piecewise-linear profile with 4 to 40 breakpoints, run
    through verify_functional on the 4x4 (alpha, beta) grid and through the
    comparison construction on criterion 4's six pairs."""

    name = "falsify"
    round_len = 1

    def make(self, seed, i):
        rng = _rng(seed, 1, i)
        m = int(rng.integers(4, 41))
        a, length = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        gaps = 1e-3 + rng.dirichlet(np.ones(m - 1)) * (1.0 - 1e-3 * (m - 1))
        ts = a + length * np.concatenate([[0.0], np.cumsum(gaps)])
        ts[-1] = a + length
        while True:
            slopes = np.sort(rng.normal(0.0, 2.0, m - 1))[::-1] / length
            hs = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))])
            hs -= hs.min()
            if rng.random() < 0.5:
                hs += rng.uniform(0.05, 0.5) * hs.max()
            hs *= rng.uniform(0.5, 2.0) / hs.max()
            # Nearly flat segments are redrawn: grunlab's moment integral
            # loses digits on them (README.md, "Left out").
            if np.all(np.abs(np.diff(hs)) > NEAR_FLAT * (hs[:-1] + hs[1:])):
                break
        return {"ts": ts, "hs": hs, "profile": gl.ConcaveProfile(np.column_stack([ts, hs]))}

    def run(self, inp):
        h = inp["profile"]
        reports = [gl.verify_functional(h, a, b) for a in GRID for b in GRID]
        comparisons = []
        for a, b in COMPARISON_PAIRS:
            g = gl.build_comparison_affine(h, a, b)
            comparisons.append((g, gl.validate_comparison(h, g, a, b),
                                gl.centroid_domination_check(h, a, b)))
        return {"reports": reports, "comparisons": comparisons}


# ---------------------------------------------------------------------------
# search: sweep kernel, concavity projection and coordinate descent
# ---------------------------------------------------------------------------

class Search:
    """One sharpness probe of an (alpha, beta) cell of the 4x4 grid: a
    200-trial sweep of the cell, then minimize_tail_ratio with m = 16 and 8
    restarts at a fixed budget."""

    name = "search"
    round_len = 1
    trials = 200
    budget = 50
    repeat_every = 10

    def make(self, seed, i):
        rng = _rng(seed, 2, i)
        alpha, beta = (float(x) for x in rng.choice(GRID, size=2))
        return {"alpha": alpha, "beta": beta, "seed": int(rng.integers(0, 2 ** 31)),
                "repeat": i % self.repeat_every == 0}

    def run(self, inp):
        a, b, s = inp["alpha"], inp["beta"], inp["seed"]
        table = gl.sweep([a], [b], self.trials, s)
        result = gl.minimize_tail_ratio(gl.SearchConfig(alpha=a, beta=b, seed=s, m=16,
                                                        budget=self.budget, restarts=8))
        return {"sweep": table, "result": result}


# ---------------------------------------------------------------------------
# bodies: shared body generation and verdict checks
# ---------------------------------------------------------------------------

# Vertex sets of simplices in the unit cube with the largest 0/1 determinant
# (2, 3, 5, 9 for n = 3..6): the origin plus these rows. They fill their
# bounding box as well as any simplex can, which keeps Monte Carlo acceptance
# (det / n!) from collapsing as n grows.
FAT_SIMPLEX = {
    3: [[1, 0, 1], [1, 1, 0], [0, 1, 1]],
    4: [[1, 0, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 1]],
    5: [[1, 0, 1, 0, 1], [0, 1, 1, 0, 0], [0, 1, 0, 1, 1], [1, 1, 0, 1, 0],
        [0, 0, 1, 1, 0]],
    6: [[0, 1, 1, 0, 1, 1], [0, 1, 0, 1, 0, 1], [1, 1, 0, 0, 1, 0], [0, 1, 1, 1, 0, 0],
        [0, 0, 0, 1, 1, 0], [1, 0, 1, 1, 0, 1]],
}


def _simplex(rng, n):
    base = np.vstack([np.zeros(n), np.asarray(FAT_SIMPLEX[n], dtype=float)])
    verts = (base + 0.05 * rng.normal(size=base.shape)) * rng.uniform(0.7, 1.3, n) \
        + 0.5 * rng.normal(size=n)
    return "simplex", {"vertices": verts}, gl.Simplex(verts)


def _box(rng, n):
    lo = 0.5 * rng.normal(size=n)
    hi = lo + rng.uniform(0.5, 1.5, n)
    return "box", {"lo": lo, "hi": hi}, gl.Box(lo, hi)


def _ball(rng, n):
    center, radius = 0.5 * rng.normal(size=n), 1.0
    return "ball", {"center": center, "radius": radius}, gl.Ball(center, radius)


# ---------------------------------------------------------------------------
# bodies-exact: exact sectioning and adaptive quadrature
# ---------------------------------------------------------------------------

class BodiesExact:
    """Exact-route Grunbaum-r, Makai-Fradelizi and Minkowski-Radon verdicts
    on a random tetrahedron, a random box in R^3 and an off-centre ball in
    R^6, each along a generic direction, at r = 1 and p = 1/(n-1).

    Every `disk_every`-th op is instead the unit disk centred at (1, 0) along
    (1, 0) with p = 1, r = 1. Adaptive Simpson does not converge on its
    profile, so that op raises ConvergenceError on every run and is counted
    as failed; runs attempt whole rounds of `round_len` ops, so the failed
    share is the same in every run.
    """

    name = "bodies-exact"
    disk_every = 5
    round_len = disk_every
    ball_dim = 6

    def make(self, seed, i):
        if i % self.disk_every == self.disk_every - 1:
            return {"disk": True, "body": gl.Ball([1.0, 0.0], 1.0), "u": np.array([1.0, 0.0])}
        rng = _rng(seed, 3, i)
        cases = []
        u = _direction(rng, 3)
        cases.append(_simplex(rng, 3) + (u,))
        u = _direction(rng, 3)
        cases.append(_box(rng, 3) + (u,))
        u = _direction(rng, self.ball_dim)
        cases.append(_ball(rng, self.ball_dim) + (u,))
        return {"disk": False, "cases": cases}

    def run(self, inp):
        if inp["disk"]:
            return {"disk": gl.verify_grunbaum_r(inp["body"], inp["u"], p=1.0, r=1.0)}
        out = []
        for kind, params, body, u in inp["cases"]:
            p = 1.0 / (body.dim - 1)
            out.append((gl.verify_grunbaum_r(body, u, p=p, r=1.0),
                        gl.verify_makai_fradelizi(body, u),
                        gl.verify_minkowski_radon(body, u)))
        return {"verdicts": out}


# ---------------------------------------------------------------------------
# bodies-mc: Monte Carlo sectioning
# ---------------------------------------------------------------------------

class BodiesMc:
    """The sampled route on a simplex, a box and a ball in each of R^3 to
    R^6 (12 bodies), each along a generic direction with its own fixed-size
    McSpec seeded from the workload seed and the op index: the r-powered
    centroid (r = 1) of the binned section profile, then the sampled
    fraction of volume below it. These are the two Monte Carlo passes of
    verify_grunbaum_r(..., mc=...); the verdict itself is left out because
    its noise-aware concavity test rejects some convex bodies at random
    (see README.md)."""

    name = "bodies-mc"
    round_len = 1
    samples = 1 << 15

    def make(self, seed, i):
        rng = _rng(seed, 4, i)
        cases = []
        for n in (3, 4, 5, 6):
            for build in (_simplex, _box, _ball):
                u = _direction(rng, n)
                body = build(rng, n)
                mc = gl.McSpec(seed=int(rng.integers(0, 2 ** 62)), samples=self.samples)
                cases.append(body + (u, mc))
        return {"cases": cases, "repeat": i % len(cases)}

    def run(self, inp):
        out = []
        for kind, params, body, u, mc in inp["cases"]:
            cut = gl.r_centroid_point(body, u, 1.0, mc=mc)
            out.append((cut, gl.mc_halfspace_fraction(body, u, cut, mc)))
        return {"estimates": out}


WORKLOADS = {w.name: w for w in (Falsify(), Search(), BodiesExact(), BodiesMc())}
