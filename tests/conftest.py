import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

import grunlab as gl
from grunlab import search


def load_fixture(name):
    with open(gl.fixture_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def affine():
    """h(t) = 1 - t on [0, 1]: the equality case of the tail-mass bounds."""
    return gl.ConcaveProfile([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def flat():
    """h = 1 on [0, 1]."""
    return gl.ConcaveProfile([[0.0, 1.0], [1.0, 1.0]])


@pytest.fixture
def cone3():
    return gl.body_from_json(load_fixture("cone3.json"))


def random_profiles(seed, count, m=10):
    return [gl.random_concave([seed, k], m) for k in range(count)]


def _exact_segment(ha, hb, ta, tb, e):
    """Exact int h^e and int t h^e over one affine segment, integer e >= 0."""
    dt = tb - ta
    terms = [ha ** (e - k) * hb ** k for k in range(e + 1)]
    mass = dt * sum(terms) / (e + 1)
    moment = dt * (ta * sum(terms) / (e + 1)
                   + dt * sum((k + 1) * w for k, w in enumerate(terms)) / ((e + 1) * (e + 2)))
    return mass, moment


def exact_integrals(ts, hs, e, lo=None, hi=None):
    """int_lo^hi h^e and int_lo^hi t h^e of the PL profile (ts, hs), exactly,
    for integer e (default interval: the whole domain)."""
    ts = [Fraction(float(t)) for t in ts]
    hs = [Fraction(float(h)) for h in hs]
    lo = ts[0] if lo is None else Fraction(lo)
    hi = ts[-1] if hi is None else Fraction(hi)
    mass = moment = Fraction(0)
    for ha, hb, ta, tb in zip(hs[:-1], hs[1:], ts[:-1], ts[1:]):
        a, b = max(ta, lo), min(tb, hi)
        if a < b:
            slope = (hb - ha) / (tb - ta)
            seg = _exact_segment(ha + slope * (a - ta), ha + slope * (b - ta), a, b, e)
            mass, moment = mass + seg[0], moment + seg[1]
    return mass, moment


def exact_centroid(ts, hs, alpha):
    mass, moment = exact_integrals(ts, hs, alpha)
    return moment / mass


def exact_tail_ratio(ts, hs, alpha, beta):
    """Tail-mass ratio in exact rational arithmetic, for integer alpha and beta."""
    cut = exact_centroid(ts, hs, alpha)
    total = exact_integrals(ts, hs, beta)[0]
    tail = exact_integrals(ts, hs, beta, lo=cut)[0]
    return float(tail / total)


def superlevel_sigma_violation(h, beta, grid_size=512):
    """Largest second difference of sigma -> W(sigma^(1/beta))^(1/2).

    W is superlevel_masses and sigma = s^beta runs over a uniform grid on
    [0, (max h)^beta]. beta * W(sigma^(1/beta)) is the area above height sigma
    of the hypograph of h^beta; that hypograph is convex for beta <= 1, so by
    Brunn-Minkowski the square root is concave in sigma. The result is relative
    to the largest root on the grid; positive means a violation.
    """
    sigma = np.linspace(0.0, h.max_value() ** beta, int(grid_size))
    root = np.sqrt(gl.superlevel_masses(h, beta, sigma ** (1.0 / beta)))
    d2 = root[2:] - 2.0 * root[1:-1] + root[:-2]
    return float(d2.max() / root.max())


# ---------------------------------------------------------------------------
# exact rational section profiles of simplices and boxes
# ---------------------------------------------------------------------------

def divided_difference(nodes, taylor):
    """[y_0, ..., y_n] g for sorted rational nodes, repeats allowed: on a run
    of equal nodes the quotient is replaced by taylor(k, y) = g^(k)(y) / k!
    (Hermite's rule)."""
    table = [taylor(0, y) for y in nodes]
    for k in range(1, len(nodes)):
        table = [taylor(k, nodes[i]) if nodes[i + k] == nodes[i]
                 else (table[i + 1] - table[i]) / (nodes[i + k] - nodes[i])
                 for i in range(len(nodes) - k)]
    return table[0]


def _plus_power(t, m):
    """Taylor coefficients of y -> (y - t)_+^m."""
    return lambda k, y: math.comb(m, k) * (y - t) ** (m - k) if y > t else Fraction(0)


class SimplexSections:
    """Sections of a simplex along u in exact rationals: the fraction of
    volume above <x, u> = t is [y_0, ..., y_n] (. - t)_+^n over the vertex
    projections y_i, and its t-derivative gives the section profile."""

    def __init__(self, verts, u):
        verts = np.asarray(verts, dtype=float)
        self.n = verts.shape[1]
        self.volume = Fraction(abs(float(np.linalg.det(verts[1:] - verts[0])))) \
            / math.factorial(self.n)
        self.knots = sorted(Fraction(float(y)) for y in verts @ np.asarray(u, dtype=float))

    def section(self, t):
        return self.volume * self.n * divided_difference(
            self.knots, _plus_power(Fraction(t), self.n - 1))

    def lower_fraction(self, c):
        return 1 - divided_difference(self.knots, _plus_power(Fraction(c), self.n))


class BoxSections:
    """Sections of an axis-aligned box along u (no zero component) in exact
    rationals, by inclusion-exclusion over the corners of the box spline with
    widths |u_i| (hi_i - lo_i)."""

    def __init__(self, lo, hi, u):
        lo, hi, u = (np.asarray(v, dtype=float) for v in (lo, hi, u))
        self.n = lo.size
        self.volume = math.prod(Fraction(float(d)) for d in hi - lo)
        widths = [Fraction(float(w)) for w in np.abs(u) * (hi - lo)]
        self.start = Fraction(float(np.sum(np.minimum(u * lo, u * hi))))
        self._norm = math.prod(widths)
        self._corners = [(sum(s, Fraction(0)), (-1) ** k)
                         for k in range(self.n + 1) for s in combinations(widths, k)]
        self.knots = sorted({self.start + c for c, _ in self._corners})

    def _spline(self, x, m):
        return sum(sg * (x - c) ** m for c, sg in self._corners if x > c) / self._norm

    def section(self, t):
        return self.volume * self._spline(Fraction(t) - self.start, self.n - 1) \
            / math.factorial(self.n - 1)

    def lower_fraction(self, c):
        return self._spline(Fraction(c) - self.start, self.n) / math.factorial(self.n)


@lru_cache(maxsize=None)
def _open_rule(degree):
    """Nodes and weights on [0, 1] of the interpolatory rule on degree + 1
    equally spaced interior points, exact for polynomials up to that degree."""
    xs = [Fraction(2 * k + 1, 2 * degree + 2) for k in range(degree + 1)]
    weights = []
    for k, xk in enumerate(xs):
        poly = [Fraction(1)]  # the Lagrange basis polynomial, lowest power first
        for j, xj in enumerate(xs):
            if j != k:
                poly = [(lower - xj * same) / (xk - xj)
                        for lower, same in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
        weights.append(sum(c / (i + 1) for i, c in enumerate(poly)))
    return xs, weights


def exact_section_integrals(sections, e, lo=None, hi=None):
    """int f^e and int t f^e over [lo, hi] (default: the support), exactly,
    for integer e: f is one polynomial of degree n - 1 between knots."""
    knots = sections.knots
    lo = knots[0] if lo is None else Fraction(lo)
    hi = knots[-1] if hi is None else Fraction(hi)
    cuts = [lo] + [k for k in knots if lo < k < hi] + [hi]
    xs, weights = _open_rule((sections.n - 1) * e + 1)
    mass = moment = Fraction(0)
    for p, q in zip(cuts[:-1], cuts[1:]):
        for x, w in zip(xs, weights):
            t = p + (q - p) * x
            g = (q - p) * w * sections.section(t) ** e
            mass, moment = mass + g, moment + t * g
    return mass, moment


# ---------------------------------------------------------------------------
# reference rejection sampler, row-major: one point per row
# ---------------------------------------------------------------------------

REFERENCE_MC_CHUNK = 1 << 16  # points per Philox substream


def row_major_contains(body, pts):
    """Membership of the rows of a C-ordered (m, d) array, tested one point
    per row: the reference that the bodies' coordinate-major contains methods
    must match mask for mask."""
    if isinstance(body, gl.Ball):
        d = pts - body.center
        return np.einsum("ij,ij->i", d, d) <= body.radius ** 2
    if isinstance(body, gl.Box):
        return np.all((pts >= body.lo) & (pts <= body.hi), axis=1)
    if isinstance(body, gl.Simplex):
        inv = np.linalg.inv((body.verts[1:] - body.verts[0]).T)
        lam = (pts - body.verts[0]) @ inv.T
        return np.all(lam >= -1e-12, axis=1) & (lam.sum(axis=1) <= 1.0 + 1e-12)
    if isinstance(body, gl.Polytope3D):
        scale = max(float(np.abs(body.verts).max()), 1.0)
        return np.all(pts @ body._normals.T <= body._offsets + 1e-12 * scale, axis=1)
    if isinstance(body, gl.Revolution):
        a, b = body.profile.domain
        t = pts[:, 0]
        on = (t >= a) & (t <= b)
        f = np.where(on, np.maximum(body.profile.value(np.clip(t, a, b)), 0.0), -1.0)
        perp = np.linalg.norm(pts[:, 1:], axis=1)
        return gl.unit_ball_volume(body.dim - 1) * perp ** (body.dim - 1) <= f
    raise TypeError(f"no row-major formula for {type(body).__name__}")


def reference_mc_chunks(body, mc):
    """(inside points, chunk size) per substream, drawn and tested row-major:
    chunk i draws lo + U (hi - lo) from Philox(key=seed).jumped(i)."""
    lo, hi = body.bounding_box()
    base = np.random.Philox(key=mc.seed)
    for i, start in enumerate(range(0, mc.samples, REFERENCE_MC_CHUNK)):
        m = min(REFERENCE_MC_CHUNK, mc.samples - start)
        pts = lo + np.random.Generator(base.jumped(i)).random((m, lo.size)) * (hi - lo)
        yield pts[row_major_contains(body, pts)], m


def reference_mc_estimates(body, u, cut, mc, chunks):
    """The binned profile's (values, sigma) and the (fraction, sigma) below
    the cut, by the estimators' own formulas, from the reference sampler's
    list of chunks for this body and McSpec."""
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    a, b = body.support_interval(u)
    lo, hi = body.bounding_box()
    box_vol = float(np.prod(hi - lo))
    width = np.linspace(a, b, mc.bins + 1)[1] - a
    counts, total, inside, below = np.zeros(mc.bins), 0, 0, 0
    for pts, m in chunks:
        proj = pts @ u
        idx = np.clip(((proj - a) / width).astype(int), 0, mc.bins - 1)
        counts += np.bincount(idx, minlength=mc.bins)
        total += m
        inside += pts.shape[0]
        below += int(np.count_nonzero(proj <= cut))
    p = counts / total
    values = box_vol * p / width
    sigma = box_vol * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / total) / width
    frac = below / inside
    return values, sigma, frac, math.sqrt(max(frac * (1.0 - frac), 0.0) / inside)


def chord_length(poly, u, t):
    """Length of the polygon's intersection with the line <x, u> = t, from its
    edge crossings (u a unit vector)."""
    perp = np.array([-u[1], u[0]])
    dots = poly.verts @ u - t
    scale = max(float(np.abs(dots).max()), 1e-300)
    spans = []
    for p, q, dp, dq in zip(poly.verts, np.roll(poly.verts, -1, axis=0), dots, np.roll(dots, -1)):
        if abs(dp) <= 1e-14 * scale:
            spans.append(float(p @ perp))
        if (dp < 0 < dq) or (dq < 0 < dp):
            spans.append(float((p + dp / (dp - dq) * (q - p)) @ perp))
    return max(spans) - min(spans) if len(spans) >= 2 else 0.0


def random_convex_polygon(rng, n_pts=12):
    """Convex hull (ccw) of random planar points."""
    pts = rng.normal(size=(n_pts, 2))
    hull = _hull2d_ccw(pts)
    return gl.Polytope2D(hull)


def _hull2d_ccw(pts):
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(points):
        chain = []
        for p in points:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def random_polytope3d(rng, n_pts=10):
    """Convex hull of random points in R^3 as a Polytope3D (scipy oracle)."""
    from scipy.spatial import ConvexHull

    pts = rng.normal(size=(n_pts, 3))
    hull = ConvexHull(pts)
    return gl.Polytope3D(pts[hull.vertices],
                         _reindex_faces(hull.simplices, hull.vertices))


def _reindex_faces(simplices, vertex_ids):
    lookup = {int(v): i for i, v in enumerate(vertex_ids)}
    return [[lookup[int(i)] for i in face] for face in simplices]


def rotation_matrix_3d(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def project_concave_row(ts, hs):
    """Concavity projection of one profile: re-sort the slopes, min 0, max 1."""
    slopes = np.sort(np.diff(hs) / np.diff(ts))[::-1]
    out = np.concatenate([[hs[0]], hs[0] + np.cumsum(slopes * np.diff(ts))])
    out -= out.min()
    mx = out.max()
    if mx <= 0.0:
        return None
    out /= mx
    if np.any(out[1:-1] <= 0.0):
        return None
    return out


def reference_minimize(config):
    """minimize_tail_ratio with each restart run alone, one profile at a time.

    The reference for the lockstep search: the same generators, draws,
    projection and acceptance rule, with every ratio from tail_ratio_grid.
    Returns (ts, hs, ratio, trace) of the best restart.
    """
    ts = np.linspace(0.0, 1.0, config.m)
    decay = (search._STEP_FINAL / search._STEP_INIT) ** (1.0 / config.budget)
    best_hs, best_ratio, trace = None, np.inf, []
    for k in range(config.restarts):
        rng = np.random.default_rng([config.seed, k])
        hs = project_concave_row(ts, np.maximum(rng.uniform(0.0, 1.0, config.m), 1e-3))
        if hs is None:
            hs = 1.0 - 0.5 * ts
        cur = gl.tail_ratio_grid(ts, hs, config.alpha, config.beta)
        step = search._STEP_INIT
        for it in range(config.budget):
            j = int(rng.integers(0, config.m))
            prop = hs.copy()
            prop[j] = max(prop[j] + rng.choice((-1.0, 1.0)) * step * rng.uniform(0.1, 1.0), 0.0)
            proj = project_concave_row(ts, prop)
            step = max(step * decay, search._STEP_FINAL)
            if proj is None:
                continue
            val = gl.tail_ratio_grid(ts, proj, config.alpha, config.beta)
            if val < cur - 1e-15:
                cur, hs = val, proj
                trace.append((k, it, val))
        if cur < best_ratio:
            best_ratio, best_hs = cur, hs
    return ts, best_hs, best_ratio, trace
