"""Convex bodies, their sectional profiles, and geometric verifiers.

Every operation reduces a body K and unit direction u to the one-dimensional
section profile f(t) = vol_{n-1}(K intersect {<x, u> = t}) and then reuses the
profile engine: r-powered centroid cuts, halfspace mass fractions, and the
sharp-constant verdicts. Exact sectioning covers balls in any dimension,
bodies of revolution along their axis, and every polytope: simplices,
polygons and 3-polytopes along any direction, and boxes along any direction
up to R^6 (along a coordinate axis in any dimension). A polytope's profile is
one sum of simplex B-splines over a simplicial decomposition (polygons keep
it as an exact piecewise-linear profile; facet-normal simplex and
axis-aligned box sections keep their closed forms). Everything else goes
through seeded Monte Carlo with declared uncertainty.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import classic_bounds, grunbaum_r_bound
from .errors import (
    DegenerateBodyError,
    FloatRangeError,
    GrunlabError,
    ParameterError,
    PreconditionError,
    ProfileError,
    check_count,
    check_exponent,
    check_position,
    check_tolerance,
)
from .profiles import (
    BallSectionProfile,
    ConcaveProfile,
    ConstantProfile,
    DecreasingPowerProfile,
    IncreasingPowerProfile,
    ProfileKind,
    _certify_p_concave,
    _tail_ratio_cut,
    alpha_centroid,
    evaluate,
    integration_provenance,
    power_profile,
    powered_integral,
    profile_from_json,
    reflect,
    tail_mass_ratio,
)
from .quadrature import _gauss_jacobi, unit_ball_volume
from .reports import make_report

_GEOM_TOL = 1e-12
_KUHN_MAX_DIM = 6  # a box's Kuhn triangulation has n! simplices
_KNOT_TIE = 1e-12  # relative gap below which vertex projections tie
_SPLINE_BLOCK = 1 << 16  # (simplex, point) pairs per de Boor-Cox block
_GAUSS_MIN_NODES = 40  # nodes per piece at a non-integer power
_GAUSS_MAX_NODES = 400  # above it a power is integrated, not exactly, with these
_GAUSS_GRADING = 8.0  # largest length ratio of consecutive pieces near an end
_Z99_ONE_SIDED = 2.3263478740408408  # 99% one-sided normal quantile


def _unit(u, dim=None):
    u = np.asarray(u, dtype=float)
    top = float(np.abs(u).max()) if u.size else 0.0  # NaN when u holds one
    if not top < math.inf:
        raise ParameterError(f"direction must be finite, got {u}")
    if top == 0.0:
        raise ParameterError("direction must be a nonzero vector")
    if dim is not None and u.shape != (dim,):
        raise ParameterError(f"direction must have dimension {dim}")
    if not 1e-150 < top < 1e150:  # the norm's squares would overflow or lose bits
        u = u / top
    return u / np.linalg.norm(u)


# ---------------------------------------------------------------------------
# body variants
# ---------------------------------------------------------------------------

class Ball:
    """Euclidean ball with positive radius."""

    variant = "ball"

    def __init__(self, center, radius):
        self.center = np.array(center, dtype=float)
        self.center.setflags(write=False)
        self.radius = float(radius)
        if self.center.ndim != 1 or self.center.size < 1:
            raise DegenerateBodyError("center must be a vector")
        if not np.all(np.isfinite(self.center)):
            raise DegenerateBodyError(f"center must be finite, got {self.center}")
        if not 0.0 < self.radius < math.inf:
            raise DegenerateBodyError(f"radius must be finite and positive, got {self.radius}")

    @property
    def dim(self):
        return self.center.size

    def support_interval(self, u):
        c = float(self.center @ _unit(u, self.dim))
        return c - self.radius, c + self.radius

    def contains(self, pts):
        sq = np.subtract(pts.T, self.center[:, None], order="C")
        sq *= sq
        # even and odd coordinates summed apart, then together: the order in
        # which numpy's einsum("ij,ij->i", d, d) sums a row of up to seven, so
        # the mask equals the row-major formula's bit for bit
        return sq[0::2].sum(axis=0) + sq[1::2].sum(axis=0) <= self.radius ** 2

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def volume(self):
        try:
            vol = unit_ball_volume(self.dim) * self.radius ** self.dim
        except OverflowError:  # the power overflowed; the product can too, to inf
            vol = math.inf
        if vol == math.inf:
            raise FloatRangeError(f"volume of a ball of radius {self.radius:g} in "
                                  f"R^{self.dim} leaves the float range")
        return vol

    def centroid(self):
        return self.center.copy()

    def to_json(self):
        return {"variant": "ball", "center": list(self.center), "radius": self.radius}


class Box:
    """Axis-aligned box with positive edge lengths."""

    variant = "box"

    def __init__(self, min_corner, max_corner):
        self.lo = np.array(min_corner, dtype=float)
        self.hi = np.array(max_corner, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise DegenerateBodyError("corners must be vectors of equal dimension")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise DegenerateBodyError("corners must be finite")
        if not np.all(self.hi > self.lo):
            raise DegenerateBodyError("box must have positive edge lengths")
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def dim(self):
        return self.lo.size

    def support_interval(self, u):
        u = _unit(u, self.dim)
        a = float(np.sum(np.where(u >= 0.0, u * self.lo, u * self.hi)))
        b = float(np.sum(np.where(u >= 0.0, u * self.hi, u * self.lo)))
        return a, b

    def contains(self, pts):
        x = pts.T
        return np.all((x >= self.lo[:, None]) & (x <= self.hi[:, None]), axis=0)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def volume(self):
        with np.errstate(over="ignore"):  # an overflow to inf is raised below
            edges = self.hi - self.lo
            vol = float(np.prod(edges))
        if vol == math.inf:
            raise FloatRangeError(f"volume of a box in R^{self.dim} with edges up to "
                                  f"{edges.max():g} leaves the float range")
        return vol

    def centroid(self):
        return 0.5 * (self.lo + self.hi)

    def vertices(self):
        dim = self.dim
        corners = np.array([[self.lo[i] if (k >> i) & 1 == 0 else self.hi[i]
                             for i in range(dim)] for k in range(1 << dim)])
        return corners

    def _simplices(self):
        """Kuhn triangulation: for each order of the axes, the corners reached
        from lo by stepping along them in turn (bit i of a corner index means
        hi[i]); n! simplices of volume vol / n!. None above R^6."""
        if self.dim > _KUHN_MAX_DIM:
            return None
        steps = np.cumsum(1 << np.array(list(itertools.permutations(range(self.dim)))), axis=1)
        return self.vertices(), np.column_stack([np.zeros(len(steps), dtype=int), steps])

    def to_json(self):
        return {"variant": "box", "min_corner": list(self.lo), "max_corner": list(self.hi)}


class _VertexPolytope:
    """A polytope held by a read-only copy of its vertices. Support and
    bounding box come from the vertices; volume and centroid from the
    simplicial decomposition that also gives the section profiles."""

    def __init__(self, vertices):
        self.verts = np.array(vertices, dtype=float)
        self.verts.setflags(write=False)
        if not np.all(np.isfinite(self.verts)):
            raise DegenerateBodyError("vertices must be finite")

    @property
    def dim(self):
        return self.verts.shape[1]

    def support_interval(self, u):
        dots = self.verts @ _unit(u, self.dim)
        return float(dots.min()), float(dots.max())

    def bounding_box(self):
        return self.verts.min(axis=0), self.verts.max(axis=0)

    @cached_property
    def _spread(self):
        """Largest |coordinate| of the vertices less their mean: a length
        that does not depend on where the body sits. Taken once, as the
        vertices are read-only."""
        return float(np.abs(self.verts - self.verts.mean(axis=0)).max())

    def volume(self):
        return float(_simplex_volumes(*self._simplices()).sum())

    def centroid(self):
        points, idx = self._simplices()
        vols = _simplex_volumes(points, idx)
        if not vols.sum() > 0.0:
            raise DegenerateBodyError("polytope has zero volume")
        return vols @ points[idx].mean(axis=1) / vols.sum()

    def to_json(self):
        return {"variant": self.variant, "vertices": [list(v) for v in self.verts]}


class Simplex(_VertexPolytope):
    """Simplex given by its n+1 affinely independent vertices in R^n."""

    variant = "simplex"

    def __init__(self, vertices):
        super().__init__(vertices)
        v = self.verts
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise DegenerateBodyError("simplex needs n+1 vertices in R^n")
        edges = (v[1:] - v[0]).T
        det = float(np.linalg.det(edges))
        # against the Hadamard bound: the product of the edge lengths
        if abs(det) <= _GEOM_TOL * np.prod(np.linalg.norm(edges, axis=0)):
            raise DegenerateBodyError("simplex vertices are affinely dependent")
        self._inv_edges = np.linalg.inv(edges)

    def contains(self, pts):
        # a C-ordered operand, so the product rounds the same for any layout of pts
        lam = self._inv_edges @ np.subtract(pts.T, self.verts[0][:, None], order="C")
        eps = 1e-12
        return np.all(lam >= -eps, axis=0) & (lam.sum(axis=0) <= 1.0 + eps)

    def _simplices(self):
        return self.verts, np.arange(self.dim + 1)[None]


class Polytope2D(_VertexPolytope):
    """Convex polygon with counter-clockwise vertices."""

    variant = "polytope2d"

    def __init__(self, vertices):
        super().__init__(vertices)
        v = self.verts
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise DegenerateBodyError("polygon needs at least 3 planar vertices")
        edges = np.roll(v, -1, axis=0) - v
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        length = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(cross < -1e-9 * length * np.roll(length, -1)):
            raise DegenerateBodyError("vertices must be convex in counter-clockwise order")
        # left turns add up to 2 pi k for a boundary that winds k times round
        if np.arctan2(cross, np.sum(edges * nxt, axis=1)).sum() > 3.0 * math.pi:
            raise DegenerateBodyError("edges wind more than once around (a star polygon)")
        x, y = (v - v[0]).T
        if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) <= 0.0:  # twice the signed area
            raise DegenerateBodyError("polygon must have positive area (ccw order)")

    def contains(self, pts):
        inside = np.ones(pts.shape[0], dtype=bool)
        scale = self._spread
        for p, q in zip(self.verts, np.roll(self.verts, -1, axis=0)):
            e = q - p
            cross = e[0] * (pts[:, 1] - p[1]) - e[1] * (pts[:, 0] - p[0])
            inside &= cross >= -1e-12 * scale * scale
        return inside

    def _simplices(self):
        """Triangle fan from vertex 0."""
        i = np.arange(1, len(self.verts) - 1)
        return self.verts, np.column_stack([np.zeros_like(i), i, i + 1])


class Polytope3D(_VertexPolytope):
    """Convex 3-polytope from a vertex list and face incidence loops."""

    variant = "polytope3d"

    def __init__(self, vertices, faces):
        super().__init__(vertices)
        v = self.verts
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 4:
            raise DegenerateBodyError("polytope needs at least 4 vertices in R^3")
        self.faces = [tuple(int(i) for i in f) for f in faces]
        if any(len(f) < 3 for f in self.faces):
            raise DegenerateBodyError("every face needs at least 3 vertices")
        edges = Counter(frozenset((f[i - 1], f[i])) for f in self.faces for i in range(len(f)))
        if any(count != 2 for count in edges.values()):
            raise DegenerateBodyError("every edge must lie on exactly two faces")
        self._interior = v.mean(axis=0)
        w = v - self._interior  # tested about the mean, wherever the body sits
        normals, offsets = [], []
        scale = self._spread
        for f in self.faces:
            n = self._newell_normal(w[list(f)])
            if np.linalg.norm(n) <= _GEOM_TOL * scale * scale:
                raise DegenerateBodyError("degenerate face")
            n = n / np.linalg.norm(n)
            if n @ w[f[0]] < 0.0:  # the mean, at 0, lies inside
                n = -n
            if np.any(w @ n > n @ w[f[0]] + 1e-9 * scale):
                raise DegenerateBodyError("face plane does not support the polytope")
            normals.append(n)
            offsets.append(float(n @ v[f[0]]))
        self._normals = np.array(normals)
        self._offsets = np.array(offsets)

    @staticmethod
    def _newell_normal(pts):
        n = np.zeros(3)
        for p, q in zip(pts, np.roll(pts, -1, axis=0)):
            n += np.cross(p, q)
        return n

    def contains(self, pts):
        x = np.ascontiguousarray(pts.T)  # C order, as in Simplex.contains
        tol = self._offsets + 1e-12 * self._spread
        return np.all(self._normals @ x <= tol[:, None], axis=0)

    def _simplices(self):
        """Tetrahedral fan: the vertex mean (index len(verts), appended) joined
        to a triangle fan of each face."""
        p = len(self.verts)
        return (np.vstack([self.verts, self._interior]),
                np.array([(p, f[0], f[i], f[i + 1])
                          for f in self.faces for i in range(1, len(f) - 1)]))

    def section_area(self, u, t):
        """Area of the cross-section at <x, u> = t (0 outside the support)."""
        prof = _spline_profile(self, _unit(u, 3))
        a, b = prof.domain
        return float(prof.value(t)) if a <= t <= b else 0.0

    def to_json(self):
        return {**super().to_json(), "faces": [list(f) for f in self.faces]}


class Revolution:
    """Body of revolution around the first coordinate axis in R^dim.

    The stored profile IS the sectional volume function: the radius is
    (profile / kappa_{dim-1})^(1/(dim-1)), so sections orthogonal to the axis
    reproduce the profile exactly (section_scale == 1). Convexity requires
    profile^(1/(dim-1)) concave, certified at construction.
    """

    variant = "revolution"
    section_scale = 1.0

    def __init__(self, profile, dim):
        self.dim = check_count("dim", dim, 2)
        self.profile = profile
        self._kappa = unit_ball_volume(self.dim - 1)
        _certify_p_concave(profile, 1.0 / (self.dim - 1), "revolved profile")

    @property
    def axis(self):
        e1 = np.zeros(self.dim)
        e1[0] = 1.0
        return e1

    def radius(self, t):
        return (np.maximum(self.profile.value(t), 0.0) / self._kappa) ** (1.0 / (self.dim - 1))

    def max_radius(self):
        return (self.profile.max_value() / self._kappa) ** (1.0 / (self.dim - 1))

    def _axis_sign(self, u):
        u = _unit(u, self.dim)
        if abs(u[0] - 1.0) <= 1e-12 and np.all(np.abs(u[1:]) <= 1e-12):
            return 1
        if abs(u[0] + 1.0) <= 1e-12 and np.all(np.abs(u[1:]) <= 1e-12):
            return -1
        raise GrunlabError("revolution bodies support sectioning only along their axis")

    def support_interval(self, u):
        a, b = self.profile.domain
        return (a, b) if self._axis_sign(u) == 1 else (-b, -a)

    def contains(self, pts):
        a, b = self.profile.domain
        t = pts[:, 0]
        ok = (t >= a) & (t <= b)
        f = np.full_like(t, -1.0)
        if np.any(ok):
            f[ok] = np.maximum(self.profile.value(np.clip(t[ok], a, b)), 0.0)
        perp = np.linalg.norm(pts[:, 1:], axis=1)
        return self._kappa * perp ** (self.dim - 1) <= f

    def bounding_box(self):
        a, b = self.profile.domain
        rmax = self.max_radius()
        lo = np.concatenate([[a], -rmax * np.ones(self.dim - 1)])
        hi = np.concatenate([[b], rmax * np.ones(self.dim - 1)])
        return lo, hi

    def volume(self):
        return powered_integral(self.profile, 1.0)

    def centroid(self):
        out = np.zeros(self.dim)
        out[0] = alpha_centroid(self.profile, 1.0)
        return out

    def to_json(self):
        return {"variant": "revolution", "dim": self.dim,
                "profile": self.profile.to_json()}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def body_from_json(data):
    """Build a convex body from its JSON object form (extra keys ignored)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or "variant" not in data:
        raise DegenerateBodyError("body JSON must be an object with a 'variant'")
    variant = data["variant"]
    try:
        if variant == "ball":
            return Ball(data["center"], data["radius"])
        if variant == "box":
            return Box(data["min_corner"], data["max_corner"])
        if variant == "simplex":
            return Simplex(data["vertices"])
        if variant == "polytope2d":
            return Polytope2D(data["vertices"])
        if variant == "polytope3d":
            return Polytope3D(data["vertices"], data["faces"])
        if variant == "revolution":
            return Revolution(profile_from_json(data["profile"]), data["dim"])
    except KeyError as exc:
        raise DegenerateBodyError(f"missing field {exc} for variant {variant!r}") from exc
    raise DegenerateBodyError(f"unknown body variant {variant!r}")


def body_to_json(body):
    return body.to_json()


# ---------------------------------------------------------------------------
# exact sectional profiles
# ---------------------------------------------------------------------------

def support_interval(body, u):
    """Exact support [a, b] of <x, u> over the body."""
    return body.support_interval(u)


def _simplex_cone_profile(body, u):
    """Closed-form profile when u is normal to a facet (cone-like position)."""
    u = _unit(u, body.dim)
    dots = body.verts @ u
    a, b = float(dots.min()), float(dots.max())
    spread = b - a
    near_a = np.abs(dots - a) <= 1e-9 * spread
    near_b = np.abs(dots - b) <= 1e-9 * spread
    n, ties = body.dim, (int(near_a.sum()), int(near_b.sum()))
    if ties not in ((n, 1), (1, n)):
        return None
    kind = DecreasingPowerProfile if ties == (n, 1) else IncreasingPowerProfile
    return kind(n * body.volume() / spread ** n, a, b, n - 1)


def _simplex_volumes(points, idx):
    """Volumes of the simplices given as rows of vertex indices into points."""
    edges = points[idx[:, 1:]] - points[idx[:, :1]]
    return np.abs(np.linalg.det(edges)) / math.factorial(points.shape[1])


class SimplexSplineProfile(ProfileKind):
    """Section profile of a union of simplices: sum_s vol_s M(t; knots_s).

    M(t; y_0, ..., y_n) is the normalised B-spline (unit integral) of degree
    n - 1 on the sorted vertex projections y_i of a simplex in R^n, so
    vol_s M is that simplex's section profile (Curry & Schoenberg, 1966).
    Between consecutive knots of the union the profile is one polynomial of
    degree n - 1. Knot intervals are half-open, [y_i, y_(i+1)), except at the
    right end b, where the value is the left limit. Knots closer than
    _KNOT_TIE of the support are snapped to one (the ends to a and b), so
    projections that should tie but differ by rounding do tie, and a facet
    orthogonal to u gives its area at the end it lies on.

    f^beta and t f^beta integrate by one fixed rule at every beta > 0:
    Gauss-Legendre on each knot interval, but on the first, where
    f = (t - a)^k g with g > 0, Gauss-Jacobi with the weight (t - a)^phi,
    phi the fractional part of k beta (the same at b); a cut inside an end
    interval integrates from the end and subtracts. _rule's node count is
    exact at integer powers. At other powers f^beta is singular just outside
    an interval beside a short end interval, so the pieces grow at most
    _GAUSS_GRADING-fold away from each end.
    """

    def __init__(self, knots, volumes):
        y = np.sort(np.asarray(knots, dtype=float), axis=1)
        levels = np.unique(y)
        first = np.concatenate([[True], np.diff(levels) > _KNOT_TIE * (levels[-1] - levels[0])])
        self._levels = levels[first]
        idx = np.searchsorted(self._levels, y, side="right") - 1
        self._levels[-1] = levels[-1]
        y = self._levels[idx]
        keep = y[:, -1] > y[:, 0]  # a simplex thinner than the tie has no mass left
        self.knots = y = y[keep]
        self.volumes = np.asarray(volumes, dtype=float)[keep]
        self.degree = y.shape[1] - 2
        self._a, self._b = float(self._levels[0]), float(self._levels[-1])
        self._scale = self.volumes * (self.degree + 1) / (y[:, -1] - y[:, 0])
        # 1 / (y_(i+k) - y_i) for each recursion order k, 0 on tied knots
        self._inv = []
        for k in range(1, self.degree + 1):
            span = (y[:, k:] - y[:, :-k])[:, :, None]
            self._inv.append(np.where(span > 0.0, 1.0 / np.where(span > 0.0, span, 1.0), 0.0))
        # the rule's pieces: the knot intervals, one split at its midpoint
        lv = self._levels
        self._pieces = lv if lv.size > 2 else np.array([lv[0], 0.5 * (lv[0] + lv[1]), lv[1]])

    @cached_property
    def _order(self):
        """k at a and b: n less the most knots any one simplex ties there."""
        return tuple(self.degree + 1 - int((self.knots == end).sum(axis=1).max())
                     for end in (self._a, self._b))

    @cached_property
    def _graded(self):
        """Inexact rules' pieces: cut at a + (first - a) q^j and b - (b - last) q^j."""
        half = 0.5 * (self._b - self._a)
        graded = [end + step * _GAUSS_GRADING ** np.arange(
                      1.0, math.log(half / abs(step), _GAUSS_GRADING))
                  for end, step in ((self._a, self._pieces[1] - self._a),
                                    (self._b, self._pieces[-2] - self._b))]
        return np.union1d(self._pieces, np.concatenate(graded))

    @property
    def domain(self):
        return self._a, self._b

    @property
    def quadrature_breakpoints(self):
        return self._levels

    def _block(self, t):
        """de Boor-Cox: every simplex's B-spline at the points t, summed."""
        y, t = self.knots[:, :, None], t[None, None, :]
        lo, hi = y[:, :-1], y[:, 1:]
        n = (((lo <= t) & (t < hi)) | ((t >= self._b) & (lo < t) & (t <= hi))).astype(float)
        for k, inv in enumerate(self._inv, start=1):
            n = (t - y[:, :-k - 1]) * inv[:, :-1] * n[:, :-1] \
                + (y[:, k + 1:] - t) * inv[:, 1:] * n[:, 1:]
        return self._scale @ n[:, 0, :]

    def _sum(self, t):
        step = max(1, _SPLINE_BLOCK // self.volumes.size)
        return np.concatenate([self._block(t[i:i + step])
                               for i in range(0, max(t.size, 1), step)])

    def value(self, t):
        t = check_position("point", t, *self.domain)
        out = self._sum(np.ravel(t)).reshape(np.shape(t))
        return float(out) if np.ndim(t) == 0 else out

    def max_value(self):
        """f^(1/(n-1)) is concave, so f is unimodal: its maximum lies on one
        of the two knot intervals beside the largest knot value, at a knot or
        at a root of f' there. f is a polynomial of this degree between knots,
        so its interpolant at degree + 1 Chebyshev points is f itself."""
        lv = self._levels
        vals = self._sum(lv)
        j = int(np.argmax(vals))
        best = float(vals[j])
        for i in (j - 1, j):
            if 0 <= i < lv.size - 1:
                lo, hi = lv[i], lv[i + 1]
                piece = np.polynomial.Chebyshev.interpolate(self._sum, self.degree, (lo, hi))
                roots = np.clip(piece.deriv().roots().real, lo, hi)
                if roots.size:
                    best = max(best, float(self._sum(roots).max()))
        return best

    def _rule(self, beta):
        """(nodes per piece, whether the rule is exact at power beta)."""
        exact = (self.degree * math.ceil(beta) + 1) // 2 + 1  # for t f^beta
        if float(beta).is_integer():
            return min(exact, _GAUSS_MAX_NODES), exact <= _GAUSS_MAX_NODES
        return min(max(exact, _GAUSS_MIN_NODES), _GAUSS_MAX_NODES), False

    def integrals(self, beta, lo, hi):
        t, wg, top = self._weighted(beta, lo, hi)
        return float(np.sum(wg)), float(np.sum(wg * t)), top

    def _weighted(self, beta, lo, hi):
        """The rule's nodes t, one row per piece, its weights times
        (f / top)^beta, and top, the largest f at the nodes (1 if none)."""
        nodes, exact = self._rule(beta)
        cuts = self._pieces if exact else self._graded
        cuts = np.concatenate([[lo], cuts[(cuts > lo) & (cuts < hi)], [hi]])
        # f^beta = y^(k beta) g^beta on a first piece of length L, with
        # y = (t - a) / L: Jacobi takes y^phi, and y^(k beta - phi) g^beta is
        # smooth. With phi < 1 no weight is so small that the absolute error
        # of eigh's eigenvectors swamps it. Same at b.
        phi_a, phi_b = (0.0, 0.0) if exact else ((k * beta) % 1.0 for k in self._order)
        origin, length = cuts[:-1], np.diff(cuts)
        keep, rows = np.ones(origin.size, dtype=bool), []
        if phi_a and lo < self._pieces[1]:  # int_a^min(hi, first) less int_a^lo
            keep[0] = False
            rows += [(self._a, cuts[1] - self._a, 1, 1.0), (self._a, lo - self._a, 1, -1.0)]
        if phi_b and hi > self._pieces[-2]:  # int_max(lo, last)^b less int_hi^b
            keep[-1] = False
            rows += [(self._b, cuts[-2] - self._b, 2, 1.0), (self._b, hi - self._b, 2, -1.0)]
        if not rows:
            y, w = _gauss_jacobi(nodes, 0.0)
            t = origin[:, None] + length[:, None] * y
            f = self._sum(t.ravel()).reshape(t.shape)
            top = float(f.max()) or 1.0
            return t, length[:, None] * w * (f / top) ** beta, top
        # row: t = origin + length y over the nodes y in [0, 1] of rule end
        # (0 Legendre; 1, 2 Jacobi from a, b), weighed by sign
        legendre = np.column_stack([origin, length, np.zeros_like(origin), np.ones_like(origin)])
        rows = np.concatenate([legendre[keep], rows])
        origin, length, sign, end = rows[:, :1], rows[:, 1:2], rows[:, 3:], rows[:, 2].astype(int)
        phi = np.array([0.0, phi_a, phi_b])
        rules = [_gauss_jacobi(nodes, p) for p in phi]
        y, w = np.stack([r[0] for r in rules])[end], np.stack([r[1] for r in rules])[end]
        t = origin + length * y
        # y at the rounded nodes (1 on an empty row, where f = 0)
        s = np.divide(t - origin, length, out=np.ones_like(t), where=length != 0.0)
        f = self._sum(t.ravel()).reshape(t.shape)
        top = float(f.max()) or 1.0
        return t, sign * np.abs(length) * w * (f / top) ** beta / s ** phi[end][:, None], top


def _spline_profile(body, u):
    """The polytope's section profile along the unit vector u from its
    simplicial decomposition; None when it has none. Polygons get the hat
    sum as a ConcaveProfile, which integrates exactly at every power."""
    parts = body._simplices()
    if parts is None:
        return None
    points, idx = parts
    prof = SimplexSplineProfile((points @ u)[idx], _simplex_volumes(points, idx))
    if body.dim > 2:
        return prof
    levels = prof.quadrature_breakpoints
    return ConcaveProfile(np.column_stack([levels, prof.value(levels)]))


def exact_section_profile(body, u):
    """The exact 1-D section profile along u, or None when unsupported.

    Balls, bodies of revolution, boxes along a coordinate axis, simplices
    along a facet normal and every body in R^1 (a segment, whose sections are
    points: the constant 1) have closed forms; every other polytope profile is
    a SimplexSplineProfile (a ConcaveProfile in the plane). Boxes above R^6
    along other directions have none: their Kuhn triangulation has n!
    simplices.
    """
    if isinstance(body, Revolution):
        sign = body._axis_sign(u)
        return body.profile if sign == 1 else reflect(body.profile)
    if not isinstance(body, (Ball, Box, _VertexPolytope)):
        raise ParameterError(f"unknown body type {type(body).__name__}")
    u = _unit(u, body.dim)
    if body.dim == 1:  # a segment: every section is one point
        return ConstantProfile(1.0, *body.support_interval(u))
    if isinstance(body, Ball):
        return BallSectionProfile(body.radius, body.dim, center=float(body.center @ u))
    if isinstance(body, Box):
        axis = np.abs(np.abs(u) - 1.0) <= 1e-12
        if axis.sum() == 1 and np.all(np.abs(u[~axis]) <= 1e-12):
            i = int(np.argmax(axis))
            others = float(np.prod(np.delete(body.hi - body.lo, i)))
            a, b = body.support_interval(u)
            return ConstantProfile(others, a, b)
    if isinstance(body, Simplex):
        cone = _simplex_cone_profile(body, u)
        if cone is not None:
            return cone
    return _spline_profile(body, u)


def section_volume(body, u, t, mc=None):
    """vol_{n-1} of the cross-section at <x, u> = t, read from
    section_profile(body, u, mc): sampled when an McSpec is given."""
    return float(evaluate(section_profile(body, u, mc).profile, t))


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McSpec:
    """Sampling plan: mandatory seed, total samples, and profile bin count."""

    seed: int
    samples: int = 1_000_000
    bins: int = 256

    def __post_init__(self):
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0, 1 << 128))
        object.__setattr__(self, "samples", check_count("samples", self.samples, 10_000))
        object.__setattr__(self, "bins", check_count("bins", self.bins, 16))

    def meta(self):
        return {"seed": self.seed, "samples": self.samples, "bins": self.bins}


# Fixed substream granularity: chunk i always draws the same points for a given
# seed, so totals do not depend on how chunks are distributed across workers.
_MC_CHUNK = 1 << 16
# Doubles per tile of a chunk: each (d, rows) temporary is at most 128 KiB, so
# the allocator reuses its pages from tile to tile instead of faulting in fresh
# megabytes per chunk.
_MC_TILE = 1 << 14


def mc_chunks(body, mc, u):
    """Yield (<x, u> of the inside points, chunk sample count) per substream.

    Chunk i draws from its own PCG64DXSM generator, seeded by
    SeedSequence(seed, spawn_key=(i,)), so its points depend on the seed and
    i alone and accumulation over chunks is order-independent. It maps its
    uniform block U of shape (m, d) to lo + U (hi - lo), one tile of
    rows = _MC_TILE // d points at a time: each tile's uniforms are drawn into
    one kept (rows, d) buffer and mapped into one kept coordinate-major
    (d, rows) buffer. The generator is sequential and the tiles draw in turn,
    so together they hold the block's doubles in its row-major order. On each
    tile the membership test runs over contiguous rows, and <x, u> is the
    coordinate-ordered sum x_0 u_0 + x_1 u_1 + ... (each product rounded, then
    added in turn), so a point's value does not depend on the tile it sits
    in. Only the inside points' projections are kept, compacted once into the
    chunk's array.
    """
    lo, hi = body.bounding_box()
    d = lo.size
    with np.errstate(over="ignore"):  # an overflow to inf is raised below
        span = hi - lo
    if not np.all(span < math.inf):
        raise FloatRangeError(f"bounding box of a {body.variant} in R^{d} has an edge "
                              f"beyond the float range; it cannot be sampled")
    lo, span, u = lo[:, None], span[:, None], np.asarray(u, dtype=float)[:, None]
    rows = max(1, _MC_TILE // d)
    w_buf = np.empty((rows, d))
    x_buf = np.empty(d * rows)  # flat, so a short tile is a C-ordered (d, t) view too
    n_chunks = (mc.samples + _MC_CHUNK - 1) // _MC_CHUNK
    remaining = mc.samples
    for i in range(n_chunks):
        m = min(_MC_CHUNK, remaining)
        remaining -= m
        rng = np.random.Generator(np.random.PCG64DXSM(
            np.random.SeedSequence(mc.seed, spawn_key=(i,))))
        out, k = np.empty(m), 0
        for start in range(0, m, rows):
            t = min(rows, m - start)
            w = rng.random(out=w_buf[:t])
            x = np.multiply(w.T, span, out=x_buf[:d * t].reshape(d, t))
            x += lo
            inside = body.contains(x.T)
            x *= u
            proj = x[0]
            for row in x[1:]:
                proj += row
            n = int(np.count_nonzero(inside))
            np.compress(inside, proj, out=out[k:k + n])
            k += n
        yield out[:k], m


# The last pass's projections: (body, (u bytes, seed, samples), proj, total).
# Holding the body keeps its id from being reused; bodies are immutable.
_MC_LAST = None


def _mc_projections(body, u, mc):
    """(<x, u> of the inside samples, read-only; samples drawn) for a unit u.

    The binned profile and the count below a cut along the same u read one
    pass: the last result is kept, and the bin count does not enter the draw.
    The chunks' projections, each compacted once by mc_chunks, are joined.
    """
    global _MC_LAST
    key = (u.tobytes(), mc.seed, mc.samples)
    last = _MC_LAST
    if last is not None and last[0] is body and last[1] == key:
        return last[2], last[3]
    parts, total = [], 0
    for proj, m in mc_chunks(body, mc, u):
        parts.append(proj)
        total += m
    proj = np.concatenate(parts)
    if proj.size == 0:
        raise DegenerateBodyError("no Monte Carlo samples landed inside the body")
    proj.setflags(write=False)
    _MC_LAST = (body, key, proj, total)
    return proj, total


class HistogramProfile(ProfileKind):
    """Piecewise-constant binned profile (the Monte Carlo sample grid)."""

    def __init__(self, edges, values):
        self.edges = np.array(edges, dtype=float)
        self.values = np.array(values, dtype=float)
        k = self.values.size
        if self.values.ndim != 1 or k < 1 or self.edges.shape != (k + 1,):
            raise ProfileError("need k + 1 edges for k >= 1 bin values")
        if not np.all(np.isfinite(self.edges)) or np.any(np.diff(self.edges) <= 0.0):
            raise ProfileError("edges must be finite and strictly increasing")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0.0):
            raise ProfileError("bin values must be finite and non-negative")
        self.edges.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def domain(self):
        return float(self.edges[0]), float(self.edges[-1])

    @property
    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def value(self, t):
        t_arr = check_position("point", t, *self.domain)
        idx = np.clip(np.searchsorted(self.edges, t_arr, side="right") - 1,
                      0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if np.ndim(t) == 0 else out

    def max_value(self):
        return float(self.values.max())

    def integrals(self, beta, lo, hi):
        a = np.maximum(self.edges[:-1], lo)
        b = np.maximum(np.minimum(self.edges[1:], hi), a)  # b = a off [lo, hi]
        top = float(self.values.max()) or 1.0
        # empty bins weigh 0 at every power, 0^0 included
        w = np.where(self.values > 0.0, (self.values / top) ** beta, 0.0)
        return float(np.sum(w * (b - a))), float(np.sum(w * 0.5 * (b ** 2 - a ** 2))), top


class SectionProfile:
    """A body's 1-D sectional profile with provenance and (for MC) error bars."""

    def __init__(self, direction, profile, kind, sigma=None, meta=None):
        self.direction = np.asarray(direction, dtype=float)
        self.profile = profile
        self.kind = kind
        self.sigma = sigma
        self.meta = dict(meta or {})

    @property
    def support(self):
        return self.profile.domain

    def value(self, t):
        return evaluate(self.profile, t)


def section_profile(body, u, mc=None):
    """Sectional profile along u.

    An explicit McSpec forces the sampled route; otherwise the exact profile
    is used and its absence is an error.
    """
    if mc is not None:
        return mc_section_profile(body, u, mc)
    exact = exact_section_profile(body, u)
    if exact is None:
        raise GrunlabError("no exact section profile; pass an McSpec")
    return SectionProfile(_unit(u), exact, "exact")


def _mc_shares(body, u, mc):
    """(edges, share of the samples drawn per bin, its sigma) along a unit u:
    the binned profile up to the factor vol(bounding box) / bin width."""
    a, b = body.support_interval(u)
    edges = np.linspace(a, b, mc.bins + 1)
    width = edges[1] - edges[0]
    proj, total = _mc_projections(body, u, mc)
    idx = np.clip(((proj - a) / width).astype(int), 0, mc.bins - 1)
    p = np.bincount(idx, minlength=mc.bins) / total
    return edges, p, np.sqrt(np.maximum(p * (1.0 - p), 0.0) / total)


def mc_section_profile(body, u, mc):
    """Binned rejection-sampling estimate of the section profile with sigma."""
    u = _unit(u, body.dim)
    box_vol = Box(*body.bounding_box()).volume()  # FloatRangeError before drawing
    if box_vol < np.finfo(float).tiny:
        raise FloatRangeError(f"bounding box of a {body.variant} in R^{body.dim} has volume "
                              f"{box_vol:.3g}, below the float range; its binned profile "
                              f"cannot be scaled")
    edges, p, sigma = _mc_shares(body, u, mc)
    width = edges[1] - edges[0]
    return SectionProfile(u, HistogramProfile(edges, box_vol * p / width), "mc",
                          sigma=box_vol * sigma / width, meta=mc.meta())


def _ratio_profile(body, u, mc):
    """The section profile up to a constant factor, which no centroid or
    ratio reads: sampled, each bin's share of the samples, so no volume is
    needed and none can leave the float range."""
    if mc is None:
        return section_profile(body, u).profile
    edges, p, _ = _mc_shares(body, _unit(u, body.dim), mc)
    return HistogramProfile(edges, p)


@dataclass(frozen=True)
class McEstimate:
    value: float
    sigma: float
    meta: dict


def mc_halfspace_fraction(body, u, c, mc):
    """Direct-count estimate of vol(K ∩ {<x,u> <= c}) / vol(K)."""
    u = _unit(u, body.dim)
    c = check_position("cut", c, *body.support_interval(u))
    proj = _mc_projections(body, u, mc)[0]
    inside = proj.size
    p = int(np.count_nonzero(proj <= c)) / inside
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / inside)
    return McEstimate(value=p, sigma=sigma, meta=mc.meta())


# ---------------------------------------------------------------------------
# powered centroids and halfspace fractions
# ---------------------------------------------------------------------------

def r_centroid_point(body, u, r, mc=None):
    """Coordinate along u of the r-powered centroid; r = 0 gives the midpoint."""
    check_exponent("r", r)
    a, b = body.support_interval(u)
    if r == 0.0:
        return 0.5 * (a + b)
    lam = alpha_centroid(_ratio_profile(body, u, mc), r)
    return float(min(max(lam, a), b))


def halfspace_fraction(body, u, c, mc=None):
    """vol(K ∩ {<x,u> <= c}) / vol(K) via the 1-D profile (or MC counting)."""
    if mc is not None:
        return mc_halfspace_fraction(body, u, c, mc).value
    a, b = body.support_interval(u)
    c = check_position("cut", c, a, b)
    exact = section_profile(body, u).profile
    total = powered_integral(exact, 1.0)
    return powered_integral(exact, 1.0, (a, c)) / total


def centroid(body):
    """Exact centroid vector (simplicial decomposition for polytopes)."""
    return body.centroid()


# ---------------------------------------------------------------------------
# geometric theorem verifiers
# ---------------------------------------------------------------------------

def verify_grunbaum_r(body, u, p, r, mc=None, tol=1e-9):
    """Halfspace-mass bound at the r-powered centroid for a p-concave profile.

    Reports min(lower, upper) side against the sharp constant. r = 0 cuts at
    the support midpoint on both routes (sampled, at r_centroid_point's). The
    hypothesis, p-concavity of the section profile, is Brunn's principle for
    every convex body in R^n at p <= 1/(n - 1) (Gardner, "The Brunn-Minkowski
    inequality", Bull. AMS 39, 2002), so no number checks it there. Above
    that bound the exact route certifies it and raises PreconditionError
    naming the witness; the sampled route has no sound certificate and
    raises PreconditionError before it draws.
    """
    bound = grunbaum_r_bound(p, r)
    tol = check_tolerance(tol)
    n = body.dim
    brunn = n == 1 or p <= 1.0 / (n - 1)
    if mc is None:
        profile = section_profile(body, u).profile
        if not brunn:
            _certify_p_concave(profile, p, "section profile")
        upper, cut = _tail_ratio_cut(profile, r, 1.0)
        lower = 1.0 - upper
        prov = integration_provenance(profile, (r, 1.0))
    elif not brunn:
        raise PreconditionError(
            f"a sampled verdict needs p <= 1/(n - 1) = {1.0 / (n - 1):g}, Brunn's bound for a "
            f"convex body in R^{n}; p = {p:g} has no sound sampled certificate")
    else:
        cut = r_centroid_point(body, u, r, mc)
        est = mc_halfspace_fraction(body, u, cut, mc)
        lower, sigma = est.value, est.sigma
        upper = 1.0 - lower
        tol = max(tol, _Z99_ONE_SIDED * sigma)
        prov = {"kind": "mc", **mc.meta(), "sigma": sigma, "ci": "one-sided 99%"}
    ratio = min(lower, upper)
    prov["hypothesis"] = "brunn" if brunn else "certified"
    prov["params"] = {"p": p, "r": r, "u": list(_unit(u, n))}
    details = {"lower_fraction": lower, "upper_fraction": upper, "cut": cut,
               "regime": bound.regime}
    return make_report("grunbaum-r", ratio, bound.value, tol, prov, details)


def verify_minkowski_radon(body, u, tol=1e-9):
    """Projection split at the centroid: both sides carry at least 1/(n+1)."""
    u = _unit(u, body.dim)
    a, b = body.support_interval(u)
    g1 = float(centroid(body) @ u)
    ratio = min(g1 - a, b - g1) / (b - a)
    bound = classic_bounds(body.dim)["minkowski_radon"]
    prov = {"kind": "exact", "params": {"n": body.dim, "u": list(u)}}
    details = {"lower_fraction": (g1 - a) / (b - a),
               "upper_fraction": (b - g1) / (b - a), "cut": g1}
    return make_report("minkowski-radon", ratio, bound.value, tol, prov, details)


def verify_makai_fradelizi(body, u, tol=1e-9):
    """Central section against the largest parallel section: f(g1)/max f."""
    u = _unit(u, body.dim)
    sp = section_profile(body, u)
    g1 = float(centroid(body) @ u)
    top = sp.profile.max_value()
    ratio = float(evaluate(sp.profile, g1)) / top
    bound = classic_bounds(body.dim)["makai_fradelizi"]
    prov = integration_provenance(sp.profile, (1.0,))
    prov["params"] = {"n": body.dim, "u": list(u)}
    details = {"cut": g1, "max_section": top}
    return make_report("makai-fradelizi", ratio, bound.value, tol, prov, details)


# ---------------------------------------------------------------------------
# bodies of revolution and the functional/geometric round trip
# ---------------------------------------------------------------------------

def revolve(profile, n):
    """Body of revolution in R^n whose axis sections equal the profile exactly.

    Requires profile^(1/(n-1)) concave (so the body is convex); raises
    PreconditionError otherwise.
    """
    return Revolution(profile, n)


@dataclass(frozen=True)
class RoundTrip:
    """Functional tail ratio vs geometric halfspace fraction of the revolved body."""

    functional_ratio: float
    geometric_ratio: float
    discrepancy: float
    cut: float
    n: int
    r: float
    tol: float

    @property
    def passed(self):
        return bool(self.discrepancy < self.tol)


def revolve_roundtrip(profile, n, r=1.0, tol=1e-8):
    """Compare the functional and geometric routes to the same mass ratio.

    The body of revolution built from a section profile f, cut at its
    r-powered centroid, splits volume exactly as the profile h = f^(1/(n-1))
    splits beta-powered mass at its alpha-centroid with beta = n-1 and
    alpha = r(n-1).
    """
    tol = check_tolerance(tol)
    body = revolve(profile, n)
    axis = body.axis
    lam = r_centroid_point(body, axis, r)
    geometric = 1.0 - halfspace_fraction(body, axis, lam)
    h = power_profile(profile, 1.0 / (n - 1))
    beta = float(n - 1)
    functional = tail_mass_ratio(h, r * beta, beta)
    return RoundTrip(functional_ratio=float(functional),
                     geometric_ratio=float(geometric),
                     discrepancy=float(abs(functional - geometric)),
                     cut=float(lam), n=int(n), r=float(r), tol=tol)
