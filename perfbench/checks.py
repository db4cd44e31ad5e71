"""Checks of each workload's outputs against oracles.py and against
properties the method must have. No check compares against a stored copy of
an earlier output. Each returns a list of problems, empty when the op's
outputs are correct."""

from __future__ import annotations

import math

import numpy as np

import oracles
from workloads import COMPARISON_PAIRS, GRID, NEAR_FLAT


def _close(got, want, tol):
    return math.isfinite(got) and abs(got - want) <= tol


def _grunbaum_problems(tag, rep, p, r, want_cut=None):
    problems = []
    bound = oracles.grunbaum_r_bound(p, r)
    if not _close(rep.bound, bound, 1e-14):
        problems.append(f"{tag}: bound {rep.bound!r} vs {bound!r}")
    if want_cut is not None and not _close(rep.details["cut"], want_cut, 1e-8):
        problems.append(f"{tag}: cut {rep.details['cut']!r} vs oracle {want_cut!r}")
    lower = rep.details["lower_fraction"]
    if not _close(rep.ratio, min(lower, 1.0 - lower), 1e-15):
        problems.append(f"{tag}: ratio is not min(lower, upper)")
    return problems


def check_falsify(wl, inp, out):
    ts, hs = inp["ts"], inp["hs"]
    problems = []
    cuts = {a: oracles.pl_alpha_centroid(ts, hs, a) for a in GRID}
    for rep, (a, b) in zip(out["reports"], [(a, b) for a in GRID for b in GRID]):
        want = oracles.pl_tail_ratio(ts, hs, a, b, cut=cuts[a])
        bound = oracles.functional_bound(a, b)
        if not (rep.passed and rep.slack >= -1e-9):
            problems.append(f"verify_functional({a}, {b}) slack {rep.slack!r}")
        if not _close(rep.ratio, want, 1e-7):
            problems.append(f"tail ratio ({a}, {b}) {rep.ratio!r} vs quad {want!r}")
        if not _close(rep.bound, bound, 1e-14 * bound):
            problems.append(f"bound ({a}, {b}) {rep.bound!r} vs {bound!r}")
    for (g, val, dom), (a, b) in zip(out["comparisons"], COMPARISON_PAIRS):
        if not _close(g.anchor, cuts[a], 1e-8):
            problems.append(f"comparison anchor ({a}, {b}) {g.anchor!r} vs {cuts[a]!r}")
        if not val.passed:
            problems.append(f"validate_comparison ({a}, {b}) failed: {val}")
        if not (dom.passed and dom.margin >= -1e-9):
            problems.append(f"centroid domination ({a}, {b}) margin {dom.margin!r}")
    return problems


def check_search(wl, inp, out):
    a, b = inp["alpha"], inp["beta"]
    res, table = out["result"], out["sweep"]
    problems = []
    bound = oracles.functional_bound(a, b)
    if not _close(res.bound, bound, 1e-14 * bound):
        problems.append(f"bound {res.bound!r} vs {bound!r}")
    if not res.gap >= -1e-9:
        problems.append(f"gap {res.gap!r}")
    ts, hs = np.asarray(res.profile.ts), np.asarray(res.profile.hs)
    slopes = np.diff(hs) / np.diff(ts)
    if not (ts[0] == 0.0 and ts[-1] == 1.0 and abs(hs.max() - 1.0) <= 1e-12
            and hs.min() >= 0.0 and np.all(np.diff(slopes) <= 1e-9)):
        problems.append("returned profile is not concave on [0, 1] with maximum 1")
    want = oracles.pl_tail_ratio(ts, hs, a, b)
    # grunlab's closed form loses digits on nearly flat segments (README.md,
    # "Left out"); a returned profile with one is held to 1e-6 only
    near_flat = np.any(np.abs(np.diff(hs)) <= NEAR_FLAT * (hs[:-1] + hs[1:]))
    if not _close(res.ratio, want, 1e-6 if near_flat else 1e-8):
        problems.append(f"search ratio {res.ratio!r} vs quad {want!r}")
    if table.violations != 0 or not table.rows[0].min_slack >= -1e-9:
        problems.append(f"sweep violations {table.violations}")
    if table.rows[0].trials != wl.trials:
        problems.append("sweep ran the wrong number of trials")
    if inp["repeat"]:
        again = wl.run(inp)
        if again["result"].ratio != res.ratio or again["sweep"].rows != table.rows:
            problems.append("repeating the op with the same seed changed its result")
    return problems


def check_bodies_exact(wl, inp, out):
    if inp["disk"]:
        rep = out["disk"]
        problems = _grunbaum_problems("disk", rep, 1.0, 1.0, want_cut=1.0)
        if not (rep.passed and _close(rep.details["lower_fraction"], 0.5, 1e-8)):
            problems.append("disk: verdict or lower fraction wrong")
        return problems
    problems = []
    for (kind, params, body, u), (gr, mf, mr) in zip(inp["cases"], out["verdicts"]):
        n = body.dim
        orc = oracles.body_oracle(kind, params, u)
        tag = f"{kind}{n}"
        if not (gr.passed and mf.passed and mr.passed):
            problems.append(f"{tag}: a verdict failed")
        g1 = oracles.r_centroid(orc, 1.0)
        problems += _grunbaum_problems(tag, gr, 1.0 / (n - 1), 1.0, want_cut=g1)
        want = orc.lower_fraction(g1)
        if not _close(gr.details["lower_fraction"], want, 1e-8):
            problems.append(f"{tag}: lower fraction {gr.details['lower_fraction']!r} "
                            f"vs oracle {want!r}")
        a, b = orc.support
        want = min(g1 - a, b - g1) / (b - a)
        if not (_close(mr.ratio, want, 1e-8) and _close(mr.bound, 1.0 / (n + 1), 1e-15)):
            problems.append(f"{tag}: Minkowski-Radon {mr.ratio!r} vs oracle {want!r}")
        want = orc.section(g1) / oracles.max_section(orc)
        mf_bound = (n / (n + 1.0)) ** (n - 1)
        if not (_close(mf.ratio, want, 1e-8) and _close(mf.bound, mf_bound, 1e-15)):
            problems.append(f"{tag}: Makai-Fradelizi {mf.ratio!r} vs oracle {want!r}")
    return problems


def check_bodies_mc(wl, inp, out):
    problems = []
    for (kind, params, body, u, mc), (cut, est) in zip(inp["cases"], out["estimates"]):
        tag = f"{kind}{body.dim}"
        orc = oracles.body_oracle(kind, params, u)
        a, b = orc.support
        want = orc.lower_fraction(cut)
        if not (a <= cut <= b and est.sigma > 0.0 and _close(est.value, want, 5.0 * est.sigma)):
            problems.append(f"{tag}: lower fraction {est.value!r} at cut {cut!r} vs oracle "
                            f"{want!r} (sigma {est.sigma!r})")
    # one of the 12 bodies, in turn, again with the same McSpec
    j = inp["repeat"]
    again = wl.run({"cases": inp["cases"][j:j + 1]})["estimates"][0]
    if again != out["estimates"][j]:
        problems.append(f"case {j}: the same McSpec gave another estimate")
    return problems


CHECKS = {"falsify": check_falsify, "search": check_search,
          "bodies-exact": check_bodies_exact, "bodies-mc": check_bodies_mc}
