"""Tests of the benchmark itself: oracles against known constants, checks that
reject perturbed outputs, and the tracer.

    python -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import grunlab as gl  # noqa: E402
import oracles  # noqa: E402
from checks import CHECKS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TETRA = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
E1 = np.array([1.0, 0.0, 0.0])


def test_simplex_oracle_fixture_constants():
    orc = oracles.SimplexOracle(TETRA, E1)  # repeated projections 0, 0, 0, 1
    g1 = oracles.r_centroid(orc, 1.0)
    assert g1 == pytest.approx(0.25, abs=1e-12)
    assert orc.lower_fraction(0.25) == 37 / 64
    assert 1.0 - orc.lower_fraction(0.25) == 27 / 64
    assert min(g1, 1.0 - g1) == pytest.approx(1 / 4, abs=1e-12)  # Minkowski-Radon
    assert orc.section(g1) / oracles.max_section(orc) == pytest.approx(9 / 16, abs=1e-9)


def test_simplex_oracle_matches_program_in_generic_position():
    rng = np.random.default_rng(5)
    verts = rng.normal(size=(4, 3))
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    orc = oracles.SimplexOracle(verts, u)
    body = gl.Simplex(verts)
    cut = oracles.r_centroid(orc, 2.0)
    assert cut == pytest.approx(gl.r_centroid_point(body, u, 2.0), abs=1e-9)
    assert orc.lower_fraction(cut) == pytest.approx(gl.halfspace_fraction(body, u, cut),
                                                    abs=1e-9)


def test_box_oracle():
    diag = np.ones(3) / np.sqrt(3.0)
    orc = oracles.BoxOracle(np.zeros(3), np.ones(3), diag)
    assert orc.lower_fraction(1.0 / np.sqrt(3.0)) == pytest.approx(1 / 6, abs=1e-15)
    assert orc.lower_fraction(1.5 / np.sqrt(3.0)) == pytest.approx(1 / 2, abs=1e-15)
    assert oracles.r_centroid(orc, 1.0) == pytest.approx(1.5 / np.sqrt(3.0), abs=1e-12)


def test_ball_oracle():
    orc = oracles.BallOracle(np.zeros(3), 1.0, E1)
    assert orc.lower_fraction(0.0) == pytest.approx(0.5, abs=1e-15)
    assert orc.lower_fraction(0.5) == pytest.approx(27 / 32, abs=1e-14)
    assert orc.section(0.5) == pytest.approx(np.pi * 0.75, abs=1e-14)


def test_tail_ratio_oracle():
    assert oracles.pl_tail_ratio([0.0, 1.0], [1.0, 0.0], 1.0, 1.0) == pytest.approx(4 / 9,
                                                                                 abs=1e-13)
    assert oracles.functional_bound(1.0, 1.0) == pytest.approx(4 / 9, abs=1e-15)
    assert oracles.pl_tail_ratio([0.0, 1.0], [1.0, 1.0], 2.0, 0.5) == pytest.approx(0.5)


def _op(name, i=0, seed=1):
    wl = WORKLOADS[name]
    inp = wl.make(seed, i)
    out = wl.run(inp)
    assert CHECKS[name](wl, inp, out) == []
    return wl, inp, out


def _replace_report(rep, **details):
    return dataclasses.replace(rep, details={**rep.details, **details})


def test_falsify_check_rejects_perturbed_ratio():
    wl, inp, out = _op("falsify")
    out["reports"][5] = dataclasses.replace(out["reports"][5],
                                            ratio=out["reports"][5].ratio + 1e-6)
    assert CHECKS["falsify"](wl, inp, out)


def test_search_check_rejects_perturbed_ratio():
    wl, inp, out = _op("search", i=1)
    res = out["result"]
    out["result"] = dataclasses.replace(res, ratio=res.ratio + 1e-7)
    assert CHECKS["search"](wl, inp, out)


def test_bodies_exact_check_rejects_perturbed_cut_and_fraction():
    wl, inp, out = _op("bodies-exact")
    gr, mf, mr = out["verdicts"][0]
    out["verdicts"][0] = (_replace_report(gr, cut=gr.details["cut"] + 1e-7), mf, mr)
    assert CHECKS["bodies-exact"](wl, inp, out)
    out["verdicts"][0] = (_replace_report(gr, lower_fraction=gr.details["lower_fraction"]
                                          + 1e-7), mf, mr)
    assert CHECKS["bodies-exact"](wl, inp, out)


def test_bodies_exact_disk_op_fails():
    wl = WORKLOADS["bodies-exact"]
    inp = wl.make(1, wl.disk_every - 1)
    assert inp["disk"]
    with pytest.raises(gl.ConvergenceError):
        wl.run(inp)


def test_bodies_mc_check_rejects_perturbed_fraction():
    wl, inp, out = _op("bodies-mc")
    cut, est = out["estimates"][3]
    out["estimates"][3] = (cut, dataclasses.replace(est, value=est.value + 6.0 * est.sigma))
    assert CHECKS["bodies-mc"](wl, inp, out)


def test_tracer_counts_repeat_and_uninstall_restores():
    original = gl.profiles.powered_integral
    wl = WORKLOADS["bodies-exact"]
    counts = []
    for op in range(2):
        tracer = Tracer()
        tracer.install()
        tracer.begin_op(op)
        try:
            wl.run(wl.make(3, 0))
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts[op]))
        assert tracer.spans[1][4] == 0  # first layer span sits under the op span
    assert counts[0] == counts[1] and counts[0]["quadrature.evals"] > 0
    assert gl.profiles.powered_integral is original
    assert gl.bodies.powered_integral is original
