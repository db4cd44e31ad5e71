"""Smoke test of demos 01-07: they run to the end in-process and print a
line that each one exists to show."""

import os
import runpy

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def _run(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    return capsys.readouterr().out


def test_sharp_constants_demo_recovers_the_halfspace_constant(capsys):
    out = _run("01_sharp_constants.py", capsys)
    assert ("  n=3: functional_bound(2,2) = 0.421875000000"
            "  vs  (n/(n+1))^n = 0.421875000000\n") in out


def test_profile_engine_demo_finds_the_affine_equality_case(capsys):
    out = _run("02_profile_engine.py", capsys)
    assert "  alpha=1.0, beta=1.0: ratio - bound = +0.00e+00\n" in out


def test_equality_cases_demo_attains_the_cone_constant(capsys):
    out = _run("03_equality_cases.py", capsys)
    assert ("  grunbaum-r       ratio 0.421875000000  bound 0.421875000000"
            in out.split("attains 27/64\n")[1])
    assert "  minkowski-radon  ratio 0.250000000000  bound 0.250000000000  slack +0.0e+00" in out


def test_comparison_function_demo_passes_every_check(capsys):
    out = _run("04_comparison_function.py", capsys)
    assert "all checks pass: True\n" in out


def test_bodies_and_sections_demo_runs(capsys):
    assert _run("05_bodies_and_sections.py", capsys)


def test_monte_carlo_demo_prints_the_exact_fraction(capsys):
    out = _run("06_monte_carlo.py", capsys)
    assert f"  exact     {37.0 / 64.0:.6f}\n" in out
    assert "identical estimate: True" in out


def test_extremal_search_demo_finds_no_violation_and_nears_the_affine_case(capsys):
    out = _run("07_extremal_search.py", capsys)
    assert "violations: 0 " in out
    search = out.split("extremal search at alpha = beta = 1")[1].splitlines()[1]
    assert float(search.split("gap")[1]) <= 1e-3
