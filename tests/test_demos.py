"""Smoke test of the bodies demos: they run to the end in-process.

Demo 07 (extremal search, several seconds) is left to be run by hand.
"""

import os
import runpy

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def _run(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    return capsys.readouterr().out


def test_bodies_and_sections_demo_runs(capsys):
    assert _run("05_bodies_and_sections.py", capsys)


def test_monte_carlo_demo_prints_the_exact_fraction(capsys):
    out = _run("06_monte_carlo.py", capsys)
    assert f"  exact     {37.0 / 64.0:.6f}\n" in out
    assert "identical estimate: True" in out
