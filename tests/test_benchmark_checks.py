"""The benchmark's own output checks (perfbench/checks.py) on the first ops of
each workload (perfbench/workloads.py), so that a wrong output fails here and
not only in a benchmark run."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from checks import CHECKS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_checks_pass_on_the_first_ops(name, seed):
    wl = WORKLOADS[name]
    for i in range(max(wl.round_len, 2)):
        inp = wl.make(seed, i)
        assert CHECKS[name](wl, inp, wl.run(inp)) == [], (name, seed, i)
