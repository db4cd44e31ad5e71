"""The traced run (--trace 1): per-layer metrics and the tracing overhead.

For --seconds, every op of the workload runs twice on the same inputs, once
plain and once under the tracer, in alternating order; the ratio of the two
summed times is the tracing overhead. Each per-layer metric belongs to one
workload (see README.md). The run's own workload supplies its metrics from
all its traced ops; the metrics of the other workloads come from their first
`count_ops` ops, traced after the window. Counts are always taken over ops
0..count_ops-1 of their workload, so for a given seed they repeat exactly.
"""

from __future__ import annotations

import statistics
import time

from tracer import Tracer

def _traced_op(runner, tracer, op, inp):
    tracer.install()
    idx = tracer.begin_op(op)
    try:
        return runner.timed(inp)
    finally:
        tracer.close(idx)
        tracer.uninstall()


def _layer_metrics(name, tracer, time_ops, count_ops):
    times = tracer.self_times(time_ops)
    calls = tracer.self_times(count_ops)
    counts = tracer.op_counts(count_ops)
    nt, nc = len(time_ops), len(count_ops)

    def self_s(layer, fn=None):
        return sum(v[0] for (lay, f), v in times.items() if lay == layer and fn in (None, f))

    def incl_s(layer, fn):
        return times[(layer, fn)][2]

    def mean_us(layer, fn):
        return 1e6 * incl_s(layer, fn) / max(times[(layer, fn)][1], 1)

    if name == "falsify":
        compare = sum(times[("bounds", f)][3] for f in (
            "build_comparison_affine", "validate_comparison", "centroid_domination_check"))
        return {
            "profiles.self_ms_per_op": (1e3 * self_s("profiles") / nt, "ms"),
            "profiles.integrals_per_op": ((calls[("profiles", "powered_integral")][1]
                                           + calls[("profiles", "moment_integral")][1]) / nc,
                                          "count"),
            "bounds.self_ms_per_op": (1e3 * self_s("bounds") / nt, "ms"),
            "bounds.verify_functional_us": (mean_us("bounds", "verify_functional"), "us"),
            "bounds.comparison_us": (1e6 * compare / max(
                times[("bounds", "validate_comparison")][1], 1), "us"),
        }
    if name == "search":
        return {
            "search.tail_ratio_calls_per_op": (calls[("search", "tail_ratio_grid")][1] / nc,
                                               "count"),
            "search.tail_ratio_grid_us": (mean_us("search", "tail_ratio_grid"), "us"),
            "search.random_concave_us": (mean_us("search", "random_concave"), "us"),
            "search.sweep_ms_per_op": (1e3 * incl_s("search", "sweep") / nt, "ms"),
            "search.descent_ms_per_op": (1e3 * incl_s("search", "minimize_tail_ratio") / nt,
                                         "ms"),
            "search.accepted_per_op": (counts["search.accepted"] / nc, "count"),
        }
    if name == "bodies-exact":
        return {
            "quadrature.integrals_per_op": (counts["quadrature.integrals"] / nc, "count"),
            "quadrature.evals_per_integral": (counts["quadrature.evals"]
                                              / max(counts["quadrature.integrals"], 1), "count"),
            "quadrature.self_ms_per_op": (1e3 * self_s("quadrature") / nt, "ms"),
            "bodies.section_area_calls_per_op": (calls[("bodies", "section_area")][1] / nc,
                                                 "count"),
            "bodies.section_self_ms_per_op": (1e3 * self_s("bodies", "section_area") / nt, "ms"),
        }
    samples = tracer.op_counts(time_ops)["bodies.mc_samples"]
    return {
        "bodies.mc_samples_per_s": (samples / max(incl_s("bodies", "mc_chunks"), 1e-12), "1/s"),
        "bodies.mc_accept_ratio": (counts["bodies.mc_inside"]
                                   / max(counts["bodies.mc_samples"], 1), "ratio"),
        "bodies.mc_chunks_per_op": (counts["bodies.mc_chunks"] / nc, "count"),
        "bodies.mc_self_ms_per_op": (1e3 * self_s("bodies") / nt, "ms"),
    }


def run_traced(runner, seconds, workloads, checks, probes, count_ops):
    tracer = Tracer()
    wl, name = runner.wl, runner.wl.name
    ops, plain, traced, refs = [], 0.0, 0.0, []
    start = time.perf_counter()
    i = 0
    while True:
        probes.poll(time.perf_counter() - start - probes.spent)
        for _ in range(wl.round_len):
            inp = wl.make(runner.seed, i)
            took = {}
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    took[True], t_ref, _ = _traced_op(runner, tracer, (name, i), inp)
                else:
                    took[False], t_ref, out = runner.timed(inp)
                    ops.append({"op": i, "t": took[False], "ref": t_ref, "failed": out is None})
                refs.append(t_ref)
            if out is not None:
                runner.verify(i, inp, out)
                plain += took[False]
                traced += took[True]
            i += 1
        if time.perf_counter() - start - probes.spent >= seconds and i >= count_ops:
            break

    metrics = {}
    for owner in workloads:
        first = [(owner, j) for j in range(count_ops)]
        if owner == name:
            time_ops = [(name, j) for j in range(i)]
        else:
            other = type(runner)(workloads[owner], checks[owner], runner.seed)
            for j in range(count_ops):
                inp = other.wl.make(runner.seed, j)
                out = _traced_op(other, tracer, (owner, j), inp)[2]
                if out is not None:
                    other.verify(j, inp, out)
            runner.problems += [f"{owner} {p}" for p in other.problems]
            time_ops = first
        metrics.update(_layer_metrics(owner, tracer, time_ops, first))

    for part in ("import_ms", "inputs_ms", "warmup_ms"):
        metrics[f"setup.{part}"] = (statistics.median(p[part] for p in probes.finish()), "ms")
    metrics["ref.ms"] = (1e3 * statistics.median(refs), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    return ops, metrics, tracer
