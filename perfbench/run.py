"""Run one grunlab benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload falsify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a grunlab source tree: the program is imported from
./src. The run process pins BLAS and OpenMP to one thread before numpy is
imported. The run loops over ops in whole rounds until --seconds have
passed, timing the fixed reference loop just before each op; each op's
outputs are checked against oracles (checks.py) outside the timed region.
`setup_s` is the median over SETUP_PROBES fresh processes, spread over the
run, each of which imports grunlab, builds the inputs of the first op and
runs it once.

--trace 0 prints the end-to-end metrics. --trace 1 runs every op twice, with
and without the tracer, and prints the per-layer metrics (see README.md).
--workload all runs the four workloads in turn, one process each, and prints
every metric with its unit and each workload's attempted and failed ops.
Details of the run (per-op times, problems, spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
COUNT_OPS = 5  # per-layer counts are taken over ops 0..COUNT_OPS-1


def _parse():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args()


def _import_grunlab():
    if not os.path.isfile(os.path.join(SRC, "grunlab", "__init__.py")):
        sys.exit(f"perfbench: no grunlab sources under {SRC}; run from a source tree")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import grunlab
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(grunlab.__file__))) != SRC:
        sys.exit(f"perfbench: imported grunlab from {grunlab.__file__}, not from {SRC}")
    return elapsed


# ---------------------------------------------------------------------------
# the reference loop: pure-Python arithmetic and small-array numpy calls,
# the program's own cost mix, about 5 ms on the reference host
# ---------------------------------------------------------------------------

def reference_loop():
    import numpy as np

    acc = 0.0
    for i in range(1, 14_000):
        acc += math.sqrt(i) * 1e-3 + (i % 7) * 0.5
    x = np.linspace(0.0, 1.0, 16)
    for i in range(280):
        y = np.sort(x * (1.0 + 1e-4 * i))[::-1]
        acc += float(np.dot(np.diff(y), y[1:]))
    return acc


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(args):
    """In a fresh process: import grunlab, build the first op's inputs, run it."""
    import_s = _import_grunlab()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    start = time.perf_counter()
    inp = wl.make(args.seed, 0)
    built = time.perf_counter()
    wl.run(inp)
    done = time.perf_counter()
    print(json.dumps({"import_ms": 1e3 * import_s, "inputs_ms": 1e3 * (built - start),
                      "warmup_ms": 1e3 * (done - built)}))


class SetupProbes:
    """Set-up timed in fresh processes, spread over the run.

    Probes run back to back agree closely, but host speed changes from one
    10-s stretch to the next; spreading SETUP_PROBES probes evenly over the
    measured window makes their median a sample of the whole run. The time
    a probe takes is not counted in the window.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        self.every = args.seconds / SETUP_PROBES
        self.results = []
        self.spent = 0.0

    def _run_one(self):
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        self.results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        self.spent += time.perf_counter() - start

    def poll(self, elapsed):
        """Run the next probe if it is due at `elapsed` seconds of the window."""
        if len(self.results) < SETUP_PROBES and elapsed >= len(self.results) * self.every:
            self._run_one()

    def finish(self):
        while len(self.results) < SETUP_PROBES:
            self._run_one()
        return self.results


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, wl, check, seed):
        self.wl, self.check, self.seed = wl, check, seed
        self.problems = []
        self.failures = Counter()

    def timed(self, inp):
        """(op seconds, reference seconds, outputs or None if the op raised)."""
        start = time.perf_counter()
        reference_loop()
        ref = time.perf_counter() - start
        start = time.perf_counter()
        try:
            out = self.wl.run(inp)
        except Exception as exc:  # a failed op is counted, not fatal
            self.failures[type(exc).__name__] += 1
            return time.perf_counter() - start, ref, None
        return time.perf_counter() - start, ref, out

    def verify(self, i, inp, out):
        try:
            found = self.check(self.wl, inp, out)
        except Exception as exc:
            found = [f"check raised {type(exc).__name__}: {exc}"]
        self.problems += [f"op {i}: {p}" for p in found]


def run_untraced(runner, seconds, probes):
    wl = runner.wl
    ops = []
    start = time.perf_counter()
    i = 0
    while True:
        probes.poll(time.perf_counter() - start - probes.spent)
        for _ in range(wl.round_len):
            inp = wl.make(runner.seed, i)
            t_op, t_ref, out = runner.timed(inp)
            ops.append({"op": i, "t": t_op, "ref": t_ref, "failed": out is None})
            if out is not None:
                runner.verify(i, inp, out)
            i += 1
        if time.perf_counter() - start - probes.spent >= seconds:
            return ops


def ops_per_s(ops):
    """Completed ops over their summed wall time: raw host speed, not gated."""
    done = [o["t"] for o in ops if not o["failed"]]
    return len(done) / sum(done) if done else 0.0


def end_to_end(ops, setup_s):
    import numpy as np
    import resource

    done = [o for o in ops if not o["failed"]]
    if not done:
        sys.exit("perfbench: every op failed")
    rel = np.array([o["t"] / o["ref"] for o in done])
    return {
        "setup_s": (setup_s, "s"),
        "op_rel_p50": (float(np.percentile(rel, 50)), "ref"),
        "op_rel_p90": (float(np.percentile(rel, 90)), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_all(args, names):
    """Run every workload, each in its own process, and print a summary."""
    correct = True
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} failed:\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if not correct:
        sys.exit(1)


def main():
    args = _parse()
    if args.setup_probe:
        setup_probe(args)
        return
    _import_grunlab()
    from checks import CHECKS
    from workloads import WORKLOADS
    if args.workload == "all":
        run_all(args, WORKLOADS)
        return
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        sys.exit("perfbench: --seconds must be positive")
    probes = SetupProbes(args)
    runner = Runner(WORKLOADS[args.workload], CHECKS[args.workload], args.seed)
    runner.wl.run(runner.wl.make(args.seed, 0))  # warm-up, untimed
    if args.trace:
        import traced
        ops, metrics, tracer = traced.run_traced(runner, args.seconds, WORKLOADS, CHECKS,
                                                 probes, COUNT_OPS)
    else:
        ops = run_untraced(runner, args.seconds, probes)
        setup_s = statistics.median(sum(p.values()) for p in probes.finish()) / 1e3
        metrics = end_to_end(ops, setup_s)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_probes": probes.results,
              "ref_ms_median": 1e3 * statistics.median(o["ref"] for o in ops),
              "ops_per_s": ops_per_s(ops)}
    detail.update(ops=ops, failures=runner.failures, problems=runner.problems[:50])

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh)
    if args.trace:
        tracer.write(stem + ".spans.json")
    for p in runner.problems[:10]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": len(ops),
        "failed": sum(o["failed"] for o in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
