"""Command-line front end: bound tables, theorem verification, search, sweeps.

Exit codes: 0 all checks passed, 2 an inequality check failed, 1 usage or
validation error. Output is a human table on a terminal and JSON when piped;
--format overrides. Commands that sample or search require a seed (--seed or
the GRUNLAB_SEED environment variable) so every run is reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import bodies, bounds, search
from .errors import GrunlabError, ParameterError
from .profiles import profile_from_json
from .reports import reports_to_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

DEFAULT_SWEEP_GRID = (0.5, 1.0, 1.5, 2.0, 3.0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(args):
    if args.format:
        return args.format
    return "table" if sys.stdout.isatty() else "json"


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("GRUNLAB_SEED")
    try:
        return None if env is None else int(env)
    except ValueError:
        raise ParameterError(f"GRUNLAB_SEED must be an integer, got {env!r}") from None


def _parse_vector(text):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise GrunlabError(f"cannot parse vector {text!r}: {exc}") from exc


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit_rows(rows, fmt, stream):
    """rows: list of flat dicts sharing keys."""
    if fmt == "json":
        print(json.dumps(rows, indent=2, sort_keys=True), file=stream)
    elif fmt == "csv":
        keys = list(rows[0].keys()) if rows else []
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([row[k] for k in keys])
    else:
        keys = list(rows[0].keys()) if rows else []
        widths = [max(len(str(k)), *(len(_cell(r[k])) for r in rows)) for k in keys]
        print("  ".join(k.ljust(w) for k, w in zip(keys, widths)), file=stream)
        for row in rows:
            print("  ".join(_cell(row[k]).ljust(w) for k, w in zip(keys, widths)),
                  file=stream)


def _cell(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit_report(report, fmt, stream):
    if fmt == "json":
        print(report.to_json(), file=stream)
    elif fmt == "csv":
        print(reports_to_csv([report]), end="", file=stream)
    else:
        d = report.to_json_dict()
        print(f"theorem    {d['theorem']}", file=stream)
        print(f"ratio      {d['ratio']:.12g}", file=stream)
        print(f"bound      {d['bound']:.12g}", file=stream)
        print(f"slack      {d['slack']:.3e}", file=stream)
        print(f"pass       {d['pass']}", file=stream)
        for key, val in sorted(d.get("details", {}).items()):
            print(f"{key:<10} {_cell(val)}", file=stream)
        print(f"provenance {json.dumps(d['provenance'], sort_keys=True)}", file=stream)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_bound(args):
    rows = []
    if args.n is not None:
        for name, sb in bounds.classic_bounds(args.n).items():
            rows.append({"theorem": name, "value": sb.value, "regime": sb.regime,
                         "n": args.n})
    if args.alpha is not None and args.beta is not None:
        sb = bounds.functional_bound(args.alpha, args.beta)
        rows.append({"theorem": "functional-tail", "value": sb.value,
                     "regime": sb.regime, "alpha": args.alpha, "beta": args.beta})
    if args.p is not None and args.r is not None:
        sb = bounds.grunbaum_r_bound(args.p, args.r)
        rows.append({"theorem": "grunbaum-r", "value": sb.value,
                     "regime": sb.regime, "p": args.p, "r": args.r})
    if not rows:
        raise GrunlabError("give --n, or --alpha with --beta, or --p with --r")
    _emit_rows(rows, _fmt(args), sys.stdout)
    return EXIT_OK


def _cmd_verify_fn(args):
    profile = profile_from_json(_load_json(args.profile))
    report = bounds.verify_functional(profile, args.alpha, args.beta, tol=args.tol)
    _emit_report(report, _fmt(args), sys.stdout)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_verify_body(args):
    body = bodies.body_from_json(_load_json(args.body))
    u = _parse_vector(args.u)
    mc = None
    if args.theorem == "grunbaum-r" and (
            args.samples is not None or bodies.exact_section_profile(body, u) is None):
        seed = _resolve_seed(args)
        if seed is None:
            raise GrunlabError("this run needs Monte Carlo: give --seed or set GRUNLAB_SEED")
        mc = bodies.McSpec(seed=seed, samples=args.samples or 1_000_000, bins=args.bins)
    if args.theorem == "grunbaum-r":
        if args.p is None or args.r is None:
            raise GrunlabError("grunbaum-r needs --p and --r")
        report = bodies.verify_grunbaum_r(body, u, args.p, args.r, mc=mc, tol=args.tol)
    elif args.theorem == "minkowski-radon":
        report = bodies.verify_minkowski_radon(body, u, tol=args.tol)
    else:
        report = bodies.verify_makai_fradelizi(body, u, tol=args.tol)
    _emit_report(report, _fmt(args), sys.stdout)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_search(args):
    seed = _resolve_seed(args)
    if seed is None:
        raise GrunlabError("search requires a seed: give --seed or set GRUNLAB_SEED")
    config = search.SearchConfig(alpha=args.alpha, beta=args.beta, seed=seed,
                                 m=args.m, budget=args.budget, restarts=args.restarts)
    try:
        result = search.minimize_tail_ratio(config)
    except RuntimeError as exc:
        print(f"VIOLATION: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    payload = {
        "alpha": args.alpha, "beta": args.beta, "seed": seed,
        "m": args.m, "budget": args.budget, "restarts": args.restarts,
        "best_ratio": result.ratio, "bound": result.bound, "gap": result.gap,
        "accepted_moves": len(result.trace),
        "profile_hash": search.profile_hash(result.profile),
        "best_profile": result.profile.to_json(),
    }
    fmt = _fmt(args)
    if fmt == "json":
        payload["steps"] = {"accepted": result.accepted, "rejected": result.rejected,
                            "infeasible": result.infeasible, "rounds": result.rounds}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [{k: v for k, v in payload.items() if k != "best_profile"}]
        _emit_rows(rows, fmt, sys.stdout)
    return EXIT_OK


def _cmd_sweep(args):
    seed = _resolve_seed(args)
    if seed is None:
        raise GrunlabError("sweep requires a seed: give --seed or set GRUNLAB_SEED")
    if args.grid == "default" and not (args.alpha_grid or args.beta_grid):
        alphas = betas = list(DEFAULT_SWEEP_GRID)
    else:
        alphas = _parse_vector(args.alpha_grid) if args.alpha_grid else []
        betas = _parse_vector(args.beta_grid) if args.beta_grid else []
    table = search.sweep(alphas, betas, args.trials, seed, m=args.m)
    fmt = args.format or "csv"
    if fmt == "json":
        rows = [{"alpha": r.alpha, "beta": r.beta, "trials": r.trials,
                 "min_slack": r.min_slack, "argmin_profile_hash": r.argmin_profile_hash,
                 "seed": r.seed} for r in table.rows]
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        out = io.StringIO()
        table.to_csv(out)
        print(out.getvalue(), end="")
    return EXIT_VIOLATION if table.violations else EXIT_OK


def _cmd_revolve_roundtrip(args):
    profile = profile_from_json(_load_json(args.profile))
    trip = bodies.revolve_roundtrip(profile, args.n, r=args.r, tol=args.tol)
    payload = {
        "n": trip.n, "r": trip.r, "cut": trip.cut,
        "functional_ratio": trip.functional_ratio,
        "geometric_ratio": trip.geometric_ratio,
        "discrepancy": trip.discrepancy, "pass": trip.passed,
    }
    fmt = _fmt(args)
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit_rows([payload], fmt, sys.stdout)
    return EXIT_OK if trip.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_format(p):
    p.add_argument("--format", choices=("table", "json", "csv"), default=None)


def build_parser():
    parser = _Parser(prog="grunlab",
                     description="Halfspace-mass inequality laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="print sharp constants")
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--r", type=float)
    _add_format(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify-fn", help="verify the tail-mass bound on a profile")
    p.add_argument("profile", help="path to a profile JSON file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_format(p)
    p.set_defaults(func=_cmd_verify_fn)

    p = sub.add_parser("verify-body", help="verify a geometric bound on a body")
    p.add_argument("body", help="path to a body JSON file")
    p.add_argument("--theorem", required=True,
                   choices=("grunbaum-r", "minkowski-radon", "makai-fradelizi"))
    p.add_argument("--u", required=True, help="direction, comma separated")
    p.add_argument("--p", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_format(p)
    p.set_defaults(func=_cmd_verify_body)

    p = sub.add_parser("search", help="minimize the tail ratio over concave profiles")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--restarts", type=int, default=8)
    _add_format(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("sweep", help="random-profile falsification sweep")
    p.add_argument("--grid", default=None, help="'default' for the built-in grid")
    p.add_argument("--alpha-grid", dest="alpha_grid", help="comma separated")
    p.add_argument("--beta-grid", dest="beta_grid", help="comma separated")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--m", type=int, default=12)
    p.add_argument("--seed", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("revolve-roundtrip",
                       help="functional vs geometric mass ratio of a revolved profile")
    p.add_argument("profile", help="path to a profile JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_format(p)
    p.set_defaults(func=_cmd_revolve_roundtrip)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GrunlabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
