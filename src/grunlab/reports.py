"""Verification records and their JSON/CSV forms."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from .errors import FloatRangeError, check_tolerance


@dataclass(frozen=True)
class TheoremReport:
    """One verification: a measured ratio against a sharp lower bound.

    slack = ratio - bound; the verdict passes iff slack >= -tolerance.
    provenance records how every number was produced (exact arithmetic, the
    Gauss rule and its nodes, or Monte Carlo sample metadata) together with the
    full parameterization, so any report can be reproduced.
    """

    theorem: str
    ratio: float
    bound: float
    slack: float
    passed: bool
    tolerance: float
    provenance: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_json_dict(self):
        out = {
            "theorem": self.theorem,
            "ratio": self.ratio,
            "bound": self.bound,
            "slack": self.slack,
            "pass": self.passed,
            "provenance": dict(self.provenance),
        }
        if self.details:
            out["details"] = dict(self.details)
        return out

    def to_json(self, indent=2):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def make_report(theorem, ratio, bound, tolerance, provenance, details=None):
    """A TheoremReport; a ratio or bound that is not a finite number gives no
    verdict (FloatRangeError), nor does a tolerance that is NaN or not a real
    number (ParameterError); an infinite or negative one is kept."""
    if not (math.isfinite(ratio) and math.isfinite(bound)):
        raise FloatRangeError(f"{theorem}: ratio {ratio} or bound {bound} is not finite")
    tolerance = check_tolerance(tolerance)
    slack = ratio - bound
    return TheoremReport(
        theorem=theorem,
        ratio=float(ratio),
        bound=float(bound),
        slack=float(slack),
        passed=bool(slack >= -tolerance),
        tolerance=tolerance,
        provenance=dict(provenance),
        details=dict(details or {}),
    )


_CSV_PARAM_KEYS = ("alpha", "beta", "p", "r", "n")


def reports_to_csv(reports, stream=None):
    """Write reports as CSV, one row per report; returns the CSV text."""
    own = stream is None
    if own:
        stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["theorem", *_CSV_PARAM_KEYS, "ratio", "bound", "slack", "pass"])
    for rep in reports:
        params = rep.provenance.get("params", {})
        row = [rep.theorem]
        row += [params.get(k, "") for k in _CSV_PARAM_KEYS]
        row += [repr(rep.ratio), repr(rep.bound), repr(rep.slack),
                "true" if rep.passed else "false"]
        writer.writerow(row)
    return stream.getvalue() if own else None
