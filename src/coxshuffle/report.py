"""Machine-readable verification reports.

A report is a list of checks, each carrying the exact expected and actual
values as strings (rationals are never rendered as floats), a provenance
tag saying where the expected value comes from, and a pass flag.  Overall
pass is the conjunction of the checks.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from typing import Any, Dict, List, Optional

from .golden import format_rational


def exact_str(x) -> str:
    """Serialize a value with exact rationals in p/q form."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(exact_str(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{exact_str(k)}: {exact_str(v)}" for k, v in sorted(
            x.items(), key=lambda kv: str(kv[0]))) + "}"
    return str(x)


class Check:
    __slots__ = ("description", "expected", "actual", "passed", "provenance")

    def __init__(self, description: str, expected: str, actual: str, passed: bool,
                 provenance: str):
        self.description = description
        self.expected = expected
        self.actual = actual
        self.passed = passed
        # e.g. "closed-form-table", "exhaustive", "identity", "statistical"
        self.provenance = provenance

    def __repr__(self):
        return "Check(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "description": self.description,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
            "provenance": self.provenance,
        }


class Report:
    __slots__ = ("suite", "params", "checks", "wall_time", "_t0")

    def __init__(self, suite: str, params: Dict[str, Any]):
        self.suite = suite
        self.params = params
        self.checks: List[Check] = []
        self.wall_time = 0.0
        self._t0 = time.monotonic()

    def __repr__(self):
        return "Report(suite={!r}, params={!r}, checks={!r}, wall_time={!r})".format(
            self.suite, self.params, self.checks, self.wall_time)

    def add(self, description: str, expected, actual, provenance: str, passed: Optional[bool] = None):
        e, a = exact_str(expected), exact_str(actual)
        if passed is None:
            passed = e == a
        self.checks.append(Check(description, e, a, passed, provenance))
        return passed

    def finish(self) -> "Report":
        self.wall_time = time.monotonic() - self._t0
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "params": {k: exact_str(v) for k, v in self.params.items()},
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
            "wall_time_s": round(self.wall_time, 4),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        n_ok = sum(1 for c in self.checks if c.passed)
        return f"{self.suite}: {status} ({n_ok}/{len(self.checks)} checks, {self.wall_time:.2f}s)"
