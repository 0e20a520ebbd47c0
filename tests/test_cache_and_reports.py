"""Pickling of exact values, report serialization, suite registry."""

import json
import pickle
from fractions import Fraction

import pytest

from coxshuffle.golden import GoldenRational
from coxshuffle.linalg import canonicalize
from coxshuffle.report import Report, exact_str
from coxshuffle.suites import run_suite


def test_golden_and_subspace_pickle():
    x = GoldenRational(Fraction(1, 2), Fraction(-3, 4))
    assert pickle.loads(pickle.dumps(x)) == x
    s = canonicalize([(Fraction(1), Fraction(2))], 2)
    assert pickle.loads(pickle.dumps(s)) == s


def test_exact_str_formats():
    assert exact_str(Fraction(3, 7)) == "3/7"
    assert exact_str([Fraction(1, 2), 5]) == "[1/2, 5]"
    assert exact_str({"a": Fraction(2)}) == "{a: 2/1}"


def test_report_json_shape():
    rep = Report("demo", {"x": Fraction(1, 2)})
    rep.add("a check", Fraction(1, 3), Fraction(1, 3), "identity")
    rep.add("a failing check", 1, 2, "identity")
    rep.finish()
    data = json.loads(rep.to_json())
    assert data["pass"] is False
    assert data["params"]["x"] == "1/2"
    assert data["checks"][0]["pass"] is True
    assert data["checks"][1] == {
        "description": "a failing check",
        "expected": "1",
        "actual": "2",
        "pass": False,
        "provenance": "identity",
    }
    assert not rep.passed


def test_reports_never_share_a_checks_list():
    first, second = Report("one", {}), Report("two", {})
    assert first.checks is not second.checks
    first.add("a check", 1, 1, "identity")
    assert len(first.checks) == 1 and second.checks == []
    assert "_t0" not in repr(first) and repr(second) == (
        "Report(suite='two', params={}, checks=[], wall_time=0.0)")


def test_run_suite_unknown():
    with pytest.raises(KeyError):
        run_suite("made_up")


def test_run_suite_with_param_override():
    rep = run_suite("spectrum", {"types": ["A2"], "x": 3})
    assert rep.passed
    assert all("A2 x=3" in c.description for c in rep.checks)
