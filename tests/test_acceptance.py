"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All identities are checked as exact equalities of rationals (the measures
and counts are exact); the only statistical criterion is the sampler one,
bounded in total-variation distance.  Runtime budgets are asserted where
the criteria state them.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from coxshuffle.suites import run_suite

# SHA-256 of each suite's default-grid report, timing removed: a change that
# is meant to give the same answers must leave these alone
REPORT_DIGESTS = {
    "triple_agreement": "70a47da5fbb4340ec6ade04643f2f899ebc022f5b1184287d674750ef91cecee",
    "longshort": "cb1f319d786fa075376da4f19ef9169e651ecb83a2b49ee0b28d2572449aeeb0",
    "sommers": "3fd90a62ee80c5e87dc8b13d1887665c77800724105225db285eda43051f2fa0",
    "convolution": "bf1da67dc90e5217032eb1d10c7e4466892eb654dee502ac76734c2b60fe608b",
    "h4_counterexample": "5ff73d7f9862ebc16a4acc55fd5798d5b99a73074f45de50748eb8c892704941",
    "spectrum": "bf4e27ffe6d0d08b022a3cfaa880b4a36af65b8fa14bd620908708ae1455a89a",
    "walk_oracle": "49ca05d2fe3b7303a456e701c742906566768d7d72f1654450cfa96616ccfab8",
    "nonnegativity": "792702691a9b0f0a922689bdbae40cc77e2e3ff140e3053f2bdd39782ecabc23",
    "problem1_A": "c119c9d8634fa15324aa049c0fbb8f071f7091d881109e18869cc2f9fc814a3f",
    "problem1_B": "2cb5969638ac84dc4222200192e13a2da3b781af0a45047457df64ccad2fc258",
    "sl35_counterexample": "323d91f743b19f7cc2d095fb31e071062a24cc4352b0f798c9c563cf58f90d6b",
    "gr_census": "1646b4b7c64de6300f2f4824a848ab8f72ab11f816488c16099f3f65477f4333",
    "reiner_counts": "4fdf6e173d19d84e106a560924dedb0d6d0054218e58b5f2bcee0c7da2560ef8",
    "ornament_counts": "f821c386b79755843a6492f342eece332e47f377f4790ffc62035b8026b92c28",
    "sampler_tv": "d4539ac51d1c58ec2f36166b590eb4ce57713690a7e17660ea68b0067f008c0d",
}


def report_digest(report) -> str:
    d = report.to_dict()
    del d["wall_time_s"]
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def _pin(reports):
    for r in reports:
        assert report_digest(r) == REPORT_DIGESTS[r.suite], f"{r.suite} report changed"


def _gate(number: int, name: str, reports, extra_ok: bool = True, detail: str = ""):
    reports = reports if isinstance(reports, list) else [reports]
    _pin(reports)
    passed = all(r.passed for r in reports) and extra_ok
    status = "PASS" if passed else "FAIL"
    checks = sum(len(r.checks) for r in reports)
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({checks} checks{detail})")
    if not passed:
        for r in reports:
            for c in r.checks:
                if not c.passed:
                    print(f"    failed: {c.description}: expected {c.expected}, got {c.actual}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_01_triple_agreement():
    t0 = time.monotonic()
    rep = run_suite("triple_agreement")
    elapsed = time.monotonic() - t0
    _gate(1, "triple agreement (incl. H3/H4 tables)", rep,
          extra_ok=elapsed < 300, detail=f", {elapsed:.1f}s < 300s")


def test_criterion_02_longest_shortest():
    _gate(2, "identity/longest-element product formulas", run_suite("longshort"))


def test_criterion_03_counting_identity():
    _gate(3, "positive-solution counting identity", run_suite("sommers"))


def test_criterion_04_problem1_type_a():
    t0 = time.monotonic()
    rep = run_suite("problem1_A")
    spot = [c for c in rep.checks if "spot" in c.description]
    _gate(4, "orbit distribution = measure pushforward (type A)", rep,
          extra_ok=bool(spot), detail=f", {time.monotonic()-t0:.1f}s")


def test_criterion_05_problem1_type_b():
    t0 = time.monotonic()
    rep = run_suite("problem1_B")
    _gate(5, "orbit distribution = measure pushforward (type B)", rep,
          detail=f", {time.monotonic()-t0:.1f}s")


def test_criterion_06_identity_class_counts():
    repA = run_suite("problem1_A")
    repB = run_suite("problem1_B")
    checks = [
        c
        for r in (repA, repB)
        for c in r.checks
        if "identity-class" in c.description
    ]
    _pin([repA, repB])
    ok = bool(checks) and all(c.passed for c in checks)
    print(f"ACCEPTANCE  6 identity-class orbit counts: {'PASS' if ok else 'FAIL'} "
          f"({len(checks)} checks)")
    assert ok


def test_criterion_07_sl35_counterexample():
    _gate(7, "conjugacy-class-side counterexample (census 5 vs 7)",
          run_suite("sl35_counterexample"))


def test_criterion_08_convolution_and_h4_failure():
    _gate(8, "convolution holds (A/B/I2/H3) and fails for H4",
          [run_suite("convolution"), run_suite("h4_counterexample")])


def test_criterion_09_spectrum():
    _gate(9, "transition-matrix spectrum and stochasticity", run_suite("spectrum"))


def test_criterion_10_walk_oracle():
    _gate(10, "one-step walk reproduces the measure", run_suite("walk_oracle"))


def test_criterion_11_bijection_censuses():
    _gate(11, "bijection censuses (GR, ornaments, s-vector counts)",
          [run_suite("gr_census"), run_suite("ornament_counts"),
           run_suite("reiner_counts")])


def test_criterion_12_sampler_statistics():
    t0 = time.monotonic()
    rep = run_suite("sampler_tv", {"count": 100000, "seed": 7,
                                   "tolerance": Fraction(1, 50)})
    elapsed = time.monotonic() - t0
    _gate(12, "sampler total-variation distance <= 1/50", rep,
          extra_ok=elapsed < 60, detail=f", {elapsed:.1f}s < 60s total")


def test_criterion_13_nonnegativity():
    _gate(13, "nonnegativity at good primes", run_suite("nonnegativity"))
