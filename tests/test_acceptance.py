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

from coxshuffle.group import get_group
from coxshuffle.suites import run_suite
from coxshuffle.tables import lattice_table, measure_table

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


# SHA-256 of CLI table bytes (what ``--emit``/``--out`` writes): the lattice
# table, csv and json, on every supported type, and the measure table at
# ``--x 2,7/3,-1`` by two methods; key (table, type, format or method)
TABLE_DIGESTS = {
    ("lattice", "A1", "csv"): "ec8e26283e74c4fda13866eb16d74b28aa7f414bb6a71eac94c14faa80869491",
    ("lattice", "A1", "json"): "2df9c089b495e8896018bac5f662cae7d1bdb7017ee7893a2bf7dd0bc01e0ae5",
    ("lattice", "A2", "csv"): "445c1eed410f96b52d4188c0437122868a79ec108d7922cbb36221a189a64751",
    ("lattice", "A2", "json"): "da67eea7c33dc2a386c8b825d7e23dc9ae311ffa40410e987e01c24fb9d566db",
    ("lattice", "A3", "csv"): "41c2655aa2e0e483f9288bcba57787c159720d0373e41d1982d143a229b7edd0",
    ("lattice", "A3", "json"): "e42db5fa87b9e9cb74b5b1a0eaaae4b71349c58229ea951d0e8bfe1688313bc0",
    ("lattice", "A4", "csv"): "cb37855559427433af1c1c946f2a212a5606846311909c7f694cec2ca00c825f",
    ("lattice", "A4", "json"): "668a8cba2af648eb118c89fbd7d26dac73995871df4dac99f744b1d24a4929c1",
    ("lattice", "A5", "csv"): "698a8e82de2926a4cfd9113d37a49e8eb2273dc38ffb64c1ed7c71d9b4bad175",
    ("lattice", "A5", "json"): "ccd9448b9f246111165d360d7a375c3c179766c5f46f9a694ee6f5cfc4349cd2",
    ("lattice", "B2", "csv"): "0d1085ad141b9f47316e9b1fc16721716a0aee569d483f0eef45da07abaf484a",
    ("lattice", "B2", "json"): "147abe2caed2fc1ca19be0f364173be7b598efab99df2f5044e19889c5d5fba2",
    ("lattice", "B3", "csv"): "5ae43f4e886027cd4dd4c915e735e6009dfda3b13b4f43aea021bbe94b9980e7",
    ("lattice", "B3", "json"): "f541350eb997dcaaec878e8ed71f2dda5ab7a2b7e80c0aab5d210f8fe218d7ea",
    ("lattice", "B4", "csv"): "39f4570898272bf3191084dbfdc2c41b2e5ba5c8cf4f5e2bee93651d01d725a1",
    ("lattice", "B4", "json"): "a79e55e900ef56f7273f637078ed8141a4a3a8577fec4d1a28b47bb2968fe9e3",
    ("lattice", "D4", "csv"): "619d7e1cc2ed27af90b23ba85a5f4ae1a189c06093da070fc658f82dbc59c843",
    ("lattice", "D4", "json"): "d250da474ebef4208c5c39a4f4272da5f213ce6ff54336525f6cdb4ac1d6f645",
    ("lattice", "G2", "csv"): "310229246a29d8f994355fc4bd2f37146e5818443e0b312746f584ad5d720142",
    ("lattice", "G2", "json"): "91a0a53a569347ff4b9185716045c132e88f16cceb34efa7fdf2f3edb80f35e1",
    ("lattice", "I2(2)", "csv"): "27a0820abf31553ac37573db6c5eee00feb4cdf31d395d61bbfcd139241d0553",
    ("lattice", "I2(2)", "json"): "882aad7ac04437c79320e4fb43e5d293055545781f5476a722f55bee776f1bd5",
    ("lattice", "I2(3)", "csv"): "445c1eed410f96b52d4188c0437122868a79ec108d7922cbb36221a189a64751",
    ("lattice", "I2(3)", "json"): "da67eea7c33dc2a386c8b825d7e23dc9ae311ffa40410e987e01c24fb9d566db",
    ("lattice", "I2(4)", "csv"): "0d1085ad141b9f47316e9b1fc16721716a0aee569d483f0eef45da07abaf484a",
    ("lattice", "I2(4)", "json"): "147abe2caed2fc1ca19be0f364173be7b598efab99df2f5044e19889c5d5fba2",
    ("lattice", "I2(5)", "csv"): "f39080338b7a8367e0133eb66b8439fdb3a3cbb71a9705cadff2571aae33edf8",
    ("lattice", "I2(5)", "json"): "37f10857e8be766393a42ee3ce587378aa07675870d73d07de4f2d64e4061c4d",
    ("lattice", "I2(6)", "csv"): "310229246a29d8f994355fc4bd2f37146e5818443e0b312746f584ad5d720142",
    ("lattice", "I2(6)", "json"): "91a0a53a569347ff4b9185716045c132e88f16cceb34efa7fdf2f3edb80f35e1",
    ("lattice", "I2(10)", "csv"): "9ec93ea9b541b6b5d2e1e8430fe81a52dd699e27d8dbf2929620d8a2cf1b93ff",
    ("lattice", "I2(10)", "json"): "d22949150ca4a40052d0fc80d0623bf2835bffd519ae575698a6fc89de7db7c3",
    ("lattice", "H3", "csv"): "7f1414229586f2b5010896b1f2e9e1e20ac8bad89ed0405f2acedbc7d5c4e5e3",
    ("lattice", "H3", "json"): "8a81f1cc4ed1bfab0deb538d52a9ef332237a73c275b003ce7e735898b96f424",
    ("lattice", "H4", "csv"): "559459e123b84645ef027b698dc7148a2fe46e268fb6cbad3fb3aaa887e856ae",
    ("lattice", "H4", "json"): "d868b3f34f6e5eeb5b60bb13e266a619873852bcbac43b764a19842f8e932104",
    ("measure", "B4", "definition"): "f322fd17eca75a584557763fde2d39c837cafa3cc56244f20c57ea32c26e70cb",
    ("measure", "B4", "os_sign"): "f322fd17eca75a584557763fde2d39c837cafa3cc56244f20c57ea32c26e70cb",
    ("measure", "D4", "definition"): "f2f9419e6c6709c04401f8d8d9ab8807c8b7f75173188065465cda0731c7f68b",
    ("measure", "D4", "os_sign"): "f2f9419e6c6709c04401f8d8d9ab8807c8b7f75173188065465cda0731c7f68b",
    ("measure", "H3", "definition"): "25ce0ddac3bb771dd4afa384eed663c45c93677dcc76348ec832b1fd8355b185",
    ("measure", "H3", "os_sign"): "25ce0ddac3bb771dd4afa384eed663c45c93677dcc76348ec832b1fd8355b185",
    ("measure", "H4", "definition"): "906b92fd7185eb6d3dc633f10e4c41592d8b4a9785c684303c95429678a08182",
    ("measure", "H4", "os_sign"): "906b92fd7185eb6d3dc633f10e4c41592d8b4a9785c684303c95429678a08182",
}
TABLE_XS = [Fraction(2), Fraction(7, 3), Fraction(-1)]


def report_digest(report) -> str:
    d = report.to_dict()
    del d["wall_time_s"]
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def test_cli_table_bytes_pinned():
    changed = []
    for (what, t, tag), digest in TABLE_DIGESTS.items():
        if what == "lattice":
            text = lattice_table(get_group(t), tag)
        else:
            text = measure_table(get_group(t), TABLE_XS, tag, "csv")
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            changed.append((what, t, tag))
    assert not changed, f"table bytes changed: {changed}"


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
