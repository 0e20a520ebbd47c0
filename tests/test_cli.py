"""CLI surface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import coxshuffle
from coxshuffle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gr_command_worked_example(capsys):
    code, out, _ = run_cli(capsys, "bijection", "gr", "--necklaces", "12,12,2,23,23233")
    assert code == 0
    assert out.strip() == "(1 3)(2 4)(5)(6 9)(7 11 8 12 10)"


@pytest.mark.parametrize("words,bad", [("1212", "1212"), ("12,33,2", "33"),
                                       ("2,121212", "121212")])
def test_gr_command_rejects_imprimitive_necklaces(capsys, words, bad):
    code, out, err = run_cli(capsys, "bijection", "gr", "--necklaces", words)
    assert code == 2 and out == ""
    assert err == (f"error: --necklaces {words!r}: {bad!r} is not primitive "
                   "(a power of a shorter word)\n")


def test_measure_csv(capsys):
    code, out, _ = run_cli(capsys, "measure", "--type", "B2", "--x", "3", "--method", "os_sign")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "descent_set,value_num,value_den,class_label"
    assert len(lines) == 1 + 4  # four descent classes in rank 2
    # identity row: H(id) = (3+1)(3+3)/(9 * 8) = 1/3
    assert lines[1].startswith(",1,3,")


def test_measure_multi_x_columns_match_closed_form(capsys):
    code, out, _ = run_cli(capsys, "measure", "--type", "H3", "--x", "2,3,5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "descent_set,value_num_x2,value_den_x2,value_num_x3,value_den_x3,"
        "value_num_x5,value_den_x5,class_label"
    )
    # identity row evaluates the d = 0 case (x+9)(x+5)(x+1)/(120 x^3) at 2, 3, 5
    from fractions import Fraction

    first = lines[1].split(",")
    vals = [Fraction(int(first[1]), int(first[2])), Fraction(int(first[3]), int(first[4])),
            Fraction(int(first[5]), int(first[6]))]
    for x, v in zip((2, 3, 5), vals):
        assert v == Fraction((x + 9) * (x + 5) * (x + 1), 120 * x**3)


def test_measure_rejects_zero_x(capsys):
    code, _, err = run_cli(capsys, "measure", "--type", "B2", "--x", "0")
    assert code == 2
    assert "nonzero" in err or "error" in err


@pytest.mark.parametrize("argv", [
    ("measure", "--type", "A3", "--x", "1/0"),
    ("verify", "walk_oracle", "--type", "A2", "--x", "1/0"),
    ("measure", "--type", "A2", "--x", "abc"),
    ("measure", "--type", "A2", "--x", "1,,2"),
    ("verify", "longshort", "--x", "abc"),
])
def test_zero_denominator_x_is_a_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_lattice_emit_to_file(tmp_path, capsys):
    out = tmp_path / "flats.csv"
    code, _, _ = run_cli(capsys, "lattice", "--type", "B2", "--emit", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "flat_id,dim,moebius_from_V"
    assert len(lines) == 1 + 6  # V, four lines, origin


def test_coxeter_dump_classes(capsys):
    import csv
    import io

    code, out, _ = run_cli(capsys, "coxeter", "dump", "--type", "B2", "--what", "classes")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    assert sum(int(r["size"]) for r in rows) == 8


def test_coxeter_dump_stability(capsys):
    a = run_cli(capsys, "coxeter", "dump", "--type", "A3", "--what", "elements")[1]
    b = run_cli(capsys, "coxeter", "dump", "--type", "A3", "--what", "elements")[1]
    assert a == b


def test_coxeter_dump_parabolics_golden_round_trip(capsys):
    import csv
    import io

    from test_golden import parse_scalar

    code, out, _ = run_cli(capsys, "coxeter", "dump", "--type", "H3", "--what", "parabolics")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8  # all subsets of a rank-3 base
    for row in rows:
        dim = int(row["fixed_dim"])
        vecs = [v for v in row["fixed_basis"].split(";") if v]
        assert len(vecs) == dim
        for vec in vecs:
            parsed = [parse_scalar(s) for s in vec.split(" ")]
            assert len(parsed) == 3


def test_orbits_table(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--family", "B", "--n", "2", "--q", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "poly,factorization,lambda,mu"
    assert len(lines) == 1 + 9


def test_sample_compare_json(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--model", "typeB_flip", "--n", "3", "--x", "3",
        "--count", "2000", "--seed", "7", "--compare", "exact",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2000 and data["seed"] == 7
    assert "/" in data["tv_exact"]
    assert 0 <= data["tv_float"] < 0.2


def test_verify_pass_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "sl35_counterexample")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["suite"] == "sl35_counterexample"


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_with_overrides(capsys, tmp_path):
    out_file = tmp_path / "rep.json"
    code, out, _ = run_cli(
        capsys, "verify", "problem1_A", "--n", "2", "--q", "5", "--out", str(out_file)
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["pass"] is True
    assert all("n=2 q=5" in c["description"] or "spot" in c["description"]
               for c in data["checks"])


def test_verify_jobs_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "spectrum", "--jobs", "3"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert err.startswith("usage:")
    assert "unrecognized arguments: --jobs 3" in err
    assert "Traceback" not in err


def test_abbreviated_option_is_a_usage_error(tmp_path):
    # "--e" is a prefix of "--emit" only; it must not name the output file
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxshuffle.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "coxshuffle.cli", "orbits", "--family", "A", "--n", "3",
         "--q", "5", "--e", "0"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert [line for line in run.stderr.splitlines() if "error:" in line] == [
        "coxshuffle: error: unrecognized arguments: --e 0"]
    assert "Traceback" not in run.stderr
    assert list(tmp_path.iterdir()) == []


def test_verify_convolution_reports_known_counterexamples(capsys):
    code, out, _ = run_cli(capsys, "verify", "convolution", "--type", "D4", "--type", "H4")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["description"] for c in checks] == ["D4: H_2 * H_3 vs H_6", "H4: H_2 * H_3 vs H_6"]
    assert all(c["actual"] == "different" and not c["pass"] for c in checks)


def test_refine_census_cli(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "refine", "--family", "A", "--n", "2", "--p", "3",
        "--mode", "golomb", "--census",
    )
    assert code == 0
    counts = json.loads(out)
    assert sum(counts.values()) == 9
    assert counts["12"] == 6 and counts["21"] == 3  # C(4,2), C(3,2)


def test_unsupported_type_error(capsys):
    code, _, err = run_cli(capsys, "measure", "--type", "I2(7)", "--x", "2")
    assert code == 2
    assert "unsupported" in err


@pytest.mark.parametrize("argv", [
    ("measure", "--type", "A2", "--x", "2", "--out"),
    ("lattice", "--type", "A2", "--emit"),
    ("orbits", "--family", "A", "--n", "2", "--q", "3", "--emit"),
    ("verify", "sl35_counterexample", "--out"),
])
def test_unwritable_output_is_one_error_line(capsys, tmp_path, argv):
    missing = tmp_path / "no_such_dir" / "out"
    code, _, err = run_cli(capsys, *argv, str(missing))
    assert code == 2
    assert err.startswith("error:") and str(missing) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,flag", [
    (("sommers", "--type", "H4"), "--type"),
    (("h4_counterexample", "--type", "A2"), "--type"),
    (("sampler_tv", "--type", "A2"), "--type"),
    (("gr_census", "--x", "3"), "--x"),
    (("sl35_counterexample", "--n", "3", "--q", "7"), "--n"),
    (("gr_census", "--n", "3", "--q", "5"), "--n"),
    (("nonnegativity", "--x", "3"), "--x"),
    (("spectrum", "--seed", "3"), "--seed"),
    (("triple_agreement", "--family", "A"), "--family"),
])
def test_verify_rejects_flags_the_suite_does_not_read(capsys, argv, flag):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""  # no report: the suite did not run
    assert f"verify {argv[0]} does not read {flag}" in err
    assert "Traceback" not in err


def test_verify_single_x_suite_rejects_repeated_x(capsys):
    code, out, err = run_cli(capsys, "verify", "convolution", "--x", "2", "--x", "3")
    assert code == 2 and out == ""
    assert "verify convolution reads one --x" in err


def test_suite_flags_cover_every_suite_and_name_real_parameters():
    from coxshuffle.suites import SUITES

    # the default parameters each verify flag may override
    overrides = {"--type": {"types"}, "--x": {"xs", "x"}, "--n": {"grid"}, "--q": {"grid"},
                 "--seed": {"seed"}}
    for name, (_, defaults, reads, grid_rule) in SUITES.items():
        for flag in reads:
            assert overrides[flag] & set(defaults), (name, flag)
        assert ("--n" in reads) == ("--q" in reads), name
        assert ("--n" in reads) == (grid_rule is not None), name


def test_verify_override_a_suite_reads_is_applied(capsys):
    code, out, _ = run_cli(capsys, "verify", "h4_counterexample", "--x", "3")
    assert code == 0
    assert any(c["description"].startswith("H(-3) separates") for c in json.loads(out)["checks"])


def test_verify_integral_x_is_written_as_the_default_grid_writes_it(capsys):
    def params_and_checks(out):
        report = json.loads(out)
        return report["params"], report["checks"]

    _, default, _ = run_cli(capsys, "verify", "h4_counterexample")
    code, given, _ = run_cli(capsys, "verify", "h4_counterexample", "--x", "2")
    assert code == 0
    assert params_and_checks(given) == params_and_checks(default)
    assert json.loads(given)["params"]["x"] == "2"
    code, out, _ = run_cli(capsys, "verify", "walk_oracle", "--type", "A2",
                           "--x", "2", "--x", "1/2")
    assert code == 0
    assert json.loads(out)["params"]["xs"] == "[2, 1/2]"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_reiner_counts_rejects_n_below_one(capsys, n):
    code, out, err = run_cli(capsys, "verify", "reiner_counts", "--n", n, "--q", "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-5"])
@pytest.mark.parametrize("compare", [[], ["--compare", "exact"]])
def test_sample_rejects_count_below_one(capsys, count, compare):
    code, out, err = run_cli(capsys, "sample", "--model", "typeB_flip", "--n", "3",
                             "--x", "3", "--count", count, *compare)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--count" in err


def no_draw(*args, **kwargs):
    raise AssertionError("a shuffle was drawn")


@pytest.mark.parametrize("n,count", [(2147483648, 1), (1000, 1001), (2, 500001)])
def test_sample_without_compare_is_bounded_before_any_draw(capsys, monkeypatch, n, count):
    import tracemalloc

    import coxshuffle.shuffling as shuffling

    monkeypatch.setattr(shuffling, "sample_shuffle", no_draw)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "sample", "--model", "gsr_a", "--n", str(n),
                                 "--x", "2", "--count", str(count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == (f"error: sample would print {n * count} entries "
                   f"(--n {n} times --count {count}), more than 1000000\n")
    assert peak < 10**6


def test_sample_prints_up_to_the_bound(capsys, monkeypatch):
    import coxshuffle.shuffling as shuffling

    monkeypatch.setattr(shuffling, "sample_shuffle", lambda model, n, x, rng: [0] * n)
    code, out, _ = run_cli(capsys, "sample", "--model", "gsr_a", "--n", "1000",
                           "--x", "2", "--count", "1000")
    assert code == 0 and out == json.dumps([[0] * 1000] * 1000) + "\n"


def test_verify_spectrum_runs_on_every_type(capsys):
    code, out, _ = run_cli(capsys, "verify", "spectrum", "--type", "H4", "--type", "D4")
    assert code == 0
    actual = [c["actual"] for c in json.loads(out)["checks"]]
    assert actual == ["stochastic", "zero matrix"] * 2


def test_verify_passes_only_the_overrides(capsys, monkeypatch):
    import coxshuffle.cli as cli
    from coxshuffle.suites import run_suite

    seen = []

    def recording_run_suite(name, params=None):
        seen.append(params)
        return run_suite(name, params)

    monkeypatch.setattr(cli, "run_suite", recording_run_suite)
    code, _, _ = run_cli(capsys, "verify", "walk_oracle", "--type", "A2")
    assert code == 0
    assert seen == [{"types": ["A2"]}]


@pytest.mark.parametrize("argv,allowed", [
    (("verify", "problem1", "--family", "A", "--n", "0", "--q", "3"), "--n in 2..6"),
    (("verify", "problem1", "--family", "A", "--n", "1", "--q", "5"), "--n in 2..6"),
    (("verify", "problem1", "--family", "B", "--n", "0", "--q", "3"), "--n in 2..4"),
    (("verify", "reiner_counts", "--n", "5", "--q", "3"), "--n in 1..4"),
    (("verify", "ornament_counts", "--n", "0", "--q", "3"), "--n >= 1"),
    (("verify", "ornament_counts", "--n", "-2", "--q", "3"), "--n >= 1"),
    (("sample", "--model", "gsr_a", "--n", "-1", "--x", "2", "--count", "2"), "--n >= 1"),
    (("sample", "--model", "typeB_flip", "--n", "1", "--x", "3", "--compare", "exact"),
     "--n in 2..4"),
    (("orbits", "--family", "B", "--n", "0", "--q", "3"), "--n >= 1"),
    (("bijection", "refine", "--n", "0", "--p", "3", "--census"), "--n >= 1"),
    (("bijection", "refine", "--n", "5", "--p", "3", "--poly", "1,1"), "--n 1,"),
])
def test_n_outside_its_range_is_one_error_line(capsys, argv, allowed):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert allowed in err


@pytest.mark.parametrize("argv,needs", [
    (("verify", "problem1", "--family", "A", "--n", "3", "--q", "9"), "--q a prime, not 9"),
    (("verify", "problem1", "--family", "A", "--n", "3", "--q", "3"),
     "--q prime to --n: 3 divides 3, so it is not very good for A2"),
    (("verify", "problem1", "--family", "A", "--n", "4", "--q", "2"), "not very good for A3"),
    (("verify", "problem1", "--family", "B", "--n", "2", "--q", "2"), "an odd --q"),
    (("verify", "problem1", "--family", "B", "--n", "2", "--q", "1"), "--q a prime, not 1"),
    (("verify", "reiner_counts", "--n", "2", "--q", "9"), "--q a prime, not 9"),
    (("verify", "ornament_counts", "--n", "2", "--q", "2"), "an odd --q"),
    # verify stays prime-only; orbits reads prime powers (argv9 on)
    (("verify", "problem1", "--family", "B", "--n", "2", "--q", "4"), "--q a prime, not 4"),
    (("orbits", "--family", "B", "--n", "2", "--q", "2"), "an odd --q"),
    (("orbits", "--family", "B", "--n", "2", "--q", "6"), "orbits needs --q a prime power, not 6"),
    (("orbits", "--family", "B", "--n", "2", "--q", "1"), "orbits needs --q a prime power, not 1"),
    (("orbits", "--family", "A", "--n", "3", "--q", "0"), "orbits needs --q a prime power, not 0"),
    (("orbits", "--family", "B", "--n", "2", "--q", "4"), "an odd --q: 4 is not very good for B2"),
    (("orbits", "--family", "A", "--n", "1", "--q", str(3**20)),
     "GF(3^20) would need tables of 3486784401 elements"),
])
def test_q_not_prime_or_not_very_good_is_one_error_line(capsys, argv, needs):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert needs in err


@pytest.mark.parametrize("argv,needs", [
    (("sample", "--model", "typeB_flip", "--n", "3", "--x", "2"),
     "--x 2: pile count must be odd and >= 1"),
    (("sample", "--model", "gsr_a", "--n", "3", "--x", "0", "--compare", "exact"),
     "--x 0: pile count must be >= 1"),
    (("sample", "--model", "gsr_a", "--n", "3", "--x", str(2**32), "--count", "3"),
     f"--x {2**32}: pile count must be below 2**32"),
    (("sample", "--model", "gsr_a", "--n", "3", "--x", str(2**32), "--compare", "exact"),
     f"--x {2**32}: pile count must be below 2**32"),
    (("bijection", "refine", "--n", "2", "--p", "4", "--census"), "--p a prime, not 4"),
    (("bijection", "refine", "--n", "2", "--p", "1", "--poly", "1,1,1"), "--p a prime, not 1"),
    (("measure", "--type", "A2", "--x", "abc"), "--x 'abc' is not a rational number"),
    (("measure", "--type", "A2", "--x", "1,,2"), "--x '' is not a rational number"),
    (("verify", "longshort", "--x", "abc"), "--x 'abc' is not a rational number"),
    (("measure", "--type", "A3", "--x", "1/0"), "--x '1/0' has a zero denominator"),
    (("measure", "--type", "A2", "--x", "0"), "--x '0' must be nonzero"),
    (("verify", "longshort", "--x", "2", "--x", "0/3"), "--x '0/3' must be nonzero"),
    (("bijection", "refine", "--n", "1", "--p", "3", "--poly", "0"),
     "--poly '0': need a monic polynomial of degree >= 1 over F_3"),
    (("bijection", "refine", "--n", "1", "--p", "3", "--poly", "2,2"), "--poly '2,2': need a monic"),
    (("bijection", "refine", "--n", "2", "--p", "3", "--poly", "1,x"),
     "--poly '1,x': 'x' is not an integer"),
    (("bijection", "refine", "--n", "2", "--p", "3", "--poly", ""), "needs --poly coefficients"),
    (("bijection", "gr", "--necklaces", "1a"), "--necklaces '1a': 'a' is not an integer"),
    (("bijection", "gr", "--necklaces", "1,,2"), "--necklaces '1,,2': every necklace must be"),
])
def test_pile_count_or_p_error_names_its_flag(capsys, argv, needs):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert needs in err


@pytest.mark.parametrize("tag,n,p,e", [("B", 2, 3, 2), ("A", 3, 2, 2)])
def test_orbits_of_a_prime_power_field(capsys, tag, n, p, e):
    from coxshuffle.orbits import orbit_family
    from coxshuffle.tables import orbits_table

    fam = orbit_family(tag, n, p, e)
    for fmt in ("csv", "json"):
        code, out, _ = run_cli(capsys, "orbits", "--family", tag, "--n", str(n),
                               "--q", str(p**e), "--format", fmt)
        assert code == 0
        assert out == orbits_table(fam, fmt) + ("" if fmt == "csv" else "\n")


def test_orbits_list_a_family_whose_q_is_not_very_good(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--family", "A", "--n", "3", "--q", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3**2


def test_default_grids_have_very_good_q():
    from coxshuffle.cli import _check_n, _check_q
    from coxshuffle.suites import SUITES

    for name, (_, defaults, _, grid_rule) in SUITES.items():
        if grid_rule is not None:
            family, least, greatest = grid_rule
            for n, q in defaults["grid"]:
                _check_n(n, least, greatest, name)
                _check_q(q, family, n, name)


@pytest.mark.parametrize("argv,value,reason", [
    (("measure", "--type", "X9", "--x", "2"), "X9", "unsupported type X9"),
    (("verify", "triple_agreement", "--type", "XYZ"), "XYZ", "cannot parse type 'XYZ'"),
    (("coxeter", "dump", "--type", "A0", "--what", "elements"), "A0", "unsupported type A0"),
    (("lattice", "--type", "B9"), "B9", "unsupported type B9"),
    (("verify", "walk_oracle", "--type", "I2(7)"), "I2(7)", "needs scalars outside Q"),
    (("verify", "longshort", "--type", "A2", "--type", "H5"), "H5", "unsupported type H5"),
    (("measure", "--type", "", "--x", "2"), "", "cannot parse type ''"),
])
def test_type_error_names_its_flag(capsys, argv, value, reason):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --type {value!r}: ") and len(err.splitlines()) == 1
    assert reason in err


@pytest.mark.parametrize("argv", [
    ("problem1",),
    ("sommers", "--family", "A"),
    ("nonsense",),
    ("sommers", "--x", "3"),
    ("h4_counterexample", "--type", "H4"),
    ("problem1_A", "--q", "5"),
    ("problem1", "--family", "B", "--n", "3"),
    ("problem1", "--family", "A", "--n", "9", "--q", "5"),
    ("reiner_counts", "--n", "2", "--q", "4"),
    ("convolution", "--x", "2", "--x", "3"),
    ("longshort", "--x", "1/0"),
    ("spectrum", "--type", "Q3"),
])
def test_every_verify_usage_error_is_one_error_line(capsys, argv):
    # each way cmd_verify refuses its arguments, past the parser's own checks
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
