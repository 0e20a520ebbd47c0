"""Tests of the benchmark's oracles: each one accepts a right value, rejects
one wrong value, and holds on the package's own output.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from itertools import permutations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import oracles  # noqa: E402


def type_a_measure(n, x):
    """(one-line forms, dense values) of H(S_n, x) from the oracle formula."""
    lines = list(permutations(range(1, n + 1)))
    return lines, [oracles.h_type_a(n, x, oracles.descents_a(w)) for w in lines]


def exact_counts(tag, n, q):
    rank = n - 1 if tag == "A" else n
    return {k: int(v * q**rank) for k, v in oracles.class_law(tag, n, q).items()}


class OraclesRejectWrongValues(unittest.TestCase):
    def test_exponent_table(self):
        orders = {"A4": 120, "A5": 720, "B4": 384, "D4": 192, "H3": 120, "H4": 14400,
                  "G2": 12, "I2(5)": 10}
        for t, size in orders.items():
            self.assertEqual(oracles.group_order(t), size, t)
        self.assertEqual(oracles.char_poly_coeffs("A2"), (2, -3, 1))

    def test_group_and_char_poly(self):
        chi = oracles.char_poly_coeffs("H4")
        self.assertEqual(oracles.check_group("H4", 14400, chi), [])
        self.assertTrue(oracles.check_group("H4", 14401, chi))
        self.assertTrue(oracles.check_group("H4", 14400, (chi[0] + 1,) + chi[1:]))

    def test_measure_values(self):
        x = Fraction(7, 3)
        lines, dense = type_a_measure(4, x)
        longest = lines.index((4, 3, 2, 1))
        self.assertEqual(oracles.check_measure("A3", x, dense, longest, lines), [])
        moved = list(dense)  # same sum, one value moved between two elements
        moved[5] += Fraction(1, 9)
        moved[6] -= Fraction(1, 9)
        self.assertTrue(oracles.check_measure("A3", x, moved, longest, lines))
        wrong_id = list(dense)
        wrong_id[0] += Fraction(1, 9)
        wrong_id[1] -= Fraction(1, 9)
        self.assertTrue(oracles.check_measure("A3", x, wrong_id, longest))
        wrong_sum = list(dense)
        wrong_sum[3] += 1
        self.assertTrue(oracles.check_measure("A3", x, wrong_sum, longest))

    def test_class_measure(self):
        law = oracles.class_law("B", 3, Fraction(5, 2))
        self.assertEqual(oracles.check_class_measure("B3", Fraction(5, 2), law), [])
        keys = sorted(law, key=str)
        wrong = dict(law)
        wrong[keys[0]] += Fraction(1, 7)
        wrong[keys[1]] -= Fraction(1, 7)
        self.assertTrue(oracles.check_class_measure("B3", Fraction(5, 2), wrong))

    def test_fq_family(self):
        for tag, n, q in (("A", 4, 5), ("B", 2, 5)):
            counts = exact_counts(tag, n, q)
            self.assertEqual(oracles.check_fq_family(tag, n, q, counts), [])
            keys = sorted(counts, key=str)
            moved = dict(counts)
            moved[keys[0]] += 1
            moved[keys[-1]] -= 1
            self.assertTrue(oracles.check_fq_family(tag, n, q, moved))
            short = dict(counts)
            short[keys[0]] -= 1
            self.assertTrue(oracles.check_fq_family(tag, n, q, short))

    def test_factor_type_count(self):
        # monic quadratics over F_3 with trace 0: z^2 - a; a = 0 gives (1,1),
        # a = 1 two distinct roots, a = 2 irreducible
        self.assertEqual(oracles.factor_type_count_a(2, 3, (1, 1)), 2)
        self.assertEqual(oracles.factor_type_count_a(2, 3, (2,)), 1)

    def test_irreducibles(self):
        # over F_2: degree 1 x, x+1; degree 2 x^2+x+1; degree 3 two cubics
        self.assertEqual(oracles.check_irreducibles(2, 3, 5), [])
        self.assertTrue(oracles.check_irreducibles(2, 3, 6))

    def test_suite_report(self):
        w0, ident = oracles.longshort("B2", 3)
        rows = [{"description": "B2 x=3: measure at longest element",
                 "expected": f"{w0.numerator}/{w0.denominator}",
                 "actual": f"{w0.numerator}/{w0.denominator}", "pass": True},
                {"description": "B2 x=3: measure at identity",
                 "expected": f"{ident.numerator}/{ident.denominator}",
                 "actual": f"{ident.numerator}/{ident.denominator}", "pass": True}]
        report = {"pass": True, "checks": rows}
        self.assertEqual(oracles.check_suite_report("longshort", 0, report), [])
        self.assertTrue(oracles.check_suite_report("longshort", 1, report))
        self.assertTrue(oracles.check_suite_report("longshort", 0, {**report, "pass": False}))
        wrong = json.loads(json.dumps(report))
        wrong["checks"][1]["actual"] = "1/2"
        wrong["checks"][1]["expected"] = "1/2"
        self.assertTrue(oracles.check_suite_report("longshort", 0, wrong))
        self.assertTrue(oracles.check_suite_report("longshort", 0, {"pass": True, "checks": []}))


class OraclesHoldOnPackage(unittest.TestCase):
    def test_char_poly_and_order(self):
        from coxshuffle.group import get_group
        from coxshuffle.lattice import build_lattice
        from coxshuffle.rootdata import parse_type

        for t in ("A4", "B4", "D4", "H3", "H4"):
            lat = build_lattice(parse_type(t))
            chi = lat.char_poly(lat.bottom_id()).coefficients
            self.assertEqual(oracles.check_group(t, get_group(t).size, chi), [], t)

    def test_type_a_counts(self):
        from coxshuffle.orbits import enumerate_orbits, orbit_family, phi_map

        for tag, n, q in (("A", 5, 7), ("A", 4, 11), ("A", 6, 5), ("B", 3, 5)):
            fam = orbit_family(tag, n, q)
            counts = {}
            for f in enumerate_orbits(fam):
                key = phi_map(fam, f).data
                counts[key] = counts.get(key, 0) + 1
            self.assertEqual(oracles.check_fq_family(tag, n, q, counts), [], (tag, n, q))

    def test_measures_and_descent_conventions(self):
        from coxshuffle.group import get_group
        from coxshuffle.measures import convolve, h_measure, pushforward_classes

        x = Fraction(-5, 3)
        for t in ("A4", "B4"):
            g = get_group(t)
            m = h_measure(g, x)
            self.assertEqual(oracles.check_measure(t, x, m.dense(), g.longest_index, g.one_line), [])
            push = {k.data: v for k, v in pushforward_classes(m).values.items()}
            self.assertEqual(oracles.check_class_measure(t, x, push), [])
            conv = convolve(m, h_measure(g, 2))
            self.assertEqual(oracles.check_dense_formula(t, 2 * x, conv.dense(), g.one_line), [])
        for t in ("D4", "H3"):
            g = get_group(t)
            self.assertEqual(oracles.check_measure(t, x, h_measure(g, x).dense(), g.longest_index), [])


class BenchmarkFile(unittest.TestCase):
    def test_x_list_keeps_the_suites_mix(self):
        import work

        for seed in (1, 2):
            xs = work.x_list(seed)
            self.assertEqual(xs, work.x_list(seed))
            seeded = list(xs)
            for x in work.SUITE_XS:
                seeded.remove(x)
            self.assertEqual(sorted(x > 0 for x in seeded), [False, True])
            self.assertTrue(all(x.denominator > 1 for x in seeded))

    def test_speed_scaling_leaves_out_the_reference_runs(self):
        import speed

        sp = speed.Speed()
        a, b = sp.mark(), sp.mark()
        # samples at the two marks, one SIGALRM sample between them
        sp.samples[a.index + 1:] = [2 * speed.REF_NOMINAL_S, 4 * speed.REF_NOMINAL_S]
        b.index = a.index + 2
        b.at, b.spent = a.after + 1.5, a.spent_after + 0.5
        sp.samples[a.index] = speed.REF_NOMINAL_S
        self.assertAlmostEqual(sp.raw(a, b), 1.0)
        self.assertAlmostEqual(sp.scale(a, b), (1 + 1 / 2 + 1 / 4) / 3)
        self.assertAlmostEqual(sp.scaled(a, b), 1.75 / 3)
        self.assertAlmostEqual(sp.raw_since(a.after - 0.25, b), 1.75 - b.spent)

    def test_per_layer_names_match_the_traced_run(self):
        bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        self.assertEqual(listed, [(n, layers.unit_of(n)) for n in layers.METRICS])
        self.assertLessEqual(len(listed), 128)


if __name__ == "__main__":
    unittest.main()
