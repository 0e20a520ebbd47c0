"""Verification suites: every identity the library computes, re-checked
end to end with exact arithmetic and machine-readable reports.

The registry is data-driven: each suite's one ``SUITES`` entry holds its
runner, its default parameter grid and the CLI flags that override it, so a
grid entry can be overridden without code changes (e.g. ``verify
convolution --type D4`` explores a type the default grid leaves out).

Each runner imports the names it calls at its top, so a ``coxshuffle
verify`` process loads only the modules its suite runs: ``gr_census``
never loads the group or measure code, and no suite but ``sampler_tv``
loads the samplers.  Those imports run inside the suite, so a report's
``wall_time_s`` includes them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Dict, Optional

from .report import Report, exact_str
from .rootdata import card_law, card_range, descent_number

ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "G2", "I2(5)", "I2(6)", "H3", "H4"]

def run_suite(name: str, params: Optional[dict] = None) -> Report:
    """Run one suite with its defaults merged under the given overrides."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    runner, defaults, _, _ = SUITES[name]
    merged = dict(defaults)
    for k, v in (params or {}).items():
        if v is not None:
            merged[k] = v
    rep = Report(name, merged)
    runner(rep, merged)
    return rep.finish()


# -- measure suites ----------------------------------------------------------


def _suite_triple_agreement(rep: Report, p: dict) -> None:
    from .group import get_group
    from .measures import h_measure

    for t in p["types"]:
        g = get_group(t)
        fam = g.root_system.family
        for x in p["xs"]:
            md = h_measure(g, x, "definition")
            mo = h_measure(g, x, "os_sign")
            rep.add(
                f"{t} x={exact_str(Fraction(x))}: definition vs os_sign",
                "equal", "equal" if md == mo else "different", "independent-methods",
            )
            if fam in ("A", "B", "H3", "H4"):
                mc = h_measure(g, x, "closed_form")
                rep.add(
                    f"{t} x={exact_str(Fraction(x))}: definition vs closed form",
                    "equal", "equal" if md == mc else "different", "closed-form-table",
                )


def _suite_longshort(rep: Report, p: dict) -> None:
    from .group import get_group
    from .measures import h_measure, longshort_values

    for t in p["types"]:
        g = get_group(t)
        for x in p["xs"]:
            # the longest element and the identity are alone in their descent
            # classes, the full mask and 0
            values = h_measure(g, x, "definition").descent_table()
            w0v, idv = longshort_values(g, x)
            rep.add(f"{t} x={x}: measure at longest element", w0v, values[-1],
                    "product-formula")
            rep.add(f"{t} x={x}: measure at identity", idv, values[0], "product-formula")


def _suite_sommers(rep: Report, p: dict) -> None:
    from .group import get_group
    from .measures import sommers_identity_check

    for t, x in p["grid"]:
        r = sommers_identity_check(get_group(t), x)
        if not r.hypothesis_ok:
            rep.add(f"{t} x={x}: hypothesis (x coprime to marks)", "coprime",
                    f"marks {r.marks} share a factor with {x}", "gate", passed=False)
            continue
        rep.add(f"{t} x={x}: sum of p(S,x) over proper subsets", r.rhs,
                Fraction(r.lhs), "counting-identity")


def _suite_convolution(rep: Report, p: dict) -> None:
    from .group import get_group
    from .measures import convolve, h_measure

    x, y = p["x"], p["y"]
    for t in p["types"]:
        g = get_group(t)
        prod = convolve(h_measure(g, x, "definition"), h_measure(g, y, "definition"))
        target = h_measure(g, x * y, "definition")
        rep.add(f"{t}: H_{x} * H_{y} vs H_{x*y}", "equal",
                "equal" if prod == target else "different", "group-algebra")


def _suite_h4_counterexample(rep: Report, p: dict) -> None:
    from .group import get_group
    from .measures import h_measure

    x = p["x"]
    g = get_group("H4")
    # w is the longest element of W_{2,3}, the shortest element with descent
    # set {2, 3}; both words are composed on the signed roots, and the
    # measure is read by descent mask
    special = 0b1100
    w = g.longest_word([2, 3])
    dw = g.word_descent_mask(w)
    dww0 = g.word_descent_mask(w + g.longest_word(range(4)))
    rep.add(
        "descent set of w*w0 is complementary",
        [i for i in range(4) if not special >> i & 1], [i for i in range(4) if dww0 >> i & 1],
        "group-structure",
    )
    values = h_measure(g, -x, "closed_form").descent_table()
    a, b = values[dw], values[dww0]
    rep.add(
        f"H(-{x}) separates w (descents {{3,4}}) from w*w0",
        "different values", "different values" if a != b else f"both {exact_str(a)}",
        "closed-form-table", passed=(a != b),
    )
    rep.add("value at w", exact_str(a), exact_str(a), "closed-form-table")
    rep.add("value at w*w0", exact_str(b), exact_str(b), "closed-form-table")


def _suite_spectrum(rep: Report, p: dict) -> None:
    from .group import get_group
    from .measures import h_measure, spectrum_product

    x = p["x"]
    for t in p["types"]:
        g = get_group(t)
        h = h_measure(g, x)
        # the walk matrix M[u][w] = H(u^-1 w) is right convolution by H: each
        # row holds H's values once each, and its polynomials are H's in the
        # descent algebra
        values = h.descent_table()
        row_sum = sum(n * values[d] for d, n in g.measure_counts("descent").items())
        rep.add(f"{t} x={x}: rows sum to 1", "stochastic",
                "stochastic" if row_sum == 1 else "defective", "identity")
        rep.add(f"{t} x={x}: product of (M - x^-i I) for i = 0..rank", "zero matrix",
                "zero matrix" if not any(spectrum_product(h)) else "nonzero",
                "minimal-polynomial")


def _suite_walk_oracle(rep: Report, p: dict) -> None:
    from .group import get_group
    from .measures import bhr_step, face_weights, h_measure

    for t in p["types"]:
        g = get_group(t)
        for x in p["xs"]:
            walked = bhr_step(g, face_weights(g, x, "definition"))
            rep.add(f"{t} x={x}: one walk step vs measure", "equal",
                    "equal" if walked == h_measure(g, x, "definition") else "different",
                    "coset-minima")


def _suite_nonnegativity(rep: Report, p: dict) -> None:
    from .group import get_group
    from .measures import face_weights, h_measure

    for t, xs in p["grid"]:
        g = get_group(t)
        for x in xs:
            fw = face_weights(g, x, "definition")
            m = h_measure(g, x, "definition")
            ok = fw.min_value() >= 0 and m.min_value() >= 0
            rep.add(f"{t} x={x}: face weights and measure nonnegative",
                    "nonnegative", "nonnegative" if ok else "negative value found",
                    "good-prime-claim")


# -- orbit suites ---------------------------------------------------------------


def _suite_problem1(rep: Report, p: dict) -> None:
    from .group import get_group
    from .measures import h_measure, pushforward_classes
    from .orbits import (identity_class_label, identity_class_prediction,
                         orbit_class_distribution, orbit_family)

    tag = rep.suite[-1]  # problem1_A or problem1_B
    spot_dist = None
    for n, q in p["grid"]:
        fam = orbit_family(tag, n, q)
        dist = orbit_class_distribution(fam)
        if (tag, n, q) == ("A", 3, 7):
            spot_dist = dist
        group_type = f"A{n - 1}" if tag == "A" else f"B{n}"
        g = get_group(group_type)
        push = pushforward_classes(h_measure(g, q, "definition"))
        # one row per class: orbit count vs q^rank * measure mass
        labels = sorted(set(dist.nonzero()) | set(push.nonzero()),
                        key=lambda k: k.sort_key())
        total = fam.orbit_count
        for label in labels:
            orbit_count = dist.values.get(label, Fraction(0)) * total
            mass_scaled = push.values.get(label, Fraction(0)) * total
            rep.add(
                f"{tag} n={n} q={q} class {label}: orbit count vs q^r * measure mass",
                mass_scaled, orbit_count, "exhaustive",
            )
        count = dist.values.get(identity_class_label(fam), Fraction(0)) * total
        pred = identity_class_prediction(fam)
        rep.add(f"{tag} n={n} q={q}: identity-class orbit count", pred, count,
                "product-formula")
    if spot_dist is not None:
        spot = {str(k): str(v) for k, v in spot_dist.sorted_items()}
        rep.add("spot values for (3,7)",
                "{(1,1,1): 12/49, (2,1): 3/7, (3): 16/49}",
                "{" + ", ".join(f"{k}: {v}" for k, v in sorted(spot.items())) + "}",
                "exhaustive")


def _suite_sl35(rep: Report, p: dict) -> None:
    from .orbits import split_census_constant_one

    census, prediction = split_census_constant_one(p["n"], p["q"])
    rep.add("census of split monics with constant term 1", 5, census, "exhaustive")
    rep.add("orbit-side prediction", 7, int(prediction), "product-formula")
    rep.add("mismatch is expected", "census != prediction",
            "census != prediction" if census != prediction else "equal",
            "counterexample", passed=(census != prediction))


# -- bijection suites -------------------------------------------------------------


def _suite_gr_census(rep: Report, p: dict) -> None:
    from .necklaces import cycles_string, gessel_reutenauer, refine_census

    one, cyc = gessel_reutenauer([(1, 2), (1, 2), (2,), (2, 3), (2, 3, 2, 3, 3)])
    rep.add("worked multiset example", "(1 3)(2 4)(5)(6 9)(7 11 8 12 10)",
            cycles_string(cyc), "worked-example")
    for q, n, mode in p["grid"]:
        counts = refine_census(q, n, mode)
        # w's count C(q + n - 1 - d, n) is q^n times the riffle shuffle's law
        shifts, den = card_law("A", n)
        expect = [prod(q + c for c in s) // den for s in shifts]
        bad = [w for w in itertools.permutations(range(1, n + 1))
               if counts.get(w, 0) != expect[descent_number(w)]]
        rep.add(f"p={q} n={n} {mode}: per-element counts C(p+n-1-d(w), n)",
                "all match", "all match" if not bad else f"mismatch at {bad[:3]}",
                "exhaustive")
        rep.add(f"p={q} n={n} {mode}: total count", q**n, sum(counts.values()),
                "exhaustive")


def _suite_reiner_counts(rep: Report, p: dict) -> None:
    from .group import get_group
    from .necklaces import enumerate_signed_ornaments

    for n, q in p["grid"]:
        if n < 1 or q < 1 or q % 2 == 0:
            raise ValueError(f"reiner_counts needs n >= 1 and an odd q >= 1, not n = {n}, q = {q}")
        # w's s-vector count C((q-1)/2 + n - d, n) is q^n times the flip shuffle's law
        shifts, den = card_law("B", n)
        counts = [prod(q + c for c in s) // den for s in shifts]
        if n == 1:
            # rank-1 hyperoctahedral group: two elements, d(id) = 0, d(s) = 1
            total = sum(counts)
        else:
            g = get_group(f"B{n}")
            by_type = {c.label.data: sum(k * counts[D.bit_count()] for D, k in zip(*row))
                       for c, row in zip(g.conjugacy_classes(), g.class_descent_counts())}
            total = sum(by_type.values())
        rep.add(f"n={n} q={q}: sum over the group of s-vector counts", q**n, total,
                "bijection-cardinality")
        if n >= 2:
            orn_by_type: Dict[tuple, int] = {}
            for o in enumerate_signed_ornaments(n, q):
                tp = o.type_pair()
                orn_by_type[tp] = orn_by_type.get(tp, 0) + 1
            ok = all(by_type.get(tp, 0) == c for tp, c in orn_by_type.items()) and all(
                orn_by_type.get(tp, 0) == c for tp, c in by_type.items()
            )
            rep.add(f"n={n} q={q}: per-type s-vector counts vs ornament counts",
                    "equal", "equal" if ok else "different", "bijection-type")


def _suite_ornament_counts(rep: Report, p: dict) -> None:
    from .necklaces import count_signed_ornaments

    for n, q in p["grid"]:
        c = count_signed_ornaments(n, q)
        rep.add(f"n={n} q={q}: number of signed ornaments", q**n, c, "exhaustive")


def _suite_sampler_tv(rep: Report, p: dict) -> None:
    from .shuffling import empirical_law, exact_law, tv_distance

    count, seed, tol = p["count"], p["seed"], Fraction(p["tolerance"])
    for model, n, x in [("gsr_a", 4, 2), ("typeB_flip", 3, 3)]:
        tv = tv_distance(empirical_law(model, n, x, count, seed), exact_law(model, n, x))
        rep.add(
            f"{model} n={n} x={x}: TV(empirical {count} samples, exact law) <= {exact_str(tol)}",
            f"<= {exact_str(tol)}", exact_str(tv), "statistical", passed=(tv <= tol),
        )


# One entry per suite: (runner, default parameters, verify flags, (n, q) rule).
# ``run_suite`` makes the suite's Report under its name and the runner fills
# it.  The flags are those that override the defaults: --type the types, --n
# and --q the grid, --seed the seed, and --x the xs where the defaults have
# them and the x otherwise.  Any other flag is a usage error, since the suite
# would run its default grid and record the ignored value in its report.  A
# suite whose grid holds (n, q) pairs has the rule (family, least n, greatest
# n or None): --q must be very good for A_{n-1} or B_n, and n stays within
# the supported ranks of the group the suite builds (``card_range``, read
# from the family table; reiner_counts counts n = 1 by hand; ornament_counts
# builds none).
SUITES: Dict[str, tuple] = {
    "triple_agreement": (_suite_triple_agreement,
                         {"types": ALL_TYPES, "xs": [2, 3, 5, 7, -1, Fraction(1, 2)]},
                         ("--type", "--x"), None),
    "longshort": (_suite_longshort, {"types": ALL_TYPES, "xs": [2, 3, 7, -1]},
                  ("--type", "--x"), None),
    "sommers": (_suite_sommers,
                {"grid": [("A1", 2), ("A1", 3), ("A2", 2), ("A2", 5), ("A3", 2), ("A3", 5),
                          ("B2", 3), ("B2", 5), ("B3", 3), ("B3", 5), ("G2", 5), ("G2", 7)]},
                (), None),
    "convolution": (_suite_convolution,
                    {"types": ["A1", "A2", "A3", "A4", "B2", "B3", "I2(2)", "I2(3)", "I2(4)",
                               "I2(5)", "I2(6)", "H3"],
                     "x": 2, "y": 3},
                    ("--type", "--x"), None),
    "h4_counterexample": (_suite_h4_counterexample, {"x": 2}, ("--x",), None),
    "spectrum": (_suite_spectrum, {"types": ["A2", "B2", "G2"], "x": 2},
                 ("--type", "--x"), None),
    "walk_oracle": (_suite_walk_oracle, {"types": ALL_TYPES, "xs": [2, 3]},
                    ("--type", "--x"), None),
    "nonnegativity": (_suite_nonnegativity,
                      {"grid": [("A1", [2, 3, 5, 7]), ("A2", [2, 3, 5, 7]),
                                ("A3", [2, 3, 5, 7]), ("A4", [2, 3, 5, 7]), ("B2", [3, 5, 7]),
                                ("B3", [3, 5, 7]), ("G2", [5, 7])]},
                      (), None),
    "problem1_A": (_suite_problem1,
                   {"grid": [(2, 5), (2, 7), (3, 5), (3, 7), (4, 5), (4, 7)]},
                   ("--n", "--q"), ("A", *card_range("A"))),
    "problem1_B": (_suite_problem1,
                   {"grid": [(2, 3), (2, 5), (3, 3), (3, 5)]},
                   ("--n", "--q"), ("B", *card_range("B"))),
    "sl35_counterexample": (_suite_sl35, {"n": 3, "q": 5}, (), None),
    "gr_census": (_suite_gr_census,
                  {"grid": [(5, 3, "normal_basis"), (3, 2, "normal_basis"),
                            (3, 3, "normal_basis"), (3, 4, "normal_basis"),
                            (5, 3, "golomb"), (3, 4, "golomb")]},
                  (), None),
    "reiner_counts": (_suite_reiner_counts,
                      {"grid": [(n, q) for n in (1, 2, 3, 4) for q in (3, 5, 7)]},
                      ("--n", "--q"), ("B", 1, card_range("B")[1])),
    "ornament_counts": (_suite_ornament_counts,
                        {"grid": [(n, q) for n in (1, 2, 3, 4) for q in (3, 5, 7)]},
                        ("--n", "--q"), ("B", 1, None)),
    "sampler_tv": (_suite_sampler_tv,
                   {"count": 100000, "seed": 7, "tolerance": Fraction(1, 50)},
                   ("--seed",), None),
}
