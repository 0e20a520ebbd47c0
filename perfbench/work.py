"""Child process of the benchmark: one workload, or the traced layer run.

    python3 perfbench/work.py warm_measures --seed 1 --seconds 25
    python3 perfbench/work.py fq_classmap --seed 1 --seconds 25
    python3 perfbench/work.py layers --seed 1 --trace-file perfbench/out/trace.jsonl

Set-up time runs from this script's first statement, so it holds the
package import and every build the timed part relies on, but not the
interpreter's own start-up.  ``--setup-only`` stops after set-up.  The last
line of standard output is one JSON object; ``run.py`` reads it.

The timed part runs whole rounds of the same operations until ``--seconds``
have passed.  Each round's outputs are kept, checked against ``oracles``
after the round, and dropped; no check runs inside a timed interval.  Set-up
and every op are timed with ``speed.Speed``: scaled by a reference run
between ops and every 50 ms, so that changes of host speed cancel; the raw
times go along.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # the script's first statement: set-up starts here

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
from speed import Speed  # noqa: E402

MEASURE_TYPES = ("A4", "A5", "B4", "D4", "H3", "H4")
CLOSED_FORM_TYPES = {"A4", "A5", "B4", "H3", "H4"}
CONVOLVE_MAX = 400  # |W| above which the dense group-algebra product is skipped
# (tag, n, q): very-good families; tag A uses degree-n polynomials (W = S_n)
FQ_FAMILIES = (("A", 5, 7), ("A", 4, 11), ("A", 6, 5), ("B", 3, 11), ("B", 4, 7))
FQ_OPS_PER_ROUND = 100


def import_package():
    import coxshuffle

    if not Path(coxshuffle.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"coxshuffle imported from {coxshuffle.__file__}, not {SRC}")
    return coxshuffle


def methods_for(type_name: str):
    extra = ("closed_form",) if type_name in CLOSED_FORM_TYPES else ()
    return ("definition", "os_sign") + extra


# The x the measure suites run, one entry per use in the DEFAULT_PARAMS of
# triple_agreement (2, 3, 5, 7, -1, 1/2), longshort (2, 3, 7, -1),
# walk_oracle (2, 3) and convolution (x = 2, y = 3).  Small odd integers and
# -1 make many measure values vanish, so those ops are cheaper: the mix of
# cheap and dear ops is the suites' own.
SUITE_XS = tuple(map(Fraction, (2, 3, 5, 7, -1, Fraction(1, 2), 2, 3, 7, -1, 2, 3, 2, 3)))


def x_list(seed: int):
    """One round of x: SUITE_XS plus two seeded non-integral fractions p/q,
    one of each sign, 1 <= p <= 9, 2 <= q <= 5, in a seeded order."""
    rng = random.Random(seed)
    xs = list(SUITE_XS)
    for sign in (1, -1):
        while True:
            f = Fraction(rng.randint(1, 9), rng.randint(2, 5))
            if f.denominator > 1:
                break
        xs.append(sign * f)
    rng.shuffle(xs)
    return xs


def sieve_degrees():
    """{q: largest irreducible degree factor() trial-divides by}: half the
    polynomial degree, n for type A and 2n for type B."""
    out = {}
    for tag, n, q in FQ_FAMILIES:
        out[q] = max(out.get(q, 0), (n if tag == "A" else 2 * n) // 2)
    return dict(sorted(out.items()))


def timed_rounds(speed: Speed, seconds: float, run_round, check_round):
    """Whole rounds until `seconds` have passed.  `run_round()` is a
    generator that does one op per step and yields its output; a speed mark
    is taken between steps.  Returns the timing record (per-round raw walls,
    per-round lists of scaled and of raw op times) and oracle problems."""
    rec = {"rounds_s": [], "op_s": [], "op_raw_s": []}
    problems = []
    start = time.monotonic()
    while not rec["rounds_s"] or time.monotonic() - start < seconds:
        t0 = time.monotonic()
        marks, outputs = [speed.mark()], []
        for out in run_round():
            marks.append(speed.mark())
            outputs.append(out)
        rec["rounds_s"].append(time.monotonic() - t0)
        spans = list(zip(marks, marks[1:]))
        rec["op_s"].append([speed.scaled(a, b) for a, b in spans])
        rec["op_raw_s"].append([speed.raw(a, b) for a, b in spans])
        problems += check_round(outputs)
    return rec, problems


def run_timed(args, setup, run_round, check_round, check_state=None):
    """Set-up, then the timed rounds, with the speed reference sampled from
    the start; setup_s runs from STARTED to the end of set-up.
    `check_state(state)` gives oracle problems of the set-up's own outputs."""
    speed = Speed()
    start = speed.mark()
    speed.start()
    state = setup()
    end = speed.mark()
    setup_s = speed.scaled(start, end, since=STARTED)
    setup_raw_s = speed.raw_since(STARTED, end)
    if args.setup_only:
        speed.stop()
        return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    rec, problems = timed_rounds(speed, args.seconds, lambda: run_round(state),
                                 lambda out: check_round(state, out))
    speed.stop()
    if check_state:
        problems += check_state(state)
    return {"setup_s": setup_s, "setup_raw_s": setup_raw_s, **rec, "failed": 0,
            "problems": problems}


# -- warm_measures ----------------------------------------------------------------


def warm_setup():
    import_package()
    from coxshuffle.group import get_group
    from coxshuffle.measures import bhr_step, face_weights, get_lattice, h_measure

    state = {}
    for t in MEASURE_TYPES:
        g = get_group(t)
        get_lattice(g)
        for m in methods_for(t):
            h_measure(g, 2, m)
        g.conjugacy_classes()
        bhr_step(g, face_weights(g, 2))
        h2 = h_measure(g, 2) if g.size <= CONVOLVE_MAX else None
        state[t] = (g, h2)
    return state


def warm_round(state, xs):
    for x in xs:
        yield warm_op(state, x)


def warm_op(state, x):
    from coxshuffle.measures import (bhr_step, convolve, face_weights, h_measure,
                                     longshort_values, pushforward_classes)

    out = []
    for t in MEASURE_TYPES:
        g, h2 = state[t]
        ms = [h_measure(g, x, m) for m in methods_for(t)]
        agree = all(m == ms[0] for m in ms[1:])
        ls = longshort_values(g, x)
        push = pushforward_classes(ms[0])
        walk_agrees = bhr_step(g, face_weights(g, x)) == ms[0]
        conv = convolve(ms[0], h2) if h2 is not None else None
        out.append((t, x, ms, agree, ls, push, walk_agrees, conv))
    return out


def warm_check(state, outputs):
    errs = []
    for t, x, ms, agree, ls, push, walk_agrees, conv in itertools.chain.from_iterable(outputs):
        g = state[t][0]
        fam = t[0]
        lines = g.one_line if fam in "AB" else None
        if not agree:
            errs.append(f"{t} x={x}: methods disagree")
        for m in ms:
            errs += oracles.check_measure(t, x, m.dense(), g.longest_index, lines)
        if tuple(ls) != oracles.longshort(t, x):
            errs.append(f"{t} x={x}: longshort_values {ls} != exponent table")
        if not walk_agrees:
            errs.append(f"{t} x={x}: walk step differs from the measure")
        if fam in "AB":
            errs += oracles.check_class_measure(t, x, {k.data: v for k, v in push.values.items()})
        elif sum(push.values.values()) != 1:
            errs.append(f"{t} x={x}: class pushforward does not sum to 1")
        if conv is not None:
            if oracles.exact_sum(conv.dense()) != 1:
                errs.append(f"{t} x={x}: H_x * H_2 does not sum to 1")
            if fam in "AB":  # H_x * H_2 = H_2x holds on types A and B
                errs += oracles.check_dense_formula(t, 2 * x, conv.dense(), lines)
    return errs


def lattice_check(state):
    from coxshuffle.measures import get_lattice

    errs = []
    for t in MEASURE_TYPES:
        g = state[t][0]
        lat = get_lattice(g)
        errs += oracles.check_group(t, g.size, lat.char_poly(lat.bottom_id()).coefficients)
    return errs


def run_warm_measures(args):
    xs = x_list(args.seed)
    out = run_timed(args, warm_setup, lambda state: warm_round(state, xs), warm_check,
                    lattice_check)
    out["x"] = [str(x) for x in xs]
    return out


# -- fq_classmap ------------------------------------------------------------------


def fq_setup():
    import_package()
    from coxshuffle.gfpoly import FqContext, irreducibles
    from coxshuffle.orbits import orbit_family

    fams = [orbit_family(tag, n, q) for tag, n, q in FQ_FAMILIES]
    for q, top in sieve_degrees().items():
        for d in range(1, top + 1):
            irreducibles(FqContext.get(q), d)
    return fams


def fq_round(fams):
    """Op k takes the k-th of FQ_OPS_PER_ROUND equal slices of every family,
    so that every op has the same mix of type-A and type-B orbits; each op
    yields the running class counts and the family generators."""
    from coxshuffle.orbits import enumerate_orbits, phi_map

    gens = [enumerate_orbits(fam) for fam in fams]
    counts = [dict() for _ in fams]
    k_ops = FQ_OPS_PER_ROUND
    for k in range(k_ops):
        for fam, gen, cnt in zip(fams, gens, counts):
            size = fam.orbit_count
            take = (k + 1) * size // k_ops - k * size // k_ops
            for f in itertools.islice(gen, take):
                label = phi_map(fam, f)
                cnt[label] = cnt.get(label, 0) + 1
        yield counts, gens


def fq_check(fams, outputs):
    counts, gens = outputs[-1]
    leftover = sum(1 for gen in gens for _ in gen)
    errs = [f"{leftover} orbits left after the last op"] if leftover else []
    for fam, cnt in zip(fams, counts):
        errs += oracles.check_fq_family(fam.tag, fam.n, fam.q, {k.data: v for k, v in cnt.items()})
    return errs


def run_fq_classmap(args):
    return run_timed(args, fq_setup, fq_round, fq_check)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["warm_measures", "fq_classmap", "layers"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)
    if args.mode == "layers":
        import layers

        import_package()
        metrics, problems = layers.run(args.seed, args.trace_file)
        result = {"metrics": metrics, "problems": problems}
    else:
        fn = run_warm_measures if args.mode == "warm_measures" else run_fq_classmap
        result = fn(args)
    import coxshuffle

    result["kernel_backend"] = getattr(coxshuffle, "KERNEL_BACKEND", "none")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
