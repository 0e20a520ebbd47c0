"""Command-line entry point.

Subcommands:
  coxeter dump   element / class / parabolic tables for one group
  lattice        flats of the reflection arrangement
  measure        the shuffling measure as a descent-set table
  sample         physical shuffle sampler, with optional exact comparison
  orbits         orbit representatives with factorizations and class labels
  bijection      Gessel-Reutenauer tools (gr, refine)
  verify         run a verification suite; exit 0 iff it passes

Exit codes: 0 pass, 1 fail, 2 usage error (a bad argument, a flag the
chosen suite does not read, or an output file that cannot be written).

Each ``coxshuffle verify`` is a fresh process, so start-up is paid per
suite.  A run adds the arguments of its own command only, and each command
imports the modules it runs when it runs: the import of this module loads
no group, lattice, measure, orbit or F_q code, and ``verify`` loads just
its suite's modules, inside the suite, so they count in the report's
``wall_time_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .report import exact_str
from .suites import SUITES, run_suite


# the most entries `sample` prints, as for orbit representatives
SAMPLE_ENTRIES_MAX = 10**6


def _write_out(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _check_n(n: int, least: int, greatest: Optional[int], cmd: str):
    if n < least or (greatest is not None and n > greatest):
        if greatest is None:
            allowed = f">= {least}"
        else:
            allowed = f"{least}" if least == greatest else f"in {least}..{greatest}"
        raise ValueError(f"{cmd} needs --n {allowed}, not {n}")


def _check_q(q: int, family: str, n: int, cmd: str, very_good: bool = True,
             prime_power: bool = False) -> Tuple[int, int]:
    """(p, e) with q = p^e: --q is a prime, or with prime_power a power of a
    prime; odd for type B; and with very_good, prime to n for A_{n-1},
    which the characteristic p decides."""
    from .gfpoly import _prime_factors, is_prime

    primes = _prime_factors(q) if prime_power else [q] if is_prime(q) else []
    if len(primes) != 1:
        raise ValueError(f"{cmd} needs --q a prime{' power' if prime_power else ''}, not {q}")
    p, e = primes[0], 1
    while p**e < q:
        e += 1
    if family == "B" and p == 2:
        raise ValueError(f"{cmd} needs an odd --q: {q} is not very good for B{n}")
    if very_good and family == "A" and n % p == 0:
        raise ValueError(f"{cmd} needs --q prime to --n: {p} divides {n}, "
                         f"so it is not very good for A{n - 1}")
    return p, e


def _parse_x(s: str) -> Fraction:
    """One --x value: a nonzero rational, as every command that reads --x needs."""
    try:
        x = Fraction(s)
    except ZeroDivisionError:  # "1/0": a usage error like any other bad rational
        raise ValueError(f"--x {s!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"--x {s!r} is not a rational number") from None
    if x == 0:
        raise ValueError(f"--x {s!r} must be nonzero")
    return x


def _check_type(name: str):
    """The registry group that a --type value names; any other value is a
    usage error that names the flag.  The group holds its rank-level data
    only; the command's table builds the rest on first use."""
    from .group import get_group
    from .rootdata import UnsupportedTypeError

    try:
        return get_group(name)
    except UnsupportedTypeError as exc:
        raise ValueError(f"--type {name!r}: {exc}") from None


def _parse_ints(parts, flag: str, given: str) -> List[int]:
    """The integers of a flag value's parts; any other part is a usage error
    that names the flag."""
    out = []
    for part in parts:
        try:
            out.append(int(part))
        except ValueError:
            raise ValueError(f"{flag} {given!r}: {part!r} is not an integer") from None
    return out


def cmd_coxeter(args) -> int:
    from .tables import classes_table, elements_table, parabolics_table

    table = {"elements": elements_table, "classes": classes_table,
             "parabolics": parabolics_table}[args.what]
    _write_out(table(_check_type(args.type), args.format), args.out)
    return 0


def cmd_lattice(args) -> int:
    from .tables import lattice_table

    _write_out(lattice_table(_check_type(args.type), args.format), args.emit)
    return 0


def cmd_measure(args) -> int:
    from .tables import measure_table

    xs = [_parse_x(part) for part in args.x.split(",")]
    _write_out(measure_table(_check_type(args.type), xs, args.method, args.format), args.out)
    return 0


def cmd_sample(args) -> int:
    import random

    from .rootdata import card_range
    from .shuffling import _flip_even, empirical_law, exact_law, sample_shuffle, tv_distance

    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
    try:
        _flip_even(args.model, args.x)
    except ValueError as exc:
        raise ValueError(f"sample --model {args.model} --x {args.x}: {exc}") from None
    # an exact comparison needs the group A_{n-1} or B_n
    n_range = card_range("A" if args.model == "gsr_a" else "B") if args.compare else (1, None)
    _check_n(args.n, *n_range, f"sample --model {args.model}")
    # the printed list holds one entry per card per sample; bounded before any draw
    if not args.compare and args.n * args.count > SAMPLE_ENTRIES_MAX:
        raise ValueError(f"sample would print {args.n * args.count} entries "
                         f"(--n {args.n} times --count {args.count}), "
                         f"more than {SAMPLE_ENTRIES_MAX}")
    if args.compare == "exact":
        emp = empirical_law(args.model, args.n, args.x, args.count, args.seed)
        tv = tv_distance(emp, exact_law(args.model, args.n, args.x))
        out = {
            "model": args.model,
            "n": args.n,
            "x": args.x,
            "count": args.count,
            "seed": args.seed,
            "tv_exact": exact_str(tv),
            "tv_float": float(tv),
        }
        _write_out(json.dumps(out, indent=2), args.out)
    else:
        rng = random.Random(args.seed)
        samples = [
            list(sample_shuffle(args.model, args.n, args.x, rng=rng))
            for _ in range(args.count)
        ]
        _write_out(json.dumps(samples), args.out)
    return 0


def cmd_orbits(args) -> int:
    from .orbits import orbit_family
    from .tables import orbits_table

    _check_n(args.n, 1, None, "orbits")
    # the orbits of a family whose q is not very good are listed all the same
    p, e = _check_q(args.q, args.family, args.n, "orbits", very_good=False, prime_power=True)
    # the field has p^e elements, as orbit_family reads its q and e
    _write_out(orbits_table(orbit_family(args.family, args.n, p, e), args.format), args.emit)
    return 0


def cmd_bijection(args) -> int:
    from .necklaces import (canonicalize_necklace, cycles_string, gessel_reutenauer,
                            refine_census, refine_phi_A)

    if args.bijection_cmd == "gr":
        parts = args.necklaces.split(",")
        necklaces = [tuple(_parse_ints(part, "--necklaces", args.necklaces)) for part in parts]
        if not all(necklaces):
            raise ValueError(f"--necklaces {args.necklaces!r}: every necklace must be nonempty")
        # Gessel-Reutenauer is defined on multisets of primitive necklaces only
        for part, w in zip(parts, necklaces):
            if not canonicalize_necklace("plain", w)[1]:
                raise ValueError(f"--necklaces {args.necklaces!r}: {part!r} is not primitive "
                                 "(a power of a shorter word)")
        _, cycles = gessel_reutenauer(necklaces)
        _write_out(cycles_string(cycles), args.out)
        return 0
    # refine
    from .gfpoly import FqContext, FqPoly, is_prime

    _check_n(args.n, 1, None, "bijection refine")
    if not is_prime(args.p):
        raise ValueError(f"bijection refine needs --p a prime, not {args.p}")
    if args.census:
        # keyed by the permutation's digits; from n = 11 on two permutations
        # can share a key, and their counts add
        counts = {}
        for w, c in refine_census(args.p, args.n, args.mode).items():
            key = "".join(map(str, w))
            counts[key] = counts.get(key, 0) + c
        _write_out(json.dumps(dict(sorted(counts.items())), indent=2), args.out)
        return 0
    if not args.poly:
        raise ValueError("bijection refine needs --poly coefficients or --census")
    f = FqPoly.from_ints(FqContext.get(args.p),
                         _parse_ints(args.poly.split(","), "--poly", args.poly))
    if not f.is_monic or f.degree < 1:
        raise ValueError(f"--poly {args.poly!r}: need a monic polynomial of degree >= 1 "
                         f"over F_{args.p}")
    _check_n(args.n, f.degree, f.degree,
             f"bijection refine --poly {args.poly} (degree {f.degree})")
    w, cycles = refine_phi_A(f, args.mode)
    _write_out(json.dumps({"poly": str(f), "permutation": list(w), "cycles": cycles}), args.out)
    return 0


def cmd_verify(args) -> int:
    name = args.suite
    if name == "problem1":  # dispatch on --family
        if args.family not in ("A", "B"):
            raise ValueError("verify problem1 needs --family A or --family B")
        name = f"problem1_{args.family}"
    elif args.family is not None:
        raise ValueError(f"verify {name} does not read --family; only problem1 does")
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    _, defaults, reads, grid_rule = SUITES[name]
    given = {"--type": args.type, "--n": args.n, "--q": args.q, "--x": args.x,
             "--seed": args.seed}
    for flag, value in given.items():
        if value is not None and flag not in reads:
            known = ", ".join(reads) or "none; it runs only its default grid"
            raise ValueError(f"verify {name} does not read {flag} (flags it reads: {known})")
    if (args.n is None) != (args.q is None):
        raise ValueError(f"verify {name}: --n and --q must be given together")
    for t in args.type or ():
        _check_type(t)
    if args.n is not None:
        family, least, greatest = grid_rule
        _check_n(args.n, least, greatest, f"verify {name}")
        _check_q(args.q, family, args.n, f"verify {name}")
    overrides = {}
    if args.type:
        overrides["types"] = args.type
    if args.n is not None:
        overrides["grid"] = [(args.n, args.q)]
    if args.x is not None:
        # an integral x as an int, as the default grids hold it, so that
        # "--x 2" writes the default run's "2", not "2/1"
        xs = [x.numerator if x.denominator == 1 else x for x in map(_parse_x, args.x)]
        if "xs" in defaults:
            overrides["xs"] = xs
        elif len(xs) > 1:
            raise ValueError(f"verify {name} reads one --x, not {len(xs)}")
        else:
            overrides["x"] = xs[0]
    if args.seed is not None:
        overrides["seed"] = args.seed
    report = run_suite(name, overrides)

    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(report.summary_line())
    else:
        print(text)
        print(report.summary_line(), file=sys.stderr)
    return 0 if report.passed else 1


def _add_coxeter(p: argparse.ArgumentParser) -> None:
    csub = p.add_subparsers(dest="coxeter_cmd", required=True)
    pd = csub.add_parser("dump", help="dump element/class/parabolic tables", allow_abbrev=False)
    pd.add_argument("--type", required=True, help="A3, B2, D4, G2, I2(5), H3, H4")
    pd.add_argument("--what", choices=["elements", "classes", "parabolics"], required=True)
    pd.add_argument("--format", choices=["csv", "json"], default="csv")
    pd.add_argument("--out")
    pd.set_defaults(func=cmd_coxeter)


def _add_lattice(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--emit", help="output file (default stdout)")
    p.set_defaults(func=cmd_lattice)


def _add_measure(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True)
    p.add_argument("--x", required=True, help="nonzero rational, e.g. 2 or 1/2")
    p.add_argument("--method", choices=["definition", "os_sign", "closed_form"],
                   default="definition")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_measure)


def _add_sample(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["gsr_a", "typeB_flip"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compare", choices=["exact"], default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)


def _add_orbits(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["A", "B"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--emit")
    p.set_defaults(func=cmd_orbits)


def _add_bijection(p: argparse.ArgumentParser) -> None:
    bsub = p.add_subparsers(dest="bijection_cmd", required=True)
    pg = bsub.add_parser("gr", help="Gessel-Reutenauer on a necklace multiset", allow_abbrev=False)
    pg.add_argument("--necklaces", required=True, help='e.g. "12,12,2,23,23233"')
    pg.add_argument("--out")
    pg.set_defaults(func=cmd_bijection)
    pr = bsub.add_parser("refine", help="polynomial to permutation", allow_abbrev=False)
    pr.add_argument("--family", choices=["A"], default="A")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--p", type=int, required=True)
    pr.add_argument("--mode", choices=["golomb", "normal_basis"], default="normal_basis")
    pr.add_argument("--census", action="store_true", help="per-permutation counts over all monics")
    pr.add_argument("--poly", help="comma-separated coefficients, low to high")
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_bijection)


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", help=", ".join(sorted(SUITES)) + ", problem1")
    p.add_argument("--type", action="append", help="override the type grid (repeatable)")
    p.add_argument("--family", choices=["A", "B"], help="for the problem1 alias")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--x", action="append", help="override x (repeatable)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(func=cmd_verify)


# subcommand -> (its help, the function that adds its arguments)
_COMMANDS = {
    "coxeter": ("group tables", _add_coxeter),
    "lattice": ("arrangement flats", _add_lattice),
    "measure": ("shuffling measure table", _add_measure),
    "sample": ("physical shuffle sampler", _add_sample),
    "orbits": ("orbit representatives", _add_orbits),
    "bijection": ("necklace bijections", _add_bijection),
    "verify": ("run a verification suite", _add_verify),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subcommand is listed with its help, but only
    ``command``'s arguments are added, or every command's when it is None;
    a run parses one command, so it need not build the other six."""
    parser = argparse.ArgumentParser(
        prog="coxshuffle",
        allow_abbrev=False,
        description="Exact shuffling measures on finite Coxeter groups, orbit models "
        "over finite fields, and exhaustive verification suites.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if command in (None, name):
            add_arguments(p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argv[0] names the command whenever it is one: the top level reads no
    # option but -h, so the first word is the subcommand's
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
