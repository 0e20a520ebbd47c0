"""Correctness oracles for the benchmark, computed apart from coxshuffle.

Nothing here imports the package.  Every expected value comes from the
hard-coded Coxeter exponent table below (Orlik-Solomon, "Coxeter
arrangements", 1983: chi(t) = prod (t - m_i)), from closed formulas in the
descent number of a permutation, or from the necklace count of monic
irreducibles.  Each ``check_*`` function returns a list of problems; an
empty list means the output holds.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_EXCEPTIONAL = {"D4": (1, 3, 3, 5), "G2": (1, 5), "H3": (1, 5, 9), "H4": (1, 11, 19, 29)}


def exponents(type_name: str) -> Tuple[int, ...]:
    """Coxeter exponents: A_n 1..n; B_n 1, 3, ..., 2n-1; I2(m) 1, m-1; and
    the table entries for D4, G2, H3, H4."""
    t = type_name.strip().upper()
    if t in _EXCEPTIONAL:
        return _EXCEPTIONAL[t]
    if t.startswith("I2"):
        m = int(t[2:].strip("()"))
        return (1, m - 1)
    fam, rank = t[0], int(t[1:])
    if fam == "A":
        return tuple(range(1, rank + 1))
    if fam == "B":
        return tuple(range(1, 2 * rank, 2))
    raise ValueError(f"no exponents for {type_name!r}")


def group_order(type_name: str) -> int:
    out = 1
    for m in exponents(type_name):
        out *= m + 1
    return out


def char_poly_coeffs(type_name: str) -> Tuple[int, ...]:
    """prod (t - m_i), low degree first."""
    coeffs = [1]
    for m in exponents(type_name):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= m * c
            nxt[i + 1] += c
        coeffs = nxt
    return tuple(coeffs)


def longshort(type_name: str, x) -> Tuple[Fraction, Fraction]:
    """(value at the longest element, value at the identity) of H(W, x):
    prod (x -+ m_i) / (x^r |W|)."""
    x = Fraction(x)
    exps = exponents(type_name)
    denom = x ** len(exps) * group_order(type_name)
    at_w0 = at_id = Fraction(1)
    for m in exps:
        at_w0 *= x - m
        at_id *= x + m
    return at_w0 / denom, at_id / denom


def identity_class_count(exps: Sequence[int], q: int) -> Fraction:
    out = Fraction(1)
    for m in exps:
        out *= Fraction(q + m, 1 + m)
    return out


# -- per-element closed forms ----------------------------------------------------


def binom(y, n: int) -> Fraction:
    num = Fraction(1)
    for j in range(n):
        num *= Fraction(y) - j
    return num / factorial(n)


def descents_a(w: Sequence[int]) -> int:
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def descents_b(w: Sequence[int]) -> int:
    """Type-B descent number with the convention w(0) = 0."""
    full = (0,) + tuple(w)
    return sum(1 for i in range(len(w)) if full[i] > full[i + 1])


def h_type_a(n: int, x, d: int) -> Fraction:
    """H(S_n, x) at a permutation with d descents: C(x+n-1-d, n) / x^n."""
    x = Fraction(x)
    return binom(x + n - 1 - d, n) / x**n


def h_type_b(n: int, x, d: int) -> Fraction:
    """H(B_n, x) at a signed permutation with d descents:
    prod_{i=1..n} (x + 2i - 1 - 2d) / (x^n 2^n n!)."""
    x = Fraction(x)
    num = Fraction(1)
    for i in range(1, n + 1):
        num *= x + 2 * i - 1 - 2 * d
    return num / (x**n * 2**n * factorial(n))


def cycle_type(w: Sequence[int]) -> tuple:
    n, seen, parts = len(w), set(), []
    for s in range(1, n + 1):
        if s in seen:
            continue
        ln, j = 0, s
        while j not in seen:
            seen.add(j)
            j = w[j - 1]
            ln += 1
        parts.append(ln)
    return tuple(sorted(parts, reverse=True))


def signed_cycle_type(w: Sequence[int]) -> tuple:
    """(lengths of positive cycles, lengths of negative cycles)."""
    n, seen, pos, neg = len(w), set(), [], []
    for s in range(1, n + 1):
        if s in seen:
            continue
        ln, sign, j = 0, 1, s
        while j not in seen:
            seen.add(j)
            img = w[j - 1]
            sign = -sign if img < 0 else sign
            j = abs(img)
            ln += 1
        (pos if sign > 0 else neg).append(ln)
    return (tuple(sorted(pos, reverse=True)), tuple(sorted(neg, reverse=True)))


def signed_permutations(n: int) -> Iterable[tuple]:
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, perm))


def values_by_descents(family: str, n: int, x) -> List[Fraction]:
    """H(W, x) at an element with d descents, for d = 0..n."""
    h = h_type_a if family == "A" else h_type_b
    return [h(n, x, d) for d in range(n + 1)]


def class_law(family: str, n: int, q) -> Dict[tuple, Fraction]:
    """Pushforward of H_{W,q} to classes, by enumerating S_n or B_n."""
    by_d = values_by_descents(family, n, q)
    law: Dict[tuple, Fraction] = {}
    if family == "A":
        for w in permutations(range(1, n + 1)):
            key = cycle_type(w)
            law[key] = law.get(key, Fraction(0)) + by_d[descents_a(w)]
    else:
        for w in signed_permutations(n):
            key = signed_cycle_type(w)
            law[key] = law.get(key, Fraction(0)) + by_d[descents_b(w)]
    return {k: v for k, v in law.items() if v != 0}


# -- finite-field counts -------------------------------------------------------------


def _moebius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def necklace_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q."""
    total = sum(_moebius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    return total // d


def factor_type_count_a(n: int, q: int, lam: Sequence[int]) -> Fraction:
    """Trace-zero monics of degree n with factor-degree partition lam:
    (1/q) prod_d C(N_d + m_d - 1, m_d), valid when p does not divide n."""
    out = Fraction(1, q)
    for d in set(lam):
        m = lam.count(d)
        out *= binom(necklace_count(q, d) + m - 1, m)
    return out


def partitions(n: int, largest: Optional[int] = None) -> Iterable[tuple]:
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


# -- checks ------------------------------------------------------------------------


def exact_sum(values: Sequence[Fraction]) -> Fraction:
    """Exact sum; a measure built from descent classes repeats a few value
    objects thousands of times, so each distinct object is added once,
    times its count."""
    counts = Counter(map(id, values))
    objects = {id(v): v for v in values}
    return sum((objects[i] * c for i, c in counts.items()), Fraction(0))


def check_group(type_name: str, size: int, char_coeffs: Sequence[int]) -> List[str]:
    errs = []
    if size != group_order(type_name):
        errs.append(f"{type_name}: |W| = {size}, exponents give {group_order(type_name)}")
    if tuple(char_coeffs) != char_poly_coeffs(type_name):
        errs.append(f"{type_name}: chi = {tuple(char_coeffs)}, want {char_poly_coeffs(type_name)}")
    return errs


def check_measure(type_name: str, x, dense: Sequence[Fraction], longest: int,
                  one_lines=None) -> List[str]:
    """Sum one, the identity and longest-element values, and for types A
    and B every value from the descent number of the one-line form."""
    errs = []
    total = exact_sum(dense)
    if total != 1:
        errs.append(f"{type_name} x={x}: values sum to {total}")
    at_w0, at_id = longshort(type_name, x)
    if dense[0] != at_id:
        errs.append(f"{type_name} x={x}: identity value {dense[0]} != {at_id}")
    if dense[longest] != at_w0:
        errs.append(f"{type_name} x={x}: longest-element value {dense[longest]} != {at_w0}")
    if one_lines is not None:
        errs += check_dense_formula(type_name, x, dense, one_lines)
    return errs


def check_dense_formula(type_name: str, x, dense, one_lines) -> List[str]:
    family, n = type_name[0].upper(), len(one_lines[0])
    by_d = values_by_descents(family, n, x)
    descents = descents_a if family == "A" else descents_b
    for i, w in enumerate(one_lines):
        want = by_d[descents(w)]
        if dense[i] != want:
            return [f"{type_name} x={x}: value at {w} is {dense[i]}, formula gives {want}"]
    return []


def check_class_measure(type_name: str, x, values: Dict[tuple, Fraction]) -> List[str]:
    """A class pushforward (keyed by cycle type) against S_n / B_n enumeration."""
    family = type_name[0].upper()
    n = int(type_name[1:]) + (1 if family == "A" else 0)
    got = {k: v for k, v in values.items() if v != 0}
    if sum(got.values()) != 1:
        return [f"{type_name} x={x}: class measure sums to {sum(got.values())}"]
    want = class_law(family, n, x)
    if got != want:
        return [f"{type_name} x={x}: class pushforward differs from enumeration"]
    return []


def check_fq_family(tag: str, n: int, q: int, counts: Dict[tuple, int]) -> List[str]:
    """Orbit counts of one family, keyed by class-label data."""
    name = f"{tag} n={n} q={q}"
    rank = n - 1 if tag == "A" else n
    total = sum(counts.values())
    if total != q**rank:
        return [f"{name}: {total} orbits, want q^r = {q**rank}"]
    errs = []
    law = class_law(tag, n, q)
    got = {k: Fraction(v, total) for k, v in counts.items() if v}
    if got != law:
        bad = sorted(set(got) | set(law), key=str)
        bad = [k for k in bad if got.get(k) != law.get(k)]
        errs.append(f"{name}: class law differs from pushforward of H at {bad[:3]}")
    exps = tuple(range(1, n)) if tag == "A" else tuple(range(1, 2 * n, 2))
    ident = (1,) * n if tag == "A" else ((1,) * n, ())
    want_id = identity_class_count(exps, q)
    if counts.get(ident, 0) != want_id:
        errs.append(f"{name}: identity class has {counts.get(ident, 0)} orbits, want {want_id}")
    if tag == "A":
        for lam in partitions(n):
            want = factor_type_count_a(n, q, lam)
            if counts.get(lam, 0) != want:
                errs.append(f"{name}: type {lam} has {counts.get(lam, 0)} orbits, want {want}")
                break
    return errs


def check_irreducibles(q: int, top: int, count: int) -> List[str]:
    """The number of monic irreducibles over F_q of degree 1..top."""
    want = sum(necklace_count(q, d) for d in range(1, top + 1))
    if count != want:
        return [f"q={q}: {count} irreducibles of degree <= {top}, necklaces give {want}"]
    return []


def check_suite_report(suite: str, returncode: int, report: dict) -> List[str]:
    """A `coxshuffle verify` report: exit 0 and pass; longshort rows against
    the exponent table."""
    errs = []
    if returncode != 0 or report.get("pass") is not True:
        errs.append(f"{suite}: exit {returncode}, pass {report.get('pass')!r}")
    if suite == "longshort":
        rows = 0
        for chk in report.get("checks", []):
            head, _, what = chk["description"].partition(": measure at ")
            if not what:
                continue
            type_name, _, xs = head.partition(" x=")
            at_w0, at_id = longshort(type_name, Fraction(xs))
            want = at_w0 if what == "longest element" else at_id
            for field in ("expected", "actual"):
                if Fraction(chk[field]) != want:
                    errs.append(f"longshort {head} {what}: {field} {chk[field]}, want {want}")
            rows += 1
        if rows == 0:
            errs.append("longshort: report has no measure rows")
    return errs
