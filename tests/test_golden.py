"""Exact golden-field arithmetic and sign decisions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxshuffle.golden import (
    GoldenRational,
    PHI,
    format_rational,
    format_scalar,
    golden_sign,
)


def parse_rational(s: str) -> Fraction:
    """Inverse of ``format_rational``: "p/q" or "p"."""
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def parse_scalar(s: str):
    """Inverse of ``format_scalar``: "p/q" or "a/b+c/d*phi"."""
    if s.endswith("*phi"):
        ab, _, cd = s[: -len("*phi")].rpartition("+")
        return GoldenRational(parse_rational(ab), parse_rational(cd))
    return parse_rational(s)


def _sqrt5_bounds(min_den=10**25):
    # continued fraction of sqrt(5) is [2; 4, 4, 4, ...]; successive
    # convergents alternate below/above with error < 1/den^2, so this pair
    # brackets sqrt(5) to better than 128-bit precision
    h0, k0, h1, k1 = 2, 1, 9, 4
    while k1 < min_den:
        h0, k0, h1, k1 = h1, k1, 4 * h1 + h0, 4 * k1 + k0
    a, b = Fraction(h0, k0), Fraction(h1, k1)
    return (a, b) if a < b else (b, a)


_SQRT5_LO, _SQRT5_HI = _sqrt5_bounds()


def interval_sign(x: GoldenRational):
    """Oracle: sign from rational interval arithmetic, None if inconclusive."""
    lo = x.a + x.b * (1 + (_SQRT5_LO if x.b >= 0 else _SQRT5_HI)) / 2
    hi = x.a + x.b * (1 + (_SQRT5_HI if x.b >= 0 else _SQRT5_LO)) / 2
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == hi == 0:
        return 0
    return None


def test_sign_examples():
    assert golden_sign(GoldenRational(0, 0)) == 0
    assert golden_sign(GoldenRational(1, 0)) == 1
    # phi < 2, so -2 + phi is negative (interval oracle agrees)
    x = GoldenRational(-2, 1)
    assert golden_sign(x) == -1
    assert interval_sign(x) == -1


def test_sign_against_interval_oracle_bulk():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(1000):
        x = GoldenRational(
            Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
        )
        oracle = interval_sign(x)
        if oracle is not None:
            assert golden_sign(x) == oracle
            checked += 1
    assert checked > 900


@given(
    st.integers(-30, 30), st.integers(1, 9), st.integers(-30, 30), st.integers(1, 9)
)
def test_sign_times_negative_flips(an, ad, bn, bd):
    x = GoldenRational(Fraction(an, ad), Fraction(bn, bd))
    assert golden_sign(-x) == -golden_sign(x)
    assert golden_sign(x * x) in ((1, 0)[x == GoldenRational(0, 0)], 1, 0)


def test_phi_identity():
    assert PHI * PHI == PHI + 1
    assert (PHI * PHI).a == 1 and (PHI * PHI).b == 1


def test_field_operations():
    x = GoldenRational(Fraction(1, 2), Fraction(-3, 4))
    y = GoldenRational(2, 1)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    assert GoldenRational(1, 0) / x * x == GoldenRational(1, 0)
    with pytest.raises(ZeroDivisionError):
        x / GoldenRational(0, 0)


def test_comparisons():
    assert GoldenRational(0, 1) > 1  # phi > 1
    assert GoldenRational(0, 1) < 2  # phi < 2
    assert GoldenRational(-1, 1) > Fraction(1, 2)  # phi - 1 = 0.618...
    assert sorted([PHI, GoldenRational(1, 0), GoldenRational(3, -1)]) == [
        GoldenRational(1, 0),
        GoldenRational(3, -1),  # 3 - phi = 1.38...
        PHI,
    ]


def test_hash_consistency_with_rationals():
    assert hash(GoldenRational(Fraction(3, 2), 0)) == hash(Fraction(3, 2))
    assert GoldenRational(Fraction(3, 2), 0) == Fraction(3, 2)


def test_serialization_round_trip():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert parse_rational("-3/7") == Fraction(-3, 7)
    x = GoldenRational(Fraction(1, 2), Fraction(-3, 4))
    s = format_scalar(x)
    assert s == "1/2+-3/4*phi"
    assert parse_scalar(s) == x
    assert parse_scalar(format_scalar(Fraction(5))) == Fraction(5)
