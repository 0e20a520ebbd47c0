"""Physical samplers: exact laws by enumeration, determinism, statistics."""

import itertools
import random
from fractions import Fraction

import pytest

from coxshuffle.group import get_group
from coxshuffle.measures import h_measure
from coxshuffle.shuffling import (
    _BLOCK,
    _deal,
    _flip_even,
    _invert_signed,
    empirical_law,
    sample_shuffle,
    tv_distance,
)


def exact_shuffle_law(model, n, param):
    """Oracle: law of one sample, by exhaustive enumeration of all param**n
    pile words."""
    flip = _flip_even(model, param)
    total = param**n
    law = {}
    for word in itertools.product(range(param), repeat=n):
        w = _invert_signed(_deal(word, flip_even=flip))
        law[w] = law.get(w, Fraction(0)) + Fraction(1, total)
    return law


def per_sample_law(model, n, param, count, seed):
    """Oracle: the empirical law as ``count`` calls of ``sample_shuffle`` on
    one generator, each sample dealt on its own."""
    rng = random.Random(seed)
    counts = {}
    for _ in range(count):
        w = sample_shuffle(model, n, param, rng=rng)
        counts[w] = counts.get(w, 0) + 1
    return {w: Fraction(c, count) for w, c in counts.items()}


@pytest.mark.parametrize(
    "model,n,x,t",
    [
        ("gsr_a", 2, 2, "A1"),
        ("gsr_a", 3, 2, "A2"),
        ("gsr_a", 3, 3, "A2"),
        ("gsr_a", 4, 2, "A3"),  # n = 4 separates an element from its inverse
        ("typeB_flip", 2, 3, "B2"),
        ("typeB_flip", 2, 5, "B2"),
        ("typeB_flip", 3, 3, "B3"),
    ],
)
def test_exact_law_equals_measure(model, n, x, t):
    g = get_group(t)
    law = exact_shuffle_law(model, n, x)
    m = h_measure(g, x, "closed_form")
    for i in range(g.size):
        assert law.get(g.one_line[i], Fraction(0)) == m.value(i)


@pytest.mark.parametrize("model,n,x", [
    *(("gsr_a", n, x) for n in (2, 3, 4) for x in (2, 3)),
    *(("typeB_flip", n, x) for n in (2, 3) for x in (1, 3)),
    # pile counts whose draws are often rejected (1, 5, 129, 300) or need
    # more than 16 bits of an output (65537)
    *(("gsr_a", 3, x) for x in (1, 5, 129, 300, 65537)),
    *(("typeB_flip", 3, x) for x in (5, 129, 65537)),
    ("gsr_a", 1, 5),
    # the top of the range: k = 31, and k = 32, where the lane mask is all
    # ones and the shift is 0
    *(("gsr_a", 3, x) for x in (2**31 - 1, 2**31, 2**32 - 1)),
    *(("typeB_flip", 2, x) for x in (2**31 - 1, 2**32 - 1)),
])
@pytest.mark.parametrize("seed", range(5))
def test_empirical_law_equals_per_sample_loop(model, n, x, seed):
    count = _BLOCK // n + 1  # the kept draws alone fill more than one block
    emp = empirical_law(model, n, x, count, seed)
    oracle = per_sample_law(model, n, x, count, seed)
    assert emp == oracle
    assert list(emp) == list(oracle)  # same order of first appearance


def test_empirical_law_of_an_empty_deck():
    assert empirical_law("gsr_a", 0, 2, 5, seed=0) == per_sample_law("gsr_a", 0, 2, 5, 0)


class NoDraws(random.Random):
    def randrange(self, *args):
        raise AssertionError("drew before checking the arguments")

    def getrandbits(self, k):
        raise AssertionError("drew before checking the arguments")


@pytest.mark.parametrize("model,x,message", [
    ("gsr_a", 0, "pile count must be >= 1"),
    ("typeB_flip", 2, "pile count must be odd and >= 1"),
    ("typeB_flip", -1, "pile count must be odd and >= 1"),
    ("overhand", 2, "unknown shuffle model 'overhand'"),
    ("gsr_a", 2**32, r"pile count must be below 2\*\*32"),
    ("typeB_flip", 2**32 + 1, r"pile count must be below 2\*\*32"),
])
def test_bad_arguments_rejected_before_any_draw(model, x, message, monkeypatch):
    with pytest.raises(ValueError, match=message):
        sample_shuffle(model, 3, x, rng=NoDraws())
    monkeypatch.setattr(random, "Random", NoDraws)
    with pytest.raises(ValueError, match=message):
        empirical_law(model, 3, x, 10, seed=0)


@pytest.mark.parametrize("count", [0, -3])
def test_empirical_law_needs_a_sample(count, monkeypatch):
    monkeypatch.setattr(random, "Random", NoDraws)
    with pytest.raises(ValueError, match=f"sample count must be >= 1, not {count}"):
        empirical_law("gsr_a", 3, 2, count, seed=0)


def test_trivial_samplers():
    for seed in range(5):
        assert sample_shuffle("gsr_a", 3, 1, seed=seed) == (1, 2, 3)
        assert sample_shuffle("typeB_flip", 2, 1, seed=seed) == (1, 2)


def test_gsr_two_cards_frequency():
    emp = empirical_law("gsr_a", 2, 2, count=4000, seed=123)
    assert abs(emp[(1, 2)] - Fraction(3, 4)) < Fraction(1, 20)


def test_determinism_by_seed():
    a = [sample_shuffle("typeB_flip", 4, 3, seed=99) for _ in range(10)]
    b = [sample_shuffle("typeB_flip", 4, 3, seed=99) for _ in range(10)]
    assert a == b


def test_even_pile_count_rejected():
    with pytest.raises(ValueError):
        sample_shuffle("typeB_flip", 3, 2, seed=0)
    with pytest.raises(ValueError):
        exact_shuffle_law("typeB_flip", 3, 4)


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        sample_shuffle("overhand", 3, 2, seed=0)


def test_typeb_samples_are_signed_permutations():
    seen_negative = False
    for seed in range(50):
        w = sample_shuffle("typeB_flip", 3, 3, seed=seed)
        assert sorted(abs(v) for v in w) == [1, 2, 3]
        seen_negative = seen_negative or any(v < 0 for v in w)
    assert seen_negative


def test_tv_distance_basics():
    p = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    q = {1: Fraction(1), 3: Fraction(0)}
    assert tv_distance(p, p) == 0
    assert tv_distance(p, q) == Fraction(1, 2)
