"""Physical samplers: exact laws by enumeration, determinism, statistics."""

import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from coxshuffle import shuffling
from coxshuffle.group import get_group
from coxshuffle.measures import h_measure
from coxshuffle.shuffling import (
    _BLOCK,
    _CHUNK,
    _draw_bytes,
    _flip_even,
    _inverse_deal,
    empirical_law,
    exact_law,
    sample_shuffle,
    tv_distance,
)


def physical_deal(word, flip_even):
    """Oracle: the shuffled deck a pile word deals, card by card (signed
    cards, the even-numbered piles flipped, if flip_even), then inverted."""
    sizes = Counter(word)
    cards = {}
    top = 0
    for p in sorted(sizes):  # only the piles the word uses hold cards
        pile = range(top + 1, top + sizes[p] + 1)
        top += sizes[p]
        if flip_even and p % 2 == 1:  # pile number p+1 is even
            pile = [-c for c in reversed(pile)]
        cards[p] = iter(pile)
    deck = [next(cards[d]) for d in word]
    inverse = [0] * len(deck)
    for pos, card in enumerate(deck, start=1):
        inverse[abs(card) - 1] = pos if card > 0 else -pos
    return tuple(inverse)


def exact_shuffle_law(model, n, param):
    """Oracle: law of one sample, by exhaustive enumeration of all param**n
    pile words."""
    flip = _flip_even(model, param)
    total = param**n
    law = {}
    for word in itertools.product(range(param), repeat=n):
        w = _inverse_deal(word, flip_even=flip)
        law[w] = law.get(w, Fraction(0)) + Fraction(1, total)
    return law


@pytest.mark.parametrize("flip", [False, True])
def test_inverse_deal_equals_the_physical_deal(flip):
    for n in range(6):
        for param in (1, 2, 3, 4, 5):
            for word in itertools.product(range(param), repeat=n):
                assert _inverse_deal(word, flip) == physical_deal(word, flip)


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
        ("gsr_a", 5, 2, "A4"),
        ("gsr_a", 6, 2, "A5"),
        ("typeB_flip", 4, 3, "B4"),
    ],
)
def test_exact_law_equals_measure(model, n, x, t):
    g = get_group(t)
    law = exact_shuffle_law(model, n, x)
    m = h_measure(g, x, "closed_form")
    for i in range(g.size):
        assert law.get(g.one_line[i], Fraction(0)) == m.value(i)
    # the descent-number law equals the group's dense closed form at r + 2 or
    # more values of x, more than degree-r numerators need to agree as polynomials
    for y in (x, -1, Fraction(-5, 2), Fraction(7, 3), 1, Fraction(1, 2), -4, 11):
        dense = h_measure(g, y, "closed_form").dense()
        assert exact_law(model, n, y) == {g.one_line[i]: v for i, v in enumerate(dense)}


@pytest.mark.parametrize("model,n,x", [("gsr_a", 1, 3), ("gsr_a", 7, 3), ("typeB_flip", 1, 3),
                                       ("typeB_flip", 5, 3), ("bogus", 3, 3), ("gsr_a", 3, 0),
                                       ("typeB_flip", 3, 0)])
def test_exact_law_rejects_a_model_n_or_x_outside_its_domain(monkeypatch, model, n, x):
    # refused before the law is read or any line enumerated
    monkeypatch.setattr(shuffling, "card_law", None)
    refusals = "unknown shuffle model|exact law for n in|x must be nonzero"
    with pytest.raises(ValueError, match=refusals):
        exact_law(model, n, x)


class GivenOutputs:
    """A generator whose every block of 32-bit outputs is the given list,
    padded with zeros."""

    def __init__(self, outputs):
        self.block = sum(out << 32 * i for i, out in enumerate(outputs))

    def getrandbits(self, bits):
        assert bits == 32 * _BLOCK
        return self.block


@pytest.mark.parametrize("p", [1, 2, 3, 5, 127, 128, 129, 16383, 16384, 2**21, 65537,
                               2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1])
def test_draw_bytes_at_the_threshold(p):
    # each output around t = p << (32 - k) is kept exactly when it is below t,
    # as its top k bits, 7 bits a byte, the low bits first
    k = p.bit_length()
    t = p << (32 - k)
    outputs = [out for out in (t - 2, t - 1, t, t + 1, 2**32 - 1, 2**31, 2**31 - 1, 1)
               if out < 2**32]
    outputs += [0] * (_BLOCK - len(outputs))
    expected = bytearray()
    for out in outputs:
        if out < t:
            draw = out >> (32 - k)
            expected += bytes((draw >> 7 * i) & 0x7F for i in range(-(-k // 7)))
    assert next(_draw_bytes(GivenOutputs(outputs), p)) == expected


SPANNING = 3 * _CHUNK + 17  # three whole chunks and part of a fourth


def law_case(model, n, x, count=None):
    """A case of the comparison below.  Its id is model-n-x, with the count
    appended when it is not the default of one block of kept draws."""
    return pytest.param(model, n, x, count or _BLOCK // n + 1,
                        id="-".join(map(str, (model, n, x) + ((count,) if count else ()))))


@pytest.mark.parametrize("model,n,x,count", [
    *(law_case("gsr_a", n, x) for n in (2, 3, 4) for x in (2, 3)),
    *(law_case("typeB_flip", n, x) for n in (2, 3) for x in (1, 3)),
    # pile counts whose draws are often rejected (1, 5, 129, 300) or need
    # more than 16 bits of an output (65537)
    *(law_case("gsr_a", 3, x) for x in (1, 5, 129, 300, 65537)),
    *(law_case("typeB_flip", 3, x) for x in (5, 129, 65537)),
    law_case("gsr_a", 1, 5),
    # the top of the range: k = 31, and k = 32, where the shift is 0
    *(law_case("gsr_a", 3, x) for x in (2**31 - 1, 2**31, 2**32 - 1)),
    *(law_case("typeB_flip", 2, x) for x in (2**31 - 1, 2**32 - 1)),
    # where a draw takes one more byte of 7 bits: w = 1 | 2, 2 | 3, 3 | 4
    *(law_case("gsr_a", 3, x) for x in (127, 128, 16383, 16384, 2**21 - 1, 2**21)),
    *(law_case("typeB_flip", 3, x) for x in (127, 16383, 2**21 - 1)),
    # odd thresholds t = p at k = 32, where the rejection test reads out & 1
    *(law_case(model, n, x) for model, n in (("gsr_a", 3), ("typeB_flip", 2))
      for x in (2**31 + 1, 3 * 2**30 + 1)),
    # p**n = 255 | 256 | 257 and 65535 | 65536 pile words, and just under
    # 2**64 (p = 2**32 - 1 at n = 2; n = 3 above is over)
    *(law_case("gsr_a", n, x) for n, x in ((1, 255), (2, 16), (4, 4), (8, 2), (1, 257),
                                          (1, 65535), (2, 256), (4, 16), (1, 65537),
                                          (2, 2**32 - 1))),
    *(law_case("typeB_flip", 1, x) for x in (255, 257, 65535)),
    # far more than 2**64 pile words
    law_case("gsr_a", 6, 2**32 - 1),
    law_case("typeB_flip", 4, 2**32 - 1),
    # lanes on either side of 1, 2, 4 and 8 bytes: compared digits of
    # k + 1 = 16 | 17 bits (8 | 9 at 127 | 128 above, 32 | 33 at 2**31 - 1 |
    # 2**31); codes below n**n = 256 (n = 4 above) | 3125 and 2**64 | 17**17,
    # and with flips below 216 (n = 3 above) | 4096 | 100000 and 13**13 *
    # 2**13 | 14**14 * 2**14 (> 2**64)
    *(law_case("gsr_a", n, x) for n, x in ((3, 32767), (3, 32768), (5, 2), (16, 2), (17, 2))),
    *(law_case("typeB_flip", n, 3) for n in (4, 5, 13, 14)),
    # counts that end inside a fourth chunk of words
    *(law_case(model, n, x, SPANNING) for model, n, x in (("gsr_a", 4, 2), ("typeB_flip", 3, 3),
                                                          ("gsr_a", 2, 300))),
])
@pytest.mark.parametrize("seed", range(5))
def test_empirical_law_equals_per_sample_loop(model, n, x, count, seed):
    emp = empirical_law(model, n, x, count, seed)
    oracle = per_sample_law(model, n, x, count, seed)
    assert emp == oracle
    assert list(emp) == list(oracle)  # same order of first appearance


def test_empirical_law_memory_does_not_grow_with_count():
    # a million words of six one-byte draws: the digit stream alone is 6 MB,
    # and nearly all of the 7**6 words and all 720 permutations occur
    tracemalloc.start()
    try:
        empirical_law("gsr_a", 6, 7, 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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
