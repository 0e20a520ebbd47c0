"""Physical card-shuffling samplers, their empirical laws and the exact law
they follow.

Both models first build the shuffled deck (the "forward" physical shuffle)
and then return the inverse group element, whose law is the shuffling
measure:

  gsr_a       cut n cards into a piles multinomially, then interleave
              uniformly at random;
  typeB_flip  cut into an odd number x of piles multinomially, flip over
              (reverse and negate) the even-numbered piles, interleave.

A pile word u in {0..piles-1}^n drawn uniformly is equivalent to the
multinomial cut plus the uniform interleaving: position j of the shuffled
deck takes the next card of pile u[j].  That makes exhaustive enumeration
of the exact law trivial, which is how the tests validate the samplers, and
lets the empirical law deal a whole chunk of words at once.

``sample_shuffle`` draws each pile with ``rng.randrange(piles)``.  The
empirical law reads the same values from the same Mersenne Twister stream
a block at a time, with no Python call per draw.  It rests on three facts
of CPython's ``random.Random``:

  * ``randrange(p)`` returns the first ``getrandbits(k)`` below p, where
    k = p.bit_length();
  * ``getrandbits(k)`` with k <= 32 is the top k bits of one 32-bit output;
  * ``getrandbits(32 * N)`` holds the next N outputs, the first in the
    lowest 32 bits.

So a draw is kept exactly when its output is below t = p << (32 - k).
Each block of N outputs is one big int, and whole-block shifts, masks and
adds write every draw as w = ceil(k / 7) bytes of 7 bits each, the low bits
first, with the high bit set on every byte of a rejected draw; one
``bytes.translate`` then deletes the rejected draws.  The rejection test
adds (out >> 1) + c + 2**31 - 1 - (t >> 1) in each 32-bit lane, where c is
1 for an even t and out & 1 for an odd one (k = 32 only): the sum is below
2**32, so it carries nothing into the next lane, and its bit 31 is set
exactly when out >= t.  Shifts and masks carry nothing between lanes
either, and seven bits a byte leave room for the flag at every k, so every
pile count below 2**32 takes the same path.

The kept bytes form the words, n * w bytes each.  A chunk of words at a
time is dealt in lanes too: each position's draws fill one whole-chunk int,
pairwise comparisons of those ints rank the positions as ``_inverse_deal``
sorts them, and each word becomes one code of its signed permutation.  The
codes are counted as array items, small cached ints when they are below
256, and each distinct code is decoded once, at the end.  The tests check
the law, order of first appearance included, against the per-sample loop
on the running interpreter.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterator, Optional, Sequence, Tuple

# 32-bit outputs per block of the empirical law's draw (16 KB)
_BLOCK = 4096
# pile words per chunk of the empirical law's count; bounds its memory
_CHUNK = 8192
# the bytes of a rejected draw, which have their high bit set
_REJECTED = bytes(range(128, 256))


def _inverse_deal(word: Sequence[int], flip_even: bool) -> Tuple[int, ...]:
    """Inverse of the deck that a pile word deals (signed, with the
    even-numbered piles flipped, if flip_even).  The cards are numbered pile
    by pile, so the inverse lists the positions j in the order of (pile, j),
    except that a flipped pile's cards lie in reverse and negated: there it
    lists -j in the order of -j.  One sort of pile * (2n + 1) + (signed j)
    does both."""
    n = len(word)
    m = 2 * n + 1
    keys = sorted([d * m - j if flip_even and d & 1 else d * m + j
                   for j, d in enumerate(word, start=1)])
    return tuple([(k + n) % m - n for k in keys])


def _flip_even(model: str, param: int) -> bool:
    """Whether the model flips its even-numbered piles; ValueError for an
    unknown model or a pile count it does not take."""
    if model == "gsr_a":
        if param < 1:
            raise ValueError("pile count must be >= 1")
        flip = False
    elif model == "typeB_flip":
        if param < 1 or param % 2 == 0:
            raise ValueError("pile count must be odd and >= 1")
        flip = True
    else:
        raise ValueError(f"unknown shuffle model {model!r}")
    if param >= 1 << 32:  # empirical_law reads each draw from one 32-bit output
        raise ValueError("pile count must be below 2**32")
    return flip


def sample_shuffle(
    model: str, n: int, param: int, rng: Optional[random.Random] = None, seed=None
) -> Tuple[int, ...]:
    """One sample: a permutation (gsr_a) or signed permutation (typeB_flip)
    in one-line form, distributed by the shuffling measure at x = param."""
    flip = _flip_even(model, param)
    if rng is None:
        rng = random.Random(seed)
    word = tuple(rng.randrange(param) for _ in range(n))
    return _inverse_deal(word, flip)


def _lanes(value: int, width: int, count: int) -> int:
    """``count`` copies of ``value``, each in its own lane of ``width`` bytes."""
    return int.from_bytes(value.to_bytes(width, "little") * count, "little")


def _draw_bytes(rng: random.Random, p: int) -> Iterator[bytes]:
    """The values of ``rng.randrange(p)`` in order, _BLOCK outputs at a
    time, each as w = ceil(k / 7) bytes of 7 bits, the low bits first; the
    module docstring gives the lane arithmetic."""
    k = p.bit_length()
    w = -(-k // 7)
    t = p << (32 - k)  # the outputs below t are kept
    low31 = _lanes((1 << 31) - 1, 4, _BLOCK)
    # c is out & odd, plus 1 folded into bias when t is even
    odd = _lanes(t & 1, 4, _BLOCK)
    bias = _lanes((1 << 31) - (t >> 1) - (t & 1), 4, _BLOCK)
    flag = _lanes(0x80, 4, _BLOCK)
    # byte i of a draw is bits 7i.. of its k bits, at bit 32 - k + 7i of the output
    pieces = [(32 - k + 7 * i, _lanes((1 << min(7, k - 7 * i)) - 1, 4, _BLOCK))
              for i in range(w)]
    draws = bytearray(w * _BLOCK)
    while True:
        out = rng.getrandbits(32 * _BLOCK)
        rejected = ((((out >> 1) & low31) + (out & odd) + bias) >> 24) & flag
        for i, (shift, mask) in enumerate(pieces):
            piece = ((out >> shift) & mask) | rejected
            draws[i::w] = piece.to_bytes(4 * _BLOCK, "little")[::4]
        # bytes.translate deletes several times faster than bytearray.translate
        yield bytes(draws).translate(None, _REJECTED)


def _code_counts(words: bytes, count: int, n: int, p: int, flip: bool) -> Dict[int, int]:
    """The codes of the permutations that a chunk of ``count`` words deals,
    each with its count, in order of first appearance.

    Position j of a word sorts by pile * (2n + 1) + (signed j), as in
    ``_inverse_deal``, so for i < j position i sorts first exactly when
    u_i < v_j = u_j + 1 - (u_j odd and flipped).  With each word's values
    in its own lane, that comparison is bit k of (v_j + 2**k - 1) - u_i,
    which lies in [0, 2**(k+1)) and so borrows nothing from the next lane.
    A position's rank is n - 1 - j, plus the earlier positions that sort
    before it, minus the later positions that it sorts before.  The code is
    sum(rank_j * n**j) plus n**n times the flipped positions as bits.  A
    lane is whole array items that hold both 2**(k+1) and every code; a
    code wider than one item spans several, the lowest first."""
    k = p.bit_length()
    w = -(-k // 7)
    codes_below = n**n << n if flip else n**n
    size = max(-(-(k + 1) // 8), -(-(codes_below - 1).bit_length() // 8))
    typecode = next(c for c in "BHILQ" if array(c).itemsize >= min(size, 8))
    per_code = -(-size // 8)  # items per code
    lane = array(typecode).itemsize * per_code
    one = _lanes(1, lane, count)
    below = _lanes((1 << k) - 1, lane, count)
    spread = bytearray(lane * count)
    digits = []
    for j in range(n):
        u = 0
        for i in range(w):
            spread[::lane] = words[j * w + i::n * w]
            u |= int.from_bytes(spread, "little") << 7 * i
        digits.append(u)
    flipped = [u & one if flip else 0 for u in digits]
    ranks = [(n - 1 - j) * one for j in range(n)]
    for j in range(n):
        v = digits[j] + one - flipped[j] + below
        for i in range(j):
            less = ((v - digits[i]) >> k) & one
            ranks[j] += less
            ranks[i] -= less
    codes = 0
    for j in range(n):
        codes += ranks[j] * n**j + (flipped[j] << j) * n**n
    items = array(typecode, codes.to_bytes(lane * count, "little"))
    if sys.byteorder == "big":
        items.byteswap()
    if per_code == 1:
        return Counter(items)
    return {sum(v << 64 * i for i, v in enumerate(parts)): c
            for parts, c in Counter(zip(*[iter(items)] * per_code)).items()}


def _perm_of_code(code: int, n: int) -> Tuple[int, ...]:
    """The signed permutation, in one-line form, whose code ``_code_counts``
    gives: position j goes to place rank_j, negated if flipped."""
    signs, code = divmod(code, n**n)
    perm = [0] * n
    for j in range(1, n + 1):
        code, r = divmod(code, n)
        perm[r] = -j if signs >> (j - 1) & 1 else j
    return tuple(perm)


def empirical_law(
    model: str, n: int, param: int, count: int, seed: int
) -> Dict[Tuple[int, ...], Fraction]:
    """Law of ``count`` samples drawn as ``sample_shuffle`` draws them from
    one ``random.Random(seed)``.  The words are dealt and counted _CHUNK at
    a time, and the counts are kept by permutation, so memory does not grow
    with ``count``."""
    flip = _flip_even(model, param)
    if count < 1:
        raise ValueError(f"sample count must be >= 1, not {count}")
    w = -(-param.bit_length() // 7)  # bytes per draw
    draws = _draw_bytes(random.Random(seed), param)
    stream = bytearray()
    counts: Counter = Counter()
    for start in range(0, count, _CHUNK):
        chunk = min(_CHUNK, count - start)
        size = chunk * n * w
        while len(stream) < size:
            stream += next(draws)
        words = stream[:size]
        del stream[:size]
        counts.update(_code_counts(words, chunk, n, param, flip))
    return {_perm_of_code(code, n): Fraction(c, count) for code, c in counts.items()}


def exact_law(model: str, n: int, x: int) -> Dict[Tuple[int, ...], Fraction]:
    """The law the model's samples follow: the closed-form H_x on A_{n-1}
    (gsr_a) or B_n (typeB_flip), keyed by one-line form."""
    from .group import get_group
    from .measures import h_measure

    g = get_group(f"A{n - 1}" if model == "gsr_a" else f"B{n}")
    return {g.one_line[i]: v for i, v in enumerate(h_measure(g, x, "closed_form").dense())}


def tv_distance(p: Dict, q: Dict) -> Fraction:
    """Total variation distance: half the L1 distance."""
    keys = set(p) | set(q)
    return sum(abs(p.get(k, Fraction(0)) - q.get(k, Fraction(0))) for k in keys) / 2
