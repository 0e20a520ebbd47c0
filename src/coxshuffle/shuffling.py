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
lets the empirical law deal each of the at most piles^n words once.

``sample_shuffle`` draws each pile with ``rng.randrange(piles)``.  The
empirical law reads the same values from the same Mersenne Twister stream
a block at a time, with no Python call per draw.  It rests on three facts
of CPython's ``random.Random``:

  * ``randrange(p)`` returns the first ``getrandbits(k)`` below p, where
    k = p.bit_length();
  * ``getrandbits(k)`` with k <= 32 is the top k bits of one 32-bit output;
  * ``getrandbits(32 * N)`` holds the next N outputs, the first in the
    lowest 32 bits.

So every pile count below 2**32 takes one path: each block of N outputs
is one big int, and one shift right by 32 - k and one mask with k low ones
in every 32-bit lane leave each output's top k bits in its lane (a shift
and a mask carry nothing between lanes, so k = 32 needs no special case).
The lanes are read as an array and the values below p are kept.  The tests
check the equality against the per-sample loop on the running interpreter.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from operator import gt
from typing import Dict, Iterator, Optional, Tuple

# 32-bit outputs per block of the empirical law's draw (16 KB)
_BLOCK = 4096


def _deal(word: Tuple[int, ...], flip_even: bool) -> Tuple[int, ...]:
    """Shuffled deck (signed cards if flip_even) produced by a pile word."""
    sizes = Counter(word)
    cards = {}
    top = 0
    for p in sorted(sizes):  # only the piles the word uses hold cards
        pile = range(top + 1, top + sizes[p] + 1)
        top += sizes[p]
        if flip_even and p % 2 == 1:  # pile number p+1 is even
            pile = [-c for c in reversed(pile)]
        cards[p] = iter(pile)
    return tuple(next(cards[d]) for d in word)


def _invert_signed(one_line: Tuple[int, ...]) -> Tuple[int, ...]:
    n = len(one_line)
    out = [0] * n
    for pos, card in enumerate(one_line, start=1):
        if card > 0:
            out[card - 1] = pos
        else:
            out[-card - 1] = -pos
    return tuple(out)


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
    return _invert_signed(_deal(word, flip))


def _top_bit_blocks(rng: random.Random, k: int) -> Iterator[array]:
    """The top k bits of the generator's 32-bit outputs in order, _BLOCK at
    a time: ``getrandbits(32 * N)`` holds the next N outputs, the first
    lowest, and one shift and one mask of the whole block cut each lane."""
    shift = 32 - k
    lanes = int.from_bytes(((1 << k) - 1).to_bytes(4, "little") * _BLOCK, "little")
    while True:
        bits = (rng.getrandbits(32 * _BLOCK) >> shift) & lanes
        block = array("I", bits.to_bytes(4 * _BLOCK, "little"))
        if sys.byteorder == "big":
            block.byteswap()
        yield block


def empirical_law(
    model: str, n: int, param: int, count: int, seed: int
) -> Dict[Tuple[int, ...], Fraction]:
    """Law of ``count`` samples drawn as ``sample_shuffle`` draws them from
    one ``random.Random(seed)``; each distinct pile word is dealt once."""
    flip = _flip_even(model, param)
    if count < 1:
        raise ValueError(f"sample count must be >= 1, not {count}")
    # each rng.randrange(param) is the next output's top k bits that fall below param
    tops = chain.from_iterable(_top_bit_blocks(random.Random(seed), param.bit_length()))
    # the predicate's calls are most of the draw's cost; partial(gt, param)
    # costs less per call than the method-wrapper param.__gt__
    draws = filter(partial(gt, param), tops)
    words = Counter(islice(zip(*[draws] * n), count) if n > 0 else repeat((), count))
    counts: Dict[Tuple[int, ...], int] = {}
    for word, c in words.items():
        w = _invert_signed(_deal(word, flip))
        counts[w] = counts.get(w, 0) + c
    return {w: Fraction(c, count) for w, c in counts.items()}


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
