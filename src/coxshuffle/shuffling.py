"""Physical card-shuffling samplers and their empirical laws.

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
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Dict, Optional, Tuple


def _deal(n: int, piles: int, word: Tuple[int, ...], flip_even: bool) -> Tuple[int, ...]:
    """Shuffled deck (signed cards if flip_even) produced by a pile word."""
    sizes = [0] * piles
    for d in word:
        sizes[d] += 1
    start = [0] * piles
    for p in range(1, piles):
        start[p] = start[p - 1] + sizes[p - 1]
    piles_content = []
    for p in range(piles):
        cards = list(range(start[p] + 1, start[p] + sizes[p] + 1))
        if flip_even and p % 2 == 1:  # pile number p+1 is even
            cards = [-c for c in reversed(cards)]
        piles_content.append(cards)
    nxt = [0] * piles
    deck = []
    for d in word:
        deck.append(piles_content[d][nxt[d]])
        nxt[d] += 1
    return tuple(deck)


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
        return False
    if model == "typeB_flip":
        if param < 1 or param % 2 == 0:
            raise ValueError("pile count must be odd and >= 1")
        return True
    raise ValueError(f"unknown shuffle model {model!r}")


def sample_shuffle(
    model: str, n: int, param: int, rng: Optional[random.Random] = None, seed=None
) -> Tuple[int, ...]:
    """One sample: a permutation (gsr_a) or signed permutation (typeB_flip)
    in one-line form, distributed by the shuffling measure at x = param."""
    flip = _flip_even(model, param)
    if rng is None:
        rng = random.Random(seed)
    word = tuple(rng.randrange(param) for _ in range(n))
    return _invert_signed(_deal(n, param, word, flip))


def empirical_law(
    model: str, n: int, param: int, count: int, seed: int
) -> Dict[Tuple[int, ...], Fraction]:
    """Law of ``count`` samples drawn as ``sample_shuffle`` draws them from
    one ``random.Random(seed)``; each distinct pile word is dealt once."""
    flip = _flip_even(model, param)
    rng = random.Random(seed)
    words = Counter(tuple(rng.randrange(param) for _ in range(n)) for _ in range(count))
    counts: Dict[Tuple[int, ...], int] = {}
    for word, c in words.items():
        w = _invert_signed(_deal(n, param, word, flip))
        counts[w] = counts.get(w, 0) + c
    return {w: Fraction(c, count) for w, c in counts.items()}


def tv_distance(p: Dict, q: Dict) -> Fraction:
    """Total variation distance: half the L1 distance."""
    keys = set(p) | set(q)
    return sum(abs(p.get(k, Fraction(0)) - q.get(k, Fraction(0))) for k in keys) / 2
