"""Conjugacy-class labels and measures on them.

Kept apart from ``group`` and ``measures`` (which re-export both names) so
that the finite-field side can label classes without loading group,
lattice or measure code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Dict, Sequence


class ClassLabel:
    """Conjugacy class label: a partition (family A), a pair of partitions
    (family B), or an opaque index with a representative element."""

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data: tuple):
        object.__setattr__(self, "kind", kind)  # "partition" | "bipartition" | "opaque"
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("ClassLabel is immutable")

    def __reduce__(self):
        return (ClassLabel, (self.kind, self.data))

    def __eq__(self, other):
        if other.__class__ is not ClassLabel:
            return NotImplemented
        return self.kind == other.kind and self.data == other.data

    def __hash__(self):
        return hash((self.kind, self.data))

    def __repr__(self):
        return f"ClassLabel(kind={self.kind!r}, data={self.data!r})"

    def __str__(self):
        if self.kind == "partition":
            return "(" + ",".join(map(str, self.data)) + ")"
        if self.kind == "bipartition":
            lam, mu = self.data
            return "(" + ",".join(map(str, lam)) + "|" + ",".join(map(str, mu)) + ")"
        return f"class{self.data[0]}"

    def sort_key(self):
        return (self.kind, self.data)


class ClassMeasure:
    """Probability (or signed) measure on conjugacy-class labels: ``values``
    maps each label to its mass, a Fraction, and the masses sum to one.

    ``ClassMeasure(values)`` takes the masses; the builders pass integer
    numerators over one denominator through ``_from_numerators``.  Either
    way the values are built with the measure, not on a later read."""

    __slots__ = ("values",)

    def __init__(self, values: Dict[ClassLabel, Fraction]):
        # the sum on integer numerators over the values' least common
        # denominator, without a Fraction per addition
        den = lcm(*(v.denominator for v in values.values()))
        if sum(v.numerator * (den // v.denominator) for v in values.values()) != den:
            raise ValueError("class measure does not sum to 1")
        self.values = values

    @classmethod
    def _from_numerators(cls, labels: Sequence[ClassLabel], nums: Sequence[int],
                         den: int) -> "ClassMeasure":
        """The measure with mass nums[i] / den on labels[i]; den is nonzero."""
        if sum(nums) != den:
            raise ValueError("class measure does not sum to 1")
        m = cls.__new__(cls)
        m.values = dict(zip(labels, map(Fraction, nums, repeat(den))))
        return m

    def __repr__(self):
        return f"ClassMeasure(values={self.values!r})"

    def __eq__(self, other):
        # classes of mass zero may be absent on either side
        return isinstance(other, ClassMeasure) and self.nonzero() == other.nonzero()

    def nonzero(self) -> Dict[ClassLabel, Fraction]:
        return {k: v for k, v in self.values.items() if v != 0}

    def sorted_items(self):
        return sorted(self.values.items(), key=lambda kv: kv[0].sort_key())
