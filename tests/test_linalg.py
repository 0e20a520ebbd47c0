"""Canonical subspace algebra: echelon forms, intersections."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxshuffle.golden import GoldenRational
from coxshuffle.linalg import Subspace, canonicalize, nullspace, rref


def F(*vals):
    return tuple(Fraction(v) for v in vals)


def contains(space: Subspace, vector) -> bool:
    """Membership by reduction against the echelon basis."""
    v = list(vector)
    for row in space.basis:
        col = next(j for j, x in enumerate(row) if x)
        if v[col]:
            f = v[col]
            v = [x - f * y for x, y in zip(v, row)]
    return not any(v)


def test_canonicalize_examples():
    s = canonicalize([F(2, 0), F(0, 3)], 2)
    assert s.basis == (F(1, 0), F(0, 1))
    s = canonicalize([F(1, 1), F(2, 2)], 2)
    assert s.basis == (F(1, 1),)
    s = canonicalize([], 3)
    assert s.dim == 0 and s.ambient_dim == 3


def test_canonicalize_rejects_bad_lengths():
    with pytest.raises(ValueError):
        canonicalize([F(1, 0, 0)], 2)


_vec = st.lists(st.integers(-4, 4), min_size=3, max_size=3).map(
    lambda v: tuple(Fraction(x) for x in v)
)


@given(st.lists(_vec, max_size=4))
@settings(max_examples=60)
def test_canonicalize_idempotent_and_span_preserving(vectors):
    s = canonicalize(vectors, 3)
    again = canonicalize(s.basis, 3)
    assert again == s  # idempotent
    for v in vectors:
        assert contains(s, v)  # original vectors inside the canonical span
    # canonical basis inside the original span: check via rank stability
    assert canonicalize(list(vectors) + list(s.basis), 3).dim == s.dim


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Oracle: the intersection of two subspaces, by the Zassenhaus
    block-matrix algorithm."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = s1.ambient_dim
    zero = next((row[0] * 0 for s in (s1, s2) for row in s.basis), Fraction(0))
    blocks = [list(r) + list(r) for r in s1.basis]
    blocks += [list(r) + [zero] * n for r in s2.basis]
    reduced = rref(blocks)
    inter = [row[n:] for row in reduced if not any(row[:n])]
    return canonicalize(inter, n)


def intersect_oracle(s1: Subspace, s2: Subspace) -> Subspace:
    """Independent route: kernel of the stacked constraint matrices."""
    n = s1.ambient_dim
    c1 = nullspace(s1.basis, n) if s1.basis else None
    c2 = nullspace(s2.basis, n) if s2.basis else None
    rows = []
    for c in (c1, c2):
        if c is not None:
            rows.extend(c.basis)
    if s1.dim == 0 or s2.dim == 0:
        return canonicalize([], n)
    return nullspace(rows, n)


def test_intersect_examples():
    line1 = canonicalize([F(1, 0)], 2)
    line2 = canonicalize([F(1, 1)], 2)
    assert intersect(line1, line2).dim == 0
    s = canonicalize([F(1, 2)], 2)
    assert intersect(s, s) == s
    plane_x = canonicalize([F(0, 1, 0), F(0, 0, 1)], 3)  # x = 0
    plane_y = canonicalize([F(1, 0, 0), F(0, 0, 1)], 3)  # y = 0
    expected = canonicalize([F(0, 0, 1)], 3)
    assert intersect(plane_x, plane_y) == expected
    assert intersect_oracle(plane_x, plane_y) == expected


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect(canonicalize([F(1, 0)], 2), canonicalize([F(1, 0, 0)], 3))


def _random_subspace(rng, dim=4):
    k = rng.randint(0, dim)
    vecs = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(k)]
    return canonicalize(vecs, dim)


def test_intersect_properties_random():
    rng = random.Random(7)
    full = canonicalize(
        [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)], 4
    )
    for _ in range(120):
        a, b, c = (_random_subspace(rng) for _ in range(3))
        ab = intersect(a, b)
        assert ab == intersect(b, a)  # commutative
        assert intersect(ab, c) == intersect(a, intersect(b, c))  # associative
        assert ab.dim <= min(a.dim, b.dim)  # monotone in dimension
        assert intersect(a, full) == a
        assert ab == intersect_oracle(a, b)  # dual-route agreement


def test_intersect_golden_field():
    one = GoldenRational(1, 0)
    zero = GoldenRational(0, 0)
    phi = GoldenRational(0, 1)
    a = canonicalize([(one, phi, zero), (zero, zero, one)], 3)
    b = canonicalize([(one, phi, one)], 3)
    inter = intersect(a, b)
    assert inter.dim == 1
    assert contains(a, inter.basis[0]) and contains(b, inter.basis[0])


def test_nullspace_full_and_empty():
    assert nullspace([], 3).dim == 3
    rows = [F(1, 0, 0), F(0, 1, 0), F(0, 0, 1)]
    assert nullspace(rows, 3).dim == 0


def test_subspace_hashable_and_immutable():
    s = canonicalize([F(1, 0)], 2)
    assert s == canonicalize([F(2, 0)], 2)
    assert hash(s) == hash(canonicalize([F(2, 0)], 2))
    with pytest.raises(AttributeError):
        s.basis = ()
