"""Canonical subspace algebra over Q or Q(phi).

Vectors are dense tuples of scalars (Fraction or GoldenRational); ambient
dimension never exceeds 8 here.  Every subspace is stored as a reduced
echelon basis (pivot entries 1, zeros above and below), so equal subspaces
have identical, hashable representations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

Vector = Tuple


def _is_zero(x) -> bool:
    return not x


def rref(rows: Sequence[Sequence]) -> list:
    """Reduced row echelon form; returns the nonzero rows, pivots leading 1."""
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    out = []
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(m)):
            if not _is_zero(m[r][col]):
                pr = r
                break
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        piv = m[pivot_row][col]
        m[pivot_row] = [x / piv for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and not _is_zero(m[r][col]):
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    for row in m[:pivot_row]:
        out.append(tuple(row))
    return out


class Subspace:
    """A linear subspace in canonical reduced-echelon form."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in basis))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return (Subspace, (self.ambient_dim, self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def _pivot_col(row) -> int:
    for j, x in enumerate(row):
        if not _is_zero(x):
            return j
    raise ValueError("zero row has no pivot")


def canonicalize(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors (idempotent)."""
    vectors = list(vectors)
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(f"vector of length {len(v)} in ambient dim {ambient_dim}")
    return Subspace(ambient_dim, rref(vectors))


def nullspace(rows: Sequence[Sequence], ambient_dim: int, one=None) -> Subspace:
    """Solution space of the homogeneous system rows . v = 0.

    ``one`` fixes the scalar field when the system is empty (otherwise it is
    inferred from the first pivot)."""
    reduced = rref(rows)
    if not reduced:
        one = Fraction(1) if one is None else one
        return Subspace(
            ambient_dim,
            [tuple(one if j == i else one * 0 for j in range(ambient_dim)) for i in range(ambient_dim)],
        )
    one = reduced[0][_pivot_col(reduced[0])]  # a field 1 of the right type
    zero = one * 0
    pivots = [_pivot_col(r) for r in reduced]
    free = [j for j in range(ambient_dim) if j not in pivots]
    basis = []
    for j in free:
        v = [zero] * ambient_dim
        v[j] = one
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[j]
        basis.append(tuple(v))
    return canonicalize(basis, ambient_dim)
