"""Root systems for the supported reflection groups, in simple-root coordinates.

Every group is realized essentially (ambient dimension = rank) on the basis
of simple roots, so reflection matrices and root coordinates live in Z or in
the golden integers Z[phi].  Supported families:

  A rank 1..5, B rank 2..4, D rank 4, G2, I2(m) for m in {2,3,4,5,6,10},
  H3, H4.

The remaining dihedral orders m <= 12 (7, 8, 9, 11, 12) would need exact
coordinates outside Q and Q(phi) (degree of 2*cos(pi/m) exceeds 2), so they
are rejected with an explicit unsupported-type error.

Each family is one row of ``_FAMILIES``: its ranks, |W|, the number of
positive roots, and the bonds of its Coxeter diagram.  The Cartan matrix is
read from the bonds (2 on the diagonal, 0 off the bonds); no Gram matrix is
kept.  Every Cartan entry lies in Z or Z[phi], so the roots are found by a
closure on integer pairs (a, b) = a + b*phi; the roots are converted to
Fraction or GoldenRational coordinates once, at the end.

Also houses the affine data used by the positive-solution counting identity:
highest root, marks, index of connection, and the counter p_count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .golden import GoldenRational, golden_sign

# Cartan entries as integer pairs (a, b) = a + b*phi
_M1, _M2, _M3, _MPHI = (-1, 0), (-2, 0), (-3, 0), (0, -1)

# One row per family: for each supported rank (for I2, each m of I2(m)), |W|,
# the number N of positive roots, and the bonds (i, j, C[i][j], C[j][i]) of
# the Coxeter diagram, C[i][j] = 2(a_i, a_j)/(a_i, a_i); a bond's two entries
# multiply to 4cos^2(pi/m_ij).
_FAMILIES = {
    "A": {r: (factorial(r + 1), r * (r + 1) // 2,
              tuple((i, i + 1, _M1, _M1) for i in range(r - 1)))
          for r in range(1, 6)},
    # the last simple root is the short one
    "B": {r: (2**r * factorial(r), r * r,
              tuple((i, i + 1, _M1, _M2 if i == r - 2 else _M1) for i in range(r - 1)))
          for r in range(2, 5)},
    # three outer nodes 0, 2, 3 attached to the center node 1
    "D": {4: (192, 12, ((0, 1, _M1, _M1), (1, 2, _M1, _M1), (1, 3, _M1, _M1)))},
    "G2": {2: (12, 6, ((0, 1, _M1, _M3),))},
    # the 5-labeled bond joins nodes 0 and 1
    "H3": {3: (120, 15, ((0, 1, _MPHI, _MPHI), (1, 2, _M1, _M1)))},
    "H4": {4: (14400, 60, ((0, 1, _MPHI, _MPHI), (1, 2, _M1, _M1), (2, 3, _M1, _M1)))},
    # 4cos^2(pi/m) = 0, 1, 2, phi + 1, 3, phi + 2
    "I2": {2: (4, 2, ()),
           3: (6, 3, ((0, 1, _M1, _M1),)),
           4: (8, 4, ((0, 1, _M1, _M2),)),
           5: (10, 5, ((0, 1, _MPHI, _MPHI),)),
           6: (12, 6, ((0, 1, _M1, _M3),)),
           10: (20, 10, ((0, 1, _M1, (-2, -1)),))},
}


class UnsupportedTypeError(ValueError):
    """Raised for (family, rank) pairs outside the supported set."""


class RootSystem:
    """Base of simple roots plus the full set of positive roots.

    Immutable.  Equality, hashing and repr read the seven defining fields;
    ``root_index`` (root -> index lookup) is derived data and takes no part."""

    _FIELDS = ("family", "rank", "m_param", "scalar_field", "cartan_like_matrix",
               "simple_roots", "positive_roots")

    def __init__(self, family: str, rank: int, m_param: Optional[int], scalar_field: str,
                 cartan_like_matrix: tuple, simple_roots: tuple, positive_roots: tuple,
                 root_index: Optional[dict] = None):
        self.__dict__.update(
            family=family,
            rank=rank,
            m_param=m_param,  # dihedral order for I2, else None
            scalar_field=scalar_field,  # "rational" or "golden"
            cartan_like_matrix=cartan_like_matrix,  # C[i][j] = 2(a_i, a_j)/(a_i, a_i)
            simple_roots=simple_roots,  # unit coordinate vectors
            positive_roots=positive_roots,  # coordinates in the simple-root basis
            root_index=root_index,
        )

    def __setattr__(self, name, value):
        raise AttributeError("RootSystem is immutable")

    def __delattr__(self, name):
        raise AttributeError("RootSystem is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not RootSystem:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "RootSystem(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS) + ")"

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def group_order(self) -> int:
        return _FAMILIES[self.family][self.m_param or self.rank][0]

    @property
    def crystallographic(self) -> bool:
        # rational roots, outside the dihedral family I2(m)
        return self.family != "I2" and self.scalar_field == "rational"

    def type_name(self) -> str:
        if self.family == "I2":
            return f"I2({self.m_param})"
        if self.family in ("G2", "H3", "H4"):
            return self.family
        return f"{self.family}{self.rank}"

    def apply_simple(self, i: int, v: Sequence) -> tuple:
        """Image of a coordinate vector under the i-th simple reflection."""
        C = self.cartan_like_matrix
        coeff = sum(C[i][j] * v[j] for j in range(self.rank))
        w = list(v)
        w[i] = v[i] - coeff
        return tuple(w)

    def signed_index(self, v: Sequence) -> int:
        """Index of v among signed roots: j for positive, j + n_pos for -roots."""
        n = self.n_positive
        idx = self.root_index.get(tuple(v))
        if idx is not None:
            return idx
        idx = self.root_index.get(tuple(-x for x in v))
        if idx is not None:
            return idx + n
        raise ValueError(f"not a root: {v}")

    @cached_property
    def simple_action(self) -> tuple:
        """simple_action[g][j] is the signed index of s_g(positive root j).
        ``build_root_system`` stores it from the closure that finds the
        roots; a copy made with the ``RootSystem`` constructor derives it here."""
        return tuple(
            tuple(self.signed_index(self.apply_simple(g, root)) for root in self.positive_roots)
            for g in range(self.rank)
        )


def _golden_int_pair(x) -> Tuple[int, int]:
    """The scalar x = a + b*phi as the integer pair (a, b)."""
    a, b = (x.a, x.b) if isinstance(x, GoldenRational) else (Fraction(x), Fraction(0))
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError(f"Cartan entry {x} is not in Z[phi]")
    return int(a), int(b)


def _root_closure(C: Sequence[Sequence]) -> Tuple[List[tuple], tuple]:
    """Positive roots of the Cartan matrix C and the signed root action.

    The closure of the simple roots under the simple reflections runs on
    integer pairs (a, b) = a + b*phi, one pair per coordinate, so every
    entry of C must lie in Z[phi].  The positive roots pass through the
    frontier once each, in index order, so row i of the action lists
    s_i of every positive root in order, as a signed index (j, or j + N
    for the negative of root j).  Raises ValueError when an image has
    coordinates of both signs, which no root has.
    """
    rank = len(C)
    # the nonzero entries of each row, as (column, a, b)
    rows = [[(j, *_golden_int_pair(c)) for j, c in enumerate(row) if c] for row in C]
    simple = [tuple((1, 0) if j == i else (0, 0) for j in range(rank)) for i in range(rank)]
    positives: List[tuple] = list(simple)
    index = {v: i for i, v in enumerate(positives)}
    images: List[List[tuple]] = [[] for _ in range(rank)]
    frontier = list(simple)
    while frontier:
        new = []
        for v in frontier:
            for i in range(rank):
                # s_i(v) = v - <v, a_i^vee> a_i changes coordinate i alone
                sa = sb = 0
                for j, ca, cb in rows[i]:
                    va, vb = v[j]
                    sa += ca * va + cb * vb
                    sb += ca * vb + cb * va + cb * vb  # phi^2 = phi + 1
                va, vb = v[i]
                w = (*v[:i], (va - sa, vb - sb), *v[i + 1:])
                j = index.get(w)
                if j is not None:
                    images[i].append((j, False))
                    continue
                neg = tuple((-a, -b) for a, b in w)
                j = index.get(neg)
                if j is not None:
                    images[i].append((j, True))
                    continue
                signs = {golden_sign(x) for x in w}
                signs.discard(0)
                if len(signs) != 1:
                    raise ValueError(f"not a root: {w}")
                negated = signs == {-1}
                if negated:
                    w = neg
                index[w] = len(positives)
                images[i].append((len(positives), negated))
                positives.append(w)
                new.append(w)
        frontier = new
    n = len(positives)
    action = tuple(tuple(j + n if negated else j for j, negated in row) for row in images)
    return positives, action


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system; for I2 the rank argument carries m."""
    family = family.upper() if family.lower() != "i2" else "I2"
    if family not in _FAMILIES:
        raise UnsupportedTypeError(f"unsupported type {family}{rank}")
    row = _FAMILIES[family]
    m = None
    if family == "I2":
        m, rank = rank, 2
        if m not in row:
            # distinguish "never buildable exactly" from nonsense input
            if 2 <= m <= 12:
                raise UnsupportedTypeError(
                    f"I2({m}) unsupported: needs scalars outside Q and Q(phi)"
                )
            raise UnsupportedTypeError(f"unsupported type I2({m})")
    elif family[-1].isdigit():  # G2, H3, H4 name their rank
        rank = int(family[-1])
    elif rank not in row:
        least, greatest = min(row), max(row)
        allowed = f"only {family}{least}" if least == greatest else f"rank {least}..{greatest}"
        raise UnsupportedTypeError(f"unsupported type {family}{rank} ({allowed})")

    _, n_expected, bonds = row[m or rank]
    golden = any(b for _, _, *entries in bonds for _, b in entries)
    scalar = (lambda a, b: GoldenRational(a, b)) if golden else (lambda a, b: Fraction(a))
    C = [[scalar(2 if i == j else 0, 0) for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in bonds:
        C[i][j], C[j][i] = scalar(*cij), scalar(*cji)
    pairs, images = _root_closure(C)
    if len(pairs) != n_expected:
        raise RuntimeError(
            f"{family}{rank}: found {len(pairs)} positive roots, expected {n_expected}"
        )
    positives = tuple(tuple(scalar(a, b) for a, b in v) for v in pairs)

    rs = RootSystem(
        family=family,
        rank=rank,
        m_param=m,
        scalar_field="golden" if golden else "rational",
        cartan_like_matrix=tuple(tuple(r) for r in C),
        simple_roots=positives[:rank],
        positive_roots=positives,
        root_index={v: i for i, v in enumerate(positives)},
    )
    # the cached property's slot; a copy made with the constructor derives its own
    rs.__dict__["simple_action"] = images
    return rs


def parse_type(name: str) -> RootSystem:
    """Parse CLI type names like A3, B2, D4, G2, H3, H4, I2(5)."""
    s = name.strip()
    if s.upper().startswith("I2"):
        inner = s[2:].strip("()")
        if not inner.isdigit():
            raise UnsupportedTypeError(f"cannot parse dihedral type {name!r}")
        return build_root_system("I2", int(inner))
    if s.upper() in ("G2", "H3", "H4"):
        fam = s.upper()
        return build_root_system(fam, int(fam[1]))
    fam, num = s[:1].upper(), s[1:]
    if not num.isdigit():
        raise UnsupportedTypeError(f"cannot parse type {name!r}")
    return build_root_system(fam, int(num))


def card_range(family: str) -> Tuple[int, int]:
    """The least and greatest n for which the group on n cards is supported:
    A_{n-1} for family "A", B_n for family "B"."""
    ranks = _FAMILIES[family]
    shift = 1 if family == "A" else 0
    return min(ranks) + shift, max(ranks) + shift


def card_law(family: str, n: int) -> Tuple[List[Tuple[int, ...]], int]:
    """(shifts per descent number d, den) of the riffle ("A") or flip ("B") shuffle
    on n cards: H_x at w in A_{n-1} or B_n is the product of x + c over shifts[d(w)]
    over den x^n, a binomial over x^n at an integer x (odd for B)."""
    if family == "A":
        return [tuple(range(-d, n - d)) for d in range(n)], factorial(n)
    return [tuple(range(1 - 2 * d, 2 * n - 2 * d, 2)) for d in range(n + 1)], 2**n * factorial(n)


def descent_number(line: Sequence[int]) -> int:
    """The descent number of a (signed) permutation in one-line form, as
    ``CoxeterGroup.descent_mask`` counts it: descents in the order
    1 < ... < n < -n < ... < -1, plus one when the last entry is negative."""
    keys = [v % (2 * len(line) + 1) for v in line]
    return sum(u > v for u, v in zip(keys, keys[1:])) + (line[-1] < 0)


# -- affine data -------------------------------------------------------------


class AffineData(NamedTuple):
    """Highest root, marks on the extended base, and the index of connection."""

    root_system: RootSystem
    highest_root: tuple
    marks: tuple  # marks for (simple_0, ..., simple_{r-1}, alpha_0); last is 1
    index_of_connection: int

    @property
    def extended_size(self) -> int:
        return self.root_system.rank + 1


def affine_data(rs: RootSystem) -> AffineData:
    """Affine marks of the extended base; only for crystallographic families."""
    if not rs.crystallographic:
        raise ValueError(f"no affine data for non-crystallographic type {rs.type_name()}")
    best = None
    for v in rs.positive_roots:
        if best is None or sum(v) > sum(best):
            best = v
    # the highest root dominates every positive root coordinatewise
    for v in rs.positive_roots:
        if any(b < x for b, x in zip(best, v)):
            raise RuntimeError("root poset has no unique maximum")
    marks = tuple(int(Fraction(x)) for x in best) + (1,)
    f = abs(_int_det([[int(Fraction(x)) for x in row] for row in rs.cartan_like_matrix]))
    return AffineData(rs, best, marks, f)


def _int_det(m: List[List[int]]) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def p_count(ad: AffineData, S: Iterable[int], x: int) -> int:
    """Number of strictly positive integer solutions of sum c_a y_a = x,
    the sum running over the extended base minus S (indices 0..rank for
    the simple roots, rank for alpha_0)."""
    if x < 1:
        raise ValueError("x must be a positive integer")
    S = frozenset(S)
    if not S <= set(range(ad.extended_size)) or len(S) == ad.extended_size:
        raise ValueError("S must be a proper subset of the extended base")
    coeffs = [ad.marks[i] for i in range(ad.extended_size) if i not in S]
    ways: Dict[int, int] = {0: 1}
    for c in coeffs:
        nxt: Dict[int, int] = {}
        for t, cnt in ways.items():
            y = 1
            while t + c * y <= x:
                nxt[t + c * y] = nxt.get(t + c * y, 0) + cnt
                y += 1
        ways = nxt
    return ways.get(x, 0)
