"""The signed measures H(W, x) and everything built on them.

Three independent routes to the same measure:

  definition   group data per standard parabolic K (subgroup order,
               normalizer order, number of equivalent subsets) times the
               restricted characteristic polynomial of the arrangement;
  os_sign      the sign-and-evaluation rewrite of the same face weight,
               chi(x) / (x^r * chi(-1)) with alternating sign;
  closed_form  the piecewise-rational closed forms for families
               A, B, H3, H4, keyed by descent statistics.

Also: the one-step chamber walk (an independent oracle via coset minima),
the identity/longest-element product formulas, the positive solution
counting identity for crystallographic types, class pushforwards, and the
walk's spectrum identity.

A subset K of the simple reflections, or a descent set D, is a bitmask
with bit i for simple reflection i, as in ``group``; every per-subset
table here (face weights, descent values, walk values) is a list of 2^r
values indexed by that mask.

A measure is one value table: H(W, x) is constant on right-descent classes
and holds 2^r values, one per descent mask; the walk step is constant on
length-descent classes and holds 2^r values, one per length-descent set.
The table is kept as integer numerators over one positive denominator, as
the builders compute it; the sum-to-one check, comparison, the class
pushforward, the identity and longest-element values, the convolution and
the spectrum product all work on those integers and make one Fraction per
output value.  The Fraction values (in lowest terms) and the dense values
are built on demand; the dense values are never stored.  The
descent-class sums span Solomon's descent algebra, which is closed under
products (L. Solomon, "A Mackey formula in the group ring of a Coxeter
group", J. Algebra 41, 1976).  Products are taken in Solomon's basis
x_K = sum of the w with D(w) and K disjoint, where H's coordinates are its
face weights: H(D) is the sum of v_K over the K disjoint from D.  A factor
moves to x coordinates by the inverse of that subset-sum transform
(``_avoiding_sums``), the coordinates multiply over the algebra's
structure constants in that basis (``CoxeterGroup.mackey_structure``:
592 on A4 and 745 on H4, against 1632 and 3116 in the descent-class
basis), and the product comes back by the transform.  The walk's
transition matrix is right convolution by H (Bidigare-Hanlon-Rockmore,
Duke Math. J. 99, 1999; Brown, Ann. Probab. 28, 2000), so its spectrum
identity
prod over i = 0..r of (M - x^-i I) = 0 is checked as
prod (H - x^-i delta_e) = 0 in the same algebra, on every supported type.
The integer tables are built once per group
(``CoxeterGroup.mackey_structure``, ``measure_counts``,
``class_descent_counts``).  A descent table, and the face weights it is
summed from, need only the group's rank-level data, so they never
enumerate the elements.

For every method, x^r H(D) is a polynomial of degree at most r in x for
each descent mask D, and so is x^r v_K for each face weight.  Each method
is therefore one integer polynomial table per group, built on first use
and kept on the group (``polynomial_tables``): 2^r rows of r + 1 integer
coefficients over one common denominator.  A face row is
c_K chi_K, with c_K = |W_K| / (|N_K| lambda_K) for ``definition`` and
(-1)^(r-|K|) / chi_K(-1) for ``os_sign``; the H rows are their sums over
the K disjoint from D, one subset-sum transform per coefficient.  The
closed forms are expanded to the same shape.  ``h_measure`` and
``face_weights`` evaluate a table at x = a/b: row D is
sum of c_k a^k b^(r-k) over den a^r, one integer dot product per mask.
Both keep the numerators over den a^r, ``h_measure`` as a ``WMeasure`` and
``face_weights`` as a ``FaceWeights`` table, which the walk step reads as
integers; neither makes a Fraction per mask.

The class pushforward is linear in the measure, so each method's H table
pushes forward to one integer class table (``class_tables``), built on the
first pushforward and kept on the group: row C is the sum over descent
masks D of |C and D| times row D.  ``h_measure`` records its method on the
measure, and the pushforward of such a measure is that class table at x,
one (r + 1)-term dot product per class.  A measure with no polynomial
source (a product, a walk step, a table of values) is pushed forward by
one dot product per class over its descent masks, against
``class_descent_counts``.  Either way the class measure's values are one
Fraction per class.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from numbers import Rational
from operator import mul
from typing import Dict, Iterable, List, Optional, Tuple

from .group import CoxeterGroup
from .labels import ClassLabel, ClassMeasure
from .lattice import IntersectionLattice
from .rootdata import affine_data, card_law, p_count


def get_lattice(g: CoxeterGroup) -> IntersectionLattice:
    """The group's intersection lattice; it lives and dies with the group."""
    return g.lattice()


# -- measures -----------------------------------------------------------------


class WMeasure:
    """Signed measure on the group, coefficients summing to one exactly, as
    one value table: the value at element i is ``table[group.measure_keys(
    kind)[i]]``, where the kind is "descent", "length_descent" or
    "element".  The table is kept as integer numerators ``nums`` over one
    positive denominator ``den``, not necessarily in lowest terms; ``table``
    holds the values as Fractions in lowest terms, built on its first read.
    Only the values at given elements (``value``, ``dense``) read
    per-element keys; the rest reads the key counts
    (``group.measure_counts``), which for a descent table are rank-level.

    ``WMeasure(group, x, kind, table)`` takes the values; the builders here
    pass numerators through ``_from_numerators``.  Both go through the one
    check: the right number of values, summing to one.  ``method`` names
    the polynomial table that ``h_measure`` evaluated at ``x_param``, and
    is None on every other measure."""

    __slots__ = ("group", "x_param", "kind", "nums", "den", "method", "_table")

    def __init__(self, group: CoxeterGroup, x_param: Optional[Rational], kind: str, table):
        self._set(group, x_param, kind, *_over_common_denominator(table))

    @classmethod
    def _from_numerators(cls, group: CoxeterGroup, x_param: Optional[Rational], kind: str,
                         nums: Sequence[int], den: int) -> "WMeasure":
        """The measure with values nums[k] / den; den may be negative."""
        m = cls.__new__(cls)
        m._set(group, x_param, kind, nums, den)
        return m

    def _set(self, group, x_param, kind, nums, den):
        counts = group.measure_counts(kind)
        if len(nums) != len(counts):
            raise ValueError("wrong number of values")
        if den < 0:
            nums, den = [-n for n in nums], -den
        total = sum(map(mul, counts.values(), map(nums.__getitem__, counts)))
        if total != den:
            raise ValueError(f"measure coefficients sum to {Fraction(total, den)}, not 1")
        self.group = group
        self.x_param = x_param
        self.kind = kind
        self.nums = tuple(nums)
        self.den = den
        self.method = None
        self._table = None

    @property
    def table(self) -> Tuple[Fraction, ...]:
        if self._table is None:
            den = self.den
            self._table = tuple(Fraction(n, den) for n in self.nums)
        return self._table

    def value(self, i: int) -> Fraction:
        return Fraction(self.nums[self.group.measure_keys(self.kind)[i]], self.den)

    def dense(self) -> Tuple[Fraction, ...]:
        """The value at every element, in element order."""
        return tuple(map(self.table.__getitem__, self.group.measure_keys(self.kind)))

    def _descent_nums(self) -> Sequence[int]:
        """The numerators over ``den`` indexed by descent mask; raises
        ValueError unless the measure is constant on descent classes."""
        if self.kind == "descent":
            return self.nums
        by_mask: Dict[int, int] = {}
        nums = self.nums
        for d, k in self.group.measure_counts("descent", self.kind):
            if by_mask.setdefault(d, nums[k]) != nums[k]:
                raise ValueError("measure is not constant on descent classes")
        return [by_mask[d] for d in range(1 << self.group.rank)]

    def descent_table(self) -> List[Fraction]:
        """The values indexed by descent mask; raises ValueError unless the
        measure is constant on descent classes."""
        if self.kind == "descent":
            return list(self.table)
        den = self.den
        return [Fraction(n, den) for n in self._descent_nums()]

    def __eq__(self, other):
        if not isinstance(other, WMeasure) or self.group is not other.group:
            return False
        # each measure is constant where its key is, so the two agree at every
        # element iff they agree on every pair of keys that occurs; a / da
        # equals b / db iff a db equals b da
        a, b, da, db = self.nums, other.nums, self.den, other.den
        return all(a[i] * db == b[j] * da
                   for i, j in self.group.measure_counts(self.kind, other.kind))

    def __hash__(self):
        # the identity's key is 0 in each kind: no descent, no length
        # descent, index 0; the Fraction reduces the numerator, so equal
        # measures hash equal
        return hash((id(self.group), Fraction(self.nums[0], self.den)))

    def min_value(self) -> Fraction:
        # den > 0, so the least numerator is the least value
        return Fraction(min(map(self.nums.__getitem__, self.group.measure_counts(self.kind))),
                        self.den)


class FaceWeights(Sequence):
    """The face weights v_K of the chamber walk, one per mask of K, as one
    table: integer numerators ``nums`` over one positive denominator
    ``den``, not necessarily in lowest terms.  It reads as a sequence of
    Fractions in lowest terms, built on its first read; ``bhr_step`` and
    ``min_value`` read the integers.

    ``FaceWeights(values)`` takes the values; ``face_weights`` passes the
    numerators of a face table at x through ``_from_numerators``."""

    __slots__ = ("nums", "den", "_values")

    def __init__(self, values):
        self._set(*_over_common_denominator(values))

    @classmethod
    def _from_numerators(cls, nums: Sequence[int], den: int) -> "FaceWeights":
        """The weights nums[K] / den; den may be negative, not zero."""
        w = cls.__new__(cls)
        w._set(nums, den)
        return w

    def _set(self, nums, den):
        if den < 0:
            nums, den = [-n for n in nums], -den
        self.nums = tuple(nums)
        self.den = den
        self._values = None

    def _fractions(self) -> Tuple[Fraction, ...]:
        if self._values is None:
            den = self.den
            self._values = tuple(Fraction(n, den) for n in self.nums)
        return self._values

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, K):
        return self._fractions()[K]

    def __iter__(self):
        return iter(self._fractions())

    def __eq__(self, other):
        # value by value, as two lists of the same numbers compare
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._fractions() == tuple(other)

    def __repr__(self):
        return f"FaceWeights({list(self._fractions())!r})"

    def min_value(self) -> Fraction:
        # den > 0, so the least numerator is the least value
        return Fraction(min(self.nums), self.den)


# -- the polynomial tables ------------------------------------------------------

# a table: rows of r + 1 integer coefficients, x^0 up, over one positive
# common denominator; row i at x is sum of row[k] x^k over den x^r
PolyTable = Tuple[Sequence[Sequence[int]], int]

# piecewise closed forms for the two golden families, keyed by descent data;
# numerators are products of (x + c) over the listed shifts
_H3_SHIFTS = {0: (9, 5, 1), 1: (5, 1, -1), 2: (1, -1, -5), 3: (-1, -5, -9)}
_H4_SHIFTS_D = {0: (29, 19, 11, 1), 3: (1, -1, -11, -19), 4: (-1, -11, -19, -29)}


def polynomial_tables(g: CoxeterGroup, method: str) -> Tuple[Optional[PolyTable], PolyTable]:
    """(face table, H table) of a method, built on first use and kept on the
    group under the method's name.  Row K of the face table is x^r v_K, row
    D of the H table is x^r H(D); ``closed_form`` has no face table.
    Raises ValueError for an unknown method, and for ``closed_form`` on a
    family without one."""
    tables = g._measure_tables.get(method)
    if tables is None:
        if method == "closed_form":
            tables = (None, _closed_form_rows(g))
        elif method in ("definition", "os_sign"):
            rows, den = _face_rows(g, method)
            h_rows = list(zip(*(_avoiding_sums(column) for column in zip(*rows))))
            tables = ((rows, den), (h_rows, den))
        else:
            raise ValueError(f"unknown method {method!r}")
        g._measure_tables[method] = tables
    return tables


def class_tables(g: CoxeterGroup, method: str) -> Tuple[Tuple[ClassLabel, ...], PolyTable]:
    """(class labels, class table) of a method, in ``conjugacy_classes()``
    order, built on first use and kept on the group under the method's
    name.  Row C of the class table is x^r times H's mass on class C: the
    sum over descent masks D of |C and D| times row D of the H table
    (``class_descent_counts``), over the H table's denominator."""
    tables = g._class_tables.get(method)
    if tables is None:
        h_rows, den = polynomial_tables(g, method)[1]
        columns = list(zip(*h_rows))
        rows = [tuple(sum(map(mul, counts, map(column.__getitem__, masks)))
                      for column in columns)
                for masks, counts in g.class_descent_counts()]
        tables = (tuple(c.label for c in g.conjugacy_classes()), (rows, den))
        g._class_tables[method] = tables
    return tables


def _face_rows(g: CoxeterGroup, method: str) -> Tuple[List[Tuple[int, ...]], int]:
    """The coefficients of c_K chi_K per mask of K, over one common denominator."""
    lat = g.lattice()
    r = g.rank
    chis = [lat.char_poly(lat.mask_to_id[std]).coefficients for std in lat.standard_masks]
    if method == "definition":
        scales = [Fraction(pd.subgroup_order, pd.normalizer_order * pd.lambda_count)
                  for pd in g.parabolic_table()]
    else:  # os_sign
        scales = []
        for K, chi in enumerate(chis):
            chi_neg1 = sum(chi[::2]) - sum(chi[1::2])
            if chi_neg1 == 0:
                raise RuntimeError("restricted characteristic polynomial vanishes at -1")
            scales.append(Fraction((-1) ** (r - K.bit_count()), chi_neg1))
    nums, den = _over_common_denominator(scales)
    return [tuple(n * c for c in chi) + (0,) * (r + 1 - len(chi))
            for n, chi in zip(nums, chis)], den


def _avoiding_sums(values: Sequence[int], inverse: bool = False) -> List[int]:
    """Entry D of the result is the sum of values[K] over the K disjoint
    from D: the sums over the subsets of each mask (one pass per bit,
    r 2^(r-1) additions), read at the complement of D, which is entry
    full - D.  With ``inverse``, the values c whose transform is ``values``:
    the same passes with differences, on the values read at the complements.
    In the descent algebra, the transform takes coordinates in Solomon's
    basis x_K to values by descent mask."""
    if inverse:
        out = list(values[::-1])
        for S, T in _subset_steps(len(out)):
            out[S] -= out[T]
        return out
    out = list(values)
    for S, T in _subset_steps(len(out)):
        out[S] += out[T]
    return out[::-1]


@lru_cache(maxsize=None)
def _subset_steps(size: int) -> Tuple[Tuple[int, int], ...]:
    """The steps (S, S without bit) of the subset-sum passes over the masks
    below size, one pass per bit."""
    return tuple((S, S ^ bit) for bit in map((1).__lshift__, range(size.bit_length() - 1))
                 for S in range(size) if S & bit)


def _expand(shifts: Iterable[int]) -> List[int]:
    """The coefficients, x^0 up, of the product of (x + c) over the shifts."""
    out = [1]
    for c in shifts:
        out = [c * u + v for u, v in zip(out + [0], [0] + out)]
    return out


def _closed_form_rows(g: CoxeterGroup) -> Tuple[List[List[int]], int]:
    """The numerators of x^r H(D) by the closed forms, per descent mask,
    over their one denominator; each depends on D through d = |D| alone,
    except for H4."""
    fam = g.root_system.family
    r = g.rank
    masks = range(1 << r)
    if fam in ("A", "B"):
        # A_r's law is over x^(r+1): its shift 0 is the x that x^r cancels; B's are odd
        shifts, den = card_law(fam, r + (fam == "A"))
        return [_expand(c for c in shifts[D.bit_count()] if c) for D in masks], den
    if fam == "H3":
        return [_expand(_H3_SHIFTS[D.bit_count()]) for D in masks], 120
    if fam == "H4":
        return [_h4_numerator(D) for D in masks], 14400
    raise ValueError(f"no closed form for type {g.root_system.type_name()}")


def _h4_numerator(D: int) -> List[int]:
    d = D.bit_count()
    if d in _H4_SHIFTS_D:
        return _expand(_H4_SHIFTS_D[d])
    if d == 1:  # D is {0} or {1} below 0b100, {2} or {3} above
        # (x + 1)(x - 1)(x^2 + 30x + k)
        k = 149 if D < 0b100 else 269
        return [-k, -30, k - 1, 30, 1]
    if D == 0b1100:  # {2, 3}
        return _expand((1, -1, 1, -1))
    return _expand((11, 1, -1, -11))


def _evaluate(table: PolyTable, x: Rational) -> Tuple[List[int], int]:
    """Every row of the table at x = a/b, as numerators over one
    denominator: sum of c_k a^k b^(r-k) over den a^r, one integer dot
    product per row.  The denominator is negative when a^r is."""
    rows, den = table
    a, b = x.numerator, x.denominator
    r = len(rows[0]) - 1
    powers = [a**k * b ** (r - k) for k in range(r + 1)]
    return [sum(map(mul, row, powers)) for row in rows], den * a**r


def _nonzero(x) -> Rational:
    """x as an exact rational: an int or a Fraction as it is, anything else
    through Fraction; raises ValueError at 0."""
    if not isinstance(x, Rational):
        x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    return x


def face_weights(g: CoxeterGroup, x, method: str = "definition") -> FaceWeights:
    """The weight v_K shared by every face of type K (the cosets of W_K) in
    the one-step chamber walk, indexed by the mask of K: the method's face
    table at x, kept as its integer numerators over one denominator."""
    x = _nonzero(x)
    if method not in ("definition", "os_sign"):
        raise ValueError(f"unknown face-weight method {method!r}")
    return FaceWeights._from_numerators(*_evaluate(polynomial_tables(g, method)[0], x))


def h_measure(g: CoxeterGroup, x, method: str = "definition") -> WMeasure:
    """The shuffling measure, by one of the three independent methods: the
    method's H table at x.  The measure records the method, so that its
    pushforward reads the method's class table."""
    x = _nonzero(x)
    nums, den = _evaluate(polynomial_tables(g, method)[1], x)
    m = WMeasure._from_numerators(g, x, "descent", nums, den)
    m.method = method
    return m


# -- identity / longest element ------------------------------------------------


def longshort_values(
    g: CoxeterGroup, x, measure: Optional[WMeasure] = None
) -> Tuple[Fraction, Fraction]:
    """(value at the longest element, value at the identity): the exact
    products prod(x - m_i) and prod(x + m_i) over x^r |W|, for x = a/b the
    integers prod(a - m_i b) and prod(a + m_i b) over a^r |W|.  If a measure
    is supplied, both values are asserted against its values at descent
    masks full and 0, where the two elements are alone."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    exps = g.exponents()
    denom = a**g.rank * g.size
    at_w0 = Fraction(prod(a - m * b for m in exps), denom)
    at_id = Fraction(prod(a + m * b for m in exps), denom)
    if measure is not None:
        nums, den = measure._descent_nums(), measure.den
        if Fraction(nums[-1], den) != at_w0:
            raise AssertionError("longest-element value does not match the product formula")
        if Fraction(nums[0], den) != at_id:
            raise AssertionError("identity value does not match the product formula")
    return at_w0, at_id


class SommersReport:
    """Outcome of the positive-solution counting identity
    sum over proper subsets S of p(S, x) = f * prod(x + m_i) / |W|."""

    __slots__ = ("type_name", "x", "marks", "hypothesis_ok", "lhs", "rhs", "passed")

    def __init__(self, type_name: str, x: int, marks: tuple, hypothesis_ok: bool,
                 lhs: Optional[int] = None, rhs: Optional[Fraction] = None,
                 passed: Optional[bool] = None):
        self.type_name = type_name
        self.x = x
        self.marks = marks
        self.hypothesis_ok = hypothesis_ok
        self.lhs = lhs
        self.rhs = rhs
        self.passed = passed

    def __repr__(self):
        return ("SommersReport("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")")


def sommers_identity_check(g: CoxeterGroup, x: int) -> SommersReport:
    ad = affine_data(g.root_system)
    if any(gcd(x, c) != 1 for c in ad.marks):
        return SommersReport(g.root_system.type_name(), x, ad.marks, hypothesis_ok=False)
    total = 0
    ext = ad.extended_size
    for m in range((1 << ext) - 1):  # proper subsets S of the extended base
        S = {i for i in range(ext) if m >> i & 1}
        total += p_count(ad, S, x)
    rhs = Fraction(ad.index_of_connection)
    for e in g.exponents():
        rhs *= x + e
    rhs /= g.size
    return SommersReport(
        g.root_system.type_name(), x, ad.marks, True, total, rhs, Fraction(total) == rhs
    )


# -- the chamber walk ----------------------------------------------------------


def bhr_step(g: CoxeterGroup, weights: FaceWeights) -> WMeasure:
    """One step of the chamber walk started at the identity chamber, for
    the face weights v_K (a ``FaceWeights`` table indexed by the mask of
    K; ``FaceWeights(values)`` wraps a list of values).

    The weights must satisfy sum over K of |W| / |W_K| v_K = 1, one weight
    per face; this is checked from the rank-level parabolic data, before
    any element table is read.  For each face (a coset uW_K) the landing
    chamber is the coset element of minimal length, and w is the minimum
    of w W_K iff K avoids its length-descent set L(w) = {s : l(ws) < l(w)}.
    So the walk lands on w with the sum of v_K over the K with K and L(w)
    disjoint, one value per mask of L (``g.length_descents()``): the
    subset-sum transform (``_avoiding_sums``) of the table's integer
    numerators over its denominator, with no Fraction made.  Computed
    from lengths alone, independently of the descent sets and of h_measure,
    as a cross-check oracle: L(w) comes from lengths in the Cayley graph
    (l(ws) < l(w)), while H reads each element's descent mask off the root
    action (w(alpha_s) < 0).  The two agree by the theorem l(ws) < l(w) iff
    w(alpha_s) < 0, so an error in either table breaks the equality."""
    if not isinstance(weights, FaceWeights):
        raise TypeError("face weights must be a FaceWeights table")
    nums, den = weights.nums, weights.den
    total = sum(g.size // pd.subgroup_order * n for pd, n in zip(g.parabolic_table(), nums))
    if total != den:
        raise ValueError(f"face weights sum to {Fraction(total, den)}, not 1")
    return WMeasure._from_numerators(g, None, "length_descent", _avoiding_sums(nums), den)


# -- descent-algebra operations -------------------------------------------------


def _x_product(g: CoxeterGroup, ca: Sequence[int], cb: Sequence[int]) -> List[int]:
    """The descent-algebra product on coordinates in Solomon's basis x_K:
    per L, the sum of M(J, K; L) ca[J] cb[K] over the structure constants
    of L (``g.mackey_structure()``)."""
    ab = [u * v for u in ca for v in cb]  # indexed by J << rank | K
    return [sum(map(mul, counts, map(ab.__getitem__, pairs)))
            for pairs, counts in g.mackey_structure()]


def _product_numerators(g: CoxeterGroup, na: Sequence[int], nb: Sequence[int]) -> List[int]:
    """The descent-algebra product on numerators by descent mask: both
    factors to x coordinates, their product there, and back."""
    return _avoiding_sums(_x_product(g, _avoiding_sums(na, inverse=True),
                                     _avoiding_sums(nb, inverse=True)))


def convolve(m1: WMeasure, m2: WMeasure) -> WMeasure:
    """The product measure out(w) = sum over uv = w of m1(u) m2(v), in the
    descent algebra on the factors' numerators (``_product_numerators``, in
    Solomon's x_K coordinates), over the product of their denominators.
    Both factors must be constant on descent classes (ValueError
    otherwise)."""
    if m1.group is not m2.group:
        raise ValueError("measures live on different groups")
    g = m1.group
    return WMeasure._from_numerators(
        g, None, "descent", _product_numerators(g, m1._descent_nums(), m2._descent_nums()),
        m1.den * m2.den)


def spectrum_product(h: WMeasure, factors: Optional[int] = None) -> List[Fraction]:
    """The product of (H - x^-i delta_e) over i = 0..factors-1 in the descent
    algebra, by descent mask; ``factors`` defaults to rank + 1.  delta_e is 1
    at the identity, the one element with no descents.  The chamber walk's
    transition matrix M[u][w] = H(u^-1 w) is right convolution by H
    (Bidigare-Hanlon-Rockmore), so with all factors this vanishes iff
    prod over i = 0..rank of (M - x^-i I) does.  The product stays in
    Solomon's x_K coordinates from the first factor to the last and comes
    back to descent masks once.  H's coordinates, its face weights, are
    c over den, and delta_e = x_S, the x of the full mask S; with
    x = a/b, factor i is c times a^i, less den b^i at S, over den a^i.  The
    product starts from factor 0 and multiplies the others in as
    ``convolve``'s factors do (``_x_product``), factors - 1 products in
    all; each output value is one Fraction over the product of the
    factors' denominators.  Raises ValueError for fewer than one factor."""
    if h.x_param is None:
        raise ValueError("the measure carries no x")
    g = h.group
    count = g.rank + 1 if factors is None else factors
    if count < 1:
        raise ValueError("the product needs at least one factor")
    x = Fraction(h.x_param)
    a, b = x.numerator, x.denominator
    coords, den = _avoiding_sums(h._descent_nums(), inverse=True), h.den
    full = (1 << g.rank) - 1
    prod = list(coords)  # factor 0, H - delta_e
    prod[full] -= den
    prod_den = den
    for i in range(1, count):
        a_i = a**i
        factor = [c * a_i for c in coords]
        factor[full] -= den * b**i
        prod = _x_product(g, prod, factor)
        prod_den *= den * a_i
    return [Fraction(n, prod_den) for n in _avoiding_sums(prod)]


def _over_common_denominator(values) -> Tuple[List[int], int]:
    """Integer numerators of the values over their least common denominator."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def pushforward_classes(m: WMeasure) -> ClassMeasure:
    """Total measure of each conjugacy class.  For a measure that
    ``h_measure`` made, its method's class table (``class_tables``) at its
    x: one (r + 1)-term dot product per class.  For any other, the sum over
    descent masks D of m[D] times the number of class members in descent
    class D (``g.class_descent_counts()``): one integer dot product per
    class on the measure's numerators, over its denominator; the measure
    must be constant on descent classes (ValueError otherwise)."""
    g = m.group
    if m.method is not None:
        labels, table = class_tables(g, m.method)
        return ClassMeasure._from_numerators(labels, *_evaluate(table, m.x_param))
    nums = m._descent_nums()
    return ClassMeasure._from_numerators(
        [c.label for c in g.conjugacy_classes()],
        [sum(map(mul, counts, map(nums.__getitem__, masks)))
         for masks, counts in g.class_descent_counts()],
        m.den)
