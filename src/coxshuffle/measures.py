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
Dense values are built on demand and never stored.  The descent-class sums
span Solomon's descent algebra, which is closed under products (L. Solomon,
"A Mackey formula in the group ring of a Coxeter group", J. Algebra 41,
1976), so a convolution is one integer combination of the algebra's
structure constants per descent class.  The walk's transition matrix is
right convolution by H (Bidigare-Hanlon-Rockmore, Duke Math. J. 99, 1999;
Brown, Ann. Probab. 28, 2000), so its spectrum identity
prod over i = 0..r of (M - x^-i I) = 0 is checked as
prod (H - x^-i delta_e) = 0 in the same algebra, on every supported type.
The integer tables are built once per group
(``CoxeterGroup.descent_structure``, ``measure_counts``,
``class_descent_counts``).  A descent table, and the face weights it is
summed from, need only the group's rank-level data, so they never
enumerate the elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .group import CoxeterGroup
from .labels import ClassLabel, ClassMeasure
from .lattice import IntersectionLattice
from .rootdata import affine_data, p_count


def get_lattice(g: CoxeterGroup) -> IntersectionLattice:
    """The group's intersection lattice; it lives and dies with the group."""
    return g.lattice()


def binom(x: Union[int, Fraction], n: int) -> Fraction:
    """Generalized binomial coefficient: x(x-1)...(x-n+1)/n!."""
    num = Fraction(1)
    for j in range(n):
        num *= Fraction(x) - j
    return num / factorial(n)


# -- measures -----------------------------------------------------------------


class WMeasure:
    """Signed measure on the group, coefficients summing to one exactly, as
    one value table: the value at element i is ``table[group.measure_keys(
    kind)[i]]``, where the kind is "descent", "length_descent" or
    "element".  Only the values at given elements (``value``, ``dense``)
    read per-element keys; the rest reads the key counts
    (``group.measure_counts``), which for a descent table are rank-level."""

    def __init__(self, group: CoxeterGroup, x_param: Optional[Fraction], kind: str, table):
        counts = group.measure_counts(kind)
        if len(table) != len(counts):
            raise ValueError("wrong number of values")
        total = sum(n * table[k] for k, n in counts.items())
        if total != 1:
            raise ValueError(f"measure coefficients sum to {total}, not 1")
        self.group = group
        self.x_param = x_param
        self.kind = kind
        self.table = tuple(table)

    def value(self, i: int) -> Fraction:
        return self.table[self.group.measure_keys(self.kind)[i]]

    def dense(self) -> Tuple[Fraction, ...]:
        """The value at every element, in element order."""
        return tuple(map(self.table.__getitem__, self.group.measure_keys(self.kind)))

    def descent_table(self) -> List[Fraction]:
        """The values indexed by descent mask; raises ValueError unless the
        measure is constant on descent classes."""
        by_mask: Dict[int, Fraction] = {}
        for d, k in self.group.measure_counts("descent", self.kind):
            if by_mask.setdefault(d, self.table[k]) != self.table[k]:
                raise ValueError("measure is not constant on descent classes")
        return [by_mask[d] for d in range(1 << self.group.rank)]

    def __eq__(self, other):
        if not isinstance(other, WMeasure) or self.group is not other.group:
            return False
        # each measure is constant where its key is, so the two agree at every
        # element iff they agree on every pair of keys that occurs
        a, b = self.table, other.table
        return all(a[i] == b[j] for i, j in self.group.measure_counts(self.kind, other.kind))

    def __hash__(self):
        # the identity's key is 0 in each kind: no descent, no length
        # descent, index 0
        return hash((id(self.group), self.table[0]))

    def min_value(self) -> Fraction:
        return min(map(self.table.__getitem__, self.group.measure_counts(self.kind)))


def face_weights(g: CoxeterGroup, x, method: str = "definition") -> List[Fraction]:
    """The weight v_K shared by every face of type K (the cosets of W_K) in
    the one-step chamber walk, as a list indexed by the mask of K."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    lat = get_lattice(g)
    r = g.rank
    xr = x**r
    weights: List[Fraction] = []
    for K in range(1 << r):
        chi = lat.char_poly(lat.mask_to_id[lat.standard_masks[K]])
        if method == "definition":
            pd = g.parabolic_table()[K]
            weights.append(pd.subgroup_order * chi(x)
                           / (xr * pd.normalizer_order * pd.lambda_count))
        elif method == "os_sign":
            chi_neg1 = chi(-1)
            if chi_neg1 == 0:
                raise RuntimeError("restricted characteristic polynomial vanishes at -1")
            weights.append((-1) ** (r - K.bit_count()) * chi(x) / (xr * chi_neg1))
        else:
            raise ValueError(f"unknown face-weight method {method!r}")
    return weights


def h_measure(g: CoxeterGroup, x, method: str = "definition") -> WMeasure:
    """The shuffling measure, by one of the three independent methods."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    if method in ("definition", "os_sign"):
        weights = face_weights(g, x, method)
        table = [
            sum((v for K, v in enumerate(weights) if not K & D), Fraction(0))
            for D in range(1 << g.rank)
        ]
        return WMeasure(g, x, "descent", table)
    if method == "closed_form":
        return _closed_form(g, x)
    raise ValueError(f"unknown method {method!r}")


# piecewise closed forms for the two golden families, keyed by descent data;
# numerators are products of (x + c) over the listed shifts
_H3_SHIFTS = {0: (9, 5, 1), 1: (5, 1, -1), 2: (1, -1, -5), 3: (-1, -5, -9)}
_H4_SHIFTS_D = {0: (29, 19, 11, 1), 3: (1, -1, -11, -19), 4: (-1, -11, -19, -29)}


def _closed_form(g: CoxeterGroup, x: Fraction) -> WMeasure:
    fam = g.root_system.family
    r = g.rank
    masks = range(1 << r)
    if fam == "A":
        n = r + 1
        values = [binom(x + n - 1 - D.bit_count(), n) / x**n for D in masks]
    elif fam == "B":
        denom = x**r * 2**r * factorial(r)
        values = [prod(x + 2 * i - 1 - 2 * D.bit_count() for i in range(1, r + 1)) / denom
                  for D in masks]
    elif fam == "H3":
        values = [prod(x + c for c in _H3_SHIFTS[D.bit_count()]) / (120 * x**3) for D in masks]
    elif fam == "H4":
        values = [_h4_numerator(x, D) / (14400 * x**4) for D in masks]
    else:
        raise ValueError(f"no closed form for type {g.root_system.type_name()}")
    return WMeasure(g, x, "descent", values)


def _h4_numerator(x: Fraction, D: int) -> Fraction:
    d = D.bit_count()
    if d in _H4_SHIFTS_D:
        return prod(x + c for c in _H4_SHIFTS_D[d])
    if d == 1:  # D is {0} or {1} below 0b100, {2} or {3} above
        return (x + 1) * (x - 1) * (x * x + 30 * x + (149 if D < 0b100 else 269))
    if D == 0b1100:  # {2, 3}
        return ((x + 1) * (x - 1)) ** 2
    return (x + 11) * (x + 1) * (x - 1) * (x - 11)


# -- identity / longest element ------------------------------------------------


def longshort_values(
    g: CoxeterGroup, x, measure: Optional[WMeasure] = None
) -> Tuple[Fraction, Fraction]:
    """(value at the longest element, value at the identity): the exact
    products prod(x - m_i) and prod(x + m_i) over x^r |W|.  If a measure is
    supplied, both values are asserted against its values at descent masks
    full and 0, where the two elements are alone."""
    x = Fraction(x)
    exps = g.exponents()
    denom = x**g.rank * g.size
    at_w0 = Fraction(1)
    at_id = Fraction(1)
    for m in exps:
        at_w0 *= x - m
        at_id *= x + m
    at_w0 /= denom
    at_id /= denom
    if measure is not None:
        values = measure.descent_table()
        if values[-1] != at_w0:
            raise AssertionError("longest-element value does not match the product formula")
        if values[0] != at_id:
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


def bhr_step(g: CoxeterGroup, weights: Sequence[Fraction]) -> WMeasure:
    """One step of the chamber walk started at the identity chamber, for
    the face weights v_K (a list indexed by the mask of K).

    The weights must satisfy sum over K of |W| / |W_K| v_K = 1, one weight
    per face; this is checked from the rank-level parabolic data, before
    any element table is read.  For each face (a coset uW_K) the landing
    chamber is the coset element of minimal length, and w is the minimum
    of w W_K iff K avoids its length-descent set L(w) = {s : l(ws) < l(w)}.
    So the walk lands on w with the sum of v_K over the K with K and L(w)
    disjoint, one value per mask of L (``g.length_descents()``).  Computed
    from lengths alone, independently of the descent sets and of h_measure,
    as a cross-check oracle: L(w) comes from lengths in the Cayley graph
    (l(ws) < l(w)), while H reads each element's descent mask off the root
    action (w(alpha_s) < 0).  The two agree by the theorem l(ws) < l(w) iff
    w(alpha_s) < 0, so an error in either table breaks the equality."""
    total = sum(Fraction(g.size, pd.subgroup_order) * v
                for pd, v in zip(g.parabolic_table(), weights))
    if total != 1:
        raise ValueError(f"face weights sum to {total}, not 1")
    table = [
        sum((v for K, v in enumerate(weights) if not K & L), Fraction(0))
        for L in range(1 << g.rank)
    ]
    return WMeasure(g, None, "length_descent", table)


# -- descent-algebra operations -------------------------------------------------


def descent_product(g: CoxeterGroup, a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    """Product in Solomon's descent algebra of two elements given by their
    values per descent mask: the group-algebra product out(w) = sum over
    uv = w of a(u) b(v), which is again constant on descent classes, by its
    value per class, out[D] = sum of N a[D1] b[D2] over the group's cached
    structure constants (D1, D2, N) of D (``CoxeterGroup.descent_structure``).
    With each factor's values put as integer numerators over one common
    denominator, A and B, every class value is one integer sum and one
    Fraction over A B."""
    na, den_a = _over_common_denominator(a)
    nb, den_b = _over_common_denominator(b)
    ab = [u * v for u in na for v in nb]  # indexed by D1 << rank | D2
    den = den_a * den_b
    return [
        Fraction(sum(map(mul, counts, map(ab.__getitem__, pairs))), den)
        for pairs, counts in g.descent_structure()
    ]


def convolve(m1: WMeasure, m2: WMeasure) -> WMeasure:
    """The product measure out(w) = sum over uv = w of m1(u) m2(v), by
    ``descent_product``.  Both factors must be constant on descent classes
    (``descent_table`` raises ValueError otherwise)."""
    if m1.group is not m2.group:
        raise ValueError("measures live on different groups")
    g = m1.group
    return WMeasure(g, None, "descent", descent_product(g, m1.descent_table(), m2.descent_table()))


def spectrum_product(h: WMeasure, factors: Optional[int] = None) -> List[Fraction]:
    """The product of (H - x^-i delta_e) over i = 0..factors-1 in the descent
    algebra, by descent mask; ``factors`` defaults to rank + 1.  delta_e is 1
    at the identity, the one element with no descents.  The chamber walk's
    transition matrix M[u][w] = H(u^-1 w) is right convolution by H
    (Bidigare-Hanlon-Rockmore), so with all factors this vanishes iff
    prod over i = 0..rank of (M - x^-i I) does."""
    if h.x_param is None:
        raise ValueError("the measure carries no x")
    g = h.group
    x = Fraction(h.x_param)
    values = h.descent_table()
    prod = [Fraction(int(d == 0)) for d in range(1 << g.rank)]
    for i in range(g.rank + 1 if factors is None else factors):
        c = x**-i
        factor = [v - c if d == 0 else v for d, v in enumerate(values)]
        prod = descent_product(g, prod, factor)
    return prod


def _over_common_denominator(values) -> Tuple[List[int], int]:
    """Integer numerators of the values over their least common denominator."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def pushforward_classes(m: WMeasure) -> ClassMeasure:
    """Total measure of each conjugacy class, as the sum over descent masks D
    of m[D] times the number of class members in descent class D
    (``g.class_descent_counts()``).  The measure must be constant on descent
    classes (``descent_table`` raises ValueError otherwise)."""
    g = m.group
    # integer numerators, indexed by descent mask, over a common denominator:
    # one Fraction per class
    nums, den = _over_common_denominator(m.descent_table())
    out: Dict[ClassLabel, Fraction] = {}
    for c, counts in zip(g.conjugacy_classes(), g.class_descent_counts()):
        out[c.label] = Fraction(sum(n * nums[d] for d, n in counts.items()), den)
    return ClassMeasure(out)
