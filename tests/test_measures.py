"""The shuffling measures: three methods, walk oracle, convolution, spectrum."""

import itertools
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import add

import pytest

from coxshuffle.group import get_group
from coxshuffle.measures import (
    ClassMeasure,
    FaceWeights,
    WMeasure,
    bhr_step,
    class_tables,
    convolve,
    face_weights,
    h_measure,
    longshort_values,
    polynomial_tables,
    pushforward_classes,
    sommers_identity_check,
    spectrum_product,
)
from coxshuffle.rootdata import parse_type
from test_group import byte_key_product, descent_structure, subgroup_elements
from test_shuffling import exact_shuffle_law

SMALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "G2",
               "I2(2)", "I2(5)", "I2(6)", "I2(10)", "D4"]
SUPPORTED = SMALL_TYPES + ["I2(3)", "I2(4)", "H3", "H4"]
CLOSED_FORM_TYPES = [t for t in SUPPORTED if t[0] in "AB" or t in ("H3", "H4")]
METHODS = ("definition", "os_sign", "closed_form")
ORACLE_XS = [2, Fraction(1, 2), -1, Fraction(7, 3)]


def binom(x, n: int) -> Fraction:
    """Generalized binomial coefficient: x(x-1)...(x-n+1)/n!."""
    num = Fraction(1)
    for j in range(n):
        num *= Fraction(x) - j
    return num / factorial(n)


def uniform_chamber_weights(g):
    """All weight on the chambers (type-empty faces), uniformly."""
    weights = [Fraction(0)] * (1 << g.rank)
    weights[0] = Fraction(1, g.size)
    return FaceWeights(weights)


def face_total(g, weights):
    """Oracle: sum over K of |W| / |W_K| v_K, one weight per face."""
    return sum(Fraction(g.size, pd.subgroup_order) * v
               for pd, v in zip(g.parabolic_table(), weights))


# -- the per-x oracle: each chi_K evaluated at x, 3^r Fraction sums -----------


def oracle_face_weights(g, x, method):
    """Oracle: each face weight from chi_K evaluated at x by Horner
    (``CharPoly.__call__``) and the method's scale."""
    x = Fraction(x)
    lat = g.lattice()
    r = g.rank
    weights = []
    for K in range(1 << r):
        chi = lat.char_poly(lat.mask_to_id[lat.standard_masks[K]])
        if method == "definition":
            pd = g.parabolic_table()[K]
            weights.append(pd.subgroup_order * chi(x)
                           / (x**r * pd.normalizer_order * pd.lambda_count))
        else:
            weights.append((-1) ** (r - K.bit_count()) * chi(x) / (x**r * chi(-1)))
    return weights


def oracle_h4_numerator(x, D):
    d = D.bit_count()
    shifts = {0: (29, 19, 11, 1), 3: (1, -1, -11, -19), 4: (-1, -11, -19, -29)}
    if d in shifts:
        return prod(x + c for c in shifts[d])
    if d == 1:
        return (x + 1) * (x - 1) * (x * x + 30 * x + (149 if D < 0b100 else 269))
    if D == 0b1100:
        return ((x + 1) * (x - 1)) ** 2
    return (x + 11) * (x + 1) * (x - 1) * (x - 11)


def oracle_closed_form(g, x):
    """Oracle: the closed forms at x, by descent mask."""
    x = Fraction(x)
    r = g.rank
    masks = range(1 << r)
    fam = g.root_system.family
    if fam == "A":
        return [binom(x + r - D.bit_count(), r + 1) / x ** (r + 1) for D in masks]
    if fam == "B":
        denom = x**r * 2**r * factorial(r)
        return [prod(x + 2 * i - 1 - 2 * D.bit_count() for i in range(1, r + 1)) / denom
                for D in masks]
    if fam == "H3":
        shifts = {0: (9, 5, 1), 1: (5, 1, -1), 2: (1, -1, -5), 3: (-1, -5, -9)}
        return [prod(x + c for c in shifts[D.bit_count()]) / (120 * x**3) for D in masks]
    return [oracle_h4_numerator(x, D) / (14400 * x**4) for D in masks]


def oracle_h_values(g, x, method):
    """Oracle: H(D) per descent mask, as the sum of the face weights of the K
    disjoint from D, or by the closed form."""
    if method == "closed_form":
        return oracle_closed_form(g, x)
    weights = oracle_face_weights(g, x, method)
    return [sum((v for K, v in enumerate(weights) if not K & D), Fraction(0))
            for D in range(1 << g.rank)]


def methods_of(t):
    return METHODS if t in CLOSED_FORM_TYPES else METHODS[:2]


def point_mass(g, i: int) -> WMeasure:
    """The measure with all its mass on element i."""
    dense = [Fraction(0)] * g.size
    dense[i] = Fraction(1)
    return WMeasure(g, None, "element", dense)


def test_a1_x2_against_shuffle_oracle():
    # oracle: brute-force enumeration of one 2-shuffle of 2 cards
    g = get_group("A1")
    law = exact_shuffle_law("gsr_a", 2, 2)
    m = h_measure(g, 2, "definition")
    assert m.value(0) == law[(1, 2)] == Fraction(3, 4)
    assert m.value(1) == law[(2, 1)] == Fraction(1, 4)


@pytest.mark.parametrize("t", SMALL_TYPES)
@pytest.mark.parametrize("x", [2, 3, Fraction(1, 2), -1])
def test_triple_agreement_small(t, x):
    g = get_group(t)
    md = h_measure(g, x, "definition")
    assert md == h_measure(g, x, "os_sign")
    if g.root_system.family in ("A", "B"):
        assert md == h_measure(g, x, "closed_form")


def test_closed_form_rejected_for_unsupported_families():
    with pytest.raises(ValueError):
        h_measure(get_group("G2"), 2, "closed_form")


def test_x_zero_rejected():
    with pytest.raises(ValueError):
        h_measure(get_group("A2"), 0)


def test_mass_on_longest_at_minus_one():
    for t in SMALL_TYPES + ["H3"]:
        g = get_group(t)
        m = h_measure(g, -1, "definition")
        assert m.value(g.longest_index) == 1


def test_normalization_worpitzky():
    # for family A the normalization is the classical power-sum identity
    for n, x in [(3, 2), (3, 5), (4, 3)]:
        total = sum(
            binom(
                x + n - 1 - sum(1 for i in range(n - 1) if p[i] > p[i + 1]), n
            )
            for p in itertools.permutations(range(1, n + 1))
        )
        assert total == Fraction(x) ** n


def test_descent_class_constancy():
    g = get_group("B3")
    m = h_measure(g, 3, "definition")
    by_descent = m.descent_table()
    for i in range(g.size):
        assert m.value(i) == by_descent[g.descent_mask[i]]


def test_measure_sum_guard():
    g = get_group("A1")
    with pytest.raises(ValueError, match="sum to 3/4"):
        WMeasure(g, None, "element", [Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError, match="wrong number of values"):
        WMeasure(g, None, "element", [Fraction(1)])
    with pytest.raises(ValueError, match="unknown measure key kind"):
        WMeasure(g, None, "coset", [Fraction(1, 2), Fraction(1, 2)])
    values = h_measure(g, 2).descent_table()
    values[0] += 1
    with pytest.raises(ValueError, match="sum to 2"):
        WMeasure(g, None, "descent", values)


def test_longshort_examples():
    g = get_group("A2")
    w0v, idv = longshort_values(g, 2, h_measure(g, 2, "definition"))
    assert (w0v, idv) == (Fraction(0), Fraction(1, 2))
    g = get_group("B2")
    _, idv = longshort_values(g, 3, h_measure(g, 3, "definition"))
    assert idv == Fraction(24, 72)
    # at x = -1 the longest element carries everything, the identity nothing
    for t in SMALL_TYPES:
        g = get_group(t)
        w0v, idv = longshort_values(g, -1, h_measure(g, -1, "definition"))
        assert w0v == 1 and idv == 0


def test_longshort_assertion_fires_on_wrong_measure():
    g = get_group("A2")
    wrong = h_measure(g, 3, "definition")
    with pytest.raises(AssertionError):
        longshort_values(g, 2, wrong)


def brute_sommers_lhs(g, x):
    from coxshuffle.rootdata import affine_data

    ad = affine_data(g.root_system)
    total = 0
    for mask in range((1 << ad.extended_size) - 1):
        S = {i for i in range(ad.extended_size) if mask >> i & 1}
        coeffs = [ad.marks[i] for i in range(ad.extended_size) if i not in S]
        for ys in itertools.product(*[range(1, x + 1) for _ in coeffs]):
            if sum(c * y for c, y in zip(coeffs, ys)) == x:
                total += 1
    return total


def test_sommers_examples():
    r = sommers_identity_check(get_group("A1"), 5)
    assert r.lhs == 6 and r.rhs == Fraction(6) and r.passed
    assert brute_sommers_lhs(get_group("A1"), 5) == 6
    r = sommers_identity_check(get_group("A2"), 4)
    assert r.passed and r.lhs == brute_sommers_lhs(get_group("A2"), 4)
    r = sommers_identity_check(get_group("G2"), 5)
    assert r.passed


def test_sommers_hypothesis_gate():
    r = sommers_identity_check(get_group("B2"), 2)  # 2 divides a mark
    assert not r.hypothesis_ok and r.passed is None


def full_type_weights(g):
    """All weight on the one face of full type K = S, the whole group."""
    weights = [Fraction(0)] * (1 << g.rank)
    weights[(1 << g.rank) - 1] = Fraction(1)
    return FaceWeights(weights)


def test_bhr_point_mass_on_full_type():
    g = get_group("B2")
    m = bhr_step(g, full_type_weights(g))
    assert m.value(0) == 1  # the chamber closest to the identity is the identity


def dense_bhr_step(g, weights):
    """Oracle: the walk step one element at a time, v_K added to every
    minimum of a coset of W_K."""
    dense = [Fraction(0)] * g.size
    for K, v in zip(_subsets(g.rank), weights):
        reps = g.coset_minreps(K)
        for i in range(g.size):
            if reps[i] == i:
                dense[i] += v
    return tuple(dense)


def dense_pushforward(m):
    """Oracle: each class mass as the sum of the measure over its members."""
    return {c.label: sum(m.value(i) for i in c.members) for c in m.group.conjugacy_classes()}


@pytest.mark.parametrize("t", SUPPORTED)
def test_bhr_step_against_dense_oracle(t):
    g = get_group(t)
    weights = {x: face_weights(g, x) for x in ORACLE_XS}
    weights["uniform"] = uniform_chamber_weights(g)
    weights["full type"] = full_type_weights(g)
    for label, fw in weights.items():
        assert bhr_step(g, fw).dense() == dense_bhr_step(g, fw), label


def test_bhr_step_reads_no_descent_sets_and_no_measure(monkeypatch):
    import coxshuffle.measures as measures
    from coxshuffle.group import CoxeterGroup
    from coxshuffle.rootdata import parse_type

    g = CoxeterGroup(parse_type("B3"))  # a private group: its descent table is removed
    fw = face_weights(g, 3)
    expected = dense_bhr_step(g, fw)
    g.descent_mask = None

    def no_measure(*args, **kwargs):
        raise AssertionError("the walk step must not call h_measure")

    monkeypatch.setattr(measures, "h_measure", no_measure)
    assert bhr_step(g, fw).dense() == expected


@pytest.mark.parametrize("t", ["A4", "B4", "D4", "H4"])
def test_walk_step_builds_no_fraction(t, monkeypatch):
    import coxshuffle.measures as measures

    g = get_group(t)
    xs = [2, Fraction(7, 3), Fraction(-5, 2)]
    expected = [h_measure(g, x) for x in xs]
    for method in ("definition", "os_sign"):
        bhr_step(g, face_weights(g, 2, method))  # builds the group's tables

    def no_fraction(*args):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(measures, "Fraction", no_fraction)
    walks = [bhr_step(g, face_weights(g, x, method)) for x in xs
             for method in ("definition", "os_sign")]
    monkeypatch.undo()
    assert walks == [m for m in expected for _ in range(2)]


@pytest.mark.parametrize("t", SUPPORTED)
def test_pushforward_against_dense_oracle(t):
    g = get_group(t)
    for x in ORACLE_XS:
        m = h_measure(g, x)
        assert pushforward_classes(m).values == dense_pushforward(m), x


@pytest.mark.parametrize("t", ["B3", "D4"])
def test_pushforward_of_a_product_against_dense_oracle(t):
    g = get_group(t)
    prod = convolve(h_measure(g, 2), h_measure(g, 3))
    assert pushforward_classes(prod).values == dense_pushforward(prod)


def test_class_measure_sum_check():
    from coxshuffle.labels import ClassLabel

    a, b = ClassLabel("opaque", (0,)), ClassLabel("opaque", (1,))
    assert ClassMeasure({a: Fraction(1, 3), b: Fraction(2, 3)}).values[b] == Fraction(2, 3)
    assert ClassMeasure({a: 1, b: Fraction(0)}).values[a] == 1
    for values in ({a: Fraction(1, 3), b: Fraction(1, 2)},
                   {a: Fraction(1, 3), b: Fraction(2, 3) + Fraction(1, 10**30)}, {}):
        with pytest.raises(ValueError, match="class measure does not sum to 1"):
            ClassMeasure(values)


def test_class_measure_from_numerators_checks_the_sum_exactly():
    from coxshuffle.labels import ClassLabel

    a, b = ClassLabel("opaque", (0,)), ClassLabel("opaque", (1,))
    m = ClassMeasure._from_numerators([a, b], [2, 4], 6)
    # the values are Fractions in lowest terms, built with the measure
    assert m.values == {a: Fraction(1, 3), b: Fraction(2, 3)} == ClassMeasure(m.values).values
    assert all(type(v) is Fraction for v in m.values.values())
    for den in (5, 7):
        with pytest.raises(ValueError, match="class measure does not sum to 1"):
            ClassMeasure._from_numerators([a, b], [2, 4], den)
    # the pushforward's own class numerators, with the denominator one off
    g = get_group("B3")
    h = h_measure(g, Fraction(7, 3))
    labels = [c.label for c in g.conjugacy_classes()]
    nums = [round(pushforward_classes(h).values[k] * h.den) for k in labels]
    assert ClassMeasure._from_numerators(labels, nums, h.den) == pushforward_classes(h)
    for den in (h.den - 1, h.den + 1):
        with pytest.raises(ValueError, match="class measure does not sum to 1"):
            ClassMeasure._from_numerators(labels, nums, den)


def pushforward_or_none(m):
    """``pushforward_classes(m)``'s values, or None where its sum check
    refuses them."""
    try:
        return pushforward_classes(m).values
    except ValueError:
        return None


def per_x(m):
    """The same measure with no method recorded: its pushforward takes the
    per-x path, one dot product per class over its descent masks."""
    return WMeasure._from_numerators(m.group, m.x_param, m.kind, m.nums, m.den)


@pytest.mark.parametrize("t", ["A3", "B3", "D4", "H3"])
def test_a_class_count_off_by_one_changes_the_pushforward(t, monkeypatch):
    from coxshuffle.group import CoxeterGroup

    g = get_group(t)
    m = h_measure(g, Fraction(7, 3))
    # every numerator is nonzero, so every count enters the sums
    assert all(m.nums)
    expect = fraction_pushforward(m)
    # the class table's path and the per-x path
    paths = (m, per_x(m))
    assert [pushforward_or_none(pm) for pm in paths] == [expect, expect]
    rows = g.class_descent_counts()
    for i, (masks, counts) in enumerate(rows):
        for j, d in enumerate(masks):
            # one count off by one; then, to keep the total, the same mask's
            # count in another class off by one the other way
            other = next((k for k, (ms, _) in enumerate(rows) if k != i and d in ms), None)
            for moved in (False, True) if other is not None else (False,):
                bumped = list(rows)
                bumped[i] = (masks, counts[:j] + (counts[j] + 1,) + counts[j + 1:])
                if moved:
                    ms, cs = rows[other]
                    at = ms.index(d)
                    bumped[other] = (ms, cs[:at] + (cs[at] - 1,) + cs[at + 1:])
                monkeypatch.setattr(CoxeterGroup, "class_descent_counts", lambda self: bumped)
                # the class tables are built anew, from the bumped counts
                monkeypatch.setattr(g, "_class_tables", {})
                got = [pushforward_or_none(pm) for pm in paths]
                monkeypatch.undo()
                for path, values in zip(("class table", "per x"), got):
                    assert values != expect, (i, d, moved, path)
                    assert (values is None) != moved, (i, d, moved, path)
    assert [pushforward_or_none(pm) for pm in paths] == [expect, expect]


# r + 2 values of x for every supported rank, negative and non-integral ones
# among them: a class table that agrees with the per-x path at all of them
# agrees with it for every x
CLASS_TABLE_XS = [2, Fraction(1, 2), -1, Fraction(7, 3), Fraction(-5, 2), Fraction(10007, 3),
                  Fraction(-3, 4)]


def class_tables_agree(g, method):
    """The pushforward by the method's class table against the per-x path at
    each of ``CLASS_TABLE_XS``; a table whose class measure does not sum to
    1 fails in the class measure's constructor, and the comparison with it."""
    try:
        return all(pushforward_classes(m).values == pushforward_classes(per_x(m)).values
                   for m in (h_measure(g, x, method) for x in CLASS_TABLE_XS))
    except ValueError:
        return False


@pytest.mark.parametrize("t", SUPPORTED)
def test_class_tables_equal_the_per_x_pushforward(t):
    g = get_group(t)
    assert len(CLASS_TABLE_XS) >= g.rank + 2
    for method in methods_of(t):
        assert class_tables_agree(g, method), method
        labels, (rows, _) = class_tables(g, method)
        assert labels == tuple(c.label for c in g.conjugacy_classes())
        assert len(rows) == len(labels) and all(len(row) == g.rank + 1 for row in rows)


def expand_product(shifts):
    """Oracle: the coefficients, x^0 up, of the product of x + c over the
    shifts, one polynomial product per factor."""
    out = [1]
    for c in shifts:
        out = [c * u + v for u, v in zip(out + [0], [0] + out)]
    return out


@pytest.mark.parametrize("t", SUPPORTED)
def test_the_identity_class_row_is_the_product_formula(t):
    # the identity is alone in its class, so the class's mass is
    # prod(x + m_i) / (|W| x^r) at every x
    g = get_group(t)
    expected = [Fraction(c, g.size) for c in expand_product(g.exponents())]
    for method in methods_of(t):
        labels, (rows, den) = class_tables(g, method)
        row = rows[g.class_of(0)]
        assert [Fraction(c, den) for c in row] == expected, method


@pytest.mark.parametrize("t", ["B3", "H3"])
def test_a_class_table_off_by_one_fails_the_comparison(t):
    from coxshuffle.group import CoxeterGroup

    g = CoxeterGroup(parse_type(t))  # a private group, safe to corrupt
    for method in methods_of(t):
        assert class_tables_agree(g, method)
        tables = class_tables(g, method)
        labels, (rows, den) = tables
        for k in range(g.rank + 1):
            for i in range(len(rows)):
                # one coefficient off by one; then the same coefficient of
                # the next class off by one the other way, which keeps the sum
                for moved in (False, True):
                    bad = [list(row) for row in rows]
                    bad[i][k] += 1
                    if moved:
                        bad[(i + 1) % len(rows)][k] -= 1
                    g._class_tables[method] = (labels, (bad, den))
                    assert not class_tables_agree(g, method), (method, i, k, moved)
        g._class_tables[method] = tables
        assert class_tables_agree(g, method)


def test_class_tables_are_built_once_per_group_and_method(monkeypatch):
    from coxshuffle.group import CoxeterGroup

    g = CoxeterGroup(parse_type("B3"))  # a private group: nothing is built yet
    builds = []
    counts = CoxeterGroup.class_descent_counts

    def spy(self):
        builds.append(self)
        return counts(self)

    monkeypatch.setattr(CoxeterGroup, "class_descent_counts", spy)
    ms = [h_measure(g, x, method) for x in CLASS_TABLE_XS for method in METHODS]
    assert [m.method for m in ms] == list(METHODS) * len(CLASS_TABLE_XS)
    # only h_measure records a method; measures without a polynomial source
    # push forward by the per-x path
    others = (WMeasure(g, Fraction(2), "descent", ms[0].table), bhr_step(g, face_weights(g, 2)),
              convolve(ms[0], ms[1]), per_x(ms[0]), unreduced(ms[0]))
    for m in others:
        assert m.method is None
        pushforward_classes(m)
    assert g._class_tables == {} and builds == [g] * len(others)
    builds.clear()
    first = [pushforward_classes(m) for m in ms]
    tables = {method: g._class_tables[method] for method in METHODS}
    assert builds == [g] * len(METHODS) and set(tables) == set(METHODS)
    # keyed by the method's name: an equal string that is another object
    # finds the same table
    method = "".join(["defin", "ition"])
    assert method == METHODS[0] and method is not METHODS[0]
    again = [pushforward_classes(h_measure(g, x, m)) for x in CLASS_TABLE_XS for m in
             (method, "os_sign", "closed_form")]
    assert builds == [g] * len(METHODS) and again == first
    assert all(g._class_tables[m] is tables[m] for m in METHODS)


def test_pushforward_rejects_non_descent_constant_measure():
    with pytest.raises(ValueError, match="not constant on descent classes"):
        pushforward_classes(point_mass(get_group("B2"), 1))


@pytest.mark.parametrize("t", SUPPORTED)
def test_measure_equality_matches_dense_comparison(t):
    g = get_group(t)
    h2, h3 = h_measure(g, 2), h_measure(g, 3)
    walk2, walk3 = bhr_step(g, face_weights(g, 2)), bhr_step(g, face_weights(g, 3))
    walk_uniform = bhr_step(g, uniform_chamber_weights(g))
    walk_identity = bhr_step(g, full_type_weights(g))
    identity = WMeasure(g, None, "descent", [Fraction(int(not D)) for D in range(1 << g.rank)])
    dense2 = WMeasure(g, Fraction(2), "element", h2.dense())
    dense3 = WMeasure(g, Fraction(3), "element", h3.dense())
    # the identity and the longest element are alone in their descent classes
    values = h2.descent_table()
    values[0] += 1
    values[(1 << g.rank) - 1] -= 1
    moved = WMeasure(g, Fraction(2), "descent", values)
    ms = [h2, h_measure(g, 2, "os_sign"), h3, walk2, walk3, walk_uniform, walk_identity,
          identity, dense2, dense3, moved]
    for a in ms:
        for b in ms:
            assert (a == b) == (b == a) == (a.dense() == b.dense())
    assert h2 == walk2 == dense2 and h3 == walk3 == dense3 and walk_identity == identity
    assert h2 != h3 and h2 != moved and walk2 != moved and walk2 != walk3
    assert walk_uniform != h2 and walk3 != h2


def no_dense_values(self):
    raise AssertionError("dense values were read")


def test_walk_equality_reads_no_dense_values(monkeypatch):
    g = get_group("H4")
    h2 = h_measure(g, 2)
    walks = [bhr_step(g, face_weights(g, x)) for x in (2, 3)]
    monkeypatch.setattr(WMeasure, "dense", no_dense_values)
    assert walks[0] == h2 and h2 == walks[0]
    assert walks[1] != h2 and walks[0] != walks[1]


def test_h4_measure_ops_read_no_dense_values(monkeypatch):
    g = get_group("H4")
    monkeypatch.setattr(WMeasure, "dense", no_dense_values)
    x = Fraction(7, 3)
    ms = [h_measure(g, x, method) for method in ("definition", "os_sign", "closed_form")]
    assert all(m.kind == "descent" and len(m.table) == 16 for m in ms)
    walk = bhr_step(g, face_weights(g, x))
    assert walk.kind == "length_descent" and len(walk.table) == 16 and walk.x_param is None
    assert ms[0] == ms[1] == ms[2] == walk and walk == ms[0]
    prod = convolve(ms[0], h_measure(g, 2))
    assert prod.kind == "descent" and prod != ms[0]
    assert sum(pushforward_classes(walk).values.values()) == 1
    w0v, idv = longshort_values(g, x)
    assert ms[0].value(g.longest_index) == walk.value(g.longest_index) == w0v
    assert ms[2].value(0) == walk.value(0) == idv
    assert walk.min_value() == ms[0].min_value() < 0
    assert spectrum_product(h_measure(g, 2), g.rank) != [0] * 16


def unbuilt(g):
    """True while none of the group's element tables, of either stage (the
    closure or the left products), has been built."""
    from coxshuffle.group import CLOSURE_TABLES, PRODUCT_TABLES

    return not any(name in vars(g) for name in CLOSURE_TABLES + PRODUCT_TABLES)


def test_h4_descent_measures_enumerate_no_element():
    from coxshuffle.group import CoxeterGroup

    g = CoxeterGroup(parse_type("H4"))  # a private group: nothing is built yet
    x = Fraction(7, 3)
    ms = [h_measure(g, x, method) for method in ("definition", "os_sign", "closed_form")]
    assert ms[0] == ms[1] == ms[2] != h_measure(g, 2)
    assert len({hash(m) for m in ms}) == 1
    assert ms[0].min_value() < 0 and ms[0].descent_table() == list(ms[2].table)
    fw = face_weights(g, x)
    assert face_total(g, fw) == face_total(g, face_weights(g, x, "os_sign")) == 1
    # the walk checks the face total before it reads any element table
    with pytest.raises(ValueError, match="face weights sum to"):
        bhr_step(g, FaceWeights([v * 2 for v in fw]))
    w0v, idv = longshort_values(g, x, ms[1])
    assert unbuilt(g)
    # the same values, read at the enumerated elements
    table = ms[0].descent_table()
    assert table[-1] == ms[0].value(g.longest_index) == w0v
    assert table[0] == ms[0].value(0) == idv
    assert hash(ms[0]) == hash((id(g), ms[0].value(0)))
    assert not unbuilt(g)


def test_measure_hash_reads_the_identity_value():
    g = get_group("B3")
    x = Fraction(7, 3)
    h = h_measure(g, x)
    for m in (h, bhr_step(g, face_weights(g, x)), WMeasure(g, x, "element", h.dense())):
        assert hash(m) == hash(h) == hash((id(g), m.value(0)))


# -- the integer path against Fraction-only oracles ------------------------------

INTEGER_PATH_XS = ORACLE_XS + [Fraction(-5, 2), Fraction(10007, 3)]


def fraction_equal(a, b):
    """Oracle: two measures agree, Fraction against Fraction, on every pair
    of keys that occurs."""
    return all(a.table[i] == b.table[j] for i, j in a.group.measure_counts(a.kind, b.kind))


def fraction_pushforward(m):
    """Oracle: each class mass as a Fraction sum of value times count over
    the descent masks of its members."""
    g = m.group
    values = m.descent_table()
    return {c.label: sum((values[d] * n for d, n in zip(masks, counts)), Fraction(0))
            for c, (masks, counts) in zip(g.conjugacy_classes(), g.class_descent_counts())}


def fraction_longshort(g, x):
    """Oracle: prod(x - m_i) and prod(x + m_i) over x^r |W|, a Fraction
    product per exponent."""
    x = Fraction(x)
    denom = x**g.rank * g.size
    return (prod((x - m for m in g.exponents()), start=Fraction(1)) / denom,
            prod((x + m for m in g.exponents()), start=Fraction(1)) / denom)


def fraction_convolve(m1, m2):
    """Oracle: per descent class D, the sum of N m1[D1] m2[D2] over the
    structure constants of D in the descent-class basis
    (``test_group.descent_structure``), a Fraction per term."""
    return fraction_product(m1.group, m1.descent_table(), m2.descent_table())


def fraction_product(g, a, b):
    """``fraction_convolve`` on two lists of Fraction values by descent mask."""
    r, full = g.rank, (1 << g.rank) - 1
    return [sum((n * a[p >> r] * b[p & full] for p, n in zip(pairs, counts)), Fraction(0))
            for pairs, counts in descent_structure(g)]


def unreduced(m, factor=2):
    """The same measure from its numerators and denominator times factor."""
    return WMeasure._from_numerators(m.group, m.x_param, m.kind,
                                     [factor * n for n in m.nums], factor * m.den)


@pytest.mark.parametrize("t", SUPPORTED)
def test_integer_path_against_fraction_oracles(t):
    g = get_group(t)
    h2 = h_measure(g, 2)
    for x in INTEGER_PATH_XS:
        ms = [h_measure(g, x, method) for method in methods_of(t)]
        walk = bhr_step(g, face_weights(g, x))
        # a negative factor also checks that the denominator is made positive
        twins = [unreduced(ms[0]), unreduced(walk, -3)]
        measures = ms + [walk, h2] + twins
        for m in measures:
            assert m.den > 0
            assert pushforward_classes(m).values == fraction_pushforward(m), (x, m.kind)
        for a in measures:
            for b in measures:
                assert (a == b) == fraction_equal(a, b), x
        assert longshort_values(g, x, ms[-1]) == fraction_longshort(g, x), x
        for a, b in ((ms[0], h2), (walk, ms[-1])):
            assert convolve(a, b).descent_table() == fraction_convolve(a, b), x


@pytest.mark.parametrize("t", ["A3", "B4", "H4"])
def test_unreduced_numerators_equal_and_hash_like_the_reduced_twin(t):
    g = get_group(t)
    for x in INTEGER_PATH_XS:
        for m in (h_measure(g, x), bhr_step(g, face_weights(g, x))):
            twin = unreduced(m)
            assert twin.nums == tuple(2 * n for n in m.nums) and twin.den == 2 * m.den
            assert twin == m and m == twin and hash(twin) == hash(m), x
            assert twin.table == m.table and twin.descent_table() == m.descent_table()
            assert twin.min_value() == m.min_value() and twin.value(0) == m.value(0)


@pytest.mark.parametrize("t", ["A2", "B3", "H4"])
def test_a_numerator_off_by_one_fails_the_sum_check(t):
    g = get_group(t)
    for m in (h_measure(g, Fraction(7, 3)), bhr_step(g, face_weights(g, 3))):
        for k in range(len(m.nums)):
            nums = list(m.nums)
            nums[k] += 1
            with pytest.raises(ValueError, match=r"measure coefficients sum to \S+, not 1"):
                WMeasure._from_numerators(g, m.x_param, m.kind, nums, m.den)


def no_fraction_table(self):
    raise AssertionError("a measure's Fraction table was built")


@pytest.mark.parametrize("t", ["B4", "H4"])
def test_warm_measure_ops_build_no_fraction_table(t, monkeypatch):
    g = get_group(t)
    x = Fraction(7, 3)
    h2 = h_measure(g, 2)
    # the op sequence of the benchmark's warm measure workload
    monkeypatch.setattr(WMeasure, "table", property(no_fraction_table))
    ms = [h_measure(g, x, method) for method in methods_of(t)]
    agree = all(m == ms[0] for m in ms[1:])
    ls = longshort_values(g, x)
    push = pushforward_classes(ms[0])
    walk_agrees = bhr_step(g, face_weights(g, x)) == ms[0]
    conv = convolve(ms[0], h2)
    monkeypatch.undo()
    assert agree and walk_agrees
    assert ls == fraction_longshort(g, x)
    assert push.values == fraction_pushforward(ms[0])
    assert conv.descent_table() == fraction_convolve(ms[0], h2)


@pytest.mark.parametrize("name,params", [
    ("triple_agreement", {"types": ["H4"]}),
    ("longshort", {"types": ["H4"]}),
    ("h4_counterexample", None),
])
def test_h4_suites_enumerate_no_element(name, params, monkeypatch):
    import coxshuffle.group as group
    from coxshuffle.suites import run_suite

    monkeypatch.setattr(group, "_GROUPS", {})  # a fresh registry: no group is built yet
    report = run_suite(name, params)
    assert report.passed and len(report.checks) > 0
    assert unbuilt(get_group("H4"))


def test_bhr_uniform_chamber_weights():
    g = get_group("A2")
    m = bhr_step(g, uniform_chamber_weights(g))
    assert all(v == Fraction(1, g.size) for v in m.dense())


def test_bhr_rejects_unnormalized_weights():
    g = get_group("A2")
    fw = face_weights(g, 2, "definition")
    assert bhr_step(g, fw) == bhr_step(g, FaceWeights(list(fw)))
    values = list(fw)
    values[0] = Fraction(1)
    for k in range(len(fw.nums)):
        nums = list(fw.nums)
        nums[k] += 1
        with pytest.raises(ValueError, match="face weights sum to"):
            bhr_step(g, FaceWeights._from_numerators(nums, fw.den))
    # hand-made lists wrapped by the values constructor, and a table
    # evaluated at x with its numerators doubled
    uniform_and_whole_group = list(uniform_chamber_weights(g))[:-1] + [Fraction(1)]
    for bad in (FaceWeights(values), FaceWeights(uniform_and_whole_group),
                FaceWeights._from_numerators([2 * n for n in fw.nums], fw.den)):
        with pytest.raises(ValueError, match="face weights sum to"):
            bhr_step(g, bad)
    with pytest.raises(TypeError, match="FaceWeights table"):
        bhr_step(g, list(fw))


@pytest.mark.parametrize("t", ["A2", "B2", "G2", "H3"])
@pytest.mark.parametrize("x", [2, 3])
def test_walk_oracle_small(t, x):
    g = get_group(t)
    assert bhr_step(g, face_weights(g, x, "definition")) == h_measure(g, x, "definition")


def _private_group(t):
    from coxshuffle.group import CoxeterGroup

    g = CoxeterGroup(parse_type(t))  # a private group, safe to corrupt
    g.length  # builds the element tables
    return g


def _walk_agrees(g, x):
    """The walk_oracle check on g at x; a walk whose masses do not sum to 1
    fails in the measure's constructor, and the check with it."""
    try:
        return bhr_step(g, face_weights(g, x)) == h_measure(g, x)
    except ValueError:
        return False


@pytest.mark.parametrize("t", ["A3", "B3", "H3"])
def test_walk_check_fails_on_a_corrupted_length(t):
    # the walk reads lengths: one wrong length moves some coset minimum, and
    # the length-descent sets and the walk-vs-measure check both see it
    x = Fraction(7, 3)
    oracle = get_group(t).length_descents()
    for i in range(get_group(t).size):
        g = _private_group(t)
        g.length = list(g.length)
        g.length[i] += 2 if i != g.longest_index else -2
        assert g.length_descents() != oracle, i
        assert not _walk_agrees(g, x), i


@pytest.mark.parametrize("t", ["A3", "B3", "H3"])
def test_walk_check_fails_on_a_corrupted_descent_mask(t):
    # the measure reads descent masks and the walk does not: one wrong
    # descent mask breaks the equality, so the check ties the two together
    x = Fraction(7, 3)
    for i in range(get_group(t).size):
        for s in range(get_group(t).rank):
            g = _private_group(t)
            g.descent_mask = list(g.descent_mask)
            g.descent_mask[i] ^= 1 << s
            assert bhr_step(g, face_weights(g, x)) != h_measure(g, x), (i, s)


def _subsets(r):
    for m in range(1 << r):
        yield [i for i in range(r) if m >> i & 1]


@pytest.mark.parametrize("t", SUPPORTED)
def test_subset_tables_are_indexed_by_mask(t):
    # bit i of a mask is simple reflection i: each face weight is the one
    # rebuilt from the data of the subset K that the mask lists, and each
    # element's descent mask reads its value from the descent table
    g = get_group(t)
    lat = g.lattice()
    x = Fraction(7, 3)
    xr = x**g.rank
    weights = {method: face_weights(g, x, method) for method in ("definition", "os_sign")}
    for mask, K in enumerate(_subsets(g.rank)):
        pd = g.parabolic_data(K)
        assert pd is g.parabolic_data(frozenset(K)) is g.parabolic_data(reversed(K))
        assert pd.mask == mask and pd.subgroup_order == len(subgroup_elements(g, K))
        chi = lat.char_poly(lat.mask_to_id[g.standard_parabolic_mask(K)])
        assert weights["definition"][mask] == (
            pd.subgroup_order * chi(x) / (xr * pd.normalizer_order * pd.lambda_count))
        assert weights["os_sign"][mask] == (-1) ** (g.rank - len(K)) * chi(x) / (xr * chi(-1))
    h = h_measure(g, x)
    walk = bhr_step(g, face_weights(g, x))
    table = h.descent_table()
    for i in range(g.size):
        assert g.descent_mask[i] == sum(1 << d for d in g.descent_set(i))
        assert table[g.descent_mask[i]] == h.value(i) == walk.value(i)


def test_measure_calls_make_no_frozensets(monkeypatch):
    import coxshuffle.group as group
    import coxshuffle.measures as measures

    g = get_group("H4")
    fw = face_weights(g, 2)
    bhr_step(g, fw)  # builds the group's tables

    def no_frozenset(*args):
        raise AssertionError("a frozenset was made")

    for module in (group, measures):
        monkeypatch.setattr(module, "frozenset", no_frozenset, raising=False)
    for method in ("definition", "os_sign", "closed_form"):
        assert h_measure(g, Fraction(7, 3), method) == bhr_step(g, face_weights(g, Fraction(7, 3)))
    assert face_weights(g, 2, "os_sign") == fw


@pytest.mark.parametrize("t", ["B3", "H3"])
def test_os_sign_and_closed_form_read_no_parabolic_data(t, monkeypatch):
    from coxshuffle.group import CoxeterGroup

    g = CoxeterGroup(parse_type(t))  # a private group: no parabolic data is built yet

    def no_parabolics(*args):
        raise AssertionError("parabolic data was read")

    monkeypatch.setattr(g, "parabolic_table", no_parabolics)
    monkeypatch.setattr(g, "parabolic_data", no_parabolics)
    assert h_measure(g, 3, "os_sign") == h_measure(g, 3, "closed_form")
    with pytest.raises(AssertionError, match="parabolic data was read"):
        h_measure(g, 3, "definition")


def brute_transition_row(g, x, u):
    """Oracle: one walk row by direct minimization over every coset face."""
    dense = h_measure(g, x, "definition")  # only for the face weights below
    fw = face_weights(g, x, "definition")
    product = byte_key_product(g)
    row = [Fraction(0)] * g.size
    for K, v in zip(_subsets(g.rank), fw):
        sub = subgroup_elements(g, K)
        seen = set()
        for c in range(g.size):
            if c in seen:
                continue
            coset = [product(c, h) for h in sub]
            seen.update(coset)
            landing = min(coset, key=lambda j: g.length[product(g.inverse[u], j)])
            row[landing] += v
    return row


def transition_matrix(g, x):
    """Oracle: the walk's transition matrix M[u][w] = H(u^-1 w), row by row."""
    dense, product = h_measure(g, x).dense(), byte_key_product(g)
    return [[dense[product(g.inverse[u], w)] for w in range(g.size)] for u in range(g.size)]


def mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def spectrum_matrix_product(M, x, factors):
    """Oracle: the product of (M - x^-i I) over i = 0..factors-1, in matrices."""
    x = Fraction(x)
    n = len(M)
    prod = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(factors):
        c = x**-i
        prod = mat_mul(prod, [[M[a][b] - (c if a == b else 0) for b in range(n)]
                              for a in range(n)])
    return prod


def spectrum_check(M, x, rank):
    """Oracle: prod over i = 0..rank of (M - x^-i I) vanishes."""
    return not any(map(any, spectrum_matrix_product(M, x, rank + 1)))


def test_transition_matrix_examples():
    g = get_group("A1")
    M = transition_matrix(g, 2)
    assert M[0] == [Fraction(3, 4), Fraction(1, 4)]
    assert M[1] == [Fraction(1, 4), Fraction(3, 4)]
    assert spectrum_check(M, 2, 1)


def test_transition_rows_against_face_minimization():
    g = get_group("A2")
    M = transition_matrix(g, 2)
    for u in range(g.size):
        assert M[u] == brute_transition_row(g, 2, u)


@pytest.mark.parametrize("t", ["A2", "B2", "G2"])
def test_spectrum_identity(t):
    g = get_group(t)
    M = transition_matrix(g, 2)
    assert all(sum(row) == 1 for row in M)
    assert spectrum_check(M, 2, g.rank)
    assert not spectrum_check(M, 2, 0)  # M is not the identity
    assert not any(spectrum_product(h_measure(g, 2)))


SPECTRUM_TYPES = [t for t in SUPPORTED if parse_type(t).group_order <= 24]


@pytest.mark.parametrize("t", SPECTRUM_TYPES)
@pytest.mark.parametrize("x", [2, 3, -1, Fraction(1, 2), Fraction(-7, 3)])
def test_spectrum_product_against_matrix_oracle(t, x):
    # the matrix of right convolution by f has f(u^-1 w) at (u, w), so the
    # identity's row of the matrix product is the descent-algebra product
    g = get_group(t)
    h = h_measure(g, x)
    M = transition_matrix(g, x)
    for factors in (g.rank + 1, g.rank):
        prod = spectrum_product(h, factors)
        P = spectrum_matrix_product(M, x, factors)
        assert P[0] == [prod[d] for d in g.descent_mask], factors
        assert (not any(prod)) == (not any(map(any, P)))
    assert not any(spectrum_product(h))


def fraction_spectrum(h, factors):
    """Oracle: the product of (H - x^-i delta_e) over i < factors, one
    Fraction factor at a time through ``fraction_product``."""
    g = h.group
    prod = [Fraction(int(d == 0)) for d in range(1 << g.rank)]
    for i in range(factors):
        factor = h.descent_table()
        factor[0] -= Fraction(h.x_param) ** -i
        prod = fraction_product(g, prod, factor)
    return prod


@pytest.mark.parametrize("t", ["D4", "B4", "H3", "H4"])
@pytest.mark.parametrize("x", [2, -1, Fraction(1, 2), Fraction(-7, 3)])
def test_spectrum_product_against_fraction_oracle(t, x):
    # beyond the matrix oracle's |W| <= 24: the integer route against a
    # Fraction loop, with all factors and with the last one dropped
    g = get_group(t)
    h = h_measure(g, x)
    for factors in (g.rank + 1, g.rank):
        assert spectrum_product(h, factors) == fraction_spectrum(h, factors), factors
    assert not any(spectrum_product(h))


def unit_x_coordinates(g, k):
    """Oracle: the x_K coordinates of the indicator of descent class k, by
    Moebius inversion, one sign per K: (-1)^|K - S| for the K holding the
    complement S of k, else 0."""
    full = (1 << g.rank) - 1
    S = full ^ k
    return [(-1) ** (K ^ S).bit_count() if not S & ~K else 0 for K in range(full + 1)]


@pytest.mark.parametrize("t", ["D4", "H3"])
def test_spectrum_oracle_catches_a_factor_off_by_one(t, monkeypatch):
    import coxshuffle.measures as measures

    g = get_group(t)
    product = measures._x_product
    # not x = -1: there H is the point mass at w0, the factors are H + 1 and
    # H - 1, and the other factors annihilate any bump of one of them
    for x in (2, Fraction(1, 2), Fraction(-7, 3)):
        h = h_measure(g, x)
        for factors in (g.rank + 1, g.rank):
            expect = fraction_spectrum(h, factors)
            for bumped in range(factors):
                for k in (0, (1 << g.rank) - 1):
                    calls = []
                    bump = unit_x_coordinates(g, k)

                    def off_by_one(g, ca, cb):
                        # the bumped factor has its numerator at descent mask
                        # k off by one: in x coordinates, plus the indicator
                        # of class k.  The product starts from factor 0, the
                        # first call's left operand; call j multiplies in
                        # factor j + 1 as its right operand
                        if bumped == 0 and not calls:
                            ca = list(map(add, ca, bump))
                        elif len(calls) == bumped - 1:
                            cb = list(map(add, cb, bump))
                        calls.append(True)
                        return product(g, ca, cb)

                    monkeypatch.setattr(measures, "_x_product", off_by_one)
                    assert spectrum_product(h, factors) != expect, (x, factors, bumped, k)
                    assert len(calls) == factors - 1
                    monkeypatch.undo()
            assert spectrum_product(h, factors) == expect


def test_spectrum_product_needs_a_factor():
    g = get_group("A2")
    h = h_measure(g, 2)
    assert spectrum_product(h, 1) == fraction_spectrum(h, 1)
    for factors in (0, -1):
        with pytest.raises(ValueError, match="at least one factor"):
            spectrum_product(h, factors)


def dense_convolve(m1, m2):
    """Oracle: the group-algebra product out(w) = sum over uv = w of m1(u) m2(v)
    over all |W|^2 pairs, in integers scaled by the common denominators."""
    g = m1.group
    s1 = lcm(*(v.denominator for v in m1.dense()))
    s2 = lcm(*(v.denominator for v in m2.dense()))
    a = [int(v * s1) for v in m1.dense()]
    b = [int(v * s2) for v in m2.dense()]
    out, product = [0] * g.size, byte_key_product(g)
    for u in range(g.size):
        if a[u]:
            for v in range(g.size):
                out[product(u, v)] += a[u] * b[v]
    return tuple(Fraction(n, s1 * s2) for n in out)


CONVOLVE_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2",
                  "I2(5)", "I2(6)", "I2(10)", "H3"]


@pytest.mark.parametrize("t", CONVOLVE_TYPES)
@pytest.mark.parametrize("x,y", [(2, 3), (Fraction(1, 2), 2), (-1, 2), (7, Fraction(-3, 2))])
def test_convolution_against_dense_oracle(t, x, y):
    g = get_group(t)
    prod = convolve(h_measure(g, x), h_measure(g, y))
    oracle = dense_convolve(h_measure(g, x), h_measure(g, y))
    assert prod.dense() == oracle
    # the dense product is itself constant on descent classes (Solomon)
    by_class = {}
    for dm, v in zip(g.descent_mask, oracle):
        assert by_class.setdefault(dm, v) == v


def test_convolution_identity_element():
    for t in ("A1", "B2", "G2", "H3", "D4"):
        g = get_group(t)
        m = h_measure(g, 3, "definition")
        assert convolve(m, point_mass(g, 0)) == m
        assert convolve(point_mass(g, 0), m) == m


def test_convolution_rejects_non_descent_constant_factor():
    g = get_group("B2")
    m = h_measure(g, 3)
    s = point_mass(g, 1)  # a simple reflection: its class holds another element
    assert g.length[1] == 1
    with pytest.raises(ValueError):
        convolve(m, s)
    with pytest.raises(ValueError):
        convolve(s, m)


def test_convolution_a1():
    g = get_group("A1")
    c = convolve(h_measure(g, 2), h_measure(g, 3))
    # oracle: the closed form at x = 6 gives C(7,2)/36 at the identity
    assert c.value(0) == Fraction(binom(7, 2), 36) == Fraction(7, 12)
    assert c == h_measure(g, 6)


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "I2(5)", "I2(6)", "I2(10)"])
def test_convolution_property(t):
    g = get_group(t)
    assert convolve(h_measure(g, 2), h_measure(g, 3)) == h_measure(g, 6)


def test_convolution_fails_for_d4():
    # exploratory data point: the product measure stays constant on descent
    # classes but does not equal the x*y measure
    g = get_group("D4")
    prod = convolve(h_measure(g, 2), h_measure(g, 3))
    assert prod != h_measure(g, 6)
    prod.descent_table()  # still descent-class constant


def test_face_weights_methods_agree_per_type():
    # finer than measure equality: the two face-weight formulas agree K by K
    for t in ("A3", "B3", "G2", "I2(5)", "H3"):
        g = get_group(t)
        for x in (2, Fraction(1, 2), -1):
            fa = face_weights(g, x, "definition")
            fb = face_weights(g, x, "os_sign")
            assert fa == fb, (t, x)


def test_convolution_group_mismatch():
    with pytest.raises(ValueError):
        convolve(h_measure(get_group("A1"), 2), h_measure(get_group("A2"), 2))


def x_structure_oracle(g):
    """Oracle: the structure constants in Solomon's basis x_K, keyed by
    (J, K, L), from the descent-class constants (``descent_structure``).
    x_J and x_K are the indicators of the descent classes disjoint from J
    and from K, so x_J x_K at D is the sum of N(D1, D2; D) over D1 disjoint
    from J and D2 disjoint from K: subset sums of N( . , . ; D) along each
    axis, read at the complements of J and K.  Its x_L coefficients are
    the sum over D of its value at D times ``unit_x_coordinates(g, D)``."""
    r, full = g.rank, (1 << g.rank) - 1
    grids = []
    for pairs, counts in descent_structure(g):
        grid = [[0] * (full + 1) for _ in range(full + 1)]
        for p, n in zip(pairs, counts):
            grid[p >> r][p & full] = n
        for bit in (1 << i for i in range(r)):
            for S in range(full + 1):
                if S & bit:
                    grid[S] = list(map(add, grid[S], grid[S ^ bit]))
            for row in grid:
                for S in range(full + 1):
                    if S & bit:
                        row[S] += row[S ^ bit]
        grids.append(grid)
    units = [[(L, c) for L, c in enumerate(unit_x_coordinates(g, D)) if c]
             for D in range(full + 1)]
    out = {}
    for J in range(full + 1):
        for K in range(full + 1):
            coords = [0] * (full + 1)
            for D, grid in enumerate(grids):
                value = grid[full ^ J][full ^ K]
                for L, c in units[D]:
                    coords[L] += c * value
            out.update(((J, K, L), m) for L, m in enumerate(coords) if m)
    return out


@pytest.mark.parametrize("t", SUPPORTED)
def test_mackey_structure_against_descent_structure(t):
    g = get_group(t)
    r, full = g.rank, (1 << g.rank) - 1
    structure = g.mackey_structure()
    assert len(structure) == 1 << r
    found = {}
    for L, (pairs, counts) in enumerate(structure):
        assert len(set(pairs)) == len(pairs) == len(counts) and min(counts) > 0
        found.update(((p >> r, p & full, L), n) for p, n in zip(pairs, counts))
    assert found == x_structure_oracle(g)
    assert len(found) <= sum(len(pairs) for pairs, _ in descent_structure(g))
    assert structure is g.mackey_structure()


def convolve_or_none(a, b):
    """``convolve(a, b)``'s values by descent mask, or None where its sum
    check refuses the product."""
    try:
        return convolve(a, b).descent_table()
    except ValueError:
        return None


@pytest.mark.parametrize("t", ["A3", "B3", "D4", "H3"])
def test_a_structure_constant_off_by_one_changes_convolve(t, monkeypatch):
    import coxshuffle.measures as measures
    from coxshuffle.group import CoxeterGroup

    g = get_group(t)
    x, y = Fraction(7, 3), Fraction(-5, 2)
    # every face weight, so every x coordinate of both factors, is nonzero:
    # each constant M(J, K; L) enters the product times a nonzero c_J c'_K
    assert all(face_weights(g, x)) and all(face_weights(g, y))
    a, b = h_measure(g, x), h_measure(g, y)
    expect = fraction_convolve(a, b)
    assert convolve_or_none(a, b) == expect
    structure = g.mackey_structure()
    for L, (pairs, counts) in enumerate(structure):
        for i in range(len(counts)):
            for delta in (1, -1):
                bumped = list(structure)
                bumped[L] = (pairs, counts[:i] + (counts[i] + delta,) + counts[i + 1:])
                monkeypatch.setattr(CoxeterGroup, "mackey_structure", lambda self: bumped)
                assert convolve_or_none(a, b) != expect, (L, pairs[i], delta)
                # the numerator product itself, before convolve's sum check
                nums = measures._product_numerators(g, a.nums, b.nums)
                assert [Fraction(n, a.den * b.den) for n in nums] != expect
                monkeypatch.undo()
    assert convolve_or_none(a, b) == expect


def test_h4_products_build_the_structure_once():
    from coxshuffle.group import CoxeterGroup

    g = CoxeterGroup(parse_type("H4"))  # a private group: nothing built yet
    h = h_measure(g, 2)
    assert unbuilt(g)  # the measure, and the declared slot, read no element
    conv = convolve(h, h)
    built = g.mackey_structure()
    assert not any(spectrum_product(h))
    assert convolve(h, h) == conv and spectrum_product(h, g.rank) == spectrum_product(h, g.rank)
    assert g.mackey_structure() is built


def s3_class_masses(x):
    """Oracle: closed-form binomials and the descent statistics of S_3."""
    by_type = {}
    for p in itertools.permutations((1, 2, 3)):
        d = sum(1 for i in range(2) if p[i] > p[i + 1])
        mass = binom(x + 2 - d, 3) / x**3
        from coxshuffle.group import cycle_type

        key = cycle_type(p)
        by_type[key] = by_type.get(key, Fraction(0)) + mass
    return by_type


def test_pushforward_classes_a2_x7():
    g = get_group("A2")
    cm = pushforward_classes(h_measure(g, 7, "definition"))
    oracle = s3_class_masses(7)
    got = {k.data: v for k, v in cm.values.items()}
    assert got == oracle
    assert got[(1, 1, 1)] == Fraction(12, 49)
    assert got[(2, 1)] == Fraction(21, 49)
    assert got[(3,)] == Fraction(16, 49)


def test_pushforward_at_minus_one():
    g = get_group("B2")
    cm = pushforward_classes(h_measure(g, -1, "definition"))
    w0_class = g.conjugacy_classes()[g.class_of(g.longest_index)].label
    assert cm.nonzero() == {w0_class: Fraction(1)}


def test_pushforward_sums_to_one():
    cm = pushforward_classes(h_measure(get_group("B3"), 3, "definition"))
    assert sum(cm.values.values()) == 1


def test_nonnegativity_good_primes():
    grids = [("A1", [2, 3, 5, 7]), ("A3", [2, 3, 5, 7]), ("B2", [3, 5, 7]),
             ("B3", [3, 5, 7]), ("G2", [5, 7])]
    for t, xs in grids:
        g = get_group(t)
        for x in xs:
            assert min(face_weights(g, x, "definition")) >= 0, (t, x)
            assert h_measure(g, x, "definition").min_value() >= 0, (t, x)


def test_face_weights_total_is_one():
    for t in ("A2", "B3", "H3"):
        g = get_group(t)
        for x in (2, Fraction(1, 2), -1):
            assert face_total(g, face_weights(g, x, "definition")) == 1


def test_i26_and_g2_give_same_measure_values():
    a = h_measure(get_group("I2(6)"), 5, "definition")
    b = h_measure(get_group("G2"), 5, "definition")
    assert sorted(a.dense()) == sorted(b.dense())


def test_h3_closed_form_shifts():
    # the four cases are products of (x+9)(x+5)(x+1) with shifts sliding down
    g = get_group("H3")
    x = Fraction(7)
    m = h_measure(g, x, "closed_form")
    assert m.value(0) == (x + 9) * (x + 5) * (x + 1) / (120 * x**3)
    assert m.value(g.longest_index) == (x - 1) * (x - 5) * (x - 9) / (120 * x**3)


# -- the polynomial tables ------------------------------------------------------

TABLE_XS = list(dict.fromkeys(ORACLE_XS + [Fraction(-5, 2), Fraction(1, 2), Fraction(10007, 3)]))


@pytest.mark.parametrize("t", SUPPORTED)
def test_tables_against_per_x_oracle(t):
    g = get_group(t)
    for x in TABLE_XS:
        for method in methods_of(t):
            assert list(h_measure(g, x, method).table) == oracle_h_values(g, x, method), (method, x)
            if method != "closed_form":
                assert face_weights(g, x, method) == oracle_face_weights(g, x, method), (method, x)


# the default x of the walk_oracle, nonnegativity and triple_agreement suites
SUITE_XS = [2, 3, 5, 7, -1, Fraction(1, 2)]


def fraction_face_weights(g, x, method):
    """Oracle: each row of ``_face_rows`` at x in Fraction arithmetic,
    sum of c_k x^k over den x^r."""
    from coxshuffle.measures import _face_rows

    rows, den = _face_rows(g, method)
    x = Fraction(x)
    return [sum((c * x**k for k, c in enumerate(row)), Fraction(0)) / (den * x**g.rank)
            for row in rows]


@pytest.mark.parametrize("t", SUPPORTED)
def test_face_weight_table_against_fraction_oracle(t):
    g = get_group(t)
    for x in SUITE_XS + [Fraction(-5, 2), Fraction(-7, 3)]:
        for method in ("definition", "os_sign"):
            fw = face_weights(g, x, method)
            oracle = fraction_face_weights(g, x, method)
            assert isinstance(fw, FaceWeights) and fw.den > 0, (method, x)
            assert len(fw) == len(fw.nums) == 1 << g.rank
            assert list(fw) == [fw[K] for K in range(len(fw))] == oracle, (method, x)
            assert fw.min_value() == min(oracle), (method, x)
            assert FaceWeights(oracle) == fw == oracle, (method, x)


def lowest_terms(table):
    """The table's rows and denominator divided by their common factor."""
    rows, den = table
    c = gcd(den, *itertools.chain.from_iterable(rows))
    return [[v // c for v in row] for row in rows], den // c


@pytest.mark.parametrize("t", SUPPORTED)
def test_method_tables_are_equal_polynomials(t):
    # equal tables give equal measures and face weights at every x != 0,
    # not only on a grid of x
    g = get_group(t)
    face, h = polynomial_tables(g, "definition")
    rows, den = h
    assert len(rows) == 1 << g.rank and all(len(row) == g.rank + 1 for row in rows) and den > 0
    assert lowest_terms(polynomial_tables(g, "os_sign")[0]) == lowest_terms(face)
    assert lowest_terms(polynomial_tables(g, "os_sign")[1]) == lowest_terms(h)
    if t in CLOSED_FORM_TYPES:
        assert polynomial_tables(g, "closed_form")[0] is None
        assert lowest_terms(polynomial_tables(g, "closed_form")[1]) == lowest_terms(h)
    # the measure sums to one at every x: sum over D of |class D| x^r H(D) = x^r
    counts = g.measure_counts("descent")
    total = [sum(counts[D] * row[k] for D, row in enumerate(rows)) for k in range(g.rank + 1)]
    assert total == [0] * g.rank + [den]


def agrees_with_oracle(g, x, method):
    """The oracle comparison on g at x; a table whose measure does not sum
    to 1 fails in the measure's constructor, and the comparison with it."""
    try:
        if list(h_measure(g, x, method).table) != oracle_h_values(g, x, method):
            return False
    except ValueError:
        return False
    return method == "closed_form" or (
        face_weights(g, x, method) == oracle_face_weights(g, x, method))


@pytest.mark.parametrize("method", METHODS)
def test_oracle_comparison_fails_on_a_coefficient_off_by_one(method):
    from coxshuffle.group import CoxeterGroup

    g = CoxeterGroup(parse_type("B3"))  # a private group, safe to corrupt
    x = Fraction(7, 3)
    tables = polynomial_tables(g, method)
    assert agrees_with_oracle(g, x, method)
    for which, table in enumerate(tables):
        if table is None:
            continue
        rows, den = table
        for i, row in enumerate(rows):
            for k in range(len(row)):
                bad = [list(r) for r in rows]
                bad[i][k] += 1
                corrupted = list(tables)
                corrupted[which] = (tuple(map(tuple, bad)), den)
                g._measure_tables[method] = tuple(corrupted)
                assert not agrees_with_oracle(g, x, method), (which, i, k)
    g._measure_tables[method] = tables
    assert agrees_with_oracle(g, x, method)


@pytest.mark.parametrize("method", METHODS)
def test_a_new_x_reads_only_the_table(method, monkeypatch):
    g = get_group("H3")
    h_measure(g, 2, method)
    x = Fraction(-5, 2)
    expected = oracle_h_values(g, x, method)
    weights = oracle_face_weights(g, x, method) if method != "closed_form" else None

    def no_rebuild(*args):
        raise AssertionError("the table was rebuilt")

    monkeypatch.setattr(g.lattice(), "char_poly", no_rebuild)
    monkeypatch.setattr(g, "parabolic_table", no_rebuild)
    assert list(h_measure(g, x, method).table) == expected
    if weights is not None:
        assert face_weights(g, x, method) == weights


def test_unknown_methods_rejected():
    g = get_group("A2")
    with pytest.raises(ValueError, match="unknown method"):
        h_measure(g, 2, "bogus")
    with pytest.raises(ValueError, match="unknown face-weight method"):
        face_weights(g, 2, "closed_form")
    assert "bogus" not in g._measure_tables
