"""Root systems, affine marks, and positive-solution counting."""

import itertools
from fractions import Fraction
from math import comb, prod

import pytest

from coxshuffle.golden import GoldenRational, golden_sign
from coxshuffle.group import get_group
from coxshuffle.rootdata import (
    RootSystem,
    UnsupportedTypeError,
    _root_closure,
    affine_data,
    build_root_system,
    card_law,
    card_range,
    descent_number,
    p_count,
    parse_type,
)

SUPPORTED = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2", "I2(2)", "I2(3)",
             "I2(4)", "I2(5)", "I2(6)", "I2(10)", "H3", "H4"]


def root_sign(v) -> int:
    """Oracle: +1 for a positive root, -1 for a negative root."""
    signs = {golden_sign(x) if isinstance(x, GoldenRational) else (x > 0) - (x < 0) for x in v}
    signs.discard(0)
    if signs == {1}:
        return 1
    if signs == {-1}:
        return -1
    raise ValueError(f"not a root: {v}")


def closure_oracle(rs: RootSystem):
    """Oracle: the closure of the simple roots under the simple reflections,
    in the root system's own Fraction or GoldenRational scalars, by
    ``apply_simple``.  Returns (positive roots, root index, signed action)."""
    positives = list(rs.simple_roots)
    index = {v: i for i, v in enumerate(positives)}
    images = [[] for _ in range(rs.rank)]
    frontier = list(positives)
    while frontier:
        new = []
        for v in frontier:
            for i in range(rs.rank):
                w = rs.apply_simple(i, v)
                neg = tuple(-x for x in w)
                if w in index:
                    images[i].append((index[w], False))
                elif neg in index:
                    images[i].append((index[neg], True))
                else:
                    negated = root_sign(w) < 0
                    w = neg if negated else w
                    index[w] = len(positives)
                    images[i].append((len(positives), negated))
                    positives.append(w)
                    new.append(w)
        frontier = new
    n = len(positives)
    action = tuple(tuple(j + n if negated else j for j, negated in row) for row in images)
    return tuple(positives), index, action


@pytest.mark.parametrize(
    "family,rank,n_pos,order",
    [
        ("A", 2, 3, 6),
        ("B", 2, 4, 8),
        ("A", 4, 10, 120),
        ("B", 4, 16, 384),
        ("D", 4, 12, 192),
        ("G2", 2, 6, 12),
        ("H3", 3, 15, 120),
        ("H4", 4, 60, 14400),
    ],
)
def test_build_examples(family, rank, n_pos, order):
    rs = build_root_system(family, rank)
    assert rs.n_positive == n_pos
    assert rs.group_order == order


def test_dihedral_parameters():
    for m in (2, 3, 4, 5, 6, 10):
        rs = build_root_system("I2", m)
        assert rs.n_positive == m and rs.group_order == 2 * m


@pytest.mark.parametrize("family,rank", [("A", 6), ("A", 0), ("B", 5), ("D", 3), ("E", 6)])
def test_unsupported_types(family, rank):
    with pytest.raises(UnsupportedTypeError):
        build_root_system(family, rank)


@pytest.mark.parametrize("family,shift,expected", [("A", 1, (2, 6)), ("B", 0, (2, 4))])
def test_card_range_is_read_from_the_family_table(family, shift, expected):
    # n cards: the group is A_{n-1} or B_n, built at both ends of the range
    # and rejected one past its top
    least, greatest = card_range(family)
    assert (least, greatest) == expected
    for n in (least, greatest):
        assert build_root_system(family, n - shift).rank == n - shift
    with pytest.raises(UnsupportedTypeError):
        build_root_system(family, greatest + 1 - shift)


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4"])
def test_descent_number_counts_the_descent_mask(t):
    # a signed line orders its entries 1 < ... < n < -n < ... < -1, not as integers
    g = get_group(t)
    for i, line in enumerate(g.one_line):
        assert descent_number(line) == g.descent_mask[i].bit_count()


def test_card_law_counts_are_binomials():
    # at an integer x (odd for B), den x^n H is C(x + n - 1 - d, n) on A_{n-1}
    # and C((x - 1)/2 + n - d, n) on B_n, for every descent number d
    for n in range(1, 9):
        for family, xs in (("A", range(1, 13)), ("B", range(1, 13, 2))):
            shifts, den = card_law(family, n)
            assert len(shifts) == (n if family == "A" else n + 1)
            for x in xs:
                for d, s in enumerate(shifts):
                    top = x + n - 1 - d if family == "A" else (x - 1) // 2 + n - d
                    assert len(s) == n and prod(x + c for c in s) == den * comb(top, n)


@pytest.mark.parametrize("m", [7, 8, 9, 11, 12, 13])
def test_unsupported_dihedral(m):
    # 2*cos(pi/m) lies outside Q and Q(phi) for 7, 8, 9, 11, 12
    with pytest.raises(UnsupportedTypeError):
        build_root_system("I2", m)


def test_positive_roots_are_nonnegative_combinations():
    for t in ("A3", "B3", "G2", "H3", "I2(5)"):
        rs = parse_type(t)
        for root in rs.positive_roots:
            assert root_sign(root) == 1


@pytest.mark.parametrize("t", SUPPORTED)
def test_integer_closure_equals_the_scalar_closure(t):
    # the root order fixes every byte key and the element order
    rs = parse_type(t)
    positives, index, action = closure_oracle(rs)
    assert rs.positive_roots == positives
    scalar = GoldenRational if rs.scalar_field == "golden" else Fraction
    for got, want in zip(rs.positive_roots, positives):
        assert [type(x) for x in got] == [type(x) for x in want] == [scalar] * rs.rank
    assert rs.simple_roots == positives[:rs.rank]
    assert rs.root_index == index
    assert rs.simple_action == action


# C[i][j] = 2(a_i, a_j)/(a_i, a_i) of every supported type, written out from
# its Coxeter diagram; a golden entry is the pair (a, b) = a + b*phi
RATIONAL_CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "A5": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0], [0, 0, -1, 2, -1],
           [0, 0, 0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "G2": [[2, -1], [-3, 2]],
    "I2(2)": [[2, 0], [0, 2]],
    "I2(3)": [[2, -1], [-1, 2]],
    "I2(4)": [[2, -1], [-2, 2]],
    "I2(6)": [[2, -1], [-3, 2]],
}
GOLDEN_CARTAN = {
    "I2(5)": [[(2, 0), (0, -1)], [(0, -1), (2, 0)]],
    "I2(10)": [[(2, 0), (-1, 0)], [(-2, -1), (2, 0)]],
    "H3": [[(2, 0), (0, -1), (0, 0)], [(0, -1), (2, 0), (-1, 0)], [(0, 0), (-1, 0), (2, 0)]],
    "H4": [[(2, 0), (0, -1), (0, 0), (0, 0)], [(0, -1), (2, 0), (-1, 0), (0, 0)],
           [(0, 0), (-1, 0), (2, 0), (-1, 0)], [(0, 0), (0, 0), (-1, 0), (2, 0)]],
}


@pytest.mark.parametrize("t", SUPPORTED)
def test_cartan_matrix_against_the_written_out_table(t):
    rs = parse_type(t)
    C = rs.cartan_like_matrix
    assert type(C) is tuple and all(type(row) is tuple for row in C)
    if t in GOLDEN_CARTAN:
        assert rs.scalar_field == "golden"
        assert all(type(x) is GoldenRational for row in C for x in row)
        assert [[(x.a, x.b) for x in row] for row in C] == GOLDEN_CARTAN[t]
    else:
        assert rs.scalar_field == "rational"
        assert all(type(x) is Fraction for row in C for x in row)
        assert [list(row) for row in C] == RATIONAL_CARTAN[t]
    assert len(RATIONAL_CARTAN) + len(GOLDEN_CARTAN) == len(SUPPORTED)


def test_closure_rejects_entries_outside_golden_integers():
    C = [[Fraction(2), Fraction(-1, 2)], [Fraction(-1), Fraction(2)]]
    with pytest.raises(ValueError, match="not in Z\\[phi\\]"):
        _root_closure(C)
    half_phi = GoldenRational(0, Fraction(1, 2))
    with pytest.raises(ValueError, match="not in Z\\[phi\\]"):
        _root_closure([[GoldenRational(2), -half_phi], [-half_phi, GoldenRational(2)]])


def test_closure_rejects_an_image_of_mixed_sign():
    # s_0(a_1) = a_1 - a_0 under a positive off-diagonal entry: no root has it
    C = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    with pytest.raises(ValueError, match="not a root"):
        _root_closure(C)


def test_parse_type_round_trip():
    assert parse_type("I2(5)").m_param == 5
    assert parse_type("h3").family == "H3"
    assert parse_type("B3").rank == 3
    with pytest.raises(UnsupportedTypeError):
        parse_type("Z9")


def test_root_index_takes_no_part_in_equality_hash_or_repr():
    rs = parse_type("B3")
    copy = RootSystem(rs.family, rs.rank, rs.m_param, rs.scalar_field, rs.cartan_like_matrix,
                      rs.simple_roots, rs.positive_roots, root_index={})
    assert copy == rs and hash(copy) == hash(rs)
    assert copy != parse_type("B2") and copy != tuple(rs.positive_roots)
    assert "root_index" not in repr(rs) and "root_index" not in repr(copy)
    assert repr(rs).startswith("RootSystem(family='B', rank=3, m_param=None, "
                               "scalar_field='rational', cartan_like_matrix=")


def test_root_system_and_affine_data_are_immutable():
    rs = parse_type("A2")
    ad = affine_data(rs)
    for record, name in ((rs, "rank"), (rs, "root_index"), (rs, "extra"), (ad, "marks"),
                         (ad, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del rs.rank
    assert rs.rank == 2 and ad.marks == (1, 1, 1)


def test_affine_marks_a1():
    ad = affine_data(parse_type("A1"))
    assert ad.marks == (1, 1)
    assert ad.index_of_connection == 2
    # the defining relation: highest root minus the marked combination is zero
    rs = ad.root_system
    combo = [sum(ad.marks[i] * rs.simple_roots[i][j] for i in range(rs.rank)) for j in range(rs.rank)]
    assert tuple(combo) == ad.highest_root


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_index_of_connection_type_a(n):
    ad = affine_data(build_root_system("A", n - 1))
    assert ad.index_of_connection == n


def test_affine_g2():
    ad = affine_data(parse_type("G2"))
    assert 3 in ad.marks
    assert ad.index_of_connection == 1
    # oracle: the Cartan determinant computed independently over Fractions
    C = [[Fraction(x) for x in row] for row in ad.root_system.cartan_like_matrix]
    det = C[0][0] * C[1][1] - C[0][1] * C[1][0]
    assert abs(det) == ad.index_of_connection


def test_affine_rejects_noncrystallographic():
    with pytest.raises(ValueError):
        affine_data(parse_type("H3"))
    with pytest.raises(ValueError):
        affine_data(parse_type("I2(5)"))


@pytest.mark.parametrize("t", SUPPORTED)
def test_crystallographic_flag_is_read_from_the_family_data(t):
    # the written-out list of families with affine data is the oracle
    rs = parse_type(t)
    assert rs.crystallographic == (rs.family in ("A", "B", "D", "G2")), t
    if rs.family in ("H3", "H4", "I2"):
        with pytest.raises(ValueError, match="no affine data"):
            affine_data(rs)
    else:
        assert affine_data(rs).root_system == rs


def brute_p_count(marks, S, x):
    """Oracle: exhaustive loop over bounded positive integer vectors."""
    coeffs = [marks[i] for i in range(len(marks)) if i not in S]
    count = 0
    ranges = [range(1, x // c + 1) for c in coeffs]
    for ys in itertools.product(*ranges):
        if sum(c * y for c, y in zip(coeffs, ys)) == x:
            count += 1
    return count


def test_p_count_examples():
    ad = affine_data(parse_type("A1"))
    assert p_count(ad, {0}, 5) == 1
    assert p_count(ad, set(), 5) == 4
    ad2 = affine_data(parse_type("A2"))
    assert p_count(ad2, set(), 4) == brute_p_count(ad2.marks, set(), 4) == 3


def test_p_count_matches_oracle_everywhere():
    for t in ("A2", "B2", "B3", "G2", "D4"):
        ad = affine_data(parse_type(t))
        ext = ad.extended_size
        for mask in range((1 << ext) - 1):
            S = {i for i in range(ext) if mask >> i & 1}
            for x in (1, 4, 5):
                assert p_count(ad, S, x) == brute_p_count(ad.marks, S, x)


def test_p_count_rejects_bad_subsets():
    ad = affine_data(parse_type("A1"))
    with pytest.raises(ValueError):
        p_count(ad, {0, 1}, 3)
    with pytest.raises(ValueError):
        p_count(ad, set(), 0)
