"""Intersection lattices: flats, W-orbits, Moebius values, characteristic polynomials."""

import itertools
import random
from fractions import Fraction

import pytest

from coxshuffle.golden import GoldenRational
from coxshuffle.group import CoxeterGroup, get_group
from coxshuffle.lattice import (
    build_lattice,
    parabolic_mask,
    root_line_action,
)
from coxshuffle.linalg import canonicalize
from coxshuffle.measures import get_lattice, h_measure
from coxshuffle.rootdata import RootSystem, parse_type
from test_group import all_subsets

SUPPORTED = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2", "I2(2)", "I2(3)",
             "I2(4)", "I2(5)", "I2(6)", "I2(10)", "H3", "H4"]


def permute_mask(mask, perm):
    """Oracle: the image of a root-line bitmask under a permutation of the
    lines, one set bit at a time."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def permuted_b3():
    """B3 with its positive roots listed in a shuffled order."""
    rs = parse_type("B3")
    rs.simple_action  # cached on the original; the copy must derive its own
    order = list(range(rs.n_positive))
    random.Random(5).shuffle(order)
    return RootSystem(
        rs.family, rs.rank, rs.m_param, rs.scalar_field, rs.cartan_like_matrix, rs.simple_roots,
        positive_roots=tuple(rs.positive_roots[i] for i in order),
        root_index={rs.positive_roots[i]: k for k, i in enumerate(order)},
    )


# -- span oracle: flats by golden-integer elimination, no group action ----------


def _gmul(x, y):
    """Product of a + b*phi ring integers, with phi**2 = phi + 1."""
    a1, b1 = x
    a2, b2 = y
    return (a1 * a2 + b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)


def _ring_int(x):
    a, b = (x.a, x.b) if isinstance(x, GoldenRational) else (Fraction(x), Fraction(0))
    assert a.denominator == 1 and b.denominator == 1, x
    return (int(a), int(b))


def root_pairs(rs):
    return [[_ring_int(x) for x in root] for root in rs.positive_roots]


def _eliminate(v, row, col):
    """Division-free: p*v - v[col]*row, clearing v[col] with row's pivot p."""
    p, e = row[col], v[col]
    out = []
    for vj, rj in zip(v, row):
        pj, ej = _gmul(p, vj), _gmul(e, rj)
        out.append((pj[0] - ej[0], pj[1] - ej[1]))
    return out


def span_mask(pairs, basis_idx):
    """Bitmask of the roots lying in the span of the given roots."""
    echelon = []  # (row, pivot column)
    for i in basis_idx:
        v = pairs[i]
        for row, col in echelon:
            if v[col] != (0, 0):
                v = _eliminate(v, row, col)
        col = next((c for c, x in enumerate(v) if x != (0, 0)), None)
        if col is not None:
            echelon.append((v, col))
    mask = 0
    for idx, v in enumerate(pairs):
        for row, col in echelon:
            if v[col] != (0, 0):
                v = _eliminate(v, row, col)
        if all(x == (0, 0) for x in v):
            mask |= 1 << idx
    return mask


def span_flat_ranks(rs):
    """mask -> rank, level by level: a rank-(k+1) flat is the span of a
    rank-k flat's basis plus one root outside it."""
    pairs = root_pairs(rs)
    ranks = {0: 0}
    level = {0: ()}
    for rank in range(1, rs.rank + 1):
        nxt = {}
        for mask, basis in level.items():
            done = mask
            for j in range(len(pairs)):
                if not done >> j & 1:
                    child = span_mask(pairs, basis + (j,))
                    done |= child
                    nxt.setdefault(child, basis + (j,))
        ranks.update((m, rank) for m in nxt)
        level = nxt
    return ranks


def arrangement(t):
    return permuted_b3() if t == "permuted B3" else parse_type(t)


def leq(lat, a, b):
    """a <= b in the reverse-inclusion order (V is the minimum)."""
    ma, mb = lat.masks[a], lat.masks[b]
    return ma & mb == ma


def top_id(lat):
    """The flat of highest rank, the origin of an essential arrangement."""
    return max(range(len(lat)), key=lambda i: lat.ranks[i])


@pytest.mark.parametrize("t", SUPPORTED + ["permuted B3"])
def test_orbit_flats_equal_span_flats(t):
    rs = arrangement(t)
    lat = build_lattice(rs)
    expect = span_flat_ranks(rs)
    assert dict(zip(lat.masks, lat.ranks)) == expect
    assert lat.masks == sorted(expect, key=lambda m: (expect[m], m))


@pytest.mark.parametrize("t", SUPPORTED + ["permuted B3"])
def test_standard_parabolic_masks_equal_span_masks(t):
    rs = arrangement(t)
    pairs = root_pairs(rs)
    simple = [rs.root_index[a] for a in rs.simple_roots]
    action = root_line_action(rs)
    g = get_group(t) if t in SUPPORTED else None
    for m in range(1 << rs.rank):
        K = [i for i in range(rs.rank) if m >> i & 1]
        expect = span_mask(pairs, [simple[i] for i in K])
        assert parabolic_mask(*action, K) == expect
        if g is not None:
            assert g.standard_parabolic_mask(K) == expect


def test_span_oracle_handles_dependent_roots():
    rs = parse_type("A3")
    pairs = root_pairs(rs)
    full = (1 << rs.n_positive) - 1
    for combo in itertools.combinations(range(rs.n_positive), 4):
        assert span_mask(pairs, combo) == full  # four roots of a rank-3 system


def brute_flat_count(rs):
    """Oracle: distinct spans of all subsets of the root set, via generic
    echelon canonicalization (independent of the mask machinery)."""
    spans = set()
    roots = rs.positive_roots
    for k in range(len(roots) + 1):
        for combo in itertools.combinations(range(len(roots)), k):
            spans.add(canonicalize([roots[i] for i in combo], rs.rank))
            if len(spans) > 10**5:
                raise RuntimeError("oracle blew up")
    return len(spans)


def test_a2_flats_hand_enumeration():
    lat = build_lattice(parse_type("A2"))
    # three concurrent lines in the plane: V, 3 lines, the origin
    assert len(lat) == 5
    dims = sorted(lat.flat_dim(i) for i in range(5))
    assert dims == [0, 1, 1, 1, 2]


def test_b2_flats():
    lat = build_lattice(parse_type("B2"))
    assert len(lat) == 6


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3", "G2", "I2(5)", "I2(10)"])
def test_flat_counts_against_subset_span_oracle(t):
    rs = parse_type(t)
    assert len(build_lattice(rs)) == brute_flat_count(rs)


def test_a3_flats_are_set_partitions():
    # flats of the braid arrangement correspond to set partitions: Bell(4) = 15
    assert len(build_lattice(parse_type("A3"))) == 15
    assert len(build_lattice(parse_type("A2"))) == 5  # Bell(3)


def test_char_poly_examples():
    lat = build_lattice(parse_type("A2"))
    cp = lat.char_poly(lat.bottom_id())
    assert cp.coefficients == (2, -3, 1)  # (x-1)(x-2)
    latb = build_lattice(parse_type("B2"))
    assert latb.char_poly(latb.bottom_id()).coefficients == (3, -4, 1)  # (x-1)(x-3)
    top = top_id(latb)
    assert latb.char_poly(top).coefficients == (1,)


def verify_moebius(lat, bottoms=None):
    """Oracle: re-verify the recursion of ``per_flat_moebius`` from each
    bottom a by summation over every interval [a, b]; from V the package's
    values must equal it."""
    if bottoms is None:
        bottoms = range(len(lat))
    for a in bottoms:
        mu = per_flat_moebius(lat, a)
        if a == lat.bottom_id() and lat.moebius_from() != mu:
            return False
        above = sorted(mu, key=lambda i: lat.ranks[i])
        for b in above:
            total = sum(mu[z] for z in above if leq(lat, z, b))
            if total != (1 if b == a else 0):
                return False
    return True


def per_flat_moebius(lat, bottom):
    """Oracle: mu(bottom, Y) by the defining recursion at every flat Y above
    bottom, flats taken in rank order."""
    bmask = lat.masks[bottom]
    mu = {}
    for y, my in enumerate(lat.masks):
        if my & bmask == bmask:
            mu[y] = 1 if y == bottom else -sum(
                m for z, m in mu.items() if lat.masks[z] & my == lat.masks[z]
            )
    return mu


@pytest.mark.parametrize("t", SUPPORTED + ["permuted B3"])
def test_moebius_from_v_by_orbit_equals_per_flat_oracle(t):
    lat = build_lattice(arrangement(t))
    v = lat.bottom_id()
    oracle = per_flat_moebius(lat, v)
    mu = lat.moebius_from()
    assert list(mu.items()) == list(oracle.items())
    # chi at every orbit's standard flat, summed from the oracle's mu(X, .)
    reps = {lat.orbit_ids[lat.mask_to_id[m]]: lat.mask_to_id[m] for m in lat.standard_masks}
    assert sorted(reps) == list(range(len(lat.orbit_sizes)))
    for x in reps.values():
        coeffs = [0] * (lat.flat_dim(x) + 1)
        for y, m in per_flat_moebius(lat, x).items():
            coeffs[lat.flat_dim(y)] += m
        assert lat.char_poly(x).coefficients == tuple(coeffs), x
    # one shared CharPoly per orbit
    for fid, o in enumerate(lat.orbit_ids):
        assert lat.char_poly(fid) is lat.char_poly(reps[o])


def test_moebius_recursion_reverified():
    for t in ("A2", "A3", "B2", "B3", "G2", "I2(6)", "H3"):
        lat = build_lattice(parse_type(t))
        assert verify_moebius(lat)


def fresh_char_poly(lat, fid):
    """Oracle: mu(fid, Y) by the defining recursion over ``leq`` alone, then
    chi as the sum of mu(fid, Y) x^dim(Y)."""
    above = sorted((y for y in range(len(lat)) if leq(lat, fid, y)), key=lambda y: lat.ranks[y])
    mu = {}
    for y in above:
        mu[y] = 1 if y == fid else -sum(m for z, m in mu.items() if leq(lat, z, y))
    coeffs = [0] * (lat.flat_dim(fid) + 1)
    for y, m in mu.items():
        coeffs[lat.flat_dim(y)] += m
    return tuple(coeffs)


@pytest.mark.parametrize("t", ["A4", "B4", "D4", "H3"])
def test_cached_char_poly_against_fresh_moebius_sum(t):
    lat = get_lattice(get_group(t))
    for fid in range(len(lat)):
        cp = lat.char_poly(fid)
        assert cp.coefficients == fresh_char_poly(lat, fid), fid
        assert lat.char_poly(fid) is cp  # computed once per flat


def test_moebius_h4_sampled_bottoms():
    g = get_group("H4")
    lat = get_lattice(g)
    bottoms = [lat.bottom_id(), 1, len(lat) // 2, top_id(lat)]
    assert verify_moebius(lat, bottoms)


def test_zaslavsky_chamber_count():
    # (-1)^rank * chi(L, -1) equals the number of chambers, which is |W|
    for t in ("A1", "A2", "A3", "B2", "B3", "G2", "I2(5)", "H3", "D4", "H4"):
        g = get_group(t)
        lat = get_lattice(g)
        chi = lat.char_poly(lat.bottom_id())
        assert (-1) ** g.rank * chi(-1) == g.size
        # the arrangement is central and essential: the origin is a flat
        assert lat.flat_dim(top_id(lat)) == 0


def test_lattice_independent_of_hyperplane_order():
    # same arrangement presented with the roots permuted: same invariants
    a, b = build_lattice(parse_type("B3")), build_lattice(permuted_b3())
    assert len(a) == len(b)
    assert sorted(a.flat_dim(i) for i in range(len(a))) == sorted(
        b.flat_dim(i) for i in range(len(b))
    )
    assert a.char_poly(a.bottom_id()).coefficients == b.char_poly(b.bottom_id()).coefficients


def integer_roots(coeffs, bound):
    """Roots (with multiplicity) of a monic integer polynomial, searched in
    0..bound; None if the polynomial does not split over that range."""
    poly = list(coeffs)
    roots = []
    for b in range(bound + 1):
        while len(poly) > 1:
            # synthetic division by (x - b)
            quot = [0] * (len(poly) - 1)
            carry = 0
            for i in range(len(poly) - 1, 0, -1):
                quot[i - 1] = poly[i] + carry
                carry = quot[i - 1] * b
            if poly[0] + carry != 0:
                break
            poly = quot
            roots.append(b)
    if len(poly) != 1 or poly[0] != 1:
        return None
    return sorted(roots)


def coexponents(group, K):
    """Integer roots of the restricted characteristic polynomial above Fix(W_K)."""
    lat = group.lattice()
    cp = lat.char_poly(lat.mask_to_id[group.standard_parabolic_mask(K)])
    roots = integer_roots(cp.coefficients, max(group.exponents()))
    if roots is None:
        raise RuntimeError(
            f"restricted characteristic polynomial {cp} does not split over the integers"
        )
    return roots


def test_restricted_char_polys_split_with_bounded_roots():
    for t in ("A3", "B3", "G2", "I2(5)", "H3"):
        g = get_group(t)
        lat = get_lattice(g)
        max_exp = max(g.exponents())
        for m in range(1 << g.rank):
            K = frozenset(i for i in range(g.rank) if m >> i & 1)
            roots = coexponents(g, K)
            assert all(0 <= b <= max_exp for b in roots)
            fid = lat.mask_to_id[g.standard_parabolic_mask(K)]
            assert lat.char_poly(fid)(-1) != 0


def test_coexponents_examples():
    g = get_group("H3")
    assert coexponents(g, frozenset(range(3))) == []
    assert coexponents(g, frozenset()) == [1, 5, 9]
    for i in range(3):
        roots = coexponents(g, frozenset({i}))
        assert len(roots) == 2 and all(b <= 9 for b in roots)


def test_coexponents_equal_exponents_at_empty_set():
    for t in ("A2", "B2", "B3", "G2", "H3"):
        g = get_group(t)
        assert coexponents(g, frozenset()) == sorted(g.exponents())


def test_integer_roots_helper():
    assert integer_roots((2, -3, 1), 5) == [1, 2]
    assert integer_roots((1,), 5) == []
    assert integer_roots((0, 1), 5) == [0]
    assert integer_roots((1, 1), 5) is None  # x + 1 has no root in 0..5


def test_build_rejects_oversized_arrangements():
    # 120 listed roots, but the reflections only reach the first 60
    rs = parse_type("H4")
    fake = RootSystem(rs.family, rs.rank, rs.m_param, rs.scalar_field, rs.cartan_like_matrix,
                      rs.simple_roots, positive_roots=rs.positive_roots * 2,
                      root_index=rs.root_index)
    with pytest.raises(ValueError):
        build_lattice(fake)


def test_b3_lattice_and_char_poly():
    lat = build_lattice(parse_type("B3"))
    assert len(lat) == 24
    chi = lat.char_poly(lat.bottom_id())
    assert chi.coefficients == (-15, 23, -9, 1)  # (x-1)(x-3)(x-5)
    with pytest.raises(AttributeError):
        chi.coefficients = ()
    with pytest.raises(AttributeError):
        chi.extra = 0


def test_lattice_lives_with_its_group():
    # the registry used to key lattices by id(g), which a freed group's
    # successor can reuse; each group must get its own lattice
    for t in ("B2", "A3", "G2", "H3", "B3", "A2", "A4"):
        g = CoxeterGroup(parse_type(t))
        lat = get_lattice(g)
        assert lat is get_lattice(g)
        assert lat.root_system is g.root_system
        assert len(lat) == len(build_lattice(parse_type(t)))
        h_measure(g, 2)
        del g, lat


# -- the one root action and the one orbit walk ---------------------------------


@pytest.mark.parametrize("t", SUPPORTED + ["permuted B3"])
def test_simple_action_equals_applied_reflections(t):
    rs = arrangement(t)
    assert rs.simple_action == tuple(
        tuple(rs.signed_index(rs.apply_simple(g, root)) for root in rs.positive_roots)
        for g in range(rs.rank)
    )
    # decoded by coordinates, without signed_index
    n = rs.n_positive
    for g, row in enumerate(rs.simple_action):
        for root, s in zip(rs.positive_roots, row):
            image = rs.positive_roots[s % n]
            assert (image if s < n else tuple(-x for x in image)) == rs.apply_simple(g, root)


@pytest.mark.parametrize("t", SUPPORTED + ["permuted B3"])
def test_orbit_ids_are_w_invariant(t):
    rs = arrangement(t)
    lat = build_lattice(rs)
    perms, _ = root_line_action(rs)
    for fid, mask in enumerate(lat.masks):
        for p in perms:
            assert lat.orbit_ids[lat.mask_to_id[permute_mask(mask, p)]] == lat.orbit_ids[fid]
    assert sum(lat.orbit_sizes) == len(lat)
    assert sorted(lat.orbit_ids) == sorted(
        o for o, size in enumerate(lat.orbit_sizes) for _ in range(size)
    )
    # every subset K lies in the orbit of its standard flat, and only there
    members = sorted(m for subsets in lat.orbit_subsets for m in subsets)
    assert members == list(range(1 << rs.rank))
    for o, subsets in enumerate(lat.orbit_subsets):
        for m in subsets:
            assert lat.orbit_ids[lat.mask_to_id[lat.standard_masks[m]]] == o
    if t in SUPPORTED:
        g = get_group(t)
        reps = {g.parabolic_data(K).conjugacy_rep for K in all_subsets(g.rank)}
        assert len(reps) == len(lat.orbit_sizes)


@pytest.mark.parametrize("t", ["B3", "H3", "I2(5)"])
def test_group_and_parabolic_data_read_only_the_simple_action(t, monkeypatch):
    expect = len(build_lattice(parse_type(t)))
    rs = parse_type(t)
    rs.simple_action  # built once, before reflections become unavailable

    def no_reflections(self, i, v):
        raise AssertionError("apply_simple called after simple_action was built")

    monkeypatch.setattr(RootSystem, "apply_simple", no_reflections)
    g = CoxeterGroup(rs)
    lat = g.lattice()
    for K in all_subsets(g.rank):
        pd = g.parabolic_data(K)
        assert g.size % pd.normalizer_order == 0
    assert len(lat) == expect


def test_lattice_import_loads_no_linear_algebra_group_or_measure_code(fresh_json):
    code = (
        "import json, sys\n"
        "import coxshuffle.lattice\n"
        "print(json.dumps([m for m in ('coxshuffle.linalg', 'coxshuffle.group',\n"
        "                  'coxshuffle.measures') if m in sys.modules]))\n"
    )
    assert fresh_json(code) == []
