"""Necklace canonical forms, ornaments, the GR bijection, and the encodings."""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from coxshuffle.gfpoly import (FqContext, FqPoly, check_table_size, factor, irreducibles,
                               is_prime, monic_polys)
from coxshuffle import necklaces
from coxshuffle.group import get_group
from coxshuffle.necklaces import (
    _normal_coordinates,
    _root_of_irreducible,
    canonicalize_necklace,
    count_signed_ornaments,
    cycles_string,
    descent_count,
    enumerate_signed_ornaments,
    gessel_reutenauer,
    golomb_encode,
    make_ornament,
    normal_basis,
    normal_basis_encode,
    primitive_necklaces,
    refine_phi_A,
    s_vector_count,
)
from coxshuffle.orbits import enumerate_orbits, orbit_family, phi_map
from coxshuffle.suites import SUITES, run_suite
from test_gfpoly import conjugate_monic, digits
from test_orbits import b_pair_type


def eval_in(phi: FqPoly, ext: FqContext, a):
    """Oracle: a prime-field polynomial evaluated at a point of an extension field."""
    out = ext.zero
    for c in reversed(phi.coeffs):
        out = ext.add(ext.mul(out, a), c)
    return out


def brute_force_roots(phi: FqPoly, ext: FqContext) -> list:
    return [a for a in ext.elements() if ext.is_zero(eval_in(phi, ext, a))]


@pytest.mark.parametrize(
    "degree,p",
    [(2, 3), (2, 5), (3, 3), (3, 5), (2, 2), (3, 2), (4, 2), (4, 3), (2, 7)],
)
def test_first_root_is_first_of_brute_force_roots(degree, p):
    ext = FqContext.get(p, degree)
    for phi in irreducibles(FqContext.get(p), degree):
        roots = brute_force_roots(phi, ext)
        assert len(roots) == degree, phi
        assert _root_of_irreducible(phi) == (ext, roots[0]), phi


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_linear_root_is_read_off_the_constant_term(p, monkeypatch):
    # the table's only root of each linear phi, then the same root with the
    # table's build forbidden
    ctx = FqContext.get(p)
    linear = [FqPoly.from_ints(ctx, [c0, c1]) for c1 in range(1, p) for c0 in range(p)]
    expected = [(ctx, ctx.first_roots()[phi.monic().coeffs]) for phi in linear]
    assert [brute_force_roots(phi, ctx) for phi in linear] == [[r] for _, r in expected]

    def no_table(ext):
        raise AssertionError(f"first_roots of {ext!r} built")

    monkeypatch.setattr(FqContext, "first_roots", no_table)
    assert [_root_of_irreducible(phi) for phi in linear] == expected


def test_first_root_raises_without_a_root():
    # (z^2 + 1)^2 has roots in GF(9) but is no minimal polynomial of an
    # element of GF(81), so the lookup there misses
    phi = irreducibles(FqContext.get(3), 2)[0]
    with pytest.raises(ValueError, match="not irreducible"):
        _root_of_irreducible(phi.mul(phi))


def test_plain_primitivity_examples():
    assert canonicalize_necklace("plain", (1, 1, 2, 2))[1] is True
    assert canonicalize_necklace("plain", (1, 2, 1, 2))[1] is False
    assert canonicalize_necklace("plain", (2, 1, 1, 2))[0] == (1, 1, 2, 2)


def test_twisted_zero_fixed_point():
    canon, primitive = canonicalize_necklace("twisted", (0,))
    assert canon == (0,) and primitive is False
    assert canonicalize_necklace("twisted", (1,))[1] is True  # orbit {(1), (-1)}


def test_blinking_freeness():
    # constant word: rotation orbit is a fixed point, so not primitive
    assert canonicalize_necklace("blinking", (1, 1))[1] is False
    assert canonicalize_necklace("blinking", (1, 2))[1] is True
    with pytest.raises(ValueError):
        canonicalize_necklace("plain", ())
    with pytest.raises(ValueError):
        canonicalize_necklace("moebius", (1,))


def test_twisted_orbit_canonical_invariance():
    word = (2, -1, 0)
    canon, _ = canonicalize_necklace("twisted", word)
    cur = word
    for _ in range(6):
        cur = cur[1:] + (-cur[0],)
        assert canonicalize_necklace("twisted", cur)[0] == canon


def primitive_necklaces_by_full_scan(kind, size, bound):
    """Oracle: every word with entries in [-bound, bound], in lexicographic
    order, kept when it is its orbit's canonical word and primitive."""
    out = []
    for word in itertools.product(range(-bound, bound + 1), repeat=size):
        canon, primitive = canonicalize_necklace(kind, word)
        if primitive and canon == word:
            out.append(word)
    return tuple(out)


@pytest.mark.parametrize("size", range(1, 6))
@pytest.mark.parametrize("kind", ["plain", "twisted", "blinking"])
def test_primitive_necklaces_against_full_scan(kind, size):
    for bound in range(5):
        expected = primitive_necklaces_by_full_scan(kind, size, bound)
        assert primitive_necklaces(kind, size, bound) == expected, bound  # order included


def test_primitive_necklace_lists_are_built_once_per_key(monkeypatch):
    monkeypatch.setattr(necklaces, "_PRIMITIVE_NECKLACES", {})
    builds = []
    scan = necklaces._scan_primitive_necklaces

    def spy(*key):
        builds.append(key)
        return scan(*key)

    monkeypatch.setattr(necklaces, "_scan_primitive_necklaces", spy)
    for name in ("ornament_counts", "reiner_counts"):
        assert run_suite(name, {}).passed
    assert builds and len(builds) == len(set(builds))  # each (kind, size, bound) once
    built = len(builds)
    out = primitive_necklaces(*builds[0])
    assert isinstance(out, tuple) and primitive_necklaces(*builds[0]) is out
    assert len(builds) == built  # read from the cache, not scanned again


def test_primitive_necklaces_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown necklace kind"):
        primitive_necklaces("moebius", 2, 1)


@pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 3), (1, 5), (2, 5), (3, 5), (4, 3)])
def test_ornament_count_is_q_to_n(n, q):
    assert count_signed_ornaments(n, q) == q**n


def test_ornament_enumeration_duplicate_free():
    seen = set()
    for o in enumerate_signed_ornaments(3, 3):
        assert o not in seen
        seen.add(o)
        assert o.size == 3
        assert max_entry(o) <= 1


def test_n1_q3_ornaments_by_hand():
    # entries in {-1, 0, 1}: one twisted necklace {(1),(-1)}, and blinking
    # necklaces {(0)} and {(1),(-1)}: exactly three ornaments of size 1
    ornaments = list(enumerate_signed_ornaments(1, 3))
    assert len(ornaments) == 3
    types = sorted(o.type_pair() for o in ornaments)
    assert types == [((), (1,)), ((1,), ()), ((1,), ())]
    with pytest.raises(AttributeError):
        ornaments[0].blinking = ()
    with pytest.raises(AttributeError):
        ornaments[0].extra = 0


def s_vector_count_brute(group, w_index: int, q: int) -> int:
    """Oracle: the s-vector count by direct enumeration."""
    n = group.rank
    bound = (q - 1) // 2
    strict = group.descent_set(w_index)  # descent at i: s_(i+1) > s_(i+2), s_(n+1) = 0

    def count(pos: int, ceil: int) -> int:
        if ceil < 0:
            return 0
        if pos == n:
            return 1
        total = 0
        for v in range(ceil + 1):
            if pos == n - 1:
                total += 0 if (pos in strict and v == 0) else 1
            else:
                total += count(pos + 1, v - 1 if pos in strict else v)
        return total

    return count(0, bound)


def test_s_vector_counts_match_brute_force():
    for t, q in [("B2", 3), ("B2", 5), ("B3", 3), ("B3", 7), ("B4", 3)]:
        g = get_group(t)
        for i in range(g.size):
            assert s_vector_count(g, i, q) == s_vector_count_brute(g, i, q)


def test_s_vector_examples():
    g2 = get_group("B2")
    w0 = g2.longest_index
    # w = w0 has d = n, so the count is C((q-1)/2, n)
    assert s_vector_count(g2, w0, 5) == 1  # C(2, 2)
    assert sum(s_vector_count(g2, i, 3) for i in range(g2.size)) == 9


def test_gr_worked_example_exact_bytes():
    one, cycles = gessel_reutenauer([(1, 2), (1, 2), (2,), (2, 3), (2, 3, 2, 3, 3)])
    assert cycles_string(cycles) == "(1 3)(2 4)(5)(6 9)(7 11 8 12 10)"
    assert sorted(one) == list(range(1, 13))


def test_gr_trivial_cases():
    one, cycles = gessel_reutenauer([(0,)])
    assert one == (1,) and cycles == [[1]]
    one, cycles = gessel_reutenauer([(0,), (1,)])
    assert one == (1, 2)


def all_primitive_multisets(total, alphabet):
    """All multisets of primitive plain necklaces of the given total size."""
    catalog = []
    for m in range(1, total + 1):
        for word in itertools.product(range(alphabet), repeat=m):
            canon, prim = canonicalize_necklace("plain", word)
            if prim and canon == word:
                catalog.append(word)
    catalog.sort(key=lambda w: (len(w), w))

    def rec(i, remaining):
        if remaining == 0:
            yield ()
            return
        if i == len(catalog) or len(catalog[i]) > remaining:
            return  # catalog sorted by size: nothing further fits
        yield from rec(i + 1, remaining)  # skip this necklace
        for rest in rec(i, remaining - len(catalog[i])):  # or take another copy
            yield (catalog[i],) + rest

    yield from rec(0, total)


@pytest.mark.parametrize("n,alphabet", [(4, 2), (5, 2), (4, 3), (5, 3)])
def test_gr_injective_and_type_preserving(n, alphabet):
    # the bijection pairs the permutation with the letters read off at the
    # ranked positions; jointly these determine the multiset (the permutation
    # alone cannot: several multisets share a permutation, which is exactly
    # what the census counts)
    seen = {}
    count = 0
    for multiset in all_primitive_multisets(n, alphabet):
        one, cycles = gessel_reutenauer(list(multiset))
        letters = [None] * n
        for ni, cyc in enumerate(cycles):
            for off, rank in enumerate(cyc):
                letters[rank - 1] = multiset[ni][off]
        key = (one, tuple(letters))
        assert key not in seen, (multiset, seen[key])
        seen[key] = multiset
        # the multiset is recoverable from (permutation, letters)
        rebuilt = []
        for cyc in cycles:
            rebuilt.append(tuple(letters[r - 1] for r in cyc))
        assert sorted(rebuilt) == sorted(multiset)
        got = tuple(sorted((len(c) for c in cycles), reverse=True))
        want = tuple(sorted((len(w) for w in multiset), reverse=True))
        assert got == want
        count += 1
    # unique factorization of words into necklace multisets: alphabet^n of them
    assert count == alphabet**n


def test_golomb_examples():
    c3 = FqContext.get(3)
    assert golomb_encode(FqPoly.from_ints(c3, [-1, 1])) == (0,)  # z - 1: log 1 = 0
    # z - beta for the generator beta = 2 of F_3^*: log is 1, necklace (1)
    beta = 2
    f = FqPoly.from_ints(c3, [-beta, 1])
    assert golomb_encode(f) == (1,)
    neck = golomb_encode(FqPoly.from_ints(c3, [1, 0, 1]))  # z^2 + 1 over F_3
    assert len(neck) == 2 and canonicalize_necklace("plain", neck)[1]


def test_golomb_root_choice_invariance():
    # both roots of z^2+1 over F_3 give the same rotation class
    c3 = FqContext.get(3)
    f = FqPoly.from_ints(c3, [1, 0, 1])
    ext = FqContext.get(3, 2)
    roots = brute_force_roots(f, ext)
    assert len(roots) == 2
    logs = [ext.dlog(r) for r in roots]
    assert (logs[0] * 3) % 8 == logs[1] or (logs[1] * 3) % 8 == logs[0]


def test_golomb_rejects_z_and_reducibles():
    c3 = FqContext.get(3)
    with pytest.raises(ValueError):
        golomb_encode(FqPoly.from_ints(c3, [0, 1]))
    with pytest.raises(ValueError):
        golomb_encode(FqPoly.from_ints(c3, [0, 0, 1]))


def test_normal_basis_encode_rejects_reducibles():
    # every reducible monic of degree 2 and 3 over F_3, a non-monic multiple,
    # and the constants, which have no root in any extension
    c3 = FqContext.get(3)
    for d in range(2, 4):
        irreducible = set(irreducibles(c3, d))
        for f in monic_polys(c3, d):
            if f not in irreducible:
                for phi in (f, FqPoly.make(c3, [2 * c % 3 for c in f.coeffs])):
                    with pytest.raises(ValueError, match="not irreducible"):
                        normal_basis_encode(phi)
                    with pytest.raises(ValueError, match="not irreducible"):
                        golomb_encode(phi)
    for const in ([], [1], [2]):
        with pytest.raises(ValueError, match="not irreducible"):
            normal_basis_encode(FqPoly.make(c3, const))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_golomb_image_cardinality(p):
    ctx = FqContext.get(p)
    for m in range(1, 5):
        if p**m > 10**5:
            continue
        irr = [f for f in irreducibles(ctx, m) if f.coeffs != (ctx.zero, ctx.one)]
        image = {golomb_encode(f) for f in irr}
        assert len(image) == len(irr)
        if m == 1:
            assert image == {(d,) for d in range(p - 1)}  # digit p-1 is left over


def test_normal_basis_size_is_checked_before_the_root_table(monkeypatch):
    # GF(47^3) has 103,823 elements: the encoder must refuse it before
    # building the field's table of first roots
    def no_table(ext):
        raise AssertionError(f"first_roots of {ext!r} built")

    monkeypatch.setattr(FqContext, "first_roots", no_table)
    phi = FqPoly.from_ints(FqContext.get(47), [1, 0, 5, 1])
    with pytest.raises(ValueError, match="field too large for exhaustive normal-basis search"):
        normal_basis_encode(phi)


def test_golomb_field_size_is_checked_before_the_root_table(monkeypatch):
    # GF(10007^2) has 10^8 elements: the encoder must refuse it before
    # building the field's table of first roots; the bound is 10^6
    def no_table(ext):
        raise AssertionError(f"first_roots of {ext!r} built")

    monkeypatch.setattr(FqContext, "first_roots", no_table)
    phi = FqPoly.from_ints(FqContext.get(10007), [1, 0, 1])
    with pytest.raises(ValueError, match="GF\\(10007\\^2\\) would need tables of 100140049"):
        golomb_encode(phi)
    check_table_size(10, 6)
    with pytest.raises(ValueError, match="GF\\(2\\^20\\) would need tables of 1048576"):
        check_table_size(2, 20)


def test_normal_basis_examples():
    alpha = normal_basis(2, 2)
    ext = FqContext.get(2, 2)
    # oracle: conjugates {alpha, alpha^2} linearly independent over F_2
    conj = ext.pow(alpha, 2)
    assert alpha != conj  # in F_4 independence of two nonzero elements = distinctness
    assert normal_basis(3, 1) != 0
    normal_basis(3, 2)  # existence


def test_normal_basis_encode_bijective_per_degree():
    for p, m in [(2, 3), (3, 2), (5, 2), (3, 3)]:
        ctx = FqContext.get(p)
        image = {normal_basis_encode(f) for f in irreducibles(ctx, m)}
        assert len(image) == len(irreducibles(ctx, m))
        for neck in image:
            assert canonicalize_necklace("plain", neck)[1]


def normal_coordinates_oracle(ext, q: int, m: int, beta) -> list:
    """Oracle: beta's normal-basis coordinates by a fresh elimination of
    [alpha^(q^j) columns | beta] over GF(q), one per element."""
    alpha = normal_basis(q, m)
    cols = []
    cur = alpha
    for _ in range(m):
        cols.append(digits(ext, cur))
        cur = ext.pow(cur, q)
    nvec = digits(ext, beta)
    aug = [[cols[j][i] for j in range(m)] + [nvec[i]] for i in range(m)]
    rank = 0
    for col in range(m):
        piv = next((i for i in range(rank, m) if aug[i][col] % q), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][col], -1, q)
        aug[rank] = [x * inv % q for x in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col] % q:
                f = aug[i][col]
                aug[i] = [(x - f * y) % q for x, y in zip(aug[i], aug[rank])]
        rank += 1
    assert rank == m, "normal basis is singular"
    return [aug[i][m] % q for i in range(m)]


# every GF(q^m) the default gr_census grid reaches: a monic of degree n over
# F_q has irreducible factors of degree 1..n
GR_CENSUS_FIELDS = sorted({(q, m) for q, n, _ in SUITES["gr_census"][1]["grid"]
                           for m in range(1, n + 1)})


@pytest.mark.parametrize("q,m", GR_CENSUS_FIELDS)
def test_normal_coordinates_against_elimination_oracle(q, m):
    ext = FqContext.get(q, m)
    nonzero = [beta for beta in ext.elements() if not ext.is_zero(beta)]
    assert len(nonzero) == q**m - 1
    for beta in nonzero:
        assert _normal_coordinates(ext, q, m, beta) == normal_coordinates_oracle(ext, q, m, beta)


def test_normal_inverse_rejects_a_singular_basis(monkeypatch):
    # 1 lies in GF(3), so its conjugates in GF(9) are all equal: not a basis
    ext = FqContext.get(3, 2)
    monkeypatch.setattr(necklaces, "_NORMAL_INVERSE", {})
    monkeypatch.setattr(necklaces, "normal_basis", lambda q, m: ext.one)
    with pytest.raises(RuntimeError, match="normal basis is singular"):
        _normal_coordinates(ext, 3, 2, ext.one)


def max_entry(o) -> int:
    """The largest absolute entry of an ornament's necklaces."""
    return max((abs(a) for w in (*o.twisted, *o.blinking) for a in w), default=0)


def _lift_symmetric(c: int, q: int) -> int:
    return c if c <= (q - 1) // 2 else c - q


def ornament_from_polynomial(f: FqPoly, q: int):
    """Oracle: the signed ornament of an even monic polynomial of degree 2n
    over F_q.

    Conjugate pairs of irreducibles of degree m give blinking necklaces of
    size m (normal-basis coordinates of a root; negation swaps the pair);
    self-conjugate irreducibles of degree 2m give twisted necklaces of size
    m (the second coordinate half is minus the first, which is asserted).
    """
    if q % 2 == 0 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    if not f.is_even_function() or not f.is_monic:
        raise ValueError("expected a monic polynomial with f(z) = f(-z)")
    fac = factor(f)
    twisted = []
    blinking = []
    done = set()
    for phi, k in fac:
        if phi in done:
            continue
        star = conjugate_monic(phi)
        deg = phi.degree
        if star != phi:
            done.add(star)
            ext, beta = _root_of_irreducible(min(phi, star))
            coords = _normal_coordinates(ext, q, deg, beta)
            word = tuple(_lift_symmetric(c, q) for c in coords)
            canon, primitive = canonicalize_necklace("blinking", word)
            assert primitive
            blinking.extend([canon] * k)
        elif deg == 1:  # phi = z, even multiplicity
            blinking.extend([(0,)] * (k // 2))
        else:
            r, s = divmod(k, 2)
            m = deg // 2
            ext, beta = _root_of_irreducible(phi)
            coords = _normal_coordinates(ext, q, deg, beta)
            if any((coords[j] + coords[j + m]) % q for j in range(m)):
                raise RuntimeError("second half of a self-conjugate root is not negated")
            if r:
                word = tuple(_lift_symmetric(c, q) for c in coords)
                canon, primitive = canonicalize_necklace("blinking", word)
                assert primitive
                blinking.extend([canon] * r)
            if s:
                word = tuple(_lift_symmetric(c, q) for c in coords[:m])
                canon, primitive = canonicalize_necklace("twisted", word)
                assert primitive
                twisted.append(canon)
    ornament = make_ornament(twisted, blinking)
    if ornament.type_pair() != b_pair_type(fac):
        raise RuntimeError("ornament type disagrees with the factorization type")
    return ornament


def test_ornament_from_polynomial_examples():
    c3 = FqContext.get(3)
    o = ornament_from_polynomial(FqPoly.from_ints(c3, [0, 0, 1]), 3)  # z^2
    assert o.blinking == ((0,),) and not o.twisted
    o = ornament_from_polynomial(FqPoly.from_ints(c3, [1, 0, 1]), 3)  # z^2+1
    assert o.type_pair() == ((), (1,))
    assert len(o.twisted) == 1


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 3)])
def test_ornament_bijection_exhaustive(n, q):
    fam = orbit_family("B", n, q)
    seen = set()
    for f in enumerate_orbits(fam):
        o = ornament_from_polynomial(f, q)
        assert o.size == n
        assert max_entry(o) <= (q - 1) // 2
        assert o.type_pair() == phi_map(fam, f).data
        seen.add(o)
    assert len(seen) == q**n  # injective onto all bounded ornaments


def test_refine_phi_a_examples():
    c5 = FqContext.get(5)
    zm1 = FqPoly.from_ints(c5, [-1, 1])
    cube = zm1.mul(zm1).mul(zm1)
    for mode in ("golomb", "normal_basis"):
        one, cycles = refine_phi_A(cube, mode)
        assert one == (1, 2, 3)
    from coxshuffle.gfpoly import factor

    # cycle type is forced by the factorization (z^3 - z - 1 has the root 2
    # over F_5, so it splits 1 + 2; an irreducible cubic gives a 3-cycle)
    f = FqPoly.from_ints(c5, [-1, -1, 0, 1])  # z^3 - z - 1
    one, cycles = refine_phi_A(f, "normal_basis")
    assert tuple(sorted((len(c) for c in cycles), reverse=True)) == factor(f).degree_partition() == (2, 1)
    g = FqPoly.from_ints(c5, [1, 1, 0, 1])  # z^3 + z + 1: no roots mod 5, irreducible
    assert all(eval_in(g, c5, a) != 0 for a in range(5))
    one, cycles = refine_phi_A(g, "normal_basis")
    assert tuple(len(c) for c in cycles) == (3,)


def _binom_int(x, n):
    num = 1
    for j in range(n):
        num *= x - j
    v = Fraction(num, factorial(n))
    assert v.denominator == 1
    return int(v)


@pytest.mark.parametrize("p,n,mode", [(5, 3, "golomb"), (3, 3, "normal_basis"), (3, 4, "golomb")])
def test_refine_census(p, n, mode):
    ctx = FqContext.get(p)
    counts = {}
    for f in monic_polys(ctx, n):
        w, _ = refine_phi_A(f, mode)
        counts[w] = counts.get(w, 0) + 1
    for w in itertools.permutations(range(1, n + 1)):
        assert counts.get(w, 0) == _binom_int(p + n - 1 - descent_count(w), n)


def test_reiner_per_type_counts():
    for n, q in [(2, 3), (2, 5), (3, 3)]:
        g = get_group(f"B{n}")
        by_type = {}
        for i in range(g.size):
            label = g.conjugacy_classes()[g.class_of(i)].label
            by_type[label.data] = by_type.get(label.data, 0) + s_vector_count(g, i, q)
        orn = {}
        for o in enumerate_signed_ornaments(n, q):
            orn[o.type_pair()] = orn.get(o.type_pair(), 0) + 1
        assert {k: v for k, v in by_type.items() if v} == orn
