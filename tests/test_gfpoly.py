"""Finite fields and polynomial factorization."""

import itertools
import random

import pytest

from coxshuffle import gfpoly
from coxshuffle.gfpoly import (
    FqContext,
    FqPoly,
    degree_layers,
    factor,
    irreducibles,
    is_irreducible,
    is_prime,
    layer_partition,
    monic_polys,
    necklace_irreducible_count,
    poly_axpy,
    poly_divmod,
    poly_frobenius,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_powmod,
)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_factor_split_example():
    c5 = FqContext.get(5)
    f = FqPoly.from_ints(c5, [0, -1, 0, 1])  # z^3 - z = z(z-1)(z+1)
    fac = factor(f)
    assert fac.degree_partition() == (1, 1, 1)
    assert {str(g) for g, k in fac} == {"z", "z+1", "z+4"}
    assert all(k == 1 for _, k in fac)


def test_factor_irreducible_cubic_f2():
    c2 = FqContext.get(2)
    f = FqPoly.from_ints(c2, [1, 1, 0, 1])  # z^3 + z + 1
    # oracle: no roots in F_2 and no monic degree-1 divisor
    assert f.eval(0) != 0 and f.eval(1) != 0
    fac = factor(f)
    assert len(fac) == 1 and fac.pairs[0][1] == 1
    assert is_irreducible(f)


def test_factor_f3_quartic():
    c3 = FqContext.get(3)
    f = FqPoly.from_ints(c3, [0, 0, 1, 0, 1])  # z^4 + z^2 = z^2 (z^2+1)
    fac = factor(f)
    got = {(str(g), k) for g, k in fac}
    assert got == {("z", 2), ("z^2+1", 1)}
    # -1 is not a square mod 3, so z^2+1 is irreducible
    assert all(pow(a, 2, 3) != 2 for a in range(3))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_irreducible_counts_necklace_formula(q):
    ctx = FqContext.get(q)
    for m in range(1, 7):
        if q**m > 10**6:
            break
        assert len(irreducibles(ctx, m)) == necklace_irreducible_count(q, m)


@pytest.mark.parametrize("q,d", [(2, 4), (3, 3), (5, 2)])
def test_factor_recombines_exhaustively(q, d):
    ctx = FqContext.get(q)
    for f in monic_polys(ctx, d):
        fac = factor(f)
        assert fac.product(ctx) == f
        for g, _ in fac:
            assert is_irreducible(g)


def test_factor_rejects_nonmonic():
    c3 = FqContext.get(3)
    with pytest.raises(ValueError):
        factor(FqPoly.from_ints(c3, [1, 2]))


def test_extension_field_axioms():
    f9 = FqContext.get(3, 2)
    els = list(f9.elements())
    assert len(els) == 9
    one, zero = f9.one, f9.zero
    for a in els:
        assert f9.add(a, zero) == a
        assert f9.mul(a, one) == a
        if a != zero:
            assert f9.mul(a, f9.inv(a)) == one
    import random

    rng = random.Random(1)
    for _ in range(60):
        a, b, c = (els[rng.randrange(9)] for _ in range(3))
        assert f9.mul(a, f9.mul(b, c)) == f9.mul(f9.mul(a, b), c)
        assert f9.mul(a, f9.add(b, c)) == f9.add(f9.mul(a, b), f9.mul(a, c))


def test_generator_and_dlog():
    for p, e in [(3, 2), (2, 3), (5, 2), (7, 1)]:
        ctx = FqContext.get(p, e)
        gen = ctx.generator()
        assert ctx.is_generator(gen)
        seen = set()
        cur = ctx.one
        for _ in range(ctx.order - 1):
            seen.add(cur)
            cur = ctx.mul(cur, gen)
        assert len(seen) == ctx.order - 1
        for k in (0, 1, ctx.order - 2):
            assert ctx.dlog(ctx.pow(gen, k)) == k


@pytest.mark.parametrize("p,e,k,k_inv", [(7, 1, 5, 5), (3, 2, 3, 3)])
def test_dlog_table_holds_only_field_elements(p, e, k, k_inv):
    # only a nonzero field element has a logarithm and only a generator is a
    # base: the log table is a list, whose index would answer -1 silently
    ctx = FqContext(p, e)  # a private context: its table starts empty
    gen = ctx.generator()
    other = ctx.pow(gen, k)  # k is prime to the group order: another generator
    assert ctx.is_generator(other)
    assert not ctx.is_generator(ctx.zero)
    for _ in range(2):
        assert ctx.dlog(gen) == 1
        for bad in (("base",), ctx.zero, -1, ctx.order):
            with pytest.raises(ValueError):
                ctx.dlog(bad)
            with pytest.raises(ValueError):
                ctx.dlog(bad, other)
            with pytest.raises(ValueError):
                ctx.dlog(gen, bad)
            if bad != ctx.zero:
                with pytest.raises(ValueError):
                    ctx.is_generator(bad)
        assert ctx.dlog(gen, other) == k_inv
        with pytest.raises(ValueError):
            ctx.dlog(gen, ctx.pow(gen, 2))  # 2 divides the group order


def test_custom_modulus_validation():
    # a user-supplied modulus must be monic, degree e, and irreducible
    ctx = FqContext(3, 2, modulus=(1, 0, 1))  # z^2 + 1 is irreducible mod 3
    assert ctx.order == 9
    assert ctx.mul(3, 3) == 2  # z^2 = -1; the element 3 is z, the element 2 is -1
    with pytest.raises(ValueError):
        FqContext(3, 2, modulus=(2, 0, 1))  # z^2 + 2 = (z-1)(z+1)
    with pytest.raises(ValueError):
        FqContext(3, 2, modulus=(1, 0, 0, 1))  # wrong degree
    with pytest.raises(ValueError):
        FqContext(4, 1)  # not prime


def test_frobenius_fixes_prime_field():
    f8 = FqContext.get(2, 3)
    for a in f8.elements():
        assert f8.pow(a, 8) == a  # x^q = x on the whole field


def test_even_function_detection():
    c3 = FqContext.get(3)
    assert FqPoly.from_ints(c3, [1, 0, 1]).is_even_function()
    assert not FqPoly.from_ints(c3, [0, 1, 1]).is_even_function()
    f = FqPoly.from_ints(c3, [0, 1])  # z
    assert f.conjugate_monic() == f


def test_poly_str_and_order():
    c5 = FqContext.get(5)
    f = FqPoly.from_ints(c5, [1, 0, 3, 1])
    assert str(f) == "z^3+3z^2+1"
    g = FqPoly.from_ints(c5, [0, 1])
    assert g < f


@pytest.mark.parametrize("q,top", [(2, 4), (3, 4), (5, 3)])
def test_is_irreducible_against_the_sieve(q, top):
    ctx = FqContext.get(q)
    for d in range(1, top + 1):
        sieve = set(irreducibles(ctx, d))
        for f in monic_polys(ctx, d):
            assert is_irreducible(f) == (f in sieve), f
            for c in range(2, q):  # a nonzero multiple has the same answer
                g = FqPoly.make(ctx, [ctx.mul(c, a) for a in f.coeffs])
                assert is_irreducible(g) == (f in sieve), g
    assert not is_irreducible(FqPoly.make(ctx, [ctx.one]))


def _random_poly(ctx, rng, degree, monic):
    lead = ctx.one if monic else rng.randrange(1, ctx.order)
    return [rng.randrange(ctx.order) for _ in range(degree)] + [lead]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_frobenius_matches_square_and_multiply(p, e):
    ctx = FqContext.get(p, e)
    q = ctx.order
    rng = random.Random(q)
    for dm in range(1, 5):
        for monic in (True, False):
            m = _random_poly(ctx, rng, dm, monic)
            for lower in itertools.product(range(q), repeat=dm):
                a = FqPoly.from_ints(ctx, lower).coeffs  # every a of degree < dm, [] too
                assert poly_frobenius(ctx, a, m) == poly_powmod(ctx, a, q, m), (a, m)


@pytest.mark.parametrize("q", [101, 997])
def test_frobenius_matches_square_and_multiply_on_both_routes(q, monkeypatch):
    ctx = FqContext.get(q)
    rng = random.Random(q)
    routes = []
    powmod = gfpoly.poly_powmod

    def spy(*args):
        routes[-1] = "powmod"
        return powmod(*args)

    monkeypatch.setattr(gfpoly, "poly_powmod", spy)
    # stride placement while deg(a) * q <= 5 * bit_length(q) * deg(m)
    for dm in (1, 2, 4, 6, 40):
        for monic in (True, False):
            m = _random_poly(ctx, rng, dm, monic)
            for da in sorted({-1, 0, 1, 2, dm - 1, dm + 3}):
                a = [] if da < 0 else _random_poly(ctx, rng, da, False)
                routes.append("stride")
                assert poly_frobenius(ctx, a, m) == powmod(ctx, a, q, m), (a, m)
    assert set(routes) == {"stride", "powmod"}


def _layers_by_square_and_multiply(ctx, f):
    """``degree_layers`` with each h = z^(q^d) mod rem by ``poly_powmod``."""
    one = ctx.one
    z = [ctx.zero, one]
    layers = []
    rem, h, d = f, z, 0
    while len(rem) > 1:
        d += 1
        if len(rem) - 1 < 2 * d:
            layers.append((len(rem) - 1, 1, rem))
            break
        h = poly_powmod(ctx, h, ctx.order, rem)
        g = poly_gcd(ctx, rem, poly_axpy(ctx, h, ctx.neg(one), z))
        j = 1
        while len(g) > 1:
            layers.append((d, j, g))
            rem = poly_divmod(ctx, rem, g)[0]
            g = poly_gcd(ctx, rem, g)
            j += 1
    return layers


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_degree_layers_against_square_and_multiply(p, e):
    ctx = FqContext.get(p, e)
    for d in range(1, 5):
        for f in monic_polys(ctx, d):
            f = list(f.coeffs)
            assert degree_layers(ctx, f) == _layers_by_square_and_multiply(ctx, f), f


def test_degree_layers_against_square_and_multiply_at_q101():
    ctx = FqContext.get(101)
    rng = random.Random(17)
    for _ in range(300):
        f = _random_poly(ctx, rng, rng.randrange(1, 9), True)
        assert degree_layers(ctx, f) == _layers_by_square_and_multiply(ctx, f), f


@pytest.fixture
def root_calls(monkeypatch):
    """A spy on ``_root_layers``: it counts the calls, so a test can tell
    which d = 1 route a ``degree_layers`` call took."""
    calls = []
    root_layers = gfpoly._root_layers

    def spy(*args):
        calls.append(1)
        return root_layers(*args)

    monkeypatch.setattr(gfpoly, "_root_layers", spy)
    return calls


def _evaluates_roots(ctx, degree):
    # the roots of f come from evaluation when poly_frobenius would place z at stride
    q = ctx.order
    return degree > 1 and q <= 5 * q.bit_length() * degree


def _check_layers_and_route(ctx, f, root_calls, routes):
    before = len(root_calls)
    assert degree_layers(ctx, f) == _layers_by_square_and_multiply(ctx, f), f
    evaluated = len(root_calls) > before
    assert evaluated == _evaluates_roots(ctx, len(f) - 1), f
    routes.add("evaluation" if evaluated else "gcd")


# GF(9) to degree 4 is test_degree_layers_against_square_and_multiply[3-2]
@pytest.mark.parametrize("p,e,top", [(5, 1, 6), (7, 1, 5), (5, 2, 3)])
def test_degree_layers_by_roots_against_square_and_multiply(p, e, top, root_calls):
    ctx = FqContext.get(p, e)
    routes = set()
    for d in range(1, top + 1):
        for f in monic_polys(ctx, d):
            _check_layers_and_route(ctx, list(f.coeffs), root_calls, routes)
    assert routes == {"gcd", "evaluation"}  # degree 1 has no d = 1 step


def _times_linear_powers(ctx, f, roots):
    """f times (z - a) for each a in roots, repeats included."""
    for a in roots:
        f = poly_mul(ctx, f, [ctx.neg(a), ctx.one])
    return f


@pytest.mark.parametrize("q,expected", [(101, {"gcd", "evaluation"}), (997, {"gcd"})])
def test_degree_layers_on_both_d1_routes_with_repeated_roots(q, expected, root_calls):
    ctx = FqContext.get(q)
    rng = random.Random(q + 28)
    routes = set()
    for i in range(300):
        f = _random_poly(ctx, rng, rng.randrange(1, 9), True)
        if i % 2:  # plant roots of multiplicity up to 3, one of them maybe 0
            a, b = rng.randrange(q), rng.choice([0, rng.randrange(q)])
            f = _times_linear_powers(ctx, f, [a] * rng.randrange(1, 4) + [b])
        _check_layers_and_route(ctx, f, root_calls, routes)
    assert routes == expected


def test_root_layers_edge_cases():
    ctx = FqContext.get(5)
    # (z - 1)^3 (z - 4)^2 (z^2 + 2): every layer, and the square left over
    f = _times_linear_powers(ctx, [2, 0, 1], [1, 1, 1, 4, 4])
    layers = []
    assert gfpoly._root_layers(ctx, f, layers) == [2, 0, 1]
    assert layers == [(1, 1, [4, 0, 1]), (1, 2, [4, 0, 1]), (1, 3, [4, 1])]
    # no root: f itself, no layer
    f = (2, 0, 1)
    assert gfpoly._root_layers(ctx, f, layers) is f and len(layers) == 3
    # split completely, 0 a root: the remainder is 1
    layers = []
    assert gfpoly._root_layers(ctx, _times_linear_powers(ctx, [1], [0, 0, 3]), layers) == [1]
    assert layers == [(1, 1, [0, 2, 1]), (1, 2, [0, 1])]
    # over GF(9): z^2 - g^2 = (z - g)(z + g) for the generator g
    ext = FqContext.get(3, 2)
    g = ext.generator()
    f = _times_linear_powers(ext, [ext.one], [g, ext.neg(g)])
    layers = []
    assert gfpoly._root_layers(ext, f, layers) == [ext.one]
    assert layers == [(1, 1, f)]


@pytest.mark.parametrize("p,e", [(2, 2), (2, 5), (3, 2), (3, 4), (5, 3), (7, 2)])
def test_first_irreducible_is_the_first_in_monic_order(p, e):
    first = next(f for f in monic_polys(FqContext.get(p), e) if is_irreducible(f))
    assert gfpoly._first_irreducible(p, e) == first.coeffs


def test_power_rows_grow_with_the_degree():
    ctx = FqContext(7)
    rows = ctx.power_rows(2)
    assert rows == [[1, a, a * a % 7] for a in range(7)]
    assert ctx.power_rows(1) is rows  # long enough already
    rows = ctx.power_rows(4)
    assert rows == [[pow(a, k, 7) for k in range(5)] for a in range(7)]
    ext = FqContext(3, 2)
    assert ext.power_rows(3) == [[ext.pow(a, k) for k in range(4)] for a in ext.elements()]


def _schoolbook_divmod(ctx, a, b):
    """(quotient, remainder) of a by b by slices of the remainder, one
    ``ctx.axpy`` and one ``ctx.neg`` a step: the oracle for the in-place
    division of ``poly_divmod`` and ``poly_mod``."""
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) <= db:
        return [], list(a)
    zero = ctx.zero
    lead_inv = None if b[-1] == ctx.one else ctx.inv(b[-1])
    rem = list(a)
    quot = [zero] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == zero:
            continue
        if lead_inv is not None:
            c = ctx.mul(c, lead_inv)
        quot[i - db] = c
        rem[i - db:i] = ctx.axpy(rem[i - db:i], ctx.neg(c), b)
    del rem[db:]
    while rem and rem[-1] == zero:
        rem.pop()
    return quot, rem


def _check_division(ctx, a, b):
    """Both kernels against the oracle and a = q*b + r with deg r < deg b,
    with neither argument changed."""
    a_before, b_before = list(a), list(b)
    quot, rem = poly_divmod(ctx, a, b)
    assert (quot, rem) == _schoolbook_divmod(ctx, a, b), (a, b)
    assert poly_mod(ctx, a, b) == rem, (a, b)
    assert len(rem) < len(b)
    assert poly_axpy(ctx, poly_mul(ctx, quot, b), ctx.one, rem) == list(a), (a, b)
    assert (a, b) == (a_before, b_before)


def _divisors(ctx, rng, degree):
    """Every b of this degree over GF(2); otherwise a seeded monic b and
    2b, whose leading coefficient is 2."""
    if ctx.order == 2:
        return [FqPoly.from_ints(ctx, lower + (1,)).coeffs
                for lower in itertools.product(range(2), repeat=degree)]
    b = _random_poly(ctx, rng, degree, True)
    return [b, [ctx.mul(2, c) for c in b]]


@pytest.mark.parametrize("p,e,top", [(2, 1, 5), (3, 1, 5), (5, 1, 5), (3, 2, 3)])
def test_division_kernels_against_schoolbook_oracle(p, e, top):
    # every dividend of degree <= top ([] and deg a < deg b among them); over
    # GF(9) top is 3, since its 9^6 dividends of degree <= 5 take minutes
    ctx = FqContext.get(p, e)
    rng = random.Random(ctx.order)
    dividends = [FqPoly.from_ints(ctx, ks).coeffs
                 for ks in itertools.product(range(ctx.order), repeat=top + 1)]
    for db in range(1, 4):
        for b in _divisors(ctx, rng, db):
            for a in dividends:
                _check_division(ctx, list(a), list(b))
    if e > 1:  # seeded dividends of degree 4 and 5 over GF(9)
        for _ in range(300):
            b = _random_poly(ctx, rng, rng.randrange(1, 4), rng.random() < 0.5)
            _check_division(ctx, _random_poly(ctx, rng, rng.randrange(4, 6), False), b)


@pytest.mark.parametrize("q", [101, 997])
def test_division_kernels_on_frobenius_stride_dividends(q):
    # the dividends poly_frobenius divides: deg(a) * q + 1 coefficients, a's
    # at stride q with zeros between, and dense ones of the same length
    ctx = FqContext.get(q)
    rng = random.Random(q)
    for dm in (1, 2, 5):
        for monic in (True, False):
            m = _random_poly(ctx, rng, dm, monic)
            for da in sorted({1, dm}):
                spread = [0] * (da * q + 1)
                spread[::q] = _random_poly(ctx, rng, da, False)
                _check_division(ctx, spread, m)
                _check_division(ctx, _random_poly(ctx, rng, da * q, False), m)


def test_division_kernels_edge_cases():
    for ctx in (FqContext.get(5), FqContext.get(3, 2)):
        one = ctx.one
        b = [2, ctx.zero, one]
        for kernel in (poly_divmod, poly_mod):
            with pytest.raises(ZeroDivisionError):
                kernel(ctx, [one, one], [])
            with pytest.raises(ZeroDivisionError):
                kernel(ctx, [], [])
        assert poly_divmod(ctx, [], b) == ([], []) and poly_mod(ctx, [], b) == []
        assert poly_divmod(ctx, [one, one], b) == ([], [one, one])
        assert poly_mod(ctx, [one, one], b) == [one, one]
        assert poly_divmod(ctx, b, [3]) == ([ctx.mul(c, ctx.inv(3)) for c in b], [])


# -- the oracle: an element as the tuple of its base-p digits, low to high ------


def digits(ctx, a) -> tuple:
    """The base-p digits of the element a, low to high."""
    out = []
    for _ in range(ctx.e):
        out.append(a % ctx.p)
        a //= ctx.p
    return tuple(out)


def from_digits(ctx, ds) -> int:
    out = 0
    for d in reversed(ds):
        out = out * ctx.p + d
    return out


def digit_add(ctx, a, b):
    return from_digits(ctx, [(x + y) % ctx.p for x, y in zip(digits(ctx, a), digits(ctx, b))])


def digit_sub(ctx, a, b):
    return from_digits(ctx, [(x - y) % ctx.p for x, y in zip(digits(ctx, a), digits(ctx, b))])


def digit_neg(ctx, a):
    return from_digits(ctx, [-x % ctx.p for x in digits(ctx, a)])


def schoolbook_mul(ctx, a, b):
    """The product of the digit polynomials of a and b, reduced mod the modulus."""
    p, e, mod = ctx.p, ctx.e, ctx.modulus
    coeffs = [0] * (2 * e - 1)
    for i, x in enumerate(digits(ctx, a)):
        for j, y in enumerate(digits(ctx, b)):
            coeffs[i + j] += x * y
    for i in range(len(coeffs) - 1, e - 1, -1):
        c = coeffs[i] % p
        for j in range(e):
            coeffs[i - e + j] -= c * mod[j]
    return from_digits(ctx, [c % p for c in coeffs[:e]])


def schoolbook_pow(ctx, a, k):
    out = 1
    while k:
        if k & 1:
            out = schoolbook_mul(ctx, out, a)
        a = schoolbook_mul(ctx, a, a)
        k >>= 1
    return out


def oracle_is_generator(ctx, a) -> bool:
    """a^((q-1)/r) != 1 for every prime r dividing q - 1."""
    q1 = ctx.order - 1
    primes = [r for r in range(2, q1 + 1) if q1 % r == 0 and is_prime(r)]
    return a != 0 and all(schoolbook_pow(ctx, a, q1 // r) != 1 for r in primes)


@pytest.mark.parametrize("p,e,modulus", [(2, 2, None), (2, 3, None), (3, 2, None),
                                         (5, 2, None), (3, 2, (1, 0, 1)), (2, 4, None),
                                         (3, 3, None), (5, 3, None), (3, 2, (2, 2, 1))])
def test_table_product_equals_schoolbook_product(p, e, modulus):
    # every table lookup against the digit oracle, on every pair of elements
    ctx = FqContext(p, e, modulus)  # a private context: its tables start unbuilt
    els = list(ctx.elements())
    assert els == list(range(ctx.order))
    for a in els:
        assert ctx.neg(a) == digit_neg(ctx, a), a
        for b in els:
            assert ctx.add(a, b) == digit_add(ctx, a, b), (a, b)
            assert ctx.sub(a, b) == digit_sub(ctx, a, b), (a, b)
            assert ctx.mul(a, b) == schoolbook_mul(ctx, a, b), (a, b)
        if a != ctx.zero:
            assert schoolbook_mul(ctx, a, ctx.inv(a)) == ctx.one, a
    gens = [a for a in els if oracle_is_generator(ctx, a)]
    assert [a for a in els if ctx.is_generator(a)] == gens
    assert ctx.generator() == gens[0]
    for base in gens:
        cur = ctx.one
        for k in range(ctx.order - 1):
            assert ctx.dlog(cur, base) == k, (cur, base)
            cur = schoolbook_mul(ctx, cur, base)
        assert cur == ctx.one


@pytest.mark.parametrize("p,e,modulus,gen", [
    (2, 2, None, 2), (2, 3, None, 2), (3, 2, None, 4), (5, 2, None, 7), (3, 2, (1, 0, 1), 4),
    (2, 4, None, 2), (3, 3, None, 3), (5, 3, None, 7), (3, 2, (2, 2, 1), 3), (31, 3, None, 41),
])
def test_generator_search_walks_one_power_cycle(monkeypatch, p, e, modulus, gen):
    # the smallest generator, found by an order test of each candidate and
    # one walk of its power cycle; on GF(31^3) that walk is 29,790 products,
    # where walking every failed candidate's cycle took 130,152
    calls = []
    schoolbook = FqContext._schoolbook_mul
    monkeypatch.setattr(FqContext, "_schoolbook_mul",
                        lambda ctx, a, b: calls.append(1) or schoolbook(ctx, a, b))
    ctx = FqContext(p, e, modulus)
    assert ctx.generator() == gen
    if (p, e) == (31, 3):
        assert len(calls) < 40000
    cur = ctx.one
    for _ in range(ctx.order - 2):
        cur = ctx.mul(cur, gen)
        assert cur != ctx.one


def test_irreducible_sieve_belongs_to_the_context_not_to_its_order():
    # the canonical GF(9) is sieved first; GF(9) mod z^2 + 2z + 2 must sieve
    # its own irreducibles, or factor() would trial-divide by the wrong ones
    canonical = FqContext.get(3, 2)
    for d in (1, 2):
        irreducibles(canonical, d)
    other = FqContext(3, 2, modulus=(2, 2, 1))
    for d in (1, 2):
        assert all(g.ctx is other for g in irreducibles(other, d))
    for f in monic_polys(other, 4):
        fac = factor(f)
        assert fac.degree_partition() == layer_partition(degree_layers(other, f.coeffs)), f
        assert all(g.ctx is other for g, _ in fac), f
