"""Semisimple adjoint orbits of types A and B, modeled as polynomials.

Type A orbits over F_q are the monic degree-n polynomials with vanishing
z^(n-1) coefficient (q^(n-1) of them); type B orbits are the monic degree-2n
polynomials fixed by z -> -z (q^n of them, odd characteristic).  The class
map sends a polynomial to a conjugacy-class label of the Weyl group through
its irreducible factorization: factor degrees for type A; for type B the
unique splitting into conjugate pairs [phi(z)phi(-z)]^r times self-conjugate
factors phi^s with s in {0,1}, giving a pair of partitions.

``phi_map`` reads both labels off the distinct-degree layers of
``gfpoly.degree_layers``: over a small field the layers start from the
roots of f in F_q, found by evaluation, and no factor of degree >= 2 is
ever found.  With f(z) = g(z^2), the type-B label asks of each factor psi
of g whether its root beta is a square in F_(q^m), m = deg psi.  By
Euler's criterion that holds exactly when the norm N(beta) = (-1)^m psi(0)
is a square in F_q, since (q^m - 1)/2 = ((q - 1)/2)(1 + q + ... +
q^(m-1)): a layer with one factor needs one power in F_q; a layer of
several roots in F_q, over a small field, counts them among the squares by
evaluation; any other layer needs the norm of y modulo the layer, one
power of it and one gcd.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from .gfpoly import (
    FqContext,
    FqPoly,
    check_table_size,
    degree_layers,
    is_prime,
    layer_partition,
    poly_axpy,
    poly_frobenius,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_powmod,
    stride_pays,
)
from .labels import ClassLabel, ClassMeasure


class OrbitFamily:
    __slots__ = ("tag", "n", "q", "ctx")

    def __init__(self, tag: str, n: int, q: int, ctx: FqContext):
        object.__setattr__(self, "tag", tag)  # "A" or "B"
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)  # field size (prime power; acceptance runs use primes)
        object.__setattr__(self, "ctx", ctx)

    def __setattr__(self, name, value):
        raise AttributeError("OrbitFamily is immutable")

    def __reduce__(self):
        return (OrbitFamily, self._key())

    def _key(self) -> tuple:
        return (self.tag, self.n, self.q, self.ctx)

    def __eq__(self, other):
        if other.__class__ is not OrbitFamily:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"OrbitFamily(tag={self.tag!r}, n={self.n!r}, q={self.q!r}, ctx={self.ctx!r})"

    @property
    def rank(self) -> int:
        return self.n - 1 if self.tag == "A" else self.n

    @property
    def orbit_count(self) -> int:
        return self.q**self.rank


def orbit_family(tag: str, n: int, q: int, e: int = 1) -> OrbitFamily:
    tag = tag.upper()
    if tag not in ("A", "B"):
        raise ValueError("family must be A or B")
    if tag == "B" and (q**e) % 2 == 0:
        raise ValueError("type B needs odd characteristic")
    if not is_prime(q):
        raise ValueError("base must be prime (use e for prime powers)")
    # both bounds come before the field: an extension's exp/log/Zech tables
    # hold one entry per element, built on its first product
    count = (q**e) ** (n - 1 if tag == "A" else n)
    if count > 10**6:
        raise ValueError(f"enumeration would need {count} representatives")
    if e > 1:
        check_table_size(q, e)
    return OrbitFamily(tag, n, q**e, FqContext.get(q, e))


def enumerate_orbits(fam: OrbitFamily) -> Iterator[FqPoly]:
    """All orbit representatives: trace-zero monics (A) or even monics (B)."""
    ctx = fam.ctx
    if fam.tag == "A":
        n = fam.n
        for lower in itertools.product(range(fam.q), repeat=n - 1):
            yield FqPoly(ctx, lower + (0, 1))
    else:
        n = fam.n
        for even in itertools.product(range(fam.q), repeat=n):
            coeffs = [0] * (2 * n + 1)
            coeffs[::2] = [*even, 1]
            yield FqPoly(ctx, tuple(coeffs))


def phi_map(fam: OrbitFamily, f: FqPoly) -> ClassLabel:
    """Weyl-group class label of the orbit represented by f."""
    ctx = f.ctx
    if fam.tag == "A":
        if f.degree != fam.n or not f.is_monic:
            raise ValueError("expected a monic polynomial of degree n")
        if len(f.coeffs) >= fam.n and not ctx.is_zero(f.coeffs[fam.n - 1]):
            raise ValueError("coefficient of z^(n-1) must vanish")
        return ClassLabel("partition", layer_partition(degree_layers(ctx, f.coeffs)))
    if f.degree != 2 * fam.n or not f.is_monic or not f.is_even_function():
        raise ValueError("expected a monic even polynomial of degree 2n")
    return ClassLabel("bipartition", _b_layer_type(ctx, f.coeffs[::2]))


def _b_layer_type(ctx: FqContext, g: tuple) -> Tuple[tuple, tuple]:
    """The type-B label (lambda, mu) of f(z) = g(z^2), from the
    distinct-degree layers of g.

    y^k | g gives z^(2k) | f: k to lambda_1.  A factor psi != y of g of
    degree m and multiplicity k, with root beta, gives psi(z^2) =
    phi(z)phi(-z), a conjugate pair of degree m, when beta is a square in
    F_(q^m): k to lambda_m.  Otherwise psi(z^2) is self-conjugate of degree
    2m, and k = 2r + s sends r to lambda_(2m) and s to mu_m.  In a layer of
    degree-m factors, ``_square_count`` counts the squares s; each pass adds
    them to lambda_m, and the t others add t to mu_m on odd passes and move
    t from mu_m to lambda_(2m) on even ones.
    """
    lam: Counter = Counter()
    mu: Counter = Counter()
    k = 0
    while ctx.is_zero(g[k]):  # g is monic, so this stops
        k += 1
    lam[1] += k
    g = g[k:]
    if len(g) > 1:
        for m, j, layer in degree_layers(ctx, g):
            s = _square_count(ctx, m, layer)
            t = (len(layer) - 1) // m - s
            lam[m] += s
            if j % 2:
                mu[m] += t
            else:
                lam[2 * m] += t
                mu[m] -= t
    return _partition(lam), _partition(mu)


def _square_count(ctx: FqContext, m: int, layer: list) -> int:
    """The number of factors of a layer P of distinct degree-m irreducibles
    (none of them y) whose roots are squares in F_(q^m), for odd q.

    Euler's criterion through the norm: (q^m - 1)/2 = ((q - 1)/2)(1 + q +
    ... + q^(m-1)), so beta^((q^m-1)/2) = N(beta)^((q-1)/2) with N(beta) =
    beta * beta^q * ... * beta^(q^(m-1)) in F_q, and beta is a square
    exactly when its norm is a square in F_q.  For one factor psi = P the
    norm of its root is the signed constant term (-1)^m psi(0), and the
    test is one power in F_q.  For t >= 2 factors of degree 1, under
    ``degree_layers``' rule ``stride_pays(q, 1, t)``, the roots of P are
    counted among the nonzero squares of F_q, one dot product with
    ``ctx.power_rows`` each.  Otherwise the norm nu = y * y^q * ... *
    y^(q^(m-1)) mod P (each image one ``poly_frobenius`` of the one
    before) takes the value N(beta) mod each factor, so the squares are
    the roots of gcd(P, nu^((q-1)/2) - 1).
    """
    one = ctx.one
    half = (ctx.order - 1) // 2
    if len(layer) - 1 == m:
        c = layer[0] if m % 2 == 0 else ctx.neg(layer[0])
        return int(ctx.pow(c, half) == one)
    t = len(layer) - 1
    if m == 1 and stride_pays(ctx.order, 1, t):
        rows = ctx.power_rows(t)  # t >= 2, so row a holds a^2
        dot = ctx.dot
        return sum(1 for s in {row[2] for row in rows[1:]} if not dot(layer, rows[s]))
    norm = image = [ctx.zero, one]
    for _ in range(m - 1):
        image = poly_frobenius(ctx, image, layer)
        norm = poly_mod(ctx, poly_mul(ctx, norm, image), layer)
    power = poly_powmod(ctx, norm, half, layer)
    squares = poly_gcd(ctx, layer, poly_axpy(ctx, power, ctx.neg(one), [one]))
    return (len(squares) - 1) // m


def _partition(counter: Counter) -> tuple:
    parts = []
    for size, count in counter.items():
        parts.extend([size] * count)
    return tuple(sorted(parts, reverse=True))


def orbit_class_distribution(fam: OrbitFamily) -> ClassMeasure:
    """Uniform measure over orbit representatives, pushed through the class map."""
    counts: Dict[ClassLabel, int] = {}
    total = 0
    for f in enumerate_orbits(fam):
        label = phi_map(fam, f)
        counts[label] = counts.get(label, 0) + 1
        total += 1
    if total != fam.orbit_count:
        raise RuntimeError("orbit enumeration produced the wrong count")
    return ClassMeasure._from_numerators(list(counts), list(counts.values()), total)


def identity_class_label(fam: OrbitFamily) -> ClassLabel:
    if fam.tag == "A":
        return ClassLabel("partition", (1,) * fam.n)
    return ClassLabel("bipartition", ((1,) * fam.n, ()))


def weyl_exponents(tag: str, n: int) -> List[int]:
    """The exponents of A_{n-1} (tag "A") or of B_n (tag "B")."""
    if tag == "A":
        return list(range(1, n))
    return list(range(1, 2 * n, 2))


def identity_class_prediction(fam: OrbitFamily) -> Fraction:
    """prod (q + m_i) / (1 + m_i) over the exponents of the Weyl group."""
    return _exponent_product(fam.q, weyl_exponents(fam.tag, fam.n))


def _exponent_product(q: int, exponents: List[int]) -> Fraction:
    out = Fraction(1)
    for m in exponents:
        out *= Fraction(q + m, 1 + m)
    return out


def split_census_constant_one(n: int, q: int) -> Tuple[int, Fraction]:
    """Conjugacy-class-side counterexample census: monic degree-n polynomials
    over F_q splitting into linear factors with constant term 1, against the
    orbit-side prediction prod (q + m_i)/(1 + m_i) of type A_{n-1}."""
    census = 0
    for roots in itertools.combinations_with_replacement(range(q), n):
        prod = 1
        for a in roots:
            prod = prod * (-a) % q
        if prod % q == 1 % q:
            census += 1
    return census, _exponent_product(q, weyl_exponents("A", n))
