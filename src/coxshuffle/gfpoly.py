"""Finite fields GF(p^e) and exact polynomial arithmetic over them.

An element of GF(p^e) is an int 0 <= a < p^e whose base-p digits, low to
high, are its coefficients over GF(p) modulo the first monic irreducible of
degree e in ``monic_polys`` order.  That is the only modulus, so two
contexts of one order are the same field and build the same tables.  A
prime field adds and multiplies mod p; an extension adds, negates,
multiplies and inverts by lookups in one exp/log/Zech table set of its
smallest generator, built from the schoolbook product on first use.

Polynomial arithmetic has one implementation: the list kernels on trimmed
coefficient lists, with the field operations taken from the context.
``FqPoly`` wraps them.

- ``poly_axpy``: a + c*b.
- ``poly_mul``: a*b, one dot product per coefficient.
- ``poly_divmod`` and ``poly_mod``: quotient and remainder, or the
  remainder alone, by one schoolbook division in place on a copy of a.
  Over a prime field it runs on plain ints: -b is formed once, each step
  adds c*(-b) without reducing, and the remainder is reduced mod p once,
  at the end.
- ``poly_monic`` and ``poly_gcd``: the monic associate and the monic gcd.
- ``poly_powmod``: a^k mod m, by square and multiply.
- ``poly_frobenius``: a^q mod m for q the field order, by substitution.
  Every c in GF(q) has c^q = c, and the q-th power map is additive in
  characteristic p, so (sum c_i z^i)^q = sum c_i z^(iq) = a(z^q): the
  coefficients go to stride q and one division reduces them.
- ``FqContext.power_rows``: [1, a, ..., a^k] for every element a, kept
  on the context, so that evaluating f at a is one dot product.

``degree_layers`` splits a monic polynomial into distinct-degree layers
(Cantor–Zassenhaus): enough for the degree partition and, in ``orbits``,
for the class map.  Roots first: over a small field (q <= 5 *
bit_length(q) * deg f, ``poly_frobenius``' own rule) the degree-1 layers
come from the roots of f, found by evaluating f at every element and
removed by synthetic division, and the Frobenius-and-gcd loop runs only
for degrees >= 2 on what is left; over a large field it runs from degree
1.  No factor of degree >= 2 is found.  ``factor`` still gives the
factors themselves, by trial division against a sieved table of all
monic irreducibles of degree up to deg(f)/2 — after those are removed,
any nontrivial remainder is itself irreducible — because the necklace
encodings and the orbit tables need them, and the benchmark's layer
timings read the sieve (``irreducibles``) and ``factor`` directly.

The roots of an irreducible over GF(p) in an extension are not searched
for: each extension context builds, once, a table from every minimal
polynomial over GF(p) to its first root in element order
(``FqContext.first_roots``), from one pass over its Frobenius orbits.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import mul as _int_mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FqContext:
    """GF(p) for prime p, or GF(p^e) modulo the first monic irreducible of
    degree e (``_first_irreducible``).

    Elements are the ints 0 <= a < q in base-p digit order, so 0 and 1 are
    zero and one and ``elements()`` is range(q).  The tables of the smallest
    generator g are exp (g^k, doubled), log and zech[k] = log(1 + g^k): an
    extension's a*b is exp[log a + log b], a + b = a(1 + b/a) is
    exp[log a + zech[log b - log a]], and -a is exp[log a + (q-1)/2].  A
    prime field builds them only for ``dlog``.
    """

    zero = 0
    one = 1
    _cache: Dict[Tuple[int, int], "FqContext"] = {}

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = _first_irreducible(p, e) if e > 1 else None
        self._tables: Optional[Tuple[list, list, list]] = None
        self._first_roots: Optional[Dict[Tuple[int, ...], int]] = None
        self._irreducibles: Dict[int, List[FqPoly]] = {}
        self._powers: List[list] = []

    @classmethod
    def get(cls, p: int, e: int = 1) -> "FqContext":
        ctx = cls._cache.get((p, e))
        if ctx is None:
            ctx = cls(p, e)
            cls._cache[(p, e)] = ctx
        return ctx

    # -- element arithmetic ------------------------------------------------

    def elements(self) -> range:
        """All elements, in the deterministic base-p order."""
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        exp, log, zech = self._tables or self._build_tables()
        la = log[a]
        k = zech[log[b] - la]  # a negative index wraps mod q - 1, as the exponent does
        return 0 if k is None else exp[la + k]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        if not a or self.p == 2:
            return a
        exp, log, _ = self._tables or self._build_tables()
        return exp[log[a] + (self.order - 1) // 2]

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        exp, log, _ = self._tables or self._build_tables()
        return exp[log[a] + log[b]]

    def _schoolbook_mul(self, a: int, b: int) -> int:
        """The product of the digit polynomials of a and b mod the modulus:
        the one product the tables are built from."""
        p, e, mod = self.p, self.e, self.modulus
        coeffs = [0] * (2 * e - 1)
        ys = base_p_digits(b, p, e)
        for i, x in enumerate(base_p_digits(a, p, e)):
            if x:
                for j, y in enumerate(ys):
                    coeffs[i + j] += x * y
        for i in range(len(coeffs) - 1, e - 1, -1):
            c = coeffs[i] % p
            if c:
                for j in range(e):
                    coeffs[i - e + j] -= c * mod[j]
        out = 0
        for c in reversed(coeffs[:e]):
            out = out * p + c % p
        return out

    def _build_tables(self) -> Tuple[list, list, list]:
        """(exp, log, zech) for the smallest generator g.  exp[k] = g^k for
        0 <= k < 2(q - 1), so that exp[i + j] needs no reduction; log[a] is
        the inverse on a != 0 (log[0] is None); zech[k] = log(1 + g^k), None
        where 1 + g^k = 0."""
        p, q1 = self.p, self.order - 1
        mul = self._schoolbook_mul
        # g generates iff g^((q-1)/r) != 1 for each prime r | q - 1, so only
        # the generator's power cycle is walked
        rs = _prime_factors(q1)
        g = next(g for g in range(1, self.order)
                 if all(self.pow(g, q1 // r, mul) != 1 for r in rs))
        exp, cur = [1], g
        for _ in range(q1 - 1):
            exp.append(cur)
            cur = mul(cur, g)
        log = [None] * self.order
        for k, x in enumerate(exp):
            log[x] = k
        # adding 1 changes only the digit of z^0
        zech = [log[x - x % p + (x + 1) % p] for x in exp]
        self._tables = (exp + exp, log, zech)
        return self._tables

    def pow(self, a: int, k: int, mul=None) -> int:
        """a^k by square and multiply, with the product mul (the field's own
        by default)."""
        mul = mul or self.mul
        out = 1
        while k:
            if k & 1:
                out = mul(out, a)
            a = mul(a, a)
            k >>= 1
        return out

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("finite-field division by zero")
        if self.e == 1:
            return pow(a, -1, self.p)
        exp, log, _ = self._tables or self._build_tables()
        return exp[self.order - 1 - log[a]]

    def is_zero(self, a: int) -> bool:
        return not a

    def power_rows(self, degree: int) -> List[list]:
        """Row a is [1, a, a^2, ..., a^k] for every element a, with k >= degree,
        so a polynomial f of degree <= degree takes the value
        ``dot(f, rows[a])`` at a.  The rows are kept on the context and are
        rebuilt longer when a larger degree asks for them."""
        rows = self._powers
        if not rows or len(rows[0]) <= degree:
            mul = self.mul
            rows = self._powers = []
            for a in self.elements():
                row = [1]
                for _ in range(degree):
                    row.append(mul(row[-1], a))
                rows.append(row)
        return rows

    # -- vector operations (the inner loops of the polynomial kernels) -------

    def dot(self, xs, ys) -> int:
        """The sum of x*y over the pairs of xs and ys."""
        if self.e == 1:
            return sum(map(_int_mul, xs, ys)) % self.p
        add, mul = self.add, self.mul
        out = 0
        for x, y in zip(xs, ys):
            out = add(out, mul(x, y))
        return out

    def axpy(self, xs, c: int, ys) -> list:
        """The vector xs + c*ys (ys at least as long as xs)."""
        if self.e == 1:
            p = self.p
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        add, mul = self.add, self.mul
        return [add(x, mul(c, y)) for x, y in zip(xs, ys)]

    # -- multiplicative structure --------------------------------------------

    def _log(self, a) -> int:
        """The log of a to the smallest generator; ValueError unless a is an
        int with 0 < a < q, since a list index would answer a = -1 silently."""
        if a.__class__ is not int or not 0 < a < self.order:
            raise ValueError(f"{a!r} is not a nonzero element of {self!r}")
        return (self._tables or self._build_tables())[1][a]

    def dlog(self, a, base=None) -> int:
        """The k with base^k = a, for a generator base (the smallest generator
        by default): log a * (log base)^-1 mod q - 1, read from the field's
        table.  ValueError unless a and base are nonzero elements and base
        generates."""
        k = self._log(a)
        if base is None:
            return k
        q1, kb = self.order - 1, self._log(base)
        if gcd(kb, q1) != 1:
            raise ValueError(f"{base!r} does not generate the multiplicative group")
        return k * pow(kb, -1, q1) % q1

    def first_roots(self) -> Dict[Tuple[int, ...], int]:
        """Minimal polynomial over GF(p) -> its first root in ``elements()`` order.

        Built on first call in one pass over ``elements()``: the first element
        not yet seen opens a new Frobenius orbit a, a^p, a^(p^2), ..., whose
        product of (z - a^(p^k)) is the minimal polynomial of a, keyed by its
        coefficients, low to high."""
        if self._first_roots is None:
            p = self.p
            table, seen = {}, set()
            for a in self.elements():
                if a in seen:
                    continue
                poly = [1]
                cur = a
                while True:
                    seen.add(cur)
                    poly = poly_mul(self, poly, [self.neg(cur), 1])
                    cur = self.pow(cur, p)
                    if cur == a:
                        break
                if any(c >= p for c in poly):
                    raise RuntimeError("a minimal polynomial left the prime field")
                table[tuple(poly)] = a
            self._first_roots = table
        return self._first_roots

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


def check_table_size(p: int, e: int) -> None:
    """ValueError when GF(p^e) has more than 10^6 elements: a field's tables
    (exp/log/Zech, first roots) hold one entry per element."""
    if p**e > 10**6:
        raise ValueError(f"GF({p}^{e}) would need tables of {p**e} elements")


def base_p_digits(k: int, p: int, n: int) -> List[int]:
    """The n base-p digits of k, low to high: for an element k of GF(p^n),
    its coordinates in the polynomial basis 1, z, ..., z^(n-1)."""
    out = []
    for _ in range(n):
        k, d = divmod(k, p)
        out.append(d)
    return out


def _prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- list kernels ----------------------------------------------------------------
# A polynomial is a sequence of coefficients, low to high, with no trailing
# zero (the zero polynomial is empty).  Every kernel returns trimmed lists
# and never changes its arguments.


def _trim(ctx: FqContext, cs: list) -> list:
    zero = ctx.zero
    while cs and cs[-1] == zero:
        cs.pop()
    return cs


def poly_axpy(ctx: FqContext, a: Sequence, c, b: Sequence) -> list:
    """a + c*b."""
    zero = ctx.zero
    n = max(len(a), len(b))
    return _trim(ctx, ctx.axpy([*a, *[zero] * (n - len(a))], c, [*b, *[zero] * (n - len(b))]))


def poly_mul(ctx: FqContext, a: Sequence, b: Sequence) -> list:
    """a*b, one dot product per coefficient."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    rb = b[::-1]
    dot = ctx.dot
    out = []
    for k in range(la + lb - 1):
        lo = max(0, k - lb + 1)
        hi = min(k, la - 1)
        # the sum of a[i] * b[k - i] over lo <= i <= hi; b[k - i] = rb[lb - 1 - k + i]
        out.append(dot(a[lo:hi + 1], rb[lb - 1 - k + lo:lb - k + hi]))
    return out


def _divide(ctx: FqContext, a: Sequence, b: Sequence) -> list:
    """Schoolbook division of a copy of a by b, in place: the list returned
    holds the remainder (reduced, not trimmed) in its first deg(b) places
    and the quotient above them.

    Each step turns the top coefficient t into the quotient coefficient
    c = t / lead(b) and adds c times -b below it.  Over a prime field the
    coefficients are plain ints: -b is formed once, the additions are not
    reduced, and the remainder is reduced mod p once at the end.
    """
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    work = list(a)
    if len(work) <= db:
        return work
    steps = range(len(work) - 1, db - 1, -1)
    span = range(db)
    if ctx.e == 1:
        p = ctx.p
        lead_inv = pow(b[-1], -1, p)
        nb = [p - y for y in b[:db]]
        for i in steps:
            c = work[i] = work[i] * lead_inv % p
            if c:
                lo = i - db
                for j in span:
                    work[lo + j] += c * nb[j]
        for j in span:
            work[j] %= p
        return work
    zero, add, mul = ctx.zero, ctx.add, ctx.mul
    lead_inv = ctx.inv(b[-1])
    nb = [ctx.neg(y) for y in b[:db]]
    for i in steps:
        if work[i] != zero:
            c = work[i] = mul(work[i], lead_inv)
            lo = i - db
            for j in span:
                work[lo + j] = add(work[lo + j], mul(c, nb[j]))
    return work


def poly_divmod(ctx: FqContext, a: Sequence, b: Sequence) -> Tuple[list, list]:
    """(quotient, remainder) of a by b."""
    work = _divide(ctx, a, b)
    db = len(b) - 1
    return work[db:], _trim(ctx, work[:db])


def poly_mod(ctx: FqContext, a: Sequence, b: Sequence) -> list:
    """The remainder of a by b, for callers that need no quotient."""
    work = _divide(ctx, a, b)
    del work[len(b) - 1:]
    return _trim(ctx, work)


def poly_monic(ctx: FqContext, a: Sequence) -> list:
    if not a or a[-1] == ctx.one:
        return list(a)
    inv, mul = ctx.inv(a[-1]), ctx.mul
    return [mul(inv, c) for c in a]


def poly_gcd(ctx: FqContext, a: Sequence, b: Sequence) -> list:
    """Monic gcd of a and b ([] when both are zero)."""
    while b:
        a, b = b, poly_mod(ctx, a, b)
    return poly_monic(ctx, a)


def poly_powmod(ctx: FqContext, a: Sequence, k: int, m: Sequence) -> list:
    """a^k mod m, by square and multiply; m has degree >= 1."""
    base = poly_mod(ctx, a, m)
    out = None  # the power 1
    while True:
        if k & 1:
            out = base if out is None else poly_mod(ctx, poly_mul(ctx, out, base), m)
        k >>= 1
        if not k:
            return [ctx.one] if out is None else out
        base = poly_mod(ctx, poly_mul(ctx, base, base), m)


def stride_pays(q: int, da: int, dm: int) -> bool:
    """The route rule of ``poly_frobenius`` for deg a = da and deg m = dm:
    deg(a) * q <= 5 * bit_length(q) * deg(m).  With da = 1 it also says
    when q evaluations find the roots of a degree-dm polynomial sooner
    than z^q mod it and a gcd do (``degree_layers``)."""
    return da * q <= 5 * q.bit_length() * dm


def poly_frobenius(ctx: FqContext, a: Sequence, m: Sequence) -> list:
    """a^q mod m for q = ``ctx.order``; m has degree >= 1.

    a^q = a(z^q), so the coefficients of a mod m are placed at stride q and
    reduced by one division: about deg(a) * q * deg(m) inner steps, against
    about bit_length(q) * deg(m)^2 for ``poly_powmod``'s squares and
    products.  Stride placement runs while deg(a) * q <= 5 * bit_length(q) *
    deg(m), the crossover timed on prime fields; both routes give the one
    remainder.
    """
    a = poly_mod(ctx, a, m)
    if not a:
        return a
    q, da, dm = ctx.order, len(a) - 1, len(m) - 1
    if not stride_pays(q, da, dm):
        return poly_powmod(ctx, a, q, m)
    spread = [ctx.zero] * (da * q + 1)
    spread[::q] = a
    return poly_mod(ctx, spread, m)


# -- distinct-degree layers ------------------------------------------------------


def degree_layers(ctx: FqContext, f: list) -> List[Tuple[int, int, list]]:
    """Distinct-degree layers of a monic f of degree >= 1 (Cantor–Zassenhaus).

    The layer (d, j, g) is the product g of the irreducible factors of f of
    degree d and multiplicity at least j, so a factor of multiplicity k lies
    in the layers j = 1..k of its degree.

    Roots first: when ``stride_pays(q, 1, deg f)``, the rule by which
    ``poly_frobenius`` places z at stride, the d = 1 layers come from the
    roots of f in F_q (``_root_layers``: q evaluations, then synthetic
    division), and the loop below starts at d = 2 from f with its roots
    removed.  Otherwise the loop starts at d = 1.

    For each d: h = z^(q^d) mod rem is the q-th power of the previous h
    (``poly_frobenius``; the previous h was reduced mod a multiple of rem),
    and g = gcd(rem, h - z) holds every degree-d factor once, since all
    smaller degrees are gone; then "rem /= g; g = gcd(rem, g)" peels one
    copy of each per pass until g = 1.  Once deg rem < 2d, rem is
    irreducible and is the last layer.
    """
    one = ctx.one
    z = [ctx.zero, one]
    minus_one = ctx.neg(one)
    layers = []
    rem, h, d = f, z, 0
    n = len(f) - 1
    if n > 1 and stride_pays(ctx.order, 1, n):
        rem = _root_layers(ctx, f, layers)
        d = 1
        if len(rem) > 4:  # deg rem >= 4 = 2d at d = 2, so the loop needs z^q
            h = poly_frobenius(ctx, z, rem)
    while len(rem) > 1:
        d += 1
        if len(rem) - 1 < 2 * d:
            layers.append((len(rem) - 1, 1, rem))
            break
        h = poly_frobenius(ctx, h, rem)
        g = poly_gcd(ctx, rem, poly_axpy(ctx, h, minus_one, z))
        j = 1
        while len(g) > 1:
            layers.append((d, j, g))
            rem, r = poly_divmod(ctx, rem, g)
            if r:
                raise RuntimeError("a distinct-degree layer does not divide the polynomial")
            g = poly_gcd(ctx, rem, g)
            j += 1
    check_layers(len(f) - 1, layers)
    return layers


def _root_layers(ctx: FqContext, f: Sequence, layers: list) -> Sequence:
    """Append the degree-1 layers of a monic f to layers and return f with
    its roots removed (f itself when it has none).

    The roots are the a with f(a) = 0, one dot product each with the rows
    of ``ctx.power_rows``.  Synthetic division by z - a removes each root
    until the remainder is nonzero, which gives its multiplicity, and the
    layer (1, j, g) is the product g of z - a over the roots of
    multiplicity at least j.  Over a prime field the evaluations
    (``ctx.dot``), the division and the products run on plain ints.
    """
    dot = ctx.dot
    roots = [a for a, row in enumerate(ctx.power_rows(len(f) - 1)) if not dot(f, row)]
    if not roots:
        return f
    if ctx.e == 1:
        p = ctx.p

        def deflate(cs, a):  # (quotient, remainder) of cs by z - a
            quot, acc = [], 0
            for c in cs[:0:-1]:
                acc = (acc * a + c) % p
                quot.append(acc)
            quot.reverse()
            return quot, (acc * a + cs[0]) % p

        def times_linear(g, a):  # g * (z - a): the z^i coefficient is g[i - 1] - a * g[i]
            return [(lo - a * hi) % p for lo, hi in zip([0, *g], [*g, 0])]
    else:
        add, mul, neg = ctx.add, ctx.mul, ctx.neg

        def deflate(cs, a):
            quot, acc = [], 0
            for c in cs[:0:-1]:
                acc = add(mul(acc, a), c)
                quot.append(acc)
            quot.reverse()
            return quot, add(mul(acc, a), cs[0])

        def times_linear(g, a):
            return poly_mul(ctx, g, [neg(a), 1])
    rem = f
    mults = []
    for a in roots:
        k = 0
        while len(rem) > 1:
            quot, r = deflate(rem, a)
            if r:
                break
            rem = quot
            k += 1
        mults.append(k)
    for j in range(1, max(mults) + 1):
        g = [1]
        for a, k in zip(roots, mults):
            if k >= j:
                g = times_linear(g, a)
        layers.append((1, j, g))
    return rem


def check_layers(degree: int, layers: Sequence[Tuple[int, int, list]]) -> None:
    """Raise RuntimeError unless every degree-d layer has a degree divisible
    by d and the layer degrees add up to ``degree``."""
    if any((len(g) - 1) % d for d, _, g in layers) or sum(
        len(g) - 1 for _, _, g in layers
    ) != degree:
        raise RuntimeError("distinct-degree layers do not add up to the polynomial")


def layer_partition(layers: Sequence[Tuple[int, int, list]]) -> tuple:
    """Factor-degree partition (with multiplicity) from the layers."""
    parts = []
    for d, _, g in layers:
        parts.extend([d] * ((len(g) - 1) // d))
    return tuple(sorted(parts, reverse=True))


# -- polynomials -----------------------------------------------------------------


class FqPoly:
    """Polynomial over an FqContext; coefficients low-to-high, trimmed."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FqContext, coeffs: tuple):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FqPoly is immutable")

    def __reduce__(self):
        return (FqPoly, (self.ctx, self.coeffs))

    def __repr__(self):
        return f"FqPoly(ctx={self.ctx!r}, coeffs={self.coeffs!r})"

    @staticmethod
    def make(ctx: FqContext, coeffs: Sequence) -> "FqPoly":
        return FqPoly(ctx, tuple(_trim(ctx, list(coeffs))))

    @staticmethod
    def from_ints(ctx: FqContext, ints: Sequence[int]) -> "FqPoly":
        return FqPoly.make(ctx, [k % ctx.order for k in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly) and self.ctx is other.ctx and self.coeffs == other.coeffs
        )

    def __lt__(self, other):
        a, b = self.coeffs, other.coeffs
        return (len(a), a[::-1]) < (len(b), b[::-1])

    def mul(self, other: "FqPoly") -> "FqPoly":
        return FqPoly(self.ctx, tuple(poly_mul(self.ctx, self.coeffs, other.coeffs)))

    def monic(self) -> "FqPoly":
        return FqPoly(self.ctx, tuple(poly_monic(self.ctx, self.coeffs)))

    def substitute_negative(self) -> "FqPoly":
        """The polynomial f(-z)."""
        ctx = self.ctx
        return FqPoly.make(
            ctx, [c if i % 2 == 0 else ctx.neg(c) for i, c in enumerate(self.coeffs)]
        )

    def is_even_function(self) -> bool:
        return self == self.substitute_negative()

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append("z" if cs == "1" else f"{cs}z")
            else:
                terms.append(f"z^{i}" if cs == "1" else f"{cs}z^{i}")
        return "+".join(terms)


def monic_polys(ctx: FqContext, degree: int) -> Iterator[FqPoly]:
    """All monic polynomials of the given degree, in deterministic order."""
    for lower in itertools.product(range(ctx.order), repeat=degree):
        yield FqPoly(ctx, lower + (1,))


def _monic_index(ctx: FqContext, f: FqPoly, degree: int) -> int:
    """Rank of a monic degree-d polynomial among all of them (by low coeffs)."""
    idx = 0
    for i in range(degree - 1, -1, -1):
        idx = idx * ctx.order + (f.coeffs[i] if i < len(f.coeffs) - 1 else 0)
    return idx


def irreducibles(ctx: FqContext, degree: int) -> List[FqPoly]:
    """All monic irreducibles of exactly this degree, by an Eratosthenes-style
    sieve: every product of an irreducible of smaller degree with a monic
    cofactor is marked reducible; the unmarked monics remain.  The lists
    are kept on the context."""
    cached = ctx._irreducibles.get(degree)
    if cached is not None:
        return cached
    marked = bytearray(ctx.order**degree)
    for d in range(1, degree):
        if d > degree - d:
            break
        for g in irreducibles(ctx, d):
            for h in monic_polys(ctx, degree - d):
                marked[_monic_index(ctx, g.mul(h), degree)] = 1
    out = [
        f
        for f in monic_polys(ctx, degree)
        if not marked[_monic_index(ctx, f, degree)]
    ]
    ctx._irreducibles[degree] = out
    return out


def is_irreducible(f: FqPoly) -> bool:
    """f is irreducible iff its only distinct-degree layer is (deg f, 1, f)."""
    if f.degree < 1:
        return False
    layers = degree_layers(f.ctx, f.monic().coeffs)
    return len(layers) == 1 and layers[0][:2] == (f.degree, 1)


def _first_irreducible(p: int, e: int) -> Tuple[int, ...]:
    """The first monic irreducible of degree e >= 2 over GF(p) in
    ``monic_polys`` order.  That order runs through the constant term
    slowest, and z divides every candidate whose constant term is 0, so
    those p^(e-1) are skipped: the answer is the same."""
    ctx = FqContext(p, 1)
    for lower in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        f = FqPoly(ctx, lower + (1,))
        if is_irreducible(f):
            return f.coeffs
    raise RuntimeError("no irreducible found")  # unreachable


class FactorMultiset:
    """Irreducible factorization as a list of (factor, multiplicity)."""

    def __init__(self, pairs: List[Tuple[FqPoly, int]]):
        self.pairs = sorted(pairs, key=lambda fk: (fk[0].degree, fk[0].coeffs))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def product(self, ctx: FqContext) -> FqPoly:
        out = FqPoly.make(ctx, [ctx.one])
        for f, k in self.pairs:
            for _ in range(k):
                out = out.mul(f)
        return out

    def degree_partition(self) -> tuple:
        parts = []
        for f, k in self.pairs:
            parts.extend([f.degree] * k)
        return tuple(sorted(parts, reverse=True))

    def __str__(self):
        return " * ".join(f"({f})^{k}" if k > 1 else f"({f})" for f, k in self.pairs)


def factor(f: FqPoly) -> FactorMultiset:
    """Complete factorization of a monic polynomial of degree >= 1."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("factor() expects a monic polynomial of degree >= 1")
    ctx = f.ctx
    pairs = []
    rem = f.coeffs
    for d in range(1, f.degree // 2 + 1):
        if len(rem) - 1 < 2 * d:
            break
        for g in irreducibles(ctx, d):
            if len(rem) - 1 < d:
                break
            k = 0
            while True:
                quot, r = poly_divmod(ctx, rem, g.coeffs)
                if r:
                    break
                rem = quot
                k += 1
            if k:
                pairs.append((g, k))
    if len(rem) > 1:
        # anything left has no factor of degree <= deg(f)/2, hence irreducible
        pairs.append((FqPoly(ctx, tuple(rem)), 1))
    fm = FactorMultiset(pairs)
    if fm.product(ctx) != f:
        raise RuntimeError("factorization failed to recombine")
    return fm


def necklace_irreducible_count(q: int, m: int) -> int:
    """(1/m) sum over d | m of mu(d) q^(m/d): the count of monic irreducibles."""
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            total += _moebius_int(d) * q ** (m // d)
    return total // m


def _moebius_int(n: int) -> int:
    out = 1
    for r in _prime_factors(n):
        k = 0
        while n % r == 0:
            n //= r
            k += 1
        if k > 1:
            return 0
        out = -out
    return out
