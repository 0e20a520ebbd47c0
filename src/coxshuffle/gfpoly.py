"""Finite fields GF(p^e) and exact polynomial arithmetic over them.

Prime fields represent elements as ints 0..p-1; extensions as coefficient
tuples over the prime field modulo a monic irreducible (the first one in
lexicographic order, so contexts are canonical).  An extension multiplies
by one lookup in exp/log tables of its smallest generator, built from the
schoolbook product on first use.

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

``degree_layers`` splits a monic polynomial into distinct-degree layers
(Cantor–Zassenhaus): enough for the degree partition and, in ``orbits``,
for the class map, without finding a single factor.  ``factor`` still
gives the factors themselves, by trial division against a sieved table of
all monic irreducibles of degree up to deg(f)/2 — after those are
removed, any nontrivial remainder is itself irreducible — because the
necklace encodings and the orbit tables need them, and the benchmark's
layer timings read the sieve (``irreducibles``) and ``factor`` directly.

Roots are not searched for: each extension context builds, once, a table
from every minimal polynomial over GF(p) to its first root in element
order (``FqContext.first_roots``), from one pass over its Frobenius orbits.
"""

from __future__ import annotations

import itertools
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
    """GF(p) for prime p, or GF(p^e) modulo a monic irreducible of degree e."""

    _cache: Dict[Tuple[int, int], "FqContext"] = {}

    def __init__(self, p: int, e: int = 1, modulus: Optional[Tuple[int, ...]] = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.order = p**e
        self.zero = 0 if e == 1 else (0,) * e
        self.one = 1 if e == 1 else (1,) + (0,) * (e - 1)
        if e == 1:
            self.modulus = None
        else:
            if modulus is None:
                modulus = _first_irreducible(p, e)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            base = FqContext.get(p, 1)
            if not is_irreducible(FqPoly.make(base, modulus)):
                raise ValueError("modulus must be irreducible")
            self.modulus = modulus
        self._dlog: Dict[object, int] = {}
        self._dlog_base = None
        self._generator = None
        self._first_roots: Optional[Dict[Tuple[int, ...], object]] = None
        self._exp_log: Optional[Tuple[list, dict]] = None

    @classmethod
    def get(cls, p: int, e: int = 1) -> "FqContext":
        ctx = cls._cache.get((p, e))
        if ctx is None:
            ctx = cls(p, e)
            cls._cache[(p, e)] = ctx
        return ctx

    # -- element arithmetic ------------------------------------------------

    def from_int(self, k: int):
        """Base-p digits of k as an element (prime subfield for k < p)."""
        if self.e == 1:
            return k % self.p
        digits = []
        k %= self.order
        for _ in range(self.e):
            digits.append(k % self.p)
            k //= self.p
        return tuple(digits)

    def to_int(self, a) -> int:
        if self.e == 1:
            return a
        out = 0
        for d in reversed(a):
            out = out * self.p + d
        return out

    def elements(self) -> Iterator:
        """All elements, in the deterministic base-p order."""
        for k in range(self.order):
            yield self.from_int(k)

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        zero = self.zero
        if a == zero or b == zero:
            return zero
        exp, log = self._exp_log or self._build_exp_log()
        return exp[log[a] + log[b]]

    def schoolbook_mul(self, a, b):
        """The product in an extension, as a polynomial product reduced mod
        the modulus: it builds the exp/log tables that ``mul`` reads."""
        p, e, mod = self.p, self.e, self.modulus
        coeffs = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    coeffs[i + j] += x * y
        for i in range(len(coeffs) - 1, e - 1, -1):
            c = coeffs[i] % p
            if c:
                for j in range(e):
                    coeffs[i - e + j] -= c * mod[j]
        return tuple(c % p for c in coeffs[:e])

    def _build_exp_log(self):
        """exp[k] = g^k for the smallest generator g, twice over so that
        exp[log a + log b] needs no reduction, and log its inverse on the
        nonzero elements; built on first use of an extension's ``mul``."""
        one, q1 = self.one, self.order - 1
        for g in itertools.islice(self.elements(), 1, None):
            exp, cur = [one], g
            while cur != one:
                exp.append(cur)
                cur = self.schoolbook_mul(cur, g)
            if len(exp) == q1:
                break
        log = {x: k for k, x in enumerate(exp)}
        self._exp_log = (exp + exp, log)
        return self._exp_log

    def pow(self, a, k: int):
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("finite-field division by zero")
        if self.e == 1:
            return pow(a, -1, self.p)
        exp, log = self._exp_log or self._build_exp_log()
        return exp[self.order - 1 - log[a]]

    def is_zero(self, a) -> bool:
        return a == self.zero

    # -- vector operations (the inner loops of the polynomial kernels) -------

    def dot(self, xs, ys):
        """The sum of x*y over the pairs of xs and ys."""
        if self.e == 1:
            return sum(map(_int_mul, xs, ys)) % self.p
        add, mul = self.add, self.mul
        out = self.zero
        for x, y in zip(xs, ys):
            out = add(out, mul(x, y))
        return out

    def axpy(self, xs, c, ys) -> list:
        """The vector xs + c*ys (ys at least as long as xs)."""
        if self.e == 1:
            p = self.p
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        add, mul = self.add, self.mul
        return [add(x, mul(c, y)) for x, y in zip(xs, ys)]

    # -- multiplicative structure --------------------------------------------

    def generator(self):
        """Smallest generator of the multiplicative group (deterministic)."""
        if self._generator is None:
            self._generator = next(filter(self.is_generator, self.elements()))
        return self._generator

    def is_generator(self, a) -> bool:
        if self.is_zero(a):
            return False
        q1 = self.order - 1
        return all(self.pow(a, q1 // r) != self.one for r in _prime_factors(q1))

    def dlog(self, a, base=None) -> int:
        """Discrete log by table lookup (fields here have at most 10^5 elements)."""
        if base is None:
            base = self.generator()
        if self._dlog_base != base:
            table = {}
            cur = self.one
            for k in range(self.order - 1):
                table[cur] = k
                cur = self.mul(cur, base)
            self._dlog = table
            self._dlog_base = base
        if a not in self._dlog:
            raise ValueError("element is zero or base is not a generator")
        return self._dlog[a]

    def first_roots(self) -> Dict[Tuple[int, ...], object]:
        """Minimal polynomial over GF(p) -> its first root in ``elements()`` order.

        Built on first call in one pass over ``elements()``: the first element
        not yet seen opens a new Frobenius orbit a, a^p, a^(p^2), ..., whose
        product of (z - a^(p^k)) is the minimal polynomial of a, keyed by its
        coefficients as ints, low to high.  The table belongs to this context,
        so a field built with another modulus gets its own roots."""
        if self._first_roots is None:
            p, one = self.p, self.one
            table, seen = {}, set()
            for a in self.elements():
                if a in seen:
                    continue
                poly = [one]
                cur = a
                while True:
                    seen.add(cur)
                    poly = poly_mul(self, poly, [self.neg(cur), one])
                    cur = self.pow(cur, p)
                    if cur == a:
                        break
                if self.e > 1:
                    if any(any(c[1:]) for c in poly):
                        raise RuntimeError("a minimal polynomial left the prime field")
                    poly = [c[0] for c in poly]
                table[tuple(poly)] = a
            self._first_roots = table
        return self._first_roots

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


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
    if da * q > 5 * q.bit_length() * dm:
        return poly_powmod(ctx, a, q, m)
    spread = [ctx.zero] * (da * q + 1)
    spread[::q] = a
    return poly_mod(ctx, spread, m)


# -- distinct-degree layers ------------------------------------------------------


def degree_layers(ctx: FqContext, f: list) -> List[Tuple[int, int, list]]:
    """Distinct-degree layers of a monic f of degree >= 1 (Cantor–Zassenhaus).

    The layer (d, j, g) is the product g of the irreducible factors of f of
    degree d and multiplicity at least j, so a factor of multiplicity k lies
    in the layers j = 1..k of its degree.  For d = 1, 2, ...: h = z^(q^d)
    mod rem is the q-th power of the previous h (``poly_frobenius``; the
    previous h was reduced mod a multiple of rem), and g = gcd(rem, h - z)
    holds every degree-d factor once, since all smaller degrees are gone;
    then "rem /= g; g = gcd(rem, g)" peels one copy of each per pass until
    g = 1.  Once deg rem < 2d, rem is irreducible and is the last layer.
    """
    one = ctx.one
    z = [ctx.zero, one]
    minus_one = ctx.neg(one)
    layers = []
    rem, h, d = f, z, 0
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
        return FqPoly.make(ctx, [ctx.from_int(k) for k in ints])

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
        a = [self.ctx.to_int(c) for c in self.coeffs]
        b = [self.ctx.to_int(c) for c in other.coeffs]
        return (len(a), a[::-1]) < (len(b), b[::-1])

    def add(self, other: "FqPoly") -> "FqPoly":
        ctx = self.ctx
        return FqPoly(ctx, tuple(poly_axpy(ctx, self.coeffs, ctx.one, other.coeffs)))

    def mul(self, other: "FqPoly") -> "FqPoly":
        return FqPoly(self.ctx, tuple(poly_mul(self.ctx, self.coeffs, other.coeffs)))

    def monic(self) -> "FqPoly":
        return FqPoly(self.ctx, tuple(poly_monic(self.ctx, self.coeffs)))

    def divmod(self, other: "FqPoly") -> Tuple["FqPoly", "FqPoly"]:
        quot, rem = poly_divmod(self.ctx, self.coeffs, other.coeffs)
        return FqPoly(self.ctx, tuple(quot)), FqPoly(self.ctx, tuple(rem))

    def mod(self, other: "FqPoly") -> "FqPoly":
        return FqPoly(self.ctx, tuple(poly_mod(self.ctx, self.coeffs, other.coeffs)))

    def divides(self, other: "FqPoly") -> bool:
        return other.divmod(self)[1].is_zero

    def eval(self, a):
        ctx = self.ctx
        out = ctx.zero
        for c in reversed(self.coeffs):
            out = ctx.add(ctx.mul(out, a), c)
        return out

    def substitute_negative(self) -> "FqPoly":
        """The polynomial f(-z)."""
        ctx = self.ctx
        return FqPoly.make(
            ctx, [c if i % 2 == 0 else ctx.neg(c) for i, c in enumerate(self.coeffs)]
        )

    def conjugate_monic(self) -> "FqPoly":
        """Monic associate of f(-z)."""
        return self.substitute_negative().monic()

    def is_even_function(self) -> bool:
        return self == self.substitute_negative()

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if self.ctx.is_zero(c):
                continue
            cs = str(self.ctx.to_int(c))
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
        coeffs = [ctx.from_int(k) for k in lower] + [ctx.one]
        yield FqPoly.make(ctx, coeffs)


_IRRED_CACHE: Dict[Tuple[int, int, int], List[FqPoly]] = {}


def _monic_index(ctx: FqContext, f: FqPoly, degree: int) -> int:
    """Rank of a monic degree-d polynomial among all of them (by low coeffs)."""
    idx = 0
    for i in range(degree - 1, -1, -1):
        c = f.coeffs[i] if i < len(f.coeffs) - 1 else ctx.zero
        idx = idx * ctx.order + ctx.to_int(c)
    return idx


def irreducibles(ctx: FqContext, degree: int) -> List[FqPoly]:
    """All monic irreducibles of exactly this degree, by an Eratosthenes-style
    sieve: every product of an irreducible of smaller degree with a monic
    cofactor is marked reducible; the unmarked monics remain."""
    key = (ctx.p, ctx.e, degree)
    cached = _IRRED_CACHE.get(key)
    if cached is not None:
        return cached
    if degree == 1:
        out = list(monic_polys(ctx, 1))
        _IRRED_CACHE[key] = out
        return out
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
    _IRRED_CACHE[key] = out
    return out


def is_irreducible(f: FqPoly) -> bool:
    """f is irreducible iff its only distinct-degree layer is (deg f, 1, f)."""
    if f.degree < 1:
        return False
    layers = degree_layers(f.ctx, f.monic().coeffs)
    return len(layers) == 1 and layers[0][:2] == (f.degree, 1)


def _first_irreducible(p: int, e: int) -> Tuple[int, ...]:
    ctx = FqContext(p, 1)
    for f in monic_polys(ctx, e):
        if is_irreducible(f):
            return tuple(f.coeffs) + (0,) * (e + 1 - len(f.coeffs))
    raise RuntimeError("no irreducible found")  # unreachable


class FactorMultiset:
    """Irreducible factorization as a list of (factor, multiplicity)."""

    def __init__(self, pairs: List[Tuple[FqPoly, int]]):
        self.pairs = sorted(pairs, key=lambda fk: (fk[0].degree, fk[0].coeffs))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def multiplicity(self, f: FqPoly) -> int:
        for g, k in self.pairs:
            if g == f:
                return k
        return 0

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
