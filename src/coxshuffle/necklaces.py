"""Necklace combinatorics: plain, twisted, and blinking necklaces, signed
ornaments, the Gessel-Reutenauer bijection, and the two encodings that turn
irreducible polynomials into primitive necklaces.

Twisted necklaces of size m are fixed-point-free orbits of integer words
under the order-2m shift-and-negate action g(a_1..a_m) = (a_2..a_m, -a_1);
blinking necklaces are orbits under rotation and global negation whose
rotation action alone is free.  A signed ornament is a set of primitive
twisted necklaces plus a multiset of primitive blinking necklaces; its type
is the pair of partitions (blinking sizes, twisted sizes).

The polynomial encodings: a root of an irreducible factor is written in a
normal basis (conjugation becomes rotation of coordinates), or its discrete
log is expanded in base p (Golomb's encoding).  Either way an irreducible
of degree i becomes a primitive plain i-necklace.  The root is the first
one in the extension field's element order, read from the field's one
table of minimal polynomials (``FqContext.first_roots``), not searched for.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .gfpoly import FqContext, FqPoly, base_p_digits, factor, is_prime, monic_polys


# -- canonical forms ------------------------------------------------------------


def _rotations(word: tuple) -> Iterator[tuple]:
    for k in range(len(word)):
        yield word[k:] + word[:k]


def _twisted_orbit(word: tuple) -> List[tuple]:
    out = []
    cur = word
    for _ in range(2 * len(word)):
        out.append(cur)
        cur = cur[1:] + (-cur[0],)
    return out


def canonicalize_necklace(kind: str, word: Sequence[int]) -> Tuple[tuple, bool]:
    """Canonical (lexicographically minimal) orbit representative and the
    primitivity flag for the given necklace kind."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    m = len(word)
    if kind == "plain":
        orbit = list(_rotations(word))
        return min(orbit), len(set(orbit)) == m
    if kind == "twisted":
        orbit = _twisted_orbit(word)
        return min(orbit), len(set(orbit)) == 2 * m
    if kind == "blinking":
        rots = list(_rotations(word))
        orbit = rots + [tuple(-a for a in w) for w in rots]
        return min(orbit), len(set(rots)) == m
    raise ValueError(f"unknown necklace kind {kind!r}")


# primitive_necklaces' lists, by value: (kind, size, bound) -> tuple of words
_PRIMITIVE_NECKLACES: Dict[Tuple[str, int, int], Tuple[tuple, ...]] = {}


def primitive_necklaces(kind: str, size: int, bound: int) -> Tuple[tuple, ...]:
    """All primitive necklaces of the kind and size with entries in
    [-bound, bound], as canonical words in lexicographic order.

    Each list is built once per (kind, size, bound) and kept as a tuple, so
    no caller can change what the next one reads."""
    key = (kind, size, bound)
    out = _PRIMITIVE_NECKLACES.get(key)
    if out is None:
        out = _PRIMITIVE_NECKLACES[key] = _scan_primitive_necklaces(kind, size, bound)
    return out


def _scan_primitive_necklaces(kind: str, size: int, bound: int) -> Tuple[tuple, ...]:
    """``primitive_necklaces`` by a scan of the words.

    A canonical word is the least of its orbit, so its first entry is the
    least entry the orbit holds: min(word) for plain necklaces, and
    -max|a_i| for twisted and blinking ones, whose orbits hold each entry
    with both signs.  Only words with that first entry are tried."""
    if kind == "plain":
        firsts = [(c, range(c, bound + 1)) for c in range(-bound, bound + 1)]
    else:  # an unknown kind is rejected by canonicalize_necklace
        firsts = [(-m, range(-m, m + 1)) for m in range(bound, -1, -1)]
    out = []
    for c, rest in firsts:
        for tail in itertools.product(rest, repeat=size - 1):
            word = (c,) + tail
            canon, primitive = canonicalize_necklace(kind, word)
            if primitive and canon == word:
                out.append(word)
    return tuple(out)


# -- signed ornaments -------------------------------------------------------------


class SignedOrnament(NamedTuple):
    """A set of primitive twisted necklaces and a multiset of blinking ones."""

    twisted: frozenset
    blinking: tuple  # sorted, with multiplicity

    @property
    def size(self) -> int:
        return sum(len(w) for w in self.twisted) + sum(len(w) for w in self.blinking)

    def type_pair(self) -> Tuple[tuple, tuple]:
        """(blinking-size partition, twisted-size partition)."""
        lam = tuple(sorted((len(w) for w in self.blinking), reverse=True))
        mu = tuple(sorted((len(w) for w in self.twisted), reverse=True))
        return lam, mu


def make_ornament(twisted: Sequence[tuple], blinking: Sequence[tuple]) -> SignedOrnament:
    tw = frozenset(twisted)
    if len(tw) != len(list(twisted)):
        raise ValueError("twisted necklaces of an ornament must be distinct")
    return SignedOrnament(tw, tuple(sorted(blinking)))


def enumerate_signed_ornaments(n: int, q: int) -> Iterator[SignedOrnament]:
    """All signed ornaments of size n with entries bounded by (q-1)/2."""
    if q % 2 == 0 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    bound = (q - 1) // 2
    tw = {m: primitive_necklaces("twisted", m, bound) for m in range(1, n + 1)}
    bl = {m: primitive_necklaces("blinking", m, bound) for m in range(1, n + 1)}

    def blinking_multisets(remaining: int, size: int):
        """Multisets of primitive blinking necklaces of total size `remaining`,
        using sizes >= size."""
        if remaining == 0:
            yield ()
            return
        if size > remaining:
            return
        for count in range(remaining // size, -1, -1):
            for combo in itertools.combinations_with_replacement(bl[size], count):
                for rest in blinking_multisets(remaining - count * size, size + 1):
                    yield combo + rest

    def twisted_sets(remaining: int, size: int):
        """Sets of distinct primitive twisted necklaces of total size <= remaining."""
        if size > remaining:
            yield ()
            return
        for count in range(remaining // size, -1, -1):
            for combo in itertools.combinations(tw[size], count):
                for rest in twisted_sets(remaining - count * size, size + 1):
                    yield combo + rest

    for twisted in twisted_sets(n, 1):
        t_size = sum(len(w) for w in twisted)
        for blinking in blinking_multisets(n - t_size, 1):
            yield make_ornament(twisted, blinking)


def count_signed_ornaments(n: int, q: int) -> int:
    return sum(1 for _ in enumerate_signed_ornaments(n, q))


# -- Reiner-style s-vector counts ---------------------------------------------------


def s_vector_count(group, w_index: int, q: int) -> int:
    """Number of weakly decreasing s in {0..(q-1)/2}^n strictly decreasing at
    the descents of w (sentinel s_(n+1) = 0): the binomial
    C((q-1)/2 + n - d(w), n)."""
    if q % 2 == 0 or q < 1:
        raise ValueError("q must be odd and positive")
    n = group.rank
    return comb((q - 1) // 2 + n - group.descent_mask[w_index].bit_count(), n)


# -- the Gessel-Reutenauer bijection ---------------------------------------------


def gessel_reutenauer(necklaces: Sequence[Sequence[int]]) -> Tuple[tuple, List[List[int]]]:
    """Permutation whose cycles are the given necklaces, entries replaced by
    the lexicographic ranks of their clockwise infinite readings.

    Ties between equal necklaces are broken by list position (a fixed
    arbitrary order), which does not change the resulting permutation.
    Returns (one-line form, cycles in input order).
    """
    necklaces = [tuple(w) for w in necklaces]
    if not necklaces or any(not w for w in necklaces):
        raise ValueError("need nonempty necklaces")
    n = sum(len(w) for w in necklaces)
    horizon = 2 * n + 1
    positions = []
    for ni, w in enumerate(necklaces):
        m = len(w)
        for off in range(m):
            reading = tuple((w * ((horizon // m) + 2))[off : off + horizon])
            positions.append((reading, ni, off))
    positions.sort()
    rank: Dict[Tuple[int, int], int] = {}
    for r, (_, ni, off) in enumerate(positions, start=1):
        rank[(ni, off)] = r
    cycles = []
    one_line = [0] * n
    for ni, w in enumerate(necklaces):
        cyc = [rank[(ni, off)] for off in range(len(w))]
        cycles.append(cyc)
        for j, a in enumerate(cyc):
            one_line[a - 1] = cyc[(j + 1) % len(cyc)]
    return tuple(one_line), cycles


def cycles_string(cycles: Sequence[Sequence[int]]) -> str:
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


# -- polynomial-to-necklace encodings --------------------------------------------


_NORMAL_BASIS: Dict[Tuple[int, int], object] = {}
_NORMAL_INVERSE: Dict[Tuple[int, int], List[List[int]]] = {}  # same (q, m) keys


def _frobenius_columns(ext: FqContext, q: int, m: int, alpha) -> List[List[int]]:
    """The m x m matrix whose column j is alpha^(q^j) in the polynomial basis."""
    cols = []
    cur = alpha
    for _ in range(m):
        cols.append(base_p_digits(cur, q, m))
        cur = ext.pow(cur, q)
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def _inverse_mod_p(matrix: List[List[int]], p: int) -> Optional[List[List[int]]]:
    """Inverse of a square matrix over GF(p) by Gauss-Jordan, or None if singular."""
    m = len(matrix)
    aug = [row + [int(i == k) for k in range(m)] for i, row in enumerate(matrix)]
    for col in range(m):
        piv = next((i for i in range(col, m) if aug[i][col] % p), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for i in range(m):
            if i != col and aug[i][col] % p:
                f = aug[i][col]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[col])]
    return [row[m:] for row in aug]


def _check_normal_basis_size(q: int, m: int) -> None:
    if q**m > 10**5:
        raise ValueError("field too large for exhaustive normal-basis search")


def normal_basis(q: int, m: int):
    """First field element whose Frobenius orbit is a basis of GF(q^m) over GF(q)."""
    if not is_prime(q):
        raise ValueError("prime base fields only")
    _check_normal_basis_size(q, m)
    key = (q, m)
    cached = _NORMAL_BASIS.get(key)
    if cached is not None:
        return cached
    ext = FqContext.get(q, m)
    for alpha in range(1, ext.order):
        if _inverse_mod_p(_frobenius_columns(ext, q, m, alpha), q) is not None:
            _NORMAL_BASIS[key] = alpha
            return alpha
    raise RuntimeError("no normal basis found")  # unreachable: existence is classical


def _normal_coordinates(ext: FqContext, q: int, m: int, beta) -> List[int]:
    """Coordinates of beta in the normal basis alpha^(q^j), j = 0..m-1: one
    product with the inverse of the basis matrix, built once per (q, m)."""
    inverse = _NORMAL_INVERSE.get((q, m))
    if inverse is None:
        inverse = _inverse_mod_p(_frobenius_columns(ext, q, m, normal_basis(q, m)), q)
        if inverse is None:
            raise RuntimeError("normal basis is singular")
        _NORMAL_INVERSE[(q, m)] = inverse
    nvec = base_p_digits(beta, q, m)
    return [sum(a * b for a, b in zip(row, nvec)) % q for row in inverse]


def _first_root_in_extension(phi: FqPoly, ext: FqContext):
    """The first root of the irreducible phi in ``ext.elements()`` order,
    read from the extension's table of minimal polynomials."""
    root = ext.first_roots().get(phi.monic().coeffs)
    if root is None:
        raise RuntimeError(f"{phi} has no root in GF({ext.order})")
    return root


def _root_of_irreducible(phi: FqPoly) -> Tuple[FqContext, object]:
    """(GF(p^i), the first root of phi there) for phi of degree i over GF(p).

    The extension's table is keyed by the minimal polynomials of its
    elements, and a monic polynomial of degree i is one of them exactly
    when it is irreducible, so a lookup that misses rejects phi."""
    i = phi.degree
    ext = FqContext.get(phi.ctx.p, i) if i >= 1 else None
    if ext is None or phi.monic().coeffs not in ext.first_roots():
        raise ValueError("polynomial is not irreducible")
    return ext, _first_root_in_extension(phi, ext)


def normal_basis_encode(phi: FqPoly) -> tuple:
    """Primitive plain necklace of an irreducible: normal-basis coordinates
    of any root (root choice only rotates the word)."""
    p = phi.ctx.p
    if phi.ctx.e != 1:
        raise ValueError("prime base fields only")
    _check_normal_basis_size(p, phi.degree)  # before the root table is built
    ext, beta = _root_of_irreducible(phi)
    coords = _normal_coordinates(ext, p, phi.degree, beta)
    canon, primitive = canonicalize_necklace("plain", tuple(coords))
    if not primitive:
        raise RuntimeError("encoding produced an imprimitive necklace")
    return canon


def golomb_encode(phi: FqPoly, beta=None) -> tuple:
    """Primitive plain necklace of an irreducible (not z): base-p digits of
    the discrete log of any root with respect to a generator beta (by
    default the field's ``generator()``; ``dlog`` rejects any other beta)."""
    p = phi.ctx.p
    if phi.ctx.e != 1:
        raise ValueError("prime base fields only")
    if phi.coeffs == (0, 1):
        raise ValueError("z has no discrete log; it is not encodable")
    ext, root = _root_of_irreducible(phi)
    digits = base_p_digits(ext.dlog(root, beta), p, phi.degree)
    canon, primitive = canonicalize_necklace("plain", tuple(digits))
    if not primitive:
        raise RuntimeError("encoding produced an imprimitive necklace")
    return canon


# -- the refinement pipeline for type A --------------------------------------------


def refine_phi_A(f: FqPoly, mode: str = "normal_basis") -> Tuple[tuple, List[List[int]]]:
    """Permutation refinement of the class map: factor, encode each factor as
    a primitive necklace, then apply the Gessel-Reutenauer bijection.

    In golomb mode the factor z (no discrete log) is encoded by the one
    degree-1 necklace missing from the Golomb image, (p-1,), which keeps the
    polynomial-to-necklace-multiset map bijective over all monic polynomials.
    Returns (one-line permutation, cycles)."""
    p = f.ctx.p
    if f.ctx.e != 1:
        raise ValueError("prime base fields only")
    if not f.is_monic or f.degree < 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    z = FqPoly.from_ints(f.ctx, [0, 1])
    fac = factor(f)
    necklaces: List[tuple] = []
    for phi, k in fac:
        if mode == "normal_basis":
            neck = normal_basis_encode(phi)
        elif mode == "golomb":
            neck = (p - 1,) if phi == z else golomb_encode(phi)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        necklaces.extend([neck] * k)
    necklaces.sort()
    one_line, cycles = gessel_reutenauer(necklaces)
    expected = fac.degree_partition()
    got = tuple(sorted((len(c) for c in cycles), reverse=True))
    if got != expected:
        raise RuntimeError("cycle type disagrees with the factorization type")
    return one_line, cycles


def refine_census(p: int, n: int, mode: str) -> Dict[tuple, int]:
    """How many monics of degree n over F_p ``refine_phi_A`` sends to each
    permutation."""
    counts: Dict[tuple, int] = {}
    for f in monic_polys(FqContext.get(p), n):
        w, _ = refine_phi_A(f, mode)
        counts[w] = counts.get(w, 0) + 1
    return counts


def descent_count(one_line: Sequence[int]) -> int:
    return sum(1 for i in range(len(one_line) - 1) if one_line[i] > one_line[i + 1])
