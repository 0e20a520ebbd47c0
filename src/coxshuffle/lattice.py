"""Intersection lattice of a reflection arrangement.

A flat is the intersection of some of the reflecting hyperplanes; it is
identified by the bitmask of positive roots whose hyperplanes contain it
(equivalently, the roots lying in the span of its defining normals).
Containment of flats is then a subset test on masks, which keeps the
Moebius recursion cheap even for the 60-hyperplane H4 arrangement.

Every flat of a Coxeter arrangement is W-conjugate to the fixed space of a
standard parabolic subgroup W_K (Orlik-Solomon, "Coxeter arrangements",
1983; Barcelo-Ihrig, J. Algebraic Combin. 9, 1999), and the roots vanishing
there form the subsystem Phi_K = W_K . Delta_K.  So the flats are the
W-orbits of the 2^r standard masks, enumerated breadth first under the
permutations the simple reflections induce on the positive-root lines
(read off ``RootSystem.simple_action``).  The build records the standard
mask of every subset K, the W-orbit of every flat, and each orbit's size
and the subsets whose standard flat lies in it; the group's parabolic data
(normalizer order |W| / |orbit|, the count and representative of the
equivalent subsets) is read from these.  The module does no linear
algebra: flats are masks, never subspaces.

mu(V, Y) is W-invariant, so the Moebius recursion from the bottom flat V
runs once per W-orbit of flats, at each orbit's standard flat, and is then
read off by orbit id; from any other bottom it runs once per flat above it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .rootdata import RootSystem


class Flat(NamedTuple):
    mask: int  # positive roots whose hyperplane contains the flat
    rank: int  # codimension of the flat


class CharPoly(NamedTuple):
    """Integer-coefficient characteristic polynomial, low to high degree."""

    coefficients: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        out = 0
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def __str__(self):
        return " + ".join(f"{c}*x^{i}" for i, c in enumerate(self.coefficients) if c)


def root_line_action(rs: RootSystem) -> Tuple[tuple, tuple]:
    """(perms, simple): perms[g][j] is the positive-root index of the line
    of s_g(root j), and simple[i] the index of the i-th simple root."""
    n = rs.n_positive
    perms = tuple(tuple(s % n for s in row) for row in rs.simple_action)
    if any(sorted(p) != list(range(n)) for p in perms):
        raise ValueError("simple reflections do not permute the positive roots")
    simple = tuple(rs.root_index[a] for a in rs.simple_roots)
    return perms, simple


def parabolic_mask(
    perms: Sequence[Sequence[int]], simple: Sequence[int], K: Collection[int]
) -> int:
    """Bitmask of the positive roots of W_K: the closure of K's simple roots
    under K's reflections."""
    lines = {simple[i] for i in K}
    stack = list(lines)
    while stack:
        j = stack.pop()
        for g in K:
            k = perms[g][j]
            if k not in lines:
                lines.add(k)
                stack.append(k)
    return sum(1 << j for j in lines)


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """Image of a root-line bitmask under a permutation of the lines."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


class IntersectionLattice:
    """Poset of arrangement flats under reverse inclusion, V at the bottom."""

    def __init__(self, rs: RootSystem):
        self.root_system = rs
        self._moebius: Dict[int, Dict[int, int]] = {}
        self._char_polys: Dict[int, CharPoly] = {}
        self._build()

    def _build(self):
        rs = self.root_system
        perms, simple = root_line_action(rs)
        std_masks: List[int] = []  # per subset bitmask m, the standard mask of K
        orbit_of: Dict[int, int] = {}  # flat mask -> orbit id
        orbit_ranks: List[int] = []
        orbit_sizes: List[int] = []
        orbit_subsets: List[List[int]] = []
        for m in range(1 << rs.rank):
            K = tuple(i for i in range(rs.rank) if m >> i & 1)
            seed = parabolic_mask(perms, simple, K)
            std_masks.append(seed)
            orbit = orbit_of.get(seed)
            if orbit is not None:  # K is conjugate to an earlier subset
                orbit_subsets[orbit].append(m)
                continue
            # breadth-first W-orbit of the standard flat
            orbit = len(orbit_sizes)
            orbit_of[seed] = orbit
            queue = [seed]
            for mask in queue:
                for p in perms:
                    img = permute_mask(mask, p)
                    if img not in orbit_of:
                        orbit_of[img] = orbit
                        queue.append(img)
            orbit_ranks.append(len(K))
            orbit_sizes.append(len(queue))
            orbit_subsets.append([m])

        # deterministic ordering: by rank, then mask
        self.flats: List[Flat] = sorted(
            (Flat(mask, orbit_ranks[orbit]) for mask, orbit in orbit_of.items()),
            key=lambda f: (f.rank, f.mask),
        )
        self.mask_to_id: Dict[int, int] = {f.mask: i for i, f in enumerate(self.flats)}
        self.ranks = [f.rank for f in self.flats]
        self.masks = [f.mask for f in self.flats]
        self.standard_masks: Tuple[int, ...] = tuple(std_masks)
        self.orbit_ids: List[int] = [orbit_of[mask] for mask in self.masks]
        self.orbit_sizes: Tuple[int, ...] = tuple(orbit_sizes)
        self.orbit_subsets: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, orbit_subsets))

    # -- poset structure ---------------------------------------------------

    def __len__(self):
        return len(self.flats)

    def flat_dim(self, fid: int) -> int:
        return self.root_system.rank - self.flats[fid].rank

    def leq(self, a: int, b: int) -> bool:
        """a <= b in the reverse-inclusion order (V is the minimum)."""
        ma, mb = self.masks[a], self.masks[b]
        return ma & mb == ma

    def bottom_id(self) -> int:
        return self.mask_to_id[0]

    def top_id(self) -> int:
        return max(range(len(self.flats)), key=lambda i: self.ranks[i])

    def moebius_from(self, bottom: int) -> Dict[int, int]:
        """mu(bottom, Y) for every flat Y >= bottom: once per W-orbit of flats
        from V, per flat from any other bottom."""
        cached = self._moebius.get(bottom)
        if cached is None:
            if bottom == self.bottom_id():
                cached = self._moebius_by_orbit()
            else:
                cached = self._moebius_by_flat(bottom)
            self._moebius[bottom] = cached
        return cached

    def _moebius_by_flat(self, bottom: int) -> Dict[int, int]:
        # flats are sorted by rank, so every flat below Y precedes it
        bmask = self.masks[bottom]
        out = {}
        masks: List[int] = []
        mus: List[int] = []
        for i, mi in enumerate(self.masks):
            if mi & bmask != bmask:
                continue
            mu = 1 if i == bottom else -sum(m for mz, m in zip(masks, mus) if mz & mi == mz)
            masks.append(mi)
            mus.append(mu)
            out[i] = mu
        return out

    def _moebius_by_orbit(self) -> Dict[int, int]:
        # one standard flat per orbit; flat ids ascend by rank, so taking the
        # orbits by that flat's id sets each orbit's value before it is read
        reps = [self.mask_to_id[self.standard_masks[subsets[0]]] for subsets in self.orbit_subsets]
        orbit_mu = [0] * len(reps)
        for u in sorted(range(len(reps)), key=reps.__getitem__):
            rep = self.masks[reps[u]]
            below = bisect_left(self.ranks, self.ranks[reps[u]])
            orbit_mu[u] = 1 if rep == 0 else -sum(
                orbit_mu[t]
                for mz, t in zip(self.masks[:below], self.orbit_ids[:below])
                if mz & rep == mz
            )
        return {i: orbit_mu[t] for i, t in enumerate(self.orbit_ids)}

    def moebius(self, a: int, b: int) -> int:
        if not self.leq(a, b):
            return 0
        return self.moebius_from(a).get(b, 0)

    # -- characteristic polynomials -----------------------------------------

    def char_poly(self, fid: int) -> CharPoly:
        """chi of the restricted poset of flats above flat fid (the bottom
        flat V gives chi(L, x)), summed from the Moebius function once per flat."""
        if not 0 <= fid < len(self.flats):
            raise ValueError("not a flat id")
        cached = self._char_polys.get(fid)
        if cached is None:
            coeffs = [0] * (self.flat_dim(fid) + 1)
            for y, m in self.moebius_from(fid).items():
                coeffs[self.flat_dim(y)] += m
            cached = CharPoly(tuple(coeffs))
            self._char_polys[fid] = cached
        return cached


def build_lattice(rs: RootSystem) -> IntersectionLattice:
    """Flats of the reflection arrangement, as W-orbits of standard parabolic masks."""
    return IntersectionLattice(rs)


def integer_roots(coeffs: Sequence[int], bound: int) -> Optional[List[int]]:
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


def coexponents(group, K) -> List[int]:
    """Integer roots of the restricted characteristic polynomial above Fix(W_K)."""
    lat = group.lattice()
    mask = group.standard_parabolic_mask(K)
    fid = lat.mask_to_id[mask]
    cp = lat.char_poly(fid)
    max_exp = max(group.exponents())
    roots = integer_roots(cp.coefficients, max_exp)
    if roots is None:
        raise RuntimeError(
            f"restricted characteristic polynomial {cp} does not split over the integers"
        )
    return roots
