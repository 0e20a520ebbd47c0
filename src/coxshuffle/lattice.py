"""Intersection lattice of a reflection arrangement.

A flat is the intersection of some of the reflecting hyperplanes; it is
identified by the bitmask of positive roots whose hyperplanes contain it
(equivalently, the roots lying in the span of its defining normals).
Containment of flats is then a subset test on masks.

Every flat of a Coxeter arrangement is W-conjugate to the fixed space of a
standard parabolic subgroup W_K (Orlik-Solomon, "Coxeter arrangements",
1983; Barcelo-Ihrig, J. Algebraic Combin. 9, 1999), and the roots vanishing
there form the subsystem Phi_K = W_K . Delta_K.  So the flats are the
W-orbits of the 2^r standard masks, enumerated breadth first under the
permutations the simple reflections induce on the positive-root lines
(read off ``RootSystem.simple_action``).  A flat is queued as the list of
its lines, a new image's being its preimage's permuted, and its image
under s_g is the sum of one precomputed bit, 1 << s_g(line), per line.
The build records the standard mask of every subset K, the W-orbit of
every flat, and each orbit's size and the subsets whose standard flat
lies in it; the group's parabolic data (normalizer order |W| / |orbit|,
the count and representative of the equivalent subsets) is read from
these.  The module does no linear algebra: flats are masks, never
subspaces.

mu(V, Y) and the restricted characteristic polynomial chi(A^Y, x) are
W-invariant, so both are solved once per W-orbit of flats from one
orbit-incidence count: how many flats of each orbit lie strictly below
each orbit's standard flat.  mu(V, .) follows by the defining recursion in
ascending rank.  chi follows in descending rank from the point count
x^dim(X) = sum of chi(A^Y, x) over the flats Y >= X: every point of X lies
in exactly one smallest flat Y, so X is the disjoint union of the
complements of the restricted arrangements A^Y over the flats Y in X.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .rootdata import RootSystem


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


class IntersectionLattice:
    """Poset of arrangement flats under reverse inclusion, V at the bottom."""

    def __init__(self, rs: RootSystem):
        self.root_system = rs
        self._values: Optional[Tuple[List[int], List[CharPoly]]] = None
        self._build()

    def _build(self):
        rs = self.root_system
        perms, simple = root_line_action(rs)
        # per generator, its line permutation and the bit of each line's
        # image: a flat's image is the sum of its lines' bits
        steps = [(p, [1 << k for k in p]) for p in perms]
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
            # breadth-first W-orbit of the standard flat, by lists of lines
            orbit = len(orbit_sizes)
            orbit_of[seed] = orbit
            queue = [[j for j in range(rs.n_positive) if seed >> j & 1]]
            for lines in queue:
                for perm, bits in steps:
                    img = sum(map(bits.__getitem__, lines))
                    if img not in orbit_of:
                        orbit_of[img] = orbit
                        queue.append(list(map(perm.__getitem__, lines)))
            orbit_ranks.append(len(K))
            orbit_sizes.append(len(queue))
            orbit_subsets.append([m])

        # per flat id, sorted by (rank, mask): the mask of positive roots
        # whose hyperplane contains the flat, its W-orbit and its rank
        # (codimension)
        self.masks: List[int] = sorted(orbit_of,
                                       key=lambda mask: (orbit_ranks[orbit_of[mask]], mask))
        self.orbit_ids: List[int] = [orbit_of[mask] for mask in self.masks]
        self.ranks: List[int] = [orbit_ranks[t] for t in self.orbit_ids]
        self.mask_to_id: Dict[int, int] = {mask: i for i, mask in enumerate(self.masks)}
        self.standard_masks: Tuple[int, ...] = tuple(std_masks)
        self.orbit_sizes: Tuple[int, ...] = tuple(orbit_sizes)
        self.orbit_subsets: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, orbit_subsets))

    # -- poset structure ---------------------------------------------------

    def __len__(self):
        return len(self.masks)

    def flat_dim(self, fid: int) -> int:
        return self.root_system.rank - self.ranks[fid]

    def bottom_id(self) -> int:
        return self.mask_to_id[0]

    # -- Moebius values and characteristic polynomials, per W-orbit ---------

    def moebius_from(self) -> Dict[int, int]:
        """mu(V, Y) for every flat Y, read off by Y's orbit."""
        mu = self._orbit_values()[0]
        return {i: mu[t] for i, t in enumerate(self.orbit_ids)}

    def char_poly(self, fid: int) -> CharPoly:
        """chi(A^X, x) of the restricted arrangement on flat X = fid, whose
        poset is the flats above X (V gives chi(L, x)).  Solved per W-orbit
        from the orbit-incidence count and the point count
        x^dim(X) = sum of chi(A^Y, x) over Y >= X; every flat of an orbit
        returns its orbit's one CharPoly."""
        if not 0 <= fid < len(self):
            raise ValueError("not a flat id")
        return self._orbit_values()[1][self.orbit_ids[fid]]

    def _orbit_values(self) -> Tuple[List[int], List[CharPoly]]:
        """(mu(V, .), chi) per orbit, from one count: below[u][t] is the number
        of flats of orbit t strictly below the standard flat X_u of orbit u."""
        if self._values is not None:
            return self._values
        reps = [self.mask_to_id[self.standard_masks[subsets[0]]] for subsets in self.orbit_subsets]
        n = len(reps)
        below = []
        for r in reps:
            rep = self.masks[r]
            row = [0] * n
            lower = bisect_left(self.ranks, self.ranks[r])
            for mz, t in zip(self.masks[:lower], self.orbit_ids):
                if mz & rep == mz:
                    row[t] += 1
            below.append(row)
        order = sorted(range(n), key=reps.__getitem__)  # flat ids ascend by rank
        # mu(V, X_u) = -sum of mu(V, Z) over the flats Z < X_u
        mu = [0] * n
        for u in order:
            mu[u] = -sum(c * mu[t] for t, c in enumerate(below[u])) if self.masks[reps[u]] else 1
        # point count: x^dim(X_u) = sum of chi(A^Y, x) over the flats Y >= X_u.
        # Orbit t has d(u, t) = below[t][u] |O_t| / |O_u| flats above X_u,
        # counting the pairs X < Y in orbits (u, t) both ways.
        chi: List[Optional[CharPoly]] = [None] * n
        for u in reversed(order):
            dim = self.flat_dim(reps[u])
            coeffs = [0] * dim + [1]
            for t in order:
                if below[t][u]:
                    d = below[t][u] * self.orbit_sizes[t] // self.orbit_sizes[u]
                    for k, c in enumerate(chi[t].coefficients):
                        coeffs[k] -= d * c
            chi[u] = CharPoly(tuple(coeffs))
        self._values = (mu, chi)
        return self._values


def build_lattice(rs: RootSystem) -> IntersectionLattice:
    """Flats of the reflection arrangement, as W-orbits of standard parabolic masks."""
    return IntersectionLattice(rs)
