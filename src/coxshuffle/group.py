"""Finite Coxeter groups over their root systems, in two parts.

The rank-level part is set up with the group and never lists an element:
the root system, the order |W|, the number N of positive roots and the
index |W| - 1 of the longest element (the last in length order), and what
is derived from them on first use, each built once.  ``poincare`` holds
the length generating function W_K(t) of every standard parabolic W_K, by
Solomon's formula, with N_K counted from the supports of the positive
roots.  From it come the orders |W_K| = W_K(1), the exponents (by factoring
W(t)), and the descent-class sizes of the measure tables
(``measure_counts``, by Moebius inversion of #{w : D(w) in A} =
|W| / |W_{S-A}|).  The intersection lattice of the group's arrangement is
kept here too.  Standard parabolic masks and the orbit part of the
parabolic data are read from the lattice's W-orbits of flats: the
normalizer of W_K is the stabilizer of its flat, of order |W| / |orbit|,
and the subsets equivalent to K are those whose standard flat lies in the
same orbit.  A word's descent set, and a reduced word of the longest
element of any W_K, are composed from ``RootSystem.simple_action`` alone.

The element part (``ELEMENT_TABLES``) is built in two stages, each the
first time any of its tables is read; ``enumerate_group`` builds both at
once.  Elements act faithfully on the signed roots, so an element is fixed
by the images of the r simple roots, and each element is keyed by those
images packed into r bytes (``keys``; ``index`` maps a key to its
element).  The closure (``CLOSURE_TABLES``, ``_build``) fills lists made at
|W| slots by breadth-first search from the simple reflections.  It yields
the elements in length order, the right products by the generators
(``rmult``), and a tree: each element j is found as ``parent[j] *
s_{gen_of[j]}``, with its parent earlier in index order.  The child w s_g
sends simple root i to w(s_g alpha_i): one ``bytes.translate`` of r bytes
by w's whole signed root permutation, a 256-byte table that is made only
when w is new and dropped when w leaves the queue.  As s_g^2 = 1, each
edge w - w s_g of the Cayley graph is set at both ends when it is first
found, so a generator already set at a popped element (a descent) costs
no translate and no lookup: each edge is walked once.  Descent sets come
from testing which simple roots an element sends negative, one translate
of its key.  The second stage (``PRODUCT_TABLES``,
``_build_products``) makes the inverses, one translate and one lookup per
element along the tree (w_j^-1 = s_g w_parent^-1), the left products
s_h w = (w^-1 s_h)^-1, one ``map`` over W per generator, and the one-line
forms of types A and B.  The chamber walk reads only the closure.  A
product w_i w_j follows w_j's word through ``rmult``.  On H4 the closure
retains 2.50 MiB under tracemalloc, about 180 bytes per element, and both
stages 3.08 MiB, about 220 bytes per element; a build that also keeps
each element's 2N-byte root permutation and 256-byte translate table
retains 8.75 MiB, about 640 bytes per element.  Reflection-representation
matrices are exact and computed on demand (for H4, materializing all
14400 4x4 golden matrices up front would cost tens of MB).  Conjugacy
classes, the per-element
length-descent sets {s : l(ws) < l(w)} (read from lengths, not from the
root action), the descent counts of each class, the structure constants of
the descent algebra in Solomon's basis x_K (by Mackey's formula, one pass
over W) and the per-element keys of each kind of measure value table
(``measure_keys``) are built from the elements, each once, on first use;
the coset minima of one W_K are computed on each call.

A subset K of the simple reflections, and so a descent set, is a bitmask:
bit i stands for simple reflection i.  Every per-subset table (the
Poincare polynomials, the parabolic data, the lattice's standard masks) is
a list of 2^r entries indexed by that mask.  The methods that take K from
a caller accept any iterable of indices and turn it into a mask in one
place (``_mask``).
"""

from __future__ import annotations

from collections import Counter, deque
from functools import reduce
from itertools import compress
from operator import mul, or_
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .labels import ClassLabel
from .lattice import IntersectionLattice, build_lattice
from .rootdata import RootSystem


class ConjugacyClass(NamedTuple):
    label: ClassLabel
    members: tuple
    representative: int


class ParabolicData(NamedTuple):
    mask: int
    subgroup_order: int
    normalizer_order: int
    lambda_count: int
    conjugacy_rep: tuple


# the element part in two stages, each built at the first read of any of its
# tables: the closure (``_build``), then the left products (``_build_products``)
CLOSURE_TABLES = ("keys", "index", "parent", "gen_of", "length", "rmult", "descent_mask")
PRODUCT_TABLES = ("lmult", "inverse", "one_line")
ELEMENT_TABLES = CLOSURE_TABLES + PRODUCT_TABLES


class CoxeterGroup:
    """Finite Coxeter group over its root system: rank-level data at once,
    the enumerated elements on first use."""

    def __init__(self, rs: RootSystem):
        self.root_system = rs
        self.size = rs.group_order
        self.n_pos = rs.n_positive
        self.longest_index = self.size - 1  # the last element in length order
        # the signed root index of each simple root, and each generator's
        # signed root permutation as a translate table, the identity past 2N
        self._simple = tuple(rs.root_index[a] for a in rs.simple_roots)
        n_pos = self.n_pos
        self._gen_tables = [
            bytes(row) + bytes(s + n_pos if s < n_pos else s - n_pos for s in row)
            + bytes(range(2 * n_pos, 256))
            for row in rs.simple_action
        ]
        self._classes: Optional[List[ConjugacyClass]] = None
        self._class_of: Optional[List[int]] = None
        self._poincare: Optional[List[List[int]]] = None
        self._parabolics: Optional[List[ParabolicData]] = None
        self._length_descents: Optional[List[int]] = None
        self._class_descents: Optional[List[Tuple[Tuple[int, ...], Tuple[int, ...]]]] = None
        self._mackey: Optional[List[Tuple[Tuple[int, ...], Tuple[int, ...]]]] = None
        self._measure_counts: Dict[Tuple[str, ...], Counter] = {}
        # the measures' integer polynomial tables, keyed by method name
        # (``measures.polynomial_tables``)
        self._measure_tables: Dict[str, tuple] = {}
        self._exponents: Optional[Tuple[int, ...]] = None
        self._lattice: Optional[IntersectionLattice] = None

    def __getattr__(self, name):
        # reached only for attributes not yet set: an element table is built
        # with the rest of its stage on its first read
        if name in CLOSURE_TABLES:
            self._build()
        elif name in PRODUCT_TABLES:
            self._build_products()
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__[name]

    # -- the element part ----------------------------------------------------

    def _build(self):
        rs = self.root_system
        r = rs.rank
        n_pos = self.n_pos
        size = self.size
        simple, gen_tables = self._simple, self._gen_tables
        # w s_g sends simple root i to w(s_g alpha_i)
        gen_images = [bytes(t[j] for j in simple) for t in gen_tables]

        ident = bytes(simple)
        keys = [ident] * size
        index = {ident: 0}
        parent = [-1] * size
        gen_of = [-1] * size
        length = [0] * size
        rmult = [[-1] * size for _ in range(r)]

        # an element's whole root permutation lives only while it is queued;
        # s_g^2 = 1, so each edge w - w s_g is set at both ends when first
        # found, and a generator already set at a popped element is a descent
        steps = list(zip(range(r), rmult, gen_images, gen_tables))
        count = 1
        queue = deque([(0, bytes(range(256)))])
        while queue:
            i, ti = queue.popleft()
            for g, rg, image, table in steps:
                if rg[i] >= 0:
                    continue
                child = image.translate(ti)  # w * s_g
                j = index.get(child)
                if j is None:
                    if count == size:  # no slot is left for it
                        raise RuntimeError(f"{rs.type_name()}: enumerated more than {size} "
                                           f"elements, expected {size}")
                    j = count
                    count += 1
                    index[child] = j
                    keys[j] = child
                    parent[j] = i
                    gen_of[j] = g
                    length[j] = length[i] + 1
                    queue.append((j, table.translate(ti)))
                rg[i] = j
                rg[j] = i
        if count != size:
            raise RuntimeError(f"{rs.type_name()}: enumerated {count} elements, expected {size}")

        # bit g is set iff the element sends simple root g to a negative
        # root: one translate of its key marks those bytes with a 1
        negative = bytes(b >= n_pos for b in range(256))
        masks = {bytes(m >> g & 1 for g in range(r)): m for m in range(1 << r)}
        descent_mask = [masks[k.translate(negative)] for k in keys]

        longest = self.longest_index
        if length[longest] != n_pos or descent_mask[longest] != (1 << r) - 1:
            raise RuntimeError("longest element is inconsistent")
        if descent_mask.count(0) != 1:
            raise RuntimeError("identity descent set is not unique")

        self.keys = keys
        self.index = index
        self.parent = parent
        self.gen_of = gen_of
        self.length = length
        self.rmult = rmult
        self.descent_mask = descent_mask

    def _build_products(self):
        # element j is parent[j] * s_{gen_of[j]}, and parents come first, so
        # w_j^-1 = s_g * w_parent^-1, whose key is w_parent^-1's key moved
        # by s_g's root permutation; then s_h * w = (w^-1 * s_h)^-1
        keys, index, gen_tables = self.keys, self.index, self._gen_tables
        inverse = [0]
        for p, g in zip(self.parent[1:], self.gen_of[1:]):
            inverse.append(index[keys[inverse[p]].translate(gen_tables[g])])
        inv = inverse.__getitem__
        self.lmult = [list(map(inv, map(rg.__getitem__, inverse))) for rg in self.rmult]
        self.inverse = inverse
        self.one_line = self._build_one_line()

    def _build_one_line(self):
        rs = self.root_system
        if rs.family == "A":
            n = rs.rank + 1
            flip = False
        elif rs.family == "B":
            n = rs.rank
            flip = True
        else:
            return None
        lines = [None] * self.size
        lines[0] = tuple(range(1, n + 1))
        for i in range(1, self.size):
            p, g = self.parent[i], self.gen_of[i]
            base = list(lines[p])
            if flip and g == rs.rank - 1:
                base[-1] = -base[-1]
            else:
                base[g], base[g + 1] = base[g + 1], base[g]
            lines[i] = tuple(base)
        return lines

    # -- elementary queries --------------------------------------------------

    @property
    def rank(self) -> int:
        return self.root_system.rank

    def multiply(self, i: int, j: int) -> int:
        """Index of the product w_i * w_j: w_i right-multiplied by the
        generators of w_j's word in turn."""
        rmult = self.rmult
        for g in self.word(j):
            i = rmult[g][i]
        return i

    def descent_set(self, i: int) -> FrozenSet[int]:
        dm = self.descent_mask[i]
        return frozenset(g for g in range(self.rank) if dm >> g & 1)

    def word(self, i: int) -> Tuple[int, ...]:
        out = []
        while i > 0:
            out.append(self.gen_of[i])
            i = self.parent[i]
        return tuple(reversed(out))

    # -- conjugacy classes ---------------------------------------------------

    def conjugacy_classes(self) -> List[ConjugacyClass]:
        if self._classes is not None:
            return self._classes
        # closure of each unclassed element under conjugation by the simple
        # reflections; seeds are taken in index order, so each class is
        # found from its smallest member
        gens = list(zip(self.rmult, self.lmult))
        class_of = [-1] * self.size
        classes: List[ConjugacyClass] = []
        for seed in range(self.size):
            if class_of[seed] >= 0:
                continue
            cid = len(classes)
            class_of[seed] = cid
            members = [seed]
            stack = [seed]
            while stack:
                i = stack.pop()
                for rg, lg in gens:
                    j = lg[rg[i]]  # s * w * s
                    if class_of[j] < 0:
                        class_of[j] = cid
                        members.append(j)
                        stack.append(j)
            classes.append(
                ConjugacyClass(self._class_label(seed, cid), tuple(sorted(members)), seed)
            )
        if sum(len(c.members) for c in classes) != self.size:
            raise RuntimeError("class sizes do not sum to the group order")
        self._classes = classes
        self._class_of = class_of
        return classes

    def class_of(self, i: int) -> int:
        self.conjugacy_classes()
        return self._class_of[i]

    def _class_label(self, rep: int, opaque_idx: int) -> ClassLabel:
        fam = self.root_system.family
        if fam == "A":
            return ClassLabel("partition", cycle_type(self.one_line[rep]))
        if fam == "B":
            return ClassLabel("bipartition", signed_cycle_type(self.one_line[rep]))
        return ClassLabel("opaque", (opaque_idx,))

    # -- parabolic data --------------------------------------------------------

    def standard_parabolic_mask(self, K: Iterable[int]) -> int:
        """Bitmask of positive roots in the span of the simple roots in K."""
        return self.lattice().standard_masks[_mask(K)]

    def parabolic_data(self, K: Iterable[int]) -> ParabolicData:
        return self.parabolic_table()[_mask(K)]

    def parabolic_table(self) -> List[ParabolicData]:
        """The parabolic data of every standard parabolic W_K, indexed by the
        mask of K, built once: the order of W_K is W_K(1) (``poincare``), and
        the rest is read from the lattice's W-orbits of flats."""
        if self._parabolics is None:
            # the stabilizer of the standard flat is the normalizer of W_K, so
            # its order is |W| / |orbit|; the subsets equivalent to K share the
            # orbit, all of one size, and the least of them represents it
            lat = self.lattice()
            reps = [min(tuple(_bits(J)) for J in subsets) for subsets in lat.orbit_subsets]
            table = []
            for K, (std, poly) in enumerate(zip(lat.standard_masks, self.poincare())):
                o = lat.orbit_ids[lat.mask_to_id[std]]
                table.append(ParabolicData(K, sum(poly),  # |W_K| = W_K(1)
                                           self.size // lat.orbit_sizes[o],
                                           len(lat.orbit_subsets[o]), reps[o]))
            self._parabolics = table
        return self._parabolics

    def coset_minreps(self, K: Iterable[int]) -> list:
        """For each element, the minimal-length element of its coset w*W_K."""
        # each coset is the orbit of any member under right multiplication by
        # K's generators; its first member in length order (index order, as
        # breadth-first discovery is) is the minimum
        gens = [self.rmult[g] for g in _bits(_mask(K))]
        length = self.length
        reps = [-1] * self.size
        for seed in range(self.size):
            if reps[seed] >= 0:
                continue
            reps[seed] = seed
            stack = [seed]
            while stack:
                i = stack.pop()
                for rg in gens:
                    j = rg[i]
                    if reps[j] < 0:
                        if length[j] <= length[seed]:
                            raise AssertionError("coset minimum is not unique")
                        reps[j] = seed
                        stack.append(j)
        return reps

    def length_descents(self) -> List[int]:
        """Per element w, the mask of its length-descent set L(w) = {s :
        l(ws) < l(w)}, built once.  w is the minimum of its coset w W_K iff
        no s in K gives l(ws) < l(w), that is iff K and L(w) are disjoint.

        L(w) comes from the Cayley graph (``rmult`` and ``length``), one pass
        over W per generator, and never from ``descent_mask``, which the
        measure reads off the root action: the walk and H agree because
        l(ws) < l(w) iff w(alpha_s) < 0, not because they read one table."""
        if self._length_descents is None:
            length = self.length
            lower = [0] * self.size  # bit s set iff l(w s) < l(w)
            for s, rs in enumerate(self.rmult):
                bit = 1 << s
                lower = [d | bit if length[j] < lw else d
                         for d, j, lw in zip(lower, rs, length)]
            self._length_descents = lower
        return self._length_descents

    def class_descent_counts(self) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Per conjugacy class, in ``conjugacy_classes()`` order, a pair of
        tuples: the descent masks that occur among its members, and the
        number of its members with each, in the same order.  Built once."""
        if self._class_descents is None:
            dm = self.descent_mask
            rows = []
            for c in self.conjugacy_classes():
                counts = Counter(map(dm.__getitem__, c.members))
                rows.append((tuple(counts), tuple(counts.values())))
            self._class_descents = rows
        return self._class_descents

    def mackey_structure(self) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Structure constants of Solomon's descent algebra in the basis x_K
        = sum of the w with D(w) and K disjoint: per mask L, the pairs (J, K)
        with M(J, K; L) > 0, each packed as J << rank | K, and the counts M
        in the same order, where M(J, K; L) is the x_L coefficient of x_J
        x_K.  By Mackey's formula (L. Solomon, J. Algebra 41, 1976), x_J x_K
        is the sum of x_L over the w with J and D(w^-1) disjoint and K and
        D(w) disjoint (the least elements of the double cosets W_J w W_K),
        with L = K & w^-1 J w = {s in K : w alpha_s = alpha_t, t in J}.

        So M is counted in one pass over W: the elements are grouped by
        (D(w^-1), D(w), the simple root each simple root goes to, if any),
        and each group adds its size once per J in the complement of D(w^-1)
        and K in the complement of D(w)."""
        if self._mackey is None:
            r = self.rank
            full = (1 << r) - 1
            target = bytearray([r] * 256)  # the simple root t of a root index, else r
            for t, j in enumerate(self._simple):
                target[j] = t
            dm = self.descent_mask
            images = (k.translate(target) for k in self.keys)
            groups = Counter(zip(map(dm.__getitem__, self.inverse), dm, images))
            submasks = [[K for K in range(full + 1) if not K & ~S] for S in range(full + 1)]
            counts = [0] * (1 << 3 * r)  # indexed by J << 2r | K << r | L
            for (left, right, imgs), n in groups.items():
                # (bit t, bit s) for w alpha_s = alpha_t; t is never in D(w^-1)
                # and s never in D(w), as w^-1 alpha_t and w alpha_s are positive
                to_simple = [(1 << t, 1 << s) for s, t in enumerate(imgs) if t < r]
                Ks = submasks[full ^ right]
                for J in submasks[full ^ left]:
                    onto_J = 0  # the s that w sends into J
                    for tb, sb in to_simple:
                        if J & tb:
                            onto_J |= sb
                    base = J << 2 * r
                    for K in Ks:
                        counts[base | K << r | (onto_J & K)] += n
            out: List[Tuple[List[int], List[int]]] = [([], []) for _ in range(full + 1)]
            for key in compress(range(len(counts)), counts):
                pairs, ns = out[key & full]
                pairs.append(key >> r)
                ns.append(counts[key])
            self._mackey = [(tuple(pairs), tuple(ns)) for pairs, ns in out]
        return self._mackey

    def measure_keys(self, kind: str) -> Sequence[int]:
        """Per element, its key in a measure table of this kind: its descent
        mask for "descent", the mask of its ``length_descents`` set for
        "length_descent" and its index for "element"."""
        if kind == "descent":
            return self.descent_mask
        if kind == "length_descent":
            return self.length_descents()
        if kind == "element":
            return range(self.size)
        raise ValueError(f"unknown measure key kind {kind!r}")

    def measure_counts(self, *kinds: str) -> Counter:
        """The number of elements per key of a measure-table kind.  Given
        several kinds, the counts are keyed by the tuples of one element's
        keys, so two measures agree at every element iff they agree on each
        tuple that occurs.  Descent kinds alone are counted at the rank
        level, without the elements: an element is the minimum of its coset
        w W_K iff its descents avoid K, so #{w : D(w) in A} = |W| / |W_{S-A}|,
        and the class sizes follow by Moebius inversion over the subsets."""
        cached = self._measure_counts.get(kinds)
        if cached is None:
            if set(kinds) == {"descent"}:
                full = (1 << self.rank) - 1
                sizes = [self.size // sum(self.poincare()[full ^ A]) for A in range(full + 1)]
                for i in range(self.rank):
                    for A in range(full + 1):
                        if A >> i & 1:
                            sizes[A] -= sizes[A ^ 1 << i]
                cached = Counter({(d if len(kinds) == 1 else (d,) * len(kinds)): n
                                  for d, n in enumerate(sizes)})
            elif len(kinds) == 1:
                cached = Counter(self.measure_keys(kinds[0]))
            else:
                cached = Counter(zip(*map(self.measure_keys, kinds)))
            self._measure_counts[kinds] = cached
        return cached

    # -- intersection lattice ----------------------------------------------------

    def lattice(self) -> IntersectionLattice:
        """The intersection lattice of the reflection arrangement, built once."""
        if self._lattice is None:
            self._lattice = build_lattice(self.root_system)
        return self._lattice

    # -- Poincare polynomials and exponents --------------------------------------

    def poincare(self) -> List[List[int]]:
        """The length generating function W_K(t) of every standard parabolic
        W_K, as integer coefficients from t^0 up, indexed by the mask of K,
        built once without the elements.  By Solomon's formula (L. Solomon,
        J. Algebra 3, 1966), sum over J in K of (-1)^|J| W_K(t) / W_J(t) =
        t^N_K, where N_K counts the positive roots supported in K.  So W_K =
        (t^N_K - (-1)^|K|) / S_K with S_K the sum over J strictly in K of
        (-1)^|J| / W_J, a power series with S_K(0) = -(-1)^|K|; every W_J(0)
        is 1, so each division stays in the integers."""
        if self._poincare is None:
            top = self.n_pos + 1  # series are kept to degree N
            supports = [_mask(i for i, c in enumerate(root) if c)
                        for root in self.root_system.positive_roots]
            polys: List[List[int]] = []
            inverses: List[List[int]] = []  # 1 / W_J, to degree N
            for K in range(1 << self.rank):
                n_k = sum(1 for s in supports if not s & ~K)
                series = [0] * (n_k + 1)
                for J in range(K):
                    if not J & ~K:
                        sign = (-1) ** J.bit_count()
                        series = [a + sign * b for a, b in zip(series, inverses[J])]
                # S_K W_K = t^N_K - (-1)^|K|, where S_K(0) = -(-1)^|K| is its
                # own inverse, and W_K(0) = 1
                sign = -((-1) ** K.bit_count())
                poly = [1]
                for n in range(1, n_k + 1):
                    poly.append(sign * ((n == n_k) - sum(map(mul, series[1:n + 1], reversed(poly)))))
                inv = [1]
                for n in range(1, top):
                    k = min(n, n_k)
                    inv.append(-sum(map(mul, poly[1:k + 1], reversed(inv[n - k:]))))
                polys.append(poly)
                inverses.append(inv)
            if sum(polys[-1]) != self.size:
                raise RuntimeError(f"{self.root_system.type_name()}: W(1) is "
                                   f"{sum(polys[-1])}, not the group order {self.size}")
            self._poincare = polys
        return self._poincare

    def exponents(self) -> Tuple[int, ...]:
        """Exponents, from factoring the Poincare polynomial W(t) as a
        product of truncated geometric series (iterated exact division)."""
        if self._exponents is not None:
            return self._exponents
        q = list(self.poincare()[-1])
        for _ in range(self.rank):  # multiply by (1-t)^rank
            q = [a - b for a, b in zip(q + [0], [0] + q)]
        degrees = []
        for _ in range(self.rank):
            d = next((i for i in range(1, len(q)) if q[i] != 0), None)
            if d is None:
                raise RuntimeError("Poincare polynomial does not factor")
            out = q[:]
            for i in range(d, len(q)):  # exact division by (1 - t^d)
                out[i] = q[i] + out[i - d]
            q = out
            while len(q) > 1 and q[-1] == 0:
                q.pop()
            degrees.append(d)
        if q != [1]:
            raise RuntimeError("Poincare polynomial does not factor")
        exps = tuple(sorted(d - 1 for d in degrees))
        order = 1
        for e in exps:
            order *= e + 1
        if order != self.size:
            raise RuntimeError("exponent product check failed")
        self._exponents = exps
        return exps

    # -- words, by the signed root action ------------------------------------------

    def _word_key(self, word: Iterable[int]) -> bytes:
        """The signed root permutation of the product of the simple
        reflections in ``word``, as 2N bytes, composed from the generators'
        tables alone."""
        table = bytes(range(256))
        for g in word:
            table = self._gen_tables[g].translate(table)  # table * s_g
        return table[:2 * self.n_pos]

    def word_descent_mask(self, word: Iterable[int]) -> int:
        """The descent mask of the product of the simple reflections in
        ``word``: the simple roots that it sends to negative roots."""
        key = self._word_key(word)
        return _mask(g for g, j in enumerate(self._simple) if key[j] >= self.n_pos)

    def longest_word(self, K: Iterable[int]) -> Tuple[int, ...]:
        """A reduced word of the longest element of W_K, without the
        elements: right-multiply by a generator of K that is not yet a
        descent, which adds one to the length, until every generator of K
        is one."""
        gens = tuple(_bits(_mask(K)))
        table, word = bytes(range(256)), []
        while True:
            g = next((g for g in gens if table[self._simple[g]] < self.n_pos), None)
            if g is None:
                return tuple(word)
            table = self._gen_tables[g].translate(table)
            word.append(g)


def _mask(K: Iterable[int]) -> int:
    """The bitmask of a subset K of the simple reflections."""
    return reduce(or_, (1 << i for i in K), 0)


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def cycle_type(one_line: Sequence[int]) -> tuple:
    """Cycle type of a permutation in one-line form over 1..n."""
    n = len(one_line)
    seen = [False] * (n + 1)
    parts = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        ln = 0
        j = s
        while not seen[j]:
            seen[j] = True
            j = one_line[j - 1]
            ln += 1
        parts.append(ln)
    return tuple(sorted(parts, reverse=True))


def signed_cycle_type(one_line: Sequence[int]) -> tuple:
    """(positive cycle lengths, negative cycle lengths) of a signed permutation."""
    n = len(one_line)
    seen = [False] * (n + 1)
    lam, mu = [], []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        ln, sign, j = 0, 1, s
        while not seen[j]:
            seen[j] = True
            img = one_line[j - 1]
            if img < 0:
                sign = -sign
            j = abs(img)
            ln += 1
        (lam if sign > 0 else mu).append(ln)
    return (tuple(sorted(lam, reverse=True)), tuple(sorted(mu, reverse=True)))


def enumerate_group(rs: RootSystem) -> CoxeterGroup:
    """The group with its elements enumerated at once, by breadth-first
    closure of the simple reflections."""
    g = CoxeterGroup(rs)
    g._build()
    g._build_products()
    return g


_GROUPS: Dict[str, CoxeterGroup] = {}


def get_group(type_name: str) -> CoxeterGroup:
    """Process-wide registry of groups (built once, shared); each enumerates
    its elements on first use."""
    key = type_name.strip().upper().replace(" ", "")
    g = _GROUPS.get(key)
    if g is None:
        from .rootdata import parse_type

        g = CoxeterGroup(parse_type(type_name))
        _GROUPS[key] = g
    return g
