"""Group enumeration: lengths, descents, classes, parabolics, exponents."""

import itertools
import tracemalloc
import weakref
from collections import Counter, deque
from fractions import Fraction
from types import SimpleNamespace

import pytest

from coxshuffle.group import (CLOSURE_TABLES, ELEMENT_TABLES, PRODUCT_TABLES, CoxeterGroup,
                              cycle_type, enumerate_group, get_group, signed_cycle_type)
from coxshuffle.rootdata import parse_type
from coxshuffle.tables import fixed_space

SUPPORTED = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2", "I2(2)", "I2(3)",
             "I2(4)", "I2(5)", "I2(6)", "I2(10)", "H3", "H4"]


def all_subsets(r):
    """Every subset of range(r), in the order of its bitmask."""
    for m in range(1 << r):
        yield frozenset(i for i in range(r) if m >> i & 1)


def subgroup_elements(g, K):
    """Oracle: the elements of the standard parabolic W_K, by closure of the
    identity under right multiplication by K's generators."""
    gens = [g.rmult[i] for i in K]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for rg in gens:
            j = rg[i]
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return tuple(sorted(seen))


def length_generating_coeffs(g, elements):
    """Oracle: the number of the given elements of each length, from 0 up
    to the greatest."""
    lengths = Counter(g.length[i] for i in elements)
    return [lengths[n] for n in range(max(lengths) + 1)]


def mat_mul(a, b):
    """Oracle: the product of two square matrices, as a tuple of rows."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def element_matrix(g, i):
    """Oracle: the reflection-representation matrix of element i in
    simple-root coordinates, its word's simple reflections multiplied on the
    right one by one (a column update by row s of the Cartan-like matrix)."""
    C = g.root_system.cartan_like_matrix
    r = g.rank
    one = C[0][0] / C[0][0]
    m = tuple(tuple(one if a == b else one * 0 for b in range(r)) for a in range(r))
    for s in g.word(i):
        m = tuple(tuple(m[a][b] - m[a][s] * C[s][b] for b in range(r)) for a in range(r))
    return m


def inversions(perm):
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def test_a2_enumeration_against_direct_s3():
    g = get_group("A2")
    assert g.size == 6
    # oracle: S_3 by direct permutation enumeration, lengths = inversions
    expected = sorted(inversions(p) for p in itertools.permutations((1, 2, 3)))
    assert sorted(g.length) == expected == [0, 1, 1, 2, 2, 3]
    assert sorted(g.one_line) == sorted(itertools.permutations((1, 2, 3)))


def test_b2_longest_element():
    g = get_group("B2")
    assert g.size == 8
    assert g.length[g.longest_index] == 4
    assert sum(1 for i in range(8) if g.length[i] == 4) == 1


def test_h3_descent_histogram():
    g = get_group("H3")
    hist = Counter(len(g.descent_set(i)) for i in range(g.size))
    assert hist[0] == 1 and hist[3] == 1 and sum(hist.values()) == 120


def test_descents_match_classical_type_a():
    for t in ("A1", "A2", "A3"):
        g = get_group(t)
        for i in range(g.size):
            line = g.one_line[i]
            classical = {j for j in range(len(line) - 1) if line[j] > line[j + 1]}
            assert g.descent_set(i) == frozenset(classical)


def lambda_order_descents(line):
    """Oracle: descents from the linear order +1 < ... < +n < -n < ... < -1,
    with the sentinel n+1 placed immediately above +n."""
    n = len(line)

    def key(v):
        if v == n + 1:
            return n + Fraction(1, 2)
        return v if v > 0 else 2 * n + 1 + v  # -n -> n+1, -1 -> 2n

    ext = list(line) + [n + 1]
    return frozenset(i for i in range(n) if key(ext[i]) > key(ext[i + 1]))


def test_descents_match_lambda_order_type_b():
    for t in ("B2", "B3", "B4"):
        g = get_group(t)
        for i in range(g.size):
            assert g.descent_set(i) == lambda_order_descents(g.one_line[i])


def test_one_line_composition_consistency():
    import random

    rng = random.Random(3)
    for t in ("A3", "B3"):
        g = get_group(t)
        for _ in range(50):
            i, j = rng.randrange(g.size), rng.randrange(g.size)
            k = g.multiply(i, j)
            a, b = g.one_line[i], g.one_line[j]
            composed = tuple(
                a[b[p] - 1] if b[p] > 0 else -a[-b[p] - 1] for p in range(len(a))
            )
            assert g.one_line[k] == composed


# -- the element tables against a build on whole root permutations -----------


_BYTE_KEY_BUILDS = weakref.WeakKeyDictionary()


def byte_key_build(g):
    """Oracle: the element tables of g by breadth-first closure on whole
    signed root permutations, kept per group and never reading g's own
    element tables.  Each element is keyed by its 2N-byte root permutation
    (``keys``), composed by one ``bytes.translate`` with its 256-byte table
    (``tables``), and found by a dict from permutation to index (``index``).
    The left products, inverses and descent masks are read off the
    permutations, and the one-line forms come from the build's own tree."""
    old = _BYTE_KEY_BUILDS.get(g)
    if old is None:
        r, n_pos = g.rank, g.n_pos
        pad = bytes(range(2 * n_pos, 256))
        gen_keys = [g._word_key((h,)) for h in range(r)]
        gen_tables = [k + pad for k in gen_keys]
        ident = bytes(range(2 * n_pos))
        keys, tables, index = [ident], [ident + pad], {ident: 0}
        parent, gen_of, length = [-1], [-1], [0]
        rmult = [[-1] for _ in range(r)]
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for h in range(r):
                child = gen_keys[h].translate(tables[i])  # w_i * s_h
                j = index.get(child)
                if j is None:
                    j = index[child] = len(keys)
                    keys.append(child)
                    tables.append(child + pad)
                    parent.append(i)
                    gen_of.append(h)
                    length.append(length[i] + 1)
                    for row in rmult:
                        row.append(-1)
                    queue.append(j)
                rmult[h][i] = j
        old = SimpleNamespace(keys=keys, tables=tables, index=index, parent=parent,
                              gen_of=gen_of, length=length, rmult=rmult)
        old.lmult = [[index[k.translate(t)] for k in keys] for t in gen_tables]  # s_h * w
        old.inverse = [inverted_key_index(old, i) for i in range(len(keys))]
        old.descent_mask = [sum(1 << s for s, a in enumerate(g._simple) if k[a] >= n_pos)
                            for k in keys]
        old.one_line = CoxeterGroup._build_one_line(SimpleNamespace(
            root_system=g.root_system, size=len(keys), parent=parent, gen_of=gen_of))
        _BYTE_KEY_BUILDS[g] = old
    return old


def byte_key_product(g):
    """Oracle: (i, j) -> the index of w_i * w_j, by one translate of whole
    root permutations from ``byte_key_build``."""
    old = byte_key_build(g)
    keys, tables, index = old.keys, old.tables, old.index
    return lambda i, j: index[keys[j].translate(tables[i])]


def inverted_key_index(old, i):
    """Oracle: the index of w_i^-1, from inverting w_i's root permutation in
    a ``byte_key_build``: the translate table that sends w_i(a) back to a."""
    key = old.keys[i]
    return old.index[bytes.maketrans(key, bytes(range(len(key))))[:len(key)]]


def simple_root_images(g, perm):
    """The key of the element with signed root permutation perm: the images
    of the simple roots."""
    return bytes(perm[a] for a in g._simple)


def element_key_failures(g):
    """One line per way g's element keys fail: a key that is not the images
    of the simple roots under the permutation composed along its element's
    word (from the parent's, one generator at a time), keys that repeat, or
    an index that does not invert the keys."""
    pad = bytes(range(2 * g.n_pos, 256))
    gen_keys = [g._word_key((h,)) for h in range(g.rank)]
    perms = [g._word_key(())]
    for p, h in zip(g.parent[1:], g.gen_of[1:]):
        perms.append(gen_keys[h].translate(perms[p] + pad))  # w_p * s_h
    out = [f"key of element {i} is not its word's simple-root images"
           for i, (key, perm) in enumerate(zip(g.keys, perms))
           if key != simple_root_images(g, perm)]
    if len(set(g.keys)) != g.size:
        out.append("keys repeat")
    if g.index != {key: i for i, key in enumerate(g.keys)}:
        out.append("index does not invert the keys")
    return out


@pytest.mark.parametrize("t", SUPPORTED + ["permuted B3"])
def test_element_tables_against_the_byte_key_build(t):
    g = get_group(t) if t in SUPPORTED else fresh_group(t)
    old = byte_key_build(g)
    for name in ("parent", "gen_of", "length", "rmult", "lmult", "inverse", "descent_mask",
                 "one_line"):
        assert getattr(g, name) == getattr(old, name), name
    assert element_key_failures(g) == []
    # products through the element's word against one translate
    product = byte_key_product(g)
    sample = range(0, g.size, max(1, g.size // 40))
    assert all(g.multiply(i, j) == product(i, j) for i in sample for j in sample)


def one_stage_build(g):
    """Oracle: the element tables of g by a one-stage closure that tries
    every generator at every element, never reading g's own element tables.
    The left products and the inverses follow along the tree: element j is
    parent[j] * s_{gen_of[j]}, so s_h * w_j = (s_h * w_parent) * s_g and
    w_j^-1 = s_g * w_parent^-1."""
    r, n_pos = g.rank, g.n_pos
    gen_images = [bytes(t[a] for a in g._simple) for t in g._gen_tables]
    ident = bytes(g._simple)
    keys, index = [ident], {ident: 0}
    parent, gen_of, length = [-1], [-1], [0]
    rmult = [[-1] for _ in range(r)]
    queue = deque([(0, bytes(range(256)))])
    while queue:
        i, ti = queue.popleft()
        for h in range(r):
            child = gen_images[h].translate(ti)  # w_i * s_h
            j = index.get(child)
            if j is None:
                j = index[child] = len(keys)
                keys.append(child)
                parent.append(i)
                gen_of.append(h)
                length.append(length[i] + 1)
                for row in rmult:
                    row.append(-1)
                queue.append((j, g._gen_tables[h].translate(ti)))
            rmult[h][i] = j
    lmult = []
    for h in range(r):
        lh = [rmult[h][0]]
        for p, s in zip(parent[1:], gen_of[1:]):
            lh.append(rmult[s][lh[p]])
        lmult.append(lh)
    inverse = [0]
    for p, s in zip(parent[1:], gen_of[1:]):
        inverse.append(lmult[s][inverse[p]])
    descent_mask = [sum(1 << s for s in range(r) if k[s] >= n_pos) for k in keys]
    one_line = CoxeterGroup._build_one_line(SimpleNamespace(
        root_system=g.root_system, size=len(keys), parent=parent, gen_of=gen_of))
    return SimpleNamespace(keys=keys, index=index, parent=parent, gen_of=gen_of, length=length,
                           rmult=rmult, lmult=lmult, inverse=inverse,
                           descent_mask=descent_mask, one_line=one_line)


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2",
                               "I2(5)", "I2(6)", "I2(10)", "H3", "H4"])
def test_element_tables_against_the_one_stage_build(t):
    # the D4 and H class labels number the classes in index order, so the
    # order of every table counts, the index's insertion order included
    g = CoxeterGroup(parse_type(t))
    ref = one_stage_build(g)
    for name in ELEMENT_TABLES:
        assert getattr(g, name) == getattr(ref, name), name
    assert list(g.index.items()) == list(ref.index.items())


@pytest.mark.parametrize("delta", [-1, 1], ids=["one below", "one above"])
@pytest.mark.parametrize("t", ["B3", "H3"])
def test_element_count_off_by_one_raises_the_count_error(t, delta):
    # the lists are made at |W| slots: one element too many, or one too few,
    # is the count error, never an IndexError, and no table is kept
    g = CoxeterGroup(parse_type(t))
    g.size += delta
    with pytest.raises(RuntimeError, match=rf"^{t}: enumerated .* expected {g.size}$"):
        g._build()
    assert not any(name in vars(g) for name in ELEMENT_TABLES)


@pytest.mark.parametrize("t", ["A3", "B3", "H3"])
def test_element_key_check_fails_on_a_swapped_or_changed_key(t):
    g = CoxeterGroup(parse_type(t))  # a private group: its keys are altered
    good = list(g.keys)
    g.keys[3], g.keys[7] = good[7], good[3]
    assert element_key_failures(g)
    g.keys[:] = good
    assert element_key_failures(g) == []
    for i in (1, g.size // 2, g.size - 1):
        key = bytearray(good[i])
        key[i % g.rank] ^= 1
        g.keys[i] = bytes(key)
        assert element_key_failures(g), i
        g.keys[i] = good[i]


def per_element_byte_tables(g):
    """The attributes of g that hold, per element, a byte string of 2N bytes
    or more: a whole root permutation or a translate table."""
    long = 2 * g.n_pos
    return sorted(
        name for name, table in vars(g).items()
        if isinstance(table, (list, tuple, dict)) and len(table) == g.size
        and any(isinstance(e, (bytes, bytearray)) and len(e) >= long for e in (
            itertools.chain(table, table.values()) if isinstance(table, dict) else table)))


def test_h4_element_build_keeps_no_per_element_permutation():
    # the elements are built in the measured window and retained after it: the
    # r-byte keys and their index, the tree and the integer tables; a 256-byte
    # translate table per element alone would retain 4.1 MB
    g = CoxeterGroup(parse_type("H4"))
    tracemalloc.start()
    try:
        g._build()
        closure = tracemalloc.get_traced_memory()[0]
        g._build_products()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # measured: the closure stage 2,621,928 bytes, both stages 3,229,096
    assert closure < retained < 4_000_000, (closure, retained)
    assert {len(key) for key in g.keys} == {len(key) for key in g.index} == {g.rank}
    assert "tables" not in ELEMENT_TABLES and per_element_byte_tables(g) == []
    g.tables = [key + bytes(256 - len(key)) for key in g.keys]
    g.keys = [bytes(2 * g.n_pos)] * g.size
    assert per_element_byte_tables(g) == ["keys", "tables"]


def brute_conjugacy_classes(g):
    """Oracle: orbit refinement using only products of whole root
    permutations and inverse."""
    product = byte_key_product(g)
    remaining = set(range(g.size))
    classes = []
    while remaining:
        seed = min(remaining)
        orbit = {product(product(u, seed), g.inverse[u]) for u in range(g.size)}
        classes.append(frozenset(orbit))
        remaining -= orbit
    return sorted(classes, key=min)


@pytest.mark.parametrize("t", SUPPORTED)
def test_tree_tables_against_byte_keys(t):
    g = get_group(t)
    old, product = byte_key_build(g), byte_key_product(g)
    assert g.inverse == [inverted_key_index(old, i) for i in range(g.size)]
    for h in range(g.rank):
        s_h = g.rmult[h][0]
        assert g.word(s_h) == (h,)
        assert g.lmult[h] == [product(s_h, i) for i in range(g.size)]
    assert g.length == sorted(g.length)  # index order is length order
    assert g.longest_index == max(range(g.size), key=g.length.__getitem__)


@pytest.mark.parametrize("t", ["A2", "B2", "G2", "I2(5)"])
def test_conjugacy_classes_against_brute_force(t):
    g = get_group(t)
    ours = sorted((frozenset(c.members) for c in g.conjugacy_classes()), key=min)
    assert ours == brute_conjugacy_classes(g)


def test_a2_class_labels():
    g = get_group("A2")
    got = {c.label.data: len(c.members) for c in g.conjugacy_classes()}
    assert got == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}


def test_b2_class_count_and_identity_label():
    g = get_group("B2")
    classes = g.conjugacy_classes()
    assert len(classes) == 5
    assert sum(len(c.members) for c in classes) == 8
    assert classes[g.class_of(0)].label.data == ((1, 1), ())


def test_signed_cycle_type_examples():
    assert signed_cycle_type((1, 2, 3)) == ((1, 1, 1), ())
    assert signed_cycle_type((-1, 2)) == ((1,), (1,))
    assert signed_cycle_type((2, -1)) == ((), (2,))
    assert cycle_type((2, 3, 1)) == (3,)


def brute_parabolic(g, K):
    """Oracle for normalizer order and equivalent-subset count, using only
    generic group operations (subgroup sets and conjugation, by products of
    whole root permutations)."""
    product = byte_key_product(g)
    sub = set(subgroup_elements(g, K))
    norm = sum(
        1
        for w in range(g.size)
        if {product(product(w, h), g.inverse[w]) for h in sub} == sub
    )
    lam = 0
    for m in range(1 << g.rank):
        J = frozenset(i for i in range(g.rank) if m >> i & 1)
        subJ = set(subgroup_elements(g, J))
        if len(subJ) != len(sub):
            continue
        if any(
            {product(product(w, h), g.inverse[w]) for h in sub} == subJ
            for w in range(g.size)
        ):
            lam += 1
    return norm, lam


def test_parabolic_trivial_and_full():
    for t in ("A2", "B3", "H3"):
        g = get_group(t)
        pd = g.parabolic_data(frozenset())
        assert pd.subgroup_order == 1
        assert fixed_space(g.root_system, frozenset()).dim == g.rank
        assert pd.normalizer_order == g.size
        assert pd.lambda_count == 1
        pd = g.parabolic_data(frozenset(range(g.rank)))
        assert pd.subgroup_order == g.size
        assert fixed_space(g.root_system, frozenset(range(g.rank))).dim == 0
        assert pd.lambda_count == 1


def test_parabolic_a2_singleton():
    g = get_group("A2")
    pd = g.parabolic_data(frozenset({0}))
    assert (pd.subgroup_order, pd.normalizer_order, pd.lambda_count) == (2, 2, 2)
    norm, lam = brute_parabolic(g, frozenset({0}))
    assert (norm, lam) == (2, 2)


def test_class_and_parabolic_records_are_immutable():
    g = get_group("A2")
    for record, name in ((g.conjugacy_classes()[0], "representative"),
                         (g.parabolic_data({0}), "subgroup_order")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0


@pytest.mark.parametrize("t", ["A3", "B2", "B3", "G2", "I2(5)"])
def test_parabolic_data_against_brute_force(t):
    g = get_group(t)
    for m in range(1 << g.rank):
        K = frozenset(i for i in range(g.rank) if m >> i & 1)
        pd = g.parabolic_data(K)
        norm, lam = brute_parabolic(g, K)
        assert pd.normalizer_order == norm, (t, sorted(K))
        assert pd.lambda_count == lam, (t, sorted(K))
        assert pd.subgroup_order % 1 == 0 and g.size % pd.subgroup_order == 0
        assert pd.normalizer_order % pd.subgroup_order == 0


def line_image_parabolic(g, K):
    """Oracle for (normalizer order, equivalent-subset count, representative):
    the image of the standard root-line set under every element of W."""
    n = g.n_pos
    line = bytes(a % n for a in range(2 * n)) + bytes(range(2 * n, 256))

    def line_set(mask):
        return frozenset(j for j in range(n) if mask >> j & 1)

    base = line_set(g.standard_parabolic_mask(K))
    roots = bytes(sorted(base))
    tables = byte_key_build(g).tables
    images = [frozenset(roots.translate(tables[i]).translate(line)) for i in range(g.size)]
    orbit = set(images)
    equivalent = sorted(
        (tuple(sorted(J)) for J in all_subsets(g.rank)
         if line_set(g.standard_parabolic_mask(J)) in orbit),
        key=lambda t: (len(t), t),
    )
    return images.count(base), len(equivalent), equivalent[0]


@pytest.mark.parametrize("t", SUPPORTED)
def test_parabolic_data_against_line_images(t):
    g = get_group(t)
    for K in all_subsets(g.rank):
        pd = g.parabolic_data(K)
        assert (pd.normalizer_order, pd.lambda_count, pd.conjugacy_rep) == (
            line_image_parabolic(g, K)
        ), (t, sorted(K))


def test_lambda_counts_sum():
    # every subset of the base is equivalent to exactly one representative
    for t in ("A3", "B3", "H3"):
        g = get_group(t)
        reps = {}
        for m in range(1 << g.rank):
            K = frozenset(i for i in range(g.rank) if m >> i & 1)
            pd = g.parabolic_data(K)
            reps.setdefault(pd.conjugacy_rep, pd.lambda_count)
        assert sum(reps.values()) == 2**g.rank


def test_index_over_normalizer_integrality():
    for t in ("A3", "B3", "G2"):
        g = get_group(t)
        seen = {}
        for m in range(1 << g.rank):
            K = frozenset(i for i in range(g.rank) if m >> i & 1)
            pd = g.parabolic_data(K)
            total = seen.setdefault(pd.conjugacy_rep, Fraction(0))
            seen[pd.conjugacy_rep] = total + Fraction(g.size, pd.normalizer_order) / pd.lambda_count
        for rep, total in seen.items():
            assert total.denominator == 1


@pytest.mark.parametrize(
    "t,exps",
    [("A2", (1, 2)), ("A3", (1, 2, 3)), ("B3", (1, 3, 5)), ("G2", (1, 5)),
     ("H3", (1, 5, 9)), ("D4", (1, 3, 3, 5)), ("I2(5)", (1, 4))],
)
def test_exponents(t, exps):
    g = get_group(t)
    assert g.exponents() == exps
    prod = 1
    for m in exps:
        prod *= m + 1
    assert prod == g.size


def test_exponents_h4():
    g = get_group("H4")
    assert g.exponents() == (1, 11, 19, 29)


def test_descent_complement_when_longest_is_minus_identity():
    for t in ("A1", "B2", "B3", "G2", "I2(2)", "I2(4)", "I2(6)", "D4", "H3", "H4"):
        g = get_group(t)
        w0 = g.longest_index
        mat = element_matrix(g, w0)
        r = g.rank
        is_minus_id = all(
            mat[i][j] == (-1 if i == j else 0) for i in range(r) for j in range(r)
        )
        assert is_minus_id, t
        full, product = frozenset(range(r)), byte_key_product(g)
        for i in range(g.size):
            assert g.descent_set(product(i, w0)) == full - g.descent_set(i)


def test_matrices_multiply():
    import random

    rng = random.Random(11)
    for t in ("B2", "H3"):
        g = get_group(t)
        for _ in range(20):
            i, j = rng.randrange(g.size), rng.randrange(g.size)
            assert element_matrix(g, g.multiply(i, j)) == tuple(
                mat_mul(element_matrix(g, i), element_matrix(g, j))
            )


def test_word_reconstruction():
    g = get_group("B3")
    for i in (0, 5, g.longest_index):
        w = g.word(i)
        acc = 0
        for s in w:
            acc = g.rmult[s][acc]
        assert acc == i
        assert len(w) == g.length[i]


def test_coset_minreps_definitions():
    g = get_group("B3")
    for K in (frozenset(), frozenset({0}), frozenset({0, 2}), frozenset({0, 1, 2})):
        reps = g.coset_minreps(K)
        sub = subgroup_elements(g, K)
        for i in range(g.size):
            coset = {g.multiply(i, u) for u in sub}
            best = min(coset, key=lambda j: g.length[j])
            assert reps[i] == best


# An element's minrep mask, the subsets K for which it is the minimum of its
# coset w W_K, is the K disjoint from its length-descent set: the three
# tests below check those sets.


@pytest.mark.parametrize("t", SUPPORTED)
def test_minrep_masks_are_descent_free_subsets(t):
    # the walk's key kind counts each element's length-descent set, and
    # l(ws) < l(w) iff w(alpha_s) < 0, so the set is the descent set
    g = get_group(t)
    lower = g.length_descents()
    assert g.measure_counts("length_descent") == Counter(lower)
    assert lower == g.descent_mask


@pytest.mark.parametrize("t", SUPPORTED)
def test_minrep_masks_against_the_coset_walk(t):
    # the coset walk is the oracle: K and L(w) are disjoint iff w is its own
    # coset_minreps(K) entry
    g = get_group(t)
    lower = g.length_descents()
    for K in range(1 << g.rank):
        reps = g.coset_minreps([k for k in range(g.rank) if K >> k & 1])
        assert [not K & lower[i] for i in range(g.size)] == [
            reps[i] == i for i in range(g.size)], K
    assert lower is g.length_descents()


def test_minrep_masks_read_no_descent_masks():
    for t in SUPPORTED:
        g = CoxeterGroup(parse_type(t))  # a private group: its descent table is removed
        expected = list(get_group(t).length_descents())
        g.length  # builds the element tables
        g.descent_mask = None
        assert g.length_descents() == expected, t


@pytest.mark.parametrize("t", SUPPORTED)
def test_descent_masks_against_word_descent_masks(t):
    # the element tables' descent masks against the ones composed from each
    # element's word on the generators' keys alone
    g = get_group(t)
    assert g.descent_mask == [g.word_descent_mask(g.word(i)) for i in range(g.size)]


_DESCENT_STRUCTURES = {}


def descent_structure(g):
    """Oracle: the structure constants of Solomon's descent algebra in the
    descent-class basis, kept per group: per descent mask d, the pairs
    (d1, d2) with N(d1, d2; d) > 0, each packed as d1 << rank | d2, and the
    counts N in the same order.  N counts the u with descent mask d1 and
    u^-1 w descent mask d2, for any one w of mask d; it does not depend on
    which w (L. Solomon, J. Algebra 41, 1976)."""
    out = _DESCENT_STRUCTURES.get(g)
    if out is None:
        dm, old, r = g.descent_mask, byte_key_build(g), g.rank
        # as t runs over W, u = t^-1 does too, and u^-1 w = t w
        u_class = [dm[i] << r for i in g.inverse]
        rep = {}
        for i, d in enumerate(dm):
            rep.setdefault(d, i)
        out = []
        for d in range(1 << r):
            tw = map(old.index.__getitem__, map(old.keys[rep[d]].translate, old.tables))
            counts = Counter(u | dm[j] for u, j in zip(u_class, tw))
            pairs, ns = zip(*sorted(counts.items()))
            out.append((pairs, ns))
        _DESCENT_STRUCTURES[g] = out
    return out


def brute_structure_counts(g, w):
    """Oracle: N(d1, d2; w), the number of u with descent mask d1 and u^-1 w
    descent mask d2, by one product of whole root permutations per u."""
    dm, product = g.descent_mask, byte_key_product(g)
    return Counter((dm[u], dm[product(g.inverse[u], w)]) for u in range(g.size))


@pytest.mark.parametrize("t", SUPPORTED)
def test_descent_structure_against_brute_force(t):
    g = get_group(t)
    structure = descent_structure(g)
    assert len(structure) == 1 << g.rank
    members = {}
    for i, d in enumerate(g.descent_mask):
        members.setdefault(d, []).append(i)
    for d, (pairs, counts) in enumerate(structure):
        assert len(set(pairs)) == len(pairs) == len(counts) and min(counts) > 0
        table = {(p >> g.rank, p & ((1 << g.rank) - 1)): n for p, n in zip(pairs, counts)}
        # the counts are the same for every w of the class (Solomon): every
        # member on small groups, and otherwise the last, which is not the
        # member the table was built from
        ws = members[d] if g.size <= 400 else members[d][-1:]
        for w in ws:
            assert brute_structure_counts(g, w) == table, (d, w)


@pytest.mark.parametrize("t", SUPPORTED)
def test_descent_class_sizes_and_pairs(t):
    g = get_group(t)
    keys, sizes = g.measure_keys("descent"), g.measure_counts("descent")
    assert keys is g.descent_mask and sizes == Counter(g.descent_mask)
    assert len(sizes) == 1 << g.rank  # no descent class is empty
    assert g.measure_counts("descent", "descent") == Counter(zip(keys, keys))
    assert g.measure_keys("length_descent") is g.length_descents()
    assert g.measure_counts("length_descent") == Counter(g.length_descents())
    pairs = g.measure_counts("descent", "length_descent")
    assert pairs == Counter(zip(g.descent_mask, g.length_descents()))
    # l(ws) < l(w) iff w(alpha_s) < 0, so the two keys agree: one pair per
    # descent class
    assert len(pairs) == 1 << g.rank
    if g.size <= 400:
        keys, counts = g.measure_keys("element"), g.measure_counts("element")
        assert list(keys) == list(range(g.size)) and set(counts.values()) == {1}
        assert len(counts) == g.size
    assert g.measure_counts("descent", "length_descent") is g.measure_counts(
        "descent", "length_descent")


def test_measure_keys_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown measure key kind"):
        get_group("A2").measure_keys("coset")
    with pytest.raises(ValueError, match="unknown measure key kind"):
        get_group("A2").measure_counts("descent", "coset")


# -- rank-level data against the enumeration -------------------------------------


def fresh_group(t):
    """A private group, not yet enumerated, of a supported type or of B3
    with its positive roots listed in another order."""
    if t == "permuted B3":
        from test_lattice import permuted_b3

        return CoxeterGroup(permuted_b3())
    return CoxeterGroup(parse_type(t))


def geometric_product(exps):
    """Oracle: the coefficients of the product of 1 + t + ... + t^m over the
    exponents m."""
    out = [1]
    for m in exps:
        out = [sum(out[max(0, n - m):n + 1]) for n in range(len(out) + m)]
    return out


@pytest.mark.parametrize("t", SUPPORTED + ["permuted B3"])
def test_rank_level_data_against_enumeration(t):
    g = fresh_group(t)
    poincare, exps, sizes = g.poincare(), g.exponents(), g.measure_counts("descent")
    assert not any(name in vars(g) for name in ELEMENT_TABLES)  # no element was read
    assert len(poincare) == 1 << g.rank
    for K in all_subsets(g.rank):
        expect = length_generating_coeffs(g, subgroup_elements(g, sorted(K)))
        assert poincare[sum(1 << i for i in K)] == expect, sorted(K)
    assert poincare[-1] == length_generating_coeffs(g, range(g.size))
    assert geometric_product(exps) == poincare[-1]
    assert sizes == Counter(g.descent_mask)
    assert g.size == len(g.keys) and g.n_pos == g.length[g.longest_index]


@pytest.mark.parametrize("t", SUPPORTED + ["permuted B3"])
def test_words_by_the_root_action_against_enumeration(t):
    g = fresh_group(t)
    full = range(g.rank)
    words = {K: g.longest_word(K) for K in all_subsets(g.rank)}
    assert not any(name in vars(g) for name in ELEMENT_TABLES)
    for K, word in words.items():
        # the element of the word is W_K's longest, the only one of its
        # length there, and it is the shortest element whose descent set is K
        i = g.index[simple_root_images(g, g._word_key(word))]
        members = subgroup_elements(g, sorted(K))
        assert i in members and g.length[i] == len(word) == max(g.length[j] for j in members)
        assert g.word_descent_mask(word) == g.descent_mask[i] == sum(1 << k for k in K)
        assert i == min(j for j in range(g.size) if g.descent_mask[j] == g.descent_mask[i])
        iw0 = g.multiply(i, g.longest_index)
        assert g.word_descent_mask(word + g.longest_word(full)) == g.descent_mask[iw0]
    assert g.index[simple_root_images(g, g._word_key(g.longest_word(full)))] == g.longest_index


def test_enumerate_group_builds_the_elements_at_once():
    rs = parse_type("A3")
    assert all(name in vars(enumerate_group(rs)) for name in ELEMENT_TABLES)
    lazy = CoxeterGroup(rs)
    assert not any(name in vars(lazy) for name in ELEMENT_TABLES)
    rmult = lazy.rmult  # one read builds the closure and no left product
    assert all(name in vars(lazy) for name in CLOSURE_TABLES)
    assert not any(name in vars(lazy) for name in PRODUCT_TABLES)
    lazy.one_line  # the second stage reads the closure, built once
    assert all(name in vars(lazy) for name in ELEMENT_TABLES) and lazy.rmult is rmult
    other = CoxeterGroup(rs)
    other.inverse  # one read of a left product builds both stages
    assert all(name in vars(other) for name in ELEMENT_TABLES)
    with pytest.raises(AttributeError):
        lazy.no_such_table


def test_walk_oracle_builds_no_left_product(fresh_json):
    # the walk reads the right products, the lengths and the descent masks alone
    code = (
        "import contextlib, io, json\n"
        "import coxshuffle.cli as cli\n"
        "from coxshuffle import group\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', 'walk_oracle'])\n"
        "print(json.dumps([code, {t: [n for n in group.ELEMENT_TABLES if n in vars(g)]\n"
        "                         for t, g in group._GROUPS.items()}]))\n"
    )
    code, built = fresh_json(code)
    assert code == 0
    assert built["H4"] == list(CLOSURE_TABLES) and len(built) == 11
    assert {t: names for t, names in built.items() if set(names) & set(PRODUCT_TABLES)} == {}
