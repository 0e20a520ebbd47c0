"""Orbit enumeration, the class map, and the distribution identities."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from collections import Counter
from pathlib import Path

import pytest

import coxshuffle
from coxshuffle import gfpoly, orbits
from coxshuffle.gfpoly import (FqContext, FqPoly, check_layers, degree_layers, factor,
                               monic_polys, poly_axpy, poly_frobenius, poly_gcd, poly_mod,
                               poly_mul, poly_powmod)
from coxshuffle.group import get_group
from coxshuffle.measures import h_measure, pushforward_classes
from coxshuffle.orbits import (
    b_pair_type,
    enumerate_orbits,
    identity_class_count,
    identity_class_prediction,
    orbit_class_distribution,
    orbit_family,
    phi_map,
    split_census_constant_one,
    translation_invariance_check,
    _square_count,
)
from coxshuffle.suites import SUITES


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_orbits(orbit_family("A", 2, 3))) == 3
    assert sum(1 for _ in enumerate_orbits(orbit_family("A", 3, 7))) == 49
    assert sum(1 for _ in enumerate_orbits(orbit_family("B", 2, 3))) == 9


def test_a_representatives_have_zero_trace_coefficient():
    fam = orbit_family("A", 3, 5)
    for f in enumerate_orbits(fam):
        assert f.degree == 3 and f.is_monic
        assert f.ctx.is_zero(f.coeffs[2])


def test_b_representatives_are_even():
    fam = orbit_family("B", 2, 5)
    for f in enumerate_orbits(fam):
        assert f.degree == 4 and f.is_even_function()


def test_family_validation():
    with pytest.raises(ValueError):
        orbit_family("B", 2, 2)  # even characteristic
    with pytest.raises(ValueError):
        orbit_family("C", 2, 3)
    with pytest.raises(ValueError):
        orbit_family("A", 9, 97)  # enumeration bound


def test_phi_map_examples():
    c5, c2, c3 = FqContext.get(5), FqContext.get(2), FqContext.get(3)
    famA5 = orbit_family("A", 3, 5)
    assert phi_map(famA5, FqPoly.from_ints(c5, [0, -1, 0, 1])).data == (1, 1, 1)
    famA2 = orbit_family("A", 3, 2)
    assert phi_map(famA2, FqPoly.from_ints(c2, [1, 1, 0, 1])).data == (3,)
    famB = orbit_family("B", 2, 3)
    assert phi_map(famB, FqPoly.from_ints(c3, [0, 0, 1, 0, 1])).data == ((1,), (1,))


def test_phi_map_rejects_wrong_shapes():
    fam = orbit_family("A", 3, 5)
    c5 = FqContext.get(5)
    with pytest.raises(ValueError):
        phi_map(fam, FqPoly.from_ints(c5, [1, 1, 1, 1]))  # nonzero z^2 coefficient
    famB = orbit_family("B", 2, 3)
    c3 = FqContext.get(3)
    with pytest.raises(ValueError):
        phi_map(famB, FqPoly.from_ints(c3, [0, 1, 0, 0, 1]))  # odd part present


def test_b_type_sizes_sum_to_n():
    for n, q in [(2, 3), (2, 5), (3, 3)]:
        fam = orbit_family("B", n, q)
        for f in enumerate_orbits(fam):
            lam, mu = phi_map(fam, f).data
            assert sum(lam) + sum(mu) == n


def test_b_pair_type_z_multiplicity():
    c3 = FqContext.get(3)
    f = FqPoly.from_ints(c3, [0, 0, 0, 0, 1])  # z^4: pair {z,z} twice
    assert b_pair_type(factor(f)) == ((1, 1), ())


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (2, 7), (3, 5)])
def test_problem1_type_a_small(n, q):
    fam = orbit_family("A", n, q)
    g = get_group(f"A{n - 1}")
    assert orbit_class_distribution(fam) == pushforward_classes(h_measure(g, q))


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5)])
def test_problem1_type_b_small(n, q):
    fam = orbit_family("B", n, q)
    g = get_group(f"B{n}")
    assert orbit_class_distribution(fam) == pushforward_classes(h_measure(g, q))


def test_spot_values_a_3_7():
    dist = orbit_class_distribution(orbit_family("A", 3, 7))
    by_data = {k.data: v for k, v in dist.values.items()}
    assert by_data == {
        (1, 1, 1): Fraction(12, 49),
        (2, 1): Fraction(21, 49),
        (3,): Fraction(16, 49),
    }


def test_identity_class_counts():
    for tag, n, q in [("A", 3, 7), ("A", 3, 5), ("B", 2, 3), ("B", 2, 5)]:
        fam = orbit_family(tag, n, q)
        pred = identity_class_prediction(fam)
        assert pred.denominator == 1
        assert identity_class_count(fam) == int(pred)


def test_very_good_flags():
    assert orbit_family("A", 3, 7).very_good
    assert not orbit_family("A", 3, 3).very_good
    assert orbit_family("B", 2, 3).very_good


def test_split_census_example():
    census, prediction = split_census_constant_one(3, 5)
    assert census == 5 and prediction == 7
    census1, pred1 = split_census_constant_one(1, 7)
    assert census1 == 1  # only z + 6 works: f(0) = 6... the unique monic linear
    # oracle at n = 2, q = 3: count root multisets {a, b} with ab = 1 directly
    census2, _ = split_census_constant_one(2, 3)
    pairs = [(a, b) for a in range(3) for b in range(a, 3) if a * b % 3 == 1]
    assert census2 == len(pairs)


def test_translation_invariance():
    assert translation_invariance_check(2, 3).fibers_identical
    assert translation_invariance_check(3, 5).fibers_identical
    r = translation_invariance_check(3, 3)
    assert not r.hypothesis_ok  # p divides n: the check is gated off


@pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 5), (4, 3)])
def test_translation_invariance_distribution_against_factor(n, q):
    # the reported distribution is the factorization types of the fiber with
    # z^(n-1) coefficient 0, counted here by full factorization
    ctx = FqContext.get(q)
    expect = Counter(factor(f).degree_partition() for f in monic_polys(ctx, n)
                     if f.coeffs[n - 1] == 0)
    r = translation_invariance_check(n, q)
    assert r.fibers_identical and r.distribution == dict(expect)


# -- the class map from distinct-degree layers, against factor() ------------------


def factor_label(fam, f):
    """The class label by the independent path: full factorization."""
    fac = factor(f)
    return fac.degree_partition() if fam.tag == "A" else b_pair_type(fac)


def assert_labels_match_factor(fam, polys):
    for f in polys:
        assert phi_map(fam, f).data == factor_label(fam, f), str(f)


@pytest.mark.parametrize("tag", ["A", "B"])
def test_layer_labels_match_factor_on_problem1_grids(tag):
    for n, q in SUITES[f"problem1_{tag}"][1]["grid"]:
        fam = orbit_family(tag, n, q)
        assert_labels_match_factor(fam, enumerate_orbits(fam))


@pytest.mark.parametrize("tag,n,q,e", [
    ("A", 3, 2, 1),  # characteristic 2
    ("A", 2, 2, 2),  # F_4, p | n
    ("A", 3, 3, 2),  # F_9, p | n
    ("B", 2, 3, 2),  # F_9
    ("B", 2, 5, 2),  # F_25
    ("B", 3, 3, 2),  # F_9
])
def test_layer_labels_match_factor_in_char_2_and_prime_powers(tag, n, q, e):
    fam = orbit_family(tag, n, q, e)
    assert_labels_match_factor(fam, enumerate_orbits(fam))


@pytest.mark.parametrize("tag,n,q", [("A", 5, 7), ("A", 4, 11), ("A", 6, 5), ("B", 3, 11),
                                     ("B", 4, 7)])
def test_layer_labels_match_factor_on_benchmark_samples(tag, n, q):
    fam = orbit_family(tag, n, q)
    polys = list(enumerate_orbits(fam))
    assert_labels_match_factor(fam, random.Random(20261018).sample(polys, 300))


def _square_count_by_powers(ctx, m, layer):
    """The squares of a layer by the power route: u = y^((q-1)/2) mod P, then
    y^((q^m-1)/2) = u * u^q * ... * u^(q^(m-1)) mod P from m - 1 Frobenius
    images, and the roots of gcd(P, y^((q^m-1)/2) - 1)."""
    one = ctx.one
    power = image = poly_powmod(ctx, [ctx.zero, one], (ctx.order - 1) // 2, layer)
    for _ in range(m - 1):
        image = poly_frobenius(ctx, image, layer)
        power = poly_mod(ctx, poly_mul(ctx, power, image), layer)
    squares = poly_gcd(ctx, layer, poly_axpy(ctx, power, ctx.neg(one), [one]))
    return (len(squares) - 1) // m


@pytest.mark.parametrize("n,q,e", [(3, 11, 1), (4, 7, 1), (5, 3, 1), (4, 5, 1), (2, 3, 2),
                                   (2, 5, 2), (3, 3, 2)])
def test_square_count_against_the_power_route_on_every_layer(n, q, e, monkeypatch):
    fam = orbit_family("B", n, q, e)
    ctx = fam.ctx
    norms = []
    powmod = orbits.poly_powmod

    def spy(*args):  # only the norm route takes a polynomial power
        norms.append(1)
        return powmod(*args)

    monkeypatch.setattr(orbits, "poly_powmod", spy)
    seen = Counter()
    for f in enumerate_orbits(fam):
        g = f.coeffs[::2]
        k = next(i for i, c in enumerate(g) if c)
        if len(g) - k > 1:
            for m, _, layer in degree_layers(ctx, g[k:]):
                t = (len(layer) - 1) // m
                before = len(norms)
                s = _square_count(ctx, m, layer)
                assert s == _square_count_by_powers(ctx, m, layer), (str(f), m, layer)
                if t == 1:
                    route = "one factor"
                else:
                    # degree-1 roots by evaluation under degree_layers' rule
                    evaluated = m == 1 and q**e <= 5 * (q**e).bit_length() * t
                    route = "evaluation" if evaluated else "norm"
                assert (len(norms) > before) == (route == "norm"), (str(f), m, layer)
                seen[route] += 1
    # B(n, q) has a multi-factor layer of degree m >= 2 from n = 4 on
    assert set(seen) == {"one factor", "evaluation"} | ({"norm"} if n >= 4 else set())


def _power(ctx, f, k):
    out = FqPoly.from_ints(ctx, [1])
    for _ in range(k):
        out = out.mul(f)
    return out


def test_layer_labels_edge_cases():
    c3 = FqContext.get(3)
    for n in (1, 2, 3):
        fam = orbit_family("B", n, 3)
        f = FqPoly.from_ints(c3, [0] * (2 * n) + [1])  # z^(2n)
        assert phi_map(fam, f).data == ((1,) * n, ()) == factor_label(fam, f)
    # z^2 + 1 = psi(z^2) with psi = y + 1: its root -1 is no square in F_3, so
    # z^2 + 1 is self-conjugate; multiplicity k = 2r + s gives r to lambda_2 and
    # s to mu_1 (the parity path: odd and even passes)
    s1 = FqPoly.from_ints(c3, [1, 0, 1])
    for k, want in [(1, ((), (1,))), (2, ((2,), ())), (3, ((2,), (1,))), (4, ((2, 2), ()))]:
        fam = orbit_family("B", k, 3)
        f = _power(c3, s1, k)
        assert phi_map(fam, f).data == want == factor_label(fam, f)
    # the same beside a conjugate pair (z^2 - 1 = (z - 1)(z + 1)) of multiplicity 2,
    # and for psi = y^2 + y + 2 of degree 2 (z^4 + z^2 + 2, self-conjugate over F_3)
    # with multiplicity 2 and 3
    pair = FqPoly.from_ints(c3, [2, 0, 1])
    quart = FqPoly.from_ints(c3, [2, 0, 1, 0, 1])
    for f, want in [(_power(c3, s1, 3).mul(_power(c3, pair, 2)), ((2, 1, 1), (1,))),
                    (_power(c3, quart, 2), ((4,), ())),
                    (_power(c3, quart, 3).mul(s1), ((4,), (2, 1)))]:
        fam = orbit_family("B", f.degree // 2, 3)
        assert phi_map(fam, f).data == want == factor_label(fam, f)
    # odd m over F_7, where -1 is no square: the norm of the root of psi is
    # (-1)^m psi(0), so the sign decides.  y - 1 has root 1, a square (z^2 - 1
    # is a conjugate pair); y + 1 has root -1, no square (z^2 + 1 is
    # self-conjugate).  For the irreducible cubics y^3 -+ 2 the norms are
    # +-2, and 2 = 3^2 is a square while -2 is not.
    c7 = FqContext.get(7)
    for psi, want in [((6, 1), ((1,), ())), ((1, 1), ((), (1,))),
                      ((5, 0, 0, 1), ((3,), ())), ((2, 0, 0, 1), ((), (3,)))]:
        m = len(psi) - 1
        f = FqPoly.from_ints(c7, [c for a in psi for c in (a, 0)][:-1])  # psi(z^2)
        fam = orbit_family("B", m, 7)
        assert phi_map(fam, f).data == want == factor_label(fam, f), str(f)
    c5 = FqContext.get(5)
    fam = orbit_family("A", 5, 5)
    f = FqPoly.from_ints(c5, [0] * 5 + [1])  # z^5: one layer per copy of z
    assert [(d, j) for d, j, _ in degree_layers(c5, f.coeffs)] == [(1, j) for j in range(1, 6)]
    assert phi_map(fam, f).data == (1,) * 5 == factor_label(fam, f)


def test_layer_checks_raise_on_a_corrupted_layer(monkeypatch):
    c5 = FqContext.get(5)
    f = FqPoly.from_ints(c5, [1, 0, 0, 1, 0, 1])  # degree 5
    layers = degree_layers(c5, f.coeffs)
    check_layers(5, layers)
    d, j, g = layers[0]
    with pytest.raises(RuntimeError):
        check_layers(5, [(d, j, g + [1])] + layers[1:])  # one degree too many
    with pytest.raises(RuntimeError):
        check_layers(5, layers[1:])  # a layer lost
    # a "layer" that does not divide: z + 1, while f(-1) = 1 != 0
    monkeypatch.setattr(gfpoly, "poly_gcd", lambda ctx, a, b: [1, 1])
    with pytest.raises(RuntimeError):
        degree_layers(c5, f.coeffs)


def test_orbits_import_loads_no_group_lattice_or_dataclass_code():
    src = str(Path(coxshuffle.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "import coxshuffle.orbits\n"
        "loaded = [m for m in ('coxshuffle.group', 'coxshuffle.measures',\n"
        "          'coxshuffle.lattice', 'dataclasses') if m in sys.modules]\n"
        "ns = {}\n"
        "exec('from coxshuffle import *', ns)\n"
        "import coxshuffle\n"
        "missing = [n for n in coxshuffle.__all__ if n not in ns]\n"
        "print(json.dumps([loaded, missing]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded, missing = json.loads(out)
    assert loaded == [] and missing == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # each `coxshuffle verify` is a fresh process, so the CLI import is paid per suite
    src = str(Path(coxshuffle.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "import coxshuffle.cli\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == []
