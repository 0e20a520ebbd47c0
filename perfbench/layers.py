"""Traced run: times each layer of coxshuffle from outside, through its
public functions, in one fresh process, and keeps a span per call.

Imported by ``work.py layers``; ``run.py --trace 1`` adds the CLI import
and one fresh-process run per suite, then prints ``METRICS``.

Group enumeration is timed on groups built here with ``enumerate_group``;
those are never handed to ``coxshuffle.measures``, whose lattice registry is
keyed by ``id(group)`` and can return a dead group's lattice.  The measures
layer gets only ``get_group`` groups.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import oracles
from work import (CONVOLVE_MAX, FQ_FAMILIES, MEASURE_TYPES, methods_for, sieve_degrees,
                  warm_check, warm_setup, x_list)

GROUP_TYPES = ("A5", "B4", "D4", "H3", "H4")  # A4 dropped: smallest, keeps the total <= 128
GR_GRID = ((5, 3, "normal_basis"), (3, 2, "normal_basis"), (3, 3, "normal_basis"),
           (3, 4, "normal_basis"), (5, 3, "golomb"), (3, 4, "golomb"))
FACTOR_SAMPLE = 200  # polynomials per family tag for the per-call factor time
SUITES = ("triple_agreement", "longshort", "sommers", "convolution", "h4_counterexample",
          "spectrum", "walk_oracle", "nonnegativity", "problem1_A", "problem1_B",
          "sl35_counterexample", "gr_census", "reiner_counts", "ornament_counts",
          "sampler_tv")


def family_key(tag, n, q):
    return f"{tag}-n{n}-q{q}"


def _metric_names():
    names = []
    for t in GROUP_TYPES:
        names += [f"group.{m}.{t}" for m in
                  ("enumerate_ms", "classes_ms", "parabolic_ms", "coset_minreps_ms", "elements")]
        names += [f"lattice.{m}.{t}" for m in ("build_ms", "moebius_ms", "flats", "moebius_bottoms")]
    for t in MEASURE_TYPES:
        names += [f"measures.h_ms.{m}.{t}" for m in methods_for(t)]
        names += [f"measures.{m}.{t}" for m in ("compare_ms", "walk_ms", "pushforward_ms")]
        if oracles.group_order(t) <= CONVOLVE_MAX:
            names.append(f"measures.convolve_ms.{t}")
    for q in sieve_degrees():
        names += [f"gfpoly.sieve_ms.q{q}", f"gfpoly.irreducibles.q{q}"]
    names += ["gfpoly.factor_us.A", "gfpoly.factor_us.B"]
    for fam in FQ_FAMILIES:
        key = family_key(*fam)
        names += [f"orbits.enumerate_ms.{key}", f"orbits.classmap_ms.{key}", f"orbits.count.{key}"]
    names += ["necklaces.refine_ms", "necklaces.ornaments_ms", "shuffling.empirical_ms",
              "cli.import_ms"]
    names += [f"suites.{s}_s" for s in SUITES]
    return names


METRICS = _metric_names()


def unit_of(name: str) -> str:
    kind = name.split(".")[1]
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if kind.endswith(suffix):
            return unit
    return "count"


class Tracer:
    """Spans kept in memory: name, start, end, parent span, tags."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **tags):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        t0 = time.perf_counter()
        rec = {"id": sid, "name": name, "parent": parent, **tags}
        try:
            yield rec
        finally:
            rec["start"], rec["end"] = t0, time.perf_counter()
            self._open.pop()
            self.spans[sid] = rec

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _ms(rec):
    return (rec["end"] - rec["start"]) * 1000.0


def _all_subsets(r):
    return [frozenset(i for i in range(r) if m >> i & 1) for m in range(1 << r)]


def run(seed: int, trace_file=None):
    """(every per-layer metric this process measures, by name; the oracle
    problems found in the outputs of the timed calls).  The checks run
    after the timing."""
    tr = Tracer()
    out, problems = {}, []
    with tr.span("import"):
        from coxshuffle.gfpoly import FqContext, factor, irreducibles, monic_polys
        from coxshuffle.group import enumerate_group
        from coxshuffle.lattice import build_lattice
        from coxshuffle.measures import (bhr_step, convolve, face_weights, h_measure,
                                         longshort_values, pushforward_classes)
        from coxshuffle.necklaces import (count_signed_ornaments, enumerate_signed_ornaments,
                                          refine_phi_A)
        from coxshuffle.orbits import enumerate_orbits, orbit_family, phi_map
        from coxshuffle.rootdata import parse_type
        from coxshuffle.shuffling import empirical_law
    rng = random.Random(seed)

    # gfpoly first, while the irreducible caches are empty
    for q, top in sieve_degrees().items():
        ctx = FqContext.get(q)
        with tr.span("gfpoly.irreducibles", q=q, degrees=top) as s:
            count = sum(len(irreducibles(ctx, d)) for d in range(1, top + 1))
        out[f"gfpoly.sieve_ms.q{q}"] = _ms(s)
        out[f"gfpoly.irreducibles.q{q}"] = count
        problems += oracles.check_irreducibles(q, top, count)

    polys = {"A": [], "B": []}
    for tag, n, q in FQ_FAMILIES:
        key = family_key(tag, n, q)
        fam = orbit_family(tag, n, q)
        with tr.span("orbits.enumerate_orbits", family=key) as s:
            fs = list(enumerate_orbits(fam))
        out[f"orbits.enumerate_ms.{key}"] = _ms(s)
        with tr.span("orbits.phi_map", family=key) as s:
            labels = [phi_map(fam, f) for f in fs]
        out[f"orbits.classmap_ms.{key}"] = _ms(s)
        out[f"orbits.count.{key}"] = len(fs)
        problems += oracles.check_fq_family(tag, n, q, Counter(k.data for k in labels))
        polys[tag] += fs
    for tag, fs in polys.items():
        times = []
        for f in rng.sample(fs, FACTOR_SAMPLE):
            with tr.span("gfpoly.factor", tag=tag, degree=f.degree) as s:
                factor(f)
            times.append(_ms(s) * 1000.0)
        out[f"gfpoly.factor_us.{tag}"] = statistics.median(times)
    del polys

    for t in GROUP_TYPES:
        rs = parse_type(t)
        ks = _all_subsets(rs.rank)
        with tr.span("group.enumerate_group", type=t) as s:
            g = enumerate_group(rs)
        out[f"group.enumerate_ms.{t}"] = _ms(s)
        out[f"group.elements.{t}"] = g.size
        with tr.span("group.conjugacy_classes", type=t) as s:
            g.conjugacy_classes()
        out[f"group.classes_ms.{t}"] = _ms(s)
        with tr.span("group.parabolic_data", type=t, subsets=len(ks)) as s:
            for k in ks:
                g.parabolic_data(k)
        out[f"group.parabolic_ms.{t}"] = _ms(s)
        with tr.span("group.coset_minreps", type=t, subsets=len(ks)) as s:
            for k in ks:
                g.coset_minreps(k)
        out[f"group.coset_minreps_ms.{t}"] = _ms(s)
        masks = [g.standard_parabolic_mask(k) for k in ks]
        size = g.size
        del g
        with tr.span("lattice.build_lattice", type=t) as s:
            lat = build_lattice(rs)
        out[f"lattice.build_ms.{t}"] = _ms(s)
        out[f"lattice.flats.{t}"] = len(lat)
        bottoms = sorted({lat.mask_to_id[m] for m in masks})
        with tr.span("lattice.char_poly", type=t, bottoms=len(bottoms)) as s:
            for fid in bottoms:
                lat.char_poly(fid)
        out[f"lattice.moebius_ms.{t}"] = _ms(s)
        out[f"lattice.moebius_bottoms.{t}"] = len(bottoms)
        problems += oracles.check_group(t, size, lat.char_poly(lat.bottom_id()).coefficients)
        del lat

    xs = list(dict.fromkeys(x_list(seed)))  # every distinct x of a warm_measures round
    with tr.span("measures.warm_setup"):
        state = warm_setup()
    outputs = []  # in the shape of work.warm_op's, for work.warm_check
    for t in MEASURE_TYPES:
        g, h2 = state[t]
        methods = methods_for(t)
        samples = {}
        for x in xs:
            ms = []
            for m in methods:
                with tr.span("measures.h_measure", type=t, method=m, x=str(x)) as s:
                    ms.append(h_measure(g, x, m))
                samples.setdefault(f"measures.h_ms.{m}.{t}", []).append(_ms(s))
            with tr.span("measures.compare", type=t, x=str(x)) as s:
                agree = all(m == ms[0] for m in ms[1:])
            samples.setdefault(f"measures.compare_ms.{t}", []).append(_ms(s))
            with tr.span("measures.bhr_step", type=t, x=str(x)) as s:
                walk = bhr_step(g, face_weights(g, x))
            samples.setdefault(f"measures.walk_ms.{t}", []).append(_ms(s))
            with tr.span("measures.pushforward_classes", type=t, x=str(x)) as s:
                push = pushforward_classes(ms[0])
            samples.setdefault(f"measures.pushforward_ms.{t}", []).append(_ms(s))
            conv = None
            if h2 is not None:
                with tr.span("measures.convolve", type=t, x=str(x)) as s:
                    conv = convolve(ms[0], h2)
                samples.setdefault(f"measures.convolve_ms.{t}", []).append(_ms(s))
            outputs.append([(t, x, ms, agree, longshort_values(g, x), push, walk == ms[0], conv)])
        out.update({k: statistics.median(v) for k, v in samples.items()})
    problems += warm_check(state, outputs)

    with tr.span("necklaces.refine_phi_A") as s:
        for q, n, mode in GR_GRID:
            for f in monic_polys(FqContext.get(q), n):
                refine_phi_A(f, mode)
    out["necklaces.refine_ms"] = _ms(s)
    with tr.span("necklaces.signed_ornaments") as s:
        for n, q in itertools.product((1, 2, 3, 4), (3, 5, 7)):
            count_signed_ornaments(n, q)
            sum(1 for _ in enumerate_signed_ornaments(n, q))
    out["necklaces.ornaments_ms"] = _ms(s)
    with tr.span("shuffling.empirical_law") as s:
        empirical_law("gsr_a", 4, 2, 100000, seed)
        empirical_law("typeB_flip", 3, 3, 100000, seed)
    out["shuffling.empirical_ms"] = _ms(s)

    if trace_file:
        tr.write(trace_file)
    return out, problems

