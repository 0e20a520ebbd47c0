"""Byte-stable CSV/JSON table emitters for the CLI."""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Sequence

from .gfpoly import factor
from .golden import format_scalar
from .group import CoxeterGroup
from .linalg import Subspace, nullspace
from .measures import get_lattice, h_measure
from .orbits import OrbitFamily, enumerate_orbits, phi_map
from .rootdata import RootSystem


def _emit(rows: List[dict], fieldnames: Sequence[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def elements_table(g: CoxeterGroup, fmt: str = "csv") -> str:
    g.conjugacy_classes()
    rows = []
    for i in range(g.size):
        rows.append(
            {
                "index": i,
                "length": g.length[i],
                "descents": " ".join(str(d + 1) for d in sorted(g.descent_set(i))),
                "inverse": g.inverse[i],
                "class_label": str(g.conjugacy_classes()[g.class_of(i)].label),
            }
        )
    return _emit(rows, ["index", "length", "descents", "inverse", "class_label"], fmt)


def classes_table(g: CoxeterGroup, fmt: str = "csv") -> str:
    rows = [
        {
            "class_label": str(c.label),
            "size": len(c.members),
            "representative": c.representative,
            "rep_length": g.length[c.representative],
        }
        for c in g.conjugacy_classes()
    ]
    return _emit(rows, ["class_label", "size", "representative", "rep_length"], fmt)


def fixed_space(rs: RootSystem, K) -> Subspace:
    """The subspace fixed by the standard parabolic W_K, in simple-root
    coordinates: the common kernel of the Cartan-like rows indexed by K."""
    rows = [rs.cartan_like_matrix[i] for i in sorted(K)]
    one = rs.cartan_like_matrix[0][0] / rs.cartan_like_matrix[0][0]
    return nullspace(rows, rs.rank, one=one)


def parabolics_table(g: CoxeterGroup, fmt: str = "csv") -> str:
    rows = []
    for pd in g.parabolic_table():
        K = [i for i in range(g.rank) if pd.mask >> i & 1]
        fixed = fixed_space(g.root_system, K)
        rows.append(
            {
                "K": " ".join(str(i + 1) for i in K),
                "subgroup_order": pd.subgroup_order,
                "fixed_dim": fixed.dim,
                "fixed_basis": ";".join(
                    " ".join(format_scalar(x) for x in row) for row in fixed.basis
                ),
                "normalizer_order": pd.normalizer_order,
                "lambda_count": pd.lambda_count,
                "conjugacy_rep": " ".join(str(i + 1) for i in pd.conjugacy_rep),
            }
        )
    return _emit(
        rows,
        ["K", "subgroup_order", "fixed_dim", "fixed_basis", "normalizer_order",
         "lambda_count", "conjugacy_rep"],
        fmt,
    )


def lattice_table(g: CoxeterGroup, fmt: str = "csv") -> str:
    lat = get_lattice(g)
    mu = lat.moebius_from()
    rows = [
        {"flat_id": i, "dim": lat.flat_dim(i), "moebius_from_V": mu[i]}
        for i in range(len(lat))
    ]
    return _emit(rows, ["flat_id", "dim", "moebius_from_V"], fmt)


def measure_table(g: CoxeterGroup, xs, method: str, fmt: str = "csv") -> str:
    """One row per descent set, by size and then by its sorted members; one
    value column pair per x in the list xs."""
    tables = [h_measure(g, x, method).descent_table() for x in xs]
    g.conjugacy_classes()
    rep_of_descent: Dict[int, int] = {}
    for i in range(g.size):  # length order
        rep_of_descent.setdefault(g.descent_mask[i], i)
    single = len(xs) == 1
    val_cols = []
    for x in xs:
        tag = "" if single else f"_x{x}"
        val_cols.extend([f"value_num{tag}", f"value_den{tag}"])
    rows = []
    members = [[i for i in range(g.rank) if D >> i & 1] for D in range(1 << g.rank)]
    for D in sorted(range(1 << g.rank), key=lambda D: (len(members[D]), members[D])):
        rep = rep_of_descent[D]
        row = {"descent_set": " ".join(str(d + 1) for d in members[D])}
        for x, values in zip(xs, tables):
            tag = "" if single else f"_x{x}"
            v = values[D]
            row[f"value_num{tag}"] = v.numerator
            row[f"value_den{tag}"] = v.denominator
        row["class_label"] = str(g.conjugacy_classes()[g.class_of(rep)].label)
        rows.append(row)
    return _emit(rows, ["descent_set"] + val_cols + ["class_label"], fmt)


def orbits_table(fam: OrbitFamily, fmt: str = "csv") -> str:
    rows = []
    for f in enumerate_orbits(fam):
        fac = factor(f)
        label = phi_map(fam, f)
        row = {"poly": str(f), "factorization": str(fac)}
        if fam.tag == "B":
            lam, mu = label.data
            row["lambda"] = " ".join(map(str, lam))
            row["mu"] = " ".join(map(str, mu))
            fields = ["poly", "factorization", "lambda", "mu"]
        else:
            row["partition"] = " ".join(map(str, label.data))
            fields = ["poly", "factorization", "partition"]
        rows.append(row)
    return _emit(rows, fields, fmt)

