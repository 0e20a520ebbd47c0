"""The benchmark's own oracle tests (``perfbench/test_oracles.py``), run as
its README runs them, in a subprocess: a package change that breaks what
the benchmark reads (``WMeasure.dense``, ``gfpoly.irreducibles``,
``gfpoly.factor``, ...) fails here, not first in a benchmark run."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_oracle_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr


def benchmark_trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted((ROOT / "perfbench").glob("*.py"))}


def test_every_package_name_the_benchmark_imports_exists():
    # the layer run imports inside its function, which only a traced run
    # calls, so a name gone from the package would fail there first
    found, missing = [], []
    for name, tree in benchmark_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coxshuffle"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    found.append(alias.name)
                    if not hasattr(module, alias.name):
                        missing.append(f"{name}: from {node.module} import {alias.name}")
    assert {"enumerate_group", "build_lattice", "get_lattice", "irreducibles"} <= set(found)
    assert not missing


def test_every_group_and_lattice_method_the_layer_run_calls_exists():
    from coxshuffle.group import get_group
    from coxshuffle.lattice import build_lattice

    g = get_group("A2")
    objects = {"g": g, "lat": build_lattice(g.root_system)}
    called = {(node.value.id, node.attr) for node in ast.walk(benchmark_trees()["layers.py"])
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in objects}
    assert {("g", "coset_minreps"), ("g", "parabolic_data"), ("g", "standard_parabolic_mask"),
            ("lat", "char_poly"), ("lat", "bottom_id")} <= called
    assert not [f"{obj}.{attr}" for obj, attr in sorted(called)
                if not hasattr(objects[obj], attr)]
