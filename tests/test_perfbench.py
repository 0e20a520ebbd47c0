"""The benchmark's own oracle tests (``perfbench/test_oracles.py``), run as
its README runs them, in a subprocess: a package change that breaks what
the benchmark reads (``WMeasure.dense``, ``gfpoly.irreducibles``,
``gfpoly.factor``, ...) fails here, not first in a benchmark run.  The
same ``ast`` reading keeps src/ to what a command, a suite or the benchmark
runs: a definition that nothing in src/ reads fails unless a short list
gives its reason."""

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


# Definitions in src/ that no code in src/ reads, each with its reason.  A
# benchmark entry also needs perfbench/ to read the name; every entry must
# still be defined and unread in src/, so none outlives its reason.
BENCHMARK_READS = "perfbench/ reads it"
UNREAD_ALLOWED = {
    "CoxeterGroup.parabolic_data": BENCHMARK_READS,
    "CoxeterGroup.coset_minreps": BENCHMARK_READS,
    "CoxeterGroup.standard_parabolic_mask": BENCHMARK_READS,
    "IntersectionLattice.bottom_id": BENCHMARK_READS,
    "WMeasure.dense": BENCHMARK_READS,
    "CoxeterGroup.multiply": "element-level API of an exported class; tests use it as an oracle",
    "WMeasure.value": "element-level API of an exported class; tests use it as an oracle",
    "necklace_irreducible_count": "ROADMAP item 5 (orbit class distributions) reads it",
}


def unread_definitions(sources):
    """The defs and classes of the sources, {file name: text}, that none of
    them reads, dunders aside: a method (as Class.name) is read by an
    attribute of its name, any other definition by a loaded Name, an
    import, or a key of the package's lazy-export table ``_SUBMODULE``."""
    defs, attrs, names = [], set(), set()
    for text in sources.values():
        tree = ast.parse(text)
        methods = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        methods.add(item)
                        defs.append((f"{node.name}.{item.name}", item.name, attrs))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node not in methods:
                    defs.append((node.name, node.name, names))
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "_SUBMODULE" for t in node.targets):
                names.update(key.value for key in node.value.keys)
    return sorted(qualified for qualified, name, reads in defs
                  if not (name.startswith("__") and name.endswith("__")) and name not in reads)


def reader_check_failures(sources, allowed, benchmark_reads):
    """One line per unread definition of the sources that ``allowed`` does
    not list, and per stale entry of ``allowed``."""
    unread = unread_definitions(sources)
    out = [f"{name}: nothing in src/ reads it" for name in unread if name not in allowed]
    for name, reason in allowed.items():
        if name not in unread:
            out.append(f"{name}: allowed as unread, but src/ reads it or it is gone")
        elif reason == BENCHMARK_READS and name.rpartition(".")[2] not in benchmark_reads:
            out.append(f"{name}: allowed for perfbench/, which no longer reads it")
    return out


def package_sources():
    return {path.name: path.read_text()
            for path in sorted((ROOT / "src" / "coxshuffle").glob("*.py"))}


def benchmark_reads():
    reads = set()
    for tree in benchmark_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.Name):
                reads.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                reads.update(alias.name for alias in node.names)
    return reads


def test_every_package_definition_has_a_reader():
    assert reader_check_failures(package_sources(), UNREAD_ALLOWED, benchmark_reads()) == []


SYNTHETIC = '''
_SUBMODULE = {"entry": "a"}


class C:
    def used(self):
        return 1

    def sub(self):
        return 2


def entry():
    sub = C()
    return sub.used()


def orphan():
    return entry
'''


def test_the_reader_check_fails_on_an_unread_def_and_a_stale_entry():
    # the local variable sub is no read of the method C.sub; entry is read
    # by its _SUBMODULE key, C by name, C.used by attribute
    sources = {"a.py": SYNTHETIC}
    assert unread_definitions(sources) == ["C.sub", "orphan"]
    assert reader_check_failures(sources, {"C.sub": "a reason"}, set()) == [
        "orphan: nothing in src/ reads it"]
    allowed = {"C.sub": BENCHMARK_READS, "orphan": "a reason", "entry": "a reason",
               "gone": "a reason"}
    assert reader_check_failures(sources, allowed, set()) == [
        "C.sub: allowed for perfbench/, which no longer reads it",
        "entry: allowed as unread, but src/ reads it or it is gone",
        "gone: allowed as unread, but src/ reads it or it is gone",
    ]
    assert reader_check_failures(sources, allowed, {"sub"})[0].startswith("entry:")
