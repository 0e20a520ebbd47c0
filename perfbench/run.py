"""The benchmark command.

    python3 perfbench/run.py --workload cold_verify --seed 1 --seconds 25 --trace 0

Workloads, each run in fresh child processes whose environment has
COXSHUFFLE_CACHE and COXSHUFFLE_NO_EXT removed:

  cold_verify    the 15 `coxshuffle verify <suite>` default grids, one fresh
                 process per suite, in a fixed order; one op is one suite
  warm_measures  H(W, x) by every method on A4, A5, B4, D4, H3, H4 after a
                 warm set-up; one op is one x across the six types
  fq_classmap    every orbit of five very-good F_q families through the
                 class map; one op is a fixed slice of every family

With --trace 0 the run prints the end-to-end metrics.  Their times are
scaled by a host-speed reference run in the timed process itself (speed.py),
so that the host's changes of speed cancel.  With --trace 1 it runs the
traced layer run instead (work.py layers, then the CLI import and one fresh
process per suite) and prints the per-layer metrics, raw.  Every output is
checked against oracles.py.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; a copy with the
raw samples and the run's environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import oracles  # noqa: E402

WORKLOADS = ("cold_verify", "warm_measures", "fq_classmap")
SUITES = layers.SUITES
# Set-up is measured on probes: fresh processes that stop where the timed
# part would begin, spread over the run (cold_verify: one after every op; the
# others: PROBES_AROUND before and after the timed child, whose own set-up is
# a probe too).  setup_s is the median of the probes' scaled times.
PROBES_AROUND = {"warm_measures": (0, 1), "fq_classmap": (10, 10)}
CLI_IMPORT_REPEATS = 5  # for the traced cli.import_ms
DEADLINE_S = 170.0  # children still running then are killed
# package switches, plus what would change how the package is found or
# whether its bytecode is cached as in a normal install
CLEARED_ENV = ("COXSHUFFLE_CACHE", "COXSHUFFLE_NO_EXT", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")


class BenchError(Exception):
    pass


class Children:
    """Starts child interpreters one at a time, in the checkout, with the
    isolated environment, and kills any still running at the deadline."""

    def __init__(self, seconds_left: float):
        self.deadline = time.monotonic() + seconds_left
        self.env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, args) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("deadline passed before a child could start")
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=left)

    def verify_child(self, *args) -> dict:
        """verify_child.py's result: one suite, or the CLI import alone."""
        r = self.run([str(BENCH / "verify_child.py"), *args])
        try:
            return json.loads(r.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"verify_child.py {' '.join(args)} exited {r.returncode} "
                             f"with no result: {r.stderr.strip()[-2000:]}") from None

    def import_cli(self) -> dict:
        """A fresh process importing coxshuffle.cli: scaled_s, raw_s, kernel_backend."""
        res = self.verify_child("--import-only")
        if res["code"] != 0:
            raise BenchError("importing coxshuffle.cli failed")
        return res

    def verify_round(self, tracer=None, after_op=None):
        """Every suite once, each in a fresh process that runs it as
        `coxshuffle verify <suite>` does: (suite, exit code, report) per
        suite, and the child's results."""
        outputs, results = [], []
        for suite in SUITES:
            with tracer.span("cli.verify", suite=suite) if tracer else nullcontext():
                res = self.verify_child(suite)
            outputs.append((suite, res["code"], res["report"]))
            results.append(res)
            if after_op:
                after_op()
        return outputs, results

    def work(self, mode, seed, seconds=0.0, setup_only=False, extra=()):
        args = [str(BENCH / "work.py"), mode, "--seed", str(seed), "--seconds", str(seconds),
                *extra]
        if setup_only:
            args.append("--setup-only")
        r = self.run(args)
        if r.returncode != 0:
            raise BenchError(f"{mode} child exited {r.returncode}: {r.stderr.strip()[-2000:]}")
        return json.loads(r.stdout.strip().splitlines()[-1])


def check_verify(outputs):
    """(oracle problems, failed ops): a suite fails as an op when its
    process crashes or prints no report; a report that says fail, or whose
    longshort rows disagree with the exponent table, is a wrong answer."""
    problems, failed = [], 0
    for suite, code, text in outputs:
        try:
            report = json.loads(text)
        except ValueError:
            report = None
        if code not in (0, 1) or not isinstance(report, dict):
            failed += 1
            continue
        problems += oracles.check_suite_report(suite, code, report)
    return problems, failed


def cold_verify(children, seconds):
    rec = {"setup_probes_s": [], "setup_probes_raw_s": [], "rounds_s": [], "op_s": [],
           "op_raw_s": [], "failed": 0, "problems": []}

    def probe():
        res = children.import_cli()
        rec["setup_probes_s"].append(res["scaled_s"])
        rec["setup_probes_raw_s"].append(res["raw_s"])

    start = time.monotonic()
    while not rec["rounds_s"] or time.monotonic() - start < seconds:
        t0 = time.monotonic()
        outputs, results = children.verify_round(after_op=probe)
        rec["rounds_s"].append(time.monotonic() - t0)
        rec["op_s"].append([res["scaled_s"] for res in results])
        rec["op_raw_s"].append([res["raw_s"] for res in results])
        problems, failed = check_verify(outputs)
        rec["problems"] += problems
        rec["failed"] += failed
    rec["kernel_backend"] = results[-1]["kernel_backend"]
    return rec


def child_workload(children, workload, seed, seconds):
    def probes(count):
        return [children.work(workload, seed, setup_only=True) for _ in range(count)]

    before, after = PROBES_AROUND[workload]
    first = probes(before)
    full = children.work(workload, seed, seconds)
    every = first + [{"setup_s": full.pop("setup_s"), "setup_raw_s": full.pop("setup_raw_s")}]
    every += probes(after)
    full["setup_probes_s"] = [p["setup_s"] for p in every]
    full["setup_probes_raw_s"] = [p["setup_raw_s"] for p in every]
    return full


def end_to_end(children, workload, seed, seconds):
    if workload == "cold_verify":
        raw = cold_verify(children, seconds)
    else:
        raw = child_workload(children, workload, seed, seconds)
    # Every round runs the same ops: each op's time is the median of its
    # scaled times over the run's rounds, and wall_s is the sum over one round.
    op = [statistics.median(lat) for lat in zip(*raw["op_s"])]
    wall = sum(op)
    metrics = {
        "setup_s": (statistics.median(raw["setup_probes_s"]), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(op) / wall, "1/s"),
        "op_p50_ms": (statistics.median(op) * 1000.0, "ms"),
        "op_p90_ms": (statistics.quantiles(op, n=10)[8] * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, sum(len(lat) for lat in raw["op_s"]), raw


def traced(children, workload, seed):
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{workload}-seed{seed}"
    raw = children.work("layers", seed, extra=["--trace-file", f"{stem}.layers.jsonl"])
    values = raw["metrics"]
    tracer = layers.Tracer()
    imports = []
    for _ in range(CLI_IMPORT_REPEATS):
        with tracer.span("cli.import"):
            res = children.import_cli()
        imports.append(res["raw_s"])
    raw["kernel_backend"] = res["kernel_backend"]
    values["cli.import_ms"] = statistics.median(imports) * 1000.0
    outputs, results = children.verify_round(tracer)
    tracer.write(f"{stem}.cli.jsonl")
    for suite, res in zip(SUITES, results):
        values[f"suites.{suite}_s"] = res["raw_s"]
    problems, raw["failed"] = check_verify(outputs)
    raw["problems"] += problems
    missing = [n for n in layers.METRICS if n not in values]
    if missing:
        raise BenchError(f"traced run did not measure {missing}")
    metrics = {n: (values[n], layers.unit_of(n)) for n in layers.METRICS}
    return metrics, len(SUITES) + 1, raw


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "coxshuffle" / "__init__.py").is_file():
        print(f"error: no coxshuffle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    children = Children(DEADLINE_S)
    try:
        if args.trace:
            metrics, attempted, raw = traced(children, args.workload, args.seed)
        else:
            metrics, attempted, raw = end_to_end(children, args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = {"kernel_backend": raw.pop("kernel_backend"), "python": platform.python_version(),
           "nproc": os.cpu_count(), "git_sha": git_sha(), "machine": platform.machine(),
           "tuning": "none: no CPU pinning, no governor changes"}
    result = {"correct": not raw["problems"], "attempted": attempted, "failed": raw["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    for problem in raw["problems"][:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "result": result, "raw": raw}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
