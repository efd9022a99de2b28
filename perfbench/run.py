"""diffam benchmark: construct/verify wall time and memory, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    every workload in turn
    python3 perfbench/run.py --smoke [--trace 1]   every workload once, toy sizes

Run from the root of a diffam checkout; the package is imported from
``src``.  One process runs one child at a time (closed loop, one client).
Untraced passes run ``python -m diffam.cli`` as separate processes, as the
``diffam`` script does, or, for ``sweep``, one in-process API child.  Each
run repeats whole passes until the next would overrun ``--seconds`` and
reports medians over passes:

    setup_s       fresh interpreter importing diffam.cli, then exiting
    construct_s   wall time of the pass's construct operations
    verify_s      wall time of the pass's verify operations
    peak_rss_mb   largest ru_maxrss among the pass's child processes

The three timings are rescaled by the host speed measured between the
operations of the same pass (``speed.py``), because the shared hosts this
runs on change speed by up to 1.6x for minutes at a time; the raw wall
times are printed beside them.

Every operation is checked against the pinned oracle in ``pins.json``;
``attempted`` and ``failed`` count operations, and the run exits 1 when
any check fails.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``tracer.py`` instead, in raw wall time.  The last line of
stdout is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer
import workloads
from speed import REFERENCE_S, probe_gap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
CHILD = HERE / "child.py"
SPAWNER = HERE / "spawner.py"

END_TO_END = {"setup_s": "s", "construct_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES_PER_PASS = 3
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends inside 180 s


@dataclass
class Child:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Pass:
    construct_s: float = 0.0
    verify_s: float = 0.0
    peak_rss_mb: float = 0.0
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    probes: list = field(default_factory=list)  # speed.reference_loop times around the operations
    traced: list = field(default_factory=list)  # span files + child wall, traced passes only

    @property
    def speed(self) -> float:
        """Host speed during the pass relative to ``speed.REFERENCE_S``."""
        return REFERENCE_S / statistics.median(self.probes)


class Runner:
    """Runs child processes one at a time through ``spawner.py``, inside
    the run's time limit.  Use as a context manager: it owns the spawner."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started

    def __enter__(self) -> "Runner":
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(SPAWNER)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def child(self, argv: list[str]) -> Child:
        budget = RUN_LIMIT_S - (perf_counter() - self.started)
        if budget <= 0:
            return Child(-1, 0.0, 0.0, "", "not started: run time limit reached")
        if any(ch in arg for arg in argv for ch in "\t\n"):
            raise ValueError(f"arguments must not contain tabs or newlines: {argv}")
        out_path, err_path = self.workdir / ".stdout", self.workdir / ".stderr"
        request = [str(budget), str(self.workdir), str(out_path), str(err_path), sys.executable] + argv
        self.spawner.stdin.write("\t".join(request) + "\n")
        self.spawner.stdin.flush()
        code, maxrss_kb, wall = self.spawner.stdout.readline().split("\t")
        return Child(
            int(code), float(wall), int(maxrss_kb) / 1024.0,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )


def _report_failure(what: str, child: Child, reason: str) -> None:
    tail = child.stderr.strip().splitlines()[-1:] or [""]
    print(f"FAILED {what}: {reason} (exit {child.code}) {tail[0]}", file=sys.stderr)


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def cli_pass(runner: Runner, ops: list[workloads.Op], traced: bool) -> Pass:
    for stale in runner.workdir.glob("*.json"):
        stale.unlink()
    result = Pass()
    t0 = perf_counter()
    for i, op in enumerate(ops):
        if traced:
            spans = runner.workdir / f".spans{i}"
            argv = [str(CHILD), "--spans", str(spans), "cli", *op.args]
        else:
            argv = ["-m", "diffam.cli", *op.args]
        result.probes += probe_gap()
        child = runner.child(argv)
        if op.phase == "construct":
            result.construct_s += child.wall
        else:
            result.verify_s += child.wall
        result.peak_rss_mb = max(result.peak_rss_mb, child.rss_mb)
        result.attempted += 1
        what = " ".join(op.args)
        if child.code != 0:
            reason = "exit code"
        elif child.stdout.strip() != op.line:
            reason = f"stdout {child.stdout.strip()!r}, expected {op.line!r}"
        elif op.out and _sha256(runner.workdir / op.out) != op.sha256:
            reason = f"{op.out} does not match its pinned sha256"
        else:
            reason = None
        if reason:
            result.failed += 1
            _report_failure(what, child, reason)
        if traced and child.code == 0:
            data = json.loads(spans.read_text(encoding="utf-8"))
            data["wall"] = child.wall
            result.traced.append(data)
    result.probes += probe_gap()
    result.wall = perf_counter() - t0
    return result


def sweep_pass(runner: Runner, items: list, traced: bool, smoke: bool) -> Pass:
    spec = runner.workdir / "sweep-items.json"
    spans = runner.workdir / ".spans"
    argv = [str(CHILD)] + (["--spans", str(spans)] if traced else []) + ["sweep", str(spec)]
    t0 = perf_counter()
    child = runner.child(argv)
    result = Pass(wall=perf_counter() - t0, peak_rss_mb=child.rss_mb, attempted=len(items))
    try:
        out = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        _report_failure("sweep", child, "no JSON result")
        result.failed = len(items)
        result.probes += probe_gap()
        return result
    result.construct_s, result.verify_s = out["construct_s"], out["verify_s"]
    result.probes = out["probes"]
    pins = workloads.PINS["sweep"]["smoke" if smoke else "full"]
    tallies: dict[str, list[int]] = {}
    for item, (blocks, ok, digest) in zip(items, out["results"]):
        key = workloads.sweep_key(item)
        if blocks == workloads.sweep_expected_blocks(item) and ok and digest == pins["digests"].get(key):
            slot = (item[0] == "ring") * 2 + item[3]
            tallies.setdefault(str(item[2]), [0, 0, 0, 0])[slot] += 1
        else:
            result.failed += 1
            print(f"FAILED sweep {key}: blocks={blocks} verified={ok} digest={digest}", file=sys.stderr)
    result.failed += len(items) - len(out["results"])
    if tallies != pins["tallies"]:
        print(f"sweep tallies {tallies} differ from pinned {pins['tallies']}", file=sys.stderr)
        result.failed = max(result.failed, 1)
    if traced and child.code == 0:
        data = json.loads(spans.read_text(encoding="utf-8"))
        data["wall"] = child.wall
        result.traced.append(data)
    return result


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def describe(values: list[float]) -> str:
    """Median, plus the highest whole percentile with at least ten samples
    above it, and the sample count."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n >= 11:
        p = math.floor(100 * (1 - 10 / n))
        text += f", p{p} {percentile(values, p):.6g}"
    return text + f" (n={n})"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    started = perf_counter()
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with Runner(workdir, started) as runner:
        return _measure(runner, name, seed, seconds, trace, smoke)


def _measure(runner: Runner, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workdir = runner.workdir
    if name == "sweep":
        items = workloads.sweep_items(seed, smoke)
        (workdir / "sweep-items.json").write_text(json.dumps(items), encoding="utf-8")
        one_pass = lambda traced: sweep_pass(runner, items, traced, smoke)  # noqa: E731
    else:
        ops = workloads.cli_ops(name, seed, smoke)
        one_pass = lambda traced: cli_pass(runner, ops, traced)  # noqa: E731
    runner.child(["-c", "import diffam.cli"])  # compiles bytecode once, untimed

    samples: dict[str, list[float]] = {metric: [] for metric in END_TO_END}
    raw: dict[str, list[float]] = {metric: [] for metric in ("setup_s", "construct_s", "verify_s")}
    speeds: list[float] = []
    layers: dict[str, list[float]] = {metric: [] for metric in tracer.PER_LAYER_UNITS}
    attempted = failed = rounds = 0
    while True:
        rounds += 1
        setup = [] if trace else [
            runner.child(["-c", "import diffam.cli"]).wall for _ in range(SETUP_SAMPLES_PER_PASS)
        ]
        plain = one_pass(False)
        attempted += plain.attempted
        failed += plain.failed
        speeds.append(plain.speed)
        raw["setup_s"] += setup
        raw["construct_s"].append(plain.construct_s)
        raw["verify_s"].append(plain.verify_s)
        samples["setup_s"] += [wall * plain.speed for wall in setup]
        samples["construct_s"].append(plain.construct_s * plain.speed)
        samples["verify_s"].append(plain.verify_s * plain.speed)
        samples["peak_rss_mb"].append(plain.peak_rss_mb)
        if trace:
            traced = one_pass(True)
            attempted += traced.attempted
            failed += traced.failed
            per_layer = tracer.layer_metrics(traced.traced, traced.wall)
            untraced_s = plain.wall * plain.speed
            per_layer["trace_overhead_frac"] = (traced.wall * traced.speed - untraced_s) / untraced_s
            for metric, value in per_layer.items():
                layers[metric].append(value)
        elapsed = perf_counter() - runner.started
        if smoke or elapsed + elapsed / rounds > seconds:
            break

    chosen = layers if trace else samples
    units = tracer.PER_LAYER_UNITS if trace else END_TO_END
    print(f"workload {name} seed {seed}: {rounds} passes, {attempted} operations, {failed} failed")
    print(f"  failed_frac {failed / attempted:.6g} ratio")
    print(f"  host speed factor: {describe(speeds)}")
    for metric, values in chosen.items():
        print(f"  {metric} {units[metric]}: {describe(values)}")
        if metric in raw:
            print(f"    raw wall: {describe(raw[metric])}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": statistics.median(values), "unit": units[metric]}
            for metric, values in chosen.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass per workload at toy sizes")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required without --smoke")
    if not (SRC / "diffam" / "cli.py").is_file():
        print(f"error: no diffam sources at {SRC}; run from a diffam checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload in (None, "all") else (args.workload,)
    print("host " + json.dumps(dict(host_facts(), seed=args.seed, trace=args.trace, smoke=args.smoke)))
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
