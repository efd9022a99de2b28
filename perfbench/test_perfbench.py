"""Tests of the benchmark itself, on its smoke mode (toy sizes, a few seconds).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_metric_and_passes_the_oracle(trace):
    proc = _bench("--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    group = "per_layer" if trace == "1" else "end_to_end"
    expected = {
        f"{w['name']}/{m['name']}": m["unit"] for w in SPEC["workloads"] for m in SPEC[group]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.PER_LAYER_UNITS
    assert set(tracer.BUCKETS.values()) <= set(tracer.PER_LAYER_UNITS)


def test_oracle_rejects_a_changed_file(tmp_path):
    ops = workloads.cli_ops("ext-products", 0, smoke=True)
    with run.Runner(tmp_path, run.perf_counter()) as runner:
        good = run.cli_pass(runner, ops, traced=False)
        assert good.failed == 0
        wrong = [replace(op, sha256="0" * 64) if op.out == "trivial.json" else op for op in ops]
        bad = run.cli_pass(runner, wrong, traced=False)
    assert bad.attempted == len(ops) and bad.failed == 1


def test_seed_chooses_inputs_deterministically():
    assert workloads.cli_ops("cyclic-large", 7, False) == workloads.cli_ops("cyclic-large", 7, False)
    orders = {workloads.cli_ops("cyclic-large", s, False)[0].args[3] for s in range(40)}
    assert len(orders) > 1
    a, b = workloads.sweep_items(1, False), workloads.sweep_items(2, False)
    assert a != b and sorted(a) == sorted(b) and len(a) == 715


def test_self_times_nest():
    spans = [["cli.main", 0.0, 10.0, -1], ["verify_df", 1.0, 4.0, 0], ["Family.__init__", 2.0, 3.0, 1]]
    children = [{"spans": spans, "counts": {}, "field_cache": [0, 0], "wall": 12.0}]
    out = tracer.layer_metrics(children, pass_wall=12.5)
    assert out["cli.self_s"] == 7.0
    assert out["designs.count_s"] == 2.0
    assert out["designs.family_s"] == 1.0
    assert out["cli.process_overhead_s"] == 2.0
    assert out["trace.remainder_s"] == pytest.approx(0.5)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "pins.json").write_bytes((HERE / "pins.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
