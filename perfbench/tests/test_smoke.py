"""Smoke tests of the benchmark at toy sizes.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
They check the output format (every metric, with its unit, on every
workload), that outputs are checked, that wrapping changes no bits, and
that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from tracing import Instrumentation

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAMES = sorted(workloads.WORKLOADS)
TINY = workloads.SIZES["tiny"]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _cli(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _outcome(workload, traced, seed=3):
    inst = Instrumentation(layers.PROBES if traced else None)
    return workloads.WORKLOADS[workload](seed, 1.0, TINY[workload], inst), inst


def test_benchmark_json_matches_the_printed_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == ["serve_steady", "cold_large", "churn_des"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_with_its_unit(workload, trace):
    proc = _cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(x, float) and x == x and abs(x) != float("inf") for x in values)
    if not trace:
        assert all(x > 0 for x in values), result["metrics"]


#: per-layer metrics that must show work, per workload; all others of
#: the same layer must read 0 there
BUSY = {
    "serve_steady": ["service.ingest_events", "trust.patch_rows", "storage.lookups",
                     "gossip.kernel_s", "trust.populate_s", "trust.build_s"],
    "cold_large": ["gossip.kernel_s", "trust.populate_s", "trust.build_s", "core.cycles"],
    "churn_des": ["sim.events", "network.sent", "gossip.partner_calls", "core.cycles"],
}
IDLE = {
    "serve_steady": ["sim.events", "network.sent", "gossip.partner_calls"],
    "cold_large": ["service.ingest_events", "trust.patch_rows", "storage.lookups",
                   "sim.events", "network.sent"],
    "churn_des": ["service.ingest_events", "storage.lookups", "gossip.kernel_s",
                  "trust.build_s"],
}


@pytest.mark.parametrize("workload", NAMES)
def test_layers_work_only_where_the_workload_sends_them(workload):
    outcome, inst = _outcome(workload, traced=True)
    values = layers.per_layer(inst.tracers, outcome)
    assert all(values[name] > 0 for name in BUSY[workload]), values
    assert all(values[name] == 0 for name in IDLE[workload]), values
    for cover in ("coverage.core", "coverage.cycle"):
        assert 0.5 < values[cover] <= 1.0


@pytest.mark.parametrize("workload", NAMES)
def test_counts_and_errors_repeat_and_tracing_changes_no_bits(workload):
    first, _ = _outcome(workload, traced=False)
    again, _ = _outcome(workload, traced=False)
    traced, _ = _outcome(workload, traced=True)
    assert first.exact == again.exact
    assert first.exact == traced.exact
    other, _ = _outcome(workload, traced=False, seed=4)
    assert other.exact != first.exact


def test_a_failed_check_exits_nonzero(monkeypatch, capsys):
    size = dict(TINY["cold_large"], ceilings={"agg_error": 1e-12})
    monkeypatch.setitem(TINY, "cold_large", size)
    code = run.main(["--workload", "cold_large", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--scale", "tiny"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _cli("serve_steady", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(40)]
    value, pct = workloads.tail(samples)
    assert value == 29.0 and sum(s > value for s in samples) == 10 and pct == 75.0
    assert workloads.tail([1.0, 4.0, 2.0, 3.0]) == (3.75, 75.0)
