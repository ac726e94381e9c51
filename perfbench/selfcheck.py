"""Determinism, tracing-overhead and held-out-seed self-check of the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py --seed 1 --heldout 97 --seconds 25

For each workload it runs, each in a fresh process:

* the untraced run twice on ``--seed``: the fingerprint of every count and
  error metric must be identical;
* the traced run on ``--seed``: same fingerprint, so wrapping changed no
  bits; its measured phase minus the untraced one is the tracing overhead;
  its ``coverage.*`` metrics are the share of each parent span its child
  spans explain;
* the untraced run on ``--heldout`` with the held-out data set: it must
  pass its checks, and each end-to-end metric is shown as a ratio to the
  ``--seed`` run, to show the workload keeps its shape.

Exits non-zero when a fingerprint differs or a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_steady", "cold_large", "churn_des")

Run = Tuple[int, Dict[str, float], Dict[str, str]]


def run_once(workload: str, seed: int, seconds: str, trace: int, scale: str,
             dataset: Optional[int] = None) -> Run:
    """(exit code, metric values, ``info`` lines) of one fresh-process run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace), "--scale", scale]
    if dataset is not None:
        cmd += ["--dataset", str(dataset)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()} if lines else {}
    info = {}
    for line in proc.stderr.splitlines():
        if line.startswith("info ") and ": " in line:
            key, value = line[5:].split(": ", 1)
            info[key] = value
        elif line.startswith("check FAIL"):
            print(f"  {workload}: {line}")
    return proc.returncode, metrics, info


def check_workload(workload: str, args: argparse.Namespace) -> List[str]:
    """Run the four fresh processes of one workload; returns the failures."""
    seconds, scale = str(args.seconds), args.scale
    first = run_once(workload, args.seed, seconds, 0, scale)
    again = run_once(workload, args.seed, seconds, 0, scale)
    traced = run_once(workload, args.seed, seconds, 1, scale)
    held = run_once(workload, args.heldout, seconds, 0, scale, dataset=args.heldout)
    failures = [
        f"{workload}: {label} run exited {code}"
        for label, (code, _, _) in (("first", first), ("second", again),
                                    ("traced", traced), ("held-out", held))
        if code != 0
    ]
    prints = {label: run[2].get("fingerprint") for label, run in
              (("first", first), ("second", again), ("traced", traced))}
    if len(set(prints.values())) != 1:
        failures.append(f"{workload}: fingerprints differ {prints}")
    untraced_s = float(first[2].get("measured_s", "nan"))
    traced_s = traced[1].get("trace.measured_s", float("nan"))
    print(f"{workload}: fingerprint {prints['first']} (two untraced runs and the traced run)")
    print(f"  tracing overhead: {traced_s - untraced_s:+.3f} s on a {untraced_s:.3f} s "
          f"measured phase ({(traced_s - untraced_s) / untraced_s:+.1%})")
    cover = {k: round(v, 4) for k, v in traced[1].items() if k.startswith("coverage.") and v}
    print(f"  span coverage: {cover}")
    print(f"  held-out seed {args.heldout} (data set {args.heldout}) / seed {args.seed}:")
    for name, value in first[1].items():
        other = held[1].get(name, float("nan"))
        print(f"    {name:16s} {value:12.6g} -> {other:12.6g}  x{other / value:.3f}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--heldout", type=int, default=97)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    failures: List[str] = []
    for workload in args.workloads.split(","):
        failures += check_workload(workload, args)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
