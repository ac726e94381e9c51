"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` wraps each layer's public entry points with spans, prints
the per-layer metrics, and writes the spans to ``perfbench/out/``.
The last line of standard output is the result object; progress and
check details go to standard error.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("epoch_s.p50", "s"),
    ("epoch_s.tail", "s"),
    ("lookups_per_s", "1/s"),
    ("aggregate_s", "s"),
    ("gossip_steps", "count"),
    ("messages_sent", "count"),
    ("gossip_error", "ratio"),
    ("agg_error", "ratio"),
    ("served_error", "ratio"),
]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny runs every code path at toy sizes (smoke tests only)",
    )
    parser.add_argument(
        "--dataset", type=int, default=None,
        help="data-set seed (default: the fixed one in workloads.py; held-out checks only)",
    )
    return parser.parse_args(argv)


def _metrics(values: Dict[str, float], units: List[Any]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units}


def fingerprint(exact: Dict[str, Any]) -> str:
    """Digest of the counts and errors that must repeat bit for bit."""
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()[:16]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import layers
    import workloads
    from tracing import Instrumentation

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(sorted(workloads.WORKLOADS))
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    inst = Instrumentation(layers.PROBES if args.trace else None)
    size = dict(workloads.SIZES[args.scale][args.workload])
    if args.dataset is not None:
        size["dataset"] = args.dataset
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, size, inst)

    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip(), file=sys.stderr)
    for key, value in outcome.info.items():
        print(f"info {key}: {value}", file=sys.stderr)
    print(f"info measured_s: {outcome.measured_s!r}", file=sys.stderr)
    print(f"info fingerprint: {fingerprint(outcome.exact)}", file=sys.stderr)
    correct = all(ok for _, ok, _ in outcome.checks)
    if args.trace:
        values = layers.per_layer(inst.tracers, outcome)
        for name, value in values.items():
            if value == 0:
                print(f"info zero {name}: {layers.why_zero(name)}", file=sys.stderr)
        metrics = _metrics(values, layers.PER_LAYER)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        for phase, tracer in inst.tracers.items():
            tracer.dump(
                os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}-{phase}.json"),
                {"workload": args.workload, "seed": args.seed, "phase": phase},
            )
    else:
        metrics = _metrics(outcome.metrics, END_TO_END)
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


#: str hashing is randomized per process, and on the DES workload that
#: alone moved a run's time by up to 30% between fresh processes; every
#: run uses this one fixed hash seed instead (README.md)
HASH_SEED = "0"


def pin_hash_seed() -> None:
    """Re-execute this script in place with ``PYTHONHASHSEED`` fixed.

    ``exec`` replaces the process, so no child is left to wait for.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
