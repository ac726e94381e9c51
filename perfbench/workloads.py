"""The three benchmark workloads, driven through the public API only.

Each workload is one client in a closed loop in one process: the next
operation starts when the previous one has returned.  A workload

1. builds its data set (ledger, matrix, overlay) from the fixed
   :data:`DATASET_SEED` and sets the system up ``setups`` times
   (``setup_s`` is the median; the last set-up is the one measured),
2. draws everything a client or the environment does from ``--seed``
   (feedback stream, lookup ids, gossip randomness, crash victims,
   transport jitter) and runs a fixed amount of that work, sized from
   ``--seconds`` (so counts repeat bit for bit for one seed and one
   ``--seconds``),
3. computes error metrics against exact references *after* timing,
4. checks its outputs.

Why each workload exists, and what each metric means on it, is written
down in ``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.aggregation import exact_global_reputation
from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust, GossipTrustResult
from repro.errors import ReproError
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.convergence import average_relative_error
from repro.gossip.factory import make_engine
from repro.network.faultplan import named_plan
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like
from repro.network.transport import Transport
from repro.service.reputation import ReputationService
from repro.service.simulate import populate_ledger
from repro.sim.engine import Simulator
from repro.storage.reputation_store import BloomReputationStore
from repro.trust.feedback import FeedbackLedger
from repro.trust.matrix import TrustMatrix
from repro.types import TransactionOutcome
from repro.utils.proc import PeakRssMeter
from repro.utils.rng import RngStreams

from tracing import Instrumentation

#: seed of the data set every run works on.  ``--seed`` varies the
#: stream of work, not the data set: on this repository's inputs the
#: data set alone moved epoch cost by 40% and set-up by 2.5x between
#: seeds, which would swamp any change a later commit makes (README.md).
DATASET_SEED = 0

#: convergence threshold of the exact reference the error metrics use;
#: far below the aggregation's own delta (1e-3), so the reference is the
#: fixed point rather than another truncated iteration
EXACT_DELTA = 1e-9

#: workload sizes.  ``full`` is the benchmark; ``tiny`` only exercises
#: every code path for the smoke tests.  ``*_nominal_s`` are the
#: measured costs of one unit of work on the 2-core reference box; a run
#: does ``round(seconds / nominal)`` units, so its work depends on
#: ``--seconds`` and never on how fast this particular run goes.
#: ``ceilings`` bound the error metrics: at full scale about twice the
#: largest value seen on ten seeds (see README.md); a run above one fails
#: its correctness check.  Toy sizes gossip far less accurately.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "serve_steady": dict(
            n=1000, events=200, lookups=400, epoch_nominal_s=0.78, setups=3,
            ceilings={"agg_error": 0.0015, "served_error": 0.25},
        ),
        "cold_large": dict(
            n=30000, run_nominal_s=11.0, setups=3, serve_lookups=20000,
            ceilings={"agg_error": 0.0015, "served_error": 0.15},
        ),
        "churn_des": dict(
            n=200, cycles=2, trial_nominal_s=5.5, setups=3, serve_lookups=10000, rounds=150,
            ceilings={"agg_error": 0.7, "served_error": 0.1},
        ),
    },
    "tiny": {
        "serve_steady": dict(
            n=60, events=20, lookups=30, epochs=4, setups=2,
            ceilings={"agg_error": 0.1, "served_error": 0.5},
        ),
        "cold_large": dict(
            n=400, runs=2, setups=2, serve_lookups=50, engine_mode="probe", probe_columns=16,
            ceilings={"agg_error": 0.1, "served_error": 0.5},
        ),
        "churn_des": dict(
            n=30, cycles=2, trials=2, setups=2, serve_lookups=50, rounds=80,
            ceilings={"agg_error": 5.0, "served_error": 5.0},
        ),
    },
}

#: fraction of raters an epoch's feedback comes from, share of it rated
#: authentic, mean transaction balance of the populated ledger, Bloom bits
DIRTY_FRACTION = 0.01
AUTHENTIC_RATE = 0.9
MEAN_BALANCE = 100.0
BRACKET_BITS = 7
#: stabilization epochs allowed before the power-node set must settle
MAX_WARMUP_EPOCHS = 12
#: churn_des: simulated time one aggregation cycle spans (about 97
#: rounds of 2 time units), so the crash plan stretches over the run
HORIZON_PER_CYCLE = 195.0
RESTORE_BUDGET = 0.25


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: end-to-end metric values by name
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: (check name, passed, detail)
    checks: List[Tuple[str, bool, str]]
    #: values that must repeat bit for bit for one seed (counts, errors)
    exact: Dict[str, Any]
    #: public counters of the layers (sent, events, health, ...)
    layer: Dict[str, float]
    #: provenance: engine mode, sample counts
    info: Dict[str, Any]
    #: wall time of the measured phase
    measured_s: float
    #: GossipTrust.run results of the measured phase
    results: List[GossipTrustResult] = field(default_factory=list)


class RunTap:
    """Keeps every ``GossipTrust.run`` result and its wall time.

    The service calls ``GossipTrust.run`` internally and does not hand
    the result out; the tap is the one wrapper installed in untraced
    runs too, so both runs pay for it alike.  It costs two clock reads
    per aggregation round.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[GossipTrustResult, float]] = []

    @contextmanager
    def installed(self) -> Iterator[None]:
        original = GossipTrust.__dict__["run"]
        records = self.records

        def run(system: GossipTrust, *args: Any, **kwargs: Any) -> GossipTrustResult:
            start = time.perf_counter()
            result = original(system, *args, **kwargs)
            records.append((result, time.perf_counter() - start))
            return result

        GossipTrust.run = run  # type: ignore[method-assign]
        try:
            yield
        finally:
            GossipTrust.run = original  # type: ignore[method-assign]


# -- shared helpers -------------------------------------------------------


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond.

    With fewer than 11 samples no such percentile exists; the upper
    quartile is reported instead, because the maximum of a handful of
    samples moved by 21% between seeds (README.md).
    """
    ordered = sorted(samples)
    if len(ordered) < 11:
        return statistics.quantiles(ordered, n=4)[2] if len(ordered) > 1 else ordered[0], 75.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def lookup_ids(gen: np.random.Generator, population: np.ndarray, count: int) -> np.ndarray:
    """``count`` uniform ids, drawn as back-to-back shuffles of ``population``.

    Every id is read equally often (up to one partial pass), so a few
    peers that the Bloom store answers badly cannot move the served
    error from seed to seed just by being drawn more or less often.
    """
    passes = -(-count // population.size)
    return np.concatenate([gen.permutation(population) for _ in range(passes)])[:count]


def _vector_ok(v: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(v)) and np.all(v >= 0) and abs(float(v.sum()) - 1.0) < 1e-9)


def _exact(S: TrustMatrix, cfg: GossipTrustConfig, power_nodes: Any) -> np.ndarray:
    ref = cfg.with_updates(delta=EXACT_DELTA, max_cycles=2000)
    return exact_global_reputation(S, ref, power_nodes=power_nodes).vector


def served_error(served: np.ndarray, truth: np.ndarray) -> float:
    """Mean absolute error of served scores over their mean exact score.

    A per-lookup relative error is dominated by the few peers whose exact
    score is near zero: one of them answered from a high Bloom bracket
    moved the mean between 0.4 and 1.1 from seed to seed.  Normalizing
    the summed error instead still charges every misbracketed answer by
    how far off it is.  Lookups that raised (NaN) are left out; they are
    counted as failures.
    """
    ok = np.isfinite(served)
    return float(np.abs(served[ok] - truth[ok]).sum() / truth[ok].sum())


class StandInServing:
    """The stand-in for ``lookups_per_s`` and ``served_error`` (README.md).

    On the workloads that serve nothing themselves, the exact vector is
    published to a Bloom store and looked up in slices, one after each
    unit of work (and, on cold_large, before the first), so the timed
    lookups span the run instead of one short window.  Lookups run
    outside the traced region and outside every timed window.
    """

    def __init__(self, exact: np.ndarray, ids: np.ndarray, slices: int) -> None:
        self.exact = exact
        self.store = BloomReputationStore(BRACKET_BITS)
        self.store.build(exact)
        self.slices = np.array_split(ids, slices)
        self.served: List[np.ndarray] = []
        self.seconds = 0.0
        self.failures = 0

    def serve_next_slice(self) -> None:
        ids = self.slices[len(self.served)]
        served = np.empty(ids.size)
        start = time.perf_counter()
        for k, node in enumerate(ids.tolist()):
            try:
                served[k] = self.store.lookup(node)
            except ReproError:
                served[k] = np.nan
                self.failures += 1
        self.seconds += time.perf_counter() - start
        self.served.append(served)

    def lookups_per_s(self) -> float:
        return sum(s.size for s in self.served) / self.seconds

    def served_error(self) -> float:
        ids = np.concatenate(self.slices[: len(self.served)])
        return served_error(np.concatenate(self.served), self.exact[ids])


def _mib(meter: PeakRssMeter) -> float:
    return meter.read_kib() / 1024.0


def _check_ceilings(size: Dict[str, Any], metrics: Dict[str, float]) -> List[Tuple[str, bool, str]]:
    return [
        (f"{key} <= {limit}", metrics[key] <= limit, f"{key}={metrics[key]:.6g}")
        for key, limit in size["ceilings"].items()
    ]


def _units(size: Dict[str, Any], key: str, seconds: float, nominal: str) -> int:
    if key in size:
        return int(size[key])
    return max(1, round(seconds / size[nominal]))


# -- serve_steady ---------------------------------------------------------


def _setup_phase(inst: Instrumentation, traced: bool, name: str = "") -> ContextManager[Any]:
    """Probes (or, with ``name``, one call-site span) of a traced set-up."""
    if not traced:
        return nullcontext()
    return inst.span("setup", name) if name else inst.probes("setup")


def _serve_setup(
    seed: int, size: Dict[str, Any], inst: Instrumentation, traced: bool
) -> Tuple[ReputationService, int, bool]:
    n = size["n"]
    data = size.get("dataset", DATASET_SEED)
    cfg = GossipTrustConfig(n=n, seed=data, compute_reference=False)
    service = ReputationService(n, cfg, bracket_bits=BRACKET_BITS, rng=data)
    with _setup_phase(inst, traced):
        with _setup_phase(inst, traced, "trust.populate"):
            populate_ledger(
                service.ledger,
                mean_balance=MEAN_BALANCE,
                rng=RngStreams(data).get("bench-ledger"),
            )
        service.run_epoch()
        warmup, stable = 1, False
        for _ in range(MAX_WARMUP_EPOCHS):
            warmup += 1
            if service.run_epoch().power_node_churn == 0.0:
                stable = True
                break
    return service, warmup, stable


def _feedback_stream(
    seed: int, n: int, epochs: int, events: int, lookups: int
) -> List[Tuple[List[Tuple[int, int, TransactionOutcome]], np.ndarray]]:
    """Per epoch: a batch from a 1% rater pool, and uniform lookup ids."""
    gen = RngStreams(seed).get("bench-stream")
    pool_size = max(1, int(round(DIRTY_FRACTION * n)))
    ids = lookup_ids(RngStreams(seed).get("bench-lookups"), np.arange(n), epochs * lookups)
    stream = []
    for _ in range(epochs):
        pool = gen.choice(n, size=pool_size, replace=False)
        raters = pool[gen.integers(0, pool_size, size=events)]
        ratees = gen.integers(0, n - 1, size=events)
        ratees[ratees >= raters] += 1
        ok = gen.random(events) < AUTHENTIC_RATE
        batch = [
            (r, e, TransactionOutcome.AUTHENTIC if a else TransactionOutcome.INAUTHENTIC)
            for r, e, a in zip(raters.tolist(), ratees.tolist(), ok.tolist())
        ]
        stream.append((batch, ids[len(stream) * lookups:(len(stream) + 1) * lookups]))
    return stream


def serve_steady(seed: int, seconds: float, size: Dict[str, Any], inst: Instrumentation) -> Outcome:
    n = size["n"]
    setup_times = []
    for k in range(size["setups"]):
        last = k == size["setups"] - 1
        gc.collect()
        start = time.perf_counter()
        service, warmup, stable = _serve_setup(seed, size, inst, last)
        setup_times.append(time.perf_counter() - start)
        if not last:
            del service
    epochs = _units(size, "epochs", seconds, "epoch_nominal_s")
    stream = _feedback_stream(seed, n, epochs, size["events"], size["lookups"])
    tap = RunTap()
    epoch_times: List[float] = []
    lookup_seconds = 0.0
    failed_lookups = 0
    reports = []
    snapshots = []
    gc.collect()
    meter = PeakRssMeter()
    measure_start = time.perf_counter()
    with tap.installed(), inst.probes("measure"):
        for batch, ids in stream:
            power = service.power_nodes
            start = time.perf_counter()
            service.ingest_batch(batch)
            report = service.run_epoch()
            epoch_times.append(time.perf_counter() - start)
            reports.append(report)
            served = np.empty(ids.size)
            with inst.span("measure", "bench.lookups"):
                start = time.perf_counter()
                for k, node in enumerate(ids.tolist()):
                    try:
                        served[k] = service.lookup(node).score
                    except ReproError:
                        served[k] = np.nan
                        failed_lookups += 1
                lookup_seconds += time.perf_counter() - start
            matrix = service.matrix
            assert matrix is not None
            snapshots.append(
                (TrustMatrix(matrix.sparse().copy()), power, service.scores(), ids, served)
            )
    measured_s = time.perf_counter() - measure_start
    peak = _mib(meter)

    cfg = service.config
    agg_errors, served_all, truth_all, vectors_ok = [], [], [], True
    for S, power, vector, ids, served in snapshots:
        truth = _exact(S, cfg, power)
        agg_errors.append(average_relative_error(vector, truth))
        served_all.append(served)
        truth_all.append(truth[ids])
        vectors_ok = vectors_ok and _vector_ok(vector)
    results = [r for r, _ in tap.records]
    steps = sum(r.gossip_steps for r in reports)
    p_tail, q_tail = tail(epoch_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak,
        "epoch_s.p50": statistics.median(epoch_times),
        "epoch_s.tail": p_tail,
        "lookups_per_s": sum(ids.size for _, ids in stream) / lookup_seconds,
        "aggregate_s": statistics.median(t for _, t in tap.records),
        "gossip_steps": steps,
        "messages_sent": n * steps,
        "gossip_error": float(np.mean([r.mean_gossip_error for r in results])),
        "agg_error": float(np.mean(agg_errors)),
        "served_error": served_error(np.concatenate(served_all), np.concatenate(truth_all)),
    }
    bad_epochs = sum(1 for r in reports if r.failed or r.skipped)
    checks = [
        ("power-node set settled during set-up", stable, f"warmup epochs={warmup}"),
        ("no failed or skipped epoch", bad_epochs == 0, f"bad epochs={bad_epochs}"),
        ("every epoch converged", all(r.converged for r in reports), ""),
        ("every published vector finite and normalized", vectors_ok, ""),
        ("every lookup answered", failed_lookups == 0, f"failed={failed_lookups}"),
        ("one aggregation per epoch", len(results) == epochs, f"runs={len(results)}"),
    ] + _check_ceilings(size, metrics)
    return Outcome(
        metrics=metrics,
        attempted=epochs + sum(ids.size for _, ids in stream),
        failed=bad_epochs + failed_lookups,
        checks=checks,
        exact={
            "cycles": [r.cycles for r in reports],
            "gossip_steps": steps,
            "messages_sent": metrics["messages_sent"],
            "gossip_error": metrics["gossip_error"],
            "agg_error": metrics["agg_error"],
            "served_error": metrics["served_error"],
            "warmup_epochs": warmup,
        },
        layer={"storage.misbracket_rate": service.stats().store.misbracket_rate},
        info={
            "epochs": epochs,
            "epoch_s.tail percentile": q_tail,
            "mode": results[0].cycle_results[0].mode if results else "none",
            "messages_sent": "modelled: n x gossip_steps (the sync engine sends no transport messages)",
        },
        measured_s=measured_s,
        results=results,
    )


# -- cold_large -----------------------------------------------------------


def _cold_setup(data: int, n: int, inst: Instrumentation, traced: bool) -> TrustMatrix:
    ledger = FeedbackLedger(n)
    with _setup_phase(inst, traced, "trust.populate"):
        populate_ledger(ledger, mean_balance=MEAN_BALANCE, rng=RngStreams(data).get("bench-ledger"))
    return TrustMatrix.from_ledger(ledger)


def cold_large(seed: int, seconds: float, size: Dict[str, Any], inst: Instrumentation) -> Outcome:
    n = size["n"]
    overrides = {k: size[k] for k in ("engine_mode", "probe_columns") if k in size}
    cfg = GossipTrustConfig(n=n, seed=seed, **overrides)
    runs = _units(size, "runs", seconds, "run_nominal_s")
    setup_times = []
    S: Optional[TrustMatrix] = None
    for k in range(size["setups"]):
        last = k == size["setups"] - 1
        S = None
        gc.collect()
        start = time.perf_counter()
        with _setup_phase(inst, last):
            S = _cold_setup(size.get("dataset", DATASET_SEED), n, inst, last)
        setup_times.append(time.perf_counter() - start)
    assert S is not None
    truth = _exact(S, cfg, frozenset())
    # a fixed third of the peers, in seeded order: a full pass costs 8 s
    ids = lookup_ids(RngStreams(seed).get("bench-lookups"), np.arange(0, n, 3), size["serve_lookups"])
    stand_in = StandInServing(truth, ids, runs + 1)
    walls: List[float] = []
    results: List[GossipTrustResult] = []
    gc.collect()
    meter = PeakRssMeter()
    measure_start = time.perf_counter()
    stand_in.serve_next_slice()
    for r in range(runs):
        system = GossipTrust(S, cfg, rng=np.random.SeedSequence([seed, r]))
        with inst.probes("measure"):
            start = time.perf_counter()
            results.append(system.run(raise_on_budget=False, compute_reference=False))
            walls.append(time.perf_counter() - start)
        del system
        gc.collect()
        stand_in.serve_next_slice()
    measured_s = time.perf_counter() - measure_start
    peak = _mib(meter)
    cycle_walls = [rec.wall_time for r in results for rec in r.telemetry.records]
    c_tail, q_tail = tail(cycle_walls)
    steps = sum(r.total_gossip_steps for r in results)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak,
        "epoch_s.p50": statistics.median(cycle_walls),
        "epoch_s.tail": c_tail,
        "lookups_per_s": stand_in.lookups_per_s(),
        "aggregate_s": statistics.median(walls),
        "gossip_steps": steps,
        "messages_sent": n * steps,
        "gossip_error": float(np.mean([r.mean_gossip_error for r in results])),
        "agg_error": float(np.mean([average_relative_error(r.vector, truth) for r in results])),
        "served_error": stand_in.served_error(),
    }
    mode = results[0].cycle_results[0].mode
    checks = [
        ("every run converged", all(r.converged for r in results), ""),
        ("vectors finite and normalized", all(_vector_ok(r.vector) for r in results), ""),
        ("stand-in lookups answered", stand_in.failures == 0, f"failed={stand_in.failures}"),
    ] + _check_ceilings(size, metrics)
    return Outcome(
        metrics=metrics,
        attempted=runs,
        failed=sum(1 for r in results if not r.converged),
        checks=checks,
        exact={
            "cycles": [r.cycles for r in results],
            "gossip_steps": steps,
            "messages_sent": metrics["messages_sent"],
            "gossip_error": metrics["gossip_error"],
            "agg_error": metrics["agg_error"],
            "served_error": metrics["served_error"],
        },
        layer={},
        info={
            "mode": mode,
            "vector": "oracle" if mode == "probe" else "gossiped",
            "runs": runs,
            "epoch_s samples (cycles)": len(cycle_walls),
            "epoch_s.tail percentile": q_tail,
            "messages_sent": "modelled: n x gossip_steps (the sync engine sends no transport messages)",
            "lookups_per_s, served_error": "stand-in: the exact vector served from a Bloom store",
        },
        measured_s=measured_s,
        results=results,
    )


# -- churn_des ------------------------------------------------------------


@dataclass
class _ChurnRig:
    system: GossipTrust
    sim: Simulator
    transport: Transport
    engine: Any


def _churn_setup(trial: np.random.SeedSequence, data: int, n: int, cycles: int,
                 rounds: int) -> _ChurnRig:
    dataset, streams = RngStreams(data), RngStreams(trial)
    S = synthetic_trust_matrix(n, rng=dataset.get("matrix"))
    sim = Simulator()
    overlay = Overlay(gnutella_like(n, rng=dataset.get("topology")), rng=dataset.get("overlay"))
    transport = Transport(sim, latency=1.0, loss_rate=0.0, rng=streams.get("net"))
    cfg = GossipTrustConfig(n=n, seed=data, max_cycles=cycles, compute_reference=False)
    engine = make_engine(
        "message",
        cfg,
        rng=streams,
        sim=sim,
        transport=transport,
        overlay=overlay,
        partner_strategy="hyparview",
        mass_restore_budget=RESTORE_BUDGET,
        max_rounds=rounds,
    )
    plan = named_plan("crash", horizon=cycles * HORIZON_PER_CYCLE, rng=streams.get("faults"))
    plan.schedule(sim, transport, overlay, on_rejoin=engine.partnering.node_joined)
    return _ChurnRig(GossipTrust(S, cfg, engine=engine), sim, transport, engine)


def churn_des(seed: int, seconds: float, size: Dict[str, Any], inst: Instrumentation) -> Outcome:
    """``trials`` independent crash scenarios of ``cycles`` cycles each.

    One scenario's errors and cost hinge on which peers the plan crashes;
    the median over independent scenarios is what stays put from seed
    to seed.
    """
    n, cycles, data = size["n"], size["cycles"], size.get("dataset", DATASET_SEED)
    trials = _units(size, "trials", seconds, "trial_nominal_s")
    setup_times: List[float] = []
    rigs = []
    for k in range(trials):
        trial = np.random.SeedSequence([seed, k])
        for rep in range(size["setups"]):
            traced = k == 0 and rep == size["setups"] - 1
            gc.collect()
            start = time.perf_counter()
            with _setup_phase(inst, traced):
                rig = _churn_setup(trial, data, n, cycles, size["rounds"])
            setup_times.append(time.perf_counter() - start)
        rigs.append(rig)
    truth = _exact(rigs[0].system.S, rigs[0].system.config, frozenset())
    ids = lookup_ids(RngStreams(seed).get("bench-lookups"), np.arange(n), size["serve_lookups"])
    stand_in = StandInServing(truth, ids, trials)
    walls, results, sent, delivered, events = [], [], 0, 0, 0
    gc.collect()
    meter = PeakRssMeter()
    measure_start = time.perf_counter()
    for rig in rigs:
        sent_before, delivered_before = rig.transport.sent, rig.transport.delivered
        events_before = rig.sim.events_processed
        with inst.probes("measure"):
            start = time.perf_counter()
            results.append(rig.system.run(raise_on_budget=False, compute_reference=False))
            walls.append(time.perf_counter() - start)
        sent += rig.transport.sent - sent_before
        delivered += rig.transport.delivered - delivered_before
        events += rig.sim.events_processed - events_before
        stand_in.serve_next_slice()
    measured_s = time.perf_counter() - measure_start
    peak = _mib(meter)

    healths = [rig.engine.partnering.health() for rig in rigs]
    retries = [rig.engine.partnering.retry_stats() for rig in rigs]
    agg_errors = [average_relative_error(r.vector, truth) for r in results]
    cycle_walls = [rec.wall_time for r in results for rec in r.telemetry.records]
    c_tail, q_tail = tail(cycle_walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak,
        "epoch_s.p50": statistics.median(cycle_walls),
        "epoch_s.tail": c_tail,
        "lookups_per_s": stand_in.lookups_per_s(),
        "aggregate_s": statistics.median(walls),
        "gossip_steps": sum(r.total_gossip_steps for r in results),
        "messages_sent": sent,
        "gossip_error": statistics.median(r.mean_gossip_error for r in results),
        "agg_error": statistics.median(agg_errors),
        "served_error": stand_in.served_error(),
    }
    cycle_results = [c for r in results for c in r.cycle_results]
    not_converged = sum(1 for c in cycle_results if not c.converged)
    isolated = sum(h.isolated_live_nodes for h in healths)
    maintenance = sum(
        h.maintenance_messages + int(r["sent"]) + int(r["acks_sent"])
        for h, r in zip(healths, retries)
    )
    checks = [
        ("every cycle converged", not_converged == 0, f"not converged={not_converged}"),
        ("vectors finite and normalized", all(_vector_ok(r.vector) for r in results), ""),
        ("no isolated live node after any trial", isolated == 0, f"isolated={isolated}"),
        ("every trial ran its full cycle budget", all(r.cycles == cycles for r in results), ""),
        ("stand-in lookups answered", stand_in.failures == 0, f"failed={stand_in.failures}"),
    ] + _check_ceilings(size, metrics)
    return Outcome(
        metrics=metrics,
        attempted=len(cycle_results),
        failed=not_converged,
        checks=checks,
        exact={
            "steps_per_cycle": [r.steps_per_cycle for r in results],
            "gossip_steps": metrics["gossip_steps"],
            "messages_sent": sent,
            "mean_gossip_error": [r.mean_gossip_error for r in results],
            "agg_error": agg_errors,
            "served_error": metrics["served_error"],
            "events": events,
        },
        layer={
            "sim.events": events,
            "network.sent": sent,
            "network.delivered": delivered,
            "network.retries": sum(int(r["retries"]) for r in retries),
            "network.gave_up": sum(int(r["gave_up"]) for r in retries),
            "gossip.maintenance_share": maintenance / sent if sent else 0.0,
            "gossip.mass_restorations": sum(c.mass_restorations for c in cycle_results),
            "gossip.mass_lost_fraction": float(np.mean([c.mass_lost_fraction for c in cycle_results])),
            "gossip.isolated_live_nodes": isolated,
        },
        info={
            "trials x cycles": f"{trials} x {cycles}",
            "epoch_s samples (cycles)": len(cycle_walls),
            "epoch_s.tail percentile": q_tail,
            "mean_gossip_error per trial": [round(r.mean_gossip_error, 4) for r in results],
            "lookups_per_s, served_error": "stand-in: the exact vector served from a Bloom store",
        },
        measured_s=measured_s,
        results=results,
    )


WORKLOADS = {
    "serve_steady": serve_steady,
    "cold_large": cold_large,
    "churn_des": churn_des,
}
