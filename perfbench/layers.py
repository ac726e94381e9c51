"""Which public entry points the traced run wraps, and the per-layer metrics.

Layers are the package's modules: ``service``, ``trust``, ``core``,
``gossip``, ``storage``, ``network`` and ``sim``.  Every per-layer
metric is printed on every workload; a layer that did no work on a
workload reports 0, and :func:`why_zero` says why.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.gossiptrust import GossipTrust
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.message_engine import MessageGossipEngine
from repro.gossip.partnering import HyParViewMembership
from repro.network.transport import Transport
from repro.service.reputation import ReputationService
from repro.sim.engine import Simulator
from repro.storage.bloom import BloomFilter
from repro.storage.reputation_store import BloomReputationStore
from repro.trust.feedback import FeedbackLedger
from repro.trust.matrix import TrustMatrix

from tracing import Probe, Tracer
from workloads import Outcome

#: the cycle phases the sync engine reports in ``GossipCycleResult.phase_times``
PHASES = ("kernel", "estimate", "oracle", "setup", "alloc")


def _count_rows(tracer: Tracer, args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
    tracer.count("trust.patch_rows", len(args[1]))


def _count_events(tracer: Tracer, args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
    tracer.count("service.ingest_events", result)


PROBES: List[Probe] = [
    Probe(ReputationService, "ingest_batch", "service.ingest", after=_count_events),
    Probe(ReputationService, "run_epoch", "service.run_epoch"),
    Probe(FeedbackLedger, "drain_dirty", "trust.drain"),
    Probe(TrustMatrix, "apply_row_deltas", "trust.patch", after=_count_rows),
    Probe(TrustMatrix, "from_ledger", "trust.build"),
    Probe(GossipTrust, "run", "core.run"),
    Probe(SynchronousGossipEngine, "run_cycle", "gossip.cycle"),
    Probe(MessageGossipEngine, "run_cycle", "gossip.cycle"),
    Probe(HyParViewMembership, "partner", "gossip.partner", kind="leaf"),
    Probe(BloomReputationStore, "build", "storage.build"),
    Probe(BloomReputationStore, "lookup", "storage.lookup", kind="leaf"),
    Probe(BloomFilter, "__contains__", "storage.probes", kind="count"),
    Probe(Simulator, "run", "sim.run"),
    Probe(Transport, "send", "network.send", kind="leaf"),
]

#: (name, unit) of every per-layer metric, in print order
PER_LAYER: List[Tuple[str, str]] = [
    ("service.ingest_s", "s"),
    ("service.ingest_events", "count"),
    ("service.epoch_self_s", "s"),
    ("trust.populate_s", "s"),
    ("trust.build_s", "s"),
    ("trust.drain_s", "s"),
    ("trust.patch_s", "s"),
    ("trust.patch_rows", "count"),
    ("core.cycles", "count"),
    ("core.self_s", "s"),
    ("gossip.cycle_s", "s"),
    ("gossip.steps", "count"),
] + [(f"gossip.{p}_s", "s") for p in PHASES] + [
    ("gossip.partner_s", "s"),
    ("gossip.partner_calls", "count"),
    ("gossip.maintenance_share", "ratio"),
    ("gossip.mass_restorations", "count"),
    ("gossip.mass_lost_fraction", "ratio"),
    ("gossip.isolated_live_nodes", "count"),
    ("storage.build_s", "s"),
    ("storage.lookup_s", "s"),
    ("storage.lookups", "count"),
    ("storage.probes_per_lookup", "ratio"),
    ("storage.misbracket_rate", "ratio"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("network.send_s", "s"),
    ("network.sent", "count"),
    ("network.delivered", "count"),
    ("network.delivery_ratio", "ratio"),
    ("network.retries", "count"),
    ("network.gave_up", "count"),
    ("coverage.epoch", "ratio"),
    ("coverage.core", "ratio"),
    ("coverage.cycle", "ratio"),
    ("coverage.sim", "ratio"),
    ("trace.measured_s", "s"),
]

#: why a per-layer metric reads 0, by metric-name prefix (first match wins)
ABSENT: List[Tuple[str, str]] = [
    ("service.", "serve_steady only: the other workloads call GossipTrust.run directly"),
    ("trust.populate_s", "churn_des builds its matrix with synthetic_trust_matrix"),
    ("trust.build_s", "churn_des builds its matrix with synthetic_trust_matrix"),
    ("trust.", "serve_steady only: row patches need a streaming ledger"),
] + [(f"gossip.{p}_s", "the message engine reports no phase_times") for p in PHASES] + [
    ("gossip.isolated_live_nodes", "0 is the healthy value (checked on churn_des)"),
    ("gossip.mass_", "churn_des only: nothing is lost without faults"),
    ("gossip.", "churn_des only: the sync engine has no partners, transport or churn"),
    ("storage.", "serve_steady only: the stand-in lookups elsewhere run outside the traced region"),
    ("sim.", "churn_des only: the sync engine runs no discrete-event simulation"),
    ("network.", "churn_des only: the sync engine sends no transport messages"),
    ("coverage.epoch", "serve_steady only"),
    ("coverage.sim", "churn_des only"),
]


def why_zero(name: str) -> str:
    """The reason a per-layer metric reads 0 on a workload."""
    return next((why for prefix, why in ABSENT if name.startswith(prefix)), "no work recorded")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracers: Dict[str, Tracer], outcome: Outcome) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where the layer did no work).

    ``trust.populate_s`` and ``trust.build_s`` come from the traced
    set-up; everything else from the measured phase.
    """
    tracer = tracers["measure"]
    t, c = tracer.total, tracer.counters
    phases = {p: 0.0 for p in PHASES}
    for result in outcome.results:
        for cycle in result.cycle_results:
            for p in PHASES:
                phases[p] += cycle.phase_times.get(p, 0.0)
    epoch_s, epoch_cov = tracer.child_time("service.run_epoch")
    core_s, core_cov = tracer.child_time("core.run")
    cycle_s, cycle_cov = tracer.child_time("gossip.cycle")
    sim_s, sim_cov = tracer.child_time("sim.run")
    # The sync engine's cycle has no child spans; its reported phases are
    # what explains it.
    if not tracer.calls("sim.run"):
        cycle_cov = sum(phases.values())
    lookups = tracer.calls("storage.lookup")
    layer = outcome.layer
    sent = layer.get("network.sent", 0)
    metrics = {
        "service.ingest_s": t("service.ingest"),
        "service.ingest_events": c.get("service.ingest_events", 0),
        "service.epoch_self_s": epoch_s - epoch_cov,
        "trust.populate_s": tracers["setup"].total("trust.populate"),
        "trust.build_s": tracers["setup"].total("trust.build"),
        "trust.drain_s": t("trust.drain"),
        "trust.patch_s": t("trust.patch"),
        "trust.patch_rows": c.get("trust.patch_rows", 0),
        "core.cycles": sum(r.cycles for r in outcome.results),
        "core.self_s": core_s - core_cov,
        "gossip.cycle_s": cycle_s,
        "gossip.steps": sum(r.total_gossip_steps for r in outcome.results),
        **{f"gossip.{p}_s": phases[p] for p in PHASES},
        "gossip.partner_s": t("gossip.partner"),
        "gossip.partner_calls": tracer.calls("gossip.partner"),
        "gossip.maintenance_share": layer.get("gossip.maintenance_share", 0.0),
        "gossip.mass_restorations": layer.get("gossip.mass_restorations", 0),
        "gossip.mass_lost_fraction": layer.get("gossip.mass_lost_fraction", 0.0),
        "gossip.isolated_live_nodes": layer.get("gossip.isolated_live_nodes", 0),
        "storage.build_s": t("storage.build"),
        "storage.lookup_s": t("storage.lookup"),
        "storage.lookups": lookups,
        "storage.probes_per_lookup": _ratio(c.get("storage.probes", 0), lookups),
        "storage.misbracket_rate": layer.get("storage.misbracket_rate", 0.0),
        "sim.run_s": sim_s,
        "sim.self_s": sim_s - sim_cov,
        "sim.events": layer.get("sim.events", 0),
        "network.send_s": t("network.send"),
        "network.sent": sent,
        "network.delivered": layer.get("network.delivered", 0),
        "network.delivery_ratio": _ratio(layer.get("network.delivered", 0), sent),
        "network.retries": layer.get("network.retries", 0),
        "network.gave_up": layer.get("network.gave_up", 0),
        "coverage.epoch": _ratio(epoch_cov, epoch_s),
        "coverage.core": _ratio(core_cov, core_s),
        "coverage.cycle": _ratio(cycle_cov, cycle_s),
        "coverage.sim": _ratio(sim_cov, sim_s),
        "trace.measured_s": outcome.measured_s,
    }
    return {name: float(metrics[name]) for name, _ in PER_LAYER}
