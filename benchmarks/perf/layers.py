"""Outside-in layer tracing for the benchmark's traced run.

:func:`install` wraps the public entry points of each layer -- module
globals and class attributes, patched before any worker pool exists so
forked workers inherit them -- so that every call opens a
``get_telemetry().span(name)``.  Nothing in ``src/`` changes; the spans
nest under the engine's own ``search.*`` spans, and pool workers ship
theirs back through the engine's instrumented chunks.  :func:`layer_metrics`
turns one captured registry into the benchmark's per-layer metrics.

Wrappers look the registry up on every call, so they record into
whichever registry :func:`repro.telemetry.capture` made active -- the
parent's, or a worker chunk's -- and cost one disabled-span call
outside a capture.
"""

from __future__ import annotations

import functools

import repro.pstore.simulated as simulated
import repro.search.evaluators as evaluators
import repro.simulator.engine as sim_engine
import repro.simulator.multiplex as multiplex
from repro.core.model import PStoreModel
from repro.costmodel import CostModel
from repro.policy.policies import ControlPolicy
from repro.search.cache import EvaluationCache
from repro.search.grid import DesignCandidate
from repro.telemetry import attribution, get_telemetry, span_rows

#: (owner, attribute, span name) for every call the traced run times.
#: ``max_min_fair_allocation`` is bound by name in both loops' modules,
#: and ``trace_jobs`` in the evaluator (batch path) and the store (serial).
TARGETS = (
    (EvaluationCache, "get", "cache.get"),
    (EvaluationCache, "put", "cache.put"),
    (DesignCandidate, "cluster", "grid.cluster"),
    (PStoreModel, "predict", "model.predict"),
    (evaluators, "plan_join", "pstore.plan_join"),
    (evaluators, "trace_jobs", "pstore.trace_jobs"),
    (simulated, "trace_jobs", "pstore.trace_jobs"),
    (simulated, "build_join_job", "pstore.build_job"),
    (evaluators, "evaluate_timed_design", "route.serial"),
    (evaluators, "run_multiplexed", "sim.multiplex"),
    (sim_engine.ClusterSimulator, "run", "sim.run"),
    (sim_engine, "max_min_fair_allocation", "alloc.scalar"),
    (multiplex, "max_min_fair_allocation", "alloc.scalar"),
    (multiplex, "max_min_fair_rates_flat", "alloc.flat"),
    (CostModel, "carbon_g_timed", "cost.carbon_timed"),
)

#: counters the program already keeps, reported under the same name
COUNTERS = (
    "sim.multiplex.iterations",
    "sim.multiplex.flow_steps",
    "sim.events",
    "sim.control.ticks",
    "sim.faults.onsets",
    "sim.faults.retried_jobs",
)


def _traced(original, name: str):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with get_telemetry().span(name):
            return original(*args, **kwargs)

    return traced


def install() -> None:
    """Wrap every target, plus each control policy's ``observe``."""
    targets = list(TARGETS)
    pending = [ControlPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "observe" in vars(cls) and cls is not ControlPolicy:
            targets.append((cls, "observe", "policy.observe"))
    for owner, attribute, name in targets:
        setattr(owner, attribute, _traced(getattr(owner, attribute), name))


def layer_metrics(snapshot, entries: int) -> dict[str, float]:
    """Per-layer metrics of one traced window.

    ``entries`` is candidates x workload entries over the window's cold
    searches, the denominator of ``search.dedupe_ratio``.  The three
    ``setup.*`` metrics and ``trace.overhead`` need the untraced samples,
    so the runner adds them.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for row in span_rows(snapshot):
        name = row["name"]
        calls[name] = calls.get(name, 0) + row["calls"]
        total[name] = total.get(name, 0.0) + row["total_s"]
        # Worker spans merged under search.dispatch ran in other processes
        # and overlap in wall time; self time subtracts in-process children
        # only, so the dispatch stage's self time is the parent's wait.
        _, worker_s = snapshot.spans.get(row["path"] + ("worker.chunk",), (0, 0.0))
        in_process = row["child_s"] - worker_s
        self_s[name] = self_s.get(name, 0.0) + max(0.0, row["total_s"] - in_process)
    counters = snapshot.counters

    def counter(name: str) -> float:
        return counters.get(name, 0)

    lanes = counter("sim.multiplex.lanes")
    serial = calls.get("route.serial", 0)
    lookups = counter("cache.hit") + counter("cache.miss")
    tasks = counter("search.dispatch.tasks") + counter("search.dispatch.traces")
    metrics = {
        "search.flatten_s": total.get("search.flatten", 0.0),
        "search.dedupe_s": total.get("search.dedupe", 0.0),
        "search.cache_s": total.get("search.cache", 0.0),
        "search.aggregate_s": total.get("search.aggregate", 0.0),
        "search.dispatch_self_s": self_s.get("search.dispatch", 0.0),
        "search.dedupe_ratio": tasks / entries,
        "dispatch.chunks": counter("search.dispatch.chunks"),
        "dispatch.worker_chunk_s": total.get("worker.chunk", 0.0),
        "dispatch.retries": counter("search.dispatch.retries"),
        "cache.hit_ratio": counter("cache.hit") / lookups if lookups else 0.0,
        "route.multiplexed_lanes": lanes,
        "route.serial_candidates": serial,
        "route.multiplexed_share": lanes / (lanes + serial) if lanes + serial else 0.0,
        "route.multiplex_fallbacks": counter("evaluator.multiplex_fallbacks"),
        "sim.multiplex_s": total.get("sim.multiplex", 0.0),
        "sim.multiplex_self_s": self_s.get("sim.multiplex", 0.0),
        "sim.run_self_s": self_s.get("sim.run", 0.0),
        "pstore.trace_jobs_s": total.get("pstore.trace_jobs", 0.0),
        "trace.attributed_share": attribution(snapshot)["fraction"],
    }
    for span in (
        "cache.get",
        "cache.put",
        "grid.cluster",
        "model.predict",
        "pstore.plan_join",
        "pstore.build_job",
        "sim.run",
        "alloc.scalar",
        "alloc.flat",
        "policy.observe",
        "cost.carbon_timed",
    ):
        metrics[f"{span}_calls"] = calls.get(span, 0)
        metrics[f"{span}_s"] = total.get(span, 0.0)
    for name in COUNTERS:
        metrics[name] = counter(name)
    return metrics
