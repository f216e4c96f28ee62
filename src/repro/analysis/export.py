"""Exporting experiment results and trade-off curves to JSON/CSV.

A reproduction harness is only useful if its outputs can leave the Python
process: these helpers serialize :class:`ExperimentResult` objects (claims
included) and normalized curves into plain structures, JSON strings, or
CSV text that plotting scripts and CI dashboards can consume.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Sequence

from repro.core.edp import NormalizedPoint
from repro.errors import ReproError
from repro.experiments.base import ExperimentResult
from repro.search.engine import SearchResult
from repro.search.pareto import knee_point

__all__ = [
    "curve_to_rows",
    "curve_to_csv",
    "experiment_to_dict",
    "experiment_to_json",
    "experiments_summary_csv",
    "optimization_to_json",
    "search_to_rows",
    "search_to_dict",
    "frontier_to_csv",
    "search_to_json",
    "telemetry_to_dict",
    "telemetry_to_json",
    "trajectory_to_csv",
    "trajectory_to_rows",
]


def curve_to_rows(points: Sequence[NormalizedPoint]) -> list[dict[str, Any]]:
    """Normalized curve as a list of plain dicts (one per design point)."""
    return [
        {
            "label": point.label,
            "performance": point.performance,
            "energy": point.energy,
            "edp_ratio": point.edp_ratio,
            "below_edp": point.below_edp_curve,
        }
        for point in points
    ]


def curve_to_csv(points: Sequence[NormalizedPoint]) -> str:
    """Normalized curve as CSV text with a header row."""
    if not points:
        raise ReproError("cannot export an empty curve")
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=["label", "performance", "energy", "edp_ratio", "below_edp"],
    )
    writer.writeheader()
    for row in curve_to_rows(points):
        writer.writerow(row)
    return buffer.getvalue()


_SEARCH_FIELDS = [
    "label",
    "num_beefy",
    "num_wimpy",
    "num_nodes",
    "beefy_frequency_factor",
    "wimpy_frequency_factor",
    "mode",
    "time_s",
    "energy_j",
    "edp",
    # TCO pricing of cost-model-configured evaluations (null without a
    # CostModel attached to the evaluator or study)
    "carbon_g",
    "price_usd",
    "feasible",
    "on_frontier",
    # queueing response times of timed-trace evaluations (null on the
    # weights-only path, which never simulates arrival times)
    "response_mean_s",
    "response_p95_s",
    "response_p99_s",
    "response_max_s",
    # dynamic cluster control (null for bare design candidates): the
    # policy label and the replay's gating/energy-saving totals
    "policy",
    "gated_node_seconds",
    "energy_saved_j",
    # degraded-mode evaluations (null on healthy paths): response times
    # measured under fault injection, plus the run's failure accounting
    "degraded_response_mean_s",
    "degraded_response_p95_s",
    "degraded_response_p99_s",
    "degraded_response_max_s",
    "recovery_energy_j",
    "retried_jobs",
    "dropped_jobs",
    "faults_survived",
]


def search_to_rows(
    result: SearchResult, frontier_labels: set[str] | None = None
) -> list[dict[str, Any]]:
    """One plain dict per searched design point (grid order).

    Infeasible points are included with null time/energy so coverage is
    visible downstream; frontier membership is flagged per row.  Callers
    that already extracted the frontier can pass its labels to avoid
    recomputing it.
    """
    if frontier_labels is None:
        frontier_labels = {point.label for point in result.pareto_frontier()}
    rows = []
    for point in result.points:
        candidate = point.candidate
        latency = point.latency
        degraded = point.degraded_latency
        rows.append(
            {
                "label": point.label,
                "num_beefy": candidate.num_beefy,
                "num_wimpy": candidate.num_wimpy,
                "num_nodes": candidate.num_nodes,
                # resolved per-type DVFS states (what the evaluator priced),
                # not the raw cluster-wide field a per-type override hides
                "beefy_frequency_factor": candidate.effective_beefy_frequency,
                "wimpy_frequency_factor": candidate.effective_wimpy_frequency,
                "mode": candidate.mode.value if candidate.mode is not None else "",
                "time_s": point.time_s if point.feasible else None,
                "energy_j": point.energy_j if point.feasible else None,
                "edp": point.edp if point.feasible else None,
                "carbon_g": point.carbon_g,
                "price_usd": point.price_usd,
                "feasible": point.feasible,
                "on_frontier": point.label in frontier_labels,
                "response_mean_s": latency.mean_s if latency else None,
                "response_p95_s": latency.p95_s if latency else None,
                "response_p99_s": latency.p99_s if latency else None,
                "response_max_s": latency.max_s if latency else None,
                "policy": point.policy,
                "gated_node_seconds": point.gated_node_seconds,
                "energy_saved_j": point.energy_saved_j,
                "degraded_response_mean_s": degraded.mean_s if degraded else None,
                "degraded_response_p95_s": degraded.p95_s if degraded else None,
                "degraded_response_p99_s": degraded.p99_s if degraded else None,
                "degraded_response_max_s": degraded.max_s if degraded else None,
                "recovery_energy_j": point.recovery_energy_j,
                "retried_jobs": point.retried_jobs,
                "dropped_jobs": point.dropped_jobs,
                "faults_survived": point.faults_survived,
            }
        )
    return rows


def frontier_to_csv(
    result: SearchResult,
    frontier_only: bool = True,
    objectives: Sequence | None = None,
) -> str:
    """Search results as CSV text (by default just the Pareto frontier).

    Frontier membership (``on_frontier``) is computed under
    ``objectives`` — e.g. ``("time_s", "energy_j", "price_usd",
    "carbon_g")`` for the TCO frontier of cost-model-priced points;
    ``None`` is the classic (time, energy) pair.
    """
    labels = {point.label for point in result.pareto_frontier(objectives)}
    rows = search_to_rows(result, frontier_labels=labels)
    if frontier_only:
        rows = [row for row in rows if row["on_frontier"]]
    if not rows:
        raise ReproError("no design points to export")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_SEARCH_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def search_to_dict(result: SearchResult) -> dict[str, Any]:
    """Full search outcome — points, frontier, selections — as a dict."""
    feasible = result.feasible_points
    frontier = result.pareto_frontier()
    frontier_labels = {point.label for point in frontier}
    payload: dict[str, Any] = {
        # the "query" key predates the Workload protocol; it now carries
        # the workload's name (identical for single-join searches)
        "query": result.workload.name,
        "workload": result.workload.name,
        "num_points": len(result.points),
        "num_feasible": len(feasible),
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "workers_used": result.workers_used,
        "query_evaluations": result.query_evaluations,
        "points": search_to_rows(result, frontier_labels),
        "frontier": [point.label for point in frontier],
    }
    if feasible:
        # knee_point over the frontier avoids re-deriving it from scratch
        # (a frontier is its own Pareto set).
        payload["knee"] = knee_point(frontier).label
        payload["edp_optimal"] = result.edp_optimal().label
    return payload


def search_to_json(result: SearchResult, indent: int | None = 2) -> str:
    """:func:`search_to_dict`, serialized."""
    return json.dumps(search_to_dict(result), indent=indent)


_TRAJECTORY_FIELDS = [
    "batch",
    "rung",
    "fidelity",
    "candidates",
    "fresh_query_evaluations",
    "archive_size",
    "frontier_size",
    "best_edp",
    "knee_label",
]


def trajectory_to_rows(result) -> list[dict[str, Any]]:
    """An optimization's batches as plain dicts (one per batch).

    ``result`` is an :class:`~repro.study.OptimizationResult` (or
    anything exposing ``trajectory``); each row is the evaluations-spent
    vs frontier-quality state after one optimizer batch.
    """
    return [
        {field: getattr(point, field) for field in _TRAJECTORY_FIELDS}
        for point in result.trajectory
    ]


def trajectory_to_csv(result) -> str:
    """The evaluations-vs-frontier-quality curve as CSV text."""
    rows = trajectory_to_rows(result)
    if not rows:
        raise ReproError("cannot export an empty optimization trajectory")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_TRAJECTORY_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def optimization_to_json(result, indent: int | None = 2) -> str:
    """Full optimization outcome: search payload + optimizer metadata.

    The ``points``/``frontier``/selection keys match
    :func:`search_to_json` over the archive, so downstream consumers of
    sweep exports read optimization exports unchanged; ``optimizer``,
    ``budget``, ``stop_reason``, and ``trajectory`` are added on top.
    """
    payload = search_to_dict(result.search)
    payload["optimizer"] = result.optimizer_name
    payload["budget"] = result.budget
    payload["stop_reason"] = result.stop_reason
    payload["fresh_query_evaluations"] = result.fresh_query_evaluations
    payload["trajectory"] = trajectory_to_rows(result)
    return json.dumps(payload, indent=indent)


def telemetry_to_dict(source=None) -> dict[str, Any]:
    """A telemetry registry or snapshot as a JSON-safe dict.

    ``source`` is a :class:`~repro.telemetry.Telemetry`, a
    :class:`~repro.telemetry.TelemetrySnapshot`, or ``None`` for the
    active registry.  Span tree paths flatten to ``"/"``-joined strings
    (depth-first order preserved) with per-row call counts, wall time,
    and derived self time; the :func:`~repro.telemetry.attribution`
    summary rides along so a dashboard can assert coverage without
    re-deriving it.
    """
    from repro.telemetry import get_telemetry
    from repro.telemetry.report import attribution, span_rows

    if source is None:
        source = get_telemetry()
    snap = source.snapshot() if hasattr(source, "snapshot") else source
    return {
        "counters": {name: snap.counters[name] for name in sorted(snap.counters)},
        "gauges": {name: snap.gauges[name] for name in sorted(snap.gauges)},
        "spans": [
            {
                "path": "/".join(row["path"]),
                "calls": row["calls"],
                "total_s": row["total_s"],
                "self_s": row["self_s"],
            }
            for row in span_rows(snap)
        ],
        "attribution": attribution(snap),
    }


def telemetry_to_json(source=None, indent: int | None = 2) -> str:
    """:func:`telemetry_to_dict`, serialized."""
    return json.dumps(telemetry_to_dict(source), indent=indent)


def experiment_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """JSON-safe summary of one experiment (data payloads are elided;
    claims, title, and the rendered text are preserved)."""
    return {
        "id": result.experiment_id,
        "title": result.title,
        "all_claims_hold": result.all_claims_hold,
        "claims": [
            {
                "description": claim.description,
                "holds": claim.holds,
                "detail": claim.detail,
            }
            for claim in result.claims
        ],
        "text": result.text,
    }


def experiment_to_json(result: ExperimentResult, indent: int | None = 2) -> str:
    return json.dumps(experiment_to_dict(result), indent=indent)


def experiments_summary_csv(results: Sequence[ExperimentResult]) -> str:
    """One CSV row per experiment: id, title, claims passed/total."""
    if not results:
        raise ReproError("no experiment results to summarize")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["id", "title", "claims_passed", "claims_total", "status"])
    for result in results:
        passed = sum(1 for claim in result.claims if claim.holds)
        writer.writerow(
            [
                result.experiment_id,
                result.title,
                passed,
                len(result.claims),
                "ok" if result.all_claims_hold else "FAILED",
            ]
        )
    return buffer.getvalue()
