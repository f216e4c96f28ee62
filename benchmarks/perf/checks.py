"""The benchmark's correctness gate: golden records, oracle replay, invariants.

Every check returns a list of failure messages, one per candidate record
that failed it; the runner counts those against the candidates attempted
(``failed`` / ``attempted`` in the result line).

* **Golden records** -- at the default seed and full size, each search's
  records and selection labels must match ``golden/<workload>.json`` to a
  relative tolerance of 1e-9.  The files keep every record of searches up
  to :data:`GOLDEN_RECORDS` candidates and an evenly strided subset of
  larger ones, plus exact (``math.fsum``) totals over all records.  Only
  ``run.py --write-golden`` rewrites them.
* **Oracle replay** -- on every seed, a few candidates chosen with the seed
  are re-evaluated one at a time through the unbatched path
  (:func:`~repro.search.evaluators.evaluate_timed_design` for traces,
  :func:`~repro.search.evaluators.evaluate_design` for suites) and must
  match the campaign's records bit for bit.
* **Invariants** -- what a record exposes of causality: a response time
  is never negative (start >= arrival, completion >= start), never longer
  than the makespan, and the makespan never ends before the last arrival.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path
from statistics import median

from repro.search import best_under_degraded_sla, best_under_latency_sla
from repro.search.evaluators import evaluate_design, evaluate_timed_design
from repro.workloads.protocol import is_timed

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: searches with more candidates keep only a strided subset in the golden file
GOLDEN_RECORDS = 512
RTOL = 1e-9
ORACLE_CANDIDATES = 4
#: record fields the oracle compares (everything but identity and free text)
_ORACLE_SKIP = {"candidate", "prediction", "infeasible_reason"}


def latency_of(point):
    """The record's response-time profile: degraded under faults, else healthy."""
    return point.degraded_latency if point.degraded_latency is not None else point.latency


def record_view(point) -> list:
    """The fields the golden files pin, in a JSON-friendly list."""
    latency = latency_of(point)
    return [
        point.label,
        point.time_s,
        point.energy_j,
        point.feasible,
        None if latency is None else latency.p99_s,
        point.carbon_g,
    ]


def selections(result) -> dict:
    """The selection labels the golden files pin for one search.

    The knee always; on timed searches also the minimum-energy pick
    under a p99 SLA set at the median feasible p99 (degraded p99 when
    the trace is faulted), so the SLA itself comes from the records.
    """
    picks = {"knee": result.knee().label}
    feasible = [p for p in result.points if p.feasible and latency_of(p) is not None]
    if feasible:
        sla = median(latency_of(p).p99_s for p in feasible)
        select = (
            best_under_degraded_sla
            if feasible[0].degraded_latency is not None
            else best_under_latency_sla
        )
        picks["sla_p99_s"] = sla
        picks["sla_pick"] = select(result.points, sla, metric="p99").label
    return picks


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))
    return a == b


def _totals(points) -> dict:
    feasible = [p for p in points if p.feasible]
    return {
        "records": len(points),
        "feasible": len(feasible),
        "time_s": math.fsum(p.time_s for p in feasible),
        "energy_j": math.fsum(p.energy_j for p in feasible),
    }


def _stride(points) -> int:
    return max(1, math.ceil(len(points) / GOLDEN_RECORDS))


def golden_payload(workload, results) -> dict:
    searches = []
    for result in results:
        stride = _stride(result.points)
        searches.append(
            {
                "stride": stride,
                "totals": _totals(result.points),
                "selections": selections(result),
                "records": [record_view(p) for p in result.points[::stride]],
            }
        )
    return {"workload": workload.name, "searches": searches}


def write_golden(workload, results) -> Path:
    path = GOLDEN_DIR / f"{workload.name}.json"
    payload = golden_payload(workload, results)
    # one record per line keeps the files reviewable as diffs
    lines = []
    for search in payload["searches"]:
        records = ",\n    ".join(json.dumps(r) for r in search["records"])
        head = {k: v for k, v in search.items() if k != "records"}
        lines.append(f'{json.dumps(head)[:-1]}, "records": [\n    {records}\n  ]}}')
    body = ",\n  ".join(lines)
    path.write_text(
        f'{{"workload": {json.dumps(workload.name)}, "searches": [\n  {body}\n]}}\n'
    )
    return path


def check_golden(workload, results) -> list[str]:
    """Campaign records and selections against the checked-in golden file."""
    path = GOLDEN_DIR / f"{workload.name}.json"
    if not path.exists():
        return [f"missing golden file {path.name}; run.py --write-golden makes it"]
    expected = json.loads(path.read_text())["searches"]
    actual = golden_payload(workload, results)["searches"]
    if len(expected) != len(actual):
        return [f"golden has {len(expected)} searches, campaign ran {len(actual)}"]
    failures = []
    for index, (want, got) in enumerate(zip(expected, actual)):
        where = f"search {index}"
        if want["stride"] != got["stride"] or len(want["records"]) != len(got["records"]):
            failures.append(f"{where}: golden covers a different candidate list")
            continue
        for want_record, got_record in zip(want["records"], got["records"]):
            if not all(_close(a, b) for a, b in zip(want_record, got_record)):
                failures.append(f"{where}: record {got_record} != golden {want_record}")
        for key, value in want["totals"].items():
            if not _close(value, got["totals"][key]):
                failures.append(f"{where}: total {key} {got['totals'][key]} != {value}")
        for key, value in want["selections"].items():
            if not _close(value, got["selections"].get(key)):
                failures.append(
                    f"{where}: selection {key} {got['selections'].get(key)} != {value}"
                )
    return failures


def _oracle_view(point) -> tuple:
    return tuple(
        (f.name, getattr(point, f.name))
        for f in dataclasses.fields(point)
        if f.name not in _ORACLE_SKIP
    ) + (("label", point.label),)


def check_oracle(workload, results, rng: random.Random) -> list[str]:
    """Re-evaluate a few seeded picks one at a time; records must be equal."""
    picks = [
        (search, index)
        for search, (candidates, _) in enumerate(workload.searches)
        for index in range(len(candidates))
    ]
    failures = []
    for search, index in rng.sample(picks, min(ORACLE_CANDIDATES, len(picks))):
        candidates, target = workload.searches[search]
        evaluate = evaluate_timed_design if is_timed(target) else evaluate_design
        oracle = evaluate(workload.evaluator, candidates[index], target)
        point = results[search].points[index]
        if _oracle_view(point) != _oracle_view(oracle):
            failures.append(f"{point.label}: campaign record differs from the oracle replay")
    return failures


def check_invariants(workload, results) -> list[str]:
    """Causality and sanity bounds every feasible record must satisfy."""
    failures = []
    for (_, target), result in zip(workload.searches, results):
        schedule = target.schedule() if is_timed(target) else None
        for point in result.points:
            if not point.feasible:
                continue
            problems = []
            if not (point.time_s > 0 and point.energy_j > 0):
                problems.append("non-positive time or energy")
            if not (math.isfinite(point.time_s) and math.isfinite(point.energy_j)):
                problems.append("non-finite time or energy")
            latency = latency_of(point)
            if schedule is not None:
                served = len(schedule) - (point.dropped_jobs or 0)
                if latency is None or latency.count != served:
                    problems.append(f"latency profile does not cover {served} jobs")
                elif not (
                    0.0 <= latency.p50_s <= latency.p95_s <= latency.p99_s
                    <= latency.max_s <= point.time_s
                    and 0.0 <= latency.mean_s <= latency.max_s
                ):
                    problems.append("response times break start >= arrival, completion >= start")
                if point.time_s < schedule[-1][1]:
                    problems.append("makespan ends before the last arrival")
            if problems:
                failures.append(f"{point.label}: {'; '.join(problems)}")
    return failures
