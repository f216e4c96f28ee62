"""Stream bench: timed-trace evaluation over the reference design campaign.

The latency-aware path replays a whole arrival trace per design, and
since the event-multiplexed engine landed
(:func:`repro.simulator.multiplex.run_multiplexed`) the campaign advances
every design's replay together on one event loop.  This benchmark tracks
that speedup honestly: the *oracle* run replays the trace design by
design through the scalar engine
(:func:`~repro.search.evaluators.evaluate_timed_design`), the measured
run is the multiplexed campaign (``DesignSpaceSearch.search`` →
``evaluate_trace_batch``), and the two must agree record for record —
the engine's contract is bit-identical results, not "close enough".

``pytest benchmarks/test_stream.py -q`` runs compact slices through
pytest-benchmark and asserts the multiplexed campaign matches both the
serial oracle and parallel dispatch record for record.  ``make
bench-json`` (``python benchmarks/test_stream.py --json
BENCH_stream.json``) times the full 216-design campaign and *fails* if
the records diverge or the multiplexed speedup drops below
``MIN_SPEEDUP`` — a perf regression gate, not just a report.
"""

import json
import multiprocessing
import sys
import time

from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import DesignGrid, DesignSpaceSearch, SimulatorEvaluator
from repro.search.evaluators import evaluate_timed_design
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join

WORKERS = 2
EVENTS = 24

#: the bench fails outright below this multiplexed-over-serial speedup
MIN_SPEEDUP = 5.0

#: the reference campaign space: 216 designs (matches BENCH_search.json)
FULL_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8, 10, 12, 14, 16),
    frequency_factors=(1.0, 0.8, 0.6),
)

#: compact variant so the pytest-benchmark rounds stay quick
SMALL_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8),
)


def reference_trace(events: int = EVENTS) -> TimedTrace:
    """A Poisson arrival day with genuine queueing on the reference join.

    The rate is calibrated to ~1.5 arrivals per solo runtime on the
    grid's first design, so a fair share of queries overlap and the p99
    actually measures contention, not isolated runs.
    """
    query = q3_join(100, 0.05, 0.05)
    solo = SimulatorEvaluator().evaluate_query(
        FULL_GRID.candidate_list()[0], query
    ).time_s
    times = poisson_arrivals(events, rate_per_s=1.5 / solo, seed=11)
    return TimedTrace.from_schedule("bench-day", query, times)


def timed_campaign(grid, trace, workers=1):
    """One cold timed search over the grid; returns the SearchResult."""
    engine = DesignSpaceSearch(
        evaluator=SimulatorEvaluator(), workers=workers, min_dispatch_tasks=1
    )
    with engine:
        return engine.search(grid, trace)


def serial_oracle(grid, trace):
    """The pre-multiplexing path: one scalar trace replay per design."""
    evaluator = SimulatorEvaluator()
    return [
        evaluate_timed_design(evaluator, candidate, trace)
        for candidate in grid.candidate_list()
    ]


def record_view(points):
    return [
        (p.label, p.time_s, p.energy_j, p.feasible, p.latency) for p in points
    ]


def test_multiplexed_matches_serial_oracle():
    """The multiplexed campaign is bit-identical to design-by-design replay."""
    trace = reference_trace(events=8)
    campaign = timed_campaign(SMALL_GRID, trace)
    assert record_view(campaign.points) == record_view(
        serial_oracle(SMALL_GRID, trace)
    )


def test_serial_matches_parallel():
    """Timed dispatch is deterministic across the pool boundary."""
    trace = reference_trace(events=8)
    serial = timed_campaign(SMALL_GRID, trace, workers=1)
    parallel = timed_campaign(SMALL_GRID, trace, workers=WORKERS)
    assert parallel.workers_used == WORKERS
    assert record_view(serial.points) == record_view(parallel.points)


def test_timed_campaign_small(benchmark):
    trace = reference_trace(events=8)
    result = benchmark(timed_campaign, SMALL_GRID, trace)
    assert all(p.latency is not None for p in result.feasible_points)


def run_stream_bench(grid=FULL_GRID, events=EVENTS) -> dict:
    """Time the full timed campaign: multiplexed, serial oracle, warm.

    Raises ``SystemExit`` if the multiplexed records diverge from the
    oracle's or the speedup falls under :data:`MIN_SPEEDUP`.
    """
    trace = reference_trace(events)
    candidates = grid.candidate_list()

    engine = DesignSpaceSearch(
        evaluator=SimulatorEvaluator(), workers=1, min_dispatch_tasks=1
    )
    with engine:
        start = time.perf_counter()
        campaign = engine.search(grid, trace)
        multiplexed_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = engine.search(grid, trace)
        warm_s = time.perf_counter() - start

    start = time.perf_counter()
    oracle = serial_oracle(grid, trace)
    serial_s = time.perf_counter() - start

    identical = record_view(campaign.points) == record_view(oracle)
    speedup = serial_s / multiplexed_s

    knee = campaign.knee()
    sla_s = min(p.latency.max_s for p in campaign.feasible_points) * 1.25
    pick = campaign.best_under({"response_max_s": sla_s})
    payload = {
        "benchmark": "timed-trace stream campaign (event-multiplexed)",
        "designs": len(candidates),
        "arrival_events": events,
        "simulated_jobs": campaign.query_evaluations,
        "cpus": multiprocessing.cpu_count(),
        "multiplexed_wall_s": round(multiplexed_s, 4),
        "serial_wall_s": round(serial_s, 4),
        "warm_wall_s": round(warm_s, 4),
        "speedup": round(speedup, 3),
        # throughput of the shipping path (the multiplexed campaign)
        "designs_per_s": round(len(candidates) / multiplexed_s, 2),
        "simulated_jobs_per_s": round(
            campaign.query_evaluations / multiplexed_s, 1
        ),
        "results_identical": identical,
        "min_speedup": MIN_SPEEDUP,
        "warm_evaluations": warm.evaluations,
        "knee_label": knee.label,
        "knee_p99_s": round(knee.latency.p99_s, 3) if knee.latency else None,
        "latency_sla_s": round(sla_s, 3),
        "latency_sla_pick": pick.label,
        "latency_sla_pick_worst_s": round(pick.latency.max_s, 3),
    }
    if not identical:
        raise SystemExit(
            "stream bench FAILED: multiplexed campaign diverged from the "
            "serial oracle"
        )
    if speedup < MIN_SPEEDUP:
        raise SystemExit(
            f"stream bench FAILED: multiplexed speedup {speedup:.2f}x is "
            f"under the {MIN_SPEEDUP}x floor"
        )
    return payload


if __name__ == "__main__":
    out = sys.argv[sys.argv.index("--json") + 1] if "--json" in sys.argv else None
    payload = run_stream_bench()
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)
