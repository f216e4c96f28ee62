"""Policy bench: the (design x policy) campaign on a diurnal trace.

The claim behind :mod:`repro.policy` is quantitative: on a trace with
real quiet hours, searching (design x control policy) jointly finds a
configuration that spends strictly less energy than the best static
design *at the same p99 response-time SLA*.  This benchmark pins that
claim on the reference 216-design campaign and fails — not warns — when
it stops holding.

Three gates, all hard:

* every StaticPolicy record must be bit-identical to its bare design's
  record (the static fast path rides the multiplexed engine);
* dynamic-policy records must match per-candidate serial replay (the
  automatic serial fallback is exact, not approximate);
* the best power-gated candidate must beat the best static candidate on
  energy at the static candidate's own p99 — by at least
  ``MIN_ENERGY_WIN`` relative.

``pytest benchmarks/test_policy.py -q`` runs compact slices through
pytest-benchmark; ``make bench-json`` (``python benchmarks/test_policy.py
--json BENCH_policy.json``) runs the full campaign.
"""

import json
import multiprocessing
import sys
import time

from repro.hardware.powerstate import PowerStateModel
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.policy import PowerGatePolicy, StaticPolicy
from repro.search import (
    DesignGrid,
    DesignSpaceSearch,
    SearchSpace,
    SimulatorEvaluator,
)
from repro.search.evaluators import evaluate_timed_design
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join

EVENTS = 48

#: the bench fails outright below this relative energy win at equal p99
MIN_ENERGY_WIN = 0.05

#: the reference campaign space: 216 designs (matches BENCH_stream.json)
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


def solo_runtime() -> float:
    """Solo runtime of the reference join on the grid's first design —
    the time unit every trace and policy parameter is calibrated in."""
    return (
        SimulatorEvaluator()
        .evaluate_query(FULL_GRID.candidate_list()[0], q3_join(100, 0.05, 0.05))
        .time_s
    )


def reference_trace(solo: float, events: int = EVENTS) -> TimedTrace:
    """A diurnal trace with genuinely quiet troughs.

    The rate crests at ~0.5 arrivals per solo runtime (real queueing at
    the peak) and troughs near silence; the period spans ~55 solo
    runtimes, so each quiet half-cycle is a long stretch of idleness —
    the window a gating policy exploits.
    """
    times = diurnal_arrivals(
        events,
        base_rate_per_s=0.005 / solo,
        peak_rate_per_s=0.5 / solo,
        period_s=55.0 * solo,
        seed=11,
    )
    return TimedTrace.from_schedule("bench-diurnal", q3_join(100, 0.05, 0.05), times)


def gate_policy(solo: float) -> PowerGatePolicy:
    """Power-gate idle wimpy nodes on fast-sleep transition hardware."""
    return PowerGatePolicy(
        utilization_floor=0.05,
        min_idle_s=2.0 * solo,
        transitions=PowerStateModel(
            shutdown_s=0.03 * solo,
            boot_s=0.05 * solo,
            transition_power_fraction=0.5,
            gated_power_fraction=0.05,
        ),
    )


def policy_space(grid, solo: float) -> SearchSpace:
    return SearchSpace.from_grid(
        grid,
        policies=(StaticPolicy(), gate_policy(solo)),
        control_interval_s=0.125 * solo,
    )


def policy_campaign(grid, trace, solo, workers=1):
    """One cold (design x policy) search; returns the SearchResult."""
    engine = DesignSpaceSearch(
        evaluator=SimulatorEvaluator(), workers=workers, min_dispatch_tasks=1
    )
    with engine:
        return engine.search(policy_space(grid, solo).candidate_list(), trace)


def record_view(points):
    return [
        (p.label, p.time_s, p.energy_j, p.feasible, p.latency, p.policy)
        for p in points
    ]


def split_by_policy(points):
    static = [p for p in points if p.feasible and p.policy == "static"]
    dynamic = [p for p in points if p.feasible and p.policy not in (None, "static")]
    return static, dynamic


def energy_win_at_static_sla(points) -> tuple[float, dict]:
    """Relative energy win of the best gated candidate at the p99 of the
    cheapest static candidate; also returns the matchup for the payload."""
    static, dynamic = split_by_policy(points)
    best_static = min(static, key=lambda p: p.energy_j)
    sla_s = best_static.latency.p99_s
    meeting = [p for p in dynamic if p.latency.p99_s <= sla_s]
    if not meeting:
        return 0.0, {"sla_p99_s": sla_s, "static_label": best_static.label}
    best_dynamic = min(meeting, key=lambda p: p.energy_j)
    win = (best_static.energy_j - best_dynamic.energy_j) / best_static.energy_j
    return win, {
        "sla_p99_s": round(sla_s, 3),
        "static_label": best_static.label,
        "static_energy_j": round(best_static.energy_j, 1),
        "dynamic_label": best_dynamic.label,
        "dynamic_energy_j": round(best_dynamic.energy_j, 1),
        "dynamic_gated_node_s": round(best_dynamic.gated_node_seconds, 1),
    }


def test_static_policy_rides_the_fast_path():
    """StaticPolicy records equal bare-design records field for field."""
    solo = solo_runtime()
    trace = reference_trace(solo, events=8)
    engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
    bare = engine.search(SMALL_GRID, trace)
    wrapped = engine.search(
        [
            d.with_policy(StaticPolicy())
            for d in SMALL_GRID.candidate_list()
        ],
        trace,
    )
    for b, w in zip(bare.points, wrapped.points):
        assert (w.time_s, w.energy_j, w.latency) == (b.time_s, b.energy_j, b.latency)


def test_dynamic_records_match_serial_replay():
    """The batch path's serial fallback is exact per candidate."""
    solo = solo_runtime()
    trace = reference_trace(solo, events=8)
    candidates = policy_space(SMALL_GRID, solo).candidate_list()
    campaign = policy_campaign(SMALL_GRID, trace, solo)
    evaluator = SimulatorEvaluator()
    oracle = [
        evaluate_timed_design(evaluator, candidate, trace)
        for candidate in candidates
    ]
    assert record_view(campaign.points) == record_view(oracle)


def test_gating_wins_on_the_small_grid():
    solo = solo_runtime()
    trace = reference_trace(solo, events=24)
    campaign = policy_campaign(SMALL_GRID, trace, solo)
    win, _ = energy_win_at_static_sla(campaign.points)
    assert win > 0.0


def test_policy_campaign_small(benchmark):
    solo = solo_runtime()
    trace = reference_trace(solo, events=8)
    result = benchmark(policy_campaign, SMALL_GRID, trace, solo)
    assert len(result.points) == 2 * len(SMALL_GRID.candidate_list())


def run_policy_bench(grid=FULL_GRID, events=EVENTS) -> dict:
    """Time the full (design x policy) campaign and gate the energy win.

    Raises ``SystemExit`` if static records diverge from bare designs, if
    parallel dispatch diverges from serial, or if the gated win at the
    static p99 SLA falls under :data:`MIN_ENERGY_WIN`.
    """
    solo = solo_runtime()
    trace = reference_trace(solo, events)
    candidates = policy_space(grid, solo).candidate_list()

    start = time.perf_counter()
    campaign = policy_campaign(grid, trace, solo)
    campaign_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = policy_campaign(grid, trace, solo, workers=2)
    parallel_s = time.perf_counter() - start

    identical = record_view(campaign.points) == record_view(parallel.points)

    bare = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(grid, trace)
    static_points, dynamic_points = split_by_policy(campaign.points)
    # Enumeration is design-major with the static policy first, so the
    # static record for design i sits at campaign.points[2 * i].
    static_fast_path_ok = all(
        (campaign.points[2 * i].time_s, campaign.points[2 * i].energy_j,
         campaign.points[2 * i].latency)
        == (b.time_s, b.energy_j, b.latency)
        for i, b in enumerate(bare.points)
    )

    win, matchup = energy_win_at_static_sla(campaign.points)
    payload = {
        "benchmark": "(design x policy) diurnal autoscaling campaign",
        "designs": len(grid),
        "candidates": len(candidates),
        "arrival_events": events,
        "cpus": multiprocessing.cpu_count(),
        "campaign_wall_s": round(campaign_s, 4),
        "parallel_wall_s": round(parallel_s, 4),
        "candidates_per_s": round(len(candidates) / campaign_s, 2),
        "results_identical": identical,
        "static_fast_path_ok": static_fast_path_ok,
        "feasible_static": len(static_points),
        "feasible_dynamic": len(dynamic_points),
        "gated_candidates": sum(
            1 for p in dynamic_points if p.gated_node_seconds > 0
        ),
        "energy_win_at_static_sla": round(win, 4),
        "min_energy_win": MIN_ENERGY_WIN,
        **matchup,
    }
    if not identical:
        raise SystemExit(
            "policy bench FAILED: parallel campaign diverged from serial"
        )
    if not static_fast_path_ok:
        raise SystemExit(
            "policy bench FAILED: StaticPolicy records diverged from bare designs"
        )
    if win < MIN_ENERGY_WIN:
        raise SystemExit(
            f"policy bench FAILED: gated energy win {win:.1%} at the static "
            f"p99 SLA is under the {MIN_ENERGY_WIN:.0%} floor"
        )
    return payload


if __name__ == "__main__":
    out = sys.argv[sys.argv.index("--json") + 1] if "--json" in sys.argv else None
    payload = run_policy_bench()
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)
