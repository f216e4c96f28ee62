"""Faults bench: degraded-mode evaluation on the reference campaign.

The claim behind :mod:`repro.faults` is twofold.  First, *do no harm*:
an empty ``FaultSchedule`` must ride the multiplexed fast path and
reproduce the healthy campaign bit for bit.  Second, *faults change the
answer*: under a seeded crash-and-recover scenario aimed at the diurnal
peak, the design ``best_under`` picks under a degraded-p99 limit with no
shed queries differs from its pick under the healthy p99 limit —
robustness costs real hardware, and the selector must surface that.

Two gates, both hard:

* fault-free parity — the empty-schedule search must be bit-identical
  (label, time, energy, latency) to the healthy search;
* knee shift — on the 216-design campaign the degraded pick must differ
  from the healthy pick at the shared SLA, and the crash must actually
  kill work (retries observed on every feasible degraded record).

``pytest benchmarks/test_faults.py -q`` runs compact slices through
pytest-benchmark; ``make bench-json`` (``python benchmarks/test_faults.py
--json BENCH_faults.json``) runs the full campaign.
"""

import json
import multiprocessing
import sys
import time

from repro.faults import FailurePolicy, FaultSchedule, NodeCrash, Straggler
from repro.hardware.powerstate import PowerStateModel
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import DesignGrid, DesignSpaceSearch, SimulatorEvaluator, best_under
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join

EVENTS = 48

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
    the time unit the trace and fault scenario are calibrated in."""
    return (
        SimulatorEvaluator()
        .evaluate_query(FULL_GRID.candidate_list()[0], q3_join(100, 0.05, 0.05))
        .time_s
    )


def reference_trace(solo: float, events: int = EVENTS) -> TimedTrace:
    """The diurnal reference trace (same shape as the policy bench)."""
    times = diurnal_arrivals(
        events,
        base_rate_per_s=0.005 / solo,
        peak_rate_per_s=0.5 / solo,
        period_s=55.0 * solo,
        seed=11,
    )
    return TimedTrace.from_schedule("bench-diurnal", q3_join(100, 0.05, 0.05), times)


def nemesis(trace: TimedTrace, solo: float) -> FaultSchedule:
    """Crash-and-recover aimed at the diurnal peak, plus a straggler.

    The crash lands just after a real arrival, so on every design a
    query dies mid-flight and the retry/backoff machinery runs; the
    node stays down for several solo runtimes, long enough that queueing
    piles up behind the outage.
    """
    times = [at_s for _, at_s in trace.schedule()]
    crash_at = times[len(times) // 3] + 0.02 * solo
    return FaultSchedule(
        events=(
            NodeCrash(node=1, at_s=crash_at, recover_at_s=crash_at + 8.0 * solo),
            Straggler(
                node=2,
                at_s=crash_at + 10.0 * solo,
                slowdown=0.6,
                duration_s=6.0 * solo,
            ),
        ),
        name="bench-nemesis",
    )


def failure_policy(solo: float) -> FailurePolicy:
    """Abort-and-retry with fast-sleep reboot hardware."""
    return FailurePolicy.abort_and_retry(
        backoff_base_s=0.1 * solo,
        backoff_cap_s=2.0 * solo,
        transitions=PowerStateModel(
            shutdown_s=0.03 * solo,
            boot_s=0.5 * solo,
            transition_power_fraction=0.8,
            gated_power_fraction=0.05,
        ),
    )


def record_view(points):
    return [(p.label, p.time_s, p.energy_j, p.feasible, p.latency) for p in points]


def knee_shift(healthy_points, degraded_points) -> tuple[dict, bool]:
    """Healthy vs degraded pick at a shared p99 SLA.

    The SLA gives the most robust design 5% headroom over its degraded
    p99, so the degraded selector has at least one candidate while the
    healthy selector sees a roomy requirement and optimizes energy.
    """
    degraded_feasible = [p for p in degraded_points if p.feasible]
    sla_s = 1.05 * min(p.degraded_latency.p99_s for p in degraded_feasible)
    healthy_pick = best_under(healthy_points, {"response_p99_s": sla_s})
    degraded_pick = best_under(
        degraded_points, {"degraded_response_p99_s": sla_s, "dropped_jobs": 0}
    )
    matchup = {
        "sla_p99_s": round(sla_s, 3),
        "healthy_label": healthy_pick.label,
        "healthy_energy_j": round(healthy_pick.energy_j, 1),
        "healthy_p99_s": round(healthy_pick.latency.p99_s, 3),
        "degraded_label": degraded_pick.label,
        "degraded_energy_j": round(degraded_pick.energy_j, 1),
        "degraded_p99_s": round(degraded_pick.degraded_latency.p99_s, 3),
        "recovery_energy_j": round(degraded_pick.recovery_energy_j, 1),
        "retried_jobs": degraded_pick.retried_jobs,
    }
    return matchup, healthy_pick.label != degraded_pick.label


def test_empty_schedule_parity_small():
    trace = reference_trace(solo_runtime(), events=8)
    engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
    healthy = engine.search(SMALL_GRID, trace)
    empty = engine.search(SMALL_GRID, trace.with_faults(FaultSchedule()))
    assert record_view(empty.points) == record_view(healthy.points)


def test_nemesis_bites_on_the_small_grid():
    solo = solo_runtime()
    trace = reference_trace(solo, events=24)
    faulted = trace.with_faults(nemesis(trace, solo), failure_policy(solo))
    result = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
        SMALL_GRID, faulted
    )
    feasible = [p for p in result.points if p.feasible]
    assert feasible
    assert all(p.retried_jobs >= 1 for p in feasible)
    assert all(p.recovery_energy_j > 0 for p in feasible)
    assert all(p.faults_survived == 2 for p in feasible)


def test_degraded_campaign_small(benchmark):
    solo = solo_runtime()
    trace = reference_trace(solo, events=8)
    faulted = trace.with_faults(nemesis(trace, solo), failure_policy(solo))

    def campaign():
        return DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            SMALL_GRID, faulted
        )

    result = benchmark(campaign)
    assert len(result.points) == len(SMALL_GRID.candidate_list())


def run_faults_bench(grid=FULL_GRID, events=EVENTS) -> dict:
    """Time the healthy + degraded campaigns and gate parity + knee shift.

    Raises ``SystemExit`` if the empty-schedule campaign diverges from
    the healthy one, if the nemesis fails to kill any work, or if the
    degraded-SLA pick equals the healthy pick (faults not changing the
    answer means the degraded path is not discriminating anything).
    """
    solo = solo_runtime()
    trace = reference_trace(solo, events)
    faults = nemesis(trace, solo)
    faulted = trace.with_faults(faults, failure_policy(solo))

    engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
    start = time.perf_counter()
    healthy = engine.search(grid, trace)
    healthy_s = time.perf_counter() - start

    start = time.perf_counter()
    empty = engine.search(grid, trace.with_faults(FaultSchedule()))
    empty_s = time.perf_counter() - start
    parity = record_view(empty.points) == record_view(healthy.points)

    start = time.perf_counter()
    degraded = engine.search(grid, faulted)
    degraded_s = time.perf_counter() - start

    degraded_feasible = [p for p in degraded.points if p.feasible]
    retried_total = sum(p.retried_jobs for p in degraded_feasible)
    crash_bit = bool(degraded_feasible) and all(
        p.retried_jobs >= 1 for p in degraded_feasible
    )
    matchup, shifted = knee_shift(healthy.points, degraded.points)

    payload = {
        "benchmark": "degraded-mode (nemesis) diurnal campaign",
        "designs": len(grid),
        "arrival_events": events,
        "fault_events": len(faults),
        "cpus": multiprocessing.cpu_count(),
        "healthy_wall_s": round(healthy_s, 4),
        "empty_schedule_wall_s": round(empty_s, 4),
        "degraded_wall_s": round(degraded_s, 4),
        "designs_per_s_degraded": round(len(grid) / degraded_s, 2),
        "fault_free_parity": parity,
        "feasible_degraded": len(degraded_feasible),
        "retried_jobs_total": retried_total,
        "recovery_energy_j_total": round(
            sum(p.recovery_energy_j for p in degraded_feasible), 1
        ),
        "knee_shifted": shifted,
        **matchup,
    }
    if not parity:
        raise SystemExit(
            "faults bench FAILED: empty-schedule campaign diverged from healthy"
        )
    if not crash_bit:
        raise SystemExit(
            "faults bench FAILED: the nemesis crash killed no work "
            f"({retried_total} retries across {len(degraded_feasible)} designs)"
        )
    if not shifted:
        raise SystemExit(
            "faults bench FAILED: degraded-SLA pick equals the healthy pick "
            f"({matchup['healthy_label']}) — faults did not change the answer"
        )
    return payload


if __name__ == "__main__":
    out = sys.argv[sys.argv.index("--json") + 1] if "--json" in sys.argv else None
    payload = run_faults_bench()
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)
