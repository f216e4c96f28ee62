"""Trace-derived workload study: design for what actually arrives.

A day of query traffic is rarely a single join: it is a *stream* of
reports at different frequencies.  This example derives a weighted
workload mix straight from an arrival trace (Poisson-scheduled daily
reports interleaved with a periodic rollup), then searches a
multi-dimensional design space for it through the ``Study`` facade —
with the evaluation cache persisted to disk, so re-running this script
performs zero new model evaluations.

Run:  python examples/trace_mix_study.py
"""

from pathlib import Path

from repro import (
    CLUSTER_V_NODE,
    WIMPY_LAPTOP_B,
    ArrivalMix,
    DesignGrid,
    JoinWorkloadSpec,
    SimulatorEvaluator,
    Study,
    TimedTrace,
)
from repro.workloads.arrivals import periodic_arrivals, poisson_arrivals

daily_report = JoinWorkloadSpec(
    name="daily-report",
    build_volume_mb=700_000.0,
    probe_volume_mb=2_800_000.0,
    build_selectivity=0.01,
    probe_selectivity=0.01,
)
rollup = JoinWorkloadSpec(
    name="rollup",
    build_volume_mb=700_000.0,
    probe_volume_mb=2_800_000.0,
    build_selectivity=0.01,
    probe_selectivity=0.10,
)

# One simulated day: ~12 daily reports (Poisson) + 4 six-hourly rollups.
events = [(daily_report, t) for t in poisson_arrivals(12, rate_per_s=12 / 86_400)]
events += [(rollup, t) for t in periodic_arrivals(4, interval_s=21_600.0)]
events.sort(key=lambda event: event[1])

mix = ArrivalMix.from_trace("one-day-trace", events)
for query, weight in mix:
    print(f"  {query.name}: weight {weight:g}")

grid = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8, 10, 12),
    frequency_factors=(1.0, 0.8),
)
print(f"Design space: {len(grid)} candidates for mix '{mix.name}'")

# Per-user cache dir: /tmp is world-writable, and the cache deserializes
# its rows, so it must never be a path another user can pre-create.
cache_dir = Path.home() / ".cache" / "repro"
cache_dir.mkdir(parents=True, exist_ok=True)
cache_path = cache_dir / "trace-mix-cache.sqlite"
study = (
    Study(grid)
    .with_workload(mix)
    .with_workers(2)
    .with_cache(str(cache_path))
)

result = study.run()
print(
    f"Evaluated {result.evaluations} fresh designs "
    f"({result.cache_hits} served from {cache_path})"
)

print("\nPareto frontier (fastest first):")
for point in result.pareto_frontier()[:8]:
    print(
        f"  {point.label:18s}  {point.time_s:10.1f} weighted-s  "
        f"{point.energy_j / 1e6:8.2f} MJ"
    )

knee = result.knee()
print(f"\nKnee design for the whole day's mix: {knee.label}")
print(f"EDP-optimal: {result.edp_optimal().label}")

# Normalized Section 6 selection over the same result.
best = result.curve(reference_label=result.feasible_points[0].label).best_design(0.7)
print(f"Best design within 30% of the reference: {best.label}")

# ---------------------------------------------------------------- latency SLA
# The weighted mix above prices the day's *total* cost; it cannot say how
# long any one report waited.  A TimedTrace keeps the arrival times, and a
# stream-capable evaluator replays them under queueing — so the same study
# also answers "which design keeps every query under an SLA, cheapest?"
trace = TimedTrace.from_trace("one-day-timed", events)
latency_grid = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(8,),
)
# Same disk cache as the weights-only study: timed records persist under
# their own time-inclusive keys, so re-running replays zero streams too.
timed = (
    Study(latency_grid)
    .with_workload(trace)
    .with_evaluator(SimulatorEvaluator())
    .with_cache(str(cache_path))
    .run()
)
print(
    f"\nReplayed the timed trace on {timed.evaluations} designs "
    f"({timed.cache_hits} served from the cache)"
)

print("\nResponse times under queueing (per design, simulator):")
for point in timed.feasible_points[:6]:
    profile = point.latency
    print(
        f"  {point.label:8s}  p99 {profile.p99_s:9.1f} s  "
        f"worst {profile.max_s:9.1f} s  {point.energy_j / 1e6:8.2f} MJ"
    )

# Least-energy design whose worst-case response time meets the SLA.
sla_s = min(p.latency.max_s for p in timed.feasible_points) * 1.25
pick = timed.best_under({"response_max_s": sla_s})
print(
    f"\nCheapest design with worst-case response <= {sla_s:.0f} s: "
    f"{pick.label} ({pick.energy_j / 1e6:.2f} MJ, "
    f"worst {pick.latency.max_s:.1f} s)"
)
