"""Cost bench: TCO pricing on the reference diurnal campaign.

The multi-objective cost model's contract is threefold, and each clause
is a hard gate here — the bench fails, not warns, when one breaks:

* **default-path bit-parity** — a campaign with no :class:`CostModel`
  attached produces records, frontier, and knee identical to a priced
  campaign's base fields: pricing is an annotation, never a perturbation;
* **knee divergence** — on the reference 216-design diurnal campaign the
  3-objective (time, energy, price) knee differs from the classic
  2-objective knee: the added axis genuinely reshapes selection (a capex
  model that prices wall time pulls the knee off the energy-optimal
  shoulder);
* **exact time-of-day integration** — a time-varying carbon curve's
  per-record grams must match an independent per-interval oracle that
  splits every simulator interval at slot boundaries and integrates
  piecewise, to float precision.

``pytest benchmarks/test_cost.py -q`` runs compact slices;
``make bench-json`` (``python benchmarks/test_cost.py --json
BENCH_cost.json``) runs the full campaign.
"""

import json
import multiprocessing
import sys
import time

from repro.costmodel import CarbonIntensityCurve, CostModel, JOULES_PER_KWH
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.pstore.simulated import SimulatedPStore
from repro.search import DesignGrid, DesignSpaceSearch, SimulatorEvaluator
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join

EVENTS = 48

#: the reference campaign space: 216 designs (matches BENCH_policy.json)
FULL_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8, 10, 12, 14, 16),
    frequency_factors=(1.0, 0.8, 0.6),
)

#: compact variant so the pytest rounds stay quick
SMALL_GRID = DesignGrid(
    node_pairs=FULL_GRID.node_pairs,
    cluster_sizes=(6, 8),
)

#: capex prices wall time (a beefy server amortizes ~10x a laptop node),
#: which is exactly what pulls the 3-objective knee off the 2-objective one
REFERENCE_MODEL = CostModel(
    tariff_usd_per_kwh=0.12,
    carbon_g_per_kwh=400.0,
    capex_usd_per_node_hour={"cluster-V": 0.80, "wimpy-laptopB": 0.08},
)


def solo_runtime() -> float:
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


def diurnal_model(solo: float, events: int = EVENTS) -> CostModel:
    """REFERENCE_MODEL with its flat grid swapped for a diurnal curve
    spanning the trace (trough at the stream's start)."""
    return CostModel(
        tariff_usd_per_kwh=REFERENCE_MODEL.tariff_usd_per_kwh,
        carbon_g_per_kwh=CarbonIntensityCurve.diurnal(
            50.0, 750.0, period_s=55.0 * solo
        ),
        capex_usd_per_node_hour=REFERENCE_MODEL.capex_usd_per_node_hour,
    )


def campaign(grid, trace, cost_model=None):
    return DesignSpaceSearch(
        evaluator=SimulatorEvaluator(cost_model=cost_model)
    ).search(grid, trace)


def base_view(points):
    """The pre-cost record surface: everything but the two cost fields."""
    return [
        (p.label, p.time_s, p.energy_j, p.feasible, p.latency) for p in points
    ]


def oracle_carbon_g(evaluator, candidate, trace, curve) -> float:
    """Independent per-interval integration: re-run the trace with
    interval recording and integrate each stretch by splitting at slot
    boundaries with :meth:`CarbonIntensityCurve.at` — no closed form."""
    cluster = candidate.cluster()
    store = SimulatedPStore(cluster, record_intervals=True)
    result = store.run_trace(evaluator._trace_schedule(cluster, candidate, trace))
    total = 0.0
    for interval in result.intervals:
        t = interval.start_s
        while t < interval.end_s:
            # advance to the next slot boundary (or the interval's end);
            # the rounding guard keeps a boundary that lands exactly on t
            # from producing a zero-width step
            boundary = (t // curve.slot_s + 1.0) * curve.slot_s
            if boundary <= t:
                boundary = (t // curve.slot_s + 2.0) * curve.slot_s
            step_end = min(boundary, interval.end_s)
            total += (
                interval.cluster_power_w
                * curve.at((t + step_end) / 2.0)
                * (step_end - t)
                / JOULES_PER_KWH
            )
            t = step_end
    return total


def test_default_path_parity_small():
    solo = solo_runtime()
    trace = reference_trace(solo, events=8)
    bare = campaign(SMALL_GRID, trace)
    priced = campaign(SMALL_GRID, trace, REFERENCE_MODEL)
    assert base_view(bare.points) == base_view(priced.points)
    assert all(p.carbon_g is None and p.price_usd is None for p in bare.points)
    assert all(
        p.carbon_g is not None and p.price_usd is not None
        for p in priced.points
        if p.feasible
    )


def test_time_of_day_carbon_matches_oracle_small():
    solo = solo_runtime()
    trace = reference_trace(solo, events=8)
    model = diurnal_model(solo, events=8)
    evaluator = SimulatorEvaluator(cost_model=model)
    for candidate in SMALL_GRID.candidate_list()[:4]:
        record = evaluator.evaluate_trace(candidate, trace)
        oracle = oracle_carbon_g(
            evaluator, candidate, trace, model.carbon_g_per_kwh
        )
        assert abs(record.carbon_g - oracle) <= 1e-9 * max(oracle, 1.0)


def test_cost_campaign_small(benchmark):
    solo = solo_runtime()
    trace = reference_trace(solo, events=8)
    result = benchmark(campaign, SMALL_GRID, trace, REFERENCE_MODEL)
    assert len(result.points) == len(SMALL_GRID.candidate_list())


def run_cost_bench(grid=FULL_GRID, events=EVENTS) -> dict:
    """Time the priced campaigns and gate the three cost contracts.

    Raises ``SystemExit`` on any violation: priced records diverging from
    bare ones on the base fields, a 3-objective knee that collapses onto
    the 2-objective knee, or time-of-day carbon drifting from the
    per-interval oracle.
    """
    solo = solo_runtime()
    trace = reference_trace(solo, events)

    start = time.perf_counter()
    bare = campaign(grid, trace)
    bare_s = time.perf_counter() - start

    start = time.perf_counter()
    priced = campaign(grid, trace, REFERENCE_MODEL)
    priced_s = time.perf_counter() - start

    parity_ok = base_view(bare.points) == base_view(priced.points) and all(
        p.carbon_g is None and p.price_usd is None for p in bare.points
    )
    frontier_parity_ok = [p.label for p in bare.pareto_frontier()] == [
        p.label for p in priced.pareto_frontier()
    ] and bare.knee().label == priced.knee().label

    knee_2d = priced.knee()
    knee_3d = priced.knee(objectives=("time_s", "energy_j", "price_usd"))
    frontier_2d = priced.pareto_frontier()
    frontier_3d = priced.pareto_frontier(
        objectives=("time_s", "energy_j", "price_usd")
    )

    # time-varying carbon: integrated inside the multiplexed loop, checked
    # record-for-record against the boundary-splitting oracle (which
    # replays each design serially with interval recording)
    model = diurnal_model(solo, events)
    start = time.perf_counter()
    timed = campaign(grid, trace, model)
    timed_s = time.perf_counter() - start
    evaluator = SimulatorEvaluator(cost_model=model)
    worst_drift = 0.0
    for point in timed.feasible_points:
        oracle = oracle_carbon_g(
            evaluator, point.candidate, trace, model.carbon_g_per_kwh
        )
        worst_drift = max(
            worst_drift, abs(point.carbon_g - oracle) / max(oracle, 1.0)
        )
    oracle_ok = worst_drift <= 1e-9

    # the diurnal curve must actually matter vs pricing at its mean
    mean_priced = {
        p.label: p.carbon_g / (p.energy_j / JOULES_PER_KWH)
        for p in timed.feasible_points
    }
    realized_spread = max(mean_priced.values()) - min(mean_priced.values())

    payload = {
        "benchmark": "TCO cost-model diurnal campaign",
        "designs": len(grid),
        "arrival_events": events,
        "cpus": multiprocessing.cpu_count(),
        "bare_wall_s": round(bare_s, 4),
        "priced_wall_s": round(priced_s, 4),
        "timed_carbon_wall_s": round(timed_s, 4),
        "pricing_overhead": round(priced_s / bare_s - 1.0, 4),
        "default_path_parity": parity_ok,
        "frontier_parity": frontier_parity_ok,
        "knee_2d": knee_2d.label,
        "knee_3d": knee_3d.label,
        "frontier_2d_size": len(frontier_2d),
        "frontier_3d_size": len(frontier_3d),
        "carbon_oracle_worst_rel_drift": worst_drift,
        "realized_g_per_kwh_spread": round(realized_spread, 2),
        "knee_3d_price_usd": round(knee_3d.price_usd, 4),
        "knee_2d_price_usd": round(knee_2d.price_usd, 4),
    }
    if not parity_ok:
        raise SystemExit(
            "cost bench FAILED: priced campaign perturbed the base records"
        )
    if not frontier_parity_ok:
        raise SystemExit(
            "cost bench FAILED: default-objective selections changed under pricing"
        )
    if knee_3d.label == knee_2d.label:
        raise SystemExit(
            "cost bench FAILED: the price axis did not move the knee "
            f"(both {knee_2d.label})"
        )
    if len(frontier_3d) < len(frontier_2d):
        raise SystemExit(
            "cost bench FAILED: adding the price objective shrank the frontier"
        )
    if not oracle_ok:
        raise SystemExit(
            "cost bench FAILED: time-of-day carbon drifted from the "
            f"per-interval oracle by {worst_drift:.2e} relative"
        )
    return payload


if __name__ == "__main__":
    out = sys.argv[sys.argv.index("--json") + 1] if "--json" in sys.argv else None
    payload = run_cost_bench()
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)
