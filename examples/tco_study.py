"""TCO study: carbon and dollars as first-class objectives.

The paper optimizes (time, energy); total cost of ownership adds two more
currencies — amortized hardware dollars and grams of CO₂ — and the
cheapest design is not the most energy-efficient one:

1. **price** includes capex amortization over *wall time*, so a slow
   wimpy-heavy design that sips joules still pays for every node-hour it
   occupies — the price-optimal pick is faster than the energy-optimal;
2. **carbon** depends on *when* energy is drawn: under a diurnal grid
   (wind-heavy trough at night, gas peakers in the evening) a design
   that finishes inside the trough beats one that drifts into the peak,
   even at slightly more joules.

Part 1 sweeps a 216-design campaign (sizes x mixes x DVFS) under the
analytical model with a flat grid; Part 2 replays a timed trace under a
time-of-day carbon curve, where the simulator's power timeline is
integrated against the curve exactly.

Run:  python examples/tco_study.py
"""

from repro import (
    CLUSTER_V_NODE,
    WIMPY_LAPTOP_B,
    CarbonIntensityCurve,
    CostModel,
    DesignGrid,
    SimulatorEvaluator,
    Study,
)
from repro.analysis.report import render_table
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join

QUERY = q3_join(scale_factor=1000, build_selectivity=0.05, probe_selectivity=0.05)

# ----------------------------------------------------------- part 1: dollars
CAMPAIGN = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8, 10, 12, 14, 16),
    frequency_factors=(1.0, 0.8, 0.6),
)

FLAT_GRID_MODEL = CostModel(
    tariff_usd_per_kwh=0.12,
    carbon_g_per_kwh=400.0,
    # a beefy server amortizes ~10x a laptop-class node
    capex_usd_per_node_hour={"cluster-V": 0.80, "wimpy-laptopB": 0.08},
)

result = (
    Study(CAMPAIGN).with_workload(QUERY).with_cost_model(FLAT_GRID_MODEL).run()
)
feasible = result.feasible_points

picks = {
    "fastest": min(feasible, key=lambda p: p.time_s),
    "energy-optimal": min(feasible, key=lambda p: p.energy_j),
    "price-optimal": min(feasible, key=lambda p: p.price_usd),
    "2-obj knee (time, energy)": result.knee(),
    "4-obj knee (+price, carbon)": result.knee(
        objectives=("time_s", "energy_j", "price_usd", "carbon_g")
    ),
}
print(
    render_table(
        ("selection", "design", "time (s)", "energy (kJ)", "price ($)",
         "carbon (g)"),
        [
            (
                name,
                p.label,
                f"{p.time_s:.1f}",
                f"{p.energy_j / 1000:.0f}",
                f"{p.price_usd:.3f}",
                f"{p.carbon_g:.1f}",
            )
            for name, p in picks.items()
        ],
        title=f"TCO selections over {len(feasible)} feasible designs "
        "(flat 400 g/kWh grid)",
    )
)
print()
budget = picks["price-optimal"].price_usd * 1.5
capped = result.best_under({"price_usd": budget}, minimize="time_s")
print(
    f"Fastest design under a ${budget:.3f} budget: {capped.label} "
    f"({capped.time_s:.1f} s at ${capped.price_usd:.3f})"
)
print()

# ------------------------------------------------- part 2: time-of-day carbon
solo = SimulatorEvaluator().evaluate_query(
    CAMPAIGN.candidate_list()[0], QUERY
).time_s
# a burst of 8 queries landing in the grid's wind window: fast designs
# finish before the peakers come online, slow ones drift past the step
PERIOD = 30.0 * solo
BURST = [3.0 * solo + k * 0.5 * solo for k in range(8)]
TRACE = TimedTrace.from_schedule("trough-burst-q3", QUERY, BURST)
# night wind at 20 g/kWh for half the cycle, then 900 g/kWh gas peakers
CURVE = CarbonIntensityCurve(
    slots=(20.0, 20.0, 20.0, 900.0, 900.0, 900.0), period_s=PERIOD
)
DIURNAL_MODEL = CostModel(
    tariff_usd_per_kwh=0.12,
    carbon_g_per_kwh=CURVE,
    capex_usd_per_node_hour={"cluster-V": 0.80, "wimpy-laptopB": 0.08},
)

NIGHT_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6,),
    frequency_factors=(1.0, 0.6),
)
timed = (
    Study(NIGHT_GRID)
    .with_workload(TRACE)
    .with_evaluator(SimulatorEvaluator())
    .with_cost_model(DIURNAL_MODEL)
    .run()
)
night = timed.feasible_points
energy_pick = min(night, key=lambda p: p.energy_j)
carbon_pick = min(night, key=lambda p: p.carbon_g)

rows = []
for p in sorted(night, key=lambda p: p.carbon_g):
    effective = p.carbon_g / (p.energy_j / 3.6e6)  # realized g/kWh
    rows.append(
        (
            p.label,
            f"{p.time_s:.0f}",
            f"{p.energy_j / 1000:.0f}",
            f"{p.carbon_g:.1f}",
            f"{effective:.0f}",
        )
    )
print(
    render_table(
        ("design", "makespan (s)", "energy (kJ)", "carbon (g)",
         "realized g/kWh"),
        rows,
        title="Timed replay under a 20/900 g/kWh wind-then-peakers grid "
        f"(cycle mean {CURVE.mean:.0f})",
    )
)
print()
print(
    f"Energy-optimal: {energy_pick.label} "
    f"({energy_pick.energy_j / 1000:.0f} kJ, {energy_pick.carbon_g:.1f} g)"
)
print(
    f"Carbon-optimal: {carbon_pick.label} "
    f"({carbon_pick.energy_j / 1000:.0f} kJ, {carbon_pick.carbon_g:.1f} g)"
)
if carbon_pick.label != energy_pick.label:
    print(
        "The picks diverge: finishing before the grid's peak is worth "
        "more grams than the joules it costs."
    )
else:
    print("On this trace the two picks coincide.")
