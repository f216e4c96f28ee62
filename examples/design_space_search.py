"""Sweep a multi-dimensional cluster design space and read its frontier.

The paper sweeps one axis — Beefy/Wimpy mixes of an 8-node cluster
(Section 5.4).  This example uses :class:`repro.DesignSpaceSearch` to
sweep a much larger space in one shot:

* cluster sizes 6..16 nodes,
* every Beefy/Wimpy split of each size,
* three cluster-wide DVFS states (100%, 80%, 60% clock),

for the Section 5.4 join (700 GB ORDERS x 2.8 TB LINEITEM), then extracts
the Pareto frontier, the knee, the EDP optimum, and the cheapest design
under a response-time SLA.  A second sweep demonstrates the evaluation
cache: zero new model evaluations.

The final section goes adaptive: on the same 216-design space, a seeded
successive-halving optimizer recovers a nightly suite's exhaustive knee
with roughly a third of the grid's fresh evaluations — the path to
design spaces too large to enumerate at all.

Run:  python examples/design_space_search.py
"""

from repro import (
    CLUSTER_V_NODE,
    WIMPY_LAPTOP_B,
    DesignGrid,
    DesignSpaceSearch,
    EvaluationCache,
    ModelEvaluator,
    Study,
    q3_join,
    section54_join,
)
from repro.analysis.export import frontier_to_csv
from repro.workloads.suite import WorkloadSuite

query = section54_join()  # ORDERS 10% selectivity, LINEITEM 1%

grid = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8, 10, 12, 14, 16),
    frequency_factors=(1.0, 0.8, 0.6),
)
print(f"Design space: {len(grid)} candidate designs")

cache = EvaluationCache()
search = DesignSpaceSearch(evaluator=ModelEvaluator(), workers=2, cache=cache)
result = search.search(grid, query)

feasible = result.feasible_points
print(
    f"Evaluated {result.evaluations} designs on {result.workers_used} workers: "
    f"{len(feasible)} feasible, {len(result.infeasible_points)} infeasible"
)

frontier = result.pareto_frontier()
print(f"\nPareto frontier ({len(frontier)} designs, fastest first):")
for point in frontier[:10]:
    print(f"  {point.label:24s}  {point.time_s:9.1f} s  {point.energy_j / 1e6:8.2f} MJ")
if len(frontier) > 10:
    print(f"  ... and {len(frontier) - 10} more")

knee = result.knee()
edp_best = result.edp_optimal()
print(f"\nKnee of the frontier: {knee.label} ({knee.time_s:.1f} s)")
print(f"EDP-optimal design:   {edp_best.label} ({edp_best.edp:.3g} J*s)")

# SLA-constrained selection: cheapest design within 40% of the fastest.
fastest = min(p.time_s for p in feasible)
sla = 1.4 * fastest
winner = result.best_under({"time_s": sla})
print(
    f"\nBest design under a {sla:.0f} s SLA: {winner.label} "
    f"({winner.time_s:.1f} s, {winner.energy_j / 1e6:.2f} MJ)"
)

# The cache makes a repeated sweep free.
again = search.search(grid, query)
print(
    f"\nRe-sweep: {again.evaluations} new evaluations, "
    f"{again.cache_hits} cache hits (hit rate {cache.stats.hit_rate:.0%})"
)

csv_text = frontier_to_csv(result)
print(f"\nFrontier CSV export: {len(csv_text.splitlines()) - 1} rows")

# ---------------------------------------------------------------- adaptive
# The same space, searched adaptively: successive halving races every
# design on a cheap one-entry rung of a 4-query nightly suite, promotes
# Pareto-ranked survivors to ever-larger entry prefixes, and recovers the
# exhaustive knee for a fraction of the evaluations.
nightly = WorkloadSuite.of(
    "nightly", *[q3_join(100, 0.01 * (i + 1), 0.05) for i in range(4)]
)
study = Study(grid).with_workload(nightly)
optimized = study.optimize(optimizer="successive-halving", seed=0)
exhaustive = study.run()  # warmed by the optimizer: only the rest is fresh

grid_cost = optimized.fresh_query_evaluations + exhaustive.search.query_evaluations
print(
    f"\nAdaptive search ({optimized.optimizer_name}, seed 0) on the "
    f"nightly suite:"
)
for point in optimized.trajectory:
    print(
        f"  rung {point.rung}: {point.candidates:3d} designs at "
        f"{point.fidelity:.0%} fidelity, "
        f"{point.fresh_query_evaluations:3d} evaluations so far"
    )
print(
    f"  knee {optimized.knee().label} == exhaustive knee "
    f"{exhaustive.knee().label}: "
    f"{optimized.knee().label == exhaustive.knee().label}"
)
print(
    f"  {optimized.fresh_query_evaluations} of {grid_cost} fresh "
    f"evaluations "
    f"({optimized.fresh_query_evaluations / grid_cost:.0%} of the grid cost)"
)
