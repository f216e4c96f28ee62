"""Fault-tolerance study: pick a cluster design that survives failures.

The healthy-cluster knee is the wrong design to buy if nodes crash: a
tight design that wins on energy at full strength has no headroom when a
node drops out mid-burst, while a slightly larger design absorbs the
outage.  This example evaluates the same design grid twice — once on the
healthy diurnal trace, once under a nemesis schedule (a node crash during
the peak, a straggler after it) — and compares the design each SLA rule
selects.

Run:  python examples/fault_tolerance_study.py
"""

from repro import (
    CLUSTER_V_NODE,
    WIMPY_LAPTOP_B,
    DesignGrid,
    FailurePolicy,
    FaultSchedule,
    NodeCrash,
    PowerStateModel,
    SimulatorEvaluator,
    Straggler,
    Study,
    TimedTrace,
)
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.queries import q3_join

# ------------------------------------------------------------------ workload
# One diurnal day in miniature: arrivals swing from a quiet trough to a
# busy peak every 120 s.  The fault schedule below is aimed at the peak,
# where losing a node hurts the most.
query = q3_join(100, 0.05, 0.05)
schedule = diurnal_arrivals(
    45,
    base_rate_per_s=0.002,
    peak_rate_per_s=0.25,
    period_s=120.0,
    seed=7,
)
trace = TimedTrace.from_schedule("diurnal-day", query, schedule)
print(
    f"Trace: {len(schedule)} arrivals over {schedule[-1]:.0f} s "
    f"({schedule[-1] / 120.0:.1f} diurnal cycles)"
)

# ------------------------------------------------------------------- faults
# The nemesis scenario: node 1 crashes just after a peak-hour arrival (so
# a query dies mid-flight on every design) and takes a while to come
# back; later, node 2 limps at 60% speed for a stretch.  Killed queries
# abort and retry with capped exponential backoff; the crashed node
# reboots like fast-sleep hardware.
transitions = PowerStateModel(
    shutdown_s=0.1,
    boot_s=5.0,
    transition_power_fraction=0.8,
    gated_power_fraction=0.05,
)
crash_at = schedule[len(schedule) // 3] + 0.1
faults = FaultSchedule(
    events=(
        NodeCrash(node=1, at_s=crash_at, recover_at_s=crash_at + 35.0),
        Straggler(node=2, at_s=crash_at + 45.0, slowdown=0.6, duration_s=40.0),
    ),
    name="peak-crash",
)
policy = FailurePolicy.abort_and_retry(backoff_base_s=1.0, transitions=transitions)
faulted = trace.with_faults(faults, failure_policy=policy)
print(f"Faults: {len(faults)} events ({faults.name})")

# ------------------------------------------------------------------- search
grid = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(4, 6, 8),
)
study = Study(grid).with_evaluator(SimulatorEvaluator())
healthy = study.with_workload(trace).run()
degraded = study.with_workload(faulted).run()
print(f"Evaluated {len(grid)} designs healthy and under faults")

print("\nHealthy vs degraded response (fastest first):")
for before, after in zip(healthy.feasible_points, degraded.feasible_points):
    print(
        f"  {before.label:20s}  p99 {before.latency.p99_s:6.2f} s healthy | "
        f"{after.degraded_latency.p99_s:6.2f} s degraded  "
        f"retries {after.retried_jobs}  "
        f"recovery {after.recovery_energy_j / 1e3:.1f} kJ"
    )

# ----------------------------------------------------- selection at one SLA
# Hold one p99 requirement fixed and ask both questions: which design is
# cheapest when everything works, and which is cheapest when the nemesis
# schedule plays out?  When the answers differ, the gap is the price of
# provisioning for failure.  The requirement is set with just enough
# headroom over the most robust design's degraded response that at least
# one design survives the nemesis inside it.
sla_s = 1.05 * min(p.degraded_latency.p99_s for p in degraded.feasible_points)
best_healthy = healthy.best_under({"response_p99_s": sla_s})
print(f"\nAt a p99 SLA of {sla_s:.2f} s:")
print(
    f"  healthy pick   {best_healthy.label:20s} "
    f"{best_healthy.energy_j / 1e3:7.1f} kJ"
)
try:
    best_degraded = degraded.best_under(
        {"degraded_response_p99_s": sla_s, "dropped_jobs": 0}
    )
except Exception as exc:
    print(f"  no design meets the SLA under faults ({exc})")
else:
    print(
        f"  degraded pick  {best_degraded.label:20s} "
        f"{best_degraded.energy_j / 1e3:7.1f} kJ"
    )
    if best_degraded.label != best_healthy.label:
        extra = best_degraded.energy_j - best_healthy.energy_j
        print(
            f"  surviving the nemesis costs {extra / 1e3:.1f} kJ more "
            f"and a different design"
        )
    else:
        print("  the same design wins healthy and degraded")
