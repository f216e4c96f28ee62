"""repro.faults — nemesis-style fault injection for degraded-mode studies.

The paper's frontier assumes perfect health; this package injects the
failures a real cluster pays for, so every design is also scored on how
it behaves *degraded*:

* :mod:`repro.faults.schedule` — typed, seeded fault events
  (:class:`NodeCrash`, :class:`Straggler`, :class:`NetworkDegrade`), the
  deterministic :class:`FaultSchedule` container, and the
  :class:`FailurePolicy` (abort-and-retry with capped exponential
  backoff, or drop) governing killed jobs;
* :mod:`repro.faults.generators` — canonical scenarios:
  :func:`random_crashes`, :func:`rolling_restart`,
  :func:`correlated_rack_failure`;
* :mod:`repro.faults.trace` — :class:`FaultedTrace`, the workload a
  ``TimedTrace.with_faults(schedule)`` call produces; it carries the
  scenario through the search stack under fault-namespaced cache keys.

Quick use::

    from repro import TimedTrace, random_crashes

    trace = TimedTrace.from_schedule("diurnal", query, arrivals)
    scenario = random_crashes(num_nodes=16, horizon_s=trace.span_s,
                              count=3, mttr_s=120.0, seed=7)
    degraded = engine.search(grid, trace.with_faults(scenario,
                                                     replication_factor=2))
    # least energy with p99 <= 30 s under the crashes, shedding no query
    pick = degraded.best_under({"degraded_response_p99_s": 30.0, "dropped_jobs": 0})
"""

from repro.faults.generators import (
    correlated_rack_failure,
    random_crashes,
    rolling_restart,
)
from repro.faults.schedule import (
    FailurePolicy,
    FaultSchedule,
    NetworkDegrade,
    NodeCrash,
    Straggler,
)
from repro.faults.trace import FaultedTrace

__all__ = [
    "FaultSchedule",
    "FaultedTrace",
    "FailurePolicy",
    "NodeCrash",
    "Straggler",
    "NetworkDegrade",
    "random_crashes",
    "rolling_restart",
    "correlated_rack_failure",
]
