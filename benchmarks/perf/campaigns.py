"""The benchmark's six workloads: seeded inputs and the campaigns over them.

A workload is a fixed evaluator, worker count and list of searches;
its *campaign* runs those searches in order on one
:class:`~repro.search.DesignSpaceSearch` with a fresh
:class:`~repro.search.EvaluationCache`.  :func:`build` makes every input
from the seed -- the arrival times of the trace workloads and the
selectivities of the suite joins -- so the program under test only ever
receives generated inputs.  Why each workload exists is recorded in
``BENCHMARK.json`` and the README: each layer worth optimising does most
of the work in one workload and little in another.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

from repro.costmodel import CarbonIntensityCurve, CostModel
from repro.faults import FailurePolicy, FaultSchedule, NodeCrash, Straggler
from repro.hardware.powerstate import PowerStateModel
from repro.hardware.presets import (
    CLUSTER_V_NODE,
    DESKTOP_ATOM,
    LAPTOP_B,
    WIMPY_LAPTOP_B,
    WORKSTATION_A,
    WORKSTATION_B,
)
from repro.policy import PowerGatePolicy, StaticPolicy
from repro.search import (
    DesignGrid,
    DesignSpaceSearch,
    EvaluationCache,
    ModelEvaluator,
    SearchSpace,
    SimulatorEvaluator,
)
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.protocol import TimedTrace, is_timed
from repro.workloads.queries import q3_join
from repro.workloads.suite import WorkloadSuite

DEFAULT_SEED = 11
NAMES = (
    "model-grid",
    "suite-sweep",
    "trace-healthy",
    "trace-policy",
    "trace-faults",
    "trace-carbon",
)

#: the 216-design reference grid of the stream, policy, faults and cost benches
REFERENCE_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8, 10, 12, 14, 16),
    frequency_factors=(1.0, 0.8, 0.6),
)
MODEL_GRID = DesignGrid(
    node_pairs=(
        (CLUSTER_V_NODE, WIMPY_LAPTOP_B),
        (WORKSTATION_A, LAPTOP_B),
        (WORKSTATION_B, DESKTOP_ATOM),
    ),
    cluster_sizes=tuple(range(2, 33, 2)),
    frequency_factors=(1.0, 0.9, 0.8, 0.7, 0.6),
)
POLICY_GRID = DesignGrid(
    node_pairs=REFERENCE_GRID.node_pairs,
    cluster_sizes=(6,),
    frequency_factors=(1.0, 0.6),
)
FAULT_GRID = DesignGrid(
    node_pairs=REFERENCE_GRID.node_pairs,
    cluster_sizes=(6, 8, 10),
    frequency_factors=(1.0, 0.8, 0.6),
)
#: the smoke test's stand-in for every grid above
TOY_GRID = DesignGrid(node_pairs=REFERENCE_GRID.node_pairs, cluster_sizes=(6,))

EVENTS = 48
TOY_EVENTS = 8
#: largest move of one arrival, as a share of its shorter neighbouring gap
JITTER = 0.25
#: candidates per search in the untimed warm-up that precedes timing
WARMUP_CANDIDATES = 4


@dataclass
class Workload:
    """One benchmark workload: everything a campaign needs, already built."""

    name: str
    evaluator: object
    #: (candidates, workload) pairs searched in order on one engine
    searches: list[tuple[list, object]]
    workers: int = 1
    #: back the cache with sqlite; warm passes re-open the file in a fresh engine
    persistent: bool = False

    @property
    def candidates(self) -> int:
        """Candidate records one campaign produces (design, or design x policy)."""
        return sum(len(candidates) for candidates, _ in self.searches)

    def entries(self) -> int:
        """Candidates x workload entries: the dedupe stage's input size."""
        return sum(
            len(candidates) * (1 if is_timed(w) else len(w.weighted_queries()))
            for candidates, w in self.searches
        )

    def warmup_searches(self) -> list[tuple[list, object]]:
        return [(c[:WARMUP_CANDIDATES], w) for c, w in self.searches]

    def engine(self, cache: EvaluationCache) -> DesignSpaceSearch:
        # min_dispatch_tasks=1: a pooled workload dispatches even its tiny
        # warm-up and toy batches, so those exercise the same path as the campaign
        return DesignSpaceSearch(
            evaluator=self.evaluator,
            workers=self.workers,
            cache=cache,
            min_dispatch_tasks=1,
        )


def sweep(engine: DesignSpaceSearch, searches) -> list:
    """Run one campaign's searches on ``engine``; one SearchResult each."""
    return [engine.search(candidates, w) for candidates, w in searches]


# ------------------------------------------------------------------ inputs
def seeded_suites(seed: int) -> list[WorkloadSuite]:
    """Three overlapping 4-join suites over a 6-join q3 pool.

    The seed draws each pool join's build and probe selectivity; the
    sliding windows make neighbouring suites share three joins, so the
    dedupe stage has real work.
    """
    rng = random.Random(seed)
    pool = [
        q3_join(100, rng.uniform(0.01, 0.06), rng.uniform(0.03, 0.07))
        for _ in range(6)
    ]
    return [
        WorkloadSuite.of(f"mix-{start}", *pool[start : start + 4])
        for start in range(3)
    ]


def solo_runtime() -> float:
    """Solo runtime of the reference join on the reference grid's first
    design: the unit every trace, policy and fault time is given in."""
    return (
        SimulatorEvaluator()
        .evaluate_query(REFERENCE_GRID.candidate_list()[0], q3_join(100, 0.05, 0.05))
        .time_s
    )


def diurnal_trace(solo: float, seed: int, events: int) -> TimedTrace:
    """The diurnal q3 trace, its arrival times jittered by the seed.

    The base is the reference trace of the policy, faults and cost
    benches (peaks queue, troughs sit near idle).  The seed moves every
    arrival by up to :data:`JITTER` of its shorter neighbouring gap, so
    no two seeds share an arrival time yet all offer the same load:
    measured over ten seeds, simulated work varies by under 2% (IQR over
    median), where a fresh diurnal draw per seed moves it by 30% and the
    campaign time by 2x.  Arrivals never reorder.
    """
    base = diurnal_arrivals(
        events,
        base_rate_per_s=0.005 / solo,
        peak_rate_per_s=0.5 / solo,
        period_s=55.0 * solo,
        seed=DEFAULT_SEED,
    )
    gaps = [base[0]] + [b - a for a, b in zip(base, base[1:])] + [math.inf]
    rng = random.Random(seed)
    times = [
        t + rng.uniform(-JITTER, JITTER) * min(gaps[i], gaps[i + 1])
        for i, t in enumerate(base)
    ]
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


def nemesis(trace: TimedTrace, solo: float) -> FaultSchedule:
    """A crash just after a real arrival a third of the way in, then a
    straggler: every design kills in-flight work and retries it."""
    times = [at_s for _, at_s in trace.schedule()]
    crash_at = times[len(times) // 3] + 0.02 * solo
    return FaultSchedule(
        events=(
            NodeCrash(node=1, at_s=crash_at, recover_at_s=crash_at + 8.0 * solo),
            Straggler(
                node=2, at_s=crash_at + 10.0 * solo, slowdown=0.6, duration_s=6.0 * solo
            ),
        ),
        name="bench-nemesis",
    )


def failure_policy(solo: float) -> FailurePolicy:
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


def carbon_model(solo: float) -> CostModel:
    """Tariff and capex with a diurnal grid-carbon curve over the trace."""
    return CostModel(
        tariff_usd_per_kwh=0.12,
        carbon_g_per_kwh=CarbonIntensityCurve.diurnal(50.0, 750.0, period_s=55.0 * solo),
        capex_usd_per_node_hour={"cluster-V": 0.80, "wimpy-laptopB": 0.08},
    )


def build(name: str, seed: int, toy: bool = False) -> Workload:
    """Workload ``name`` with inputs drawn from ``seed``.

    ``toy`` swaps every grid for :data:`TOY_GRID` and the trace for an
    8-event one, for the smoke test.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

    def grid(full: DesignGrid) -> list:
        return (TOY_GRID if toy else full).candidate_list()

    if name in ("model-grid", "suite-sweep"):
        suites = seeded_suites(seed)
        if name == "model-grid":
            candidates = grid(MODEL_GRID)
            return Workload(name, ModelEvaluator(), [(candidates, s) for s in suites])
        candidates = grid(REFERENCE_GRID)
        return Workload(
            name,
            SimulatorEvaluator(),
            [(candidates, s) for s in suites],
            # two workers, but never more than the CPUs this process may use
            workers=min(2, len(os.sched_getaffinity(0))),
            persistent=True,
        )

    solo = solo_runtime()
    trace = diurnal_trace(solo, seed, TOY_EVENTS if toy else EVENTS)
    if name == "trace-healthy":
        return Workload(name, SimulatorEvaluator(), [(grid(REFERENCE_GRID), trace)])
    if name == "trace-policy":
        space = SearchSpace.from_grid(
            TOY_GRID if toy else POLICY_GRID,
            policies=(StaticPolicy(), gate_policy(solo)),
            control_interval_s=0.125 * solo,
        )
        return Workload(name, SimulatorEvaluator(), [(space.candidate_list(), trace)])
    if name == "trace-faults":
        faulted = trace.with_faults(nemesis(trace, solo), failure_policy(solo))
        return Workload(name, SimulatorEvaluator(), [(grid(FAULT_GRID), faulted)])
    evaluator = SimulatorEvaluator(cost_model=carbon_model(solo))
    return Workload(name, evaluator, [(grid(FAULT_GRID), trace)])
