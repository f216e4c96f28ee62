"""(design x policy) candidates through the search stack.

Determinism, serial/parallel parity, multiplex routing, cache-key
disjointness, and the Study facade over policy spaces.
"""

import pytest

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
from repro.study import Study
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join

GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(4,),
)

TRANSITIONS = PowerStateModel(
    shutdown_s=0.1,
    boot_s=0.2,
    transition_power_fraction=0.5,
    gated_power_fraction=0.05,
)


def policies():
    return (
        StaticPolicy(),
        PowerGatePolicy(
            utilization_floor=0.05, min_idle_s=2.0, transitions=TRANSITIONS
        ),
    )


def policy_space(control_interval_s=0.5):
    return SearchSpace.from_grid(
        GRID, policies=policies(), control_interval_s=control_interval_s
    )


def gappy_trace(count=6, seed=3) -> TimedTrace:
    query = q3_join(100, 0.05, 0.05)
    times = diurnal_arrivals(
        count,
        base_rate_per_s=0.01,
        peak_rate_per_s=1.0,
        period_s=60.0,
        seed=seed,
    )
    return TimedTrace.from_schedule("diurnal-q3", query, times)


class TestStudyOverPolicySpace:
    def test_run_annotates_policy_records(self):
        result = (
            Study(policy_space())
            .with_workload(gappy_trace())
            .with_evaluator(SimulatorEvaluator())
            .run()
        )
        assert len(result.points) == 2 * len(GRID.candidate_list())
        for point in result.points:
            assert point.policy in {"static", policies()[1].label}
            assert point.gated_node_seconds is not None
            assert point.energy_saved_j is not None
        static_points = [p for p in result.points if p.policy == "static"]
        assert all(p.gated_node_seconds == 0.0 for p in static_points)
        assert all(p.energy_saved_j == 0.0 for p in static_points)

    def test_static_policy_scores_match_bare_designs(self):
        """StaticPolicy rides the multiplexed fast path and scores exactly
        like the bare design (only the label/key/annotations differ)."""
        trace = gappy_trace()
        evaluator = SimulatorEvaluator()
        bare = DesignSpaceSearch(evaluator=evaluator).search(GRID, trace)
        wrapped = DesignSpaceSearch(evaluator=evaluator).search(
            [
                design.with_policy(StaticPolicy())
                for design in GRID.candidate_list()
            ],
            trace,
        )
        for bare_point, wrapped_point in zip(bare.points, wrapped.points):
            assert wrapped_point.time_s == bare_point.time_s
            assert wrapped_point.energy_j == bare_point.energy_j
            assert wrapped_point.latency == bare_point.latency
            assert wrapped_point.policy == "static"
            assert bare_point.policy is None

    def test_optimize_same_seed_is_deterministic(self):
        def run_once():
            study = (
                Study(policy_space())
                .with_workload(gappy_trace())
                .with_evaluator(SimulatorEvaluator())
            )
            return study.optimize(
                budget=60, optimizer="random", seed=11, batch_size=4
            )

        first, second = run_once(), run_once()
        fields = lambda p: (
            p.label,
            p.time_s,
            p.energy_j,
            p.policy,
            p.gated_node_seconds,
            p.energy_saved_j,
        )
        assert [fields(p) for p in first.points] == [
            fields(p) for p in second.points
        ]
        assert first.evaluations == second.evaluations

    def test_optimize_explores_policy_dimension(self):
        result = (
            Study(policy_space())
            .with_workload(gappy_trace())
            .with_evaluator(SimulatorEvaluator())
            .optimize(budget=120, optimizer="random", seed=5, batch_size=6)
        )
        seen = {point.policy for point in result.points}
        assert "static" in seen and policies()[1].label in seen


class TestDispatchParity:
    def test_serial_equals_chunked_parallel_for_policy_candidates(self):
        trace = gappy_trace(count=4)
        candidates = policy_space().candidate_list()
        serial = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            candidates, trace
        )
        with DesignSpaceSearch(
            evaluator=SimulatorEvaluator(), workers=2, min_dispatch_tasks=1
        ) as engine:
            parallel = engine.search(candidates, trace)
        assert parallel.workers_used == 2
        fields = lambda p: (
            p.label,
            p.time_s,
            p.energy_j,
            p.latency,
            p.policy,
            p.gated_node_seconds,
            p.energy_saved_j,
        )
        assert [fields(p) for p in parallel.points] == [
            fields(p) for p in serial.points
        ]

    def test_mixed_batch_routes_dynamic_policies_serially(self):
        """evaluate_trace_batch on a mix of bare designs, static-policy and
        dynamic-policy candidates matches per-candidate serial replay for
        every lane — the dynamic fallback is automatic."""
        trace = gappy_trace(count=4)
        evaluator = SimulatorEvaluator()
        designs = GRID.candidate_list()[:2]
        mixed = [
            designs[0],
            designs[0].with_policy(StaticPolicy()),
            designs[0].with_policy(policies()[1], 0.5),
            designs[1],
            designs[1].with_policy(policies()[1], 0.5),
        ]
        batch = evaluator.evaluate_trace_batch(trace, mixed)
        serial = [
            evaluate_timed_design(evaluator, candidate, trace)
            for candidate in mixed
        ]
        assert [(r.label, r.time_s, r.energy_j, r.latency) for r in batch] == [
            (r.label, r.time_s, r.energy_j, r.latency) for r in serial
        ]
        assert [r.policy for r in batch] == [r.policy for r in serial]


class TestCacheDisjointness:
    def test_policy_and_design_rows_never_alias(self):
        """Evaluating bare designs does not warm policy candidates, and
        policy rows never serve bare designs — both directions."""
        trace = gappy_trace(count=4)
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        bare = engine.search(GRID, trace)
        assert bare.evaluations == len(bare.points)
        wrapped = engine.search(policy_space().candidate_list(), trace)
        # nothing came from the design-only rows
        assert wrapped.evaluations == len(wrapped.points)
        # and the reverse: policy rows don't leak into a design-only sweep
        warm_bare = engine.search(GRID, trace)
        assert warm_bare.evaluations == 0  # its own rows, still warm
        warm_wrapped = engine.search(policy_space().candidate_list(), trace)
        assert warm_wrapped.evaluations == 0


class TestSelection:
    def test_sla_selection_reads_policy_records(self):
        result = (
            Study(policy_space())
            .with_workload(gappy_trace())
            .with_evaluator(SimulatorEvaluator())
            .run()
        )
        worst = max(p.latency.max_s for p in result.feasible_points)
        best = result.best_under({"response_max_s": worst * 1.01})
        assert best.policy is not None
        rows = result.to_rows()
        by_label = {row["label"]: row for row in rows}
        for point in result.points:
            row = by_label[point.label]
            assert row["policy"] == point.policy
            assert row["gated_node_seconds"] == point.gated_node_seconds
            assert row["energy_saved_j"] == point.energy_saved_j
