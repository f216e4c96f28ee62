"""Adaptive optimizers: determinism, cache compatibility, acceptance.

The acceptance bar for the subsystem (ISSUE 4): on the 216-design
reference space, seeded SuccessiveHalving reaches the exhaustive grid's
knee design with at most 40% of the grid's fresh evaluations — verified
through the shared EvaluationCache counters — and every optimizer
evaluation is bit-identical to a grid evaluation of the same candidate.
"""

import random
import struct
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import (
    DesignGrid,
    DesignSpaceSearch,
    EvaluationCache,
    LocalSearch,
    OptimizationLoop,
    RandomSearch,
    RangeAxis,
    SearchSpace,
    SuccessiveHalving,
    build_optimizer,
)
from repro.search.grid import DesignCandidate
from repro.search.optimize import _promotion_order
from repro.study import OptimizationResult, Study, StudyResult
from repro.workloads.queries import q3_join, section54_join
from repro.workloads.suite import WorkloadSuite
from tests.search.test_objectives import random_cloud

#: the acceptance-criteria space: 216 designs (6 sizes x mixes x 3 DVFS)
REFERENCE_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8, 10, 12, 14, 16),
    frequency_factors=(1.0, 0.8, 0.6),
)

SMALL_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8),
    frequency_factors=(1.0, 0.8),
)


def nightly_suite(members: int = 4) -> WorkloadSuite:
    return WorkloadSuite.of(
        "nightly", *[q3_join(100, 0.01 * (i + 1), 0.05) for i in range(members)]
    )


def record_bytes(point):
    return struct.pack("2d", point.time_s, point.energy_j)


class TestAcceptance:
    """The ISSUE 4 acceptance criteria, end to end."""

    def test_successive_halving_finds_the_grid_knee_within_budget(self):
        suite = nightly_suite()
        grid_engine = DesignSpaceSearch(cache=EvaluationCache())
        exhaustive = grid_engine.search(REFERENCE_GRID, suite)
        assert exhaustive.query_evaluations == 216 * 4  # cold-cache grid cost

        sha_cache = EvaluationCache()
        sha_engine = DesignSpaceSearch(cache=sha_cache)
        result = OptimizationLoop(
            sha_engine,
            SearchSpace.from_grid(REFERENCE_GRID),
            suite,
            SuccessiveHalving(),
            seed=0,
        ).run()

        # <= 40% of the grid's fresh evaluations, counted two ways: the
        # result's own budget currency and the shared cache's counters
        # (every fresh evaluation is exactly one per-entry cache miss
        # that was then written back).
        budget_cap = 0.4 * exhaustive.query_evaluations
        assert result.fresh_query_evaluations <= budget_cap
        fresh_entry_rows = sum(
            1 for key in sha_cache._entries if key[1][0] == "join"
        )
        assert fresh_entry_rows == result.fresh_query_evaluations
        assert fresh_entry_rows <= budget_cap

        # the exhaustive knee design is recovered exactly
        assert result.knee().candidate.key() == exhaustive.knee().candidate.key()
        assert result.knee().label == exhaustive.knee().label

    def test_optimizer_evaluations_are_bit_identical_to_grid_evaluations(self):
        suite = nightly_suite()
        exhaustive = DesignSpaceSearch(cache=EvaluationCache()).search(
            REFERENCE_GRID, suite
        )
        by_key = {p.candidate.key(): p for p in exhaustive.points}
        result = OptimizationLoop(
            DesignSpaceSearch(cache=EvaluationCache()),
            SearchSpace.from_grid(REFERENCE_GRID),
            suite,
            SuccessiveHalving(),
            seed=0,
        ).run()
        assert result.points  # the archive holds the final rung
        for point in result.points:
            twin = by_key[point.candidate.key()]
            assert record_bytes(point) == record_bytes(twin)
            assert point.feasible == twin.feasible

    def test_optimizer_run_warms_a_later_grid_sweep(self):
        """Cache-key compatibility, measured with the shared cache: the
        grid sweep pays only for what the optimizer did not evaluate."""
        suite = nightly_suite()
        study = Study(REFERENCE_GRID).with_workload(suite)
        optimized = study.optimize(optimizer="successive-halving", seed=0)
        sweep = study.run()  # same engine, same cache
        assert (
            sweep.search.query_evaluations
            == 216 * 4 - optimized.fresh_query_evaluations
        )
        # and the other direction: everything is warm now
        assert study.run().search.query_evaluations == 0


class TestDeterminism:
    def test_same_seed_same_trajectory_and_archive(self):
        suite = nightly_suite()
        runs = [
            Study(REFERENCE_GRID)
            .with_workload(suite)
            .optimize(optimizer="successive-halving", seed=7)
            for _ in range(2)
        ]
        assert runs[0].trajectory == runs[1].trajectory
        assert [p.label for p in runs[0].points] == [
            p.label for p in runs[1].points
        ]
        assert [record_bytes(p) for p in runs[0].points] == [
            record_bytes(p) for p in runs[1].points
        ]

    @pytest.mark.parametrize("optimizer", ["random", "local"])
    def test_same_seed_same_candidates_for_sampling_optimizers(self, optimizer):
        results = [
            Study(SMALL_GRID)
            .with_workload(section54_join())
            .optimize(budget=12, optimizer=optimizer, seed=3, batch_size=4)
            for _ in range(2)
        ]
        assert [p.label for p in results[0].points] == [
            p.label for p in results[1].points
        ]
        assert results[0].trajectory == results[1].trajectory

    def test_reused_optimizer_instance_resets_between_runs(self):
        """setup() must clear sampler state: a second run with the same
        instance and seed is identical to the first, not empty
        (regression)."""
        optimizer = RandomSearch(batch_size=4)
        runs = [
            Study(SMALL_GRID)
            .with_workload(section54_join())
            .optimize(budget=12, optimizer=optimizer, seed=3)
            for _ in range(2)
        ]
        assert len(runs[1].points) == len(runs[0].points) > 0
        assert [p.label for p in runs[0].points] == [
            p.label for p in runs[1].points
        ]
        refiner = LocalSearch(batch_size=4)
        refined = [
            Study(SMALL_GRID)
            .with_workload(section54_join())
            .optimize(budget=12, optimizer=refiner, seed=3)
            for _ in range(2)
        ]
        assert [p.label for p in refined[0].points] == [
            p.label for p in refined[1].points
        ]

    def test_serial_equals_parallel(self):
        suite = nightly_suite()
        serial = (
            Study(REFERENCE_GRID)
            .with_workload(suite)
            .optimize(optimizer="successive-halving", seed=5)
        )
        parallel = (
            Study(REFERENCE_GRID)
            .with_workload(suite)
            .with_workers(2, min_dispatch_tasks=1)
            .optimize(optimizer="successive-halving", seed=5)
        )
        assert parallel.search.workers_used > 1
        assert [p.label for p in serial.points] == [
            p.label for p in parallel.points
        ]
        assert serial.points == parallel.points
        assert serial.trajectory == parallel.trajectory


class TestStoppingRules:
    def test_budget_exhaustion_stops_and_is_reported(self):
        result = (
            Study(REFERENCE_GRID)
            .with_workload(nightly_suite())
            .optimize(budget=100, optimizer="random", seed=6)
        )
        assert result.stop_reason == "budget-exhausted"
        assert result.fresh_query_evaluations >= 100
        # overshoot is bounded by one batch (16 candidates x 4 entries)
        assert result.fresh_query_evaluations <= 100 + 16 * 4

    def test_patience_convergence_stops(self):
        result = (
            Study(REFERENCE_GRID)
            .with_workload(nightly_suite())
            .optimize(optimizer="random", seed=4, patience=3)
        )
        assert result.stop_reason == "converged"
        assert len(result.points) < len(REFERENCE_GRID)

    def test_open_ended_optimizer_without_stop_rule_rejected(self):
        with pytest.raises(ConfigurationError, match="budget"):
            Study(SMALL_GRID).with_workload(section54_join()).optimize(
                optimizer="random"
            )

    def test_successive_halving_terminates_on_its_own(self):
        result = (
            Study(SMALL_GRID)
            .with_workload(nightly_suite(2))
            .optimize(optimizer="successive-halving", seed=0)
        )
        assert result.stop_reason == "optimizer-finished"


class TestSuccessiveHalving:
    def test_rung_schedule_subsamples_then_promotes(self):
        result = (
            Study(REFERENCE_GRID)
            .with_workload(nightly_suite())
            .optimize(optimizer="successive-halving", seed=0)
        )
        fidelities = [point.fidelity for point in result.trajectory]
        assert fidelities == [0.25, 0.5, 1.0]  # 1, 2, then all 4 entries
        pools = [point.candidates for point in result.trajectory]
        assert pools == [216, 72, 24]  # eta=3 cuts
        # only the full-fidelity rung populates the archive
        assert [point.archive_size for point in result.trajectory] == [0, 0, 24]

    def test_single_entry_workload_collapses_to_one_full_rung(self):
        result = (
            Study(SMALL_GRID)
            .with_workload(section54_join())
            .optimize(optimizer="successive-halving", seed=0)
        )
        assert len(result.trajectory) == 1
        assert result.trajectory[0].fidelity == 1.0
        assert len(result.points) == len(SMALL_GRID)  # races the whole space

    def test_initial_bounds_the_starting_pool(self):
        result = (
            Study(REFERENCE_GRID)
            .with_workload(section54_join())
            .optimize(optimizer="successive-halving", seed=1, initial=30)
        )
        assert result.trajectory[0].candidates == 30

    def test_rungs_reuse_entries_across_promotions(self):
        """A promoted candidate pays only for the entries its rung adds:
        216*1 + 72*1 + 24*2 fresh tasks, never 216+144+96."""
        result = (
            Study(REFERENCE_GRID)
            .with_workload(nightly_suite())
            .optimize(optimizer="successive-halving", seed=0)
        )
        spent = [p.fresh_query_evaluations for p in result.trajectory]
        assert spent == [216, 216 + 72, 216 + 72 + 48]

    def test_promotion_peels_only_as_deep_as_the_cut(self):
        """Ranking ``keep`` designs gives the prefix of the full ranking."""
        rng = random.Random(19)
        for trial in range(40):
            records = [
                replace(p, feasible=False) if rng.random() < 0.2 else p
                for p in random_cloud(rng, rng.randint(1, 40))
            ]
            full = _promotion_order(records, len(records))
            assert sorted(full) == list(range(len(records)))
            for keep in range(1, len(records) + 1):
                assert _promotion_order(records, keep) == full[:keep], (
                    f"trial {trial}, keep {keep}"
                )


class TestOptimizers:
    def test_random_search_never_repeats_a_design(self):
        result = (
            Study(REFERENCE_GRID)
            .with_workload(section54_join())
            .optimize(budget=60, optimizer="random", seed=2)
        )
        keys = [p.candidate.key() for p in result.points]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("seed", [0, 6])  # 6: rejection-sampler regression
    def test_random_search_exhausts_a_finite_space_and_finishes(self, seed):
        """Finite spaces are covered exactly before the optimizer quits —
        the sampler must not declare exhaustion with designs unseen."""
        for grid in (SMALL_GRID, REFERENCE_GRID):
            result = (
                Study(grid)
                .with_workload(section54_join())
                .optimize(budget=10_000, optimizer="random", seed=seed)
            )
            assert result.stop_reason == "optimizer-finished"
            assert len(result.points) == len(grid)

    def test_local_search_stays_inside_the_space(self):
        grid_keys = {c.key() for c in REFERENCE_GRID.candidate_list()}
        result = (
            Study(REFERENCE_GRID)
            .with_workload(section54_join())
            .optimize(budget=60, optimizer="local", seed=3, batch_size=8)
        )
        assert all(p.candidate.key() in grid_keys for p in result.points)

    def test_local_search_refines_on_an_open_space(self):
        space = SearchSpace(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
            cluster_sizes=RangeAxis("cluster_size", 4, 24, integer=True),
            frequency_factors=RangeAxis("frequency_factor", 0.5, 1.0),
        )
        result = (
            Study(space)
            .with_workload(section54_join())
            .optimize(budget=80, optimizer="local", seed=3)
        )
        assert result.stop_reason == "budget-exhausted"
        assert result.pareto_frontier()
        # open spaces cannot be run exhaustively
        with pytest.raises(ConfigurationError, match="optimize"):
            Study(space).with_workload(section54_join()).run()

    def test_build_optimizer_registry(self):
        assert isinstance(build_optimizer("random"), RandomSearch)
        assert isinstance(build_optimizer("sha"), SuccessiveHalving)
        assert isinstance(build_optimizer("evolutionary"), LocalSearch)
        instance = SuccessiveHalving(eta=4)
        assert build_optimizer(instance) is instance
        with pytest.raises(ConfigurationError, match="unknown optimizer"):
            build_optimizer("annealing")
        with pytest.raises(ConfigurationError, match="configure"):
            build_optimizer(instance, eta=2)


class TestEngineBatchHook:
    def test_duplicate_keys_collapse(self):
        base = dict(
            beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B, num_beefy=4, num_wimpy=4
        )
        twins = [
            DesignCandidate(label="a", **base),
            DesignCandidate(label="b", **base),
        ]
        result = DesignSpaceSearch().evaluate_batch(twins, section54_join())
        assert len(result.points) == 1
        assert result.points[0].label == "a"

    def test_label_collisions_between_distinct_designs_are_suffixed(self):
        base = dict(beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B)
        clash = [
            DesignCandidate(label="x", num_beefy=4, num_wimpy=4, **base),
            DesignCandidate(label="x", num_beefy=2, num_wimpy=6, **base),
        ]
        result = DesignSpaceSearch().evaluate_batch(clash, section54_join())
        assert [p.label for p in result.points] == ["x", "x~2"]


class TestOptimizationResultSurface:
    @pytest.fixture(scope="class")
    def result(self) -> OptimizationResult:
        return (
            Study(REFERENCE_GRID)
            .with_workload(nightly_suite())
            .with_reference("16B,0W|n16|phi1")
            .optimize(optimizer="successive-halving", seed=0)
        )

    def test_is_a_study_result(self, result):
        assert isinstance(result, StudyResult)
        assert result.knee().label in {p.label for p in result.pareto_frontier()}
        assert result.best_under({"time_s": result.points[0].time_s * 10}).feasible
        assert result.curve().reference.label == "16B,0W|n16|phi1"

    def test_trajectory_exports(self, result):
        rows = result.trajectory_rows()
        assert len(rows) == len(result.trajectory) == 3
        assert rows[0]["fresh_query_evaluations"] == 216
        assert rows[-1]["knee_label"] == result.knee().label
        from repro.analysis.export import trajectory_to_csv

        csv_text = trajectory_to_csv(result)
        assert csv_text.splitlines()[0].startswith("batch,rung,fidelity")
        assert len(csv_text.splitlines()) == 4

    def test_json_export_extends_the_search_payload(self, result):
        import json

        payload = json.loads(result.to_json())
        assert payload["optimizer"] == "successive-halving"
        assert payload["stop_reason"] == "optimizer-finished"
        assert payload["num_points"] == len(result.points)
        assert len(payload["trajectory"]) == 3
        assert payload["knee"] == result.knee().label
