"""The Study facade: configuration, parity with legacy APIs, exports."""

import json

import pytest

from repro.core.design_space import DesignSpaceExplorer
from repro.core.model import ModelParameters
from repro.errors import ConfigurationError, ModelError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.pstore.plans import ExecutionMode
from repro.search import DesignCandidate, DesignGrid, EvaluationCache, ModelEvaluator
from repro.study import Study, StudyResult
from repro.workloads.queries import section54_join
from repro.workloads.suite import (
    SuiteEntry,
    WorkloadSuite,
    evaluate_suite,
    suite_tradeoff_curve,
)


def explorer(**kwargs):
    return DesignSpaceExplorer(CLUSTER_V_NODE, WIMPY_LAPTOP_B, cluster_size=8, **kwargs)


def mixed_suite():
    return WorkloadSuite(
        name="nightly",
        entries=(
            SuiteEntry(section54_join(0.01, 0.10), weight=3.0),
            SuiteEntry(section54_join(0.10, 0.02), weight=1.0),
        ),
    )


class TestStudyConfiguration:
    def test_run_without_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="with_workload"):
            Study(explorer()).run()

    def test_empty_candidate_space_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            Study([])

    def test_with_steps_do_not_mutate_the_original(self):
        base = Study(explorer())
        configured = base.with_workload(section54_join()).with_workers(4)
        assert base._workload is None
        assert base._workers == 1
        assert configured._workers == 4

    def test_with_evaluator_adapts_callables(self):
        study = (
            Study(explorer())
            .with_workload(section54_join())
            .with_evaluator(lambda cluster, query: (float(cluster.num_beefy), 1.0))
        )
        result = study.run()
        assert [p.time_s for p in result.points] == [float(n) for n in range(8, -1, -1)]

    def test_with_evaluator_rejects_non_callables(self):
        with pytest.raises(ConfigurationError, match="not an evaluator"):
            Study(explorer()).with_evaluator(42)

    def test_explorer_candidates_cover_the_mix_axis(self):
        labels = [c.label for c in Study(explorer()).candidates()]
        assert labels[0] == "8B,0W"
        assert labels[-1] == "0B,8W"
        assert len(labels) == 9

    def test_with_mode_forces_candidates(self):
        study = Study(explorer()).with_mode(ExecutionMode.HOMOGENEOUS)
        assert all(
            c.mode is ExecutionMode.HOMOGENEOUS for c in study.candidates()
        )

    def test_with_mode_applies_to_grid_and_list_spaces(self):
        """A forced mode must not be silently dropped for non-explorer
        spaces (regression)."""
        grid = DesignGrid(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),), cluster_sizes=(8,)
        )
        forced = Study(grid).with_mode(ExecutionMode.HOMOGENEOUS)
        assert all(c.mode is ExecutionMode.HOMOGENEOUS for c in forced.candidates())
        explicit = [
            DesignCandidate(
                label="4B,4W",
                beefy=CLUSTER_V_NODE,
                wimpy=WIMPY_LAPTOP_B,
                num_beefy=4,
                num_wimpy=4,
            )
        ]
        forced_list = Study(explicit).with_mode(ExecutionMode.HETEROGENEOUS)
        assert forced_list.candidates()[0].mode is ExecutionMode.HETEROGENEOUS


class TestSingleJoinParity:
    """Study over an explorer == the explorer's own sweep, bit for bit."""

    @pytest.mark.parametrize(
        "build_selectivity,probe_selectivity",
        [(0.10, 0.01), (0.10, 0.10), (0.01, 0.10)],
    )
    def test_curve_matches_sweep(self, build_selectivity, probe_selectivity):
        query = section54_join(build_selectivity, probe_selectivity)
        ex = explorer()
        old = ex.sweep(query)
        new = Study(ex).with_workload(query).run().curve()
        assert [p.label for p in new] == [p.label for p in old]
        for ours, theirs in zip(new, old):
            assert ours.time_s == theirs.time_s
            assert ours.energy_j == theirs.energy_j

    def test_study_and_sweep_share_the_explorer_cache(self):
        ex = explorer()
        query = section54_join()
        Study(ex).with_workload(query).run()
        result = Study(ex).with_workload(query).run()
        assert result.evaluations == 0  # second study fully memoized
        hits = ex._cache.hits
        ex.sweep(query)  # the legacy API reads the same memo
        assert ex._cache.hits == hits + 9

    def test_warm_and_strict_flags_adopted_from_explorer(self):
        query = section54_join()
        ex = explorer(warm_cache=True, strict_paper_conditions=True)
        old = ex.sweep(query)
        new = Study(ex).with_workload(query).run().curve()
        for ours, theirs in zip(new, old):
            assert ours.time_s == theirs.time_s
            assert ours.energy_j == theirs.energy_j


class TestSuiteParity:
    """Suite studies == the pre-redesign per-mix evaluate_suite loop."""

    def legacy_curve_points(self, suite, ex):
        """The pre-PR-2 suite_tradeoff_curve algorithm, verbatim."""
        points = []
        for cluster in ex.mixes():
            params = ModelParameters.from_specs(
                ex.beefy, cluster.num_beefy, ex.wimpy, cluster.num_wimpy
            )
            try:
                evaluation = evaluate_suite(suite, params, warm_cache=ex.warm_cache)
            except ModelError:
                continue
            points.append((cluster.name, evaluation.time_s, evaluation.energy_j))
        return points

    def test_bit_identical_to_legacy_algorithm(self):
        suite = mixed_suite()
        ex = explorer()
        expected = self.legacy_curve_points(suite, explorer())
        curve = Study(ex).with_workload(suite).run().curve()
        assert [(p.label, p.time_s, p.energy_j) for p in curve] == expected

    def test_shim_ignores_strict_flag_like_the_legacy_loop(self):
        """The legacy loop never passed strict_paper_conditions to
        evaluate_suite; the shim must not adopt it either (regression)."""
        suite = mixed_suite()
        strict_explorer = explorer(strict_paper_conditions=True)
        expected = self.legacy_curve_points(suite, explorer(strict_paper_conditions=True))
        curve = suite_tradeoff_curve(suite, strict_explorer)
        assert [(p.label, p.time_s, p.energy_j) for p in curve] == expected

    def test_shim_ignores_custom_evaluators_like_the_legacy_loop(self):
        """The legacy loop always priced suites with the analytical model,
        even on explorers carrying a custom evaluator (regression)."""
        suite = mixed_suite()
        custom = explorer(evaluator=lambda cluster, query: (1.0, 1.0))
        expected = self.legacy_curve_points(suite, explorer())
        curve = suite_tradeoff_curve(suite, custom)
        assert [(p.label, p.time_s, p.energy_j) for p in curve] == expected

    def test_suite_tradeoff_curve_is_the_study_shim(self):
        suite = mixed_suite()
        old = suite_tradeoff_curve(suite, explorer())
        new = Study(explorer()).with_workload(suite).run().curve()
        assert [(p.label, p.time_s, p.energy_j) for p in old] == [
            (p.label, p.time_s, p.energy_j) for p in new
        ]
        assert [p.cluster for p in old] == [p.cluster for p in new]

    def test_suites_gain_pareto_and_sla_selections(self):
        result = Study(explorer()).with_workload(mixed_suite()).run()
        frontier = result.pareto_frontier()
        assert frontier
        assert result.knee().label in {p.label for p in frontier}
        fastest = result.feasible_points[0].time_s
        assert result.best_under({"time_s": fastest * 1.5}).feasible

    def test_suites_gain_parallel_search(self):
        suite = mixed_suite()
        serial = Study(explorer()).with_workload(suite).run()
        parallel = (
            Study(explorer())
            .with_workload(suite)
            .with_workers(3, min_dispatch_tasks=1)
            .run()
        )
        assert parallel.search.workers_used == 3
        assert serial.points == parallel.points


class TestStudyEngineSharing:
    def grid(self):
        return DesignGrid(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),), cluster_sizes=(8,)
        )

    def test_workload_swapped_studies_share_engine_and_memo(self):
        """The campaign pattern reuses one engine: overlapping workloads
        share per-entry cache rows across derived studies."""
        base = Study(self.grid())
        shared = section54_join(0.01, 0.10)
        first = base.with_workload(shared).run()
        assert first.search.query_evaluations == 9
        suite = WorkloadSuite.of("pair", shared, section54_join(0.10, 0.02))
        second = base.with_workload(suite).run()
        assert second.search.query_evaluations == 9  # only the new member
        assert base.engine() is base.with_workload(shared).engine()

    def test_engine_config_changes_start_a_fresh_engine(self):
        base = Study(self.grid()).with_workload(section54_join())
        assert base.engine() is not base.with_workers(2).engine()
        assert base.engine() is not base.with_cache(EvaluationCache()).engine()
        assert (
            base.engine()
            is not base.with_evaluator(ModelEvaluator(warm_cache=True)).engine()
        )
        # non-engine steps keep sharing
        assert base.engine() is base.with_reference("8B,0W").engine()


class TestStudySpaces:
    def test_grid_space(self):
        grid = DesignGrid(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
            cluster_sizes=(6, 8),
            frequency_factors=(1.0, 0.8),
        )
        result = Study(grid).with_workload(section54_join()).run()
        assert len(result) == len(grid)

    def test_explicit_candidate_space(self):
        candidates = [
            DesignCandidate(
                label=f"{n}B,{8 - n}W",
                beefy=CLUSTER_V_NODE,
                wimpy=WIMPY_LAPTOP_B,
                num_beefy=n,
                num_wimpy=8 - n,
            )
            for n in (8, 4)
        ]
        result = Study(candidates).with_workload(section54_join()).run()
        assert [p.label for p in result.points] == ["8B,0W", "4B,4W"]

    def test_explicit_cache_is_used(self):
        cache = EvaluationCache()
        study = (
            Study(explorer())
            .with_workload(section54_join())
            .with_cache(cache)
            .with_evaluator(ModelEvaluator())
        )
        study.run()
        assert len(cache) == 9


class TestStudyResultSurface:
    @pytest.fixture(scope="class")
    def result(self) -> StudyResult:
        return Study(explorer()).with_workload(mixed_suite()).run()

    def test_iteration_and_lookup(self, result):
        assert len(result) == 9
        assert len(list(result)) == 9
        assert result.point("8B,0W").label == "8B,0W"

    def test_normalized_and_best_design(self, result):
        normalized = result.normalized()
        assert normalized[0].performance == 1.0
        best = result.best_design(target_performance=0.6)
        assert best.num_wimpy > 0

    def test_reference_label_flows_to_curve(self):
        result = (
            Study(explorer())
            .with_workload(section54_join())
            .with_reference("6B,2W")
            .run()
        )
        assert result.curve().reference.label == "6B,2W"
        assert result.normalized()[2].performance == 1.0

    def test_no_feasible_designs_raises(self):
        result = Study(explorer()).with_workload(section54_join(0.80, 0.10)).run()
        if result.feasible_points:  # guard: workload chosen to be infeasible
            pytest.skip("workload unexpectedly feasible")
        with pytest.raises(ModelError, match="no feasible design"):
            result.curve()

    def test_export_hooks(self, result):
        payload = json.loads(result.to_json())
        assert payload["workload"] == "nightly"
        assert payload["num_points"] == 9
        rows = result.to_rows()
        assert len(rows) == 9
        frontier_csv = result.frontier_csv()
        assert frontier_csv.splitlines()[0].startswith("label,")
        curve_csv = result.curve_csv()
        assert len(curve_csv.splitlines()) == len(result.feasible_points) + 1
