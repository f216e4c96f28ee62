"""Workload-level search: suites and trace mixes through the engine.

The PR-2 redesign promises that any :class:`Workload` runs through
:class:`DesignSpaceSearch` with the same memoization, fan-out, and
selection rules as single joins.  These tests pin that down: weighted
aggregation semantics, cache partitioning across workload types, and the
serial == parallel property for multi-query workloads.
"""

import pytest

from repro.core.model import ModelParameters, PStoreModel
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import DesignGrid, DesignSpaceSearch, EvaluationCache
from repro.workloads.protocol import ArrivalMix, SingleJoin
from repro.workloads.queries import section54_join
from repro.workloads.suite import SuiteEntry, WorkloadSuite


def mixed_suite():
    return WorkloadSuite(
        name="nightly",
        entries=(
            SuiteEntry(section54_join(0.01, 0.10), weight=3.0),  # homogeneous-mode
            SuiteEntry(section54_join(0.10, 0.02), weight=1.0),  # heterogeneous-mode
        ),
    )


def paper_grid(size=8):
    return DesignGrid.paper_axis(CLUSTER_V_NODE, WIMPY_LAPTOP_B, size)


class TestSuiteThroughEngine:
    def test_points_are_weighted_sums_of_member_predictions(self):
        result = DesignSpaceSearch().search(paper_grid(), mixed_suite())
        point = result.point("8B,0W")
        params = ModelParameters.from_specs(CLUSTER_V_NODE, 8, WIMPY_LAPTOP_B, 0)
        model = PStoreModel(params)
        expected_time = 0.0
        expected_energy = 0.0
        for entry in mixed_suite().entries:
            prediction = model.predict(entry.workload)
            expected_time += entry.weight * prediction.time_s
            expected_energy += entry.weight * prediction.energy_j
        assert point.time_s == expected_time
        assert point.energy_j == expected_energy

    def test_any_infeasible_member_fails_the_design(self):
        # the heterogeneous-mode member needs >= 2 Beefy nodes
        result = DesignSpaceSearch().search(paper_grid(), mixed_suite())
        infeasible = {p.label for p in result.infeasible_points}
        assert infeasible == {"1B,7W", "0B,8W"}

    def test_suite_resweep_is_memoized(self):
        search = DesignSpaceSearch()
        first = search.search(paper_grid(), mixed_suite())
        second = search.search(paper_grid(), mixed_suite())
        assert first.evaluations == 9
        assert second.evaluations == 0
        assert second.points == first.points

    def test_pareto_selections_available_for_suites(self):
        result = DesignSpaceSearch().search(paper_grid(), mixed_suite())
        frontier_labels = {p.label for p in result.pareto_frontier()}
        assert frontier_labels
        assert result.knee().label in frontier_labels
        assert result.edp_optimal().label in frontier_labels
        fastest = result.feasible_points[0].time_s
        assert result.best_under({"time_s": fastest * 2.0}).feasible

    def test_single_entry_unit_weight_suite_equals_bare_join(self):
        """Weight-1 singleton suites keep per-query records (fast path)."""
        query = section54_join(0.01, 0.10)
        suite = WorkloadSuite.of("solo", query)
        cache = EvaluationCache()
        engine = DesignSpaceSearch(cache=cache)
        as_suite = engine.search(paper_grid(), suite)
        as_join = engine.search(paper_grid(), query)
        for ours, theirs in zip(as_suite.points, as_join.points):
            assert ours.time_s == theirs.time_s
            assert ours.energy_j == theirs.energy_j
        assert as_suite.points[0].prediction is not None
        # per-entry memoization: the join search reuses the suite's
        # member-join entries, so it performs zero fresh evaluations
        assert as_join.evaluations == 0
        assert as_join.query_evaluations == 0
        assert as_join.cache_hits == 9

    def test_query_property_raises_for_multi_query_workloads(self):
        from repro.errors import ModelError

        result = DesignSpaceSearch().search(paper_grid(), mixed_suite())
        assert result.workload.name == "nightly"
        with pytest.raises(ModelError, match="use .workload"):
            result.query


class TestTraceMixThroughEngine:
    def test_trace_mix_weighted_like_equivalent_suite(self):
        daily = section54_join(0.01, 0.10)
        rare = section54_join(0.10, 0.02)
        mix = ArrivalMix.from_trace(
            "nightly", [(daily, 0.0), (daily, 10.0), (daily, 20.0), (rare, 30.0)]
        )
        suite = WorkloadSuite(
            name="nightly",
            entries=(SuiteEntry(daily, 3.0), SuiteEntry(rare, 1.0)),
        )
        cache = EvaluationCache()
        engine = DesignSpaceSearch(cache=cache)
        via_trace = engine.search(paper_grid(), mix)
        via_suite = engine.search(paper_grid(), suite)
        for ours, theirs in zip(via_trace.points, via_suite.points):
            assert ours.time_s == theirs.time_s
            assert ours.energy_j == theirs.energy_j
        # the suite shares the trace mix's per-entry cache rows: both
        # flatten to the same (entry key, candidate key) tasks
        assert via_trace.query_evaluations == 18
        assert via_suite.evaluations == 0
        assert via_suite.query_evaluations == 0


class TestWorkloadCachePartitioning:
    def test_aggregates_partitioned_but_entries_shared(self):
        """Same name, same grid, three workload types: each keeps its own
        workload-level aggregate rows (distinct ``cache_key()`` tags), but
        all three share the per-entry rows of the one member join — only
        the first search evaluates anything."""
        query = section54_join()
        single = SingleJoin(query)
        suite = WorkloadSuite(name=query.name, entries=(SuiteEntry(query, 1.0),))
        mix = ArrivalMix.from_trace(query.name, [(query, 0.0)])
        cache = EvaluationCache()
        engine = DesignSpaceSearch(cache=cache)
        first = engine.search(paper_grid(), single)
        assert first.query_evaluations == 9
        for workload in (suite, mix):
            result = engine.search(paper_grid(), workload)
            assert result.query_evaluations == 0  # entries shared across types
        # 9 shared entry rows + 9 suite aggregates + 9 trace aggregates
        # (a single join's aggregate key IS its entry key)
        assert len(cache) == 27


class TestSuiteParallelism:
    def test_serial_equals_parallel_for_suites(self):
        grid = DesignGrid(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
            cluster_sizes=(6, 8, 10),
        )
        suite = mixed_suite()
        serial = DesignSpaceSearch(workers=1, cache=EvaluationCache()).search(
            grid, suite
        )
        parallel = DesignSpaceSearch(
            workers=3, cache=EvaluationCache(), min_dispatch_tasks=1
        ).search(grid, suite)
        assert parallel.workers_used == 3
        assert serial.points == parallel.points

    @pytest.mark.parametrize("chunk_size", [None, 1, 4])
    def test_serial_equals_parallel_for_trace_mixes(self, chunk_size):
        query = section54_join(0.01, 0.10)
        mix = ArrivalMix.from_trace("t", [(query, float(i)) for i in range(5)])
        serial = DesignSpaceSearch(workers=1, cache=EvaluationCache()).search(
            paper_grid(), mix
        )
        parallel = DesignSpaceSearch(
            workers=2,
            chunk_size=chunk_size,
            cache=EvaluationCache(),
            min_dispatch_tasks=1,
        ).search(paper_grid(), mix)
        assert parallel.workers_used == 2
        assert serial.points == parallel.points
