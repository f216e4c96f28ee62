"""Query-granularity fan-out: per-entry memoization, dedupe, pool reuse.

The engine's unit of evaluation, memoization, and dispatch is
(candidate x query entry).  These tests pin the redesign's promises:
suites reuse member-join cache rows (and vice versa), identical tasks
dedupe across candidates, the per-entry parallel path is bit-identical
to serial, and the persistent worker pool survives across ``search()``
calls.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CostModel
from repro.hardware.presets import (
    CLUSTER_V_NODE,
    DESKTOP_ATOM,
    LAPTOP_B,
    WIMPY_LAPTOP_B,
    WORKSTATION_A,
    WORKSTATION_B,
)
from repro.pstore.plans import ExecutionMode
from repro.search import (
    DesignGrid,
    DesignSpaceSearch,
    EvaluationCache,
    ModelEvaluator,
    SimulatorEvaluator,
)
from repro.search.evaluators import evaluate_entry
from repro.search.grid import DesignCandidate
from repro.workloads.protocol import ArrivalMix, SingleJoin, entry_cache_key
from repro.workloads.queries import q3_join, section54_join
from repro.workloads.suite import SuiteEntry, WorkloadSuite


def paper_grid(size=8):
    return DesignGrid.paper_axis(CLUSTER_V_NODE, WIMPY_LAPTOP_B, size)


PRICED = CostModel(
    tariff_usd_per_kwh=0.12,
    carbon_g_per_kwh=400.0,
    capex_usd_per_node_hour={"cluster-V": 0.80, "wimpy-laptopB": 0.08},
)
#: cold and warm scans, both branch conditions, both pipeline CPU costs, a
#: cost model, and a model that cannot be built at all
MODEL_EVALUATORS = {
    "cold": ModelEvaluator(),
    "warm-calibrated": ModelEvaluator(warm_cache=True, pipeline_cpu_cost=3.0),
    "strict-priced": ModelEvaluator(strict_paper_conditions=True, cost_model=PRICED),
    "unbuildable-model": ModelEvaluator(pipeline_cpu_cost=0.0),
}
#: feasible joins, and section 5.4 joins too big for some designs
MODEL_JOINS = [
    q3_join(100, 0.05, 0.05),
    section54_join(0.10, 0.10),
    q3_join(100, 0.01, 0.10),
    section54_join(0.10, 0.01),
]


def model_candidates():
    """Designs on which :data:`MODEL_JOINS` mix feasible and infeasible."""

    def design(num_beefy, num_wimpy, beefy=CLUSTER_V_NODE, **dvfs_and_mode):
        return DesignCandidate(
            label=f"{num_beefy}B,{num_wimpy}W",
            beefy=beefy,
            wimpy=WIMPY_LAPTOP_B,
            num_beefy=num_beefy,
            num_wimpy=num_wimpy,
            **dvfs_and_mode,
        )

    # NodeSpec validates its NIC, so zero it after construction: the
    # design's ModelParameters cannot be built
    no_nic = replace(CLUSTER_V_NODE, name="no-nic")
    object.__setattr__(no_nic, "nic_bandwidth_mbps", 0.0)
    return [
        design(0, 8),  # all-Wimpy: no 2-pass join for the big tables
        design(1, 3, beefy_frequency_factor=0.8, wimpy_frequency_factor=1.0),
        design(4, 4, frequency_factor=0.6, mode=ExecutionMode.HOMOGENEOUS),
        design(8, 0, frequency_factor=0.8),
        design(2, 2, beefy=no_nic),
    ]


def mixed_suite():
    return WorkloadSuite(
        name="nightly",
        entries=(
            SuiteEntry(section54_join(0.01, 0.10), weight=3.0),
            SuiteEntry(section54_join(0.10, 0.02), weight=1.0),
        ),
    )


class TestPerEntryMemoization:
    def test_suite_reuses_member_join_cache(self):
        """A suite search after a single-join search performs zero fresh
        evaluations for the shared entry (the redesign's headline)."""
        shared = section54_join(0.01, 0.10)
        fresh = section54_join(0.10, 0.02)
        engine = DesignSpaceSearch()
        single = engine.search(paper_grid(), shared)
        assert single.query_evaluations == 9

        suite = WorkloadSuite.of("pair", shared, fresh)
        result = engine.search(paper_grid(), suite)
        # only the new member costs anything: 9 tasks, not 18
        assert result.query_evaluations == 9
        assert result.evaluations == 9

    def test_join_search_reuses_suite_entries(self):
        """Sharing works in both directions: member entries cached by a
        suite sweep serve a later single-join search for free."""
        shared = section54_join(0.01, 0.10)
        engine = DesignSpaceSearch()
        engine.search(paper_grid(), WorkloadSuite.of("solo-suite", shared))
        result = engine.search(paper_grid(), shared)
        assert result.query_evaluations == 0
        assert result.evaluations == 0
        assert result.cache_hits == 9

    def test_overlapping_mixes_share_computation(self):
        """Two mixes sharing most member joins share most evaluations —
        the many-query x many-config regime the redesign targets."""
        queries = [q3_join(100, 0.01 * (i + 1), 0.05) for i in range(5)]
        first = WorkloadSuite.of("mix-a", *queries[:4])
        second = WorkloadSuite.of("mix-b", *queries[1:])  # shares 3 of 4
        engine = DesignSpaceSearch()
        a = engine.search(paper_grid(), first)
        b = engine.search(paper_grid(), second)
        assert a.query_evaluations == 4 * 9
        assert b.query_evaluations == 1 * 9  # only the unshared member

    def test_weights_do_not_partition_entry_rows(self):
        """The same join at weight 1 and weight 5 shares one entry row —
        weights apply at aggregation, not evaluation."""
        query = section54_join(0.01, 0.10)
        light = WorkloadSuite(name="light", entries=(SuiteEntry(query, 1.0),))
        heavy = WorkloadSuite(name="heavy", entries=(SuiteEntry(query, 5.0),))
        engine = DesignSpaceSearch()
        engine.search(paper_grid(), light)
        result = engine.search(paper_grid(), heavy)
        assert result.query_evaluations == 0

    def test_aggregate_fast_path_still_serves_warm_sweeps(self):
        engine = DesignSpaceSearch()
        first = engine.search(paper_grid(), mixed_suite())
        hits_before = engine.cache.hits
        second = engine.search(paper_grid(), mixed_suite())
        # one aggregate lookup per design, no per-entry traffic
        assert engine.cache.hits == hits_before + 9
        assert second.points == first.points

    def test_entry_cache_key_is_the_single_join_key(self):
        query = section54_join()
        assert entry_cache_key(query) == SingleJoin(query).cache_key()


class TestDedupeAcrossCandidates:
    def test_same_key_candidates_evaluate_once(self):
        base = dict(
            beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B, num_beefy=4, num_wimpy=4
        )
        twins = [DesignCandidate(label="a", **base), DesignCandidate(label="b", **base)]
        result = DesignSpaceSearch().search(twins, section54_join())
        assert result.query_evaluations == 1  # deduped across candidates
        assert result.evaluations == 2  # both designs drew on the fresh task
        a, b = result.points
        assert (a.label, b.label) == ("a", "b")
        assert (a.time_s, a.energy_j) == (b.time_s, b.energy_j)

    def test_dedupe_applies_to_suite_entries_too(self):
        base = dict(
            beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B, num_beefy=4, num_wimpy=4
        )
        twins = [DesignCandidate(label="a", **base), DesignCandidate(label="b", **base)]
        result = DesignSpaceSearch().search(twins, mixed_suite())
        assert result.query_evaluations == 2  # one per unique member join
        assert result.points[0].time_s == result.points[1].time_s

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dedupe_property_on_duplicated_grids(self, workers):
        """K copies of a grid cost exactly one grid's worth of tasks."""
        grid_points = paper_grid().candidate_list()
        copies = [
            DesignCandidate(
                label=f"{c.label}|copy{n}",
                beefy=c.beefy,
                wimpy=c.wimpy,
                num_beefy=c.num_beefy,
                num_wimpy=c.num_wimpy,
            )
            for n in range(3)
            for c in grid_points
        ]
        result = DesignSpaceSearch(workers=workers).search(copies, section54_join())
        assert result.query_evaluations == len(grid_points)
        for offset in range(len(grid_points)):
            runs = result.points[offset :: len(grid_points)]
            assert len({(p.time_s, p.energy_j, p.feasible) for p in runs}) == 1


class TestQueryGranularParallelism:
    def test_serial_equals_parallel_at_entry_granularity(self):
        """Multi-entry workloads fan out per entry, results bit-identical."""
        mix = ArrivalMix.from_trace(
            "trace",
            [(section54_join(0.01, 0.10), 0.0), (section54_join(0.10, 0.02), 1.0)],
        )
        serial = DesignSpaceSearch(workers=1, cache=EvaluationCache()).search(
            paper_grid(), mix
        )
        parallel = DesignSpaceSearch(
            workers=3, cache=EvaluationCache(), min_dispatch_tasks=1
        ).search(paper_grid(), mix)
        assert parallel.workers_used == 3
        assert parallel.query_evaluations == serial.query_evaluations == 18
        assert serial.points == parallel.points

    def test_parallelism_granularity_exceeds_the_candidate_count(self):
        """N candidates x K entries outnumber N: a 2-candidate suite search
        can still use more than 2 workers."""
        candidates = paper_grid().candidate_list()[:2]
        suite = WorkloadSuite.of(
            "wide", *[q3_join(100, 0.01 * (i + 1), 0.05) for i in range(4)]
        )
        result = DesignSpaceSearch(
            workers=4, cache=EvaluationCache(), min_dispatch_tasks=1
        ).search(candidates, suite)
        assert result.query_evaluations == 8
        assert result.workers_used == 4  # > the 2 candidates

    def test_simulator_batch_equals_per_query_records(self):
        """The amortized simulator batch returns exactly the per-query
        results, infeasible entries included."""
        evaluator = SimulatorEvaluator()
        candidate = DesignCandidate(
            label="1B,3W",
            beefy=CLUSTER_V_NODE,
            wimpy=WIMPY_LAPTOP_B,
            num_beefy=1,
            num_wimpy=3,
        )
        queries = [
            q3_join(100, 0.05, 0.05),
            section54_join(0.10, 0.10),  # 1 Beefy cannot hold this table
            q3_join(100, 0.01, 0.10),
        ]
        batch = evaluator.evaluate_query_batch(candidate, queries)
        solo = [evaluate_entry(evaluator, candidate, query) for query in queries]
        assert batch == solo
        assert [record.feasible for record in batch] == [True, False, True]

    @pytest.mark.parametrize("name", MODEL_EVALUATORS)
    def test_model_batch_equals_per_query_records(self, name):
        """One model per batch gives every join the record its own
        evaluation gives, infeasible ones and failed builds included."""
        evaluator = MODEL_EVALUATORS[name]
        reasons = set()
        for candidate in model_candidates():
            batch = evaluator.evaluate_query_batch(candidate, MODEL_JOINS)
            solo = [evaluate_entry(evaluator, candidate, query) for query in MODEL_JOINS]
            assert batch == solo, candidate.label
            reasons.update(r.infeasible_reason for r in batch if not r.feasible)
        if name == "unbuildable-model":
            # the parameters fail before the model on the design without a NIC
            assert reasons == {
                "pipeline_cpu_cost must be > 0, got 0.0",
                "network_mbps must be > 0",
            }
            return
        for reason in (
            "no 2-pass join",
            "heterogeneous execution needs",
            "homogeneous execution forced",
            "network_mbps must be > 0",
        ):
            assert any(reason in text for text in reasons), reason
        if evaluator.cost_model is not None:
            assert all(
                r.price_usd is not None
                for r in evaluator.evaluate_query_batch(model_candidates()[0], MODEL_JOINS)
                if r.feasible
            )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_model_batch_equals_per_query_records_property(self, data):
        """Random grids, joins and evaluator settings: every candidate's
        batch equals its per-join records, in order."""
        beefy, wimpy = data.draw(
            st.sampled_from(
                [
                    (CLUSTER_V_NODE, WIMPY_LAPTOP_B),
                    (WORKSTATION_A, LAPTOP_B),
                    (WORKSTATION_B, DESKTOP_ATOM),
                ]
            )
        )
        per_type = st.one_of(st.none(), st.sampled_from([(1.0,), (0.7,), (1.0, 0.8)]))
        grid = DesignGrid(
            node_pairs=((beefy, wimpy),),
            cluster_sizes=tuple(
                data.draw(st.sets(st.integers(1, 12), min_size=1, max_size=2))
            ),
            beefy_frequency_factors=data.draw(per_type),
            wimpy_frequency_factors=data.draw(per_type),
            modes=data.draw(
                st.sampled_from([(None,), (None, ExecutionMode.HOMOGENEOUS), tuple(ExecutionMode)])
            ),
            mix_step=data.draw(st.integers(1, 3)),
        )
        selectivity = st.floats(0.001, 0.5)
        joins = data.draw(
            st.lists(
                st.one_of(
                    st.builds(q3_join, st.sampled_from([10, 100]), selectivity, selectivity),
                    st.builds(section54_join, selectivity, selectivity),
                ),
                min_size=1,
                max_size=4,
            )
        )
        evaluator = ModelEvaluator(
            warm_cache=data.draw(st.booleans()),
            strict_paper_conditions=data.draw(st.booleans()),
            pipeline_cpu_cost=data.draw(st.sampled_from([1.0, 3.0])),
            cost_model=data.draw(st.sampled_from([None, PRICED])),
        )
        for candidate in grid.candidates():
            assert evaluator.evaluate_query_batch(candidate, joins) == [
                evaluate_entry(evaluator, candidate, query) for query in joins
            ], candidate.label


class TestPoolLifecycle:
    def test_pool_is_lazy_and_reused_across_searches(self):
        engine = DesignSpaceSearch(
            workers=2, cache=EvaluationCache(), min_dispatch_tasks=1
        )
        assert not engine.pool_active
        engine.search(paper_grid(), section54_join(0.01, 0.10))
        assert engine.pool_active
        pool = engine._pool
        engine.search(paper_grid(), section54_join(0.10, 0.02))
        assert engine._pool is pool  # same pool, no respawn
        engine.close()

    def test_close_releases_and_next_search_recreates(self):
        engine = DesignSpaceSearch(
            workers=2, cache=EvaluationCache(), min_dispatch_tasks=1
        )
        engine.search(paper_grid(), section54_join(0.01, 0.10))
        engine.close()
        assert not engine.pool_active
        engine.close()  # idempotent
        result = engine.search(paper_grid(), section54_join(0.10, 0.02))
        assert result.workers_used == 2
        assert engine.pool_active
        engine.close()

    def test_context_manager_closes_the_pool(self):
        with DesignSpaceSearch(
            workers=2, cache=EvaluationCache(), min_dispatch_tasks=1
        ) as engine:
            engine.search(paper_grid(), section54_join(0.01, 0.10))
            assert engine.pool_active
        assert not engine.pool_active

    def test_serial_engines_never_spawn_a_pool(self):
        engine = DesignSpaceSearch(workers=1)
        engine.search(paper_grid(), section54_join())
        assert not engine.pool_active

    def test_cached_resweep_does_not_touch_the_pool(self):
        engine = DesignSpaceSearch(
            workers=2, cache=EvaluationCache(), min_dispatch_tasks=1
        )
        engine.search(paper_grid(), section54_join())
        engine.close()
        again = engine.search(paper_grid(), section54_join())
        assert again.evaluations == 0
        assert not engine.pool_active  # nothing to dispatch, no respawn
