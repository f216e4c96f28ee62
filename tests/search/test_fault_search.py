"""Degraded-mode (nemesis) evaluation through the search engine.

A :class:`FaultedTrace` replays on the multiplexed loop, bit-identical to
the serial simulation path; records carry a ``degraded_latency`` profile plus failure accounting
(``recovery_energy_j``, ``retried_jobs``, ``dropped_jobs``,
``faults_survived``), and selection happens through
``best_under_degraded_sla``.  The healthy paths — weights-only, timed
serial, timed multiplexed — must stay byte-for-byte untouched.
"""

import pytest

from repro.errors import ConfigurationError, ModelError
from repro.faults import FailurePolicy, FaultSchedule, NodeCrash
from repro.hardware.powerstate import PowerStateModel
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import DesignGrid, DesignSpaceSearch, SimulatorEvaluator
from repro.search.evaluators import evaluate_timed_design
from repro.search.pareto import best_under_degraded_sla
from repro.study import Study
from repro.workloads.arrivals import periodic_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join

GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(4,),
)

#: short boot so degraded latencies stay in test-friendly ranges
FAST = PowerStateModel(shutdown_s=0.0, boot_s=5.0)
RETRY = FailurePolicy.abort_and_retry(backoff_base_s=1.0, transitions=FAST)


def trace(count=4, interval=20.0) -> TimedTrace:
    query = q3_join(100, 0.05, 0.05)
    return TimedTrace.from_schedule(
        "periodic-q3", query, periodic_arrivals(count, interval_s=interval)
    )


def mid_crash() -> FaultSchedule:
    """One recoverable crash that catches the first query in flight."""
    return FaultSchedule(
        events=(NodeCrash(node=1, at_s=0.5, recover_at_s=6.0),), name="c1"
    )


class TestDegradedRecords:
    def test_faulted_search_populates_degraded_fields(self):
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        faulted = trace().with_faults(mid_crash(), failure_policy=RETRY)
        result = engine.search(GRID, faulted)
        for point in result.feasible_points:
            assert point.latency is None
            assert point.degraded_latency is not None
            assert point.degraded_latency.count == 4
            assert point.recovery_energy_j is not None
            assert point.recovery_energy_j > 0.0
            assert point.retried_jobs >= 1
            assert point.dropped_jobs == 0
            assert point.faults_survived == 1
        assert result.feasible_points

    def test_degraded_latency_pays_for_the_outage(self):
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        healthy = engine.search(GRID, trace())
        degraded = engine.search(
            GRID, trace().with_faults(mid_crash(), failure_policy=RETRY)
        )
        for before, after in zip(healthy.feasible_points, degraded.feasible_points):
            assert before.label == after.label
            assert after.degraded_latency.max_s > before.latency.max_s

    def test_healthy_records_carry_no_degraded_fields(self):
        result = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, trace()
        )
        for point in result.points:
            assert point.degraded_latency is None
            assert point.recovery_energy_j is None
            assert point.retried_jobs is None
            assert point.faults_survived is None

    def test_coverage_loss_becomes_infeasible_under_fault(self):
        """A crash stranding every copy of a partition (replication
        factor 1: no copies survive any crash) marks the design
        infeasible-under-fault, not silently wrong."""
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        faulted = trace().with_faults(
            mid_crash(), failure_policy=RETRY, replication_factor=1
        )
        result = engine.search(GRID, faulted)
        assert result.points
        assert all(not point.feasible for point in result.points)
        assert all(
            "replica coverage lost" in point.infeasible_reason
            for point in result.points
        )

    def test_replication_survives_single_crash(self):
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        faulted = trace().with_faults(
            mid_crash(), failure_policy=RETRY, replication_factor=2
        )
        result = engine.search(GRID, faulted)
        assert result.feasible_points


class TestReplicationFactorFit:
    """A design with fewer nodes than the replication factor is one
    infeasible record, not the end of the search."""

    REASON = "replication factor 3 needs at least 3 nodes; this design has 2"

    def test_small_designs_become_infeasible_records(self):
        faulted = trace().with_faults(
            mid_crash(), failure_policy=RETRY, replication_factor=3
        )
        mixed = DesignGrid(node_pairs=GRID.node_pairs, cluster_sizes=(2, 4))
        result = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            mixed, faulted
        )
        assert len(result.points) == 8
        small = [p for p in result.points if p.candidate.num_nodes == 2]
        assert len(small) == 3
        for point in small:
            assert not point.feasible
            assert point.infeasible_reason == self.REASON
            # the serial route makes the same record
            serial = evaluate_timed_design(
                SimulatorEvaluator(), point.candidate, faulted
            )
            assert (serial.feasible, serial.infeasible_reason) == (False, self.REASON)
        # values, not labels: a one-size grid drops the "|n4" suffix
        alone = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, faulted
        )
        large = [p for p in result.points if p.candidate.num_nodes == 4]
        assert len(large) == len(alone.points) == 5
        assert all(point.feasible for point in large)
        assert [(p.time_s, p.energy_j, p.degraded_latency) for p in large] == [
            (p.time_s, p.energy_j, p.degraded_latency) for p in alone.points
        ]

    def test_factor_below_one_still_raises(self):
        with pytest.raises(ConfigurationError, match="replication_factor"):
            trace().with_faults(mid_crash(), replication_factor=0)


class TestEmptyScheduleParity:
    def test_serial_parity(self):
        healthy = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, trace()
        )
        empty = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, trace().with_faults(FaultSchedule())
        )
        assert [
            (p.label, p.time_s, p.energy_j, p.latency) for p in empty.points
        ] == [(p.label, p.time_s, p.energy_j, p.latency) for p in healthy.points]
        assert all(point.degraded_latency is None for point in empty.points)

    def test_multiplexed_parity(self):
        """An empty schedule rides the event-multiplexed batch path and
        stays bit-identical to the healthy multiplexed search."""
        healthy = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, trace()
        )
        with DesignSpaceSearch(
            evaluator=SimulatorEvaluator(), workers=2, min_dispatch_tasks=1
        ) as engine:
            empty = engine.search(GRID, trace().with_faults(FaultSchedule()))
        assert empty.workers_used == 2
        assert [
            (p.label, p.time_s, p.energy_j, p.latency) for p in empty.points
        ] == [(p.label, p.time_s, p.energy_j, p.latency) for p in healthy.points]


class TestCacheNamespacing:
    def test_faulted_and_healthy_keys_are_disjoint(self):
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        healthy = engine.search(GRID, trace())
        assert healthy.evaluations == len(healthy.points)
        faulted = engine.search(
            GRID, trace().with_faults(mid_crash(), failure_policy=RETRY)
        )
        # the healthy rows must not satisfy the degraded scenario
        assert faulted.evaluations == len(faulted.points)
        # ...and degraded rows don't leak back into the healthy path
        warm_healthy = engine.search(GRID, trace())
        assert warm_healthy.evaluations == 0

    def test_faulted_search_is_memoized(self):
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        faulted = trace().with_faults(mid_crash(), failure_policy=RETRY)
        cold = engine.search(GRID, faulted)
        warm = engine.search(GRID, faulted)
        assert warm.evaluations == 0
        assert warm.cache_hits == len(warm.points)
        assert [
            (p.label, p.degraded_latency, p.recovery_energy_j) for p in warm.points
        ] == [(p.label, p.degraded_latency, p.recovery_energy_j) for p in cold.points]

    def test_different_schedules_evaluate_separately(self):
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        engine.search(GRID, trace().with_faults(mid_crash(), failure_policy=RETRY))
        other = FaultSchedule(
            events=(NodeCrash(node=2, at_s=30.0, recover_at_s=40.0),), name="c2"
        )
        result = engine.search(
            GRID, trace().with_faults(other, failure_policy=RETRY)
        )
        assert result.evaluations == len(result.points)


class TestDegradedSelection:
    def search_both(self):
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        healthy = engine.search(GRID, trace())
        degraded = engine.search(
            GRID, trace().with_faults(mid_crash(), failure_policy=RETRY)
        )
        return healthy, degraded

    def test_best_under_degraded_sla_reads_degraded_profile(self):
        _, degraded = self.search_both()
        worst = max(
            point.degraded_latency.max_s for point in degraded.feasible_points
        )
        best = best_under_degraded_sla(degraded.points, worst * 1.01)
        eligible_energy = min(p.energy_j for p in degraded.feasible_points)
        assert best.energy_j == eligible_energy
        fastest = min(
            point.degraded_latency.max_s for point in degraded.feasible_points
        )
        with pytest.raises(ModelError, match="degraded_response_max_s <="):
            best_under_degraded_sla(degraded.points, fastest * 0.5)

    def test_selector_populations_are_disjoint(self):
        healthy, degraded = self.search_both()
        with pytest.raises(ModelError, match="degraded latency profile"):
            best_under_degraded_sla(healthy.points, 1e9)
        with pytest.raises(ModelError, match="latency profile"):
            degraded.best_under({"response_max_s": 1e9})

    def test_sla_must_be_positive(self):
        _, degraded = self.search_both()
        with pytest.raises(ModelError):
            best_under_degraded_sla(degraded.points, -1.0)

    def test_allow_drops_gate(self):
        """Points that shed queries are excluded unless explicitly
        allowed."""
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        drop = FailurePolicy.drop(transitions=FAST)
        # catch the first query in flight so the drop policy sheds it
        early = FaultSchedule(
            events=(NodeCrash(node=1, at_s=0.5, recover_at_s=2.0),), name="e1"
        )
        result = engine.search(GRID, trace().with_faults(early, failure_policy=drop))
        shed = [p for p in result.feasible_points if p.dropped_jobs]
        assert shed, "early crash under the drop policy must shed the first query"
        with pytest.raises(ModelError, match="dropped_jobs <= 0"):
            best_under_degraded_sla(result.feasible_points, 1e9)
        best = best_under_degraded_sla(
            result.feasible_points, 1e9, allow_drops=True
        )
        assert best.degraded_latency is not None


class TestExportAndStudy:
    def test_export_rows_carry_degraded_columns(self):
        from repro.analysis.export import search_to_rows

        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        result = engine.search(
            GRID, trace().with_faults(mid_crash(), failure_policy=RETRY)
        )
        rows = search_to_rows(result)
        feasible = [row for row in rows if row["feasible"]]
        assert feasible
        for row in feasible:
            assert row["degraded_response_p99_s"] is not None
            assert row["recovery_energy_j"] is not None
            assert row["retried_jobs"] is not None
            assert row["dropped_jobs"] == 0
            assert row["faults_survived"] == 1
            assert row["response_p99_s"] is None

    def test_healthy_export_rows_have_null_degraded_columns(self):
        from repro.analysis.export import search_to_rows

        result = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, trace()
        )
        for row in search_to_rows(result):
            assert row["degraded_response_p99_s"] is None
            assert row["recovery_energy_j"] is None

    def test_study_passthrough(self):
        faulted = trace().with_faults(mid_crash(), failure_policy=RETRY)
        result = (
            Study(GRID)
            .with_workload(faulted)
            .with_evaluator(SimulatorEvaluator())
            .run()
        )
        worst = max(
            point.degraded_latency.max_s for point in result.feasible_points
        )
        best = result.best_under(
            {"degraded_response_max_s": worst * 1.01, "dropped_jobs": 0}
        )
        assert best.degraded_latency is not None
