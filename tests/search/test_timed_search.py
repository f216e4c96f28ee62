"""Timed-trace evaluation through the search engine and the Study facade.

The latency-aware path: a :class:`TimedTrace` keeps its arrival times,
:class:`SimulatorEvaluator` replays them under queueing, records carry a
:class:`LatencyProfile`, and selection/export read it.  The weights-only
path must stay byte-for-byte untouched next to all of this.
"""

import pytest

from repro.errors import ConfigurationError, ModelError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import (
    DesignGrid,
    DesignSpaceSearch,
    LatencyProfile,
    ModelEvaluator,
    SimulatorEvaluator,
    best_under_latency_sla,
)
from repro.study import Study
from repro.workloads.arrivals import batched_arrivals, periodic_arrivals, poisson_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join

GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(4,),
)


def small_trace(count=4, rate=0.05, seed=3) -> TimedTrace:
    query = q3_join(100, 0.05, 0.05)
    return TimedTrace.from_schedule(
        "poisson-q3", query, poisson_arrivals(count, rate_per_s=rate, seed=seed)
    )


class TestLatencyProfile:
    def test_percentiles_are_observed_and_ordered(self):
        samples = [float(v) for v in range(1, 101)]
        profile = LatencyProfile.from_samples(samples)
        assert profile.count == 100
        assert profile.mean_s == pytest.approx(50.5)
        assert profile.p50_s == 50.0
        assert profile.p95_s == 95.0
        assert profile.p99_s == 99.0
        assert profile.max_s == 100.0
        assert profile.p50_s <= profile.p95_s <= profile.p99_s <= profile.max_s

    def test_single_sample(self):
        profile = LatencyProfile.from_samples([2.5])
        assert profile.p99_s == profile.max_s == profile.mean_s == 2.5
        assert profile.count == 1

    def test_empty_and_bad_metric_rejected(self):
        with pytest.raises(ModelError):
            LatencyProfile.from_samples([])
        with pytest.raises(ModelError, match="unknown latency metric"):
            LatencyProfile.from_samples([1.0]).value("p42")

    def test_value_by_name(self):
        profile = LatencyProfile.from_samples([1.0, 3.0])
        assert profile.value("mean") == 2.0
        assert profile.value("max") == 3.0


class TestEvaluateTrace:
    def test_record_carries_latency_and_stream_totals(self):
        candidate = GRID.candidate_list()[0]
        trace = small_trace()
        record = SimulatorEvaluator().evaluate_trace(candidate, trace)
        assert record.feasible
        assert record.latency is not None
        assert record.latency.count == len(trace)
        assert record.latency.mean_s <= record.latency.max_s
        # the stream's makespan spans at least the scheduling horizon
        assert record.time_s >= trace.span_s

    def test_compressed_trace_is_never_faster_per_query(self):
        """Queueing through the evaluator: batching all arrivals can only
        worsen (or preserve) each query's response time vs wide spacing."""
        candidate = GRID.candidate_list()[0]
        query = q3_join(100, 0.05, 0.05)
        evaluator = SimulatorEvaluator()
        solo = evaluator.evaluate_query(candidate, query).time_s
        spaced = evaluator.evaluate_trace(
            candidate,
            TimedTrace.from_schedule(
                "spaced", query, periodic_arrivals(3, interval_s=3 * solo)
            ),
        )
        burst = evaluator.evaluate_trace(
            candidate,
            TimedTrace.from_schedule("burst", query, batched_arrivals(3)),
        )
        assert spaced.latency.max_s == pytest.approx(solo, rel=1e-6)
        assert burst.latency.max_s >= spaced.latency.max_s
        # all-at-once equals the classic concurrency evaluation
        concurrent = SimulatorEvaluator(concurrency=3).evaluate_query(
            candidate, query
        )
        assert burst.time_s == pytest.approx(concurrent.time_s)
        assert burst.energy_j == pytest.approx(concurrent.energy_j)

    def test_model_evaluator_refuses_timed(self):
        candidate = GRID.candidate_list()[0]
        with pytest.raises(ConfigurationError, match="arrival times"):
            ModelEvaluator().evaluate_trace(candidate, small_trace())


class TestTimedSearch:
    def test_search_populates_latency_and_caches(self):
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        trace = small_trace()
        result = engine.search(GRID, trace)
        assert all(point.latency is not None for point in result.points)
        assert result.evaluations == len(result.points)
        assert result.query_evaluations == len(result.points) * len(trace)
        warm = engine.search(GRID, trace)
        assert warm.evaluations == 0
        assert warm.cache_hits == len(warm.points)
        assert [(p.label, p.time_s, p.latency) for p in warm.points] == [
            (p.label, p.time_s, p.latency) for p in result.points
        ]

    def test_timed_and_weights_only_keys_are_disjoint(self):
        """Evaluating the weights-only mix must not warm the timed search
        (and vice versa): a weights aggregate knows nothing of queueing."""
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        trace = small_trace()
        mix_result = engine.search(GRID, trace.weights_only())
        timed_result = engine.search(GRID, trace)
        assert timed_result.evaluations == len(timed_result.points)
        assert all(point.latency is None for point in mix_result.points)
        # and the timed rows don't leak back into the weights-only path
        warm_mix = engine.search(GRID, trace.weights_only())
        assert all(point.latency is None for point in warm_mix.points)
        assert warm_mix.evaluations == 0

    def test_different_schedules_evaluate_separately(self):
        engine = DesignSpaceSearch(evaluator=SimulatorEvaluator())
        query = q3_join(100, 0.05, 0.05)
        burst = TimedTrace.from_schedule("t", query, batched_arrivals(3))
        spread = TimedTrace.from_schedule("t", query, periodic_arrivals(3, 1000.0))
        engine.search(GRID, burst)
        result = engine.search(GRID, spread)
        assert result.evaluations == len(result.points)

    def test_engine_rejects_untimed_evaluators(self):
        engine = DesignSpaceSearch(evaluator=ModelEvaluator())
        with pytest.raises(ConfigurationError, match="stream-capable"):
            engine.search(GRID, small_trace())

    def test_serial_equals_parallel(self):
        trace = small_trace(count=3)
        serial = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, trace
        )
        with DesignSpaceSearch(
            evaluator=SimulatorEvaluator(), workers=2, min_dispatch_tasks=1
        ) as engine:
            parallel = engine.search(GRID, trace)
        assert parallel.workers_used == 2
        assert [
            (p.label, p.time_s, p.energy_j, p.latency) for p in parallel.points
        ] == [(p.label, p.time_s, p.energy_j, p.latency) for p in serial.points]

    def test_infeasible_designs_become_records(self):
        """A trace whose join cannot run on a design yields an infeasible
        record (no latency), exactly like the per-entry path."""
        from repro.workloads.queries import JoinWorkloadSpec

        huge = JoinWorkloadSpec(
            name="huge",
            build_volume_mb=1e12,
            probe_volume_mb=1e12,
            build_selectivity=1.0,
            probe_selectivity=1.0,
        )
        trace = TimedTrace.from_schedule("huge-trace", huge, [0.0, 1.0])
        result = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, trace
        )
        assert result.points
        assert all(not point.feasible for point in result.points)
        assert all(point.latency is None for point in result.points)


class TestLatencySelection:
    def test_best_under_latency_sla_reads_the_profile(self):
        result = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, small_trace()
        )
        worst = max(point.latency.max_s for point in result.feasible_points)
        best = result.best_under({"response_max_s": worst * 1.01})
        eligible_energy = min(p.energy_j for p in result.feasible_points)
        assert best.energy_j == eligible_energy
        # a tight SLA prunes to faster-responding designs
        fastest = min(point.latency.max_s for point in result.feasible_points)
        tight = result.best_under({"response_max_s": fastest * 1.01})
        assert tight.latency.max_s <= fastest * 1.01
        with pytest.raises(ModelError, match="meets the"):
            best_under_latency_sla(result.points, fastest * 0.5)

    def test_metric_selects_the_binding_statistic(self):
        result = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, small_trace()
        )
        point = result.feasible_points[0]
        assert point.latency.mean_s <= point.latency.max_s
        by_mean = best_under_latency_sla(
            result.points, point.latency.mean_s, metric="mean"
        )
        assert by_mean.latency.mean_s <= point.latency.mean_s

    def test_weights_only_points_are_never_eligible(self):
        result = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(
            GRID, small_trace().weights_only()
        )
        with pytest.raises(ModelError, match="latency profile"):
            result.best_under({"response_max_s": 1e9})

    def test_sla_validation(self):
        for bad in (float("nan"), -1.0):
            with pytest.raises(ModelError, match="must be >= 0"):
                best_under_latency_sla([], bad)


class TestStudyFacade:
    def test_end_to_end_timed_study(self):
        trace = small_trace()
        study = (
            Study(GRID).with_workload(trace).with_evaluator(SimulatorEvaluator())
        )
        result = study.run()
        assert all(point.latency is not None for point in result.points)
        worst = max(point.latency.max_s for point in result.feasible_points)
        assert result.best_under({"response_max_s": worst * 2}).feasible
        rows = result.to_rows()
        assert rows[0]["response_p99_s"] == result.points[0].latency.p99_s
        assert rows[0]["response_max_s"] == result.points[0].latency.max_s

    def test_default_evaluator_fails_with_guidance(self):
        with pytest.raises(ConfigurationError, match="SimulatorEvaluator"):
            Study(GRID).with_workload(small_trace()).run()

    def test_weights_only_rows_export_null_latency(self):
        result = (
            Study(GRID)
            .with_workload(small_trace().weights_only())
            .with_evaluator(SimulatorEvaluator())
            .run()
        )
        row = result.to_rows()[0]
        assert row["response_mean_s"] is None
        assert row["response_max_s"] is None
