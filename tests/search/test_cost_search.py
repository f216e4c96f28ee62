"""Cost-model threading through the whole selection stack.

End-to-end contracts: with no :class:`CostModel` configured every record,
frontier, knee, and SLA pick is bit-identical to the pre-cost behaviour
(cost fields ``None``); with one attached, price/carbon are stamped on
every evaluation path (model, simulator, weights-only, timed), aggregate
linearly over suites, partition the evaluation cache, and flow into
exports and Study selections.
"""

import csv
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CarbonIntensityCurve, CostModel, JOULES_PER_KWH
from repro.errors import ConfigurationError, ModelError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import (
    CallableEvaluator,
    DesignGrid,
    DesignSpaceSearch,
    EvaluationCache,
    ModelEvaluator,
    SimulatorEvaluator,
)
from repro.search import evaluators
from repro.search.evaluators import evaluate_timed_design
from repro.simulator.multiplex import run_multiplexed
from repro.study import Study
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join
from repro.workloads.suite import SuiteEntry, WorkloadSuite

GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(4,),
)

MODEL = CostModel(
    tariff_usd_per_kwh=0.12,
    carbon_g_per_kwh=350.0,
    capex_usd_per_node_hour={"cluster-V": 0.8, "wimpy-laptopB": 0.05},
)


def small_trace(count=4, rate=0.05, seed=3) -> TimedTrace:
    query = q3_join(100, 0.05, 0.05)
    return TimedTrace.from_schedule(
        "poisson-q3", query, poisson_arrivals(count, rate_per_s=rate, seed=seed)
    )


#: one batch mixes cluster sizes (solo runs take 0.6-6.7 s); ten nodes are
#: enough for a pairwise sum of node powers to differ from a left-to-right one
MIXED_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(2, 3, 4, 10),
)


@st.composite
def priced_batches(draw):
    """A carbon curve, a gappy trace and a mixed-size batch of designs.

    Periods run from a fraction of a simulation step to beyond the trace,
    so some stretches span whole cycles; some arrivals sit exactly on
    slot boundaries; some gaps outlast every job, so the cluster idles.
    """
    slots = draw(st.lists(st.floats(0.0, 900.0), min_size=1, max_size=24))
    period = 10.0 ** draw(st.floats(-2.0, 2.5))
    curve = CarbonIntensityCurve(slots=tuple(slots), period_s=period)
    times = []
    t = 0.0
    for _ in range(draw(st.integers(1, 5))):
        t += draw(st.one_of(st.floats(0.0, 2.0), st.floats(8.0, 40.0)))
        if draw(st.booleans()):
            # snap onto the slot boundary at or after t
            t = math.ceil(t / curve.slot_s) * curve.slot_s
        times.append(t)
    trace = TimedTrace.from_schedule("drawn-q3", q3_join(100, 0.05, 0.05), times)
    candidates = draw(
        st.lists(
            st.sampled_from(MIXED_GRID.candidate_list()),
            min_size=2,
            max_size=6,
            unique_by=lambda c: c.label,
        )
    )
    return curve, trace, candidates


def exact_view(point):
    """Every field the batch/serial parity tests compare with ``==``."""
    return (
        point.label,
        point.feasible,
        point.time_s,
        point.energy_j,
        point.latency,
        point.carbon_g,
        point.price_usd,
    )


class TestDefaultPathParity:
    """No cost model => records and selections exactly as before."""

    def test_records_carry_no_cost_and_match_priced_time_energy(self):
        query = q3_join(100, 0.05, 0.05)
        bare = DesignSpaceSearch(evaluator=ModelEvaluator()).search(GRID, query)
        priced = DesignSpaceSearch(
            evaluator=ModelEvaluator(cost_model=MODEL)
        ).search(GRID, query)
        assert all(p.carbon_g is None and p.price_usd is None for p in bare.points)
        # pricing is an annotation: time/energy arithmetic is untouched
        assert [(p.label, p.time_s, p.energy_j) for p in priced.points] == [
            (p.label, p.time_s, p.energy_j) for p in bare.points
        ]
        assert [p.label for p in priced.pareto_frontier()] == [
            p.label for p in bare.pareto_frontier()
        ]
        assert priced.knee().label == bare.knee().label

    def test_default_fingerprints_are_unchanged(self):
        """The cache-key shape with no model must equal the pre-cost shape,
        so persisted caches and warm engines stay valid."""
        assert ModelEvaluator().fingerprint() == ModelEvaluator(
            cost_model=None
        ).fingerprint()
        assert MODEL.fingerprint() not in ModelEvaluator().fingerprint()
        priced = ModelEvaluator(cost_model=MODEL).fingerprint()
        assert priced[:-1] == ModelEvaluator().fingerprint()
        assert priced[-1] == MODEL.fingerprint()

    def test_unpriced_selections_refuse_cost_axes(self):
        result = DesignSpaceSearch(evaluator=ModelEvaluator()).search(
            GRID, q3_join(100, 0.05, 0.05)
        )
        with pytest.raises(ModelError, match="CostModel"):
            result.best_under({"price_usd": 100.0}, minimize="time_s")
        with pytest.raises(ModelError, match="CostModel"):
            result.best_under({"carbon_g": 100.0}, minimize="time_s")
        with pytest.raises(ModelError, match="CostModel"):
            result.pareto_frontier(objectives=("time_s", "price_usd"))


class TestPricingThroughEvaluators:
    def test_model_evaluator_prices_records_exactly(self):
        result = DesignSpaceSearch(
            evaluator=ModelEvaluator(cost_model=MODEL)
        ).search(GRID, q3_join(100, 0.05, 0.05))
        for p in result.feasible_points:
            assert p.price_usd == pytest.approx(
                MODEL.price_usd(p.candidate, p.time_s, p.energy_j)
            )
            assert p.carbon_g == pytest.approx(MODEL.carbon_g(p.energy_j))

    def test_simulator_evaluator_prices_records_exactly(self):
        result = DesignSpaceSearch(
            evaluator=SimulatorEvaluator(cost_model=MODEL)
        ).search(GRID, q3_join(100, 0.05, 0.05))
        for p in result.feasible_points:
            assert p.price_usd == pytest.approx(
                MODEL.price_usd(p.candidate, p.time_s, p.energy_j)
            )
            assert p.carbon_g == pytest.approx(MODEL.carbon_g(p.energy_j))

    def test_callable_evaluator_prices_and_fingerprints(self):
        def fn(candidate, query):
            return 2.0, 1000.0

        bare = CallableEvaluator(fn)
        priced = CallableEvaluator(fn, cost_model=MODEL)
        record = priced.evaluate_query(GRID.candidate_list()[0], q3_join(100, 0.05, 0.05))
        assert record.carbon_g == pytest.approx(MODEL.carbon_g(1000.0))
        assert bare.fingerprint() != priced.fingerprint()

    def test_infeasible_records_stay_unpriced(self):
        from repro.workloads.queries import JoinWorkloadSpec

        huge = JoinWorkloadSpec(
            name="huge", build_volume_mb=1e12, probe_volume_mb=1e12,
            build_selectivity=1.0, probe_selectivity=1.0,
        )
        result = DesignSpaceSearch(
            evaluator=ModelEvaluator(cost_model=MODEL)
        ).search(GRID, huge)
        assert result.points
        assert all(
            p.carbon_g is None and p.price_usd is None for p in result.points
        )


class TestSuiteAggregation:
    def test_suite_costs_are_weight_sums_of_per_query_costs(self):
        query_a = q3_join(100, 0.05, 0.05)
        query_b = q3_join(100, 0.05, 0.10)
        suite = WorkloadSuite(
            name="mix",
            entries=(SuiteEntry(query_a, 2.0), SuiteEntry(query_b, 0.5)),
        )
        engine = DesignSpaceSearch(evaluator=ModelEvaluator(cost_model=MODEL))
        combined = engine.search(GRID, suite)
        solo_a = engine.search(GRID, query_a)
        solo_b = engine.search(GRID, query_b)
        for mix, a, b in zip(combined.points, solo_a.points, solo_b.points):
            assert mix.price_usd == pytest.approx(
                2.0 * a.price_usd + 0.5 * b.price_usd
            )
            assert mix.carbon_g == pytest.approx(
                2.0 * a.carbon_g + 0.5 * b.carbon_g
            )
            # and linearity means the aggregate equals direct pricing too
            assert mix.price_usd == pytest.approx(
                MODEL.price_usd(mix.candidate, mix.time_s, mix.energy_j)
            )


class TestTimedPricing:
    def test_flat_grid_timed_carbon_equals_energy_pricing(self):
        candidate = GRID.candidate_list()[0]
        record = SimulatorEvaluator(cost_model=MODEL).evaluate_trace(
            candidate, small_trace()
        )
        assert record.carbon_g == pytest.approx(MODEL.carbon_g(record.energy_j))
        assert record.price_usd == pytest.approx(
            MODEL.price_usd(candidate, record.time_s, record.energy_j)
        )

    def test_time_varying_carbon_integrates_the_curve(self):
        """A curve whose slots differ prices a timed run away from the
        mean — and the result is bracketed by trough and peak pricing."""
        candidate = GRID.candidate_list()[0]
        trace = small_trace()
        curve = CarbonIntensityCurve(slots=(50.0, 650.0), period_s=40.0)
        timed_model = CostModel(carbon_g_per_kwh=curve)
        record = SimulatorEvaluator(cost_model=timed_model).evaluate_trace(
            candidate, trace
        )
        kwh = record.energy_j / JOULES_PER_KWH
        assert 50.0 * kwh <= record.carbon_g <= 650.0 * kwh
        # the trace spans both slots, so the exact integral is not the mean
        assert record.carbon_g != pytest.approx(curve.mean * kwh, rel=1e-6)

    def test_time_varying_does_not_perturb_time_energy(self):
        """Interval recording is observation only: the timed run with a
        curve model replays bit-identically to the unpriced run."""
        candidate = GRID.candidate_list()[0]
        trace = small_trace()
        bare = SimulatorEvaluator().evaluate_trace(candidate, trace)
        curve_model = CostModel(
            carbon_g_per_kwh=CarbonIntensityCurve.diurnal(100.0, 500.0)
        )
        timed = SimulatorEvaluator(cost_model=curve_model).evaluate_trace(
            candidate, trace
        )
        assert timed.time_s == bare.time_s
        assert timed.energy_j == bare.energy_j
        assert timed.latency == bare.latency

    @settings(max_examples=80, deadline=None)
    @given(priced_batches())
    def test_trace_batch_equals_serial_under_time_varying_model(self, drawn):
        """The multiplexed loop integrates the curve itself; every record
        must equal its serial replay, which integrates recorded intervals
        — exactly, on every field, carbon included."""
        curve, trace, candidates = drawn
        evaluator = SimulatorEvaluator(
            cost_model=CostModel(
                tariff_usd_per_kwh=0.1,
                carbon_g_per_kwh=curve,
                capex_usd_per_node_hour={"cluster-V": 0.8},
            )
        )
        batch = evaluator.evaluate_trace_batch(trace, candidates)
        serial = [evaluate_timed_design(evaluator, c, trace) for c in candidates]
        assert [exact_view(p) for p in batch] == [exact_view(p) for p in serial]
        assert all(p.carbon_g is not None for p in batch if p.feasible)

    def test_idle_gap_ends_where_the_serial_loop_ends_it(self):
        """A gap from ``t`` to the next arrival ends at ``t + (arrival -
        t)``, which can miss the arrival by an ulp; integrating up to the
        arrival instead changes the carbon total's last bits here."""
        design = {c.label: c for c in GRID.candidate_list()}["0B,4W"]
        query = q3_join(100, 0.05, 0.05)
        idle_from = SimulatorEvaluator().evaluate_query(design, query).time_s
        arrival = 11.831578997141376
        assert idle_from + (arrival - idle_from) != arrival
        evaluator = SimulatorEvaluator(
            cost_model=CostModel(
                carbon_g_per_kwh=CarbonIntensityCurve.diurnal(
                    100.0, 500.0, period_s=30.0
                )
            )
        )
        trace = TimedTrace.from_schedule("q3", query, [0.0, arrival])
        (batch,) = evaluator.evaluate_trace_batch(trace, [design])
        assert exact_view(batch) == exact_view(evaluator.evaluate_trace(design, trace))

    def test_equal_shapes_share_one_job_list(self, monkeypatch):
        """Designs of one size plan alike and replay one shared job list;
        a design of another size gets its own, and every record still
        equals its serial replay."""
        lanes = []

        def spy(runs, **kwargs):
            lanes.extend(jobs for _, jobs in runs)
            return run_multiplexed(runs, **kwargs)

        monkeypatch.setattr(evaluators, "run_multiplexed", spy)
        by_label = {c.label: c for c in MIXED_GRID.candidate_list()}
        candidates = [
            by_label["2B,2W|n4"],
            by_label["0B,4W|n4"],
            by_label["2B,1W|n3"],
            by_label["4B,0W|n4"],
        ]
        evaluator = SimulatorEvaluator(
            cost_model=CostModel(
                carbon_g_per_kwh=CarbonIntensityCurve.diurnal(
                    100.0, 500.0, period_s=30.0
                )
            )
        )
        trace = small_trace(count=5, rate=0.2)
        batch = evaluator.evaluate_trace_batch(trace, candidates)
        assert lanes[0] is lanes[1] is lanes[3]
        assert lanes[2] is not lanes[0]
        serial = [evaluate_timed_design(evaluator, c, trace) for c in candidates]
        assert [exact_view(p) for p in batch] == [exact_view(p) for p in serial]


class TestCachePartitioning:
    def test_priced_and_unpriced_records_never_alias(self):
        """Two engines over one shared cache, one priced one not: the
        priced sweep re-evaluates instead of serving unpriced records."""
        cache = EvaluationCache()
        query = q3_join(100, 0.05, 0.05)
        bare = DesignSpaceSearch(evaluator=ModelEvaluator(), cache=cache).search(
            GRID, query
        )
        priced = DesignSpaceSearch(
            evaluator=ModelEvaluator(cost_model=MODEL), cache=cache
        ).search(GRID, query)
        assert priced.evaluations == len(priced.points)
        assert priced.cache_hits == 0
        assert all(p.price_usd is not None for p in priced.feasible_points)
        # and the unpriced keys still serve the unpriced engine
        warm = DesignSpaceSearch(evaluator=ModelEvaluator(), cache=cache).search(
            GRID, query
        )
        assert warm.evaluations == 0
        assert all(p.price_usd is None for p in warm.points)
        assert warm.points == bare.points

    def test_two_models_partition_each_other(self):
        cache = EvaluationCache()
        query = q3_join(100, 0.05, 0.05)
        other = CostModel(tariff_usd_per_kwh=0.50)
        first = DesignSpaceSearch(
            evaluator=ModelEvaluator(cost_model=MODEL), cache=cache
        ).search(GRID, query)
        second = DesignSpaceSearch(
            evaluator=ModelEvaluator(cost_model=other), cache=cache
        ).search(GRID, query)
        assert second.evaluations == len(second.points)
        for a, b in zip(first.feasible_points, second.feasible_points):
            assert a.price_usd != b.price_usd


class TestStudyFacade:
    def test_with_cost_model_threads_to_selections_and_rows(self):
        result = (
            Study(GRID)
            .with_workload(q3_join(100, 0.05, 0.05))
            .with_cost_model(MODEL)
            .run()
        )
        feasible = result.feasible_points
        assert feasible and all(p.price_usd is not None for p in feasible)
        dearest = max(p.price_usd for p in feasible)
        assert result.best_under(
            {"price_usd": dearest * 1.01}, minimize="time_s"
        ).feasible
        assert result.best_under(
            {"carbon_g": max(p.carbon_g for p in feasible) * 1.01},
            minimize="time_s",
        ).feasible
        row = result.to_rows()[0]
        assert row["price_usd"] == result.points[0].price_usd
        assert row["carbon_g"] == result.points[0].carbon_g

    def test_cost_model_study_is_a_separate_engine_cell(self):
        """with_cost_model must not share the cached engine with the
        unpriced study over the same grid."""
        base = Study(GRID).with_workload(q3_join(100, 0.05, 0.05))
        bare = base.run()
        priced = base.with_cost_model(MODEL).run()
        assert all(p.price_usd is None for p in bare.points)
        assert all(
            p.price_usd is not None for p in priced.feasible_points
        )

    def test_incompatible_evaluator_is_a_named_error(self):
        study = (
            Study(GRID)
            .with_workload(q3_join(100, 0.05, 0.05))
            .with_evaluator(CallableEvaluator(lambda c, q: (1.0, 1.0)))
            .with_cost_model(MODEL)
        )
        with pytest.raises(ConfigurationError, match="cost model"):
            study.run()

    def test_frontier_csv_exports_the_cost_frontier(self):
        result = (
            Study(GRID)
            .with_workload(q3_join(100, 0.05, 0.05))
            .with_cost_model(MODEL)
            .run()
        )
        axes = ("time_s", "energy_j", "price_usd", "carbon_g")
        rows = list(csv.DictReader(io.StringIO(result.frontier_csv(objectives=axes))))
        assert rows
        assert {"carbon_g", "price_usd", "label"} <= set(rows[0])
        frontier = {p.label for p in result.pareto_frontier(objectives=axes)}
        assert {r["label"] for r in rows} == frontier

    def test_optimize_accepts_objectives(self):
        result = (
            Study(GRID)
            .with_workload(q3_join(100, 0.05, 0.05))
            .with_cost_model(MODEL)
            .optimize(
                budget=4,
                optimizer="random",
                objectives=("time_s", "price_usd"),
            )
        )
        assert result.feasible_points
        assert all(
            p.price_usd is not None for p in result.feasible_points
        )
        assert result.pareto_frontier(objectives=("time_s", "price_usd"))
