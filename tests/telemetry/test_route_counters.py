"""Why each candidate took its route: ``evaluator.route.*`` counters.

:meth:`SimulatorEvaluator.evaluate_trace_batch` counts every batch's
candidates by route, once per batch: ``multiplexed`` (records came from
the multiplexed loop, a lane's error slot included), ``serial.policy``
(a dynamic control policy) and ``fallback.error`` (the loop raised an
error no single lane owns, and the batch replayed serially).  Faults and
time-of-day carbon have no route of their own: they ride the loop.
"""

import pytest

from repro.costmodel import CarbonIntensityCurve, CostModel
from repro.errors import SimulationError
from repro.faults import FailurePolicy, FaultSchedule, NodeCrash, Straggler
from repro.hardware.powerstate import PowerStateModel
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.policy import PolicyCandidate, PowerGatePolicy, StaticPolicy
from repro.search import DesignGrid, SimulatorEvaluator
from repro.search import evaluators
from repro.search.evaluators import evaluate_timed_design
from repro.telemetry import capture
from repro.workloads.arrivals import periodic_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join

DESIGNS = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(3, 4),
).candidate_list()[:4]

GATE = PowerGatePolicy(
    utilization_floor=0.05,
    min_idle_s=2.0,
    transitions=PowerStateModel(shutdown_s=0.1, boot_s=0.2),
)

CARBON = CostModel(
    carbon_g_per_kwh=CarbonIntensityCurve.diurnal(100.0, 500.0, period_s=60.0)
)


def trace() -> TimedTrace:
    return TimedTrace.from_schedule(
        "periodic-q3", q3_join(100, 0.05, 0.05), periodic_arrivals(3, interval_s=15.0)
    )


def routes(evaluator, trace, candidates) -> dict:
    with capture() as telemetry:
        records = evaluator.evaluate_trace_batch(trace, candidates)
    assert len(records) == len(candidates)
    return {
        name: value
        for name, value in telemetry.counters.items()
        if name.startswith("evaluator.route.")
    }


def test_mixed_batch_counts_each_candidate_once():
    """Bare designs, static and dynamic policies, priced on a carbon
    curve: only the dynamic policies leave the loop."""
    batch = [
        DESIGNS[0],
        PolicyCandidate(design=DESIGNS[0], policy=StaticPolicy()),
        PolicyCandidate(design=DESIGNS[1], policy=GATE, control_interval_s=0.5),
        DESIGNS[2],
        PolicyCandidate(design=DESIGNS[3], policy=GATE, control_interval_s=0.5),
        DESIGNS[3],
    ]
    assert routes(SimulatorEvaluator(cost_model=CARBON), trace(), batch) == {
        "evaluator.route.multiplexed": 4,
        "evaluator.route.serial.policy": 2,
    }


def faulted_trace():
    """Two crashes, the second killing the first one's retry (dropped past
    a one-retry budget), and a straggler later on."""
    return trace().with_faults(
        FaultSchedule(
            events=(
                NodeCrash(node=1, at_s=0.5, recover_at_s=2.0),
                NodeCrash(node=2, at_s=3.5, recover_at_s=5.0),
                Straggler(node=0, at_s=15.2, slowdown=0.5, duration_s=3.0),
            )
        ),
        failure_policy=FailurePolicy.abort_and_retry(
            max_retries=1,
            backoff_base_s=0.5,
            transitions=PowerStateModel(shutdown_s=0.0, boot_s=0.5),
        ),
    )


def test_faulted_batch_rides_the_loop():
    assert routes(SimulatorEvaluator(), faulted_trace(), DESIGNS) == {
        "evaluator.route.multiplexed": 4,
    }


def test_mixed_faulted_batch():
    """Under faults too, only the dynamic policies leave the loop."""
    batch = [
        DESIGNS[0],
        PolicyCandidate(design=DESIGNS[1], policy=StaticPolicy()),
        PolicyCandidate(design=DESIGNS[2], policy=GATE, control_interval_s=0.5),
        DESIGNS[3],
    ]
    assert routes(SimulatorEvaluator(), faulted_trace(), batch) == {
        "evaluator.route.multiplexed": 3,
        "evaluator.route.serial.policy": 1,
    }


def test_fault_counters_match_serial_replay():
    """The loop flushes the fault counters once per batch; their totals
    are what replaying each candidate serially reports."""
    faulted = faulted_trace()

    def counters(evaluate) -> dict:
        with capture() as telemetry:
            evaluate()
        return {
            name: value
            for name, value in telemetry.counters.items()
            if name.startswith("sim.faults.")
        }

    batch = counters(lambda: SimulatorEvaluator().evaluate_trace_batch(faulted, DESIGNS))
    serial = counters(
        lambda: [evaluate_timed_design(SimulatorEvaluator(), d, faulted) for d in DESIGNS]
    )
    assert batch == serial
    assert batch["sim.faults.onsets"] == 12
    assert batch["sim.faults.retried_jobs"] > 0
    assert batch["sim.faults.dropped_jobs"] > 0


def test_one_lane_losing_coverage_leaves_its_batchmates_on_the_loop():
    """Crashes of nodes 1 and 5 under two-way replication: a 4-node
    design loses node 1 twice and keeps coverage, while on a 5-node
    design the crashes hit neighbours 0 and 1 and strand a partition.
    Only those lanes fail, each into its serial infeasible record, and
    every candidate stays on the loop."""
    designs = DesignGrid(
        node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),), cluster_sizes=(4, 5)
    ).candidate_list()
    faulted = trace().with_faults(
        FaultSchedule(
            events=(
                NodeCrash(node=1, at_s=0.5, recover_at_s=2.0),
                NodeCrash(node=5, at_s=0.5, recover_at_s=2.0),
            )
        ),
        FailurePolicy.abort_and_retry(),
        replication_factor=2,
    )
    evaluator = SimulatorEvaluator()
    assert routes(evaluator, faulted, designs) == {"evaluator.route.multiplexed": 11}
    records = evaluator.evaluate_trace_batch(faulted, designs)
    assert records == [evaluate_timed_design(evaluator, d, faulted) for d in designs]
    assert [r.feasible for r in records] == [d.num_nodes == 4 for d in designs]
    assert all(
        "replica coverage lost" in r.infeasible_reason for r in records if not r.feasible
    )


def test_loop_error_falls_back_per_batch(monkeypatch):
    def broken(runs, **kwargs):
        raise SimulationError("lane stalled")

    monkeypatch.setattr(evaluators, "run_multiplexed", broken)
    assert routes(SimulatorEvaluator(), trace(), DESIGNS) == {
        "evaluator.route.fallback.error": 4,
    }


@pytest.mark.parametrize("cost_model", [None, CARBON])
def test_batches_accumulate(cost_model):
    """Counts are per candidate and add up across batches; a carbon
    curve changes no candidate's route."""
    evaluator = SimulatorEvaluator(cost_model=cost_model)
    with capture() as telemetry:
        evaluator.evaluate_trace_batch(trace(), DESIGNS[:3])
        evaluator.evaluate_trace_batch(trace(), DESIGNS[3:])
    assert telemetry.counter("evaluator.route.multiplexed") == 4
