"""Node power states under dynamic control policies.

Exercises `ClusterSimulator.run` with its control-tick event source:
gating and waking around idle stretches, the wake-up latency penalty on
held jobs, per-state energy pricing, and exact parity of the static path.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.hardware.cluster import WIMPY
from repro.hardware.powerstate import PowerStateModel
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.policy import (
    ControlPolicy,
    DvfsLadderPolicy,
    GateNode,
    PowerGatePolicy,
    StaticPolicy,
)
from repro.pstore.planner import plan_join
from repro.pstore.simulated import SimulatedPStore, trace_jobs
from repro.search.grid import DesignGrid
from repro.workloads.queries import q3_join


class GateAndForgetPolicy(ControlPolicy):
    """Pathological controller: gates the wimpy nodes and never wakes them."""

    @property
    def label(self):
        return "gate-and-forget"

    def cache_key(self):
        return ("gate-and-forget",)

    def power_state_model(self):
        return PowerStateModel(shutdown_s=0.01, boot_s=0.01)

    def observe(self, state):
        return [
            GateNode(node_id)
            for node_id in state.nodes_in_state("active", WIMPY)
        ]


@pytest.fixture(scope="module")
def rig():
    grid = DesignGrid(
        node_pairs=[(CLUSTER_V_NODE, WIMPY_LAPTOP_B)], cluster_sizes=(6,)
    )
    candidate = grid.candidate_list()[4]  # 2 Beefy, 4 Wimpy
    cluster = candidate.cluster()
    store = SimulatedPStore(cluster)
    plan = plan_join(cluster, q3_join(100, 0.05, 0.05))
    solo = store.run(plan).makespan_s
    return store, plan, solo


def gappy_schedule(plan, solo):
    """Two bursts separated by a long idle stretch (the gating window)."""
    return [
        (plan, 0.0),
        (plan, 0.2 * solo),
        (plan, 30.0 * solo),
        (plan, 30.2 * solo),
    ]


def fast_transitions(solo):
    return PowerStateModel(
        shutdown_s=0.05 * solo,
        boot_s=0.1 * solo,
        transition_power_fraction=0.5,
        gated_power_fraction=0.05,
    )


def gate_policy(solo, **overrides):
    kwargs = dict(
        utilization_floor=0.05,
        min_idle_s=1.0 * solo,
        transitions=fast_transitions(solo),
    )
    kwargs.update(overrides)
    return PowerGatePolicy(**kwargs)


class TestPowerGating:
    def test_gating_saves_energy_on_gappy_trace(self, rig):
        store, plan, solo = rig
        schedule = gappy_schedule(plan, solo)
        static = store.run_trace(schedule)
        gated = store.run_trace(
            schedule,
            policy=gate_policy(solo),
            control_interval_s=0.25 * solo,
        )
        assert gated.gated_node_seconds > 0
        assert gated.energy_saved_j > 0
        assert gated.energy_j < static.energy_j

    def test_wake_latency_lands_in_response_times(self, rig):
        store, plan, solo = rig
        schedule = gappy_schedule(plan, solo)
        static = store.run_trace(schedule)
        gated = store.run_trace(
            schedule,
            policy=gate_policy(solo),
            control_interval_s=0.25 * solo,
        )
        name = f"{plan.workload.name}#2"  # first arrival after the idle gap
        penalty = gated.response_time_s(name) - static.response_time_s(name)
        model = fast_transitions(solo)
        assert penalty > 0
        # at least the boot delay, at most boot + one full control tick +
        # the shutdown still in flight when the arrival lands
        assert penalty >= model.boot_s - 1e-9
        assert penalty <= model.boot_s + model.shutdown_s + 0.25 * solo + 1e-9
        # jobs before the gap never waited on a wake-up
        first = f"{plan.workload.name}#0"
        assert gated.response_time_s(first) == pytest.approx(
            static.response_time_s(first)
        )

    def test_min_idle_hysteresis_prevents_gating_in_short_gaps(self, rig):
        store, plan, solo = rig
        # gaps much shorter than min_idle_s: the policy must never fire
        schedule = [(plan, i * 1.5 * solo) for i in range(4)]
        result = store.run_trace(
            schedule,
            policy=gate_policy(solo, min_idle_s=10.0 * solo),
            control_interval_s=0.25 * solo,
        )
        assert result.gated_node_seconds == 0.0
        assert result.energy_saved_j == 0.0

    def test_gated_residual_power_is_priced(self, rig):
        store, plan, solo = rig
        schedule = gappy_schedule(plan, solo)
        leaky = store.run_trace(
            schedule,
            policy=gate_policy(solo),
            control_interval_s=0.25 * solo,
        )
        hard_off = store.run_trace(
            schedule,
            policy=gate_policy(
                solo,
                transitions=PowerStateModel(
                    shutdown_s=0.05 * solo,
                    boot_s=0.1 * solo,
                    transition_power_fraction=0.5,
                    gated_power_fraction=0.0,
                ),
            ),
            control_interval_s=0.25 * solo,
        )
        # standby leakage costs energy relative to a hard power-off
        assert hard_off.energy_j < leaky.energy_j

    def test_energy_conservation_against_intervals(self, rig):
        store, plan, solo = rig
        result = store.run_trace(
            gappy_schedule(plan, solo),
            policy=gate_policy(solo),
            control_interval_s=0.25 * solo,
        )
        assert sum(i.energy_j for i in result.intervals) == pytest.approx(
            result.energy_j
        )

    def test_zero_duration_transitions(self, rig):
        store, plan, solo = rig
        instant = PowerStateModel(
            shutdown_s=0.0,
            boot_s=0.0,
            transition_power_fraction=0.5,
            gated_power_fraction=0.0,
        )
        result = store.run_trace(
            gappy_schedule(plan, solo),
            policy=gate_policy(solo, transitions=instant),
            control_interval_s=0.25 * solo,
        )
        assert result.gated_node_seconds > 0
        # Instant transitions leave only control-tick granularity as wake
        # penalty: the ungate lands at one tick, the release at the next
        # event — so each response sits within two ticks of the static one.
        static = store.run_trace(gappy_schedule(plan, solo))
        tick = 0.25 * solo
        for name in static.job_completion_s:
            penalty = result.response_time_s(name) - static.response_time_s(name)
            assert -1e-9 <= penalty <= 2 * tick + 1e-9


class TestStaticParity:
    def test_static_policy_bit_identical_to_no_policy(self, rig):
        store, plan, solo = rig
        jobs = trace_jobs(gappy_schedule(plan, solo))
        plain = store.simulator.run(jobs)
        static = store.simulator.run(jobs, policy=StaticPolicy())
        assert static.makespan_s == plain.makespan_s
        assert static.energy_j == plain.energy_j
        assert static.node_energy_j == plain.node_energy_j
        assert static.job_start_s == plain.job_start_s
        assert static.job_completion_s == plain.job_completion_s
        assert static.gated_node_seconds == 0.0
        assert static.energy_saved_j == 0.0


class TestDvfsLadder:
    def test_idle_clock_down_slows_and_saves_power(self, rig):
        store, plan, solo = rig
        # hold the wimpy nodes at half clock regardless of load
        policy = DvfsLadderPolicy(ladder=((0, 0.5),), node_role=WIMPY)
        schedule = [(plan, 0.0), (plan, 2.0 * solo)]
        static = store.run_trace(schedule)
        slowed = store.run_trace(
            schedule, policy=policy, control_interval_s=0.1 * solo
        )
        # half-clock wimpy nodes stretch the join (they bind the plan)
        assert slowed.makespan_s > static.makespan_s
        # no gating happened, only frequency steps
        assert slowed.gated_node_seconds == 0.0


class TestGuards:
    def test_never_waking_policy_stalls_into_max_events(self, rig):
        store, plan, solo = rig
        jobs = trace_jobs(gappy_schedule(plan, solo))
        with pytest.raises(SimulationError, match="exceeded"):
            store.simulator.run(
                jobs,
                policy=GateAndForgetPolicy(),
                control_interval_s=0.25 * solo,
                max_events=2_000,
            )

    def test_control_interval_must_be_positive(self, rig):
        store, plan, solo = rig
        jobs = trace_jobs([(plan, 0.0)])
        # NaN and inf would silently never consult the policy.
        for interval in (0.0, math.nan, math.inf):
            with pytest.raises(SimulationError, match="control interval"):
                store.simulator.run(
                    jobs, policy=gate_policy(solo), control_interval_s=interval
                )

    def test_gating_never_strands_a_running_job(self, rig):
        """A policy with no idle hysteresis tries to gate at every tick;
        nodes demanded by running jobs must be protected, so every job
        still completes."""
        store, plan, solo = rig
        schedule = [(plan, 0.0), (plan, 0.5 * solo), (plan, 4.0 * solo)]
        result = store.run_trace(
            schedule,
            policy=gate_policy(solo, min_idle_s=0.0),
            control_interval_s=0.1 * solo,
        )
        assert len(result.job_completion_s) == 3
