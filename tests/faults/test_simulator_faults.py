"""Fault injection inside :class:`ClusterSimulator`: the fault event source."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults import (
    FailurePolicy,
    FaultSchedule,
    NetworkDegrade,
    NodeCrash,
    Straggler,
)
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.hardware.power import PowerLawModel
from repro.hardware.powerstate import PowerStateModel
from repro.pstore.replication import ReplicatedLayout
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.resources import cpu, nic_in, nic_out

NODE = NodeSpec(
    name="f",
    cpu_bandwidth_mbps=1000.0,
    memory_mb=1000.0,
    disk_bandwidth_mbps=250.0,
    nic_bandwidth_mbps=100.0,
    power_model=PowerLawModel(80.0, 0.3),
    engine_base_utilization=0.1,
)

#: fast transitions so recovery does not dwarf the work in tests
FAST = PowerStateModel(
    shutdown_s=0.0, boot_s=2.0, transition_power_fraction=0.8,
    gated_power_fraction=0.1,
)
RETRY = FailurePolicy.abort_and_retry(backoff_base_s=1.0, transitions=FAST)
DROP = FailurePolicy.drop(transitions=FAST)


def simulator(num_nodes=4):
    return ClusterSimulator(ClusterSpec.homogeneous(NODE, num_nodes))


def cpu_job(name, volume_mb, node=0, start=0.0):
    return Job(
        name=name,
        phases=(Phase("p", (FlowSpec(f"{name}-f", volume_mb, {cpu(node): 1.0}),)),),
        start_time_s=start,
    )


def net_job(name, volume_mb, src=0, dst=1, start=0.0):
    demands = {cpu(src): 0.1, nic_out(src): 1.0, nic_in(dst): 1.0}
    return Job(
        name=name,
        phases=(Phase("x", (FlowSpec(f"{name}-f", volume_mb, demands),)),),
        start_time_s=start,
    )


# ----------------------------------------------------------------- crashes
def test_crash_aborts_and_retries_with_backoff_and_boot():
    sim = simulator()
    healthy = sim.run([cpu_job("a", 5000.0)])
    crash = FaultSchedule(events=(NodeCrash(node=0, at_s=1.0, recover_at_s=3.0),))
    result = sim.run([cpu_job("a", 5000.0)], faults=crash, failure_policy=RETRY)
    # progress is lost: recover at 3, boot 2, backoff already elapsed ->
    # restart at ~5, full rerun
    assert result.makespan_s == pytest.approx(5.0 + healthy.makespan_s, rel=1e-6)
    assert result.retried_jobs == 1
    assert result.dropped_jobs == 0
    assert result.faults_survived == 1
    # response time includes the outage: started at 0, finished at makespan
    assert result.response_time_s("a") == pytest.approx(result.makespan_s)


def test_crash_recovery_energy_is_priced():
    sim = simulator()
    crash = FaultSchedule(events=(NodeCrash(node=0, at_s=1.0, recover_at_s=3.0),))
    result = sim.run([cpu_job("a", 5000.0)], faults=crash, failure_policy=RETRY)
    # boot_s at transition_power_fraction * peak
    expected = FAST.boot_s * FAST.transition_power_fraction * NODE.peak_power_w
    assert result.recovery_energy_j == pytest.approx(expected, rel=1e-6)


def test_crash_on_idle_node_leaves_jobs_alone():
    sim = simulator()
    healthy = sim.run([cpu_job("a", 1000.0)])
    crash = FaultSchedule(events=(NodeCrash(node=3, at_s=0.5, recover_at_s=2.0),))
    result = sim.run([cpu_job("a", 1000.0)], faults=crash, failure_policy=RETRY)
    assert result.retried_jobs == 0
    assert result.job_completion_s == healthy.job_completion_s


def test_fail_stop_crash_drops_all_owning_jobs_and_raises():
    sim = simulator()
    crash = FaultSchedule(events=(NodeCrash(node=0, at_s=1.0),))
    with pytest.raises(SimulationError, match="no job survived"):
        sim.run([cpu_job("a", 5000.0)], faults=crash, failure_policy=DROP)


def test_fail_stop_crash_spares_jobs_on_other_nodes():
    sim = simulator()
    crash = FaultSchedule(events=(NodeCrash(node=0, at_s=1.0),))
    result = sim.run(
        [cpu_job("a", 5000.0, node=0), cpu_job("b", 5000.0, node=1)],
        faults=crash,
        failure_policy=DROP,
    )
    assert result.dropped_job_names == ("a",)
    assert result.dropped_jobs == 1
    assert list(result.job_completion_s) == ["b"]


def test_arrival_during_fail_stop_outage_is_shed():
    sim = simulator()
    crash = FaultSchedule(events=(NodeCrash(node=0, at_s=1.0),))
    result = sim.run(
        [cpu_job("late", 100.0, node=0, start=5.0), cpu_job("b", 5000.0, node=1)],
        faults=crash,
        failure_policy=RETRY,
    )
    assert result.dropped_job_names == ("late",)


def test_arrival_during_recoverable_outage_waits_and_pays_latency():
    sim = simulator()
    crash = FaultSchedule(events=(NodeCrash(node=0, at_s=1.0, recover_at_s=4.0),))
    result = sim.run(
        [cpu_job("late", 1000.0, node=0, start=2.0)],
        faults=crash,
        failure_policy=RETRY,
    )
    # arrived at 2 into a dead node; runs after recovery (4) + boot (2)
    assert result.job_start_s["late"] == pytest.approx(2.0)
    assert result.job_completion_s["late"] > 6.0
    assert result.retried_jobs == 0  # held, never killed


def test_retry_exhaustion_drops_the_job():
    sim = simulator()
    # crash again the moment the job restarts, more times than max_retries
    crashes = FaultSchedule(
        events=tuple(
            NodeCrash(node=0, at_s=t, recover_at_s=t + 0.5)
            for t in (0.5, 4.0, 8.0, 12.0, 16.0, 20.0)
        )
    )
    policy = FailurePolicy.abort_and_retry(
        max_retries=2, backoff_base_s=0.1, transitions=FAST
    )
    with pytest.raises(SimulationError, match="no job survived"):
        sim.run([cpu_job("a", 3000.0)], faults=crashes, failure_policy=policy)


def test_node_index_wraps_modulo_cluster_size():
    sim = simulator(num_nodes=4)
    direct = FaultSchedule(events=(NodeCrash(node=0, at_s=1.0, recover_at_s=3.0),))
    wrapped = FaultSchedule(events=(NodeCrash(node=4, at_s=1.0, recover_at_s=3.0),))
    a = sim.run([cpu_job("a", 5000.0)], faults=direct, failure_policy=RETRY)
    b = sim.run([cpu_job("a", 5000.0)], faults=wrapped, failure_policy=RETRY)
    assert a == b


# -------------------------------------------------------------- stragglers
def test_straggler_scales_completion_time():
    sim = simulator()
    healthy = sim.run([cpu_job("a", 2000.0)])
    slow = FaultSchedule(
        events=(Straggler(node=0, at_s=0.0, slowdown=0.5, duration_s=1e6),)
    )
    result = sim.run([cpu_job("a", 2000.0)], faults=slow)
    assert result.makespan_s == pytest.approx(2.0 * healthy.makespan_s, rel=1e-6)
    assert result.faults_survived == 1
    assert result.retried_jobs == 0


def test_straggler_window_ends():
    sim = simulator()
    healthy = sim.run([cpu_job("a", 2000.0)])
    # straggle only the first half-second, then full speed
    slow = FaultSchedule(
        events=(Straggler(node=0, at_s=0.0, slowdown=0.5, duration_s=0.5),)
    )
    result = sim.run([cpu_job("a", 2000.0)], faults=slow)
    assert healthy.makespan_s < result.makespan_s < 2.0 * healthy.makespan_s


def test_overlapping_stragglers_compose_multiplicatively():
    sim = simulator()
    healthy = sim.run([cpu_job("a", 2000.0)])
    slow = FaultSchedule(
        events=(
            Straggler(node=0, at_s=0.0, slowdown=0.5, duration_s=1e6),
            Straggler(node=0, at_s=0.0, slowdown=0.5, duration_s=1e6),
        )
    )
    result = sim.run([cpu_job("a", 2000.0)], faults=slow)
    assert result.makespan_s == pytest.approx(4.0 * healthy.makespan_s, rel=1e-6)


# --------------------------------------------------------- network degrade
def test_network_degrade_scales_shuffle_time():
    sim = simulator()
    healthy = sim.run([net_job("n", 500.0)])
    degrade = FaultSchedule(
        events=(NetworkDegrade(factor=0.25, at_s=0.0, duration_s=1e6),)
    )
    result = sim.run([net_job("n", 500.0)], faults=degrade)
    assert result.makespan_s == pytest.approx(4.0 * healthy.makespan_s, rel=1e-6)


def test_network_degrade_does_not_touch_cpu_jobs():
    sim = simulator()
    healthy = sim.run([cpu_job("a", 2000.0)])
    degrade = FaultSchedule(
        events=(NetworkDegrade(factor=0.25, at_s=0.0, duration_s=1e6),)
    )
    result = sim.run([cpu_job("a", 2000.0)], faults=degrade)
    assert result.makespan_s == pytest.approx(healthy.makespan_s, rel=1e-6)


# ----------------------------------------------------------- replica cover
def test_coverage_loss_raises_named_simulation_error():
    sim = simulator()
    layout = ReplicatedLayout(num_nodes=4, num_partitions=8, replication_factor=1)
    crash = FaultSchedule(events=(NodeCrash(node=0, at_s=1.0, recover_at_s=3.0),))
    with pytest.raises(SimulationError, match="replica coverage lost"):
        sim.run(
            [cpu_job("a", 5000.0)],
            faults=crash,
            failure_policy=RETRY,
            layout=layout,
        )


def test_single_crash_survives_with_replication():
    sim = simulator()
    layout = ReplicatedLayout(num_nodes=4, num_partitions=8, replication_factor=2)
    crash = FaultSchedule(events=(NodeCrash(node=0, at_s=1.0, recover_at_s=3.0),))
    result = sim.run(
        [cpu_job("a", 5000.0)], faults=crash, failure_policy=RETRY, layout=layout
    )
    assert result.faults_survived == 1
    assert list(result.job_completion_s) == ["a"]


def test_adjacent_double_crash_defeats_r2_chained_declustering():
    sim = simulator()
    layout = ReplicatedLayout(num_nodes=4, num_partitions=8, replication_factor=2)
    crash = FaultSchedule(
        events=(
            NodeCrash(node=0, at_s=1.0, recover_at_s=10.0),
            NodeCrash(node=1, at_s=2.0, recover_at_s=10.0),
        )
    )
    with pytest.raises(SimulationError, match="replica coverage lost"):
        sim.run(
            [cpu_job("a", 20000.0)],
            faults=crash,
            failure_policy=RETRY,
            layout=layout,
        )


# ------------------------------------------------------------ empty parity
def never_firing(healthy):
    """A non-empty schedule whose only event lands after the last completion."""
    return FaultSchedule(
        events=(NodeCrash(node=0, at_s=healthy.makespan_s + 1.0),)
    )


def test_empty_schedule_is_bit_identical_to_no_faults():
    sim = simulator()
    jobs = [cpu_job("a", 1000.0), cpu_job("b", 500.0, node=1, start=0.3)]
    healthy = sim.run(jobs)
    assert sim.run(jobs, faults=FaultSchedule()) == healthy
    assert sim.run(jobs, faults=None) == healthy
    # The fault source costs nothing until it fires.
    assert sim.run(jobs, faults=never_firing(healthy)) == healthy


@settings(max_examples=25, deadline=None)
@given(
    volumes=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=4),
    starts=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
)
def test_empty_schedule_parity_property(volumes, starts):
    """An empty — or never-firing — FaultSchedule never changes any run,
    whatever the jobs."""
    sim = simulator()
    jobs = [
        cpu_job(f"j{i}", volume, node=i % 4, start=starts[i % 4])
        for i, volume in enumerate(volumes)
    ]
    healthy = sim.run(jobs)
    assert sim.run(jobs, faults=FaultSchedule()) == healthy
    assert sim.run(jobs, faults=never_firing(healthy)) == healthy


def test_faulted_runs_are_deterministic():
    sim = simulator()
    crash = FaultSchedule(
        events=(
            NodeCrash(node=0, at_s=0.5, recover_at_s=2.0),
            Straggler(node=1, at_s=0.2, slowdown=0.5, duration_s=3.0),
            NetworkDegrade(factor=0.5, at_s=0.1, duration_s=5.0),
        )
    )
    jobs = [cpu_job("a", 2000.0), net_job("n", 200.0, src=1, dst=2, start=0.1)]
    policy = FailurePolicy.abort_and_retry(jitter=0.3, seed=7, transitions=FAST)
    first = sim.run(jobs, faults=crash, failure_policy=policy)
    second = sim.run(jobs, faults=crash, failure_policy=policy)
    assert first == second
