"""Property-based invariants of the fluid simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FailurePolicy,
    FaultSchedule,
    NetworkDegrade,
    NodeCrash,
    Straggler,
)
from repro.hardware.cluster import BEEFY, ClusterSpec
from repro.hardware.node import NodeSpec
from repro.hardware.power import PowerLawModel
from repro.hardware.powerstate import PowerStateModel
from repro.policy import DvfsLadderPolicy, PolicyChain, PowerGatePolicy
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.multiplex import run_multiplexed
from repro.simulator.resources import cpu, disk, nic_in, nic_out

NODE = NodeSpec(
    name="p",
    cpu_bandwidth_mbps=1000.0,
    memory_mb=1000.0,
    disk_bandwidth_mbps=250.0,
    nic_bandwidth_mbps=100.0,
    power_model=PowerLawModel(80.0, 0.3),
    engine_base_utilization=0.1,
)


def job(name, volume, node=0, start=0.0):
    return Job(
        name=name,
        phases=(
            Phase("p", (FlowSpec(f"{name}-f", volume, {disk(node): 1.0, cpu(node): 1.0}),)),
        ),
        start_time_s=start,
    )


@given(st.lists(st.floats(1.0, 500.0), min_size=1, max_size=5))
def test_makespan_independent_of_job_order(volumes):
    """Admission order of simultaneous jobs must not change the outcome."""
    cluster = ClusterSpec.homogeneous(NODE, 1)
    jobs_fwd = [job(f"j{i}", v) for i, v in enumerate(volumes)]
    jobs_rev = list(reversed(jobs_fwd))
    a = ClusterSimulator(cluster, record_intervals=False).run(jobs_fwd)
    b = ClusterSimulator(cluster, record_intervals=False).run(jobs_rev)
    assert a.makespan_s == pytest.approx(b.makespan_s)
    assert a.energy_j == pytest.approx(b.energy_j)


@given(st.floats(1.0, 400.0), st.floats(0.0, 50.0))
def test_time_shift_invariance(volume, offset):
    """Delaying a lone job shifts completion, not duration."""
    cluster = ClusterSpec.homogeneous(NODE, 1)
    base = ClusterSimulator(cluster, record_intervals=False).run([job("j", volume)])
    shifted = ClusterSimulator(cluster, record_intervals=False).run(
        [job("j", volume, start=offset)]
    )
    assert shifted.response_time_s("j") == pytest.approx(base.response_time_s("j"))
    assert shifted.makespan_s == pytest.approx(base.makespan_s + offset)


@given(st.lists(st.floats(10.0, 300.0), min_size=2, max_size=4))
def test_work_conservation(volumes):
    """Total served volume / makespan never exceeds the disk capacity."""
    cluster = ClusterSpec.homogeneous(NODE, 1)
    jobs = [job(f"j{i}", v) for i, v in enumerate(volumes)]
    result = ClusterSimulator(cluster, record_intervals=False).run(jobs)
    throughput = sum(volumes) / result.makespan_s
    assert throughput <= NODE.disk_bandwidth_mbps * (1 + 1e-6)
    # ...and the disk is actually saturated while work remains
    assert throughput == pytest.approx(NODE.disk_bandwidth_mbps)


@given(st.floats(10.0, 300.0), st.integers(1, 4))
def test_energy_scales_with_idle_nodes(volume, extra_nodes):
    """Adding idle nodes adds exactly their idle energy."""
    small = ClusterSimulator(
        ClusterSpec.homogeneous(NODE, 1), record_intervals=False
    ).run([job("j", volume)])
    big = ClusterSimulator(
        ClusterSpec.homogeneous(NODE, 1 + extra_nodes), record_intervals=False
    ).run([job("j", volume)])
    idle_power = NODE.power_model.power(NODE.utilization(0.0))
    expected = small.energy_j + extra_nodes * idle_power * small.makespan_s
    assert big.energy_j == pytest.approx(expected)
    assert big.makespan_s == pytest.approx(small.makespan_s)


# ------------------------------------------------- invariants of every mode
#: transitions short enough that gating happens inside the drawn traces
QUICK = PowerStateModel(
    shutdown_s=0.2, boot_s=0.5, transition_power_fraction=0.8,
    gated_power_fraction=0.1,
)
CONTROL = PolicyChain(
    (
        PowerGatePolicy(
            utilization_floor=0.05, node_role=BEEFY, min_idle_s=0.3,
            transitions=QUICK,
        ),
        DvfsLadderPolicy(ladder=((0, 0.6), (2, 1.0)), node_role=BEEFY),
    )
)
RETRY = FailurePolicy.abort_and_retry(backoff_base_s=0.5, transitions=QUICK)


def _flow(name, volume, src, dst):
    if dst is None:
        return FlowSpec(name, volume, {cpu(src): 1.0})
    return FlowSpec(
        name, volume, {cpu(src): 0.1, nic_out(src): 1.0, nic_in(dst): 1.0}
    )


@st.composite
def workloads(draw):
    """2-5 nodes and 1-5 multi-phase jobs of CPU and network flows."""
    num_nodes = draw(st.integers(2, 5))
    node = st.integers(0, num_nodes - 1)
    jobs = []
    for j in range(draw(st.integers(1, 5))):
        phases = []
        for p in range(draw(st.integers(1, 3))):
            flows = []
            for f in range(draw(st.integers(1, 2))):
                src = draw(node)
                dst = draw(st.one_of(st.none(), node.filter(lambda n: n != src)))
                volume = draw(st.floats(1.0, 500.0))
                flows.append(_flow(f"j{j}p{p}f{f}", volume, src, dst))
            phases.append(Phase(f"p{p}", tuple(flows)))
        start = draw(st.floats(0.0, 5.0))
        jobs.append(Job(name=f"j{j}", phases=tuple(phases), start_time_s=start))
    crash_at = draw(st.floats(0.0, 4.0))
    faults = FaultSchedule(
        events=(
            NodeCrash(
                node=draw(node), at_s=crash_at,
                recover_at_s=crash_at + draw(st.floats(0.1, 3.0)),
            ),
            Straggler(
                node=draw(node), at_s=draw(st.floats(0.0, 4.0)),
                slowdown=draw(st.floats(0.2, 0.9)),
                duration_s=draw(st.floats(0.1, 5.0)),
            ),
            NetworkDegrade(
                factor=draw(st.floats(0.2, 0.9)), at_s=draw(st.floats(0.0, 4.0)),
                duration_s=draw(st.floats(0.1, 5.0)),
            ),
        )
    )
    return num_nodes, jobs, faults


def assert_invariants(result, jobs, label, record=False):
    """Energy conservation, causality, and every submitted job accounted
    for exactly once (completed or dropped)."""
    assert sum(result.node_energy_j) == result.energy_j, label
    if record:
        intervals = sum(i.energy_j for i in result.intervals)
        assert intervals == pytest.approx(result.energy_j, rel=1e-9), label
    submitted = {job.name: job.start_time_s for job in jobs}
    completed = set(result.job_completion_s)
    dropped = set(result.dropped_job_names)
    assert completed | dropped == set(submitted), label
    assert not completed & dropped, label
    assert result.dropped_jobs == len(result.dropped_job_names), label
    for name in completed:
        start = result.job_start_s[name]
        assert start >= submitted[name], label
        assert result.job_completion_s[name] >= start, label
        assert result.job_completion_s[name] <= result.makespan_s, label


@settings(max_examples=60, deadline=None)
@given(workloads(), st.booleans())
def test_invariants_hold_in_every_mode(workload, record):
    """Healthy, policy-controlled, and faulted runs all conserve energy,
    respect causality, and account for every submitted job."""
    num_nodes, jobs, faults = workload
    sim = ClusterSimulator(
        ClusterSpec.homogeneous(NODE, num_nodes), record_intervals=record
    )
    modes = {
        "healthy": {},
        "policy": {"policy": CONTROL, "control_interval_s": 0.25},
        "faults": {"faults": faults, "failure_policy": RETRY},
    }
    for mode, options in modes.items():
        assert_invariants(sim.run(jobs, **options), jobs, mode, record)


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_invariants_hold_on_multiplexed_faulted_lanes(workload):
    """The same invariants, checked on the multiplexed loop's own faulted
    results rather than through parity with the serial loop: one schedule
    over lanes of two sizes, so crashed node ids wrap differently."""
    num_nodes, jobs, faults = workload
    sizes = (num_nodes, num_nodes + 1)
    results = run_multiplexed(
        [
            (ClusterSimulator(ClusterSpec.homogeneous(NODE, n), record_intervals=False), jobs)
            for n in sizes
        ],
        faults=faults,
        failure_policy=RETRY,
    )
    for n, result in zip(sizes, results):
        assert_invariants(result, jobs, f"{n} nodes")
