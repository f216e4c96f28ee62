"""The multiplexed engine against its oracle: the serial event loop.

:func:`repro.simulator.multiplex.run_multiplexed` promises results
*bit-identical* to running each (simulator, jobs) pair through
``ClusterSimulator.run`` alone — every comparison here is exact ``==``,
never approx.  The generators deliberately cover what the flat fast path
has to get right: mixed beefy/wimpy clusters of different sizes in one
batch, network flows under a lossy switch (efficiency rescaling),
multi-phase jobs (barriers), staggered arrivals (idle gaps and admission
ties), and lanes finishing at different times.  Under a fault schedule
the same holds for every degraded field: crashes with and without
recovery, stragglers, network degrades, retries with jitter, and drops.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CarbonIntensityCurve, CostModel
from repro.errors import ConfigurationError, SimulationError
from repro.faults import (
    FailurePolicy,
    FaultSchedule,
    NetworkDegrade,
    NodeCrash,
    Straggler,
)
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.hardware.power import IdlePeakModel, PowerLawModel
from repro.hardware.powerstate import PowerStateModel
from repro.pstore.replication import ReplicatedLayout
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.multiplex import run_multiplexed
from repro.simulator.network import SMC_GS5_SWITCH
from repro.simulator.resources import cpu, disk, nic_in, nic_out

BEEFY = NodeSpec(
    name="beefy",
    cpu_bandwidth_mbps=1000.0,
    memory_mb=4000.0,
    disk_bandwidth_mbps=250.0,
    nic_bandwidth_mbps=100.0,
    power_model=PowerLawModel(80.0, 0.3),
    engine_base_utilization=0.1,
)

WIMPY = NodeSpec(
    name="wimpy",
    cpu_bandwidth_mbps=300.0,
    memory_mb=1000.0,
    disk_bandwidth_mbps=80.0,
    nic_bandwidth_mbps=100.0,
    power_model=IdlePeakModel(idle_w=10.0, peak_w=30.0, exponent=1.0),
    engine_base_utilization=0.05,
)


@st.composite
def lane_jobs(draw):
    """One lane: a mixed cluster plus staggered multi-phase jobs."""
    n_beefy = draw(st.integers(0, 2))
    n_wimpy = draw(st.integers(0 if n_beefy else 1, 2))
    cluster = ClusterSpec.beefy_wimpy(BEEFY, n_beefy, WIMPY, n_wimpy)
    n = cluster.num_nodes

    jobs = []
    n_jobs = draw(st.integers(1, 3))
    for j in range(n_jobs):
        start = draw(st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False))
        phases = []
        for p in range(draw(st.integers(1, 2))):
            flows = []
            for node in range(n):
                volume = draw(st.floats(1.0, 200.0))
                demands = {cpu(node): 1.0, disk(node): 1.0}
                if n > 1 and draw(st.booleans()):
                    other = (node + 1) % n
                    demands[nic_out(node)] = 0.5
                    demands[nic_in(other)] = 0.5
                flows.append(
                    FlowSpec(f"j{j}p{p}n{node}", volume, demands)
                )
            phases.append(Phase(f"p{p}", tuple(flows)))
        jobs.append(Job(name=f"j{j}", phases=tuple(phases), start_time_s=start))
    return cluster, jobs


def assert_identical(got, oracle):
    assert got.makespan_s == oracle.makespan_s
    assert got.energy_j == oracle.energy_j
    assert got.node_energy_j == oracle.node_energy_j
    assert got.job_start_s == oracle.job_start_s
    assert got.job_completion_s == oracle.job_completion_s
    assert got.intervals == oracle.intervals


def oracle_run(cluster, jobs, record):
    return ClusterSimulator(
        cluster, switch=SMC_GS5_SWITCH, record_intervals=record
    ).run(jobs)


@settings(max_examples=40, deadline=None)
@given(st.lists(lane_jobs(), min_size=1, max_size=4), st.booleans())
def test_multiplexed_matches_serial(lanes, record):
    """A whole batch reproduces each lane's solo serial run bit for bit."""
    runs = [
        (
            ClusterSimulator(
                cluster, switch=SMC_GS5_SWITCH, record_intervals=record
            ),
            jobs,
        )
        for cluster, jobs in lanes
    ]
    results = run_multiplexed(runs)
    assert len(results) == len(lanes)
    for (cluster, jobs), got in zip(lanes, results):
        assert_identical(got, oracle_run(cluster, jobs, record))


@settings(max_examples=25, deadline=None)
@given(st.lists(lane_jobs(), min_size=2, max_size=4), st.data())
def test_batch_composition_independence(lanes, data):
    """How lanes are grouped into batches must not change any result."""
    records = [data.draw(st.booleans()) for _ in lanes]

    def sim(i):
        return ClusterSimulator(
            lanes[i][0], switch=SMC_GS5_SWITCH, record_intervals=records[i]
        )

    together = run_multiplexed([(sim(i), lanes[i][1]) for i in range(len(lanes))])
    split = len(lanes) // 2
    apart = run_multiplexed(
        [(sim(i), lanes[i][1]) for i in range(split)]
    ) + run_multiplexed(
        [(sim(i), lanes[i][1]) for i in range(split, len(lanes))]
    )
    for got, ref in zip(together, apart):
        assert_identical(got, ref)


#: periods from a fraction of one step to beyond a whole run
carbon_curves = st.builds(
    CarbonIntensityCurve,
    slots=st.lists(st.floats(0.0, 900.0), min_size=1, max_size=24).map(tuple),
    period_s=st.floats(-2.0, 1.5).map(lambda exponent: 10.0**exponent),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(lane_jobs(), min_size=1, max_size=4), carbon_curves)
def test_carbon_matches_interval_pricing(lanes, curve):
    """Given a curve, every lane's grams equal pricing its serial interval
    trace with ``CostModel.carbon_g_timed``, bit for bit, and the rest of
    the result is unchanged."""
    runs = [
        (ClusterSimulator(cluster, switch=SMC_GS5_SWITCH, record_intervals=False), jobs)
        for cluster, jobs in lanes
    ]
    model = CostModel(carbon_g_per_kwh=curve)
    for (cluster, jobs), got in zip(lanes, run_multiplexed(runs, carbon_curve=curve)):
        recorded = oracle_run(cluster, jobs, True)
        assert got.carbon_g == model.carbon_g_timed(recorded.intervals)
        assert_identical(got, oracle_run(cluster, jobs, False))


def test_carbon_curve_needs_interval_free_runs():
    """A recording run is priced from its intervals, never by the loop."""
    cluster = ClusterSpec.homogeneous(BEEFY, 1)
    job = Job(
        name="j",
        phases=(Phase("p", (FlowSpec("f", 50.0, {cpu(0): 1.0}),)),),
    )
    with pytest.raises(ConfigurationError, match="interval-free"):
        run_multiplexed(
            [(ClusterSimulator(cluster, record_intervals=True), [job])],
            carbon_curve=CarbonIntensityCurve(slots=(100.0,), period_s=10.0),
        )


def test_empty_batch():
    assert run_multiplexed([]) == []


def test_mixed_recording_in_one_batch():
    """Recording and non-recording lanes ride one call, results in order."""
    lanes = [
        (ClusterSpec.homogeneous(BEEFY, 1), None),
        (ClusterSpec.beefy_wimpy(BEEFY, 1, WIMPY, 1), None),
        (ClusterSpec.homogeneous(WIMPY, 2), None),
    ]
    jobs = [
        Job(
            name="j",
            phases=(
                Phase(
                    "p",
                    tuple(
                        FlowSpec(
                            f"f{node}",
                            50.0 * (node + 1),
                            {cpu(node): 1.0, disk(node): 1.0},
                        )
                        for node in range(n)
                    ),
                ),
            ),
            start_time_s=1.5,
        )
        for n in (1, 2, 2)
    ]
    records = [False, True, False]
    results = run_multiplexed(
        [
            (
                ClusterSimulator(
                    cluster, switch=SMC_GS5_SWITCH, record_intervals=record
                ),
                job,
            )
            for (cluster, _), job, record in zip(lanes, [[j] for j in jobs], records)
        ]
    )
    for (cluster, _), job, record, got in zip(
        lanes, [[j] for j in jobs], records, results
    ):
        assert_identical(got, oracle_run(cluster, job, record))
    assert results[1].intervals and not results[0].intervals


# ----------------------------------------------------------------- faults
#: short transitions, so recoveries boot inside the drawn traces
BOOT = PowerStateModel(
    shutdown_s=0.0, boot_s=0.4, transition_power_fraction=0.8,
    gated_power_fraction=0.1,
)
FAILURE_POLICIES = (
    FailurePolicy.abort_and_retry(
        backoff_base_s=0.3, backoff_cap_s=2.0, jitter=0.5, seed=7,
        transitions=BOOT,
    ),
    FailurePolicy.abort_and_retry(
        max_retries=1, backoff_base_s=0.2, transitions=PowerStateModel(
            shutdown_s=0.0, boot_s=0.0,
        ),
    ),
    FailurePolicy.drop(transitions=BOOT),
)


@st.composite
def fault_schedules(draw):
    """1-5 possibly overlapping events on node ids up to 5, which wrap
    differently on each lane's cluster; onsets fall while the drawn jobs
    run, and recoverable crashes are the likeliest kind."""
    events = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(
            st.sampled_from(
                ("crash", "crash", "crash", "fail-stop", "straggler", "degrade")
            )
        )
        at = draw(st.floats(0.0, 3.0))
        node = draw(st.integers(0, 5))
        if kind == "crash":
            events.append(
                NodeCrash(node=node, at_s=at, recover_at_s=at + draw(st.floats(0.05, 3.0)))
            )
        elif kind == "fail-stop":
            events.append(NodeCrash(node=node, at_s=at))
        elif kind == "straggler":
            events.append(
                Straggler(
                    node=node, at_s=at, slowdown=draw(st.floats(0.2, 0.9)),
                    duration_s=draw(st.floats(0.1, 4.0)),
                )
            )
        else:
            events.append(
                NetworkDegrade(
                    factor=draw(st.floats(0.2, 0.9)), at_s=at,
                    duration_s=draw(st.floats(0.1, 4.0)),
                )
            )
    return FaultSchedule(events=tuple(events))


@st.composite
def faulted_lane(draw):
    """One lane for the fault tests: jobs of CPU-bound, disk and network
    flows on a few nodes each, long enough for the drawn faults to catch
    them, so work goes on beside a down, booting or straggling node."""
    n_beefy = draw(st.integers(0, 2))
    n_wimpy = draw(st.integers(0 if n_beefy else 1, 2))
    cluster = ClusterSpec.beefy_wimpy(BEEFY, n_beefy, WIMPY, n_wimpy)
    n = cluster.num_nodes
    node = st.integers(0, n - 1)
    jobs = []
    for j in range(draw(st.integers(1, 4))):
        phases = []
        for p in range(draw(st.integers(1, 2))):
            flows = []
            for f in range(draw(st.integers(1, 2))):
                src = draw(node)
                volume = draw(st.floats(20.0, 300.0))
                kind = draw(st.sampled_from(("cpu", "disk", "net") if n > 1 else ("cpu", "disk")))
                if kind == "cpu":
                    demands = {cpu(src): 1.0}
                elif kind == "disk":
                    demands = {cpu(src): 1.0, disk(src): 1.0}
                else:
                    dst = (src + draw(st.integers(1, n - 1))) % n
                    demands = {cpu(src): 0.1, nic_out(src): 1.0, nic_in(dst): 1.0}
                flows.append(FlowSpec(f"j{j}p{p}f{f}", volume, demands))
            phases.append(Phase(f"p{p}", tuple(flows)))
        start = draw(st.floats(0.0, 3.0))
        jobs.append(Job(name=f"j{j}", phases=tuple(phases), start_time_s=start))
    return cluster, jobs


faulted_lanes = st.lists(faulted_lane(), min_size=1, max_size=4)


def serial_outcome(sim, jobs, **options):
    """The serial run's result, or the message it raises."""
    try:
        return sim.run(jobs, **options)
    except SimulationError as error:
        return str(error)


def multiplexed_outcome(runs, **options):
    try:
        return run_multiplexed(runs, **options)
    except SimulationError as error:
        return str(error)


def assert_same_run(got, oracle):
    """Every result field, degraded accounting included, is ``==``."""
    assert_identical(got, oracle)
    assert dataclasses.asdict(got) == dataclasses.asdict(oracle)


def flat_runs(lanes):
    return [
        (ClusterSimulator(cluster, switch=SMC_GS5_SWITCH, record_intervals=False), jobs)
        for cluster, jobs in lanes
    ]


@settings(max_examples=60, deadline=None)
@given(faulted_lanes, fault_schedules(), st.sampled_from(FAILURE_POLICIES))
def test_faulted_batch_matches_serial(lanes, faults, failure_policy):
    """Lanes of different sizes share one schedule; each lane equals its
    serial faulted run field by field, or the batch raises a lane's
    serial message."""
    runs = flat_runs(lanes)
    options = {"faults": faults, "failure_policy": failure_policy}
    oracles = [serial_outcome(sim, jobs, **options) for sim, jobs in runs]
    got = multiplexed_outcome(runs, **options)
    errors = [oracle for oracle in oracles if isinstance(oracle, str)]
    if errors:
        assert got in errors
        return
    for result, oracle in zip(got, oracles):
        assert_same_run(result, oracle)


@settings(max_examples=30, deadline=None)
@given(faulted_lanes, fault_schedules(), carbon_curves)
def test_faulted_carbon_matches_interval_pricing(lanes, faults, curve):
    """Down and booting nodes' watts reach the carbon curve exactly as
    they reach the serial run's recorded intervals."""
    runs = flat_runs(lanes)
    options = {"faults": faults, "failure_policy": FAILURE_POLICIES[0]}
    oracles = [serial_outcome(sim, jobs, **options) for sim, jobs in runs]
    if any(isinstance(oracle, str) for oracle in oracles):
        return  # error lanes have their own tests
    model = CostModel(carbon_g_per_kwh=curve)
    got = run_multiplexed(runs, carbon_curve=curve, **options)
    for (cluster, jobs), result, oracle in zip(lanes, got, oracles):
        recorded = ClusterSimulator(
            cluster, switch=SMC_GS5_SWITCH, record_intervals=True
        ).run(jobs, **options)
        assert result.carbon_g == model.carbon_g_timed(recorded.intervals)
        result.carbon_g = None
        assert_same_run(result, oracle)


@settings(max_examples=25, deadline=None)
@given(st.lists(faulted_lane(), min_size=2, max_size=4), fault_schedules())
def test_faulted_batch_composition_independence(lanes, faults):
    options = {"faults": faults, "failure_policy": FAILURE_POLICIES[0]}
    together = multiplexed_outcome(flat_runs(lanes), **options)
    if isinstance(together, str):
        return
    split = len(lanes) // 2
    apart = run_multiplexed(flat_runs(lanes[:split]), **options) + run_multiplexed(
        flat_runs(lanes[split:]), **options
    )
    for got, ref in zip(together, apart):
        assert_same_run(got, ref)


def _scan_jobs(num_nodes, count, spacing):
    """``count`` one-phase scans over every node, ``spacing`` s apart."""
    phase = Phase(
        "scan",
        tuple(
            FlowSpec(f"scan{node}", 100.0, {cpu(node): 1.0, disk(node): 1.0})
            for node in range(num_nodes)
        ),
    )
    return [
        Job(name=f"q{i}", phases=(phase,), start_time_s=i * spacing)
        for i in range(count)
    ]


def test_coverage_loss_raises_the_serial_message():
    """Replication factor 1 strands a partition on the first crash."""
    cluster = ClusterSpec.homogeneous(BEEFY, 3)
    jobs = _scan_jobs(3, 3, 1.0)
    layout = ReplicatedLayout(num_nodes=3, num_partitions=6, replication_factor=1)
    faults = FaultSchedule(events=(NodeCrash(node=4, at_s=0.2, recover_at_s=1.0),))
    sim = ClusterSimulator(cluster, record_intervals=False)
    with pytest.raises(SimulationError, match="replica coverage lost") as serial:
        sim.run(jobs, faults=faults, layout=layout)
    with pytest.raises(SimulationError) as batch:
        run_multiplexed([(sim, jobs)], faults=faults, layouts=[layout])
    assert str(batch.value) == str(serial.value)
    # a layout that survives the crash rides the loop like any other run
    safe = ReplicatedLayout(num_nodes=3, num_partitions=6, replication_factor=2)
    assert_same_run(
        run_multiplexed([(sim, jobs)], faults=faults, layouts=[safe])[0],
        sim.run(jobs, faults=faults, layout=safe),
    )


def test_every_job_dropped_raises_the_serial_message():
    """A fail-stop crash under the drop policy kills the only in-flight
    job and strands every later one."""
    cluster = ClusterSpec.homogeneous(BEEFY, 2)
    jobs = _scan_jobs(2, 3, 0.5)
    faults = FaultSchedule(events=(NodeCrash(node=1, at_s=0.1),))
    sim = ClusterSimulator(cluster, record_intervals=False)
    options = {"faults": faults, "failure_policy": FailurePolicy.drop()}
    with pytest.raises(SimulationError, match="no job survived") as serial:
        sim.run(jobs, **options)
    with pytest.raises(SimulationError) as batch:
        run_multiplexed([(sim, jobs)], **options)
    assert str(batch.value) == str(serial.value)


def test_faults_need_interval_free_runs():
    cluster = ClusterSpec.homogeneous(BEEFY, 2)
    faults = FaultSchedule(events=(NodeCrash(node=1, at_s=0.1, recover_at_s=0.5),))
    with pytest.raises(ConfigurationError, match="interval-free"):
        run_multiplexed(
            [(ClusterSimulator(cluster, record_intervals=True), _scan_jobs(2, 1, 0.0))],
            faults=faults,
        )


def test_serial_pins_replay_through_the_loop():
    """Every pinned faulted scenario, replayed through ``run_multiplexed``,
    equals the fixture recorded from the serial loop — a check that does
    not rely on today's serial loop agreeing."""
    from tests.simulator import test_serial_pins as pins

    fixture = json.loads(pins.FIXTURE.read_text())
    rng = random.Random(pins.SEED)
    for i in range(pins.SCENARIOS):
        cluster, switch, jobs, faults = pins.scenario(rng)
        sim = ClusterSimulator(cluster, switch=switch, record_intervals=False)
        try:
            pin = pins._pin(
                run_multiplexed([(sim, jobs)], faults=faults, failure_policy=pins.RETRY)[0]
            )
        except SimulationError as error:
            pin = {"error": str(error)}
        key = f"s{i}/faults/plain"
        assert json.loads(json.dumps(pin)) == fixture[key], key
