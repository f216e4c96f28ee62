"""The multiplexed engine against its oracle: the serial event loop.

:func:`repro.simulator.multiplex.run_multiplexed` promises results
*bit-identical* to running each (simulator, jobs) pair through
``ClusterSimulator.run`` alone — every comparison here is exact ``==``,
never approx.  The generators deliberately cover what the flat fast path
has to get right: mixed beefy/wimpy clusters of different sizes in one
batch, network flows under a lossy switch (efficiency rescaling) beside
lanes on an ideal one (the constant capacity blocks every search
evaluator's lanes have), multi-phase jobs (barriers), staggered arrivals
(idle gaps and admission ties), and lanes finishing at different times.
Under a fault schedule the same holds for every degraded field: crashes
with and without recovery, stragglers, network degrades, retries with
jitter, and drops.  Replayed jobs make live sets recur, so the loop's
allocation memo serves them, under one capacity state and under several.
Every run the loop takes is interval-free; a batch holding a run that
records intervals is rejected before any lane is built.
"""

import copy
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
from repro.simulator import multiplex
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.multiplex import run_multiplexed
from repro.simulator.network import IDEAL_SWITCH, SMC_GS5_SWITCH
from repro.simulator.resources import cpu, disk, nic_in, nic_out
from repro.telemetry import capture

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


def oracle_run(cluster, jobs, record, switch=SMC_GS5_SWITCH):
    return ClusterSimulator(cluster, switch=switch, record_intervals=record).run(jobs)


#: a lossy switch, whose lanes' capacity blocks follow their network-flow
#: count, and an ideal one, whose lanes' blocks never change
SWITCHES = (IDEAL_SWITCH, SMC_GS5_SWITCH)


def switches_for(data, lanes) -> list:
    return data.draw(
        st.lists(st.sampled_from(SWITCHES), min_size=len(lanes), max_size=len(lanes))
    )


def flat_runs(lanes, switches=None):
    if switches is None:
        switches = [SMC_GS5_SWITCH] * len(lanes)
    return [
        (ClusterSimulator(cluster, switch=switch, record_intervals=False), jobs)
        for (cluster, jobs), switch in zip(lanes, switches)
    ]


def with_twins(lanes, twins):
    """``lanes`` plus one twin per ``(lane, extra nodes)`` in ``twins``: a
    deep copy of the lane's jobs, whose flows equal the original's by
    value but are distinct objects, replayed on a cluster with more
    wimpy nodes."""
    return lanes + [
        (
            ClusterSpec.beefy_wimpy(
                BEEFY, lanes[i][0].num_beefy, WIMPY, lanes[i][0].num_wimpy + extra
            ),
            copy.deepcopy(lanes[i][1]),
        )
        for i, extra in twins
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(lane_jobs(), min_size=1, max_size=4), st.data())
def test_multiplexed_matches_serial(lanes, data):
    """A whole batch reproduces each lane's solo serial run bit for bit,
    in input order, with lanes of different sizes, lanes on an ideal and
    a lossy switch side by side, and twins: lanes of other job lists and
    node counts whose flows share the batch-global template ids of their
    originals'."""
    lanes = with_twins(
        lanes,
        data.draw(
            st.lists(st.tuples(st.integers(0, len(lanes) - 1), st.integers(1, 2)), max_size=2)
        ),
    )
    switches = switches_for(data, lanes)
    results = run_multiplexed(flat_runs(lanes, switches))
    assert len(results) == len(lanes)
    for (cluster, jobs), switch, got in zip(lanes, switches, results):
        assert_identical(got, oracle_run(cluster, jobs, False, switch))


@settings(max_examples=25, deadline=None)
@given(st.lists(lane_jobs(), min_size=2, max_size=4))
def test_batch_composition_independence(lanes):
    """How lanes are grouped into batches must not change any result."""
    together = run_multiplexed(flat_runs(lanes))
    split = len(lanes) // 2
    apart = run_multiplexed(flat_runs(lanes[:split])) + run_multiplexed(
        flat_runs(lanes[split:])
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


def test_empty_batch():
    assert run_multiplexed([]) == []


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
    """Every lane's result, or the message of the error in its slot."""
    return [
        str(result) if isinstance(result, SimulationError) else result
        for result in run_multiplexed(runs, **options)
    ]


def assert_same_outcome(got, oracle):
    """Equal messages for a lane that raised, equal runs for the rest."""
    if isinstance(oracle, str):
        assert got == oracle
    else:
        assert_same_run(got, oracle)


def assert_same_run(got, oracle):
    """Every result field, degraded accounting included, is ``==``."""
    assert_identical(got, oracle)
    assert dataclasses.asdict(got) == dataclasses.asdict(oracle)


@settings(max_examples=60, deadline=None)
@given(faulted_lanes, fault_schedules(), st.sampled_from(FAILURE_POLICIES), st.data())
def test_faulted_batch_matches_serial(lanes, faults, failure_policy, data):
    """Lanes of different sizes share one schedule, each on an ideal or
    a lossy switch; each lane equals its serial faulted run field by
    field, and a lane whose serial run raises holds that message in its
    slot while its batchmates finish."""
    runs = flat_runs(lanes, switches_for(data, lanes))
    options = {"faults": faults, "failure_policy": failure_policy}
    oracles = [serial_outcome(sim, jobs, **options) for sim, jobs in runs]
    got = multiplexed_outcome(runs, **options)
    assert len(got) == len(oracles)
    for result, oracle in zip(got, oracles):
        assert_same_outcome(result, oracle)


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
    """Grouping faulted lanes differently changes no result and no error
    slot's message."""
    options = {"faults": faults, "failure_policy": FAILURE_POLICIES[0]}
    together = multiplexed_outcome(flat_runs(lanes), **options)
    split = len(lanes) // 2
    apart = multiplexed_outcome(
        flat_runs(lanes[:split]), **options
    ) + multiplexed_outcome(flat_runs(lanes[split:]), **options)
    for got, ref in zip(together, apart):
        assert_same_outcome(got, ref)


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
    """Replication factor 1 strands a partition on the first crash, be it
    mid-job or before the first admission: the lane's slot holds the
    serial run's error, and a batchmate whose layout survives the crash
    finishes as if alone."""
    cluster = ClusterSpec.homogeneous(BEEFY, 3)
    jobs = _scan_jobs(3, 3, 1.0)
    layout = ReplicatedLayout(num_nodes=3, num_partitions=6, replication_factor=1)
    safe = ReplicatedLayout(num_nodes=3, num_partitions=6, replication_factor=2)
    sim = ClusterSimulator(cluster, record_intervals=False)
    for at_s in (0.2, 0.0):
        faults = FaultSchedule(events=(NodeCrash(node=4, at_s=at_s, recover_at_s=1.0),))
        with pytest.raises(SimulationError, match="replica coverage lost") as serial:
            sim.run(jobs, faults=faults, layout=layout)
        lost, survived = run_multiplexed(
            [(sim, jobs), (sim, jobs)], faults=faults, layouts=[layout, safe]
        )
        assert type(lost) is SimulationError
        assert str(lost) == str(serial.value)
        assert_same_run(survived, sim.run(jobs, faults=faults, layout=safe))
        # alone in its batch, too
        assert str(run_multiplexed([(sim, jobs)], faults=faults, layouts=[layout])[0]) == str(
            serial.value
        )


def test_every_job_dropped_raises_the_serial_message():
    """A fail-stop crash under the drop policy kills the only in-flight
    job and strands every later one; a three-node batchmate whose jobs
    never touch the crashed node finishes as if alone."""
    cluster = ClusterSpec.homogeneous(BEEFY, 2)
    jobs = _scan_jobs(2, 3, 0.5)
    faults = FaultSchedule(events=(NodeCrash(node=1, at_s=0.1),))
    sim = ClusterSimulator(cluster, record_intervals=False)
    options = {"faults": faults, "failure_policy": FailurePolicy.drop()}
    with pytest.raises(SimulationError, match="no job survived") as serial:
        sim.run(jobs, **options)
    local = [
        Job(name=f"q{i}", phases=(Phase("p", (FlowSpec("f", 50.0, {cpu(0): 1.0}),)),),
            start_time_s=0.5 * i)
        for i in range(3)
    ]
    mate = ClusterSimulator(ClusterSpec.homogeneous(WIMPY, 3), record_intervals=False)
    dropped, finished = run_multiplexed([(sim, jobs), (mate, local)], **options)
    assert type(dropped) is SimulationError
    assert str(dropped) == str(serial.value)
    assert_same_run(finished, mate.run(local, **options))


def _burst_lanes():
    """36 lanes of 1-4 nodes, three clusters by three job lists per node
    count, every list arriving at the same instants: all 36 admit in the
    same iterations."""
    lanes = []
    for n in (1, 2, 3, 4):
        clusters = (
            ClusterSpec.homogeneous(BEEFY, n),
            ClusterSpec.homogeneous(WIMPY, n),
            ClusterSpec.beefy_wimpy(BEEFY, 1, WIMPY, n - 1) if n > 1
            else ClusterSpec.homogeneous(WIMPY, 1),
        )
        for variant in range(3):
            jobs = []
            for i, start in enumerate((0.0, 0.0, 1.0, 1.0, 2.5)):
                flows = []
                for node in range(n):
                    demands = {cpu(node): 1.0, disk(node): 1.0}
                    if n > 1 and variant == 2:
                        demands[nic_out(node)] = 0.5
                        demands[nic_in((node + 1) % n)] = 0.5
                    flows.append(FlowSpec(f"f{node}", 40.0 * (variant + 1) + i, demands))
                jobs.append(
                    Job(name=f"q{i}", phases=(Phase("p", tuple(flows)),), start_time_s=start)
                )
            lanes += [(cluster, jobs) for cluster in clusters]
    return lanes


@pytest.mark.parametrize(
    "faults",
    [None, FaultSchedule(events=(NodeCrash(node=1, at_s=0.3, recover_at_s=1.2),))],
    ids=["healthy", "crash"],
)
def test_wide_same_instant_admissions_match_serial(faults):
    """Dozens of lanes of mixed sizes and job lists merge their
    admissions in one iteration; each lane equals its serial run."""
    lanes = _burst_lanes()
    assert len(lanes) >= 30
    runs = flat_runs(lanes)
    options = {} if faults is None else {
        "faults": faults, "failure_policy": FAILURE_POLICIES[0]
    }
    oracles = [serial_outcome(sim, jobs, **options) for sim, jobs in runs]
    for got, oracle in zip(multiplexed_outcome(runs, **options), oracles):
        assert_same_outcome(got, oracle)


def test_event_budget_fails_only_the_lane_that_exceeds_it():
    """``max_events`` counts per lane, wherever the lane crosses it (in
    its head or while stepping): the lane whose serial run exceeds it
    holds that error, and its batchmate finishes as if alone."""
    cluster = ClusterSpec.homogeneous(BEEFY, 2)
    busy = _scan_jobs(2, 8, 0.05)
    quiet = _scan_jobs(2, 1, 0.0)
    for max_events in range(2, 20):
        runs = flat_runs([(cluster, busy), (cluster, quiet)])
        oracles = [
            serial_outcome(sim, jobs, max_events=max_events) for sim, jobs in runs
        ]
        got = multiplexed_outcome(runs, max_events=max_events)
        for result, oracle in zip(got, oracles):
            assert_same_outcome(result, oracle)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
def test_a_stalled_lane_fails_alone():
    """A subnormal disk bandwidth gives live flows a rate whose step
    overflows to infinity with nothing pending: the serial run stalls,
    the lane's slot holds that error, and its batchmate finishes."""
    stuck = ClusterSimulator(
        ClusterSpec.homogeneous(dataclasses.replace(BEEFY, disk_bandwidth_mbps=1e-320), 2),
        record_intervals=False,
    )
    healthy = ClusterSimulator(ClusterSpec.homogeneous(BEEFY, 2), record_intervals=False)
    jobs = _scan_jobs(2, 2, 0.5)
    with pytest.raises(SimulationError, match="simulation stalled") as serial:
        stuck.run(jobs)
    stalled, finished = multiplexed_outcome([(stuck, jobs), (healthy, jobs)])
    assert stalled == str(serial.value)
    assert_same_run(finished, healthy.run(jobs))


#: batches holding a recording run (``True``): alone, under a carbon
#: curve, under a fault schedule, and after an interval-free run
REJECTED = {
    "alone": ((True,), {}),
    "carbon": ((True,), {"carbon_curve": CarbonIntensityCurve(slots=(100.0,), period_s=10.0)}),
    "faults": (
        (True,),
        {"faults": FaultSchedule(events=(NodeCrash(node=1, at_s=0.1, recover_at_s=0.5),))},
    ),
    "mixed": ((False, True), {}),
}


@pytest.mark.parametrize("records, options", list(REJECTED.values()), ids=list(REJECTED))
def test_recording_runs_are_rejected(records, options):
    """A batch holding a run that records intervals raises one
    ``ConfigurationError`` that points to the serial loop, whatever else
    the batch holds.  It raises before any lane is built: ahead of the
    job-list check (an empty job list fails it), and with nothing
    reported by the loop."""
    cluster = ClusterSpec.homogeneous(BEEFY, 2)
    for jobs in (_scan_jobs(2, 1, 0.0), []):
        runs = [
            (ClusterSimulator(cluster, record_intervals=record), jobs) for record in records
        ]
        with capture() as telemetry:
            with pytest.raises(
                ConfigurationError, match=r"interval-free.*ClusterSimulator\.run"
            ):
                run_multiplexed(runs, **options)
        assert not [
            name for name in telemetry.counters if name.startswith("sim.multiplex.")
        ]


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
        result = run_multiplexed([(sim, jobs)], faults=faults, failure_policy=pins.RETRY)[0]
        if isinstance(result, SimulationError):
            pin = {"error": str(result)}
        else:
            pin = pins._pin(result)
        key = f"s{i}/faults/plain"
        assert json.loads(json.dumps(pin)) == fixture[key], key


# ------------------------------------------------------ allocation memo
#: a straggler window, then a network degrade, each ending while the
#: replays below go on: live sets run before a window recur inside it
#: (another capacity state) and after it (the first state again)
MEMO_FAULTS = FaultSchedule(
    events=(
        Straggler(node=0, at_s=2.05, slowdown=0.5, duration_s=2.0),
        NetworkDegrade(factor=0.5, at_s=5.05, duration_s=2.0),
    )
)


def _replay_lanes():
    """Lanes of one to three nodes, each replaying one job every 0.45 s
    for 8 s: a scan on every node, then (on two or more nodes) a shuffle
    to each node's neighbour.  Replays overlap, so every lane runs
    through the same live sets again and again."""
    lanes = []
    for cluster in (
        ClusterSpec.homogeneous(BEEFY, 1),
        ClusterSpec.beefy_wimpy(BEEFY, 1, WIMPY, 1),
        ClusterSpec.homogeneous(WIMPY, 3),
    ):
        n = cluster.num_nodes
        phases = [
            Phase(
                "scan",
                tuple(
                    FlowSpec(f"s{node}", 60.0, {cpu(node): 1.0, disk(node): 1.0})
                    for node in range(n)
                ),
            )
        ]
        if n > 1:
            phases.append(
                Phase(
                    "ship",
                    tuple(
                        FlowSpec(
                            f"x{node}",
                            20.0,
                            {cpu(node): 0.1, nic_out(node): 1.0, nic_in((node + 1) % n): 1.0},
                        )
                        for node in range(n)
                    ),
                )
            )
        jobs = [
            Job(name=f"q{i}", phases=tuple(phases), start_time_s=0.45 * i)
            for i in range(18)
        ]
        lanes.append((cluster, jobs))
    return lanes


def _live_sets_by_window(cluster, jobs, switch):
    """The live sets (flow names in live order) of the serial run's
    intervals, by the window of :data:`MEMO_FAULTS` they start in."""
    recorded = ClusterSimulator(cluster, switch=switch, record_intervals=True).run(
        jobs, faults=MEMO_FAULTS, failure_policy=FAILURE_POLICIES[0]
    )
    windows: dict[str, set] = {"none": set(), "straggler": set(), "degrade": set()}
    for interval in recorded.intervals:
        if not interval.flow_names:
            continue
        t = interval.start_s
        window = "straggler" if 2.05 <= t < 4.05 else "degrade" if 5.05 <= t < 7.05 else "none"
        windows[window].add(interval.flow_names)
    return windows


@pytest.mark.parametrize("faults", [None, MEMO_FAULTS], ids=["healthy", "straggler-degrade"])
def test_recurring_live_sets_match_serial_at_any_memo_cap(faults, monkeypatch):
    """Replayed jobs bring live sets back, under one capacity state or,
    with the straggler and the degrade, under several.  Every lane, on
    either switch, equals its serial run, and still does when each memo
    holds only one or two live sets before it is cleared: the loop then
    computes more allocations and returns the same bits."""
    lanes = _replay_lanes()
    switches = [switch for switch in SWITCHES for _ in lanes]
    lanes = lanes * len(SWITCHES)
    if faults is not None:
        # the batch does what it is for: one live set runs inside each
        # window and outside every window
        by_window = [
            _live_sets_by_window(cluster, jobs, switch)
            for (cluster, jobs), switch in zip(lanes, switches)
        ]
        for window in ("straggler", "degrade"):
            assert any(sets["none"] & sets[window] for sets in by_window), window
    options = {} if faults is None else {
        "faults": faults, "failure_policy": FAILURE_POLICIES[0]
    }
    runs = flat_runs(lanes, switches)
    oracles = [sim.run(jobs, **options) for sim, jobs in runs]

    def allocations_and_results():
        with capture() as telemetry:
            results = run_multiplexed(runs, **options)
        return telemetry.counter("sim.multiplex.allocations"), results

    computed, results = allocations_and_results()
    for got, oracle in zip(results, oracles):
        assert_same_run(got, oracle)
    for cap in (1, 2):
        monkeypatch.setattr(multiplex, "_LANE_MEMO_CAP", cap)
        recomputed, capped = allocations_and_results()
        assert recomputed > computed
        for got, oracle in zip(capped, oracles):
            assert_same_run(got, oracle)
