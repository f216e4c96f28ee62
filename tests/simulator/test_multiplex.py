"""The multiplexed engine against its oracle: the serial event loop.

:func:`repro.simulator.multiplex.run_multiplexed` promises results
*bit-identical* to running each (simulator, jobs) pair through
``ClusterSimulator.run`` alone — every comparison here is exact ``==``,
never approx.  The generators deliberately cover what the flat fast path
has to get right: mixed beefy/wimpy clusters of different sizes in one
batch, network flows under a lossy switch (efficiency rescaling),
multi-phase jobs (barriers), staggered arrivals (idle gaps and admission
ties), and lanes finishing at different times.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CarbonIntensityCurve, CostModel
from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.hardware.power import IdlePeakModel, PowerLawModel
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
