"""The fluid cluster simulator."""

import pytest

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
from repro.policy import PowerGatePolicy
from repro.simulator import engine
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.multiplex import run_multiplexed
from repro.simulator.network import SwitchModel
from repro.simulator.resources import cpu, disk, nic_in, nic_out
from repro.simulator.trace import energy_from_intervals, power_function, utilization_series
from repro.telemetry import capture

NODE = NodeSpec(
    name="n",
    cpu_bandwidth_mbps=1000.0,
    memory_mb=8000.0,
    disk_bandwidth_mbps=200.0,
    nic_bandwidth_mbps=100.0,
    power_model=PowerLawModel(50.0, 0.25),
    engine_base_utilization=0.0,
)


def cluster(n=2):
    return ClusterSpec.homogeneous(NODE, n)


def single_flow_job(volume=400.0, demands=None, name="job"):
    demands = demands or {disk(0): 1.0, cpu(0): 1.0}
    return Job(
        name=name,
        phases=(Phase(name="p", flows=(FlowSpec("f", volume, demands),)),),
    )


class TestTiming:
    def test_disk_bound_single_flow(self):
        sim = ClusterSimulator(cluster(1))
        result = sim.run([single_flow_job(volume=400.0)])
        # disk 200 MB/s is the bottleneck (cpu 1000): 2 s
        assert result.makespan_s == pytest.approx(2.0)
        assert result.response_time_s("job") == pytest.approx(2.0)

    def test_cpu_bound_when_disk_fast(self):
        fast_disk = NODE.with_overrides(disk_bandwidth_mbps=5000.0)
        sim = ClusterSimulator(ClusterSpec.homogeneous(fast_disk, 1))
        result = sim.run([single_flow_job(volume=2000.0)])
        assert result.makespan_s == pytest.approx(2.0)  # cpu 1000 MB/s

    def test_two_phases_are_sequential(self):
        job = Job(
            name="j",
            phases=(
                Phase("a", (FlowSpec("f1", 200.0, {disk(0): 1.0}),)),
                Phase("b", (FlowSpec("f2", 400.0, {disk(0): 1.0}),)),
            ),
        )
        result = ClusterSimulator(cluster(1)).run([job])
        assert result.makespan_s == pytest.approx(1.0 + 2.0)

    def test_phase_barrier_waits_for_slowest_flow(self):
        job = Job(
            name="j",
            phases=(
                Phase(
                    "a",
                    (
                        FlowSpec("fast", 100.0, {disk(0): 1.0}),
                        FlowSpec("slow", 400.0, {disk(1): 1.0}),
                    ),
                ),
                Phase("b", (FlowSpec("next", 200.0, {disk(0): 1.0}),)),
            ),
        )
        result = ClusterSimulator(cluster(2)).run([job])
        # phase a: max(0.5, 2.0) = 2.0; phase b: 1.0
        assert result.makespan_s == pytest.approx(3.0)

    def test_concurrent_jobs_share_resources(self):
        jobs = [
            single_flow_job(volume=200.0, name="a"),
            single_flow_job(volume=200.0, name="b"),
        ]
        result = ClusterSimulator(cluster(1)).run(jobs)
        # both share disk 200: each runs at 100 MB/s -> both end at 2 s
        assert result.makespan_s == pytest.approx(2.0)
        assert result.response_time_s("a") == pytest.approx(2.0)

    def test_unequal_concurrent_jobs(self):
        jobs = [
            single_flow_job(volume=100.0, name="small"),
            single_flow_job(volume=300.0, name="big"),
        ]
        result = ClusterSimulator(cluster(1)).run(jobs)
        # share until small finishes at t=1 (100 each); big has 200 left
        # at full rate 200 -> 1 more second
        assert result.response_time_s("small") == pytest.approx(1.0)
        assert result.response_time_s("big") == pytest.approx(2.0)

    def test_delayed_job_start(self):
        late = Job(
            name="late",
            phases=(Phase("p", (FlowSpec("f", 200.0, {disk(0): 1.0}),)),),
            start_time_s=5.0,
        )
        result = ClusterSimulator(cluster(1)).run([late])
        assert result.job_start_s["late"] == pytest.approx(5.0)
        assert result.makespan_s == pytest.approx(6.0)
        assert result.response_time_s("late") == pytest.approx(1.0)

    def test_network_flow_timing(self):
        # shuffle-like: 0.5 of the scanned bytes leave over nic_out
        job = single_flow_job(
            volume=400.0,
            demands={cpu(0): 1.0, nic_out(0): 0.5, nic_in(1): 0.5},
        )
        result = ClusterSimulator(cluster(2)).run([job])
        # nic 100 caps rate at 200 (0.5 coef); cpu 1000 not binding
        assert result.makespan_s == pytest.approx(2.0)


class TestEnergy:
    def test_energy_matches_power_model(self):
        sim = ClusterSimulator(cluster(1))
        result = sim.run([single_flow_job(volume=400.0)])
        util = NODE.utilization(200.0)  # disk-bound rate
        expected = NODE.power_model.power(util) * 2.0
        assert result.energy_j == pytest.approx(expected)

    def test_idle_node_still_draws_power(self):
        sim = ClusterSimulator(cluster(2))
        result = sim.run([single_flow_job(volume=400.0)])  # touches node 0 only
        idle_energy = NODE.power_model.power(NODE.utilization(0.0)) * 2.0
        assert result.node_energy_j[1] == pytest.approx(idle_energy)

    def test_node_energy_sums_to_total(self):
        result = ClusterSimulator(cluster(3)).run([single_flow_job()])
        assert sum(result.node_energy_j) == pytest.approx(result.energy_j)

    def test_average_power(self):
        result = ClusterSimulator(cluster(1)).run([single_flow_job()])
        assert result.average_power_w == pytest.approx(result.energy_j / result.makespan_s)

    def test_intervals_energy_consistent(self):
        result = ClusterSimulator(cluster(2)).run([single_flow_job()])
        assert energy_from_intervals(result.intervals) == pytest.approx(result.energy_j)

    def test_record_intervals_can_be_disabled(self):
        sim = ClusterSimulator(cluster(1), record_intervals=False)
        result = sim.run([single_flow_job()])
        assert result.intervals == []
        assert result.energy_j > 0


class TestSwitchContention:
    def test_interference_slows_network_flows(self):
        demands = {cpu(0): 1.0, nic_out(0): 1.0, nic_in(1): 1.0}
        job2 = Job(
            name="j2",
            phases=(
                Phase(
                    "p",
                    (
                        FlowSpec("f0", 100.0, demands),
                        FlowSpec(
                            "f1", 100.0, {cpu(1): 1.0, nic_out(1): 1.0, nic_in(0): 1.0}
                        ),
                    ),
                ),
            ),
        )
        ideal = ClusterSimulator(cluster(2)).run([job2])
        contended = ClusterSimulator(
            cluster(2), switch=SwitchModel(per_flow_interference=0.10)
        ).run([job2])
        assert contended.makespan_s > ideal.makespan_s
        assert contended.makespan_s == pytest.approx(ideal.makespan_s * 1.10)

    def test_interference_ignores_local_flows(self):
        local = single_flow_job()  # no nic demands
        ideal = ClusterSimulator(cluster(1)).run([local])
        contended = ClusterSimulator(
            cluster(1), switch=SwitchModel(per_flow_interference=0.5)
        ).run([local])
        assert contended.makespan_s == pytest.approx(ideal.makespan_s)


#: both entry points that validate a job list: the serial loop and one
#: lane of the multiplexed loop
RUNNERS = (
    lambda sim, jobs: sim.run(jobs),
    lambda sim, jobs: run_multiplexed([(sim, jobs)]),
)


class TestErrorsAndEdges:
    def test_no_jobs(self):
        for run in RUNNERS:
            with pytest.raises(SimulationError, match="no jobs"):
                run(ClusterSimulator(cluster(1)), [])

    def test_duplicate_job_names(self):
        for run in RUNNERS:
            with pytest.raises(SimulationError, match="duplicate"):
                run(ClusterSimulator(cluster(1)), [single_flow_job(), single_flow_job()])

    def test_unknown_resource_in_flow(self):
        # The bad job follows a valid one and a replay sharing its phases,
        # so a check that skips repeated phases must still reach it.
        good = single_flow_job(name="good")
        bad = single_flow_job(demands={"disk:99": 1.0}, name="bad")
        again = Job(name="again", phases=good.phases)
        for run in RUNNERS:
            with pytest.raises(
                SimulationError, match="job 'bad' flow 'f' references unknown resource"
            ):
                run(ClusterSimulator(cluster(1)), [good, again, bad])

    def test_zero_volume_phase_completes_instantly(self):
        job = Job(
            name="j",
            phases=(
                Phase("empty", (FlowSpec("f", 0.0, {}),)),
                Phase("real", (FlowSpec("g", 200.0, {disk(0): 1.0}),)),
            ),
        )
        result = ClusterSimulator(cluster(1)).run([job])
        assert result.makespan_s == pytest.approx(1.0)

    def test_all_empty_job_completes_at_start(self):
        job = Job(name="j", phases=(Phase("empty", (FlowSpec("f", 0.0, {}),)),))
        result = ClusterSimulator(cluster(1)).run([job])
        assert result.response_time_s("j") == 0.0

    def test_unknown_job_response_time(self):
        result = ClusterSimulator(cluster(1)).run([single_flow_job()])
        with pytest.raises(SimulationError):
            result.response_time_s("nope")


class TestTrace:
    def test_power_function_steps(self):
        result = ClusterSimulator(cluster(1)).run([single_flow_job()])
        power = power_function(result)
        assert power(0.5) == pytest.approx(result.intervals[0].cluster_power_w)

    def test_power_function_before_start(self):
        result = ClusterSimulator(cluster(1)).run([single_flow_job()])
        with pytest.raises(SimulationError):
            power_function(result)(-1.0)

    def test_utilization_series(self):
        result = ClusterSimulator(cluster(1)).run([single_flow_job()])
        series = utilization_series(result, 0)
        assert len(series) == len(result.intervals)
        assert series[0][1] == pytest.approx(NODE.utilization(200.0))

    def test_mean_utilization(self):
        result = ClusterSimulator(cluster(1)).run([single_flow_job()])
        assert result.mean_utilization(0) == pytest.approx(NODE.utilization(200.0))


class TestRegressions:
    def test_early_admission_does_not_backdate_job_start(self):
        """A job admitted within the completion epsilon of its arrival must
        record its true arrival time, not the (earlier) event time —
        otherwise its queueing delay goes negative."""
        # 200 MB on a 200 MB/s disk: the first event lands at exactly 1.0 s,
        # within epsilon of the second job's arrival
        late = 1.0 + 5e-10
        rider = Job(
            name="rider",
            phases=(Phase("p", (FlowSpec("f2", 100.0, {disk(0): 1.0}),)),),
            start_time_s=late,
        )
        result = ClusterSimulator(cluster(1)).run(
            [single_flow_job(volume=200.0, name="first"), rider]
        )
        assert result.job_start_s["rider"] == late
        assert result.job_start_s["rider"] - rider.start_time_s >= 0.0

    def test_queueing_delay_never_negative(self):
        jobs = [
            Job(
                name=f"j{i}",
                phases=(
                    Phase("p", (FlowSpec(f"f{i}", 150.0, {disk(0): 1.0}),)),
                ),
                start_time_s=start,
            )
            for i, start in enumerate([0.0, 0.3, 0.7, 0.7, 2.5])
        ]
        result = ClusterSimulator(cluster(1)).run(jobs)
        for job in jobs:
            assert result.job_start_s[job.name] >= job.start_time_s

    def test_power_at_requires_intervals(self):
        sim = ClusterSimulator(cluster(1), record_intervals=False)
        result = sim.run([single_flow_job()])
        with pytest.raises(SimulationError, match="record_intervals"):
            result.power_at(0.5)

    def test_mean_utilization_requires_intervals(self):
        sim = ClusterSimulator(cluster(1), record_intervals=False)
        result = sim.run([single_flow_job()])
        with pytest.raises(SimulationError, match="record_intervals"):
            result.mean_utilization(0)


QUICK = PowerStateModel(shutdown_s=0.1, boot_s=0.2)


def counted_allocator(monkeypatch) -> list:
    """Count the serial loop's calls into the max-min allocator."""
    calls = []
    allocate = engine.max_min_fair_allocation

    def counting(*args, **kwargs):
        calls.append(1)
        return allocate(*args, **kwargs)

    monkeypatch.setattr(engine, "max_min_fair_allocation", counting)
    return calls


def faulted_trace():
    """Twelve staggered replays of three query templates over a crash, a
    straggler and a degraded network: compositions that recur."""
    def template(n):
        scan = FlowSpec(f"s{n}", 120.0 + 40 * n, {disk(n): 1.0, cpu(n): 1.0})
        ship = FlowSpec(
            f"x{n}", 40.0, {cpu(n): 0.1, nic_out(n): 1.0, nic_in((n + 1) % 3): 1.0}
        )
        return (Phase("scan", (scan,)), Phase("ship", (ship,)))

    templates = [template(n) for n in range(3)]
    jobs = [
        Job(name=f"j{i}", phases=templates[i % 3], start_time_s=0.6 * i)
        for i in range(12)
    ]
    faults = FaultSchedule(
        events=(
            NodeCrash(node=1, at_s=0.9, recover_at_s=1.6),
            Straggler(node=2, at_s=0.5, slowdown=0.5, duration_s=2.0),
            NetworkDegrade(factor=0.6, at_s=1.2, duration_s=1.5),
        )
    )
    return jobs, faults


class TestAllocationMemo:
    """The serial loop reuses allocations whose inputs repeat."""

    def test_ticks_during_a_phase_reuse_its_allocation(self, monkeypatch):
        """Long jobs ticked ~100 times a phase, gated between bursts: the
        allocations computed stay far below the ticks that read them."""
        calls = counted_allocator(monkeypatch)
        phase = Phase("scan", (FlowSpec("f", 400.0, {disk(0): 1.0, cpu(0): 1.0}),))
        jobs = [
            Job(name=f"j{i}", phases=(phase,), start_time_s=start)
            for i, start in enumerate((0.0, 1.0, 8.0, 8.5))
        ]
        policy = PowerGatePolicy(node_role="beefy", min_idle_s=1.0, transitions=QUICK)
        with capture() as telemetry:
            ClusterSimulator(cluster(2)).run(jobs, policy=policy, control_interval_s=0.02)
        ticks = telemetry.counter("sim.control.ticks")
        assert telemetry.counter("sim.control.gate_actions") > 0
        assert ticks > 500
        assert 0 < len(calls) < ticks / 10

    def test_capped_memo_changes_no_result(self, monkeypatch):
        """A memo cleared every second entry recomputes more often and
        still returns exactly the default run's result."""
        jobs, faults = faulted_trace()
        retry = FailurePolicy.abort_and_retry(backoff_base_s=0.3, transitions=QUICK)
        sim = ClusterSimulator(cluster(3), switch=SwitchModel(0.05))

        def run():
            with capture() as telemetry:
                result = sim.run(jobs, faults=faults, failure_policy=retry)
            return result, telemetry.counter("sim.allocations")

        default, computed = run()
        monkeypatch.setattr(engine, "_ALLOCATION_MEMO_CAP", 2)
        capped, recomputed = run()
        assert default.retried_jobs > 0
        assert computed > 2
        assert recomputed > computed
        assert capped == default
