"""``sim.allocations``: the allocations the serial loop actually computes.

``ClusterSimulator.run`` memoizes each allocation by the live flows'
specs, the effective DVFS factors and the network factor, and counts
only its misses — so the counter's ratio to ``sim.events`` is the number
of fresh allocations per event.
"""

from repro.hardware.cluster import BEEFY
from repro.hardware.powerstate import PowerStateModel
from repro.policy import PowerGatePolicy
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.resources import cpu, disk
from repro.telemetry import capture
from tests.simulator.test_engine import cluster, counted_allocator


def scan(node: int) -> tuple[Phase, ...]:
    """A one-second 200 MB scan on ``node``."""
    return (Phase("scan", (FlowSpec(f"scan{node}", 200.0, {disk(node): 1.0, cpu(node): 1.0}),)),)


def test_counts_each_distinct_composition_once(monkeypatch):
    """Scans on nodes 0 and 1 overlap for half a second, so the live set
    runs through {a}, {a, b}, {b}.  The policy then gates the idle
    cluster; a late replay of the first scan's query is held, wakes the
    nodes, and runs {a} again — a composition already computed.  Ticks
    every 0.1 s read the allocation of whatever is live: three
    allocations in all, however many events and ticks."""
    calls = counted_allocator(monkeypatch)
    first = scan(0)
    jobs = [
        Job(name="a", phases=first),
        Job(name="b", phases=scan(1), start_time_s=0.5),
        Job(name="replay", phases=first, start_time_s=5.0),
    ]
    policy = PowerGatePolicy(
        node_role=BEEFY,
        min_idle_s=0.5,
        transitions=PowerStateModel(shutdown_s=0.1, boot_s=0.2),
    )
    with capture() as telemetry:
        result = ClusterSimulator(cluster(2)).run(
            jobs, policy=policy, control_interval_s=0.1
        )
    assert telemetry.counter("sim.control.gate_actions") > 0
    assert result.job_start_s["replay"] == 5.0
    assert result.job_completion_s["replay"] > 6.0  # it waited for the wake-up
    assert telemetry.counter("sim.allocations") == 3
    assert len(calls) == 3
    assert telemetry.counter("sim.events") == 62
