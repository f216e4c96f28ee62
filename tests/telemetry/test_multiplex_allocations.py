"""``sim.multiplex.allocations``: the lane allocations the flat loop computes.

The multiplexed loop memoizes each lane's rates by its live template
ids, one memo per capacity state, and hands the allocator only the lanes
that miss.  So the counter is the number of distinct (lane, capacity
state, live set) triples a batch runs through, however often replays
bring them back, and the allocator sees fewer flows than the loop steps.
"""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.faults import FaultSchedule, Straggler
from repro.hardware.cluster import ClusterSpec
from repro.simulator import multiplex
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.multiplex import run_multiplexed
from repro.simulator.resources import cpu, disk
from repro.telemetry import capture
from tests.simulator.test_engine import NODE


#: a one-second 200 MB scan per node, disk-bound even with the node's
#: CPU straggling at half speed; replays share its spec objects, which
#: the serial loop's memo keys on
SCAN = [
    (Phase("scan", (FlowSpec(f"scan{node}", 200.0, {disk(node): 1.0, cpu(node): 1.0}),)),)
    for node in range(2)
]
#: one node: the scan replayed four times, never overlapping
SOLO = [Job(name=f"a{i}", phases=SCAN[0], start_time_s=t) for i, t in enumerate((0.0, 1.5, 3.5, 6.0))]
#: two nodes: scans on nodes 0 and 1 half a second apart, so the live set
#: runs through {a}, {a, b}, {b}; the pair is replayed at 3 s and 6 s
PAIR = [
    Job(name=f"{name}{i}", phases=SCAN[node], start_time_s=start + offset)
    for i, start in enumerate((0.0, 3.0, 6.0))
    for name, node, offset in (("a", 0, 0.0), ("b", 1, 0.5))
]
#: node 0 of every lane straggles from 2.8 s to 5 s: the replays at 3 s
#: (pair) and 3.5 s (solo) run under a second capacity state
STRAGGLER = FaultSchedule(events=(Straggler(node=0, at_s=2.8, slowdown=0.5, duration_s=2.2),))


def batch(node=NODE):
    return [
        (ClusterSimulator(ClusterSpec.homogeneous(node, 1), record_intervals=False), SOLO),
        (ClusterSimulator(ClusterSpec.homogeneous(node, 2), record_intervals=False), PAIR),
    ]


@pytest.mark.parametrize(
    "faults, triples",
    # healthy: {a} in the solo lane, {a}, {a, b}, {b} in the pair lane;
    # straggling: each of those again under the second state
    [(None, 1 + 3), (STRAGGLER, 2 + 6)],
    ids=["healthy", "straggler"],
)
def test_counts_each_lane_state_and_live_set_once(monkeypatch, faults, triples):
    """Four solo and nine pair steps with flows compute one allocation
    per distinct triple, as the serial loop's memo (the same key) does,
    and the allocator sees fewer flows than the loop steps."""
    handed = []
    allocate = multiplex.max_min_fair_rates_flat

    def counting(*args):
        handed.append(args[8])  # total_flows
        return allocate(*args)

    monkeypatch.setattr(multiplex, "max_min_fair_rates_flat", counting)
    options = {} if faults is None else {"faults": faults}
    with capture() as telemetry:
        results = run_multiplexed(batch(), **options)
    assert telemetry.counter("sim.multiplex.allocations") == triples
    assert 0 < sum(handed) < telemetry.counter("sim.multiplex.flow_steps")
    serial = 0
    for (sim, jobs), result in zip(batch(), results):
        with capture() as solo:
            assert sim.run(jobs, **options) == result
        serial += solo.counter("sim.allocations")
    assert serial == triples


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
def test_a_failed_lane_reports_nothing():
    """A lane that stalls on its first allocation fails, and only its
    batchmate's allocations are reported."""
    stuck = dataclasses.replace(NODE, disk_bandwidth_mbps=1e-320)
    with capture() as telemetry:
        stalled, finished = run_multiplexed([batch(stuck)[0], batch()[0]])
    assert isinstance(stalled, SimulationError)
    assert not isinstance(finished, SimulationError)
    assert telemetry.counter("sim.multiplex.allocations") == 1
