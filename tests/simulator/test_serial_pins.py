"""Exact pins of the serial event loop's results.

``ClusterSimulator.run`` is the oracle every parity suite compares
against, so a change to it that moves a single bit would silently move
the reference too.  This module replays seeded scenarios — healthy,
under a gate + DVFS control chain, and under a crash + straggler +
network-degrade schedule with abort-and-retry, each with and without
interval recording — and compares every result field that carries time
or energy against values recorded in ``serial_pins.json``, with ``==``
(JSON round-trips floats exactly).

Regenerate the fixture only on purpose, when a change is *meant* to
move the oracle::

    PYTHONPATH=src python -m tests.simulator.test_serial_pins
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.faults import FaultSchedule, NetworkDegrade, NodeCrash, Straggler
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.hardware.power import PowerLawModel
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.network import SwitchModel
from repro.simulator.resources import cpu, disk, nic_in, nic_out
from tests.simulator.test_engine_properties import CONTROL, NODE, RETRY

FIXTURE = Path(__file__).with_name("serial_pins.json")
SEED = 20240517
SCENARIOS = 24

#: a slower, leaner second node type, so per-node memo keys must tell
#: nodes apart
WIMPY_NODE = NodeSpec(
    name="w",
    cpu_bandwidth_mbps=400.0,
    memory_mb=500.0,
    disk_bandwidth_mbps=120.0,
    nic_bandwidth_mbps=100.0,
    power_model=PowerLawModel(20.0, 0.35),
    engine_base_utilization=0.05,
)
CONTENDED = SwitchModel(per_flow_interference=0.05)


def _flow(rng, name, num_nodes):
    src = rng.randrange(num_nodes)
    kind = rng.choice(("cpu", "disk", "net"))
    volume = rng.uniform(1.0, 500.0)
    if kind == "cpu":
        return FlowSpec(name, volume, {cpu(src): 1.0})
    if kind == "disk":
        return FlowSpec(name, volume, {disk(src): 1.0, cpu(src): 1.0})
    dst = rng.choice([n for n in range(num_nodes) if n != src])
    return FlowSpec(
        name, volume, {cpu(src): 0.1, nic_out(src): 1.0, nic_in(dst): 1.0}
    )


def scenario(rng):
    """2-5 nodes, 1-6 multi-phase jobs; some jobs replay an earlier job's
    phases (shared FlowSpec objects, like trace jobs)."""
    num_nodes = rng.randint(2, 5)
    num_wimpy = rng.randint(0, num_nodes - 1)
    cluster = ClusterSpec.beefy_wimpy(
        NODE, num_nodes - num_wimpy, WIMPY_NODE, num_wimpy
    )
    jobs = []
    for j in range(rng.randint(1, 6)):
        if jobs and rng.random() < 0.4:
            phases = rng.choice(jobs).phases
        else:
            phases = tuple(
                Phase(
                    f"p{p}",
                    tuple(
                        _flow(rng, f"j{j}p{p}f{f}", num_nodes)
                        for f in range(rng.randint(1, 3))
                    ),
                )
                for p in range(rng.randint(1, 3))
            )
        jobs.append(
            Job(name=f"j{j}", phases=phases, start_time_s=rng.uniform(0.0, 5.0))
        )
    crash_at = rng.uniform(0.0, 4.0)
    faults = FaultSchedule(
        events=(
            NodeCrash(
                node=rng.randrange(num_nodes),
                at_s=crash_at,
                recover_at_s=crash_at + rng.uniform(0.1, 3.0),
            ),
            Straggler(
                node=rng.randrange(num_nodes),
                at_s=rng.uniform(0.0, 4.0),
                slowdown=rng.uniform(0.2, 0.9),
                duration_s=rng.uniform(0.1, 5.0),
            ),
            NetworkDegrade(
                factor=rng.uniform(0.2, 0.9),
                at_s=rng.uniform(0.0, 4.0),
                duration_s=rng.uniform(0.1, 5.0),
            ),
        )
    )
    switch = CONTENDED if rng.random() < 0.5 else SwitchModel()
    return cluster, switch, jobs, faults


MODES = ("healthy", "policy", "faults")


def _options(mode, faults):
    if mode == "policy":
        return {"policy": CONTROL, "control_interval_s": 0.25}
    if mode == "faults":
        return {"faults": faults, "failure_policy": RETRY}
    return {}


def _pin(result):
    pin = {
        "makespan_s": result.makespan_s,
        "energy_j": result.energy_j,
        "node_energy_j": list(result.node_energy_j),
        "job_start_s": result.job_start_s,
        "job_completion_s": result.job_completion_s,
        "gated_node_seconds": result.gated_node_seconds,
        "energy_saved_j": result.energy_saved_j,
        "recovery_energy_j": result.recovery_energy_j,
        "retried_jobs": result.retried_jobs,
        "dropped_jobs": result.dropped_jobs,
    }
    if result.intervals:
        # Every interval field (utilizations, powers, bindings) in one pin.
        digest = hashlib.sha256(repr(result.intervals).encode()).hexdigest()
        pin["intervals_sha256"] = digest
    return pin


def replay():
    """Every (scenario, mode, record) run, keyed ``s{i}/{mode}/{record}``."""
    rng = random.Random(SEED)
    pins = {}
    for i in range(SCENARIOS):
        cluster, switch, jobs, faults = scenario(rng)
        for record in (False, True):
            sim = ClusterSimulator(cluster, switch=switch, record_intervals=record)
            for mode in MODES:
                key = f"s{i}/{mode}/{'record' if record else 'plain'}"
                try:
                    pins[key] = _pin(sim.run(jobs, **_options(mode, faults)))
                except SimulationError as error:
                    pins[key] = {"error": str(error)}
    return pins


@pytest.fixture(scope="module")
def replayed():
    return replay()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_run(replayed, pinned):
    assert sorted(replayed) == sorted(pinned)
    assert len(pinned) == SCENARIOS * len(MODES) * 2


@pytest.mark.parametrize("mode", MODES)
def test_results_match_the_pins_exactly(replayed, pinned, mode):
    keys = [key for key in pinned if key.split("/")[1] == mode]
    for key in keys:
        # Through JSON so dict keys and tuples compare like the fixture's.
        assert json.loads(json.dumps(replayed[key])) == pinned[key], key


def test_pins_exercise_every_source(pinned):
    """The fixture is only a guard if its runs gate, DVFS-step and fault."""
    policy = [pin for key, pin in pinned.items() if "/policy/" in key]
    faulted = [pin for key, pin in pinned.items() if "/faults/" in key]
    assert any(pin.get("gated_node_seconds", 0.0) > 0 for pin in policy)
    assert any(pin.get("retried_jobs", 0) > 0 for pin in faulted)
    assert any(pin.get("recovery_energy_j", 0.0) > 0 for pin in faulted)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(replay(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
