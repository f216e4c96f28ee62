"""Time-scale invariance: double every time and volume input, and every
time and energy output doubles, bit for bit.

A check that needs no second implementation.  Rates follow only demands
and capacities, so scaling every flow volume and every time input by k
scales each step, idle gap, fault window, transition and backoff by k,
and with them every time and energy output; counts, dropped job names
and error messages stay as they are.  With k = 2 the scaling commutes
with float rounding (doubling is exact), so every comparison is ``==``,
on the serial loop and on the multiplexed loop alike: a fault in code
both loops share, which parity between them cannot see, shows here.

The relation is exact only away from the loops' absolute windows:
arrivals, fault events, transition ends and retries fire within
``_COMPLETION_EPS`` (1e-9 s) of a lane's time, and a window does not
scale.  So the drawn scenarios keep their distinct event times (and 0,
where every run starts) more than 1e-6 s apart.  A flow's completion
floor is relative from 1 MB up, and the shared strategies draw volumes
of 1 MB or more.
"""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.faults import NodeCrash
from tests.simulator.test_multiplex import (
    FAILURE_POLICIES,
    carbon_curves,
    fault_schedules,
    faulted_lanes,
    flat_runs,
    lane_jobs,
    multiplexed_outcome,
    serial_outcome,
    switches_for,
)

K = 2.0

#: every time and energy output of a result; the other fields are counts,
#: names, or absent on an interval-free run
SCALED_OUTPUTS = (
    "makespan_s",
    "energy_j",
    "node_energy_j",
    "job_start_s",
    "job_completion_s",
    "gated_node_seconds",
    "energy_saved_j",
    "recovery_energy_j",
    "carbon_g",
)

LOOPS = ("serial", "flat")

lane_lists = st.lists(lane_jobs(), min_size=1, max_size=3)


def scaled_lanes(lanes):
    """``lanes`` with every flow volume and arrival time times ``K``."""
    return [
        (
            cluster,
            [
                dataclasses.replace(
                    job,
                    start_time_s=K * job.start_time_s,
                    phases=tuple(
                        dataclasses.replace(
                            phase,
                            flows=tuple(
                                dataclasses.replace(flow, volume_mb=K * flow.volume_mb)
                                for flow in phase.flows
                            ),
                        )
                        for phase in job.phases
                    ),
                )
                for job in jobs
            ],
        )
        for cluster, jobs in lanes
    ]


def scaled_faults(faults):
    """Every onset, recovery and duration times ``K``."""
    times = ("at_s", "recover_at_s", "duration_s")
    return dataclasses.replace(
        faults,
        events=tuple(
            dataclasses.replace(
                event,
                **{
                    field.name: K * getattr(event, field.name)
                    for field in dataclasses.fields(event)
                    if field.name in times
                },
            )
            for event in faults.events
        ),
    )


def scaled_policy(policy):
    """Backoff base and cap, shutdown and boot times ``K``."""
    return dataclasses.replace(
        policy,
        backoff_base_s=K * policy.backoff_base_s,
        backoff_cap_s=K * policy.backoff_cap_s,
        transitions=dataclasses.replace(
            policy.transitions,
            shutdown_s=K * policy.transitions.shutdown_s,
            boot_s=K * policy.transitions.boot_s,
        ),
    )


def arrivals(lanes) -> list[float]:
    return [job.start_time_s for _, jobs in lanes for job in jobs]


def fault_times(faults, policy) -> list[float]:
    """Every onset, offset, recovery and recovery's boot end."""
    times = []
    for event in faults.events:
        times.append(event.at_s)
        if not isinstance(event, NodeCrash):
            times.append(event.end_s)
        elif math.isfinite(event.recover_at_s):
            times += [event.recover_at_s, event.recover_at_s + policy.transitions.boot_s]
    return times


def separated(times) -> bool:
    """Whether distinct times, 0 among them, lie more than 1e-6 s apart."""
    distinct = sorted({0.0, *times})
    return all(b - a > 1e-6 for a, b in zip(distinct, distinct[1:]))


def doubled(result):
    """``result`` with every time and energy output times ``K``."""

    def scale(value):
        if isinstance(value, tuple):
            return tuple(K * v for v in value)
        if isinstance(value, dict):
            return {key: K * v for key, v in value.items()}
        return None if value is None else K * value

    return dataclasses.replace(
        result, **{name: scale(getattr(result, name)) for name in SCALED_OUTPUTS}
    )


def outcomes(loop, runs, **options) -> list:
    """Every run's result, or the message it raises, on one loop."""
    if loop == "serial":
        return [serial_outcome(sim, jobs, **options) for sim, jobs in runs]
    return multiplexed_outcome(runs, **options)


def assert_doubled(small, big):
    """Run by run: equal messages for a run that raised; otherwise every
    time and energy output doubled and every other field equal, ``==``."""
    assert len(big) == len(small)
    for got, base in zip(big, small):
        if isinstance(base, str):
            assert got == base
        else:
            assert not isinstance(got, str), got
            assert dataclasses.asdict(got) == dataclasses.asdict(doubled(base))


@pytest.mark.parametrize("loop", LOOPS)
@settings(max_examples=40, deadline=None)
@given(lane_lists, st.data())
def test_healthy_runs_double(loop, lanes, data):
    """Lanes of one to four nodes, each on an ideal or a lossy switch."""
    assume(separated(arrivals(lanes)))
    switches = switches_for(data, lanes)
    assert_doubled(
        outcomes(loop, flat_runs(lanes, switches)),
        outcomes(loop, flat_runs(scaled_lanes(lanes), switches)),
    )


@pytest.mark.parametrize(
    "policy", FAILURE_POLICIES, ids=("retry-jitter", "retry-once", "drop")
)
@pytest.mark.parametrize("loop", LOOPS)
@settings(max_examples=40, deadline=None)
@given(faulted_lanes, fault_schedules(), st.data())
def test_faulted_runs_double(loop, policy, lanes, faults, data):
    """Crashes, recoveries, stragglers, degrades, retries and drops: the
    recovery energy doubles too, and retried and dropped jobs, faults
    survived and error messages are unchanged."""
    assume(separated(arrivals(lanes) + fault_times(faults, policy)))
    switches = switches_for(data, lanes)
    assert_doubled(
        outcomes(loop, flat_runs(lanes, switches), faults=faults, failure_policy=policy),
        outcomes(
            loop,
            flat_runs(scaled_lanes(lanes), switches),
            faults=scaled_faults(faults),
            failure_policy=scaled_policy(policy),
        ),
    )


@settings(max_examples=40, deadline=None)
@given(lane_lists, carbon_curves, st.data())
def test_carbon_doubles(lanes, curve, data):
    """The multiplexed loop's grams of CO₂ double when the curve's period
    doubles with the run."""
    assume(separated(arrivals(lanes)))
    switches = switches_for(data, lanes)
    assert_doubled(
        outcomes("flat", flat_runs(lanes, switches), carbon_curve=curve),
        outcomes(
            "flat",
            flat_runs(scaled_lanes(lanes), switches),
            carbon_curve=dataclasses.replace(curve, period_s=K * curve.period_s),
        ),
    )
