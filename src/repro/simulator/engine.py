"""The fluid simulation engine: one serial event loop.

:class:`ClusterSimulator` advances simulated time from event to event.
Between events the rate of every live flow is constant (computed by the
max-min fair allocator), so per-node CPU utilization — and therefore power —
is piecewise constant and energy integrates exactly.

The loop's own events are a job arriving, a flow completing, and a phase
barrier releasing the next phase of a job.  Two optional *event sources*
add their next time to the same horizon:

* **control ticks** — with a dynamic
  :class:`~repro.policy.policies.ControlPolicy` (``run(jobs, policy=...)``)
  the policy observes the cluster every ``control_interval_s`` and may gate
  or wake nodes or step their DVFS factors;
* **the fault timeline** — with a non-empty
  :class:`~repro.faults.schedule.FaultSchedule` (``run(jobs, faults=...)``)
  node crashes and recoveries, straggler and network-degrade windows, and
  the retry queue of crash-killed jobs waiting out their backoff.

A source that is absent contributes nothing to the horizon and costs
nothing per event, so a healthy run takes exactly the steps of the plain
fluid loop.

Every node lives in one state machine: a power state — ``active``
(normal), ``gating``/``waking`` (transitioning: no capacity, near-peak
transition power), ``gated`` (off, by policy or by crash: no capacity,
standby residual power) — times a policy-set DVFS factor and a straggler
fault multiplier.  A job whose flows demand an inactive node is *held* at
arrival until every node it needs is active again, so wake-up and
recovery latency show up in its response time exactly where a production
cluster would pay it.

The state machine and the fault source live in one :class:`NodeStates`
object per run, which both event loops drive: ``run`` for its one run,
and :func:`~repro.simulator.multiplex.run_multiplexed` for each faulted
lane.  The fault rules — crash, recovery, straggler and network-degrade
handlers, the retry heap, held-job admission and shedding, the replica
coverage check, and down-node watts with their energy accounting — are
therefore written once, and the loops differ only in how they store live
flows.

Most events leave the allocation's inputs as they were: a control tick
observes the same live flows the previous step ran, and a trace's
replayed jobs bring back compositions seen earlier in the run.  ``run``
therefore memoizes each allocation outcome — the flows' rates and
binding resources, the per-node CPU rates, and the active nodes'
utilizations and watts — in a dict keyed on exactly what the allocation
reads: the live flows' specs in live order (by identity), the effective
DVFS × straggler factors, and the network fault factor.  The key is
complete because, for the simulator's fixed pool and switch, the
allocation is a pure function of those three: switch efficiency depends
only on how many live flows cross the network, which the specs fix, and
power state, held jobs and time never enter it.  The memo is local to
one ``run`` (identity keys are valid only while that run's jobs are
alive) and is cleared whenever it reaches ``_ALLOCATION_MEMO_CAP``
entries, so a long faulted run cannot grow it without bound.  A hit
returns the very values a fresh allocation would compute, and events,
their order and the order of every sum are unchanged, so results are
bit-identical with or without it.

Both loops memoize.  The multiplexed loop keeps one memo per lane,
keyed on the lane's live template ids and split by capacity state, and
allocates only the lanes that miss (see *Allocation memo* in
:mod:`repro.simulator.multiplex`).  ``sim.allocations`` counts this
loop's computed allocations and ``sim.multiplex.allocations`` that
one's.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SimulationError
from repro.hardware.cluster import ClusterSpec
from repro.simulator.allocation import max_min_fair_allocation
from repro.simulator.jobs import FlowSpec, Job
from repro.simulator.network import IDEAL_SWITCH, SwitchModel
from repro.simulator.resources import CPU, ResourcePool
from repro.telemetry import get_telemetry

__all__ = [
    "ClusterSimulator",
    "NodeStates",
    "SimulationResult",
    "Interval",
    "ACTIVE",
    "GATING",
    "GATED",
    "WAKING",
]

_COMPLETION_EPS = 1e-9

#: entries the per-run allocation memo holds before it is cleared
_ALLOCATION_MEMO_CAP = 1024

#: node power states (re-exported by :mod:`repro.policy.policies`)
ACTIVE = "active"
GATING = "gating"
GATED = "gated"
WAKING = "waking"


@dataclass(frozen=True)
class Interval:
    """One piecewise-constant stretch of the simulation."""

    start_s: float
    end_s: float
    node_utilization: tuple[float, ...]
    node_power_w: tuple[float, ...]
    flow_names: tuple[str, ...]
    #: per-flow binding resource (parallel to ``flow_names``): the saturated
    #: resource that capped each flow during this interval
    flow_bindings: tuple[str, ...] = ()
    #: owning job of each flow (parallel to ``flow_names``)
    flow_jobs: tuple[str, ...] = ()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def cluster_power_w(self) -> float:
        return sum(self.node_power_w)

    @property
    def energy_j(self) -> float:
        return self.cluster_power_w * self.duration_s


@dataclass
class SimulationResult:
    """Outcome of one :meth:`ClusterSimulator.run` call."""

    makespan_s: float
    energy_j: float
    node_energy_j: tuple[float, ...]
    job_start_s: dict[str, float]
    job_completion_s: dict[str, float]
    intervals: list[Interval] = field(repr=False, default_factory=list)
    #: total node-seconds spent gated (0.0 unless a dynamic policy ran)
    gated_node_seconds: float = 0.0
    #: energy saved vs keeping every node active-idle: the integral of
    #: (idle power - actual power) over every non-active node interval —
    #: transition stretches *subtract* (they draw more than idle)
    energy_saved_j: float = 0.0
    #: energy drawn by fault-recovery boot transitions (0.0 without faults)
    recovery_energy_j: float = 0.0
    #: crash-killed jobs re-queued under abort-and-retry, counted per
    #: retry attempt (one job killed twice contributes 2)
    retried_jobs: int = 0
    #: jobs shed under the failure policy: killed past the retry budget,
    #: dropped outright, or stranded by a node that never recovers
    dropped_jobs: int = 0
    #: names of the shed jobs, in the order they were dropped
    dropped_job_names: tuple[str, ...] = ()
    #: fault events whose onset fired before the run completed
    faults_survived: int = 0
    #: grams of CO₂ this run emitted — integrated step by step by the
    #: multiplexed loop when it is given a carbon curve, otherwise stamped
    #: by a cost-model-bearing evaluator (time-of-day curves integrate the
    #: interval trace); ``None`` without either
    carbon_g: float | None = None
    #: dollars this run cost (capex amortization + energy tariff) —
    #: stamped like ``carbon_g``; ``None`` without a cost model
    price_usd: float | None = None

    def response_time_s(self, job_name: str) -> float:
        """Wall-clock duration of one job."""
        try:
            return self.job_completion_s[job_name] - self.job_start_s[job_name]
        except KeyError:
            raise SimulationError(f"unknown job {job_name!r}") from None

    @property
    def average_power_w(self) -> float:
        """Mean cluster power over the whole run."""
        if self.makespan_s <= 0:
            return 0.0
        return self.energy_j / self.makespan_s

    @property
    def performance(self) -> float:
        """The paper's performance metric: inverse of response time."""
        if self.makespan_s <= 0:
            raise SimulationError("zero-makespan run has no performance")
        return 1.0 / self.makespan_s

    def _require_intervals(self, accessor: str) -> None:
        if not self.intervals:
            raise SimulationError(
                f"{accessor} needs the piecewise interval trace, but this "
                "result has none (the simulator ran with "
                "record_intervals=False)"
            )

    def power_at(self, time_s: float) -> float:
        """Cluster power draw at an instant (step function over intervals)."""
        self._require_intervals("power_at")
        for interval in self.intervals:
            if interval.start_s <= time_s < interval.end_s:
                return interval.cluster_power_w
        if time_s >= self.intervals[-1].end_s:
            return self.intervals[-1].cluster_power_w
        raise SimulationError(f"time {time_s} precedes the simulation")

    def mean_utilization(self, node_id: int) -> float:
        """Time-weighted mean CPU utilization of one node."""
        self._require_intervals("mean_utilization")
        total = sum(i.node_utilization[node_id] * i.duration_s for i in self.intervals)
        duration = sum(i.duration_s for i in self.intervals)
        if duration <= 0:
            return 0.0
        return total / duration


class _LiveFlow:
    __slots__ = ("spec", "job_index", "phase_index", "remaining_mb", "job_name")

    def __init__(self, spec: FlowSpec, job_index: int, phase_index: int, job_name: str):
        self.spec = spec
        self.job_index = job_index
        self.phase_index = phase_index
        self.remaining_mb = spec.volume_mb
        self.job_name = job_name

    @property
    def done(self) -> bool:
        return self.remaining_mb <= _COMPLETION_EPS * max(1.0, self.spec.volume_mb)


class NodeStates:
    """One run's node-state machine, fault source and held-job queue.

    The machine is per node: power state × policy DVFS factor × straggler
    multiplier.  ``down`` (nodes not active) and ``until`` (in-flight
    transition -> its end) shadow ``state`` so a loop's guards are O(1),
    and ``effective`` (the DVFS × straggler products) stays ``None`` while
    every factor is 1.0.  ``net_mult`` is the network-degrade factor.

    The fault source is the time-sorted timeline of a
    :class:`~repro.faults.schedule.FaultSchedule` plus the retry heap of
    crash-killed jobs.  A loop calls :meth:`head` at the top of each
    iteration, :meth:`arrive` for each arrival and :meth:`release_held`
    after them, adds :meth:`horizon` to its own, and charges each
    piecewise-constant stretch through :meth:`charge_down`.  The loop
    keeps its live flows itself; a crash reaches them through the two
    callables it passes to :meth:`head`.  ``job_phase`` and
    ``phase_live_count`` are the loop's own per-job lists, shared so that
    killing or dropping a job resets its progress there.

    ``policy_model`` (a dynamic policy's
    :class:`~repro.hardware.powerstate.PowerStateModel`) prices nodes the
    policy gates; without one, only crashes take nodes down.
    ``node_sets`` optionally shares the demanded-node memo between runs
    of one job list.
    """

    __slots__ = (
        "simulator",
        "jobs",
        "job_phase",
        "phase_live_count",
        "num_nodes",
        "state",
        "down",
        "until",
        "factors",
        "fault_mult",
        "effective",
        "net_mult",
        "crashed",
        "recovering",
        "changed",
        "_node_sets",
        "held",
        "dropped",
        "retry_ready",
        "gated_seconds",
        "energy_saved",
        "recovery_energy",
        "survived",
        "retried",
        "gated_w",
        "switching_w",
        "idle_w",
        "timeline",
        "fault_cursor",
        "next_fault_s",
        "fault_model",
        "crashed_w",
        "booting_w",
        "attempts",
        "failure_policy",
        "layout",
        "stragglers",
        "degrades",
    )

    def __init__(
        self,
        simulator: "ClusterSimulator",
        jobs: Sequence[Job],
        job_phase: list,
        phase_live_count: list[int],
        policy_model=None,
        faults=None,
        failure_policy=None,
        layout=None,
        node_sets: dict | None = None,
    ):
        self.simulator = simulator
        self.jobs = jobs
        self.job_phase = job_phase
        self.phase_live_count = phase_live_count
        num_nodes = self.num_nodes = simulator.pool.num_nodes
        specs = [simulator.pool.node_spec(n) for n in range(num_nodes)]
        self.state = [ACTIVE] * num_nodes
        self.down: set[int] = set()  # nodes not active
        self.until: dict[int, float] = {}  # in-flight transition -> its end
        self.factors = [1.0] * num_nodes  # policy-set DVFS
        self.fault_mult = [1.0] * num_nodes  # straggler slowdowns
        self.effective: tuple[float, ...] | None = None
        self.net_mult = 1.0
        self.crashed: dict[int, float] = {}  # node -> recovery time (inf = never)
        self.recovering: set[int] = set()  # crash recoveries still booting
        #: set by every change to state, factors or ``net_mult``; a loop
        #: that mirrors them clears it after syncing
        self.changed = False
        # Trace jobs share phase tuples (template interning), so the
        # demanded-node set is computed once per distinct template.
        self._node_sets: dict[int, frozenset[int]] = (
            {} if node_sets is None else node_sets
        )

        self.held: list[int] = []  # arrived or retried, waiting on inactive nodes
        self.dropped: list[str] = []
        self.retry_ready: list[tuple[float, int]] = []  # (ready time, job) heap
        self.gated_seconds = 0.0
        self.energy_saved = 0.0
        self.recovery_energy = 0.0
        self.survived = 0
        self.retried = 0

        # A down node's watts depend on the node alone, so they are
        # computed once — and only for the source that can take it down.
        if policy_model is not None:
            self.gated_w = [policy_model.gated_power_w(spec) for spec in specs]
            self.switching_w = [
                policy_model.transition_power_fraction * spec.peak_power_w
                for spec in specs
            ]
            self.idle_w = [spec.idle_power_w for spec in specs]
        timeline = self.timeline = simulator._fault_timeline(faults)
        self.fault_cursor = 0
        self.next_fault_s = timeline[0][0] if timeline else math.inf
        if timeline:
            if failure_policy is None:
                from repro.faults.schedule import FailurePolicy

                failure_policy = FailurePolicy()
            fault_model = self.fault_model = failure_policy.transitions
            self.crashed_w = [fault_model.gated_power_w(spec) for spec in specs]
            self.booting_w = [
                fault_model.transition_power_fraction * spec.peak_power_w
                for spec in specs
            ]
            self.attempts = [0] * len(jobs)
        self.failure_policy = failure_policy
        self.layout = layout
        self.stragglers: dict[int, list] = {}
        self.degrades: list = []

    # ---------------------------------------------------------- node states
    def set_state(self, node: int, new: str, end: float = math.inf) -> None:
        self.state[node] = new
        if new == ACTIVE:
            self.down.discard(node)
        else:
            self.down.add(node)
        if end < math.inf:
            self.until[node] = end
        else:
            self.until.pop(node, None)
        self.changed = True

    def rescale(self) -> None:
        scaled = tuple(f * m for f, m in zip(self.factors, self.fault_mult))
        self.effective = scaled if any(s != 1.0 for s in scaled) else None
        self.changed = True

    def needed_nodes(self, index: int) -> frozenset[int]:
        """Every node any phase of job ``index`` demands."""
        job = self.jobs[index]
        nodes = self._node_sets.get(id(job.phases))
        if nodes is None:
            nodes = self._node_sets[id(job.phases)] = self.simulator._job_nodes(job)
        return nodes

    def down_watts(self, node: int) -> float:
        """What a down node draws: the failure model's standby residual
        while crashed, its boot power while recovering, else the policy's
        gated or transition power."""
        if node in self.crashed:
            return self.crashed_w[node]
        if node in self.recovering:
            return self.booting_w[node]
        if self.state[node] == GATED:
            return self.gated_w[node]
        return self.switching_w[node]

    def charge_down(self, dt: float) -> list[tuple[int, float]]:
        """Each down node's watts over a stretch of ``dt`` > 0 seconds, by
        node id, after adding the stretch to the recovery, gated-seconds
        and energy-saved totals."""
        charged = []
        for node in sorted(self.down):
            watts = self.down_watts(node)
            charged.append((node, watts))
            if node in self.crashed:
                continue  # no savings credit: a crash is not a policy decision
            if node in self.recovering:
                self.recovery_energy += watts * dt
                continue
            if self.state[node] == GATED:
                self.gated_seconds += dt
            self.energy_saved += (self.idle_w[node] - watts) * dt
        return charged

    # ------------------------------------------------------------ the source
    def horizon(self) -> float:
        """The earliest of the next fault event, transition end and retry."""
        horizon = self.next_fault_s
        if self.until:
            horizon = min(horizon, min(self.until.values()))
        if self.retry_ready:
            horizon = min(horizon, self.retry_ready[0][0])
        return horizon

    @property
    def pending(self) -> bool:
        """Whether jobs still wait: held, or backing off to retry."""
        return bool(self.held or self.retry_ready)

    def head(self, time_s: float, live_jobs, remove) -> None:
        """Fire what is due at ``time_s``: transition ends, fault events,
        then retries, whose jobs join the held queue.

        ``live_jobs()`` yields the job index of every live flow, and
        ``remove(victims)`` takes the flows of a set of jobs out of the
        loop's live set, keeping the others in order.
        """
        until = self.until
        if until:
            for node in [n for n, end in until.items() if end <= time_s + _COMPLETION_EPS]:
                self.set_state(node, GATED if self.state[node] == GATING else ACTIVE)
                self.recovering.discard(node)
        if self.next_fault_s <= time_s + _COMPLETION_EPS:
            self._apply_due_faults(time_s, live_jobs, remove)
        retry_ready = self.retry_ready
        while retry_ready and retry_ready[0][0] <= time_s + _COMPLETION_EPS:
            self.held.append(heapq.heappop(retry_ready)[1])

    def arrive(self, index: int) -> bool:
        """Whether an arriving job may be admitted now.  While a node is
        down or jobs are held it queues behind the held jobs instead, to
        keep arrival order."""
        if self.down or self.held:
            self.held.append(index)
            return False
        return True

    def release_held(self, admit) -> None:
        """Admit held jobs whose nodes are all active; shed the ones
        stranded by a node that never returns."""
        down = self.down
        crashed = self.crashed
        waiting: list[int] = []
        for index in self.held:
            if not down or self.needed_nodes(index).isdisjoint(down):
                admit(index)
            elif crashed and any(
                crashed.get(n) == math.inf for n in self.needed_nodes(index)
            ):
                self.drop(index)
            else:
                waiting.append(index)
        self.held[:] = waiting

    def drop(self, index: int) -> None:
        self.dropped.append(self.jobs[index].name)
        self.job_phase[index] = None
        self.phase_live_count[index] = 0

    def require_survivor(self, job_completion: dict) -> None:
        if not job_completion:
            raise SimulationError(
                "no job survived the fault schedule: all "
                f"{len(self.dropped)} submitted jobs were dropped"
            )

    def _apply_due_faults(self, time_s: float, live_jobs, remove) -> None:
        timeline = self.timeline
        num_nodes = self.num_nodes
        crashed = self.crashed
        failure_policy = self.failure_policy
        while self.next_fault_s <= time_s + _COMPLETION_EPS:
            _, kind, event = timeline[self.fault_cursor]
            self.fault_cursor += 1
            self.next_fault_s = (
                timeline[self.fault_cursor][0]
                if self.fault_cursor < len(timeline)
                else math.inf
            )
            if kind in ("net-on", "net-off"):
                degrades = self.degrades
                if kind == "net-on":
                    self.survived += 1
                    degrades.append(event)
                elif event in degrades:
                    degrades.remove(event)
                self.net_mult = (
                    math.prod(d.factor for d in degrades) if degrades else 1.0
                )
                self.changed = True
                continue
            node = event.node % num_nodes
            if kind == "crash":
                self.survived += 1
                prior = crashed.get(node)
                crashed[node] = (
                    event.recover_at_s
                    if prior is None
                    else max(prior, event.recover_at_s)
                )
                # Whatever state the node was in, it is off *now*.
                self.set_state(node, GATED)
                self.recovering.discard(node)
                if self.layout is not None:
                    self.layout.require_coverage(
                        [n for n in range(num_nodes) if n not in crashed],
                        context=f"after node {node} crashed at t={time_s:g}s",
                    )
                # Kill every in-flight job that owns the dead node — a
                # running job owns every node any of its phases demands.
                victims = sorted(
                    {j for j in live_jobs() if node in self.needed_nodes(j)}
                )
                if not victims:
                    continue
                remove(set(victims))
                for index in victims:
                    self.phase_live_count[index] = 0
                    self.job_phase[index] = 0  # progress is lost
                    if (
                        failure_policy.retries_enabled
                        and self.attempts[index] < failure_policy.max_retries
                    ):
                        self.attempts[index] += 1
                        self.retried += 1
                        backoff = failure_policy.backoff_delay_s(
                            self.jobs[index].name, self.attempts[index]
                        )
                        heapq.heappush(self.retry_ready, (time_s + backoff, index))
                    else:
                        self.drop(index)
            elif kind == "recover":
                # A later crash may have extended the outage; only the
                # recovery that reaches the scheduled time revives.
                if crashed.get(node, math.inf) <= time_s + _COMPLETION_EPS:
                    del crashed[node]
                    if self.fault_model.boot_s > 0:
                        self.set_state(node, WAKING, time_s + self.fault_model.boot_s)
                        self.recovering.add(node)
                    else:
                        self.set_state(node, ACTIVE)
            else:  # straggle-on / straggle-off
                group = self.stragglers.setdefault(node, [])
                if kind == "straggle-on":
                    self.survived += 1
                    group.append(event)
                elif event in group:
                    group.remove(event)
                self.fault_mult[node] = (
                    math.prod(s.slowdown for s in group) if group else 1.0
                )
                self.rescale()


class ClusterSimulator:
    """Simulates jobs on a cluster, producing time and energy.

    Parameters
    ----------
    cluster:
        The cluster design (node specs determine resource capacities and
        power models).
    switch:
        Network contention model; :data:`~repro.simulator.network.IDEAL_SWITCH`
        by default.
    record_intervals:
        Keep the full piecewise trace on the result (needed by the meter
        experiments; can be disabled for large sweeps).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        switch: SwitchModel = IDEAL_SWITCH,
        record_intervals: bool = True,
    ):
        self.pool = ResourcePool(cluster)
        self.switch = switch
        self.record_intervals = record_intervals

    # ------------------------------------------------------------------ public
    def run(
        self,
        jobs: Sequence[Job],
        max_events: int = 1_000_000,
        policy=None,
        control_interval_s: float = 1.0,
        faults=None,
        failure_policy=None,
        layout=None,
    ) -> SimulationResult:
        """Run ``jobs`` to completion and return timing and energy.

        ``policy`` optionally puts a
        :class:`~repro.policy.policies.ControlPolicy` in charge of node
        power states and per-node DVFS.  A *dynamic* policy adds the
        control-tick source: every ``control_interval_s`` simulated seconds
        (finite and > 0) it observes the cluster and may gate or wake nodes
        or step their DVFS factors.  ``None`` and *static* policies
        (``policy.is_static``) add no source.

        ``faults`` optionally adds a
        :class:`~repro.faults.schedule.FaultSchedule` as the fault source:

        * a :class:`~repro.faults.schedule.NodeCrash` is a *forced gated
          transition with zero notice* — the node drops to the failure
          policy's standby residual instantly, and every in-flight job
          that owns it is killed and re-queued after a backoff or shed per
          ``failure_policy`` (a
          :class:`~repro.faults.schedule.FailurePolicy`, abort-and-retry
          by default); recovery is a priced waking transition whose energy
          lands in ``recovery_energy_j``;
        * a :class:`~repro.faults.schedule.Straggler` multiplies the
          node's DVFS factor (capacity *and* power scale, like thermal
          throttling);
        * a :class:`~repro.faults.schedule.NetworkDegrade` scales the
          network capacities in max-min fair allocation.

        Fault node indices wrap modulo the cluster size (ring semantics,
        matching chained declustering), so one scenario spans designs of
        different sizes.  With a ``layout`` (a
        :class:`~repro.pstore.replication.ReplicatedLayout`), a crash that
        strands every copy of a partition raises
        :class:`~repro.errors.SimulationError` — the candidate is
        infeasible under the scenario; without one, jobs stranded by a
        never-recovering node are dropped and the trace continues.

        An absent source (no dynamic policy; a ``None`` or empty schedule)
        adds nothing to the horizon and no work per event, and a pending
        one splits no step until it fires — so healthy runs take exactly
        the historical steps and stay bit-identical.  A policy that never
        wakes the nodes a held job needs stalls the run into the
        ``max_events`` guard.
        """
        self._validate(jobs)
        dynamic = policy is not None and not policy.is_static
        if dynamic:
            if not (math.isfinite(control_interval_s) and control_interval_s > 0):
                raise SimulationError(
                    "control interval must be finite and > 0, got "
                    f"{control_interval_s}"
                )
            # Imported here, not at module top: repro.policy.policies
            # imports this module (for the node-state names).
            from repro.policy.policies import (
                ClusterState,
                GateNode,
                SetFrequency,
                UngateNode,
            )

            model = policy.power_state_model()
            roles = tuple(self.pool.node_role(n) for n in self.pool.node_ids())

        num_jobs = len(jobs)
        # Arrival order over a cursor: pop(0) on a list is O(n) per
        # admission, which turns long traces quadratic.  The inf sentinel
        # ends every arrival scan.
        order = sorted(range(num_jobs), key=lambda i: jobs[i].start_time_s)
        arrivals = [jobs[i].start_time_s for i in order] + [math.inf]
        cursor = 0
        job_phase = [0] * num_jobs
        phase_live_count = [0] * num_jobs
        job_start: dict[str, float] = {}
        job_completion: dict[str, float] = {}
        live: list[_LiveFlow] = []

        # The node-state machine and the fault source.  Its containers
        # are mutated in place, never rebound, so the loop aliases them.
        nodes = NodeStates(
            self,
            jobs,
            job_phase,
            phase_live_count,
            policy_model=model if dynamic else None,
            faults=faults,
            failure_policy=failure_policy,
            layout=layout,
        )
        num_nodes = nodes.num_nodes
        specs = [self.pool.node_spec(n) for n in range(num_nodes)]
        state = nodes.state
        down = nodes.down
        until = nodes.until
        held = nodes.held
        retry_ready = nodes.retry_ready

        node_energy = [0.0] * num_nodes
        intervals: list[Interval] = []

        def admit(index: int, phase: int = 0) -> None:
            self._advance_job(
                jobs, index, phase, live, phase_live_count, job_phase,
                time_s, job_completion,
            )

        def live_jobs():
            return (flow.job_index for flow in live)

        def remove(victims: set[int]) -> None:
            nonlocal live
            live = [flow for flow in live if flow.job_index not in victims]

        # The allocation memo (see the module docstring): key -> (rates,
        # bindings, per-node CPU rates, utilizations and watts as if every
        # node were active).
        memo: dict[tuple, tuple] = {}
        allocations = 0

        def allocation() -> tuple:
            """The live set's allocation outcome, computed on a memo miss."""
            nonlocal allocations
            effective = nodes.effective
            key = (tuple([id(flow.spec) for flow in live]), effective, nodes.net_mult)
            entry = memo.get(key)
            if entry is not None:
                return entry
            if live:
                allocations += 1
                rates, bindings = self._allocate(live, effective, nodes.net_mult)
            else:
                rates, bindings = [], []
            cpu_rates = self._cpu_rates(live, rates)
            utils = []
            powers = []
            for node_id, spec in enumerate(specs):
                if effective is not None:
                    spec = self._dvfs_spec(node_id, effective[node_id])
                util = spec.utilization(cpu_rates[node_id])
                utils.append(util)
                powers.append(spec.power_model.power(util))
            if len(memo) >= _ALLOCATION_MEMO_CAP:
                memo.clear()
            entry = memo[key] = (rates, bindings, cpu_rates, utils, powers)
            return entry

        def integrate(entry: tuple, dt: float) -> None:
            """Per-state energy over one piecewise-constant stretch."""
            if dt <= 0:
                return
            _, bindings, _, utils, powers = entry
            if down:
                utils = list(utils)
                powers = list(powers)
                for node_id, watts in nodes.charge_down(dt):
                    utils[node_id] = 0.0
                    powers[node_id] = watts
            for node_id, watts in enumerate(powers):
                node_energy[node_id] += watts * dt
            if self.record_intervals:
                intervals.append(
                    Interval(
                        start_s=time_s,
                        end_s=time_s + dt,
                        node_utilization=tuple(utils),
                        node_power_w=tuple(powers),
                        flow_names=tuple(flow.spec.name for flow in live),
                        flow_bindings=tuple(bindings),
                        flow_jobs=tuple(flow.job_name for flow in live),
                    )
                )

        # ------------------------------------------- control-tick source
        next_tick_s = control_interval_s if dynamic else math.inf
        last_busy_s = 0.0
        ticks = 0
        gate_actions = 0
        ungate_actions = 0
        freq_actions = 0

        def control_tick() -> None:
            """The policy observes and acts.

            Invalid actions — gating a node that live flows demand, waking
            a node that is not gated — are dropped: the controller races
            the cluster.  A crashed node can be neither gated (it is not
            active) nor woken (rebooting is the nemesis's call).
            """
            nonlocal next_tick_s, ticks, gate_actions, ungate_actions
            nonlocal freq_actions
            ticks += 1
            cpu_rates = allocation()[2]
            effective = nodes.effective
            loads = tuple(
                min(
                    1.0,
                    cpu_rates[n]
                    / (
                        specs[n].cpu_bandwidth_mbps
                        * (1.0 if effective is None else effective[n])
                    ),
                )
                if state[n] == ACTIVE
                else 0.0
                for n in range(num_nodes)
            )
            snapshot = ClusterState(
                time_s=time_s,
                node_roles=roles,
                node_states=tuple(state),
                node_utilization=loads,
                frequency_factors=tuple(nodes.factors),
                queue_depth=len({flow.job_index for flow in live}) + len(held),
                held_jobs=len(held),
                idle_s=time_s - last_busy_s,
            )
            demanded = None  # built on the first GateNode, its only reader
            stepped = False
            for action in policy.observe(snapshot):
                if isinstance(action, GateNode):
                    node = action.node_id
                    if demanded is None:
                        # A running job owns every node any of its phases
                        # demands — gating one mid-job would strand a
                        # later phase.
                        demanded = frozenset(
                            n
                            for flow in live
                            for n in nodes.needed_nodes(flow.job_index)
                        )
                    if (
                        0 <= node < num_nodes
                        and state[node] == ACTIVE
                        and node not in demanded
                    ):
                        gate_actions += 1
                        if model.shutdown_s > 0:
                            nodes.set_state(node, GATING, time_s + model.shutdown_s)
                        else:
                            nodes.set_state(node, GATED)
                elif isinstance(action, UngateNode):
                    node = action.node_id
                    if (
                        0 <= node < num_nodes
                        and state[node] == GATED
                        and node not in nodes.crashed
                    ):
                        ungate_actions += 1
                        if model.boot_s > 0:
                            nodes.set_state(node, WAKING, time_s + model.boot_s)
                        else:
                            nodes.set_state(node, ACTIVE)
                elif isinstance(action, SetFrequency):
                    if 0 <= action.node_id < num_nodes:
                        freq_actions += 1
                        nodes.factors[action.node_id] = action.frequency_factor
                        stepped = True
                else:
                    raise SimulationError(f"unknown control action: {action!r}")
            if stepped:
                nodes.rescale()
            while next_tick_s <= time_s + _COMPLETION_EPS:
                next_tick_s += control_interval_s

        # ------------------------------------------------------- the loop
        time_s = 0.0
        events = 0
        while cursor < num_jobs or live or held or retry_ready:
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; simulation stalled?"
                )

            # Sources with something due fire; the rest cost one test each.
            if until or retry_ready or nodes.next_fault_s <= time_s + _COMPLETION_EPS:
                nodes.head(time_s, live_jobs, remove)

            # Arrivals.  A job "starts" when it arrives — clamped, because
            # the admission window extends _COMPLETION_EPS past now — so
            # time held waiting for nodes is queueing delay, not erased.
            while arrivals[cursor] <= time_s + _COMPLETION_EPS:
                index = order[cursor]
                cursor += 1
                job_start[jobs[index].name] = max(time_s, jobs[index].start_time_s)
                if nodes.arrive(index):
                    admit(index)
            if held:
                nodes.release_held(admit)

            if live or held:
                last_busy_s = time_s
            if next_tick_s <= time_s + _COMPLETION_EPS:
                control_tick()

            horizon = min(arrivals[cursor], next_tick_s, nodes.horizon())

            if not live:
                if cursor >= num_jobs and not held and not retry_ready:
                    break  # trailing transitions and faults don't extend the run
                if horizon == math.inf:
                    raise SimulationError(
                        "simulation stalled: jobs are waiting on nodes that "
                        "will never become active"
                    )
                # Idle until the next event: the cluster still draws idle
                # power, and ticks still fire (that is when gating happens,
                # and how held jobs get their nodes woken).
                integrate(allocation(), horizon - time_s)
                time_s = max(time_s, horizon)
                continue

            entry = allocation()
            rates = entry[0]
            dt = horizon - time_s
            for flow, rate in zip(live, rates):
                if rate > 0:
                    dt = min(dt, flow.remaining_mb / rate)
            if not math.isfinite(dt) or dt < 0:
                raise SimulationError(
                    "simulation stalled: live flows have zero rate and no "
                    "pending events"
                )

            integrate(entry, dt)
            for flow, rate in zip(live, rates):
                flow.remaining_mb -= rate * dt
            time_s += dt

            # Retire completed flows and release phase barriers.
            finished = [flow for flow in live if flow.done]
            if finished:
                live = [flow for flow in live if not flow.done]
                touched_jobs = set()
                for flow in finished:
                    phase_live_count[flow.job_index] -= 1
                    touched_jobs.add(flow.job_index)
                for index in touched_jobs:
                    if phase_live_count[index] == 0 and job_phase[index] is not None:
                        admit(index, job_phase[index] + 1)

        nodes.require_survivor(job_completion)
        # Hot-loop accounting stays in locals and flushes once per run, so
        # the disabled path costs one attribute check here.
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.count("sim.runs")
            telemetry.count("sim.events", events)
            telemetry.count("sim.allocations", allocations)
            if dynamic:
                telemetry.count("sim.control.ticks", ticks)
                telemetry.count("sim.control.gate_actions", gate_actions)
                telemetry.count("sim.control.ungate_actions", ungate_actions)
                telemetry.count("sim.control.freq_actions", freq_actions)
            if nodes.timeline:
                telemetry.count("sim.faults.onsets", nodes.survived)
                telemetry.count("sim.faults.retried_jobs", nodes.retried)
                telemetry.count("sim.faults.dropped_jobs", len(nodes.dropped))
        return SimulationResult(
            makespan_s=time_s,
            energy_j=sum(node_energy),
            node_energy_j=tuple(node_energy),
            job_start_s=job_start,
            job_completion_s=job_completion,
            intervals=intervals,
            gated_node_seconds=nodes.gated_seconds,
            energy_saved_j=nodes.energy_saved,
            recovery_energy_j=nodes.recovery_energy,
            retried_jobs=nodes.retried,
            dropped_jobs=len(nodes.dropped),
            dropped_job_names=tuple(nodes.dropped),
            faults_survived=nodes.survived,
        )

    @staticmethod
    def _fault_timeline(faults) -> list[tuple[float, str, object]]:
        """Every onset and offset/recovery of ``faults``, time-sorted."""
        events = getattr(faults, "events", ())
        if not events:
            return []
        from repro.faults.schedule import NetworkDegrade, NodeCrash, Straggler

        timeline: list[tuple[float, str, object]] = []
        for event in events:
            if isinstance(event, NodeCrash):
                timeline.append((event.at_s, "crash", event))
                if math.isfinite(event.recover_at_s):
                    timeline.append((event.recover_at_s, "recover", event))
            elif isinstance(event, Straggler):
                timeline.append((event.at_s, "straggle-on", event))
                timeline.append((event.end_s, "straggle-off", event))
            elif isinstance(event, NetworkDegrade):
                timeline.append((event.at_s, "net-on", event))
                timeline.append((event.end_s, "net-off", event))
            else:
                raise SimulationError(f"unknown fault event: {event!r}")
        timeline.sort(key=lambda entry: entry[0])
        return timeline

    def _job_nodes(self, job: Job) -> frozenset[int]:
        """Every node id any flow of ``job`` demands (any resource kind)."""
        return frozenset(
            int(resource.partition(":")[2])
            for phase in job.phases
            for flow in phase.flows
            for resource in flow.demands
        )

    def _dvfs_spec(self, node_id: int, factor: float):
        """The node's spec at a policy-set DVFS factor (memoized).

        The factor composes with whatever DVFS state the candidate baked
        into the spec: linear CPU-bandwidth scaling, cubic dynamic power
        (:func:`~repro.hardware.dvfs.dvfs_variant`).
        """
        if factor == 1.0:
            return self.pool.node_spec(node_id)
        cache = getattr(self, "_dvfs_cache", None)
        if cache is None:
            cache = self._dvfs_cache = {}
        key = (node_id, factor)
        spec = cache.get(key)
        if spec is None:
            from repro.hardware.dvfs import dvfs_variant

            spec = cache[key] = dvfs_variant(self.pool.node_spec(node_id), factor)
        return spec

    # ----------------------------------------------------------------- helpers
    def _validate(self, jobs: Sequence[Job]) -> None:
        """Reject empty or ambiguous job lists and unknown resources.

        Jobs replayed from a trace share one phases tuple per query
        template (:func:`~repro.pstore.simulated.trace_jobs`), so each
        distinct tuple is checked against the pool once — a skipped one
        has already passed, so verdicts and messages are the same as
        checking every job's.
        """
        if not jobs:
            raise SimulationError("no jobs to run")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate job names: {names}")
        seen: set[int] = set()
        for job in jobs:
            if id(job.phases) in seen:
                continue
            seen.add(id(job.phases))
            for phase in job.phases:
                for flow in phase.flows:
                    for resource in flow.demands:
                        if resource not in self.pool:
                            raise SimulationError(
                                f"job {job.name!r} flow {flow.name!r} references "
                                f"unknown resource {resource!r}"
                            )

    def _advance_job(
        self,
        jobs: Sequence[Job],
        job_index: int,
        start_phase: int,
        live: list[_LiveFlow],
        phase_live_count: list[int],
        job_phase: list,
        time_s: float,
        job_completion: dict[str, float],
    ) -> None:
        """Admit phases from ``start_phase`` on, skipping all-empty ones."""
        phase_index = start_phase
        while True:
            if phase_index >= len(jobs[job_index].phases):
                job_completion[jobs[job_index].name] = time_s
                job_phase[job_index] = None
                return
            self._admit_phase(jobs, job_index, phase_index, live, phase_live_count, job_phase)
            if phase_live_count[job_index] > 0:
                return
            phase_index += 1

    def _admit_phase(
        self,
        jobs: Sequence[Job],
        job_index: int,
        phase_index: int,
        live: list[_LiveFlow],
        phase_live_count: list[int],
        job_phase: list,
    ) -> None:
        job_phase[job_index] = phase_index
        count = 0
        for flow in jobs[job_index].phases[phase_index].flows:
            if flow.volume_mb > 0:
                live.append(
                    _LiveFlow(flow, job_index, phase_index, jobs[job_index].name)
                )
                count += 1
        phase_live_count[job_index] = count

    def _allocate(
        self,
        live: Sequence[_LiveFlow],
        factors: Sequence[float] | None = None,
        net_factor: float = 1.0,
    ) -> tuple[list[float], list[str]]:
        capacities = self.pool.capacities()
        if factors is not None:
            # Policy-set DVFS: CPU capacity scales linearly with the factor.
            for node_id, factor in enumerate(factors):
                if factor != 1.0:
                    capacities[f"{CPU}:{node_id}"] *= factor
        network_flows = sum(
            1
            for flow in live
            if any(self.pool.is_network(r) for r in flow.spec.demands)
        )
        # Fault-injected degradation composes with switch contention.
        efficiency = self.switch.efficiency(network_flows) * net_factor
        if efficiency < 1.0:
            for name in capacities:
                if self.pool.is_network(name):
                    capacities[name] *= efficiency
        return max_min_fair_allocation(
            [flow.spec.demands for flow in live], capacities
        )

    def _cpu_rates(
        self, live: Sequence[_LiveFlow], rates: Sequence[float]
    ) -> list[float]:
        """Per-node CPU demand (MB/s) of the live flows at ``rates``."""
        cpu_rates = [0.0] * self.pool.num_nodes
        for flow, rate in zip(live, rates):
            for resource, coef in flow.spec.demands.items():
                kind, _, node = resource.partition(":")
                if kind == CPU:
                    cpu_rates[int(node)] += coef * rate
        return cpu_rates
