"""Event-multiplexed fluid simulation: N independent runs, one loop.

:func:`run_multiplexed` advances many *lanes* — each a full
(:class:`~repro.simulator.engine.ClusterSimulator`, jobs) simulation with
its own cluster — together.  Every global iteration moves each active lane
to its own next event, so the per-event arithmetic that dominates serial
replay (max-min fair allocation, remaining-volume decrements, power/energy
integration) batches into numpy kernels across lanes instead of running
once per lane per event in Python.

Bit-identity contract
---------------------
Each lane's :class:`~repro.simulator.engine.SimulationResult` is
bit-identical to running its simulator's serial ``run()`` alone: the
vectorized kernels perform the same elementwise float64 operations in the
same order as the scalar code (``np.bincount`` accumulates weights in
input order, matching the scalar load-dict accumulation; ``np.clip``
equals the scalar ``clamp``; power-model evaluation stays scalar Python,
where exponentiation is bit-exact), and the per-lane control flow —
admission, idle gaps, phase barriers, flow retirement — replicates the
scalar event loop statement for statement.  The serial engine is the
*oracle*; ``tests/simulator/test_multiplex.py`` property-tests the
equivalence.

Two further consequences of lane independence: results do not depend on
how lanes are grouped into batches (multiplexing ``[a, b, c]`` equals
``[a]`` then ``[b, c]``), and a lane that records intervals can ride the
same entry point (it is routed to a per-lane loop that obtains bottleneck
bindings from the scalar allocator).

Flat state layout
-----------------
Interval-free lanes — the design-search workload — keep *no* per-lane
flow objects at all.  Every live flow of every lane lives in global flat
arrays, lane-contiguous and in the scalar engine's live-list order
(survivors first, admissions appended): per-flow remaining volume,
completion floor, owning lane/job, and per-demand-entry (resource,
coefficient) rows whose resource ids are pre-offset into one global
block-diagonal id space.  One allocator call
(:func:`~repro.simulator.allocation.max_min_fair_rates_flat`), one
per-node CPU-rate ``bincount``, one vectorized utilization pass, and one
retirement gather then serve *all* lanes per iteration; only admissions,
idle gaps, phase barriers, and the (memoized) utilization->watts map
remain scalar, and each touches a handful of lanes or nodes per event.

Lanes that replay the same job list on the same node count share one
*job index*: arrival order, the interned flow templates and their phase
memo, and the entry universe admissions gather from.  Template ids only
index that universe, so sharing it changes no value a lane reads.

Carbon accumulation
-------------------
Given a :class:`~repro.costmodel.carbon.CarbonIntensityCurve`, the flat
loop also prices each lane's power timeline in grams of CO₂, with no
interval recording: every step (phase E) and every idle gap adds
``cluster_power * curve.integral(start, end) / JOULES_PER_KWH`` to the
lane's total.  The result is bit-identical to
:meth:`~repro.costmodel.model.CostModel.carbon_g_timed` over the serial
run's interval trace, because each term repeats that method's arithmetic
on the same operands: cluster power is the lane's node powers added left
to right in node order, one node column at a time (the order
``sum(Interval.node_power_w)`` adds in; ``np.sum`` may add pairwise); a
stretch runs from the lane's time before it to the end the serial loop
computes, ``t + dt`` for a step and ``t + (horizon - t)`` for a gap;
every lane's step goes through one array call of the curve's own
:meth:`~repro.costmodel.carbon.CarbonIntensityCurve.integral`, which
gives each element the scalar call's bits; and terms accumulate from
``0.0`` in time order.  Zero-length stretches integrate to ``0.0`` and
leave the total unchanged.  Without a curve none of this runs.

Fault source
------------
Given a non-empty :class:`~repro.faults.schedule.FaultSchedule`, every
lane carries its own :class:`~repro.simulator.engine.NodeStates` — the
object the serial loop drives — so crashes, recoveries, stragglers,
network degrades, the retry heap, held jobs and the coverage check run
the serial code itself, node indices wrapping per lane.  The flat loop
adds only what its storage needs:

* a per-lane *horizon*, the earliest of the next arrival, fault event,
  transition end and retry, which caps phase E's step and decides when a
  lane's head (phase A) runs; a lane stays alive while arrivals, live
  flows, held jobs or retries remain;
* a crash's victims leave the global arrays through the same
  order-preserving gather that retires finished flows (pending
  admissions are filtered in place);
* after a head that changed the lane's nodes, the lane's capacity block
  is rebuilt in the serial allocator's order (CPU × the effective DVFS ×
  straggler factor, then network × switch efficiency × the degrade
  factor), a straggled node's utilization and watts come from its DVFS
  variant's bandwidth and power model, and a down node's watts are
  pinned to what the state machine says it draws;
* recovery energy is charged through the state machine stretch by
  stretch, steps and idle gaps alike.

Without a schedule no lane carries a state machine, each lane's horizon
is its next arrival, and the loop does no per-iteration fault work.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.costmodel.carbon import CarbonIntensityCurve
from repro.costmodel.model import JOULES_PER_KWH
from repro.errors import ConfigurationError, SimulationError
from repro.hardware.power import MIN_UTILIZATION
from repro.simulator.allocation import (
    _EPSILON,
    max_min_fair_allocation,
    max_min_fair_rates_flat,
)
from repro.simulator.engine import (
    _COMPLETION_EPS,
    ClusterSimulator,
    Interval,
    NodeStates,
    SimulationResult,
)
from repro.simulator.jobs import FlowSpec, Job
from repro.simulator.resources import CPU, DISK, NETWORK_KINDS, NIC_IN, NIC_OUT
from repro.telemetry import get_telemetry

__all__ = ["run_multiplexed"]

#: local resource id = node_id * 4 + offset — the insertion order of
#: :meth:`~repro.simulator.resources.ResourcePool.capacities`.
_KIND_OFFSET = {CPU: 0, DISK: 1, NIC_IN: 2, NIC_OUT: 3}

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0)
_EMPTY_BOOL = np.zeros(0, dtype=bool)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums with the total appended: segment bounds."""
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class _Template:
    """Precomputed array form of one distinct :class:`FlowSpec`."""

    __slots__ = ("spec", "volume_mb", "floor", "res_idx", "coef", "has_network")

    def __init__(self, spec: FlowSpec):
        self.spec = spec
        self.volume_mb = spec.volume_mb
        self.floor = _COMPLETION_EPS * max(1.0, spec.volume_mb)
        res_idx: list[int] = []
        coef: list[float] = []
        has_network = False
        for resource, c in spec.demands.items():
            kind, _, node = resource.partition(":")
            res_idx.append(int(node) * 4 + _KIND_OFFSET[kind])
            coef.append(c)
            if kind in NETWORK_KINDS:
                has_network = True
        self.res_idx = np.array(res_idx, dtype=np.int64)
        self.coef = np.array(coef)
        self.has_network = has_network


class _State:
    """Memoized allocation outcome for one live-template composition."""

    __slots__ = ("rates", "powers", "utils", "bindings")

    def __init__(self, rates, powers, utils, bindings=None):
        self.rates = rates
        self.powers = powers
        self.utils = utils
        self.bindings = bindings


class _JobIndex:
    """What every lane replaying one job list on one node count shares.

    Arrival order and start times, the interned templates and the phase
    memo over them, and the *entry universe*: every template's demand
    entries concatenated, out of which admissions gather their rows
    instead of building per-flow arrays.  The universe is rebuilt only
    when a new template appears (a handful of times per job list).
    """

    __slots__ = (
        "jobs",
        "order",
        "starts",
        "templates",
        "_intern_by_id",
        "_intern_by_value",
        "_phase_memo",
        "_size",
        "res",
        "coef",
        "is_cpu",
        "entry_ranges",
        "entry_counts",
        "volume",
        "floor",
        "has_net",
        "node_sets",
    )

    def __init__(self, jobs: Sequence[Job], template_cache: dict):
        self.jobs = list(jobs)
        self.order = sorted(
            range(len(self.jobs)), key=lambda i: self.jobs[i].start_time_s
        )
        self.starts = [self.jobs[i].start_time_s for i in self.order]
        self.templates: list[_Template] = []
        self._intern_by_id: dict[int, tuple[_Template, int]] = {}
        #: value-keyed template cache, shared across one batch's indexes
        #: (candidates of the same cluster size expand a trace into
        #: value-identical FlowSpecs)
        self._intern_by_value = template_cache
        self._phase_memo: dict[int, tuple[list[int], int]] = {}
        self._size = 0
        #: faulted lanes' demanded-node memo (node ids depend only on the
        #: jobs, and the index is per node count)
        self.node_sets: dict[int, frozenset[int]] = {}

    def _intern(self, spec: FlowSpec) -> tuple[_Template, int]:
        hit = self._intern_by_id.get(id(spec))
        if hit is not None:
            return hit
        value_key = (spec.name, spec.volume_mb, tuple(spec.demands.items()))
        template = self._intern_by_value.get(value_key)
        if template is None:
            template = self._intern_by_value[value_key] = _Template(spec)
        hit = (template, len(self.templates))
        self.templates.append(template)
        self._intern_by_id[id(spec)] = hit
        return hit

    def phase(self, phase) -> tuple[list[int], int]:
        """Template ids of a phase's non-empty flows, and how many of
        them cross the network."""
        memo = self._phase_memo.get(id(phase))
        if memo is None:
            tids: list[int] = []
            net = 0
            for flow in phase.flows:
                if flow.volume_mb > 0:
                    template, tid = self._intern(flow)
                    tids.append(tid)
                    if template.has_network:
                        net += 1
            memo = self._phase_memo[id(phase)] = (tids, net)
        return memo

    def ensure_universe(self) -> None:
        if self._size == len(self.templates):
            return
        self.res = np.concatenate([t.res_idx for t in self.templates])
        self.coef = np.concatenate([t.coef for t in self.templates])
        self.is_cpu = self.res % 4 == _KIND_OFFSET[CPU]
        counts = [t.res_idx.shape[0] for t in self.templates]
        offsets = _offsets(np.array(counts, dtype=np.int64))
        self.entry_ranges = [
            np.arange(offsets[i], offsets[i + 1], dtype=np.int64)
            for i in range(len(counts))
        ]
        self.entry_counts = np.array(counts, dtype=np.int64)
        self.volume = np.array([t.volume_mb for t in self.templates])
        self.floor = np.array([t.floor for t in self.templates])
        self.has_net = np.array(
            [t.has_network for t in self.templates], dtype=bool
        )
        self._size = len(self.templates)


class _Lane:
    """Per-run simulation state, mirroring the scalar engine's locals.

    Interval-free lanes use only the scalar-control-flow half (admission
    order, phase barriers, job bookkeeping) — their flow state lives in
    :func:`_run_flat`'s global arrays.  Recording lanes additionally keep
    per-lane live arrays for the interval path.  A faulted lane carries
    the serial loop's :class:`~repro.simulator.engine.NodeStates` in
    ``nodes``.
    """

    __slots__ = (
        "index",
        "sim",
        "pool",
        "shared",
        "jobs",
        "record",
        "n_nodes",
        "base_caps",
        "net_mask",
        "node_specs",
        "nodes",
        "node_factor",
        "n_live",
        "flow_jobs",
        "killed",
        "cursor",
        "job_phase",
        "phase_live_count",
        "job_start",
        "job_completion",
        "live_tid",
        "live_job",
        "entry_idx",
        "entry_counts",
        "pend_tids",
        "pend_jobs",
        "keep",
        "appended",
        "n_net",
        "events",
        "intervals",
        "eview",
        "state_memo",
        "power_memo",
        "idle_memo",
        "state",
        "dirty",
    )

    def __init__(self, index: int, simulator: ClusterSimulator, shared: _JobIndex):
        simulator._validate(shared.jobs)
        self.index = index
        self.sim = simulator
        self.pool = simulator.pool
        self.shared = shared
        self.jobs = shared.jobs
        self.record = simulator.record_intervals
        self.n_nodes = self.pool.num_nodes
        self.base_caps = np.array(list(self.pool.capacities().values()))
        net = np.zeros(self.base_caps.shape[0], dtype=bool)
        net[_KIND_OFFSET[NIC_IN] :: 4] = True
        net[_KIND_OFFSET[NIC_OUT] :: 4] = True
        self.net_mask = net
        self.node_specs = [self.pool.node_spec(n) for n in self.pool.node_ids()]
        self.nodes: NodeStates | None = None
        self.cursor = 0
        self.job_phase: list = [0] * len(self.jobs)
        self.phase_live_count = [0] * len(self.jobs)
        self.job_start: dict[str, float] = {}
        self.job_completion: dict[str, float] = {}
        #: flat lanes: this lane's flows in the global arrays, set by the
        #: loop before each head; a faulted head also gets their jobs
        #: (``flow_jobs``) and marks the ones a crash kills (``killed``)
        self.n_live = 0
        self.flow_jobs: np.ndarray | None = None
        self.killed: np.ndarray | None = None
        self.live_tid = _EMPTY_I64
        self.live_job = _EMPTY_I64
        self.entry_idx = _EMPTY_I64
        self.entry_counts = _EMPTY_I64
        #: admissions not yet merged into the live arrays (flushed before
        #: the next allocation)
        self.pend_tids: list[int] = []
        self.pend_jobs: list[int] = []
        #: surviving positions of the last retirement, relative to the
        #: matrix row laid down by the previous rebuild (None = no
        #: retirement since then)
        self.keep: np.ndarray | None = None
        #: template ids appended by the last flush (for row initialisation)
        self.appended: np.ndarray | None = None
        self.n_net = 0
        self.events = 0
        self.intervals: list[Interval] = []
        #: flat lanes: view into the global node-energy array
        self.eview: np.ndarray | None = None
        self.state_memo: dict[bytes, _State] = {}
        self.power_memo: dict = {}
        #: effective factors -> (idle watts array, their sum, as a list)
        self.idle_memo: dict = {}
        self.state: _State | None = None
        self.dirty = True

    def attach_faults(self, faults, failure_policy, layout) -> None:
        """Drive this lane's nodes through the serial loop's state machine."""
        self.nodes = NodeStates(
            self.sim,
            self.jobs,
            self.job_phase,
            self.phase_live_count,
            faults=faults,
            failure_policy=failure_policy,
            layout=layout,
            node_sets=self.shared.node_sets,
        )
        #: the effective factor each node's utilization and power follow
        self.node_factor = [1.0] * self.n_nodes

    # ---------------------------------------------------- scalar control flow
    def _advance_job(self, job_index: int, start_phase: int, t) -> None:
        phase_index = start_phase
        while True:
            if phase_index >= len(self.jobs[job_index].phases):
                self.job_completion[self.jobs[job_index].name] = float(t)
                self.job_phase[job_index] = None
                return
            self._admit_phase(job_index, phase_index)
            if self.phase_live_count[job_index] > 0:
                return
            phase_index += 1

    def _admit_phase(self, job_index: int, phase_index: int) -> None:
        self.job_phase[job_index] = phase_index
        tids, net = self.shared.phase(self.jobs[job_index].phases[phase_index])
        self.pend_tids.extend(tids)
        self.pend_jobs.extend([job_index] * len(tids))
        self.n_net += net
        self.phase_live_count[job_index] = len(tids)
        self.dirty = True

    def has_live(self) -> bool:
        return bool(self.live_tid.size) or bool(self.pend_tids)

    def live_jobs(self) -> list[int]:
        """The job of every live flow, in live order (faulted heads)."""
        jobs = self.flow_jobs
        if self.killed is not None:
            jobs = jobs[~self.killed]
        return jobs.tolist() + self.pend_jobs

    def remove_jobs(self, victims: set[int]) -> None:
        """Kill the flows of ``victims``: global ones are marked for the
        loop's gather, pending admissions leave their lists in order."""
        hit = np.isin(self.flow_jobs, list(victims))
        if self.killed is not None:
            hit &= ~self.killed
        if hit.any():
            self.killed = hit if self.killed is None else self.killed | hit
            self.n_live -= int(np.count_nonzero(hit))
        pending = list(zip(self.pend_tids, self.pend_jobs))
        kept = [(tid, job) for tid, job in pending if job not in victims]
        if len(kept) < len(pending):
            templates = self.shared.templates
            self.n_net -= sum(
                templates[tid].has_network for tid, job in pending if job in victims
            )
            self.pend_tids = [tid for tid, _ in kept]
            self.pend_jobs = [job for _, job in kept]

    def advance_flat(
        self,
        t: float,
        events: int,
        max_events: int,
        idle_gaps: list | None,
    ) -> tuple[float, int, bool]:
        """The scalar loop's head for flat-batch lanes.

        Fault source, admissions, idle gaps, and event counting, mirroring
        the serial engine's per-iteration order; flow state lives in the
        caller's global arrays, so liveness arrives as ``n_live``.
        Returns ``(time, events, alive)`` — ``alive`` False once nothing
        is live, pending, held or due to arrive.  Each idle gap is
        appended to ``idle_gaps`` (when given) as ``(lane index, start,
        end, cluster watts)``, for the caller to price in carbon.
        """
        shared = self.shared
        starts = shared.starts
        n_jobs = len(starts)
        nodes = self.nodes
        while True:
            if (
                not self.n_live
                and not self.pend_tids
                and self.cursor >= n_jobs
                and (nodes is None or not nodes.pending)
            ):
                return t, events, False
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; simulation stalled?"
                )
            if nodes is not None:
                nodes.head(t, self.live_jobs, self.remove_jobs)
            while self.cursor < n_jobs and starts[self.cursor] <= t + _COMPLETION_EPS:
                index = shared.order[self.cursor]
                self.cursor += 1
                job = self.jobs[index]
                self.job_start[job.name] = max(t, job.start_time_s)
                if nodes is None or nodes.arrive(index):
                    self._advance_job(index, 0, t)
            if nodes is not None and nodes.held:
                nodes.release_held(lambda index: self._advance_job(index, 0, t))
            if self.n_live or self.pend_tids:
                return t, events, True
            if self.cursor >= n_jobs and (nodes is None or not nodes.pending):
                return t, events, False  # trailing faults don't extend the run
            horizon = starts[self.cursor] if self.cursor < n_jobs else math.inf
            if nodes is not None:
                horizon = min(horizon, nodes.horizon())
                if horizon == math.inf:
                    raise SimulationError(
                        "simulation stalled: jobs are waiting on nodes that "
                        "will never become active"
                    )
            gap = horizon - t
            if gap > 0:
                powers, watts = self._idle_powers()
                self.eview += powers * gap
                if nodes is not None and nodes.down:
                    nodes.charge_down(gap)
                if idle_gaps is not None:
                    idle_gaps.append((self.index, t, t + gap, watts))
            t = max(t, horizon)

    def advance(self, time_arr, e_matrix, max_events: int) -> bool:
        """The scalar loop's head for recording lanes (matrix path)."""
        lane_id = self.index
        order = self.shared.order
        starts = self.shared.starts
        while True:
            if not self.has_live() and self.cursor >= len(order):
                return False
            self.events += 1
            if self.events > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; simulation stalled?"
                )
            t = time_arr[lane_id]
            while self.cursor < len(order) and starts[self.cursor] <= t + _COMPLETION_EPS:
                index = order[self.cursor]
                self.cursor += 1
                job = self.jobs[index]
                self.job_start[job.name] = max(float(t), job.start_time_s)
                self._advance_job(index, 0, t)
            if self.has_live():
                return True
            if self.cursor < len(order):
                next_start = starts[self.cursor]
                gap = next_start - t
                self._integrate_idle(t, gap, e_matrix)
                time_arr[lane_id] = next_start
                continue
            # no live flows, nothing pending: finished (detected at the top)

    # ------------------------------------------------------------ allocation
    def _idle_state(self) -> _State:
        state = self.state_memo.get(b"")
        if state is None:
            state = self._finish_state(b"", np.zeros(0), bindings=())
        return state

    def _idle_powers(self) -> tuple[np.ndarray, float]:
        """Node watts with no flow live, and their sum node by node.

        Active nodes draw their engine-idle watts (a straggled node its
        DVFS variant's), down nodes what the state machine says: the
        serial loop's allocation of an empty live set, then ``integrate``.
        """
        nodes = self.nodes
        effective = None if nodes is None else nodes.effective
        idle = self.idle_memo.get(effective)
        if idle is None:
            watts = []
            for node, spec in enumerate(self.node_specs):
                if effective is not None:
                    spec = self.sim._dvfs_spec(node, effective[node])
                watts.append(spec.power_model.power(spec.utilization(0.0)))
            idle = self.idle_memo[effective] = (np.array(watts), sum(watts), watts)
        if nodes is None or not nodes.down:
            return idle[0], idle[1]
        watts = list(idle[2])
        for node in nodes.down:
            watts[node] = nodes.down_watts(node)
        return np.array(watts), sum(watts)

    def _integrate_idle(self, t, gap, e_matrix) -> None:
        if gap <= 0:
            return
        state = self._idle_state()
        e_matrix[self.index, : self.n_nodes] += state.powers * gap
        if self.record:
            self.intervals.append(
                Interval(
                    start_s=float(t),
                    end_s=float(t + gap),
                    node_utilization=tuple(state.utils),
                    node_power_w=tuple(state.powers.tolist()),
                    flow_names=(),
                    flow_bindings=(),
                    flow_jobs=(),
                )
            )

    def flush(self) -> None:
        """Merge buffered admissions into the live arrays (append order)."""
        if not self.pend_tids:
            self.appended = None
            return
        shared = self.shared
        shared.ensure_universe()
        new = np.array(self.pend_tids, dtype=np.int64)
        self.live_tid = np.concatenate([self.live_tid, new])
        self.live_job = np.concatenate(
            [self.live_job, np.array(self.pend_jobs, dtype=np.int64)]
        )
        self.entry_idx = np.concatenate(
            [self.entry_idx] + [shared.entry_ranges[t] for t in self.pend_tids]
        )
        self.entry_counts = np.concatenate(
            [self.entry_counts, shared.entry_counts[new]]
        )
        self.appended = new
        self.pend_tids = []
        self.pend_jobs = []

    def state_key(self) -> bytes:
        return self.live_tid.tobytes()

    def allocate_scalar(self) -> _State:
        """Scalar-allocator path (interval-recording lanes need bindings)."""
        capacities = self.pool.capacities()
        efficiency = self.sim.switch.efficiency(self.n_net)
        if efficiency < 1.0:
            for name in capacities:
                if self.pool.is_network(name):
                    capacities[name] *= efficiency
        templates = self.shared.templates
        rates, bindings = max_min_fair_allocation(
            [templates[t].spec.demands for t in self.live_tid.tolist()],
            capacities,
        )
        return self._finish_state(
            self.state_key(), np.array(rates), bindings=bindings
        )

    def _finish_state(self, key: bytes, rates, bindings=None) -> _State:
        """Derive per-node powers from rates, memoize, and return."""
        cpu_rates = self._cpu_rates(rates)
        n = self.n_nodes
        utils = [0.0] * n
        powers = np.empty(n)
        memo = self.power_memo
        specs = self.node_specs
        for node_id, cpu_rate in enumerate(cpu_rates):
            hit = memo.get((node_id, cpu_rate))
            if hit is None:
                spec = specs[node_id]
                util = spec.utilization(cpu_rate)
                watts = spec.power_model.power(util)
                hit = (util, watts)
                memo[(node_id, cpu_rate)] = hit
            utils[node_id] = hit[0]
            powers[node_id] = hit[1]
        state = _State(
            rates=np.asarray(rates),
            powers=powers,
            utils=utils,
            bindings=bindings,
        )
        self.state_memo[key] = state
        return state

    def _cpu_rates(self, rates) -> list[float]:
        """Per-node CPU demand, accumulated in the scalar engine's order
        (flow-major, demand-insertion order within each flow)."""
        idx = self.entry_idx
        if idx.size == 0:
            return [0.0] * self.n_nodes
        shared = self.shared
        mask = shared.is_cpu[idx]
        cpu_idx = idx[mask]
        if cpu_idx.size == 0:
            return [0.0] * self.n_nodes
        rate_rep = np.repeat(np.asarray(rates), self.entry_counts)
        weights = shared.coef[cpu_idx] * rate_rep[mask]
        return np.bincount(
            shared.res[cpu_idx] >> 2, weights=weights, minlength=self.n_nodes
        ).tolist()

    # ------------------------------------------------------------ transitions
    def after_step(self, dt, pre_t, now_t, done_row) -> None:
        """The scalar loop's tail: record the interval, retire finished
        flows, release phase barriers."""
        templates = self.shared.templates
        if self.record and dt > 0:
            state = self.state
            tids = self.live_tid.tolist()
            self.intervals.append(
                Interval(
                    start_s=float(pre_t),
                    end_s=float(pre_t + dt),
                    node_utilization=tuple(state.utils),
                    node_power_w=tuple(state.powers.tolist()),
                    flow_names=tuple(templates[t].spec.name for t in tids),
                    flow_bindings=tuple(state.bindings),
                    flow_jobs=tuple(
                        self.jobs[j].name for j in self.live_job.tolist()
                    ),
                )
            )
        done_k = done_row[: self.live_tid.size]
        if not done_k.any():
            return
        keep = ~done_k
        finished_jobs = self.live_job[done_k].tolist()
        self.n_net -= int(self.shared.has_net[self.live_tid[done_k]].sum())
        self.live_tid = self.live_tid[keep]
        self.live_job = self.live_job[keep]
        self.entry_idx = self.entry_idx[np.repeat(keep, self.entry_counts)]
        self.entry_counts = self.entry_counts[keep]
        self.keep = keep
        self.dirty = True
        for index in finished_jobs:
            self.phase_live_count[index] -= 1
        for index in sorted(set(finished_jobs)):
            if self.phase_live_count[index] == 0 and self.job_phase[index] is not None:
                self._advance_job(index, self.job_phase[index] + 1, now_t)

    def rebuild_row(self, rate_m, rem_m, floor_m, power_m) -> None:
        """Refresh this lane's matrix rows after a live-set change.

        Surviving flows carry their decremented volumes over from the old
        row (gathered by position); appended flows start at their
        template volume."""
        row = self.index
        k = self.live_tid.size
        n_new = 0 if self.appended is None else self.appended.size
        survivors = k - n_new
        if self.keep is not None:
            old_rem = rem_m[row, : self.keep.size][self.keep]
            old_floor = floor_m[row, : self.keep.size][self.keep]
        else:
            old_rem = rem_m[row, :survivors].copy()
            old_floor = floor_m[row, :survivors].copy()
        rem_m[row] = np.inf
        rem_m[row, :survivors] = old_rem
        floor_m[row] = -np.inf
        floor_m[row, :survivors] = old_floor
        if n_new:
            rem_m[row, survivors:k] = self.shared.volume[self.appended]
            floor_m[row, survivors:k] = self.shared.floor[self.appended]
        rate_m[row] = 0.0
        rate_m[row, :k] = self.state.rates
        power_m[row, : self.n_nodes] = self.state.powers
        self.keep = None
        self.appended = None
        self.dirty = False

    def finalize(self, time_arr, e_matrix) -> SimulationResult:
        node_energy = e_matrix[self.index, : self.n_nodes].tolist()
        return SimulationResult(
            makespan_s=float(time_arr[self.index]),
            energy_j=sum(node_energy),
            node_energy_j=tuple(node_energy),
            job_start_s=self.job_start,
            job_completion_s=self.job_completion,
            intervals=self.intervals,
        )


def run_multiplexed(
    runs: Sequence[tuple[ClusterSimulator, Sequence[Job]]],
    max_events: int = 1_000_000,
    carbon_curve: CarbonIntensityCurve | None = None,
    faults=None,
    failure_policy=None,
    layouts: Sequence | None = None,
) -> list[SimulationResult]:
    """Advance every (simulator, jobs) run on one multiplexed event loop.

    Returns one :class:`SimulationResult` per run, in order, each
    bit-identical to ``simulator.run(jobs, max_events=max_events)`` run
    serially (see the module docstring for why).  Raises
    :class:`~repro.errors.SimulationError` as soon as *any* lane would —
    callers needing per-run error isolation should fall back to serial
    replay of the offending runs.

    Interval-free runs take the flat-array fast path; runs whose
    simulator records intervals take a per-lane loop (the scalar
    allocator supplies their bottleneck bindings).  Lane independence
    makes the partition invisible in the results.

    With a ``carbon_curve``, every result also carries ``carbon_g``: the
    run's grams of CO₂ under that curve, integrated inside the loop and
    bit-identical to pricing the serial run's intervals (see *Carbon
    accumulation* above).

    ``faults`` (a :class:`~repro.faults.schedule.FaultSchedule`) injects
    one scenario into every run, each result bit-identical to
    ``simulator.run(jobs, faults=faults, failure_policy=failure_policy,
    layout=layouts[i])``; node indices wrap per run, and ``layouts`` is
    optional and per run (see *Fault source* above).

    Only interval-free runs take a curve or faults: a recording run is
    priced from its intervals instead, and replays faults serially, so
    mixing either with a recording run raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if not runs:
        return []
    recording = any(sim.record_intervals for sim, _ in runs)
    if carbon_curve is not None and recording:
        raise ConfigurationError(
            "carbon_curve is integrated on interval-free runs only; price a "
            "recording run from its intervals (CostModel.carbon_g_timed)"
        )
    faulted = bool(getattr(faults, "events", ()))
    if faulted and recording:
        raise ConfigurationError(
            "faults ride interval-free runs only; replay a recording run "
            "under faults with ClusterSimulator.run"
        )
    if layouts is not None and len(layouts) != len(runs):
        raise ConfigurationError(
            f"layouts must be one per run: {len(layouts)} for {len(runs)} runs"
        )
    template_cache: dict = {}
    indexes: dict[tuple[int, int], _JobIndex] = {}
    flat: list[tuple[int, _Lane]] = []
    recorded: list[tuple[int, _Lane]] = []
    for position, (sim, jobs) in enumerate(runs):
        key = (id(jobs), sim.pool.num_nodes)
        shared = indexes.get(key)
        if shared is None:
            shared = indexes[key] = _JobIndex(jobs, template_cache)
        group = recorded if sim.record_intervals else flat
        lane = _Lane(len(group), sim, shared)
        if faulted:
            lane.attach_faults(
                faults,
                failure_policy,
                None if layouts is None else layouts[position],
            )
        group.append((position, lane))
    results: list[SimulationResult | None] = [None] * len(runs)
    if flat:
        for (position, _), result in zip(
            flat, _run_flat([lane for _, lane in flat], max_events, carbon_curve)
        ):
            results[position] = result
    if recorded:
        for (position, _), result in zip(
            recorded, _run_recorded([lane for _, lane in recorded], max_events)
        ):
            results[position] = result
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.count("sim.multiplex.runs")
        telemetry.count("sim.multiplex.lanes", len(runs))
    return results  # type: ignore[return-value]


def _run_flat(
    lanes: list[_Lane],
    max_events: int,
    carbon_curve: CarbonIntensityCurve | None,
) -> list[SimulationResult]:
    """Flat-array event loop for interval-free lanes.

    All per-flow and per-demand-entry state is global (lane-contiguous,
    scalar live-list order within each lane); every iteration performs a
    fixed number of whole-array operations plus scalar work proportional
    to the handful of lanes admitting jobs, retiring flows or firing
    faults.  A ``carbon_curve`` adds the per-lane carbon totals of the
    module docstring's *Carbon accumulation*; lanes carrying a state
    machine follow its *Fault source*.
    """
    n_lanes = len(lanes)
    n_nodes_arr = np.array([lane.n_nodes for lane in lanes], dtype=np.int64)
    node_off = _offsets(n_nodes_arr)
    total_nodes = int(node_off[-1])
    res_counts = np.array(
        [lane.base_caps.shape[0] for lane in lanes], dtype=np.int64
    )
    res_off = _offsets(res_counts)
    lane_of_res = np.repeat(np.arange(n_lanes), res_counts)
    #: global resource id = lane block offset + node*4 + kind; node id
    #: recovery via ``>> 2`` needs every block offset to be a node multiple
    caps = np.concatenate([lane.base_caps for lane in lanes])
    sat = _EPSILON * np.maximum(1.0, caps)

    node_energy = np.zeros(total_nodes)
    node_power = np.zeros(total_nodes)
    node_util = np.full(total_nodes, np.nan)
    node_cpu_prev = np.full(total_nodes, np.nan)

    # Per-node utilization inputs and power models, one memo dict per
    # distinct model.  A straggled node swaps in its DVFS variant's.
    node_base = np.empty(total_nodes)
    node_bw = np.empty(total_nodes)
    node_models: list = []
    node_memo: list[dict] = []
    model_memos: dict[int, tuple[object, dict]] = {}

    def memo_of(model) -> dict:
        hit = model_memos.get(id(model))
        if hit is None:
            hit = model_memos[id(model)] = (model, {})
        return hit[1]

    for lane in lanes:
        for spec in lane.node_specs:
            node_base[len(node_models)] = spec.engine_base_utilization
            node_bw[len(node_models)] = spec.cpu_bandwidth_mbps
            node_models.append(spec.power_model)
            node_memo.append(memo_of(spec.power_model))

    for l, lane in enumerate(lanes):
        lane.eview = node_energy[node_off[l] : node_off[l + 1]]

    idle_gaps: list | None = None
    if carbon_curve is not None:
        lane_carbon = np.zeros(n_lanes)
        lane_power = np.zeros(n_lanes)
        idle_gaps = []
        first_node = node_off[:-1]
        #: (lanes with a k-th node, that node's global id) for k >= 1
        node_columns = [
            (rows, first_node[rows] + k)
            for k in range(1, int(n_nodes_arr.max()))
            for rows in [np.nonzero(n_nodes_arr > k)[0]]
        ]

        def cluster_power(node_watts: np.ndarray) -> np.ndarray:
            """Per-lane sum of node watts, one node column at a time."""
            total = node_watts[first_node]
            for rows, idx in node_columns:
                total[rows] += node_watts[idx]
            return total

    # A lane's capacity block follows (switch efficiency x degrade factor,
    # effective CPU factors); rebuilt only when one of them changes.
    nnet = [0] * n_lanes
    eff = [1.0] * n_lanes
    cap_factors: list[tuple | None] = [None] * n_lanes
    #: switch efficiency by network-flow count, one memo per switch model
    eff_memos: dict[int, dict[int, float]] = {}
    lane_eff = [eff_memos.setdefault(id(lane.sim.switch), {}) for lane in lanes]

    def update_caps(l: int) -> None:
        lane = lanes[l]
        memo = lane_eff[l]
        e = memo.get(nnet[l])
        if e is None:
            e = memo[nnet[l]] = lane.sim.switch.efficiency(nnet[l])
        factors = None
        if lane.nodes is not None:
            e = e * lane.nodes.net_mult
            factors = lane.nodes.effective
        if e == eff[l] and factors is cap_factors[l]:
            return
        eff[l] = e
        cap_factors[l] = factors
        block = lane.base_caps
        if e < 1.0 or factors is not None:
            block = block.copy()
            if factors is not None:
                for node, factor in enumerate(factors):
                    if factor != 1.0:
                        block[node * 4 + _KIND_OFFSET[CPU]] *= factor
            if e < 1.0:
                block[lane.net_mask] *= e
        caps[res_off[l] : res_off[l + 1]] = block
        sat[res_off[l] : res_off[l + 1]] = _EPSILON * np.maximum(1.0, block)

    for l in range(n_lanes):
        update_caps(l)

    # Faulted lanes: down nodes' watts are pinned (phase D leaves them
    # alone), and lanes with a node down charge each step's stretch.
    pinned = np.zeros(total_nodes, dtype=bool)
    n_pinned = 0
    down_lanes: set[int] = set()
    power_dirty = False

    def sync_nodes(l: int) -> None:
        """Mirror lane ``l``'s state machine after a head changed it."""
        nonlocal n_pinned, power_dirty
        lane = lanes[l]
        nodes = lane.nodes
        nodes.changed = False
        effective = nodes.effective
        first = int(node_off[l])
        for node in range(lane.n_nodes):
            g = first + node
            factor = 1.0 if effective is None else effective[node]
            if factor != lane.node_factor[node]:
                lane.node_factor[node] = factor
                spec = lane.sim._dvfs_spec(node, factor)
                node_base[g] = spec.engine_base_utilization
                node_bw[g] = spec.cpu_bandwidth_mbps
                node_models[g] = spec.power_model
                node_memo[g] = memo_of(spec.power_model)
                node_cpu_prev[g] = np.nan  # recompute utilization and watts
                node_util[g] = np.nan
            if node in nodes.down:
                if not pinned[g]:
                    pinned[g] = True
                    n_pinned += 1
                node_power[g] = nodes.down_watts(node)
            elif pinned[g]:
                pinned[g] = False
                n_pinned -= 1
                node_cpu_prev[g] = np.nan
                node_util[g] = np.nan
        if nodes.down:
            down_lanes.add(l)
        else:
            down_lanes.discard(l)
        power_dirty = True
        update_caps(l)

    # global flow/entry state (lane-contiguous, scalar live-list order)
    f_lane = _EMPTY_I64
    f_job = _EMPTY_I64
    f_net = _EMPTY_BOOL
    f_rem = _EMPTY_F64
    f_floor = _EMPTY_F64
    f_ecount = _EMPTY_I64
    e_res = _EMPTY_I64
    e_coef = _EMPTY_F64
    e_iscpu = _EMPTY_BOOL

    time_arr = np.zeros(n_lanes)
    events = np.zeros(n_lanes, dtype=np.int64)
    flow_count = np.zeros(n_lanes, dtype=np.int64)
    entry_total = np.zeros(n_lanes, dtype=np.int64)
    horizon = np.full(n_lanes, np.inf)
    has_pend = np.zeros(n_lanes, dtype=bool)
    active = np.ones(n_lanes, dtype=bool)
    attention = np.ones(n_lanes, dtype=bool)
    lane_ids = np.arange(n_lanes)

    def retain(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keep the flows where ``keep`` is set, in order; return the
        (lane, job) of every flow that left.  Finished flows retire and
        crash victims die through here."""
        nonlocal f_lane, f_job, f_net, f_rem, f_floor, f_ecount
        nonlocal e_res, e_coef, e_iscpu, flow_count, entry_total
        gone = ~keep
        gone_lane = f_lane[gone]
        gone_job = f_job[gone]
        net_dec = np.bincount(f_lane[gone & f_net], minlength=n_lanes)
        entry_total = entry_total - np.bincount(
            gone_lane, weights=f_ecount[gone].astype(np.float64),
            minlength=n_lanes,
        ).astype(np.int64)
        flow_count = flow_count - np.bincount(gone_lane, minlength=n_lanes)
        ekeep = np.repeat(keep, f_ecount)
        f_lane = f_lane[keep]
        f_job = f_job[keep]
        f_net = f_net[keep]
        f_rem = f_rem[keep]
        f_floor = f_floor[keep]
        f_ecount = f_ecount[keep]
        e_res = e_res[ekeep]
        e_coef = e_coef[ekeep]
        e_iscpu = e_iscpu[ekeep]
        if net_dec.any():
            for l in np.nonzero(net_dec)[0].tolist():
                nnet[l] -= int(net_dec[l])
                update_caps(l)
        return gone_lane, gone_job

    def merge_pending() -> None:
        """Phase B: splice buffered admissions into the global arrays, at
        each lane's tail.  A function of its own so that its
        entry-sized temporaries are freed on return; one field at a time
        and through boolean masks, because entry-sized arrays are what
        the loop's peak memory is made of."""
        nonlocal f_lane, f_job, f_net, f_rem, f_floor, f_ecount
        nonlocal e_res, e_coef, e_iscpu, flow_count, entry_total
        pending = np.nonzero(has_pend)[0].tolist()
        tids: list[np.ndarray] = []
        sels: list[np.ndarray] = []
        add_flows = np.zeros(n_lanes, dtype=np.int64)
        add_entries = np.zeros(n_lanes, dtype=np.int64)
        for l in pending:
            lane = lanes[l]
            shared = lane.shared
            shared.ensure_universe()
            tids.append(np.array(lane.pend_tids, dtype=np.int64))
            sels.append(
                np.concatenate([shared.entry_ranges[t] for t in lane.pend_tids])
            )
            add_flows[l] = tids[-1].size
            add_entries[l] = sels[-1].size
            if lane.n_net:
                nnet[l] += lane.n_net
                lane.n_net = 0
                update_caps(l)
        # A lane's admissions land at its tail: new positions are, lane
        # by lane, its old count of False then its admissions' True, and
        # boolean assignment fills both in order.
        new_flow = np.repeat(
            np.tile([False, True], n_lanes),
            np.column_stack([flow_count, add_flows]).ravel(),
        )
        new_entry = np.repeat(
            np.tile([False, True], n_lanes),
            np.column_stack([entry_total, add_entries]).ravel(),
        )
        flow_count += add_flows
        entry_total += add_entries

        def splice(old, new_at, pieces, dtype):
            out = np.empty(new_at.shape[0], dtype=dtype)
            out[~new_at] = old
            out[new_at] = np.concatenate(pieces)
            return out

        f_lane = np.repeat(lane_ids, flow_count)
        f_job = splice(
            f_job,
            new_flow,
            [np.array(lanes[l].pend_jobs, dtype=np.int64) for l in pending],
            np.int64,
        )
        shareds = [lanes[l].shared for l in pending]
        f_net = splice(f_net, new_flow, [s.has_net[t] for s, t in zip(shareds, tids)], bool)
        f_rem = splice(f_rem, new_flow, [s.volume[t] for s, t in zip(shareds, tids)], np.float64)
        f_floor = splice(f_floor, new_flow, [s.floor[t] for s, t in zip(shareds, tids)], np.float64)
        f_ecount = splice(
            f_ecount, new_flow, [s.entry_counts[t] for s, t in zip(shareds, tids)], np.int64
        )
        e_res = splice(
            e_res,
            new_entry,
            [s.res[sel] + res_off[l] for s, sel, l in zip(shareds, sels, pending)],
            np.int64,
        )
        e_coef = splice(e_coef, new_entry, [s.coef[sel] for s, sel in zip(shareds, sels)], np.float64)
        e_iscpu = splice(e_iscpu, new_entry, [s.is_cpu[sel] for s, sel in zip(shareds, sels)], bool)
        for l in pending:
            lanes[l].pend_tids = []
            lanes[l].pend_jobs = []
        has_pend[:] = False

    # Telemetry accumulates in locals (two int adds per global iteration,
    # nothing per flow) and flushes once after the loop.
    iterations = 0
    flow_steps = 0

    while True:
        # -- phase A: fault sources, admissions, idle gaps, completion
        # (the scalar loop head)
        att = np.nonzero(attention & active)[0]
        flow_bounds = None
        killers: list[int] = []
        for l in att.tolist():
            lane = lanes[l]
            lane.n_live = int(flow_count[l])
            nodes = lane.nodes
            if nodes is not None:
                if flow_bounds is None:
                    flow_bounds = _offsets(flow_count)
                lane.flow_jobs = f_job[flow_bounds[l] : flow_bounds[l + 1]]
            t, ev, alive = lane.advance_flat(
                float(time_arr[l]), int(events[l]), max_events, idle_gaps
            )
            time_arr[l] = t
            events[l] = ev
            has_pend[l] = bool(lane.pend_tids)
            if not alive:
                active[l] = False
            starts = lane.shared.starts
            h = starts[lane.cursor] if lane.cursor < len(starts) else math.inf
            if nodes is not None:
                h = min(h, nodes.horizon())
                lane.flow_jobs = None
                if lane.killed is not None:
                    killers.append(l)
                if not alive:
                    down_lanes.discard(l)  # trailing faults charge nothing
                elif nodes.changed:
                    sync_nodes(l)
            horizon[l] = h
        if idle_gaps:
            # in list order, so one lane's gaps add up in time order
            gap_lane, gap_start, gap_end, gap_watts = map(np.array, zip(*idle_gaps))
            np.add.at(
                lane_carbon,
                gap_lane,
                gap_watts
                * carbon_curve.integral(gap_start, gap_end)
                / JOULES_PER_KWH,
            )
            idle_gaps.clear()
        if killers:
            keep = np.ones(f_rem.shape[0], dtype=bool)
            for l in killers:
                keep[flow_bounds[l] : flow_bounds[l + 1]] = ~lanes[l].killed
                lanes[l].killed = None
            retain(keep)
        if not active.any():
            break

        # -- phase B: merge buffered admissions into the global arrays
        if has_pend.any():
            merge_pending()

        # -- event accounting (attention lanes counted in advance_flat)
        sl = np.nonzero(flow_count)[0]
        bump = np.zeros(n_lanes, dtype=bool)
        bump[sl] = True
        bump &= ~attention
        events[bump] += 1
        if (events[sl] > max_events).any():
            raise SimulationError(
                f"exceeded {max_events} events; simulation stalled?"
            )
        attention[:] = False

        # -- phase C: one max-min fair allocation across every lane
        n_flows = f_rem.shape[0]
        iterations += 1
        flow_steps += n_flows
        # The entry-to-flow map is built inline, so the allocator holds
        # the only reference and frees it once it compacts: entry-sized
        # arrays are what the loop's peak memory is made of.  Phase D
        # finds its CPU entries' flows without one.
        cpu_entry = np.flatnonzero(e_iscpu)
        cpu_flow = np.searchsorted(np.cumsum(f_ecount), cpu_entry, side="right")
        rates = max_min_fair_rates_flat(
            np.repeat(np.arange(n_flows, dtype=np.int64), f_ecount),
            e_res,
            e_coef,
            f_lane,
            lane_of_res,
            res_off,
            caps,
            sat,
            n_flows,
            n_lanes,
        )

        # -- phase D: per-node CPU rates -> utilization -> watts
        node_cpu = np.bincount(
            e_res[cpu_entry] >> 2,
            weights=e_coef[cpu_entry] * rates[cpu_flow],
            minlength=total_nodes,
        )
        cpu_changed = node_cpu != node_cpu_prev
        if cpu_changed.any():
            util = np.clip(node_base + node_cpu / node_bw, MIN_UTILIZATION, 1.0)
            changed = util != node_util
            if n_pinned:
                changed &= ~pinned
            if changed.any():
                watt_idx = np.nonzero(changed)[0].tolist()
                watt_vals = util[changed].tolist()
                watts = [0.0] * len(watt_idx)
                for k, (i, u) in enumerate(zip(watt_idx, watt_vals)):
                    memo = node_memo[i]
                    w = memo.get(u)
                    if w is None:
                        w = memo[u] = node_models[i].power(u)
                    watts[k] = w
                node_power[changed] = watts
                power_dirty = True
            node_util = util
            node_cpu_prev = node_cpu
        if power_dirty:
            if carbon_curve is not None:
                lane_power = cluster_power(node_power)
            power_dirty = False

        # -- phase E: advance every lane to its own next event
        flow_off = _offsets(flow_count)
        ratio = np.divide(
            f_rem, rates, out=np.full(n_flows, np.inf), where=rates > 0
        )
        dt = np.minimum.reduceat(ratio, flow_off[sl])
        dt = np.minimum(dt, horizon[sl] - time_arr[sl])
        if (~np.isfinite(dt) | (dt < 0)).any():
            raise SimulationError(
                "simulation stalled: live flows have zero rate and no "
                "pending events"
            )
        step_start = time_arr[sl]
        step_end = step_start + dt
        time_arr[sl] = step_end
        if carbon_curve is not None:
            lane_carbon[sl] += (
                lane_power[sl]
                * carbon_curve.integral(step_start, step_end)
                / JOULES_PER_KWH
            )
        if sl.size == n_lanes:
            node_energy += node_power * np.repeat(dt, n_nodes_arr)
        else:
            lmask = np.zeros(n_lanes, dtype=bool)
            lmask[sl] = True
            nmask = np.repeat(lmask, n_nodes_arr)
            node_energy[nmask] += node_power[nmask] * np.repeat(
                dt, n_nodes_arr[sl]
            )
        for l in down_lanes:
            k = int(np.searchsorted(sl, l))
            if k < sl.size and sl[k] == l and dt[k] > 0:
                lanes[l].nodes.charge_down(float(dt[k]))
        f_rem = f_rem - rates * np.repeat(dt, flow_count[sl])
        done = f_rem <= f_floor

        # -- phase F: retirement and phase barriers (scalar tail)
        if done.any():
            ret_lane, ret_job = retain(~done)
            by_lane: dict[int, set] = {}
            for l, j in zip(ret_lane.tolist(), ret_job.tolist()):
                lanes[l].phase_live_count[j] -= 1
                jobs_done = by_lane.get(l)
                if jobs_done is None:
                    by_lane[l] = jobs_done = set()
                jobs_done.add(j)
            for l, jobs_done in by_lane.items():
                lane = lanes[l]
                t = float(time_arr[l])
                for j in sorted(jobs_done):
                    if (
                        lane.phase_live_count[j] == 0
                        and lane.job_phase[j] is not None
                    ):
                        lane._advance_job(j, lane.job_phase[j] + 1, t)
                if lane.pend_tids:
                    has_pend[l] = True

        attention = active & (
            ((flow_count == 0) & ~has_pend)
            | (horizon <= time_arr + _COMPLETION_EPS)
        )

    faulted = [lane.nodes for lane in lanes if lane.nodes is not None]
    for lane in lanes:
        if lane.nodes is not None:
            lane.nodes.require_survivor(lane.job_completion)
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.count("sim.multiplex.iterations", iterations)
        telemetry.count("sim.multiplex.flow_steps", flow_steps)
        telemetry.count("sim.events", int(events.sum()))
        if faulted:
            telemetry.count("sim.faults.onsets", sum(n.survived for n in faulted))
            telemetry.count("sim.faults.retried_jobs", sum(n.retried for n in faulted))
            telemetry.count(
                "sim.faults.dropped_jobs", sum(len(n.dropped) for n in faulted)
            )
    return [
        _flat_result(
            lane,
            time_arr[l],
            node_energy[node_off[l] : node_off[l + 1]],
            None if carbon_curve is None else lane_carbon[l],
        )
        for l, lane in enumerate(lanes)
    ]


def _flat_result(lane: _Lane, makespan, node_energy, carbon) -> SimulationResult:
    energy = node_energy.tolist()
    nodes = lane.nodes
    degraded = {} if nodes is None else {
        "recovery_energy_j": nodes.recovery_energy,
        "retried_jobs": nodes.retried,
        "dropped_jobs": len(nodes.dropped),
        "dropped_job_names": tuple(nodes.dropped),
        "faults_survived": nodes.survived,
    }
    return SimulationResult(
        makespan_s=float(makespan),
        energy_j=sum(energy),
        node_energy_j=tuple(energy),
        job_start_s=lane.job_start,
        job_completion_s=lane.job_completion,
        intervals=lane.intervals,
        carbon_g=None if carbon is None else float(carbon),
        **degraded,
    )


def _run_recorded(
    lanes: list[_Lane], max_events: int
) -> list[SimulationResult]:
    """Per-lane event loop for interval-recording lanes.

    Time/energy stepping is still vectorized across lanes, but each
    lane's allocation goes through the scalar allocator (intervals need
    bottleneck bindings) and is memoized per live-template composition.
    """
    n_lanes = len(lanes)
    width = 8
    n_max = max(lane.n_nodes for lane in lanes)
    rate_m = np.zeros((n_lanes, width))
    rem_m = np.full((n_lanes, width), np.inf)
    floor_m = np.full((n_lanes, width), -np.inf)
    power_m = np.zeros((n_lanes, n_max))
    energy_m = np.zeros((n_lanes, n_max))
    time_arr = np.zeros(n_lanes)

    active = list(lanes)
    iterations = 0
    flow_steps = 0
    while active:
        # -- phase A: per-lane admissions and idle gaps (scalar loop head)
        proceed = []
        for lane in active:
            if lane.advance(time_arr, energy_m, max_events):
                proceed.append(lane)
        active = proceed
        if not active:
            break

        # -- phase B: allocation states (scalar allocator, memoized)
        for lane in active:
            if not lane.dirty:
                continue
            lane.flush()
            state = lane.state_memo.get(lane.state_key())
            lane.state = state if state is not None else lane.allocate_scalar()

        # -- rebuild matrix rows for lanes whose live set changed
        need = max(lane.live_tid.size for lane in active)
        if need > width:
            while width < need:
                width *= 2
            rate_m = _grow(rate_m, width, 0.0)
            rem_m = _grow(rem_m, width, np.inf)
            floor_m = _grow(floor_m, width, -np.inf)
        for lane in active:
            if lane.dirty:
                lane.rebuild_row(rate_m, rem_m, floor_m, power_m)

        # -- phase C: vectorized step across lanes
        iterations += 1
        flow_steps += sum(lane.live_tid.size for lane in active)
        act = np.array([lane.index for lane in active], dtype=np.int64)
        sub_rate = rate_m[act]
        sub_rem = rem_m[act]
        ratio = np.divide(
            sub_rem,
            sub_rate,
            out=np.full_like(sub_rem, np.inf),
            where=sub_rate > 0,
        )
        dt = ratio.min(axis=1)
        gaps = np.array(
            [
                lane.shared.starts[lane.cursor] - time_arr[lane.index]
                if lane.cursor < len(lane.shared.order)
                else np.inf
                for lane in active
            ]
        )
        dt = np.minimum(dt, gaps)
        bad = ~np.isfinite(dt) | (dt < 0)
        if bad.any():
            raise SimulationError(
                "simulation stalled: live flows have zero rate and no "
                "pending events"
            )
        pre_t = time_arr[act].copy()
        energy_m[act] += power_m[act] * dt[:, None]
        new_rem = sub_rem - sub_rate * dt[:, None]
        rem_m[act] = new_rem
        time_arr[act] += dt
        done = new_rem <= floor_m[act]

        # -- phase D: per-lane retirement and phase barriers (scalar tail)
        for j, lane in enumerate(active):
            lane.after_step(dt[j], pre_t[j], time_arr[lane.index], done[j])

    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.count("sim.multiplex.iterations", iterations)
        telemetry.count("sim.multiplex.flow_steps", flow_steps)
        telemetry.count("sim.events", sum(lane.events for lane in lanes))
    return [lane.finalize(time_arr, energy_m) for lane in lanes]


def _grow(matrix: np.ndarray, width: int, fill: float) -> np.ndarray:
    grown = np.full((matrix.shape[0], width), fill)
    grown[:, : matrix.shape[1]] = matrix
    return grown
