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

A further consequence of lane independence: results do not depend on
how lanes are grouped into batches (multiplexing ``[a, b, c]`` equals
``[a]`` then ``[b, c]``).  Every run is interval-free; a run that records
intervals is the serial loop's to replay (see :func:`run_multiplexed`).

Flat state layout
-----------------
Lanes keep *no* per-lane flow objects at all, and the loop keeps only
per-flow state: five global arrays (owning lane, job, template id,
remaining volume, completion floor), lane-contiguous and in the scalar
engine's live-list order (survivors first, admissions appended).

Everything entry-sized comes from one *template universe* per
:func:`run_multiplexed` call.  Every distinct flow template of the
batch is interned there once, by value, so a template id means the same
flow in every lane; per template the universe holds its demand rows
(local resource id, coefficient), its CPU rows (node, coefficient), its
volume, floor and has-network flag.  An allocation gathers the demand
entries of the flows of the lanes that missed the allocation memo (see
below) out of it, numbering those lanes' resources into one compacted
block-diagonal id space, hands them to the allocator
(:func:`~repro.simulator.allocation.max_min_fair_rates_flat`), and lets
them go; phase D gathers every live flow's CPU rows for one per-node
CPU-rate ``bincount`` the same way.  No entry-sized array outlives an
iteration.
Admissions from every lane merge with a fixed number of array calls:
their template ids and jobs are joined in Python, in lane order, and
each per-flow array is spliced once.  One vectorized utilization pass
and one retirement gather complete the iteration; only admissions, idle
gaps, phase barriers, and the (memoized) utilization->watts map remain
scalar, and each touches a handful of lanes or nodes per event.

Lane-internal order is what keeps the arithmetic serial: ``bincount``
adds a node's CPU demand, and the allocator a resource's load, in input
order, and phase E takes each lane's minimum over its contiguous block.
So within a lane, flows must stay in the serial live list's order, and
each flow's entries in demand-insertion order; lanes may sit anywhere.

Lanes that replay the same job list on the same node count share one
*job index*: arrival order, the phase memo (each phase's template ids)
and the demanded-node memo.

Allocation memo
---------------
A trace replays a few query templates many times, so a lane keeps
running through live sets it has already allocated.  Every lane
therefore keeps a memo from its live set to its rates, and phase C
allocates only the lanes whose live set misses it.

* **Key.**  The lane's template ids in live order, as bytes (32-bit).
  Ids are interned by value per batch, and the allocation reads nothing
  else but the lane's capacity block.  Without a fault source the block
  is a function of the key: switch efficiency follows the count of live
  flows that cross the network, and the templates fix that count.  So
  the key is complete.
* **Capacity states.**  A faulted lane's block also follows its network
  degrade factor and its effective DVFS × straggler factors, so it keeps
  one memo per ``(degrade factor, effective factors)`` state, selected
  when a head changes its nodes; a lookup hashes bytes only.
* **Constant blocks.**  Only a lossy switch's efficiency follows the
  network-flow count, so only lanes on one count network flows.  A lane
  on a switch whose ``per_flow_interference`` is 0 (every search
  evaluator's lanes) rebuilds its block only when a fault changes its
  nodes, and without a fault source never.
* **Misses.**  The missed lanes' flows' entries are gathered and handed
  to the allocator with only those lanes' capacity and saturation
  blocks, in lane order, lanes renumbered from 0; each lane's rates are
  stored as bytes, and the iteration's rates array is joined from every
  lane's bytes.  Iterations in which every lane hits call no allocator.
* **Bounds.**  A memo is cleared when it reaches ``_LANE_MEMO_CAP``
  live sets (chosen by peak memory), and a lane's memos are dropped
  when the lane finishes or fails.
* **No changed flag.**  The loop moves each lane one event per
  iteration, and every event changes the lane's live set, so every lane
  with flows is looked up every iteration.

Results stay bit-identical: the allocator computes each lane's
increment, residuals and freezes from that lane's entries and block
alone, so a call over a subset of lanes, with compacted blocks and the
same entry order, gives each lane the bits a call over every lane gives
it, and a hit returns bits an earlier call computed from the same
inputs.  ``sim.multiplex.allocations`` counts the lane allocations
computed (the misses).

Error isolation
---------------
A lane that raises :class:`~repro.errors.SimulationError` mid-run — its
replica coverage lost, every job dropped, a stall, or ``max_events``
exceeded — leaves the loop alone: its flows leave through the
retirement gather, its pending admissions are dropped, a stalled lane
steps by zero, and its result slot holds the error its serial run
raises.  Its batchmates finish unchanged.

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
    # unused here: benchmarks/perf/layers.py still wraps this attribute
    max_min_fair_allocation,  # noqa: F401
    max_min_fair_rates_flat,
)
from repro.simulator.engine import (
    _COMPLETION_EPS,
    ClusterSimulator,
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

#: live sets one lane's allocation memo holds before it is cleared,
#: chosen by peak RSS: at 32 a trace-healthy sample peaks about 4.5%
#: above a memo-free loop, at 64 about 6.5% (its bound is 10%)
_LANE_MEMO_CAP = 32


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums with the total appended: segment bounds."""
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _ragged(
    offset: np.ndarray, count: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the rows of every id in ``ids`` from a ragged table, whose
    id ``i`` owns rows ``offset[i]`` up to ``offset[i] + count[i]``.

    Returns ``(counts, row)``: how many rows each element of ``ids``
    owns, and every gathered row's index into the table, id by id and
    each id's rows in table order.  ``np.repeat(x, counts)`` spreads a
    value per element of ``ids`` over its rows.
    """
    counts = count[ids]
    row = np.repeat(offset[ids] - np.cumsum(counts) + counts, counts)
    row += np.arange(row.shape[0])
    return counts, row


class _Universe:
    """Every distinct flow template of one :func:`run_multiplexed` call.

    Templates are interned by value (name, volume, demands), so a template
    id names the same flow in every lane of the batch.  Per template the
    table holds its demand rows (local resource id, coefficient) and its
    CPU rows (node, coefficient), both in demand-insertion order, plus its
    volume, completion floor and has-network flag.  The loop gathers its
    entry-sized arrays out of these rows right before use; the arrays are
    rebuilt by :meth:`ensure` only when a template was added since.
    """

    __slots__ = (
        "specs",
        "net",
        "_rows",
        "_by_id",
        "_by_value",
        "_size",
        "offset",
        "count",
        "res",
        "coef",
        "cpu_offset",
        "cpu_count",
        "cpu_node",
        "cpu_coef",
        "volume",
        "floor",
        "has_net",
    )

    def __init__(self):
        self.specs: list[FlowSpec] = []
        #: has-network flag by template id, for scalar bookkeeping
        self.net: list[bool] = []
        self._rows: list[list[tuple[int, float]]] = []
        self._by_id: dict[int, int] = {}
        self._by_value: dict[tuple, int] = {}
        self._size = -1
        self.ensure()  # empty arrays, readable before the first template

    def intern(self, spec: FlowSpec) -> int:
        tid = self._by_id.get(id(spec))
        if tid is not None:
            return tid
        value_key = (spec.name, spec.volume_mb, tuple(spec.demands.items()))
        tid = self._by_value.get(value_key)
        if tid is None:
            tid = self._by_value[value_key] = len(self.specs)
            rows = []
            has_network = False
            for resource, c in spec.demands.items():
                kind, _, node = resource.partition(":")
                rows.append((int(node) * 4 + _KIND_OFFSET[kind], c))
                has_network = has_network or kind in NETWORK_KINDS
            self.specs.append(spec)
            self._rows.append(rows)
            self.net.append(has_network)
        self._by_id[id(spec)] = tid
        return tid

    def ensure(self) -> None:
        """Rebuild the arrays if a template was added since the last call."""
        if self._size == len(self.specs):
            return
        rows = self._rows
        cpu_rows = [
            [(r >> 2, c) for r, c in t if r % 4 == _KIND_OFFSET[CPU]] for t in rows
        ]
        self.count = np.array([len(t) for t in rows], dtype=np.int64)
        self.offset = _offsets(self.count)[:-1]
        self.res = np.array([r for t in rows for r, _ in t], dtype=np.int64)
        self.coef = np.array([c for t in rows for _, c in t], dtype=np.float64)
        self.cpu_count = np.array([len(t) for t in cpu_rows], dtype=np.int64)
        self.cpu_offset = _offsets(self.cpu_count)[:-1]
        self.cpu_node = np.array([n for t in cpu_rows for n, _ in t], dtype=np.int64)
        self.cpu_coef = np.array(
            [c for t in cpu_rows for _, c in t], dtype=np.float64
        )
        self.volume = np.array([s.volume_mb for s in self.specs], dtype=np.float64)
        self.floor = np.array(
            [_COMPLETION_EPS * max(1.0, s.volume_mb) for s in self.specs],
            dtype=np.float64,
        )
        self.has_net = np.array(self.net, dtype=bool)
        self._size = len(self.specs)


class _JobIndex:
    """What every lane replaying one job list on one node count shares.

    Only what depends on the job list and the node count: arrival order
    and start times, the phase memo (each phase's template ids in the
    batch's :class:`_Universe`, and how many of them cross the network),
    and faulted lanes' demanded-node memo.
    """

    __slots__ = ("jobs", "order", "starts", "universe", "_phase_memo", "node_sets")

    def __init__(self, jobs: Sequence[Job], universe: _Universe):
        self.jobs = list(jobs)
        self.order = sorted(
            range(len(self.jobs)), key=lambda i: self.jobs[i].start_time_s
        )
        self.starts = [self.jobs[i].start_time_s for i in self.order]
        self.universe = universe
        self._phase_memo: dict[int, tuple[list[int], int]] = {}
        #: faulted lanes' demanded-node memo (node ids depend only on the
        #: jobs, and the index is per node count)
        self.node_sets: dict[int, frozenset[int]] = {}

    def phase(self, phase) -> tuple[list[int], int]:
        """Template ids of a phase's non-empty flows, and how many of
        them cross the network."""
        memo = self._phase_memo.get(id(phase))
        if memo is None:
            universe = self.universe
            tids = [universe.intern(flow) for flow in phase.flows if flow.volume_mb > 0]
            net = sum(universe.net[tid] for tid in tids)
            memo = self._phase_memo[id(phase)] = (tids, net)
        return memo


class _Lane:
    """Per-run simulation state, mirroring the scalar engine's locals.

    A lane keeps the scalar control flow (admission order, phase
    barriers, job bookkeeping, idle gaps); its flow state lives in
    :func:`_run_flat`'s global arrays.  A faulted lane carries the serial
    loop's :class:`~repro.simulator.engine.NodeStates` in ``nodes``.
    """

    __slots__ = (
        "index",
        "sim",
        "pool",
        "shared",
        "jobs",
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
        "pend_tids",
        "pend_jobs",
        "n_net",
        "eview",
        "idle_memo",
    )

    def __init__(self, index: int, simulator: ClusterSimulator, shared: _JobIndex):
        simulator._validate(shared.jobs)
        self.index = index
        self.sim = simulator
        self.pool = simulator.pool
        self.shared = shared
        self.jobs = shared.jobs
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
        #: this lane's flows in the global arrays, set by the loop before
        #: each head; a faulted head also gets their jobs
        #: (``flow_jobs``) and marks the ones a crash kills (``killed``)
        self.n_live = 0
        self.flow_jobs: np.ndarray | None = None
        self.killed: np.ndarray | None = None
        #: admissions not yet merged into the global arrays (phase B
        #: merges them before the next allocation)
        self.pend_tids: list[int] = []
        self.pend_jobs: list[int] = []
        #: how many of those admissions cross the network
        self.n_net = 0
        #: view into the global node-energy array
        self.eview: np.ndarray | None = None
        #: effective factors -> (idle watts array, their sum, as a list)
        self.idle_memo: dict = {}

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
            net = self.shared.universe.net
            self.n_net -= sum(net[tid] for tid, job in pending if job in victims)
            self.pend_tids = [tid for tid, _ in kept]
            self.pend_jobs = [job for _, job in kept]

    def advance_flat(
        self,
        t: float,
        events: int,
        max_events: int,
        idle_gaps: list | None,
    ) -> tuple[float, int, bool]:
        """The scalar loop's head.

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

    # ------------------------------------------------------------ allocation
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

def run_multiplexed(
    runs: Sequence[tuple[ClusterSimulator, Sequence[Job]]],
    max_events: int = 1_000_000,
    carbon_curve: CarbonIntensityCurve | None = None,
    faults=None,
    failure_policy=None,
    layouts: Sequence | None = None,
) -> list[SimulationResult | SimulationError]:
    """Advance every (simulator, jobs) run on one multiplexed event loop.

    Returns one :class:`SimulationResult` per run, in order, each
    bit-identical to ``simulator.run(jobs, max_events=max_events)`` run
    serially (see the module docstring for why).

    Errors are isolated per run.  A run that would raise
    :class:`~repro.errors.SimulationError` once its loop is under way
    (replica coverage lost, every job dropped, a stall, ``max_events``
    exceeded) leaves the loop alone: its slot in the returned list holds
    that exception, with the serial run's message, and its batchmates
    finish.  Errors in the inputs still raise before any run starts:
    :class:`~repro.errors.ConfigurationError`, and the
    :class:`~repro.errors.SimulationError` of a run with no jobs or an
    unknown resource.

    Every run must be interval-free (``record_intervals=False``).  The
    loop keeps no per-lane flow objects, so it has no interval trace to
    record; a batch holding a run whose simulator records intervals
    raises :class:`~repro.errors.ConfigurationError` before any lane is
    built, with or without a curve or faults.  Replay such a run with
    :meth:`ClusterSimulator.run
    <repro.simulator.engine.ClusterSimulator.run>`, which records the
    per-interval power timeline.

    With a ``carbon_curve``, every result also carries ``carbon_g``: the
    run's grams of CO₂ under that curve, integrated inside the loop and
    bit-identical to pricing the serial run's intervals (see *Carbon
    accumulation* above).

    ``faults`` (a :class:`~repro.faults.schedule.FaultSchedule`) injects
    one scenario into every run, each result bit-identical to
    ``simulator.run(jobs, faults=faults, failure_policy=failure_policy,
    layout=layouts[i])``; node indices wrap per run, and ``layouts`` is
    optional and per run (see *Fault source* above).
    """
    if not runs:
        return []
    recording = [i for i, (sim, _) in enumerate(runs) if sim.record_intervals]
    if recording:
        raise ConfigurationError(
            f"run_multiplexed takes interval-free runs only; run {recording[0]} "
            "records intervals: replay it with ClusterSimulator.run"
        )
    faulted = bool(getattr(faults, "events", ()))
    if layouts is not None and len(layouts) != len(runs):
        raise ConfigurationError(
            f"layouts must be one per run: {len(layouts)} for {len(runs)} runs"
        )
    universe = _Universe()
    indexes: dict[tuple[int, int], _JobIndex] = {}
    lanes: list[_Lane] = []
    for position, (sim, jobs) in enumerate(runs):
        key = (id(jobs), sim.pool.num_nodes)
        shared = indexes.get(key)
        if shared is None:
            shared = indexes[key] = _JobIndex(jobs, universe)
        lane = _Lane(position, sim, shared)
        if faulted:
            lane.attach_faults(
                faults,
                failure_policy,
                None if layouts is None else layouts[position],
            )
        lanes.append(lane)
    results = _run_flat(lanes, max_events, carbon_curve, universe)
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.count("sim.multiplex.runs")
        telemetry.count("sim.multiplex.lanes", len(runs))
    return results


def _run_flat(
    lanes: list[_Lane],
    max_events: int,
    carbon_curve: CarbonIntensityCurve | None,
    universe: _Universe,
) -> list[SimulationResult | SimulationError]:
    """Flat-array event loop for interval-free lanes.

    The loop keeps five per-flow arrays (lane-contiguous, scalar
    live-list order within each lane) and gathers everything entry-sized
    from ``universe`` right before use; every iteration performs a fixed
    number of whole-array operations plus scalar work proportional to the
    handful of lanes admitting jobs, retiring flows or firing faults, and
    one memo lookup per lane with flows.  Phase C allocates only the
    lanes whose live set misses their memo, over those lanes' flows and
    resource blocks alone (the module docstring's *Allocation memo*).  A
    ``carbon_curve`` adds the per-lane carbon totals of the module
    docstring's *Carbon accumulation*; lanes carrying a state machine
    follow its *Fault source*.  A lane that raises
    :class:`~repro.errors.SimulationError` leaves the loop, and its slot
    in the returned list holds the error.
    """
    n_lanes = len(lanes)
    n_nodes_arr = np.array([lane.n_nodes for lane in lanes], dtype=np.int64)
    node_off = _offsets(n_nodes_arr)
    total_nodes = int(node_off[-1])
    res_counts = np.array(
        [lane.base_caps.shape[0] for lane in lanes], dtype=np.int64
    )
    res_off = _offsets(res_counts)
    #: global resource id = lane block offset + node*4 + kind; global node
    #: id = lane node offset + node
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
    # effective CPU factors); rebuilt only when one of them changes.  Only
    # a lossy switch's efficiency follows the network-flow count, so only
    # lanes on one count network flows; a faulted lane's block is rebuilt
    # when its nodes change (sync_nodes), and any other lane keeps its
    # block for good.
    lossy = [lane.sim.switch.per_flow_interference != 0 for lane in lanes]
    any_lossy = any(lossy)
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

    # The allocation memo (module docstring): each lane's memo in its
    # current capacity state maps live template ids (bytes) to rates
    # (bytes).  A faulted lane keeps one memo per (degrade factor,
    # effective factors), selected when its nodes change.  None once the
    # lane is done.
    memos: list[dict | None] = [{} for _ in lanes]
    state_memos: list[dict | None] = [
        None if lane.nodes is None else {} for lane in lanes
    ]
    #: computed lane allocations (memo misses), per lane
    lane_allocations = [0] * n_lanes

    def select_memo(l: int) -> None:
        nodes = lanes[l].nodes
        memos[l] = state_memos[l].setdefault((nodes.net_mult, nodes.effective), {})

    def drop_memo(l: int) -> None:
        memos[l] = None
        state_memos[l] = None

    for l in range(n_lanes):
        if lanes[l].nodes is not None:
            select_memo(l)

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
        select_memo(l)
        update_caps(l)

    # Per-flow state, lane-contiguous and in the serial loop's live order
    # within each lane: lane, job, template id, remaining MB, completion
    # floor.  Everything entry-sized is gathered from the universe.
    f_lane = _EMPTY_I64
    f_job = _EMPTY_I64
    f_tid = _EMPTY_I64
    f_rem = _EMPTY_F64
    f_floor = _EMPTY_F64

    time_arr = np.zeros(n_lanes)
    events = np.zeros(n_lanes, dtype=np.int64)
    flow_count = np.zeros(n_lanes, dtype=np.int64)
    horizon = np.full(n_lanes, np.inf)
    has_pend = np.zeros(n_lanes, dtype=bool)
    active = np.ones(n_lanes, dtype=bool)
    attention = np.ones(n_lanes, dtype=bool)
    lane_ids = np.arange(n_lanes)
    #: the error each lane's serial run raises, once the lane has raised it
    errors: list[SimulationError | None] = [None] * n_lanes
    #: lanes that raised while their flows are still in the arrays
    failed: list[int] = []

    def fail(l: int, error: SimulationError) -> None:
        """Take lane ``l`` out of the loop with ``error``: its pending
        admissions are dropped now, its flows leave through the next
        :func:`retain`."""
        errors[l] = error
        failed.append(l)
        active[l] = False
        has_pend[l] = False
        down_lanes.discard(l)
        drop_memo(l)

    def retain(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keep the flows where ``keep`` is set, in order; return the
        (lane, job) of every flow that left.  Finished flows retire, and
        crash victims and failed lanes' flows leave, through here."""
        nonlocal f_lane, f_job, f_tid, f_rem, f_floor, flow_count
        gone = ~keep
        gone_lane = f_lane[gone]
        gone_job = f_job[gone]
        if any_lossy:
            net_dec = np.bincount(
                f_lane[gone & universe.has_net[f_tid]], minlength=n_lanes
            )
            for l in np.nonzero(net_dec)[0].tolist():
                if lossy[l]:
                    nnet[l] -= int(net_dec[l])
                    update_caps(l)
        flow_count = flow_count - np.bincount(gone_lane, minlength=n_lanes)
        f_lane = f_lane[keep]
        f_job = f_job[keep]
        f_tid = f_tid[keep]
        f_rem = f_rem[keep]
        f_floor = f_floor[keep]
        return gone_lane, gone_job

    def merge_pending() -> None:
        """Phase B: splice every lane's buffered admissions in at its
        tail, with a fixed number of array calls: the pending template
        ids and jobs are joined in lane order in Python, then each
        per-flow array is spliced once."""
        nonlocal f_lane, f_job, f_tid, f_rem, f_floor, flow_count
        pending = np.nonzero(has_pend)[0].tolist()
        tids: list[int] = []
        jobs: list[int] = []
        sizes: list[int] = []
        for l in pending:
            lane = lanes[l]
            tids += lane.pend_tids
            jobs += lane.pend_jobs
            sizes.append(len(lane.pend_tids))
            lane.pend_tids = []
            lane.pend_jobs = []
            if lane.n_net:
                if lossy[l]:
                    nnet[l] += lane.n_net
                    update_caps(l)
                lane.n_net = 0
        has_pend[:] = False
        added = np.zeros(n_lanes, dtype=np.int64)
        added[pending] = sizes
        # A lane's admissions land at its tail: new positions are, lane
        # by lane, its old count of False then its admissions' True, and
        # boolean assignment fills both in order.
        new_at = np.repeat(
            np.tile([False, True], n_lanes),
            np.column_stack([flow_count, added]).ravel(),
        )
        old_at = ~new_at
        flow_count = flow_count + added
        new_tid = np.array(tids, dtype=np.int64)
        universe.ensure()

        def splice(old, new, dtype):
            out = np.empty(new_at.shape[0], dtype=dtype)
            out[old_at] = old
            out[new_at] = new
            return out

        f_lane = np.repeat(lane_ids, flow_count)
        f_job = splice(f_job, jobs, np.int64)
        f_tid = splice(f_tid, new_tid, np.int64)
        f_rem = splice(f_rem, universe.volume[new_tid], np.float64)
        f_floor = splice(f_floor, universe.floor[new_tid], np.float64)

    def allocate(sl: np.ndarray, flow_off: np.ndarray) -> np.ndarray:
        """Phase C: max-min fair rates for every live flow of every lane
        in ``sl`` (the lanes with flows).  Each lane's live template ids
        are looked up in its memo; only the lanes that miss are
        allocated, in one call over their flows and resource blocks."""
        # 32-bit ids halve the stored keys; every key has the same width
        keys = f_tid.astype(np.int32).tobytes()
        bounds = (flow_off * 4).tolist()
        parts: list[bytes | None] = []
        #: (lane, its index in parts, its key) of every lane that missed
        missed: list[tuple[int, int, bytes]] = []
        for l in sl.tolist():
            key = keys[bounds[l] : bounds[l + 1]]
            rates = memos[l].get(key)
            if rates is None:
                missed.append((l, len(parts), key))
            parts.append(rates)
        if missed:
            fresh = allocate_lanes(
                np.array([l for l, _, _ in missed], dtype=np.int64), flow_off
            ).tobytes()
            end = 0
            for l, at, key in missed:
                start, end = end, end + 2 * len(key)  # 8-byte rates, 4-byte ids
                rates = parts[at] = fresh[start:end]
                memo = memos[l]
                if len(memo) >= _LANE_MEMO_CAP:
                    memo.clear()
                memo[key] = rates
                lane_allocations[l] += 1
        return np.frombuffer(b"".join(parts))

    def allocate_lanes(missed: np.ndarray, flow_off: np.ndarray) -> np.ndarray:
        """Max-min fair rates for the flows of the ``missed`` lanes, in
        lane order, from demand entries gathered here (flow-major, each
        template's rows in demand-insertion order), so none outlives the
        call.  The allocator sees only those lanes, renumbered 0..m-1,
        with their capacity blocks compacted in the same order."""
        m = missed.shape[0]
        counts, flows = _ragged(flow_off, flow_count, missed)
        n_flows = flows.shape[0]
        res_counts_m, res_rows = _ragged(res_off, res_counts, missed)
        block_off = _offsets(res_counts_m)
        lane_of_flow = np.repeat(np.arange(m), counts)
        tids = f_tid[flows]
        del flows
        counts, row = _ragged(universe.offset, universe.count, tids)
        entries = [
            np.repeat(np.arange(n_flows), counts), universe.res[row], universe.coef[row]
        ]
        del row
        entries[1] += np.repeat(block_off[lane_of_flow], counts)
        # Popped into the call, so the allocator holds the only references
        # and frees each array when it first compacts it: entry-sized
        # arrays are what the loop's peak memory is made of.
        return max_min_fair_rates_flat(
            entries.pop(0),
            entries.pop(0),
            entries.pop(0),
            lane_of_flow,
            np.repeat(np.arange(m), res_counts_m),
            block_off,
            caps[res_rows],
            sat[res_rows],
            n_flows,
            m,
        )

    def cpu_rates(rates: np.ndarray) -> np.ndarray:
        """Phase D's per-node CPU rates: each live flow's CPU rows times
        its rate, accumulated in live-flow order."""
        counts, row = _ragged(universe.cpu_offset, universe.cpu_count, f_tid)
        node = universe.cpu_node[row]
        node += np.repeat(node_off[f_lane], counts)
        return np.bincount(
            node,
            weights=universe.cpu_coef[row] * np.repeat(rates, counts),
            minlength=total_nodes,
        )

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
            try:
                t, ev, alive = lane.advance_flat(
                    float(time_arr[l]), int(events[l]), max_events, idle_gaps
                )
            except SimulationError as error:
                fail(l, error)
                continue
            time_arr[l] = t
            events[l] = ev
            has_pend[l] = bool(lane.pend_tids)
            if not alive:
                active[l] = False
                drop_memo(l)
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
        if killers or failed:
            keep = ~np.isin(f_lane, failed)
            for l in killers:
                keep[flow_bounds[l] : flow_bounds[l + 1]] = ~lanes[l].killed
                lanes[l].killed = None
            failed.clear()
            retain(keep)
        if not active.any():
            break

        # -- phase B: merge buffered admissions into the per-flow arrays
        if has_pend.any():
            merge_pending()

        # -- event accounting (attention lanes counted in advance_flat)
        sl = np.nonzero(flow_count)[0]
        bump = np.zeros(n_lanes, dtype=bool)
        bump[sl] = True
        bump &= ~attention
        events[bump] += 1
        attention[:] = False
        over = events[sl] > max_events
        if over.any():
            for l in sl[over].tolist():
                fail(l, SimulationError(
                    f"exceeded {max_events} events; simulation stalled?"
                ))
            retain(~np.isin(f_lane, failed))
            failed.clear()
            sl = np.nonzero(flow_count)[0]
            if not sl.size:
                attention = active.copy()
                continue

        # -- phase C: max-min fair rates for every lane, allocated only
        # where the lane's memo misses
        n_flows = f_rem.shape[0]
        iterations += 1
        flow_steps += n_flows
        flow_off = _offsets(flow_count)
        rates = allocate(sl, flow_off)

        # -- phase D: per-node CPU rates -> utilization -> watts
        node_cpu = cpu_rates(rates)
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

        # -- phase E: advance every lane to its own next event; a lane
        # that stalls fails and steps by zero
        ratio = np.divide(
            f_rem, rates, out=np.full(n_flows, np.inf), where=rates > 0
        )
        dt = np.minimum.reduceat(ratio, flow_off[sl])
        dt = np.minimum(dt, horizon[sl] - time_arr[sl])
        stalled = ~np.isfinite(dt) | (dt < 0)
        if stalled.any():
            for l in sl[stalled].tolist():
                fail(l, SimulationError(
                    "simulation stalled: live flows have zero rate and no "
                    "pending events"
                ))
            dt[stalled] = 0.0
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
        if failed:
            done |= np.isin(f_lane, failed)
            failed.clear()

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
                if errors[l] is not None:
                    continue
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

    for l, lane in enumerate(lanes):
        if lane.nodes is not None and errors[l] is None:
            try:
                lane.nodes.require_survivor(lane.job_completion)
            except SimulationError as error:
                errors[l] = error
    finished = [l for l in range(n_lanes) if errors[l] is None]
    telemetry = get_telemetry()
    if telemetry.enabled:
        # like the serial loop, a run that raises reports nothing
        telemetry.count("sim.multiplex.iterations", iterations)
        telemetry.count("sim.multiplex.flow_steps", flow_steps)
        telemetry.count(
            "sim.multiplex.allocations", sum(lane_allocations[l] for l in finished)
        )
        telemetry.count("sim.events", int(events[finished].sum()))
        faulted = [lanes[l].nodes for l in finished if lanes[l].nodes is not None]
        if faulted:
            telemetry.count("sim.faults.onsets", sum(n.survived for n in faulted))
            telemetry.count("sim.faults.retried_jobs", sum(n.retried for n in faulted))
            telemetry.count(
                "sim.faults.dropped_jobs", sum(len(n.dropped) for n in faulted)
            )
    return [
        errors[l]
        if errors[l] is not None
        else _flat_result(
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
        carbon_g=None if carbon is None else float(carbon),
        **degraded,
    )
