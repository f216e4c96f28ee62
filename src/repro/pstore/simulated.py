"""Simulated P-store executor: JoinPlan -> fluid-simulator jobs.

Each (node, phase) pair becomes one :class:`~repro.simulator.jobs.FlowSpec`
whose demand coefficients encode the scan -> filter -> partition -> send
pipeline exactly:

* the flow's *rate* is the node's pre-filter scan rate (reference MB/s);
* CPU demand is ``pipeline_cpu_cost`` per scanned MB (plus optional
  ``receive_cpu_cost`` per ingested MB at hash-table nodes);
* disk demand is 1.0 per scanned MB when the cache is cold;
* network demands route the qualifying fraction to its destinations with
  per-destination NIC-in coefficients — so receiver-side ingestion limits
  (the heterogeneous bottleneck of Section 5.4) emerge from max-min
  fairness instead of being hard-coded.

Phases are barriers: the probe phase of a join starts only after every
node finished building ("after all the nodes have built their hash tables,
the LINEITEM table is repartitioned", Section 4.3.1).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

from repro.errors import PlanError, SimulationError
from repro.hardware.cluster import ClusterSpec
from repro.pstore.plans import JoinPlan
from repro.simulator.engine import ClusterSimulator, SimulationResult
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.network import IDEAL_SWITCH, SwitchModel
from repro.simulator.resources import cpu, disk, nic_in, nic_out
from repro.workloads.queries import JoinMethod

__all__ = ["build_join_job", "join_shape", "trace_jobs", "SimulatedPStore"]


def _partition_volumes(total_mb: float, weights: Sequence[float] | None, n: int) -> list[float]:
    """Per-node pre-filter volumes; ``weights`` models data skew."""
    if weights is None:
        return [total_mb / n] * n
    if len(weights) != n:
        raise PlanError(f"need {n} partition weights, got {len(weights)}")
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise PlanError(f"invalid partition weights: {weights}")
    scale = total_mb / sum(weights)
    return [w * scale for w in weights]


def _phase_flows(
    plan: JoinPlan,
    phase_label: str,
    table_volume_mb: float,
    selectivity: float,
    weights: Sequence[float] | None,
) -> list[FlowSpec]:
    """Flows for one exchange phase (build or probe) of the join."""
    n = plan.num_nodes
    join_nodes = list(plan.join_node_ids)
    m = len(join_nodes)
    volumes = _partition_volumes(table_volume_mb, weights, n)

    flows = []
    for node in range(n):
        demands: dict[str, float] = {cpu(node): plan.pipeline_cpu_cost}
        if not plan.warm_cache:
            demands[disk(node)] = 1.0

        if plan.method is JoinMethod.LOCAL:
            pass  # no exchange at all
        elif plan.method is JoinMethod.SHUFFLE:
            if node in join_nodes:
                outbound = selectivity * (m - 1) / m
            else:
                outbound = selectivity
            if outbound > 0:
                demands[nic_out(node)] = outbound
            for target in join_nodes:
                if target == node:
                    continue
                demands[nic_in(target)] = (
                    demands.get(nic_in(target), 0.0) + selectivity / m
                )
                if plan.receive_cpu_cost > 0:
                    demands[cpu(target)] = (
                        demands.get(cpu(target), 0.0)
                        + plan.receive_cpu_cost * selectivity / m
                    )
        elif plan.method is JoinMethod.BROADCAST:
            # Build side only: every node receives the full qualifying table.
            if n > 1:
                demands[nic_out(node)] = selectivity * (n - 1)
                for target in range(n):
                    if target == node:
                        continue
                    demands[nic_in(target)] = (
                        demands.get(nic_in(target), 0.0) + selectivity
                    )
                    if plan.receive_cpu_cost > 0:
                        demands[cpu(target)] = (
                            demands.get(cpu(target), 0.0)
                            + plan.receive_cpu_cost * selectivity
                        )
        else:  # pragma: no cover - planner resolves AUTO
            raise PlanError(f"unresolved join method: {plan.method}")

        flows.append(
            FlowSpec(
                name=f"{phase_label}:node{node}",
                volume_mb=volumes[node],
                demands=demands,
            )
        )
    return flows


def _local_probe_flows(
    plan: JoinPlan, weights: Sequence[float] | None
) -> list[FlowSpec]:
    """Broadcast probe: each node probes its local partition, no network."""
    n = plan.num_nodes
    volumes = _partition_volumes(plan.workload.probe_volume_mb, weights, n)
    flows = []
    for node in range(n):
        demands: dict[str, float] = {cpu(node): plan.pipeline_cpu_cost}
        if not plan.warm_cache:
            demands[disk(node)] = 1.0
        flows.append(
            FlowSpec(
                name=f"probe-local:node{node}",
                volume_mb=volumes[node],
                demands=demands,
            )
        )
    return flows


def build_join_job(
    plan: JoinPlan,
    job_name: str = "join",
    start_time_s: float = 0.0,
    partition_weights: Sequence[float] | None = None,
) -> Job:
    """Convert a plan into a two-phase (build, probe) simulator job.

    ``partition_weights`` optionally skews the per-node data volumes (the
    Section 4.1 "data skew" bottleneck; uniform by default, as in the
    paper's experiments).
    """
    workload = plan.workload
    build_flows = _phase_flows(
        plan,
        phase_label="build",
        table_volume_mb=workload.build_volume_mb,
        selectivity=workload.build_selectivity,
        weights=partition_weights,
    )
    if plan.method is JoinMethod.BROADCAST:
        probe_flows = _local_probe_flows(plan, partition_weights)
    else:
        probe_flows = _phase_flows(
            plan,
            phase_label="probe",
            table_volume_mb=workload.probe_volume_mb,
            selectivity=workload.probe_selectivity,
            weights=partition_weights,
        )
    return Job(
        name=job_name,
        phases=(
            Phase(name="build", flows=tuple(build_flows)),
            Phase(name="probe", flows=tuple(probe_flows)),
        ),
        start_time_s=start_time_s,
        metadata={"plan": plan},
    )


def join_shape(plan: JoinPlan) -> tuple:
    """The plan fields :func:`build_join_job` reads, as a hashable key.

    Two plans with equal shapes expand into value-identical jobs (only
    the ``metadata`` back-reference to the plan differs).  Node specs
    never enter the key: they set capacities and power, not flows, so
    designs that differ only in node types or DVFS factors share a shape
    whenever their planner picks the same method and join nodes.
    """
    return (
        plan.workload,
        plan.method,
        plan.join_node_ids,
        plan.num_nodes,
        plan.warm_cache,
        plan.pipeline_cpu_cost,
        plan.receive_cpu_cost,
    )


def trace_jobs(
    schedule: Sequence[tuple[JoinPlan, float]],
    partition_weights: Sequence[float] | None = None,
    job_label: str | None = None,
) -> list[Job]:
    """Simulator jobs for a timed trace, sharing flow templates.

    A trace repeats a handful of distinct plans across many arrivals, so
    each distinct plan (by identity) is expanded into flows once and every
    arrival gets a renamed, re-timed copy of that template job — the
    phases and :class:`~repro.simulator.jobs.FlowSpec` objects are
    *shared*.  The simulator only reads flow values, so results are
    identical to building every job from scratch, while long traces skip
    the per-arrival plan expansion and downstream consumers (the
    event-multiplexed engine's template interning, most prominently) can
    recognize repeated flows by identity.

    Naming matches :meth:`SimulatedPStore.run_trace`:
    ``{query}#{index}`` in schedule order, or ``{job_label}#{index}``.
    """
    if len(schedule) == 0:
        raise PlanError("need at least one arrival time")
    templates: dict[int, Job] = {}
    jobs = []
    for index, (plan, start) in enumerate(schedule):
        start = float(start)
        if start < 0:
            raise PlanError(f"negative arrival time {start} at event {index}")
        template = templates.get(id(plan))
        if template is None:
            template = templates[id(plan)] = build_join_job(
                plan, partition_weights=partition_weights
            )
        jobs.append(
            replace(
                template,
                name=f"{job_label or plan.workload.name}#{index}",
                start_time_s=start,
            )
        )
    return jobs


def _validate_schedule(schedule: Sequence[tuple[JoinPlan, float]]) -> None:
    """Reject malformed timed schedules before any job is built.

    A trace generator bug (a NaN from a bad rate function, a negative
    arrival from careless offset arithmetic) should fail loudly at
    submission, not as a stall or a silently-wrong queueing result deep
    in the simulator.
    """
    for index, entry in enumerate(schedule):
        _, start = entry
        try:
            start = float(start)
        except (TypeError, ValueError):
            raise SimulationError(
                f"arrival time at event {index} is not a number: {start!r}"
            ) from None
        if not math.isfinite(start):
            raise SimulationError(
                f"non-finite arrival time {start} at event {index}"
            )
        if start < 0:
            raise SimulationError(
                f"negative arrival time {start} at event {index}"
            )


class SimulatedPStore:
    """Runs join plans on the fluid simulator, one or many at a time."""

    def __init__(
        self,
        cluster: ClusterSpec,
        switch: SwitchModel = IDEAL_SWITCH,
        record_intervals: bool = True,
    ):
        self.cluster = cluster
        self.switch = switch
        self._simulator = ClusterSimulator(
            cluster, switch=switch, record_intervals=record_intervals
        )

    @property
    def simulator(self) -> ClusterSimulator:
        """The underlying engine (for batch runners that multiplex stores)."""
        return self._simulator

    def run(
        self,
        plan: JoinPlan,
        concurrency: int = 1,
        partition_weights: Sequence[float] | None = None,
    ) -> SimulationResult:
        """Execute ``concurrency`` independent copies of the join.

        This is the Figure 3/4 experiment setup: "1, 2, and 4 independent
        concurrent joins being performed" — all queries start together and
        share the cluster.
        """
        if concurrency <= 0:
            raise PlanError(f"concurrency must be > 0, got {concurrency}")
        jobs = [
            build_join_job(
                plan,
                job_name=f"join#{index}",
                partition_weights=partition_weights,
            )
            for index in range(concurrency)
        ]
        return self._simulator.run(jobs)

    def run_stream(
        self,
        plan: JoinPlan,
        start_times_s: Sequence[float],
        partition_weights: Sequence[float] | None = None,
        policy=None,
        control_interval_s: float = 1.0,
    ) -> SimulationResult:
        """Execute one copy of the join per arrival time.

        Queries arriving while earlier ones still run share the cluster;
        the result's per-job response times expose queueing/contention
        delay (``result.response_time_s("join#3")``).  ``start_times_s``
        is any float sequence — numpy arrays straight out of the
        :mod:`repro.workloads.arrivals` generators included.
        """
        return self.run_trace(
            [(plan, start) for start in start_times_s],
            partition_weights=partition_weights,
            job_label="join",
            policy=policy,
            control_interval_s=control_interval_s,
        )

    def run_trace(
        self,
        schedule: Sequence[tuple[JoinPlan, float]],
        partition_weights: Sequence[float] | None = None,
        job_label: str | None = None,
        policy=None,
        control_interval_s: float = 1.0,
        faults=None,
        failure_policy=None,
        layout=None,
    ) -> SimulationResult:
        """Execute a timed trace of (possibly different) joins.

        ``schedule`` pairs each join plan with its arrival time, so one
        simulation replays a whole heterogeneous query trace — a daily
        report interleaved with rollups — under queueing.  Jobs are named
        ``{query}#{index}`` in schedule order (``{job_label}#{index}``
        when ``job_label`` is given), and the result's per-job response
        times include each query's contention delay.

        This serial replay is the *oracle* for the event-multiplexed
        batch path (:func:`~repro.simulator.multiplex.run_multiplexed`):
        multiplexing the same trace across many designs must reproduce
        this method's result bit for bit, and
        ``tests/simulator/test_multiplex.py`` holds it to that.

        ``policy`` hands node power states and per-node DVFS to a
        :class:`~repro.policy.policies.ControlPolicy`, consulted every
        ``control_interval_s`` simulated seconds (``None`` and static
        policies replay exactly as before).

        ``faults`` injects a
        :class:`~repro.faults.schedule.FaultSchedule` of crashes,
        stragglers, and network degradations into the replay, with
        ``failure_policy`` governing killed queries and ``layout`` (a
        :class:`~repro.pstore.replication.ReplicatedLayout`) deciding
        whether a crash is survivable.  An empty or absent schedule
        replays bit-identically to the healthy path.
        """
        _validate_schedule(schedule)
        return self._simulator.run(
            trace_jobs(
                schedule, partition_weights=partition_weights, job_label=job_label
            ),
            policy=policy,
            control_interval_s=control_interval_s,
            faults=faults,
            failure_policy=failure_policy,
            layout=layout,
        )
