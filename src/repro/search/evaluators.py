"""Pluggable design-point evaluators for the search engine.

An evaluator turns a :class:`~repro.search.grid.DesignCandidate` plus a
:class:`~repro.workloads.protocol.Workload` into an
:class:`EvaluatedDesign` — response time, cluster energy, and (for
single-join analytical evaluations) the full model prediction.  Three
evaluators cover the repo's estimation stacks:

* :class:`ModelEvaluator` — the Section 5.3 analytical
  :class:`~repro.core.model.PStoreModel` (microseconds per point; the
  default);
* :class:`SimulatorEvaluator` — the fluid
  :class:`~repro.pstore.simulated.SimulatedPStore` executor (milliseconds
  per point, captures contention the closed-form model cannot);
* :class:`CallableEvaluator` — adapts a legacy
  ``(ClusterSpec, JoinWorkloadSpec) -> (time_s, energy_j)`` callable (the
  :class:`~repro.core.design_space.DesignSpaceExplorer` extension point).

Subclasses implement :meth:`SearchEvaluator.evaluate_query` for one join;
the shared :meth:`SearchEvaluator.evaluate` prices any workload — single
joins, :class:`~repro.workloads.suite.WorkloadSuite` mixes, arrival-trace
mixes — as the weight-summed cost of its entries, so suites inherit every
evaluator (and the engine's memoization and fan-out) for free.

Evaluators are plain picklable objects so the engine can ship them to
``multiprocessing`` workers; an infeasible evaluation raises
:class:`~repro.errors.ReproError`, which :func:`evaluate_entry` (the
engine's per-entry unit) and :func:`evaluate_design` (the workload-level
legacy entry point) convert into an infeasible :class:`EvaluatedDesign`
record (identically on the serial and parallel paths).  A workload is
infeasible on a design as soon as *any* of its entries is — a design must
run its whole workload.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.model import ModelParameters, Prediction, PStoreModel
from repro.costmodel.model import CostModel
from repro.errors import ConfigurationError, ModelError, ReproError, SimulationError
from repro.hardware.cluster import ClusterSpec
from repro.pstore.planner import plan_join
from repro.pstore.simulated import SimulatedPStore, join_shape, trace_jobs
from repro.search.grid import DesignCandidate
from repro.simulator.engine import SimulationResult
from repro.simulator.multiplex import run_multiplexed
from repro.telemetry import capture, get_telemetry
from repro.workloads.protocol import TimedTrace, Workload, as_workload
from repro.workloads.queries import JoinWorkloadSpec

__all__ = [
    "EvaluatedDesign",
    "LatencyProfile",
    "SearchEvaluator",
    "ModelEvaluator",
    "SimulatorEvaluator",
    "CallableEvaluator",
    "evaluate_design",
    "evaluate_entry",
    "evaluate_entry_chunk",
    "evaluate_instrumented_chunk",
    "evaluate_timed_design",
    "evaluate_trace_chunk",
]


@dataclass(frozen=True)
class LatencyProfile:
    """Response-time distribution of one timed-trace evaluation.

    Summarizes the per-job response times (completion minus arrival,
    queueing delay included) that a stream simulation produced: the
    latency half of the latency/energy trade the paper's Section 2
    citations motivate.  Percentiles use the nearest-rank method over the
    sorted samples, so every reported value is an actually observed
    response time.
    """

    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float
    count: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyProfile":
        if not len(samples):
            raise ModelError("a latency profile needs at least one sample")
        ordered = sorted(float(sample) for sample in samples)

        def rank(q: float) -> float:
            return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]

        return cls(
            mean_s=sum(ordered) / len(ordered),
            p50_s=rank(0.50),
            p95_s=rank(0.95),
            p99_s=rank(0.99),
            max_s=ordered[-1],
            count=len(ordered),
        )

    def value(self, metric: str) -> float:
        """One summary statistic by name: mean, p50, p95, p99, or max."""
        try:
            return getattr(self, f"{metric}_s")
        except AttributeError:
            raise ModelError(
                f"unknown latency metric {metric!r} "
                "(expected mean, p50, p95, p99, or max)"
            ) from None


@dataclass(frozen=True)
class EvaluatedDesign:
    """One evaluated (or infeasible) design point.

    ``latency`` is populated only by timed-trace evaluations (the design
    was scored by replaying an arrival schedule under queueing); on the
    weights-only path it stays ``None`` and records are bit-identical to
    the pre-latency ones.

    The ``policy`` / ``gated_node_seconds`` / ``energy_saved_j`` fields
    describe dynamic cluster control: for a
    :class:`~repro.policy.candidate.PolicyCandidate` they carry the
    policy's label and the run's gated node-seconds and energy saved
    versus keeping every node active-idle; for a bare design candidate
    all three stay ``None``.

    The fault fields are populated only by degraded-mode evaluations
    (the trace was a :class:`~repro.faults.trace.FaultedTrace` with a
    non-empty schedule): ``degraded_latency`` holds the response-time
    profile of the jobs that survived the scenario — ``latency`` stays
    ``None`` on those records, so healthy and degraded SLA limits
    (the ``response_*_s`` vs ``degraded_response_*_s`` objectives of
    :func:`~repro.search.pareto.best_under`) can never pick from each
    other's population — ``recovery_energy_j`` the energy
    spent rebooting crashed nodes, ``retried_jobs`` / ``dropped_jobs``
    the failure policy's retry and shed counts, and ``faults_survived``
    the number of fault onsets the run absorbed.

    ``carbon_g`` / ``price_usd`` are populated only when the evaluator
    carries a :class:`~repro.costmodel.model.CostModel`: grams of CO₂
    (grid intensity — time-of-day-integrated on timed simulator runs)
    and dollars (capex amortization plus energy tariff).  Without a cost
    model both stay ``None`` and records are bit-identical to the
    pre-cost ones.
    """

    candidate: DesignCandidate
    time_s: float
    energy_j: float
    feasible: bool = True
    infeasible_reason: str = ""
    prediction: Prediction | None = None
    latency: LatencyProfile | None = None
    policy: str | None = None
    gated_node_seconds: float | None = None
    energy_saved_j: float | None = None
    degraded_latency: LatencyProfile | None = None
    recovery_energy_j: float | None = None
    retried_jobs: int | None = None
    dropped_jobs: int | None = None
    faults_survived: int | None = None
    carbon_g: float | None = None
    price_usd: float | None = None

    @property
    def label(self) -> str:
        return self.candidate.label

    @property
    def performance(self) -> float:
        """The paper's performance metric: inverse response time."""
        if self.time_s <= 0:
            raise ModelError(f"{self.label}: zero-duration point has no performance")
        return 1.0 / self.time_s

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.energy_j * self.time_s


class SearchEvaluator(abc.ABC):
    """Maps one candidate + workload to time/energy."""

    #: whether :meth:`evaluate_trace` replays real arrival times.  Only
    #: stream-capable evaluators (the simulator) can price queueing; the
    #: engine refuses timed workloads on evaluators that cannot, instead
    #: of silently degrading to the weights-only aggregate.
    supports_timed: bool = False

    #: optional :class:`~repro.costmodel.model.CostModel` annotating
    #: feasible records with ``carbon_g`` / ``price_usd``.  ``None`` (the
    #: default) leaves every record bit-identical to pre-cost behaviour;
    #: dataclass evaluators override this with an instance field.
    cost_model: CostModel | None = None

    def _priced(self, record: EvaluatedDesign) -> EvaluatedDesign:
        """Annotate one feasible record with flat-rate cost fields.

        The weights-only pricing rule: carbon at the flat intensity (or
        a curve's cycle mean — there is no timeline to integrate), price
        from capex over ``time_s`` plus the tariff.  Both are linear in
        (time, energy), so pricing per entry and weight-summing equals
        pricing the weight-summed aggregate.  A ``None`` model is the
        identity.
        """
        model = self.cost_model
        if model is None or not record.feasible:
            return record
        return replace(
            record,
            carbon_g=model.carbon_g(record.energy_j),
            price_usd=model.price_usd(
                record.candidate, record.time_s, record.energy_j
            ),
        )

    def evaluate_trace(
        self, candidate: DesignCandidate, trace: TimedTrace
    ) -> EvaluatedDesign:
        """Evaluate one design by replaying a timed arrival trace.

        Stream-capable subclasses override this to simulate the trace's
        ``schedule()`` under queueing and attach a :class:`LatencyProfile`
        to the record; raise :class:`ReproError` if the trace is
        infeasible on the design.
        """
        raise ConfigurationError(
            f"{type(self).__name__} cannot simulate arrival times; evaluate "
            "timed traces with a stream-capable evaluator "
            "(e.g. SimulatorEvaluator), or reduce the trace to weights with "
            ".weights_only()"
        )

    def evaluate_trace_batch(
        self, trace: TimedTrace, candidates: Sequence[DesignCandidate]
    ) -> list[EvaluatedDesign]:
        """Replay one timed trace on several designs, one record each.

        Infeasible designs come back as infeasible *records* (never an
        exception), so a batch always yields ``len(candidates)`` results
        — the timed counterpart of :meth:`evaluate_query_batch`.  The
        default just loops :func:`evaluate_timed_design`; evaluators that
        can advance many independent simulations together override this
        (:class:`SimulatorEvaluator` multiplexes the whole batch onto one
        event loop) while producing bit-identical records.
        """
        get_telemetry().count("evaluator.trace_evals", len(candidates))
        return [
            evaluate_timed_design(self, candidate, trace)
            for candidate in candidates
        ]

    def evaluate(
        self, candidate: DesignCandidate, workload: Workload | JoinWorkloadSpec
    ) -> EvaluatedDesign:
        """Evaluate one design for any workload.

        A workload's cost is the weight-summed cost of its entries (the
        :func:`~repro.workloads.suite.evaluate_suite` aggregation rule);
        single-entry unit-weight workloads keep the per-query record —
        prediction attached — so the pre-redesign behaviour is preserved
        bit for bit.  Raises :class:`ReproError` if any entry is
        infeasible.
        """
        entries = as_workload(workload).weighted_queries()
        if len(entries) == 1 and entries[0].weight == 1.0:
            return self.evaluate_query(candidate, entries[0].query)
        total_time = 0.0
        total_energy = 0.0
        for query, weight in entries:
            point = self.evaluate_query(candidate, query)
            total_time += weight * point.time_s
            total_energy += weight * point.energy_j
        return self._priced(
            EvaluatedDesign(
                candidate=candidate, time_s=total_time, energy_j=total_energy
            )
        )

    @abc.abstractmethod
    def evaluate_query(
        self, candidate: DesignCandidate, query: JoinWorkloadSpec
    ) -> EvaluatedDesign:
        """Evaluate one design for one join; raise :class:`ReproError` if
        infeasible."""

    def evaluate_query_batch(
        self, candidate: DesignCandidate, queries: Sequence[JoinWorkloadSpec]
    ) -> list[EvaluatedDesign]:
        """Evaluate several joins on one design, one record per join.

        Infeasible joins come back as infeasible *records* (never an
        exception), so a batch always yields ``len(queries)`` results.
        Subclasses whose per-query setup is dominated by per-candidate
        work (cluster construction, simulator state) override this to
        amortize it — :class:`SimulatorEvaluator` does.
        """
        get_telemetry().count("evaluator.query_evals", len(queries))
        return [evaluate_entry(self, candidate, query) for query in queries]

    @abc.abstractmethod
    def fingerprint(self) -> tuple:
        """Deterministic identity used to partition the evaluation cache."""


@dataclass(frozen=True)
class ModelEvaluator(SearchEvaluator):
    """Analytical evaluation with the Section 5.3 closed-form model.

    Parameter semantics match :class:`DesignSpaceExplorer`: disk and NIC
    bandwidths come from the candidate's Beefy spec even for all-Wimpy
    designs (the paper's Section 5.4 uniformity assumption).

    ``warm_cache`` defaults to False (inputs read from disk), while
    :class:`SimulatorEvaluator` defaults to True (inputs already in
    memory), so the two evaluators' default records are not comparable:
    all-Beefy designs differ about 2x.  Pass the same ``warm_cache`` to
    both to compare them.
    """

    warm_cache: bool = False
    strict_paper_conditions: bool = False
    pipeline_cpu_cost: float = 1.0
    cost_model: CostModel | None = None

    def evaluate_query(
        self, candidate: DesignCandidate, query: JoinWorkloadSpec
    ) -> EvaluatedDesign:
        params = ModelParameters.from_specs(
            candidate.effective_beefy,
            candidate.num_beefy,
            candidate.effective_wimpy,
            candidate.num_wimpy,
        )
        model = PStoreModel(
            params,
            warm_cache=self.warm_cache,
            pipeline_cpu_cost=self.pipeline_cpu_cost,
            strict_paper_conditions=self.strict_paper_conditions,
        )
        prediction = model.predict(query, mode=candidate.mode)
        return self._priced(
            EvaluatedDesign(
                candidate=candidate,
                time_s=prediction.time_s,
                energy_j=prediction.energy_j,
                prediction=prediction,
            )
        )

    def fingerprint(self) -> tuple:
        base = (
            "model",
            self.warm_cache,
            self.strict_paper_conditions,
            self.pipeline_cpu_cost,
        )
        # cost-model identity appended ONLY when a model is attached, so
        # default cache keys (and persisted caches) stay bit-identical
        if self.cost_model is not None:
            return base + (self.cost_model.fingerprint(),)
        return base


@dataclass(frozen=True)
class SimulatorEvaluator(SearchEvaluator):
    """Fluid-simulator evaluation through the simulated P-store executor.

    The only shipped evaluator that can price *timed* workloads: a
    :class:`~repro.workloads.protocol.TimedTrace` is replayed through
    :meth:`~repro.pstore.simulated.SimulatedPStore.run_trace`, so queries
    arriving while earlier ones still run contend for the cluster, and
    the record carries the resulting :class:`LatencyProfile`.

    ``warm_cache`` defaults to True, unlike :class:`ModelEvaluator`'s
    False, so the two evaluators' default records are not comparable;
    pass the same value to both to compare them.
    """

    warm_cache: bool = True
    pipeline_cpu_cost: float = 1.0
    receive_cpu_cost: float = 0.0
    concurrency: int = 1
    cost_model: CostModel | None = None

    supports_timed = True

    def evaluate_query(
        self, candidate: DesignCandidate, query: JoinWorkloadSpec
    ) -> EvaluatedDesign:
        cluster = candidate.cluster()
        plan = plan_join(
            cluster,
            query,
            warm_cache=self.warm_cache,
            pipeline_cpu_cost=self.pipeline_cpu_cost,
            receive_cpu_cost=self.receive_cpu_cost,
            force_mode=candidate.mode,
        )
        result = SimulatedPStore(cluster, record_intervals=False).run(
            plan, concurrency=self.concurrency
        )
        return self._priced(
            EvaluatedDesign(
                candidate=candidate,
                time_s=result.makespan_s,
                energy_j=result.energy_j,
            )
        )

    def evaluate_query_batch(
        self, candidate: DesignCandidate, queries: Sequence[JoinWorkloadSpec]
    ) -> list[EvaluatedDesign]:
        """Amortized batch: one cluster + simulated store for all joins.

        ``candidate.cluster()`` (DVFS variants, resource capacities) and
        the :class:`SimulatedPStore` construction are per-candidate work;
        each ``run()`` starts from fresh simulation state, so sharing the
        store across the batch returns exactly the per-query results.
        """
        get_telemetry().count("evaluator.query_evals", len(queries))
        cluster = candidate.cluster()
        store = SimulatedPStore(cluster, record_intervals=False)
        records = []
        for query in queries:
            try:
                plan = plan_join(
                    cluster,
                    query,
                    warm_cache=self.warm_cache,
                    pipeline_cpu_cost=self.pipeline_cpu_cost,
                    receive_cpu_cost=self.receive_cpu_cost,
                    force_mode=candidate.mode,
                )
                result = store.run(plan, concurrency=self.concurrency)
            except ReproError as exc:
                records.append(_infeasible_record(candidate, exc))
                continue
            records.append(
                self._priced(
                    EvaluatedDesign(
                        candidate=candidate,
                        time_s=result.makespan_s,
                        energy_j=result.energy_j,
                    )
                )
            )
        return records

    def evaluate_trace(
        self, candidate: DesignCandidate, trace: TimedTrace
    ) -> EvaluatedDesign:
        """Replay the trace's arrival schedule on this design, once.

        One simulation runs every event at its arrival time: the cluster
        and each distinct query's plan are built once, queries arriving
        mid-flight share the cluster (max-min fairly), and idle gaps
        between arrivals still draw engine-idle power.  The record's
        ``time_s`` is the stream's makespan, ``energy_j`` the total
        energy including idle stretches, and ``latency`` the distribution
        of per-job response times (completion minus arrival — queueing
        delay included).  ``concurrency`` does not apply here: the trace
        itself dictates how many queries are in flight.

        A :class:`~repro.policy.candidate.PolicyCandidate` replays with
        its control policy in charge of node power states (the ``policy``
        attribute is the only thing this evaluator inspects beyond the
        design-candidate surface); anything without one replays exactly
        as before.

        A :class:`~repro.faults.trace.FaultedTrace` with a non-empty
        schedule replays under fault injection and yields a *degraded*
        record: the latency profile lands in ``degraded_latency`` (with
        ``latency`` left ``None``), alongside the recovery energy and
        retry/drop counts.  A fault schedule the candidate cannot
        survive (replica coverage lost, or every job dropped) raises
        :class:`ReproError` like any other infeasibility.
        """
        cluster = candidate.cluster()
        # a time-of-day carbon curve integrates against the per-interval
        # power timeline; flat (or no) pricing keeps recording off
        record = self.cost_model is not None and self.cost_model.time_varying
        store = SimulatedPStore(cluster, record_intervals=record)
        faults = getattr(trace, "faults", None)
        if faults is not None and getattr(faults, "events", ()):
            result = store.run_trace(
                self._trace_schedule(cluster, candidate, trace),
                policy=getattr(candidate, "policy", None),
                control_interval_s=getattr(candidate, "control_interval_s", 1.0),
                faults=faults,
                failure_policy=trace.failure_policy,
                layout=trace.layout_for(candidate.num_nodes),
            )
            return self._degraded_record(candidate, result)
        result = store.run_trace(
            self._trace_schedule(cluster, candidate, trace),
            policy=getattr(candidate, "policy", None),
            control_interval_s=getattr(candidate, "control_interval_s", 1.0),
        )
        return self._trace_record(candidate, result)

    def _trace_schedule(
        self, cluster: ClusterSpec, candidate: DesignCandidate, trace: TimedTrace
    ) -> list[tuple[object, float]]:
        """The trace's (plan, arrival) schedule on one design; each
        distinct query is planned once."""
        plans: dict[JoinWorkloadSpec, object] = {}
        schedule = []
        for query, start_s in trace.schedule():
            plan = plans.get(query)
            if plan is None:
                plan = plans[query] = plan_join(
                    cluster,
                    query,
                    warm_cache=self.warm_cache,
                    pipeline_cpu_cost=self.pipeline_cpu_cost,
                    receive_cpu_cost=self.receive_cpu_cost,
                    force_mode=candidate.mode,
                )
            schedule.append((plan, start_s))
        return schedule

    def _price_timed(
        self, record: EvaluatedDesign, result: SimulationResult
    ) -> EvaluatedDesign:
        """Price one timed record against the run's actual timeline.

        A time-of-day carbon curve is integrated exactly against the
        run's power timeline — energy a gating policy shifted into the
        trough is credited at trough intensity.  A multiplexed run
        arrives with that integral already in ``result.carbon_g``; a
        serial run's recorded intervals are integrated here, with the
        same bits.  Flat intensities price the energy total.  The priced
        figures are also stamped onto the (mutable)
        :class:`SimulationResult` so downstream analysis of the raw run
        sees the same numbers.  A ``None`` model is the identity.
        """
        model = self.cost_model
        if model is None:
            return record
        if result.carbon_g is not None:
            carbon = result.carbon_g
        elif model.time_varying:
            carbon = model.carbon_g_timed(result.intervals)
        else:
            carbon = model.carbon_g(record.energy_j)
        price = model.price_usd(record.candidate, record.time_s, record.energy_j)
        result.carbon_g = carbon
        result.price_usd = price
        return replace(record, carbon_g=carbon, price_usd=price)

    def _trace_record(
        self, candidate: DesignCandidate, result: SimulationResult
    ) -> EvaluatedDesign:
        """One stream simulation -> one timed design record.

        Policy-bearing candidates get the control annotations (policy
        label, gated node-seconds, energy saved); for a bare design those
        fields stay ``None`` and the record is bit-identical to before.
        """
        responses = [result.response_time_s(name) for name in result.job_completion_s]
        policy = getattr(candidate, "policy", None)
        record = EvaluatedDesign(
            candidate=candidate,
            time_s=result.makespan_s,
            energy_j=result.energy_j,
            latency=LatencyProfile.from_samples(responses),
            policy=policy.label if policy is not None else None,
            gated_node_seconds=(
                result.gated_node_seconds if policy is not None else None
            ),
            energy_saved_j=result.energy_saved_j if policy is not None else None,
        )
        return self._price_timed(record, result)

    def _degraded_record(
        self, candidate: DesignCandidate, result: SimulationResult
    ) -> EvaluatedDesign:
        """One fault-injected stream simulation -> one degraded record.

        The response-time profile of the surviving jobs goes to
        ``degraded_latency`` — never ``latency`` — so degraded records
        are invisible to healthy-SLA selection and vice versa.
        """
        responses = [result.response_time_s(name) for name in result.job_completion_s]
        policy = getattr(candidate, "policy", None)
        record = EvaluatedDesign(
            candidate=candidate,
            time_s=result.makespan_s,
            energy_j=result.energy_j,
            degraded_latency=LatencyProfile.from_samples(responses),
            policy=policy.label if policy is not None else None,
            gated_node_seconds=(
                result.gated_node_seconds if policy is not None else None
            ),
            energy_saved_j=result.energy_saved_j if policy is not None else None,
            recovery_energy_j=result.recovery_energy_j,
            retried_jobs=result.retried_jobs,
            dropped_jobs=result.dropped_jobs,
            faults_survived=result.faults_survived,
        )
        return self._price_timed(record, result)

    def evaluate_trace_batch(
        self, trace: TimedTrace, candidates: Sequence[DesignCandidate]
    ) -> list[EvaluatedDesign]:
        """Replay the trace on every design via one multiplexed event loop.

        Each candidate's cluster, plans, and jobs are built as in
        :meth:`evaluate_trace`; the simulations themselves then advance
        *together* through
        :func:`~repro.simulator.multiplex.run_multiplexed`, which batches
        the per-event allocation and energy arithmetic across designs and
        returns results bit-identical to serial replay — so the records
        (latency profiles included) match :func:`evaluate_timed_design`
        exactly.

        Error isolation matches the serial loop: a design whose plans
        cannot be built becomes an infeasible record, and so does a lane
        that fails *mid-simulation* — the loop hands back the error its
        serial replay raises, with the same message, while its batchmates
        finish — so one broken design cannot poison its batchmates.  Only
        a loop error that no single lane owns sends the whole batch to
        serial per-candidate replay.

        Candidates carrying a *dynamic* control policy cannot share the
        multiplexed event loop (control ticks and power-state transitions
        are per-candidate events); they fall back to serial
        :func:`evaluate_timed_design` automatically.  Static policies and
        bare designs stay on the fast path.

        Fault-injected traces ride the loop too: a
        :class:`~repro.faults.trace.FaultedTrace` with a non-empty
        schedule hands its scenario, failure policy and per-candidate
        replicated layouts to
        :func:`~repro.simulator.multiplex.run_multiplexed`, whose lanes
        drive the serial loop's own node-state machine (node indices
        wrap per cluster size, retries reschedule per run), so the
        degraded records match :func:`evaluate_timed_design` exactly.  A
        design too small for the trace's replication factor becomes an
        infeasible record.  A lane that loses replica coverage or drops
        every job becomes an infeasible record the same way, through its
        error slot.  An *empty* schedule is bit-identical to the bare
        trace.

        Cost models of every kind stay on the fast path.  A time-of-day
        carbon curve is handed to the loop, which integrates each lane's
        power timeline against it step by step; the grams are
        bit-identical to the serial path's integral over recorded
        intervals, so no interval is recorded here.  Flat-rate models
        price the energy total.

        Designs whose plans have the same shape
        (:func:`~repro.pstore.simulated.join_shape`: same method, join
        nodes and node count for this trace's queries) share one job
        list, so a batch holds one list per shape rather than one per
        design.  Each batch counts its candidates by route under
        ``evaluator.route.*`` (see :mod:`repro.telemetry`).
        """
        telemetry = get_telemetry()
        telemetry.count("evaluator.trace_evals", len(candidates))
        faults = getattr(trace, "faults", None)
        faulted = faults is not None and bool(getattr(faults, "events", ()))
        model = self.cost_model
        curve = model.carbon_g_per_kwh if model is not None and model.time_varying else None
        records: list[EvaluatedDesign | None] = [None] * len(candidates)
        runs: list[tuple[int, DesignCandidate, object, list, object]] = []
        shared_jobs: dict[tuple, list] = {}
        serial = 0
        for position, candidate in enumerate(candidates):
            policy = getattr(candidate, "policy", None)
            if policy is not None and not policy.is_static:
                serial += 1
                records[position] = evaluate_timed_design(self, candidate, trace)
                continue
            try:
                cluster = candidate.cluster()
                store = SimulatedPStore(cluster, record_intervals=False)
                schedule = self._trace_schedule(cluster, candidate, trace)
                # after the plans, so a design failing both reports what
                # the serial replay reports
                layout = trace.layout_for(candidate.num_nodes) if faulted else None
                # Every candidate replays this one trace, so its jobs are
                # fixed by the shapes of its distinct plans.
                shape = tuple(
                    join_shape(plan)
                    for plan in {id(plan): plan for plan, _ in schedule}.values()
                )
                jobs = shared_jobs.get(shape)
                if jobs is None:
                    jobs = shared_jobs[shape] = trace_jobs(schedule)
            except ConfigurationError:
                raise
            except ReproError as exc:
                records[position] = _infeasible_record(candidate, exc)
                continue
            runs.append((position, candidate, store.simulator, jobs, layout))
        if serial:
            telemetry.count("evaluator.route.serial.policy", serial)
        if runs:
            try:
                with telemetry.span("sim.multiplexed"):
                    results = run_multiplexed(
                        [(simulator, jobs) for _, _, simulator, jobs, _ in runs],
                        carbon_curve=curve,
                        faults=faults if faulted else None,
                        failure_policy=trace.failure_policy if faulted else None,
                        layouts=[layout for *_, layout in runs] if faulted else None,
                    )
            except ReproError:
                telemetry.count("evaluator.multiplex_fallbacks", len(runs))
                telemetry.count("evaluator.route.fallback.error", len(runs))
                for position, candidate, *_ in runs:
                    records[position] = evaluate_timed_design(
                        self, candidate, trace
                    )
            else:
                telemetry.count("evaluator.route.multiplexed", len(runs))
                record_of = self._degraded_record if faulted else self._trace_record
                for (position, candidate, *_), result in zip(runs, results):
                    records[position] = (
                        _infeasible_record(candidate, result)
                        if isinstance(result, SimulationError)
                        else record_of(candidate, result)
                    )
        return records

    def fingerprint(self) -> tuple:
        base = (
            "simulator",
            self.warm_cache,
            self.pipeline_cpu_cost,
            self.receive_cpu_cost,
            self.concurrency,
        )
        # appended ONLY when a model is attached — see ModelEvaluator
        if self.cost_model is not None:
            return base + (self.cost_model.fingerprint(),)
        return base


class CallableEvaluator(SearchEvaluator):
    """Adapts a legacy ``(cluster, query) -> (time_s, energy_j)`` callable.

    Closures are not generally picklable, so searches driven by a
    :class:`CallableEvaluator` should stay on the serial path (the engine
    enforces this by refusing to fan out unpicklable evaluators).
    """

    def __init__(
        self,
        fn: Callable[[ClusterSpec, JoinWorkloadSpec], tuple[float, float]],
        cost_model: CostModel | None = None,
    ):
        self._fn = fn
        self.cost_model = cost_model

    @staticmethod
    def checked(label: str, cost: tuple[float, float]) -> tuple[float, float]:
        """A callable's ``(time_s, energy_j)`` for design ``label``.

        Raises :class:`ModelError` unless both are finite and >= 0: a NaN
        or infinite cost must not become a feasible record, where it
        would make the frontier depend on input order.
        """
        for name, value in zip(("time_s", "energy_j"), cost):
            if not (math.isfinite(value) and value >= 0):
                raise ModelError(
                    f"design {label!r}: cost callable returned {name}={value!r}; "
                    "expected a finite value >= 0"
                )
        return cost

    def evaluate_query(
        self, candidate: DesignCandidate, query: JoinWorkloadSpec
    ) -> EvaluatedDesign:
        time_s, energy_j = self.checked(
            candidate.label, self._fn(candidate.cluster(), query)
        )
        return self._priced(
            EvaluatedDesign(candidate=candidate, time_s=time_s, energy_j=energy_j)
        )

    def fingerprint(self) -> tuple:
        # The callable itself (functions hash by identity): cache keys
        # hold a strong reference, so a recycled id() can never alias two
        # different callables in a shared cache.
        if self.cost_model is not None:
            return ("callable", self._fn, self.cost_model.fingerprint())
        return ("callable", self._fn)


def _infeasible_record(
    candidate: DesignCandidate, exc: ReproError
) -> EvaluatedDesign:
    """The canonical infeasible record for one failed evaluation."""
    policy = getattr(candidate, "policy", None)
    return EvaluatedDesign(
        candidate=candidate,
        time_s=float("inf"),
        energy_j=float("inf"),
        feasible=False,
        infeasible_reason=str(exc),
        policy=policy.label if policy is not None else None,
    )


def evaluate_design(
    evaluator: SearchEvaluator,
    candidate: DesignCandidate,
    workload: Workload | JoinWorkloadSpec,
) -> EvaluatedDesign:
    """Evaluate one candidate, mapping infeasibility to a record.

    Workload-granular legacy entry point (kept for external callers and
    old-vs-new benchmarking); the engine itself now evaluates per entry
    through :func:`evaluate_entry` and aggregates in
    :mod:`repro.search.engine`.
    """
    try:
        return evaluator.evaluate(candidate, workload)
    except ReproError as exc:
        return _infeasible_record(candidate, exc)


def evaluate_entry(
    evaluator: SearchEvaluator,
    candidate: DesignCandidate,
    query: JoinWorkloadSpec,
) -> EvaluatedDesign:
    """Evaluate one (candidate, query) task, mapping infeasibility to a
    record.

    This is the engine's unit of evaluation: both the serial loop and the
    worker processes funnel every task through here (directly or via
    :meth:`SearchEvaluator.evaluate_query_batch`), so the parallel path
    is guaranteed to produce identical per-entry results to the serial
    one.
    """
    try:
        return evaluator.evaluate_query(candidate, query)
    except ReproError as exc:
        return _infeasible_record(candidate, exc)


def evaluate_chunk(
    payload: tuple[SearchEvaluator, Workload, Sequence[DesignCandidate]],
) -> list[EvaluatedDesign]:
    """Worker entry point for workload-granular dispatch (legacy)."""
    evaluator, workload, candidates = payload
    return [evaluate_design(evaluator, candidate, workload) for candidate in candidates]


def evaluate_timed_design(
    evaluator: SearchEvaluator,
    candidate: DesignCandidate,
    trace: TimedTrace,
) -> EvaluatedDesign:
    """Evaluate one (candidate, timed trace) task, mapping infeasibility
    to a record.

    The timed counterpart of :func:`evaluate_entry`: the unit both the
    serial loop and the worker processes funnel timed tasks through, so
    the parallel path is guaranteed identical to the serial one.  An
    evaluator that cannot replay arrival times at all is a configuration
    error, not an infeasible design — that propagates.
    """
    try:
        return evaluator.evaluate_trace(candidate, trace)
    except ConfigurationError:
        raise
    except ReproError as exc:
        return _infeasible_record(candidate, exc)


def evaluate_trace_chunk(
    payload: tuple[SearchEvaluator, TimedTrace, Sequence[DesignCandidate]],
) -> list[EvaluatedDesign]:
    """Worker entry point: replay one timed trace on a chunk of designs.

    Timed evaluation cannot flatten to per-entry tasks (queueing couples
    a trace's queries), so the dispatch unit is the whole trace per
    candidate; chunks group candidates.  The chunk funnels through
    :meth:`SearchEvaluator.evaluate_trace_batch` — the same unit as the
    serial path — so stream-capable evaluators multiplex each chunk and
    parallel records stay identical to serial ones.
    """
    evaluator, trace, candidates = payload
    return evaluator.evaluate_trace_batch(trace, list(candidates))


def evaluate_instrumented_chunk(payload: tuple[Callable, tuple]):
    """Worker entry point wrapping another chunk function with telemetry.

    ``payload`` is ``(chunk_fn, chunk_payload)``; the result is
    ``(records, TelemetrySnapshot)``.  The engine ships this wrapper only
    when the parent registry is enabled at dispatch time — the decision
    travels in the payload, never in fork-inherited state, so a pool
    created before ``telemetry.enable()`` still measures.  The chunk
    runs inside :func:`repro.telemetry.capture` for two reasons: a
    worker's inherited registry (usually disabled) stays untouched, and
    the engine's serial in-process retry of a failed chunk cannot
    corrupt the parent registry mid-``search.dispatch``.  The per-chunk
    ``worker.chunk`` span is the dispatch-latency measurement the parent
    merges beneath its dispatch span.
    """
    fn, inner = payload
    with capture() as telemetry:
        with telemetry.span("worker.chunk"):
            records = fn(inner)
        return records, telemetry.snapshot()


def evaluate_entry_chunk(
    payload: tuple[
        SearchEvaluator,
        Sequence[tuple[DesignCandidate, Sequence[JoinWorkloadSpec]]],
    ],
) -> list[EvaluatedDesign]:
    """Worker entry point: evaluate one chunk of per-entry tasks.

    Tasks arrive grouped by candidate — ``(candidate, queries)`` batches —
    so evaluators with per-candidate setup cost amortize it via
    :meth:`SearchEvaluator.evaluate_query_batch`.  Results come back
    flattened in task order.
    """
    evaluator, batches = payload
    records: list[EvaluatedDesign] = []
    for candidate, queries in batches:
        records.extend(evaluator.evaluate_query_batch(candidate, queries))
    return records
