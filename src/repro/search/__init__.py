"""Parallel Pareto search over cluster design spaces (Sections 5.4-5.5).

The paper's design-space exercise (Section 5.4) sweeps the Beefy/Wimpy
mixes of an 8-node cluster with the analytical model and reads the
resulting energy-vs-performance trade-off curves (Section 5.5 and
Figures 1b/10/11): which designs are worth considering at all, where the
knee sits, and which design is cheapest under a performance target.

This subsystem scales that exercise beyond the paper's single axis:

* :mod:`repro.search.grid` — multi-dimensional design grids: node-type
  pair x cluster size x Beefy/Wimpy split x DVFS state x execution mode
  (:class:`DesignGrid`, :class:`DesignCandidate`);
* :mod:`repro.search.evaluators` — pluggable point evaluators: the
  Section 5.3 analytical model (:class:`ModelEvaluator`), the fluid
  simulator (:class:`SimulatorEvaluator`), or any legacy callable
  (:class:`CallableEvaluator`);
* :mod:`repro.search.cache` — keyed memoization of evaluations
  (:class:`EvaluationCache`): repeated sweeps are near-free;
* :mod:`repro.search.engine` — :class:`DesignSpaceSearch`, which fans
  cache misses out over a persistent ``multiprocessing`` pool with
  chunked dispatch and returns a :class:`SearchResult`;
* :mod:`repro.search.pareto` — the selection layer: the
  :class:`Objective` registry, frontier extraction, knee location, the
  EDP optimum and :func:`best_under` (the Section 5.5/6 reading rules
  applied to raw points, under any declared axes);
* :mod:`repro.search.space` — sampleable design spaces
  (:class:`SearchSpace`): discrete :class:`ChoiceAxis` dimensions derived
  from grids plus open :class:`RangeAxis` dimensions (continuous DVFS
  ladders, wide size ranges) no grid could enumerate;
* :mod:`repro.search.optimize` — budgeted adaptive optimizers over those
  spaces (:class:`RandomSearch`, :class:`SuccessiveHalving`,
  :class:`LocalSearch`) driven by an :class:`OptimizationLoop`.

How a search executes
---------------------

One :meth:`DesignSpaceSearch.search` call runs a five-stage pipeline at
**(candidate x query entry)** granularity:

1. **flatten** — the workload is expanded into its weighted
   ``weighted_queries()`` entries, so a suite of K joins over N
   candidates is at most N x K entry tasks, never N opaque suite
   evaluations;
2. **dedupe** — tasks are keyed by (evaluator fingerprint, entry key,
   candidate key); identical tasks collapse to a single evaluation
   across candidates and workloads;
3. **cache** — surviving tasks consult the :class:`EvaluationCache`
   per entry (the workload-level aggregate key remains a derived fast
   path, so a fully warm sweep costs one lookup per design), and two
   mixes sharing member joins share their cached computation;
4. **dispatch** — cache misses run serially, or in deterministic chunks
   over the engine's persistent worker pool (created lazily, reused
   across searches, released via :meth:`DesignSpaceSearch.close` or the
   context-manager protocol); tasks ship grouped by candidate so
   evaluators amortize per-candidate setup across a batch:
   :class:`SimulatorEvaluator` builds one cluster and simulated store,
   and :class:`ModelEvaluator` one set of model parameters and one
   :class:`~repro.core.model.PStoreModel`, whose design constants are
   derived at construction (DVFS variants and power-model watts are
   shared through bounded memos), with records bit-identical to
   per-join evaluation;
5. **aggregate** — per-entry records are weight-summed back into
   :class:`EvaluatedDesign` records in entry order, bit-identically to
   the workload-granular rule (any infeasible entry makes the design
   infeasible with the first such entry's reason).

Every entry point accepts any :class:`~repro.workloads.protocol.Workload`
— a bare join spec, a weighted :class:`~repro.workloads.suite
.WorkloadSuite`, an arrival-trace mix — and the classic
:class:`~repro.core.design_space.DesignSpaceExplorer` delegates its
sweeps here, so the paper's figures, workload-level studies, and the
extended grids all run on the same engine.  The fluent
:class:`~repro.study.Study` facade is the friendly front door.

The timed path
--------------

A *timed* workload (:class:`~repro.workloads.protocol.TimedTrace`,
recognized structurally by :func:`~repro.workloads.protocol.is_timed`
via its ``schedule()`` accessor) short-circuits the per-entry pipeline
above: arrival times couple a trace's queries — a query's response time
depends on what else is in flight — so flattening to independent entry
tasks would erase exactly the queueing the trace exists to measure.
Instead the unit of evaluation, memoization, and dispatch is
**(candidate x whole trace)**:

1. **gate** — the evaluator must be stream-capable
   (``supports_timed``); only :class:`SimulatorEvaluator` ships it, and
   the engine raises rather than silently degrading to weights;
2. **cache** — records are keyed by (evaluator fingerprint, the trace's
   *time-inclusive* ``cache_key()``, candidate key), so timed rows never
   collide with — and are never served from — weights-only rows, and the
   weights-only path keeps its existing keys bit for bit;
3. **dispatch** — cache misses are evaluated as a *batch*
   (:meth:`SimulatorEvaluator.evaluate_trace_batch
   <repro.search.evaluators.SimulatorEvaluator.evaluate_trace_batch>`):
   every candidate's trace replay advances together on one
   event-multiplexed loop
   (:func:`~repro.simulator.multiplex.run_multiplexed`), which batches
   the per-event simulator math — max-min fair allocation, volume
   decrements, utilization → power → energy integration — into numpy
   kernels across candidates while reproducing the serial
   :meth:`~repro.pstore.simulated.SimulatedPStore.run_trace` oracle bit
   for bit (~15× on `BENCH_stream.json`; property-tested in
   ``tests/simulator/test_multiplex.py``).  Parallel dispatch chunks
   candidates over the persistent pool and multiplexes within each
   chunk (the cheap-batch threshold counts candidates x arrival events,
   since each replay simulates every arrival); a candidate whose replay
   fails inside the loop (replica coverage lost, every job dropped, a
   stall) leaves it alone and becomes the infeasible record its serial
   replay makes, while its batchmates finish, so error isolation matches
   the one-at-a-time path; only a loop error no single candidate owns
   sends the batch to serial replay;
4. **score** — each record's ``time_s`` is the stream's makespan,
   ``energy_j`` the total including idle gaps between arrivals, and
   ``latency`` a :class:`~repro.search.evaluators.LatencyProfile`
   (mean/p50/p95/p99/worst-case response time under queueing), which
   the ``response_*_s`` objectives of :meth:`SearchResult.best_under`
   and the export columns of the same names read.

Adaptive search
---------------

When the space outgrows enumeration, :meth:`Study.optimize
<repro.study.Study.optimize>` (or a hand-built :class:`OptimizationLoop`)
searches it adaptively.  One optimization executes as its own loop *on
top of* the five-stage pipeline above:

1. **propose** — the :class:`Optimizer` asks for a batch: seeded samples
   (:class:`RandomSearch`), a racing pool with an entry-count rung
   (:class:`SuccessiveHalving`), or mutants of the current frontier
   (:class:`LocalSearch`), all drawn from a :class:`SearchSpace` whose
   axes may be grid-derived choices or open ranges;
2. **evaluate** — :meth:`DesignSpaceSearch.evaluate_batch` runs the batch
   through the ordinary search pipeline (dedupe by candidate key, label
   collisions suffixed), so per-entry memoization, the
   :class:`EvaluationCache`, and the persistent pool are reused verbatim
   and every record is bit-identical to a grid sweep of that candidate;
3. **subsample** — partial-fidelity rungs score candidates on the
   heaviest-weight prefix of the workload's entries; promotion to a
   larger rung pays only for the entries it adds, because the per-entry
   cache rows are workload-independent;
4. **archive** — full-fidelity records accumulate in the Pareto archive
   (the eventual :class:`~repro.study.OptimizationResult` points), and
   each batch appends an evaluations-vs-frontier-quality
   :class:`TrajectoryPoint`;
5. **stop** — on the optimizer finishing, the fresh-evaluation budget
   running out, or ``patience`` batches without a frontier change.

Because optimizer evaluations and grid sweeps share one keyspace, an
optimization warms a later exhaustive sweep (and vice versa): on the
216-design reference space, seeded :class:`SuccessiveHalving` recovers
the exhaustive knee with roughly a third of the grid's fresh
evaluations.

Dynamic control policies
------------------------

``SearchSpace(..., policies=(...))`` (or
:meth:`SearchSpace.from_grid(grid, policies=...)
<repro.search.space.SearchSpace.from_grid>`) crosses every design with a
:class:`~repro.policy.policies.ControlPolicy`, making **(design x
policy)** the searched object: each point is a
:class:`~repro.search.grid.DesignCandidate` whose ``policy`` field is
set (:meth:`~repro.search.grid.DesignCandidate.with_policy` labels it
``{design}|{policy}`` and namespaces its ``key()``), so enumeration,
memoization, Pareto ranking, SLA selection, and export all apply
unchanged.  On timed traces the evaluator replays policy-bearing
candidates with the policy in charge of node power states and per-node
DVFS (control ticks every ``control_interval_s``); dynamic policies
cannot share the event-multiplexed loop — control ticks are
per-candidate events — so they fall back to serial replay automatically
while static policies and bare designs stay on the fast path.  Records
gain ``policy`` / ``gated_node_seconds`` / ``energy_saved_j``
annotations, and policy keys are disjoint from design-only keys in both
directions, so a cached design row can never masquerade as a policy run
(nor vice versa).

Evaluating under failure
------------------------

The frontier above assumes every node stays healthy for the whole
trace; :mod:`repro.faults` asks what the same candidates cost when they
do not.  ``trace.with_faults(schedule)`` binds a timed trace to a
:class:`~repro.faults.schedule.FaultSchedule` of typed, seeded events —
:class:`~repro.faults.schedule.NodeCrash` (a forced power-gate with
zero notice, recovery priced as a reboot),
:class:`~repro.faults.schedule.Straggler` (a DVFS-style frequency
multiplier), :class:`~repro.faults.schedule.NetworkDegrade` (scaled
switch capacity) — built by hand or by the canonical generators
(:func:`~repro.faults.generators.random_crashes`,
:func:`~repro.faults.generators.rolling_restart`,
:func:`~repro.faults.generators.correlated_rack_failure`).  The
resulting :class:`~repro.faults.trace.FaultedTrace` satisfies the timed
protocol, so ``search(grid, trace.with_faults(...))`` needs no new
entry point:

1. **routing** — a non-empty schedule rides the multiplexed fast path:
   each lane drives the serial loop's own node-state machine and fault
   source (node indices wrap per cluster size, retry backoffs reschedule
   per run), so degraded records are bit-identical to serial replay.
   Only dynamic policies leave the loop, as they do without faults; a
   lane that loses replica coverage or drops every job sends its batch
   to serial replay.  An *empty* schedule is bit-identical to the bare
   trace;
2. **failure semantics** — a crash kills every in-flight job owning the
   dead node; the :class:`~repro.faults.schedule.FailurePolicy` either
   re-queues them with capped exponential backoff
   (:meth:`~repro.faults.schedule.FailurePolicy.abort_and_retry`, the
   default) or sheds them (:meth:`~repro.faults.schedule.FailurePolicy
   .drop`).  With ``replication_factor`` set, each candidate gets a
   chained-declustering :class:`~repro.pstore.replication
   .ReplicatedLayout` sized to its cluster, and a crash stranding every
   copy of a partition makes the candidate infeasible-under-fault
   (a :class:`~repro.errors.SimulationError` naming the lost
   partitions) instead of silently continuing;
3. **cache** — ``FaultedTrace.cache_key()`` namespaces the trace's key
   with the schedule's, the failure policy's, and the replication
   settings, so degraded rows and healthy rows can never be served for
   each other;
4. **score** — degraded records put their response-time profile in
   ``degraded_latency`` (``latency`` stays ``None``), plus
   ``recovery_energy_j``, ``retried_jobs``, ``dropped_jobs``, and
   ``faults_survived``; limiting the ``degraded_response_*_s`` and
   ``dropped_jobs`` objectives of :meth:`SearchResult.best_under` then
   selects the cheapest design that meets its SLA *while failing*,
   which is generally not the design the ``response_*_s`` limit picks
   at full health — that gap is the resilience premium the study
   measures.  The
   ``degraded_response_*_s`` / ``recovery_energy_j`` / ``retried_jobs``
   / ``dropped_jobs`` / ``faults_survived`` export columns carry all of
   it to CSV/JSON.

The search engine itself also tolerates faults on the *host* running
it: a worker-pool chunk that dies (worker crash, unpicklable result)
is retried once serially in-process, logged to the
``repro.search.engine`` logger, and counted on
:attr:`SearchResult.dispatch_retries`.

Multi-objective selection and TCO
---------------------------------

The paper reads a two-dimensional (time, energy) cloud; real
procurement decisions also price dollars and grams of CO₂.
:mod:`repro.costmodel` and :mod:`repro.search.pareto` make those
first-class objectives through the same stack:

1. **pricing** — a :class:`~repro.costmodel.model.CostModel` (per-node
   capex $/h, energy tariff $/kWh, grid carbon intensity gCO₂/kWh —
   flat or a time-of-day
   :class:`~repro.costmodel.carbon.CarbonIntensityCurve`) attaches to
   any evaluator (``cost_model=``) or study
   (:meth:`Study.with_cost_model <repro.study.Study.with_cost_model>`);
   every feasible record then carries ``carbon_g`` / ``price_usd``.
   Weights-only evaluations price carbon at the curve's cycle mean; a
   timed simulator replay integrates the curve *exactly* against its
   piecewise-constant power timeline (inside the multiplexed loop for
   a batch, over recorded intervals for a serial replay, with the same
   bits), so a diurnal gating policy earns its true trough-time carbon
   credit.  Cost aggregation is linear in
   (time, energy), so weight-summed suites price exactly; priced
   records cache under cost-model-fingerprinted keys, disjoint from
   unpriced rows;
2. **objectives** — :func:`pareto_frontier` / :func:`knee_point` (and
   the :class:`SearchResult` / :class:`~repro.study.StudyResult`
   methods, and ``Study.optimize(objectives=...)``) accept an
   ``objectives=`` axis list — registered names (``time_s``,
   ``energy_j``, ``edp``, ``price_usd``, ``carbon_g``, the
   ``response_*_s`` and ``degraded_response_*_s`` statistics,
   ``dropped_jobs``) or custom :class:`Objective` instances; the
   default is ``("time_s", "energy_j")``.  Dominance is componentwise;
   beyond two axes the knee generalizes from max-chord-distance to
   max-distance-from-the-endpoint-simplex (the hyperplane through the
   frontier's per-axis minimizers, which in two dimensions *is* the
   chord);
3. **constrained picks** — :func:`best_under` (and
   :meth:`SearchResult.best_under`) takes upper bounds on any
   objectives and minimizes one of them (energy by default), so a
   latency target and a budget can bind together.  Each question the
   paper and its extensions ask is one call (``m`` is ``mean``,
   ``p50``, ``p95``, ``p99`` or ``max``):

   =======================================  =====================================================================
   question                                 call
   =======================================  =====================================================================
   least energy within a response-time SLA  ``best_under(p, {"time_s": T})``
   least energy within a per-query SLA      ``best_under(p, {f"response_{m}_s": T})``
   ... under faults, shedding no query      ``best_under(p, {f"degraded_response_{m}_s": T, "dropped_jobs": 0})``
   fastest within a dollar budget           ``best_under(p, {"price_usd": usd}, minimize="time_s")``
   fastest within a carbon cap              ``best_under(p, {"carbon_g": g}, minimize="time_s")``
   =======================================  =====================================================================

   Omitting the ``dropped_jobs`` limit admits designs that shed
   queries.  :func:`best_under_latency_sla` and
   :func:`best_under_degraded_sla` (``allow_drops=`` omits that limit)
   are one-line spellings of the second and third rows;
4. **compatibility** — with no cost model and no ``objectives=``
   argument, every record, frontier, knee, and constrained pick is
   bit-identical to the classic behaviour (pinned in
   ``tests/search/test_selection_pins.py``, and property-tested against
   the classic two-axis sweep and chord).

``examples/tco_study.py`` walks the 216-design diurnal campaign where
the energy-, price-, and carbon-optimal picks diverge;
``benchmarks/test_cost.py`` gates default-path parity and the exact
time-of-day integration.

Observing a search
------------------

:mod:`repro.telemetry` watches the whole pipeline above from the
inside.  ``repro.telemetry.enable()`` turns on a process-local registry
of counters and nested timed spans; every subsequent search records

* a root ``search`` span with one child per pipeline stage
  (``search.flatten`` / ``search.cache`` / ``search.dedupe`` /
  ``search.dispatch`` / ``search.aggregate``),
* ``cache.hit`` / ``cache.miss`` / ``cache.insert`` counters from the
  :class:`EvaluationCache` (plus ``cache.lock_retries`` when parallel
  shards contend for one sqlite store),
* per-chunk ``worker.chunk`` spans measured *inside* each pool worker
  and merged back under ``search.dispatch`` over the ordinary
  chunk-result channel, with ``search.dispatch.tasks`` / ``.chunks`` /
  ``.retries`` counters,
* simulator-side counters (``sim.events``, ``sim.control.*``,
  ``sim.faults.*``, ``sim.multiplex.*``) from whichever replay path the
  evaluation takes.

``Study.report()`` renders the registry as a stage-time breakdown,
:func:`repro.analysis.export.telemetry_to_json` serializes it, and
``examples/telemetry_report.py`` walks the reference 216-design
campaign.  Telemetry changes no result: counts are deterministic at a
fixed seed, wall times are measurements only (never part of a cache
key), and with telemetry disabled — the default — every hook is a
no-op (``benchmarks/test_telemetry.py`` gates the enabled overhead).

>>> from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
>>> from repro.search import DesignGrid, DesignSpaceSearch
>>> from repro.workloads.queries import section54_join
>>> grid = DesignGrid.paper_axis(CLUSTER_V_NODE, WIMPY_LAPTOP_B, 8)
>>> result = DesignSpaceSearch().search(grid, section54_join())
>>> len(result.pareto_frontier()) >= 1
True
"""

from repro.search.cache import CacheStats, EvaluationCache
from repro.search.engine import (
    DEFAULT_MIN_DISPATCH_TASKS,
    DesignSpaceSearch,
    SearchResult,
)
from repro.search.evaluators import (
    CallableEvaluator,
    EvaluatedDesign,
    LatencyProfile,
    ModelEvaluator,
    SearchEvaluator,
    SimulatorEvaluator,
)
from repro.search.grid import DesignCandidate, DesignGrid
from repro.search.optimize import (
    LocalSearch,
    OptimizationLoop,
    Optimizer,
    Proposal,
    RandomSearch,
    SuccessiveHalving,
    TrajectoryPoint,
    build_optimizer,
)
from repro.search.pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    best_under,
    best_under_degraded_sla,
    best_under_latency_sla,
    dominates,
    edp_optimal,
    knee_point,
    pareto_frontier,
    register_objective,
    resolve_objectives,
)
from repro.search.space import ChoiceAxis, RangeAxis, SearchSpace

__all__ = [
    "CacheStats",
    "CallableEvaluator",
    "ChoiceAxis",
    "DEFAULT_MIN_DISPATCH_TASKS",
    "DEFAULT_OBJECTIVES",
    "DesignCandidate",
    "DesignGrid",
    "DesignSpaceSearch",
    "EvaluatedDesign",
    "EvaluationCache",
    "LatencyProfile",
    "LocalSearch",
    "ModelEvaluator",
    "Objective",
    "OptimizationLoop",
    "Optimizer",
    "Proposal",
    "RandomSearch",
    "RangeAxis",
    "SearchEvaluator",
    "SearchResult",
    "SearchSpace",
    "SimulatorEvaluator",
    "SuccessiveHalving",
    "TrajectoryPoint",
    "best_under",
    "best_under_degraded_sla",
    "best_under_latency_sla",
    "build_optimizer",
    "dominates",
    "edp_optimal",
    "knee_point",
    "pareto_frontier",
    "register_objective",
    "resolve_objectives",
]
