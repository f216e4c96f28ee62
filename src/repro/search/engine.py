"""The parallel, memoized design-space search engine.

:class:`DesignSpaceSearch` evaluates every point of a
:class:`~repro.search.grid.DesignGrid` (or an explicit candidate list)
through a pluggable evaluator.  Since the query-granularity redesign the
unit of evaluation, memoization, and parallel dispatch is **(candidate x
query entry)**, not (candidate x workload); one search executes as a
five-stage pipeline:

1. **flatten** — the workload is expanded into its ``weighted_queries()``
   entries; a suite of K joins over N candidates becomes at most N x K
   entry tasks;
2. **dedupe** — tasks are keyed by (evaluator fingerprint, entry key,
   candidate key) and identical tasks collapse to one evaluation, across
   candidates and across workloads;
3. **cache** — each surviving task consults the
   :class:`~repro.search.cache.EvaluationCache`; the workload-level
   aggregate key is kept as a derived fast path, so a fully warm design
   costs one lookup and pre-redesign caches stay valid;
4. **dispatch** — cache misses run serially or fan out in deterministic
   chunks over a persistent ``multiprocessing`` pool owned by the engine
   (lazily created, reused across ``search()`` calls, released by
   :meth:`DesignSpaceSearch.close` or the context-manager protocol);
   tasks ship grouped by candidate so evaluators can amortize
   per-candidate setup (:meth:`~repro.search.evaluators.SearchEvaluator
   .evaluate_query_batch`);
5. **aggregate** — per-entry records are weight-summed back into
   :class:`~repro.search.evaluators.EvaluatedDesign` records in entry
   order, bit-identically to the workload-granular rule (any infeasible
   entry makes the design infeasible, with the first entry's reason).

Because entries are cached under workload-independent keys
(:func:`~repro.workloads.protocol.entry_cache_key`), two mixes sharing
member joins share their computation: a suite sweep after a single-join
search performs zero fresh evaluations for the shared entry.

Searches accept any :class:`~repro.workloads.protocol.Workload` — a bare
join spec, a :class:`~repro.workloads.suite.WorkloadSuite`, an
arrival-trace mix.  *Timed* workloads
(:class:`~repro.workloads.protocol.TimedTrace`) bypass the per-entry
pipeline: arrival times couple a trace's queries, so those evaluate at
(candidate x whole trace) granularity under time-inclusive cache keys
(see :meth:`DesignSpaceSearch._search_timed`), and their records carry
response-time profiles.  The resulting :class:`SearchResult` carries the
evaluated points in grid order plus the paper's selection rules (Pareto
frontier, knee, EDP optimum, and :meth:`SearchResult.best_under` — the
least-energy design within an SLA, a latency target over timed records,
a budget, or any mix of them).
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import pickle
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError, ModelError
from repro.search.cache import EvaluationCache
from repro.search.evaluators import (
    EvaluatedDesign,
    ModelEvaluator,
    SearchEvaluator,
    evaluate_entry_chunk,
    evaluate_instrumented_chunk,
    evaluate_trace_chunk,
)
from repro.search.grid import DesignCandidate, DesignGrid, unique_labels
from repro.telemetry import get_telemetry
from repro.search.pareto import (
    Objective,
    best_under,
    edp_optimal,
    knee_point,
    pareto_frontier,
)
from repro.workloads.protocol import (
    WeightedQuery,
    Workload,
    as_workload,
    entry_cache_key,
    is_timed,
)
from repro.workloads.queries import JoinWorkloadSpec

__all__ = ["DEFAULT_MIN_DISPATCH_TASKS", "DesignSpaceSearch", "SearchResult"]

#: the module's logger — ``repro.search.engine``, a child of ``repro.search``
#: (handlers or caplog filters on either name observe these records)
_LOG = logging.getLogger(__name__)

#: Smallest fresh-task batch worth shipping to the worker pool.  Measured
#: on the ``BENCH_search.json`` container (2 workers, warm pool): one
#: parallel dispatch costs ~2-10 ms in IPC and chunk bookkeeping, so
#: batches under ~64 tasks never recover it — a 64-task ModelEvaluator
#: batch computes in ~3 ms serially (~40 us per point) and even 64
#: ~1.3 ms SimulatorEvaluator tasks finish faster in-process.  The
#: 1296-task campaign the benchmark tracks still wins 2.1x parallel.
DEFAULT_MIN_DISPATCH_TASKS = 64


@dataclass
class SearchResult:
    """Outcome of one :meth:`DesignSpaceSearch.search` call."""

    workload: Workload
    points: list[EvaluatedDesign] = field(repr=False)
    #: designs that needed fresh evaluator work (0 on a cached re-sweep)
    evaluations: int = 0
    #: designs served entirely from the evaluation cache
    cache_hits: int = 0
    #: worker processes actually used (1 = serial path)
    workers_used: int = 1
    #: fresh per-entry ``evaluate_query`` tasks dispatched, after dedupe
    #: (timed searches count the arrival events each fresh trace replay
    #: simulated, so the budget currency stays "query executions")
    query_evaluations: int = 0
    #: worker-pool chunks that died (worker crash, unpicklable result)
    #: and were recovered by serial in-process retry
    dispatch_retries: int = 0

    def __post_init__(self) -> None:
        self.workload = as_workload(self.workload)

    @property
    def query(self) -> JoinWorkloadSpec:
        """The sole underlying join of a single-query search (legacy API)."""
        entries = self.workload.weighted_queries()
        if len(entries) == 1:
            return entries[0].query
        raise ModelError(
            f"workload {self.workload.name!r} has {len(entries)} queries; "
            "use .workload instead of .query"
        )

    # ------------------------------------------------------------ selection
    @property
    def feasible_points(self) -> list[EvaluatedDesign]:
        return [p for p in self.points if p.feasible]

    @property
    def infeasible_points(self) -> list[EvaluatedDesign]:
        return [p for p in self.points if not p.feasible]

    def pareto_frontier(
        self, objectives: Sequence | None = None
    ) -> list[EvaluatedDesign]:
        """Non-dominated points, in objective order (fastest first).

        ``objectives`` — names or :class:`~repro.search.pareto.Objective`
        instances, e.g. ``("time_s", "energy_j", "price_usd")`` — selects
        the frontier in those dimensions; ``None`` is the classic (time,
        energy) pair.
        """
        return pareto_frontier(self.points, objectives=objectives)

    def knee(self, objectives: Sequence | None = None) -> EvaluatedDesign:
        """The frontier's knee (max distance from the endpoint chord).

        With more than two ``objectives`` the chord generalizes to the
        endpoint simplex through the frontier's per-axis minimizers.
        """
        return knee_point(self.points, objectives=objectives)

    def edp_optimal(self) -> EvaluatedDesign:
        """The minimum energy-delay-product design."""
        return edp_optimal(self.points)

    def best_under(
        self, limits: Mapping, minimize: str | Objective = "energy_j"
    ) -> EvaluatedDesign:
        """The design minimizing ``minimize`` within upper ``limits``.

        ``{"time_s": 30.0}`` is a response-time SLA,
        ``{"response_p99_s": 2.0}`` a per-query latency target on timed
        records, ``{"price_usd": 5.0}`` with ``minimize="time_s"`` the
        fastest design within a budget; see
        :func:`~repro.search.pareto.best_under`.
        """
        return best_under(self.points, limits, minimize=minimize)

    def point(self, label: str) -> EvaluatedDesign:
        for p in self.points:
            if p.label == label:
                return p
        raise ModelError(f"no design point {label!r}")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _aggregate_entries(
    candidate: DesignCandidate,
    entries: Sequence[WeightedQuery],
    records: Sequence[EvaluatedDesign],
) -> EvaluatedDesign:
    """Weight-sum per-entry records into one design record.

    Bit-identical to the workload-granular rule this replaced: a
    single-entry unit-weight workload keeps its per-query record
    (prediction attached); otherwise times and energies accumulate in
    entry order, and the first infeasible entry makes the whole design
    infeasible with that entry's reason.

    Cost-model annotations weight-sum the same way — pricing is linear
    in (time, energy), so summed per-entry costs equal the cost of the
    summed totals exactly.  They aggregate only when *every* entry
    carries them (a mixed cache — some entries priced before the cost
    model was attached — must not fabricate a partial total); unpriced
    records keep ``None`` and the aggregate is bit-identical to before.
    """
    if len(entries) == 1 and entries[0].weight == 1.0:
        record = records[0]
        if record.candidate is not candidate:
            record = replace(record, candidate=candidate)
        return record
    for record in records:
        if not record.feasible:
            return EvaluatedDesign(
                candidate=candidate,
                time_s=float("inf"),
                energy_j=float("inf"),
                feasible=False,
                infeasible_reason=record.infeasible_reason,
            )
    total_time = 0.0
    total_energy = 0.0
    total_carbon = 0.0
    total_price = 0.0
    priced = bool(records)
    for entry, record in zip(entries, records):
        total_time += entry.weight * record.time_s
        total_energy += entry.weight * record.energy_j
        if record.carbon_g is None or record.price_usd is None:
            priced = False
        elif priced:
            total_carbon += entry.weight * record.carbon_g
            total_price += entry.weight * record.price_usd
    return EvaluatedDesign(
        candidate=candidate,
        time_s=total_time,
        energy_j=total_energy,
        carbon_g=total_carbon if priced else None,
        price_usd=total_price if priced else None,
    )


def _batch_tasks(
    tasks: Sequence[tuple[DesignCandidate, JoinWorkloadSpec]],
) -> list[tuple[DesignCandidate, list[JoinWorkloadSpec]]]:
    """Group consecutive same-candidate tasks into (candidate, queries).

    The task list is built candidate-major, so grouping runs of the same
    candidate preserves task order while letting evaluators amortize
    per-candidate setup across a whole batch.
    """
    batches: list[tuple[DesignCandidate, list[JoinWorkloadSpec]]] = []
    for candidate, query in tasks:
        if batches and batches[-1][0] is candidate:
            batches[-1][1].append(query)
        else:
            batches.append((candidate, [query]))
    return batches


class DesignSpaceSearch:
    """Enumerate, memoize, and (optionally in parallel) evaluate a grid.

    ``workers=1`` evaluates serially in-process; ``workers=n`` fans cache
    misses out over a persistent ``n``-process pool in chunks of
    ``chunk_size`` entry tasks (default: enough chunks to give each worker
    about four).  Batches smaller than ``min_dispatch_tasks`` stay serial
    even on a parallel engine: a :class:`~repro.search.evaluators
    .ModelEvaluator` point costs ~40 us while one pool dispatch costs
    milliseconds, so tiny batches — warm re-sweeps with a few misses, an
    optimizer's final rungs — would pay IPC for nothing (pass
    ``min_dispatch_tasks=1`` to force fan-out regardless).  The pool is
    created lazily on the first parallel dispatch and reused across
    ``search()`` calls — a :class:`~repro.study.Study` issuing many
    searches pays the spin-up once.  Release it with :meth:`close` or use
    the engine as a context manager::

        with DesignSpaceSearch(workers=4) as engine:
            engine.search(grid, suite_a)
            engine.search(grid, suite_b)  # same pool, shared entry memo

    Unpicklable evaluators (e.g. lambda-backed :class:`CallableEvaluator`)
    degrade to the serial path automatically; the pickling verdict is
    probed once and cached per engine.

    Parallel dispatch is fault tolerant at chunk granularity: a chunk
    whose worker dies mid-task or whose result cannot cross the process
    boundary (unpicklable record, corrupted pipe) is retried **once,
    serially in-process**, so one bad worker costs latency rather than
    the whole search.  Retries are logged to the ``repro.search.engine``
    logger (a child of ``repro.search``; see
    :func:`repro.telemetry.configure_logging`) and counted on
    :attr:`SearchResult.dispatch_retries`.
    ``chunk_timeout_s`` optionally bounds how long one chunk may run
    before it is declared lost and retried — the guard against the
    ``multiprocessing`` failure mode where a hard-killed worker's task
    would otherwise be awaited forever (``None``, the default, trusts
    the pool to report worker death, which it does for ordinary
    crashes).
    """

    def __init__(
        self,
        evaluator: SearchEvaluator | None = None,
        workers: int = 1,
        chunk_size: int | None = None,
        cache: EvaluationCache | None = None,
        min_dispatch_tasks: int = DEFAULT_MIN_DISPATCH_TASKS,
        chunk_timeout_s: float | None = None,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if min_dispatch_tasks < 1:
            raise ConfigurationError(
                f"min_dispatch_tasks must be >= 1, got {min_dispatch_tasks}"
            )
        if chunk_timeout_s is not None and chunk_timeout_s <= 0:
            raise ConfigurationError(
                f"chunk_timeout_s must be > 0, got {chunk_timeout_s}"
            )
        self.evaluator = evaluator if evaluator is not None else ModelEvaluator()
        self.workers = workers
        self.chunk_size = chunk_size
        self.min_dispatch_tasks = min_dispatch_tasks
        self.chunk_timeout_s = chunk_timeout_s
        self.cache = cache if cache is not None else EvaluationCache()
        self._pool = None
        self._evaluator_picklable: bool | None = None

    # ---------------------------------------------------------------- public
    def search(
        self,
        space: DesignGrid | Iterable[DesignCandidate],
        workload: Workload | JoinWorkloadSpec,
    ) -> SearchResult:
        """Evaluate every point of ``space`` for ``workload``.

        ``workload`` is anything satisfying the
        :class:`~repro.workloads.protocol.Workload` protocol — a bare
        :class:`JoinWorkloadSpec`, a :class:`~repro.workloads.suite
        .WorkloadSuite`, an arrival-trace mix.  Evaluation runs at
        (candidate x entry) granularity: member joins are deduped,
        memoized, and dispatched individually, then weight-summed back
        into design records (see the module docstring for the pipeline).
        Points come back in enumeration order; infeasible designs are
        kept (with ``feasible=False``) so callers can report coverage.
        """
        workload = as_workload(workload)
        candidates = (
            space.candidate_list() if isinstance(space, DesignGrid) else list(space)
        )
        if not candidates:
            raise ConfigurationError("the design space is empty")
        unique_labels(candidates)
        telemetry = get_telemetry()
        if is_timed(workload):
            with telemetry.span("search"):
                return self._search_timed(candidates, workload)

        with telemetry.span("search"):
            with telemetry.span("search.flatten"):
                fingerprint = self.evaluator.fingerprint()
                workload_key = workload.cache_key()
                entries = workload.weighted_queries()
                entry_keys = [entry_cache_key(entry.query) for entry in entries]
                candidate_keys = [c.key() for c in candidates]
                aggregate_keys = [
                    (fingerprint, workload_key, ck) for ck in candidate_keys
                ]
                # For a single join the aggregate key IS the entry key; skip
                # the redundant second lookup on that tier.
                entry_is_aggregate = (
                    len(entry_keys) == 1 and entry_keys[0] == workload_key
                )

            # --------------------------------------- aggregate fast path
            resolved: dict[int, EvaluatedDesign] = {}
            pending: list[int] = []
            with telemetry.span("search.cache"):
                for index, key in enumerate(aggregate_keys):
                    cached = self.cache.get(key)
                    if cached is None:
                        pending.append(index)
                    else:
                        # Rebind the requested candidate: cache keys
                        # deliberately ignore display labels, so a hit may
                        # carry the label of the grid that populated it.
                        if cached.candidate is not candidates[index]:
                            cached = replace(cached, candidate=candidates[index])
                        resolved[index] = cached

            # --------------------- flatten + dedupe + per-entry lookup
            entry_records: dict[tuple, EvaluatedDesign | None] = {}
            tasks: list[tuple[tuple, DesignCandidate, JoinWorkloadSpec]] = []
            with telemetry.span("search.dedupe"):
                for index in pending:
                    for position, entry_key in enumerate(entry_keys):
                        task_key = (fingerprint, entry_key, candidate_keys[index])
                        if task_key in entry_records:
                            continue  # deduped: another candidate/entry owns it
                        cached = (
                            None
                            if entry_is_aggregate
                            else self.cache.get(task_key)
                        )
                        entry_records[task_key] = cached
                        if cached is None:
                            tasks.append(
                                (
                                    task_key,
                                    candidates[index],
                                    entries[position].query,
                                )
                            )

            # -------------------------------------------------- dispatch
            workers_used = 1
            dispatch_retries = 0
            with telemetry.span("search.dispatch"):
                if tasks:
                    telemetry.count("search.dispatch.tasks", len(tasks))
                    fresh, workers_used, dispatch_retries = self._evaluate(
                        [(candidate, query) for _, candidate, query in tasks]
                    )
                    for (task_key, _, _), record in zip(tasks, fresh):
                        entry_records[task_key] = record
                        self.cache.put(task_key, record)
            fresh_keys = {task_key for task_key, _, _ in tasks}

            # ------------------------------------------------- aggregate
            evaluations = 0
            with telemetry.span("search.aggregate"):
                for index in pending:
                    task_keys = [
                        (fingerprint, entry_key, candidate_keys[index])
                        for entry_key in entry_keys
                    ]
                    point = _aggregate_entries(
                        candidates[index],
                        entries,
                        [entry_records[key] for key in task_keys],
                    )
                    resolved[index] = point
                    if any(key in fresh_keys for key in task_keys):
                        evaluations += 1
                    if not entry_is_aggregate:
                        self.cache.put(aggregate_keys[index], point)

            telemetry.count("search.runs")
            return SearchResult(
                workload=workload,
                points=[resolved[i] for i in range(len(candidates))],
                evaluations=evaluations,
                cache_hits=len(candidates) - evaluations,
                workers_used=workers_used,
                query_evaluations=len(tasks),
                dispatch_retries=dispatch_retries,
            )

    def evaluate_batch(
        self,
        candidates: Iterable[DesignCandidate],
        workload: Workload | JoinWorkloadSpec,
    ) -> SearchResult:
        """Evaluate an optimizer-proposed batch of candidates.

        The batch hook behind :class:`~repro.search.optimize
        .OptimizationLoop`: unlike :meth:`search`, the batch need not be
        curated — candidates proposed by samplers and mutators may repeat
        (same :meth:`~repro.search.grid.DesignCandidate.key`) or collide
        on display labels (two continuous DVFS states rounding to one
        label).  Duplicates by key collapse to a single point, and label
        collisions between *distinct* designs are suffixed ``~2``, ``~3``,
        ... so the underlying search stays well-formed.  Points come back
        in first-occurrence order; cache keys are exactly :meth:`search`
        keys, so optimizer evaluations and grid sweeps share one memo.
        """
        deduped: list[DesignCandidate] = []
        seen_keys: set[tuple] = set()
        label_counts: dict[str, int] = {}
        for candidate in candidates:
            key = candidate.key()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            count = label_counts.get(candidate.label, 0) + 1
            label_counts[candidate.label] = count
            if count > 1:
                candidate = replace(
                    candidate, label=f"{candidate.label}~{count}"
                )
            deduped.append(candidate)
        return self.search(deduped, workload)

    # ------------------------------------------------------------ timed path
    def _search_timed(
        self, candidates: list[DesignCandidate], workload: Workload
    ) -> SearchResult:
        """Evaluate a timed workload: whole-trace replay per candidate.

        Arrival times couple a trace's queries (a query's response time
        depends on what else is in flight), so the unit of evaluation,
        memoization, and dispatch is **(candidate x trace)** — there is
        no per-entry tier.  Records are cached under
        ``(fingerprint, trace cache_key, candidate key)``; the trace's
        time-inclusive ``cache_key()`` keeps timed rows disjoint from
        every weights-only key, so the untimed path is untouched.
        """
        if not getattr(self.evaluator, "supports_timed", False):
            raise ConfigurationError(
                f"evaluator {type(self.evaluator).__name__} cannot simulate "
                f"arrival times, so the timed workload {workload.name!r} "
                "cannot be scored on response time under queueing.  Use a "
                "stream-capable evaluator (e.g. SimulatorEvaluator), or "
                "evaluate the weights-only projection "
                "(trace.weights_only())."
            )
        telemetry = get_telemetry()
        fingerprint = self.evaluator.fingerprint()
        workload_key = workload.cache_key()
        keys = [(fingerprint, workload_key, c.key()) for c in candidates]

        resolved: dict[int, EvaluatedDesign] = {}
        tasks: list[tuple[tuple, DesignCandidate]] = []
        task_keys: set[tuple] = set()
        pending: list[int] = []
        with telemetry.span("search.cache"):
            for index, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    if cached.candidate is not candidates[index]:
                        cached = replace(cached, candidate=candidates[index])
                    resolved[index] = cached
                    continue
                pending.append(index)
                if key not in task_keys:  # dedupe: equal-key candidates share one replay
                    task_keys.add(key)
                    tasks.append((key, candidates[index]))

        fresh: dict[tuple, EvaluatedDesign] = {}
        workers_used = 1
        dispatch_retries = 0
        with telemetry.span("search.dispatch"):
            if tasks:
                telemetry.count("search.dispatch.traces", len(tasks))
                records, workers_used, dispatch_retries = self._evaluate_timed(
                    workload, [candidate for _, candidate in tasks]
                )
                for (key, _), record in zip(tasks, records):
                    fresh[key] = record
                    self.cache.put(key, record)
        with telemetry.span("search.aggregate"):
            for index in pending:
                record = fresh[keys[index]]
                if record.candidate is not candidates[index]:
                    record = replace(record, candidate=candidates[index])
                resolved[index] = record

        telemetry.count("search.timed_runs")
        num_events = len(workload.schedule())
        return SearchResult(
            workload=workload,
            points=[resolved[i] for i in range(len(candidates))],
            evaluations=len(pending),
            cache_hits=len(candidates) - len(pending),
            workers_used=workers_used,
            query_evaluations=len(tasks) * num_events,
            dispatch_retries=dispatch_retries,
        )

    def _evaluate_timed(
        self, workload: Workload, candidates: Sequence[DesignCandidate]
    ) -> tuple[list[EvaluatedDesign], int, int]:
        """Replay the trace on uncached candidates; (records, workers,
        chunk retries).

        The cheap-batch threshold counts *simulated jobs* (candidates x
        arrival events), not candidates: one trace replay costs roughly
        one simulator run per event, so a 4-candidate x 32-event batch is
        real work worth shipping to the pool.

        Both paths funnel through
        :meth:`~repro.search.evaluators.SearchEvaluator
        .evaluate_trace_batch` (serially as one batch, in parallel as one
        batch per chunk), so a stream-capable evaluator advances the
        whole batch on one multiplexed event loop instead of replaying
        designs one by one — with records guaranteed identical to the
        per-candidate serial loop.
        """
        num_events = len(workload.schedule())
        workers = min(self.workers, len(candidates))
        if len(candidates) * num_events < self.min_dispatch_tasks:
            workers = 1
        if workers > 1 and not self._dispatchable((candidates[0], workload)):
            workers = 1
        if workers <= 1:
            return self.evaluator.evaluate_trace_batch(
                workload, list(candidates)
            ), 1, 0

        chunk = self.chunk_size or max(1, math.ceil(len(candidates) / (workers * 4)))
        payloads = [
            (self.evaluator, workload, list(candidates[start : start + chunk]))
            for start in range(0, len(candidates), chunk)
        ]
        chunked, retries = self._map_with_retry(evaluate_trace_chunk, payloads)
        return [record for batch in chunked for record in batch], workers, retries

    # ------------------------------------------------------- pool lifecycle
    def close(self) -> None:
        """Release the persistent worker pool (no-op if never created).

        Idempotent and safe at any point of the engine's life — including
        a half-constructed engine (``__init__`` raised before ``_pool``
        existed) and repeated calls.  The engine stays usable: the next
        parallel dispatch lazily creates a fresh pool.
        """
        pool = getattr(self, "_pool", None)
        self._pool = None
        if pool is not None:
            pool.close()
            pool.join()

    @property
    def pool_active(self) -> bool:
        """Whether the persistent worker pool is currently alive."""
        return self._pool is not None

    def __enter__(self) -> "DesignSpaceSearch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        # A pool-owning engine collected at interpreter exit must not spray
        # ImportError/AttributeError noise: module globals (multiprocessing
        # internals included) may already be torn down, so joining worker
        # handshakes is unsafe.  terminate() only signals the daemons —
        # which die with the interpreter anyway — and everything is wrapped
        # because even attribute access can fail mid-shutdown.
        try:
            if sys.is_finalizing():
                pool = getattr(self, "_pool", None)
                self._pool = None
                if pool is not None:
                    pool.terminate()
            else:
                self.close()
        except Exception:
            pass

    # --------------------------------------------------------------- internal
    def _evaluate(
        self, tasks: Sequence[tuple[DesignCandidate, JoinWorkloadSpec]]
    ) -> tuple[list[EvaluatedDesign], int, int]:
        """Evaluate uncached entry tasks; (records, workers, chunk retries)."""
        workers = min(self.workers, len(tasks))
        if len(tasks) < self.min_dispatch_tasks:
            workers = 1  # cheap batch: IPC would cost more than the work
        if workers > 1 and not self._dispatchable(tasks[0]):
            workers = 1
        if workers <= 1:
            records: list[EvaluatedDesign] = []
            for candidate, queries in _batch_tasks(tasks):
                records.extend(
                    self.evaluator.evaluate_query_batch(candidate, queries)
                )
            return records, 1, 0

        # Chunk over whole (candidate, queries) batches — never through
        # one — so a candidate's per-batch setup amortization survives
        # chunk boundaries; chunk_size counts tasks, rounded up to the
        # enclosing batch.
        chunk = self.chunk_size or max(1, math.ceil(len(tasks) / (workers * 4)))
        payloads = []
        current: list = []
        current_tasks = 0
        for batch in _batch_tasks(tasks):
            current.append(batch)
            current_tasks += len(batch[1])
            if current_tasks >= chunk:
                payloads.append((self.evaluator, current))
                current, current_tasks = [], 0
        if current:
            payloads.append((self.evaluator, current))
        chunked, retries = self._map_with_retry(evaluate_entry_chunk, payloads)
        return [record for batch in chunked for record in batch], workers, retries

    def _map_with_retry(
        self, fn: Callable, payloads: Sequence[tuple]
    ) -> tuple[list, int]:
        """``pool.map`` with per-chunk fault tolerance; (results, retries).

        Chunks dispatch individually (``apply_async``) so one dying chunk
        does not poison the rest of the batch: a chunk whose worker
        crashes, whose result cannot be unpickled, or — with
        ``chunk_timeout_s`` set — whose worker went silent past the
        deadline is recomputed **once, serially in-process**.  The chunk
        functions already map per-design infeasibility to records, so
        anything surfacing here is infrastructure failure; if the serial
        retry fails too, that error propagates — it is not the pool's
        fault.

        With telemetry enabled at dispatch time, every chunk ships
        wrapped in :func:`~repro.search.evaluators
        .evaluate_instrumented_chunk`: the worker measures the chunk
        into a captured registry (per-chunk ``worker.chunk`` span,
        evaluator/simulator counters) and returns ``(records,
        snapshot)``; the snapshots merge back here, nested under the
        open ``search.dispatch`` span.  The decision rides in the
        payload — a pool forked before ``telemetry.enable()`` still
        measures — and the in-process retry captures too, so it cannot
        corrupt this registry's span stack.
        """
        telemetry = get_telemetry()
        instrumented = telemetry.enabled
        if instrumented:
            call = evaluate_instrumented_chunk
            wrapped: list = [(fn, payload) for payload in payloads]
        else:
            call = fn
            wrapped = list(payloads)
        handles = [
            self._get_pool().apply_async(call, (payload,)) for payload in wrapped
        ]
        results: list = []
        retries = 0
        for payload, handle in zip(wrapped, handles):
            try:
                results.append(handle.get(self.chunk_timeout_s))
            except Exception as exc:
                retries += 1
                inner = payload[1] if instrumented else payload
                _LOG.warning(
                    "worker chunk of %d tasks failed (%s: %s); "
                    "retrying serially in-process",
                    len(inner[-1]),
                    type(exc).__name__,
                    exc,
                )
                results.append(call(payload))
        if instrumented:
            unwrapped = []
            for records, snap in results:
                telemetry.merge(snap)
                unwrapped.append(records)
            results = unwrapped
            telemetry.count("search.dispatch.chunks", len(payloads))
            if retries:
                telemetry.count("search.dispatch.retries", retries)
        return results, retries

    def _get_pool(self):
        """The persistent worker pool, created on first parallel dispatch."""
        if self._pool is None:
            self._pool = self._context().Pool(processes=self.workers)
        return self._pool

    def _dispatchable(self, task: tuple[DesignCandidate, JoinWorkloadSpec]) -> bool:
        """Whether tasks can cross a process boundary.

        The evaluator's verdict is probed once and cached per engine
        (evaluators are fixed at construction); the first task — a frozen
        candidate/query pair — is probed per search, which is cheap and
        guards exotic custom specs.
        """
        if self._evaluator_picklable is None:
            try:
                pickle.dumps(self.evaluator)
                self._evaluator_picklable = True
            except Exception:
                self._evaluator_picklable = False
        if not self._evaluator_picklable:
            return False
        try:
            pickle.dumps(task)
            return True
        except Exception:
            return False

    @staticmethod
    def _context():
        # fork is cheapest and keeps worker imports identical to the parent;
        # fall back to the platform default where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else None)
