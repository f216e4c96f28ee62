"""Budgeted, adaptive optimizers over design spaces (non-grid search).

Exhaustive grid enumeration answers the paper's cluster-design question
only while the space stays small; fine DVFS ladders, heterogeneous node
mixes, and per-workload tuning blow it up combinatorially.  This module
searches the same :class:`~repro.search.grid.DesignCandidate` space
*adaptively*: an :class:`Optimizer` proposes batches of candidates drawn
from a :class:`~repro.search.space.SearchSpace`, the
:class:`OptimizationLoop` evaluates them through the existing
:class:`~repro.search.engine.DesignSpaceSearch` engine — so per-entry
memoization, the :class:`~repro.search.cache.EvaluationCache`, and the
persistent worker pool are reused verbatim, and every evaluation is
bit-identical to (and shares cache rows with) a grid sweep of the same
candidate — and an incremental Pareto archive accumulates the
full-fidelity results.

Three optimizers ship:

* :class:`RandomSearch` — seeded uniform sampling without replacement
  (by candidate key), the canonical budget-constrained baseline;
* :class:`SuccessiveHalving` — multi-fidelity racing: budget rungs are
  realized as *workload-entry subsampling* (rung 0 scores every starter
  on a cheap prefix of the weighted entries, survivors are promoted to
  ever-larger prefixes and finally the full weighted suite), so the
  per-entry cache makes each promotion pay only for its *new* entries;
* :class:`LocalSearch` — a mutation-based evolutionary refiner that
  perturbs Pareto-frontier candidates via
  :meth:`~repro.search.space.SearchSpace.mutate`.

Stopping is budget- and convergence-driven: ``budget`` caps fresh
per-entry evaluations (measured exactly like
:attr:`~repro.search.engine.SearchResult.query_evaluations`), and
``patience`` stops after that many consecutive full-fidelity batches
without a frontier change.  The :class:`OptimizationResult` is
:class:`~repro.study.StudyResult`-compatible (frontier, knee, EDP, SLA
selections, exports) and additionally carries the search *trajectory* —
the evaluations-vs-frontier-quality curve a budget study plots.

The friendly front door is :meth:`repro.study.Study.optimize`.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.search.engine import DesignSpaceSearch, SearchResult
from repro.search.evaluators import EvaluatedDesign
from repro.search.grid import DesignCandidate
from repro.search.pareto import edp_optimal, knee_point, pareto_frontier
from repro.search.space import SearchSpace
from repro.workloads.protocol import WeightedQuery, Workload, as_workload

__all__ = [
    "LocalSearch",
    "OptimizationLoop",
    "Optimizer",
    "Proposal",
    "RandomSearch",
    "SuccessiveHalving",
    "TrajectoryPoint",
    "build_optimizer",
]


# --------------------------------------------------------------------------
# proposals and workload-entry subsampling (the fidelity dimension)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Proposal:
    """One optimizer batch: candidates plus an evaluation fidelity.

    ``entry_count`` is the number of weighted workload entries to score
    the batch on — the budget rung.  Entries are taken as a prefix of the
    workload's entries ordered by descending weight, so rung ``k+1``
    strictly extends rung ``k`` and promotions only pay for new entries.
    A count of at least the workload's entry total means full fidelity.
    """

    candidates: tuple[DesignCandidate, ...]
    entry_count: int
    rung: int | None = None


@dataclass(frozen=True)
class _EntrySubset:
    """A workload's heaviest-``count`` entries as a Workload.

    Per-entry cache keys are workload-independent, so evaluating a subset
    warms exactly the rows the full workload will read; only the
    workload-level aggregate tier is partitioned by this subset key.
    """

    name: str
    entries: tuple[WeightedQuery, ...]
    base_key: tuple
    count: int

    def cache_key(self) -> tuple:
        return ("subset", self.base_key, self.count)

    def weighted_queries(self) -> tuple[WeightedQuery, ...]:
        return self.entries


def _ordered_entries(workload: Workload) -> tuple[WeightedQuery, ...]:
    """Entries by descending weight (ties keep workload order).

    The subsample prefix should score candidates on the entries that
    dominate the weighted aggregate, so heavier entries come first.
    """
    entries = workload.weighted_queries()
    order = sorted(range(len(entries)), key=lambda i: (-entries[i].weight, i))
    return tuple(entries[i] for i in order)


# --------------------------------------------------------------------------
# the optimizer protocol
# --------------------------------------------------------------------------
class Optimizer(abc.ABC):
    """Ask/tell strategy over a :class:`SearchSpace`.

    The :class:`OptimizationLoop` drives the conversation: ``setup`` once,
    then alternately :meth:`ask` for a :class:`Proposal` and :meth:`tell`
    the evaluated records (aligned with the proposal's candidates).
    ``ask`` returning ``None`` means the strategy is finished;
    ``terminates`` declares whether that ever happens, so the loop can
    insist on a budget or patience rule for open-ended strategies.
    """

    #: display name recorded in results and exports
    name: str = "optimizer"
    #: whether ask() eventually returns None without external stopping
    terminates: bool = False
    #: objective axes steering frontier-driven decisions (parent pools,
    #: promotion ranks, convergence) — set by the loop before ``setup``;
    #: ``None`` keeps the classic (time, energy) pair bit-identically
    objectives: Sequence | None = None

    def setup(
        self, space: SearchSpace, workload: Workload, rng: random.Random
    ) -> None:
        self.space = space
        self.workload = workload
        self.rng = rng
        self.total_entries = len(workload.weighted_queries())

    @abc.abstractmethod
    def ask(self) -> Proposal | None:
        """The next batch to evaluate, or ``None`` when finished."""

    def tell(
        self, proposal: Proposal, records: Sequence[EvaluatedDesign]
    ) -> None:
        """Observe the evaluations of one proposal (default: ignore)."""

    # ---------------------------------------------------------------- helpers
    def _sample_unseen(
        self, count: int, seen: set[tuple]
    ) -> list[DesignCandidate]:
        """Up to ``count`` uniform space samples with keys not in ``seen``.

        Keys are added to ``seen`` as candidates are drawn.  On a finite
        space the draw is exact — sample (without replacement) from the
        enumerated not-yet-seen candidates, so the space is provably
        exhausted before an empty batch is returned.  Open spaces fall
        back to rejection sampling with a generous attempt budget.
        """
        if self.space.finite:
            unseen = [
                candidate
                for candidate in self.space.candidate_list()
                if candidate.key() not in seen
            ]
            if len(unseen) > count:
                unseen = self.rng.sample(unseen, count)
            for candidate in unseen:
                seen.add(candidate.key())
            return unseen
        batch: list[DesignCandidate] = []
        attempts = max(64, count * 32)
        while len(batch) < count and attempts > 0:
            attempts -= 1
            candidate = self.space.sample(self.rng)
            key = candidate.key()
            if key in seen:
                continue
            seen.add(key)
            batch.append(candidate)
        return batch


class RandomSearch(Optimizer):
    """Seeded uniform sampling without replacement (by candidate key)."""

    name = "random"
    terminates = False

    def __init__(self, batch_size: int = 16):
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self._seen: set[tuple] = set()

    def setup(
        self, space: SearchSpace, workload: Workload, rng: random.Random
    ) -> None:
        # Fresh run, fresh state: a reused optimizer instance must not
        # remember the previous run's draws (same-seed determinism).
        super().setup(space, workload, rng)
        self._seen = set()

    def ask(self) -> Proposal | None:
        batch = self._sample_unseen(self.batch_size, self._seen)
        if not batch:
            return None  # finite space fully explored
        return Proposal(candidates=tuple(batch), entry_count=self.total_entries)


class LocalSearch(Optimizer):
    """Evolutionary refiner: mutate Pareto-frontier candidates.

    The first batch samples the space at random; every later batch draws
    parents uniformly from the current frontier of the designs this
    optimizer has observed and proposes one
    :meth:`~repro.search.space.SearchSpace.mutate` step per slot.  Slots
    whose mutants all collide with already-seen designs fall back to
    fresh random samples, so the refiner keeps exploring once a local
    neighborhood is exhausted.
    """

    name = "local"
    terminates = False

    def __init__(self, batch_size: int = 16, mutation_attempts: int = 8):
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if mutation_attempts < 1:
            raise ConfigurationError(
                f"mutation_attempts must be >= 1, got {mutation_attempts}"
            )
        self.batch_size = batch_size
        self.mutation_attempts = mutation_attempts
        self._seen: set[tuple] = set()
        self._observed: list[EvaluatedDesign] = []

    def setup(
        self, space: SearchSpace, workload: Workload, rng: random.Random
    ) -> None:
        # Fresh run, fresh state (see RandomSearch.setup).
        super().setup(space, workload, rng)
        self._seen = set()
        self._observed = []

    def ask(self) -> Proposal | None:
        frontier = pareto_frontier(self._observed, objectives=self.objectives)
        if not frontier:
            batch = self._sample_unseen(self.batch_size, self._seen)
            if not batch:
                return None
            return Proposal(
                candidates=tuple(batch), entry_count=self.total_entries
            )
        batch: list[DesignCandidate] = []
        for _ in range(self.batch_size):
            mutant = self._mutant(frontier)
            if mutant is not None:
                batch.append(mutant)
        if not batch:
            return None  # neighborhoods and the space itself are exhausted
        return Proposal(candidates=tuple(batch), entry_count=self.total_entries)

    def _mutant(
        self, frontier: Sequence[EvaluatedDesign]
    ) -> DesignCandidate | None:
        for _ in range(self.mutation_attempts):
            parent = frontier[self.rng.randrange(len(frontier))]
            child = self.space.mutate(parent.candidate, self.rng)
            key = child.key()
            if key not in self._seen:
                self._seen.add(key)
                return child
        fallback = self._sample_unseen(1, self._seen)
        return fallback[0] if fallback else None

    def tell(
        self, proposal: Proposal, records: Sequence[EvaluatedDesign]
    ) -> None:
        if proposal.entry_count >= self.total_entries:
            self._observed.extend(records)


class SuccessiveHalving(Optimizer):
    """Multi-fidelity racing with workload-entry subsampling rungs.

    Rung ``r`` scores its candidates on the ``k_r`` heaviest workload
    entries, where ``k_0 = min_entries`` and each rung multiplies the
    entry count by ``entry_growth`` until the full suite is reached; the
    candidate pool is cut by ``eta`` between rungs (Pareto-rank order, so
    the whole proxy frontier — knee included — survives before any
    dominated design does).  Because the engine caches per entry, a
    promoted candidate pays only for the entries its new rung adds — on
    the reference 216-design suite study this reaches the exhaustive
    knee with roughly a third of the grid's fresh evaluations.

    ``initial`` bounds the starting pool: ``None`` races every point of
    a finite space (the exhaustive-coverage mode that guarantees the true
    knee is in the pool) and defaults to 64 samples on open spaces.  For
    a single-entry workload there is nothing to subsample, so the race
    collapses to one full-fidelity rung over the starting pool and
    ``initial`` becomes the only budget lever.
    """

    name = "successive-halving"
    terminates = True

    def __init__(
        self,
        eta: int = 3,
        initial: int | None = None,
        min_entries: int = 1,
        entry_growth: int = 2,
    ):
        if eta < 2:
            raise ConfigurationError(f"eta must be >= 2, got {eta}")
        if initial is not None and initial < 1:
            raise ConfigurationError(f"initial must be >= 1, got {initial}")
        if min_entries < 1:
            raise ConfigurationError(f"min_entries must be >= 1, got {min_entries}")
        if entry_growth < 2:
            raise ConfigurationError(
                f"entry_growth must be >= 2, got {entry_growth}"
            )
        self.eta = eta
        self.initial = initial
        self.min_entries = min_entries
        self.entry_growth = entry_growth
        self._rung: int = 0
        self._pool: tuple[DesignCandidate, ...] | None = None
        self._entry_schedule: tuple[int, ...] | None = None
        self._done = False

    def setup(
        self, space: SearchSpace, workload: Workload, rng: random.Random
    ) -> None:
        super().setup(space, workload, rng)
        counts = [min(self.min_entries, self.total_entries)]
        while counts[-1] < self.total_entries:
            counts.append(min(self.total_entries, counts[-1] * self.entry_growth))
        self._entry_schedule = tuple(counts)
        self._rung = 0
        self._done = False
        self._pool = None

    def _starting_pool(self) -> tuple[DesignCandidate, ...]:
        if self.initial is None and self.space.finite:
            return tuple(self.space.candidate_list())
        count = self.initial if self.initial is not None else 64
        seen: set[tuple] = set()
        if self.space.finite and count >= len(self.space.candidate_list()):
            return tuple(self.space.candidate_list())
        return tuple(self._sample_unseen(count, seen))

    def ask(self) -> Proposal | None:
        if self._done:
            return None
        if self._pool is None:
            self._pool = self._starting_pool()
            if not self._pool:
                self._done = True
                return None
        return Proposal(
            candidates=self._pool,
            entry_count=self._entry_schedule[self._rung],
            rung=self._rung,
        )

    def tell(
        self, proposal: Proposal, records: Sequence[EvaluatedDesign]
    ) -> None:
        if proposal.rung != self._rung:
            return
        if self._rung == len(self._entry_schedule) - 1:
            self._done = True  # full fidelity reached: the race is over
            return
        keep = max(1, len(self._pool) // self.eta)
        promoted = _promotion_order(records, keep, objectives=self.objectives)
        self._pool = tuple(proposal.candidates[i] for i in promoted)
        self._rung += 1


def _promotion_order(
    records: Sequence[EvaluatedDesign],
    keep: int,
    objectives: Sequence | None = None,
) -> list[int]:
    """Indices of the first ``keep`` ``records`` in promotion-priority order.

    Feasible designs are peeled into successive Pareto layers (the whole
    current proxy frontier outranks every dominated design); within a
    layer, lower EDP first, then time, then label — all deterministic.
    Infeasible designs rank last, in label order.  ``objectives`` layers
    under those axes instead of the classic (time, energy) pair.
    Peeling stops once ``keep`` designs are ranked: deeper layers cannot
    change which ones those are.
    """
    feasible = [i for i, record in enumerate(records) if record.feasible]
    infeasible = [i for i, record in enumerate(records) if not record.feasible]
    order: list[int] = []
    remaining = feasible
    while remaining and len(order) < keep:
        layer_points = pareto_frontier(
            [records[i] for i in remaining], objectives=objectives
        )
        layer_ids = {id(point) for point in layer_points}
        layer = [i for i in remaining if id(records[i]) in layer_ids]
        layer.sort(
            key=lambda i: (records[i].edp, records[i].time_s, records[i].label)
        )
        order.extend(layer)
        layer_set = set(layer)
        remaining = [i for i in remaining if i not in layer_set]
    infeasible.sort(key=lambda i: records[i].label)
    return (order + infeasible)[:keep]


# --------------------------------------------------------------------------
# the driving loop
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class TrajectoryPoint:
    """One batch of the optimization, for evaluations-vs-quality curves."""

    batch: int
    rung: int | None
    fidelity: float  # fraction of workload entries this batch scored
    candidates: int  # batch size after key-dedupe
    fresh_query_evaluations: int  # cumulative fresh per-entry tasks so far
    archive_size: int  # full-fidelity designs archived so far
    frontier_size: int
    best_edp: float | None  # archive EDP optimum (None while archive empty)
    knee_label: str | None  # archive knee (None while archive empty)


class OptimizationLoop:
    """Drive one optimizer over one space/workload through the engine.

    The loop owns the Pareto *archive* — every full-fidelity evaluation,
    keyed by candidate key — and the stopping rules:

    * ``budget`` — stop proposing once cumulative fresh per-entry
      evaluations reach it (the batch in flight completes, so totals can
      overshoot by at most one batch; a budget smaller than the first
      full-fidelity batch leaves the archive empty, and the result's
      selections then raise like any all-infeasible search);
    * ``patience`` — stop after this many consecutive full-fidelity
      batches that leave the Pareto frontier unchanged;
    * the optimizer finishing on its own (``ask()`` returning ``None``).

    Open-ended optimizers (``terminates=False``) must set at least one of
    ``budget``/``patience``.  Everything is deterministic under ``seed``:
    the same (space, workload, optimizer, seed) yields the same candidate
    trajectory and archive, serial or parallel.

    ``objectives`` steers every frontier-driven decision — the archive
    frontier, convergence detection, mutation parent pools, and halving
    promotion ranks — under those axes (e.g. ``("time_s", "energy_j",
    "carbon_g")`` on a cost-model-priced evaluator); ``None`` keeps the
    classic (time, energy) pair bit-identically.
    """

    def __init__(
        self,
        engine: DesignSpaceSearch,
        space: SearchSpace,
        workload: Workload,
        optimizer: Optimizer,
        *,
        budget: int | None = None,
        patience: int | None = None,
        seed: int = 0,
        objectives: Sequence | None = None,
    ):
        if budget is not None and budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {budget}")
        if patience is not None and patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        self.engine = engine
        self.space = space
        self.workload = as_workload(workload)
        self.optimizer = optimizer
        self.budget = budget
        self.patience = patience
        self.seed = seed
        self.objectives = objectives

    def run(self, reference_label: str | None = None):
        """Run to a stopping rule; returns an
        :class:`~repro.study.OptimizationResult`."""
        # Imported here: repro.study builds on this module (the facade
        # owns the StudyResult-compatible result type).
        from repro.study import OptimizationResult

        if (
            not self.optimizer.terminates
            and self.budget is None
            and self.patience is None
        ):
            raise ConfigurationError(
                f"optimizer {self.optimizer.name!r} never finishes on its "
                "own; set budget= and/or patience="
            )
        rng = random.Random(self.seed)
        self.optimizer.objectives = self.objectives
        self.optimizer.setup(self.space, self.workload, rng)
        ordered = _ordered_entries(self.workload)
        total_entries = len(ordered)

        archive: dict[tuple, EvaluatedDesign] = {}
        trajectory: list[TrajectoryPoint] = []
        fresh_total = 0
        evaluations = 0
        workers_used = 1
        frontier_keys: set[tuple] = set()
        stalled = 0
        stop_reason = "optimizer-finished"

        batch_index = 0
        while True:
            if self.budget is not None and fresh_total >= self.budget:
                stop_reason = "budget-exhausted"
                break
            proposal = self.optimizer.ask()
            if proposal is None or not proposal.candidates:
                stop_reason = "optimizer-finished"
                break
            full_fidelity = proposal.entry_count >= total_entries
            result = self.engine.evaluate_batch(
                proposal.candidates, self._rung_workload(proposal, ordered)
            )
            fresh_total += result.query_evaluations
            workers_used = max(workers_used, result.workers_used)
            by_key = {point.candidate.key(): point for point in result.points}
            self.optimizer.tell(
                proposal,
                [by_key[candidate.key()] for candidate in proposal.candidates],
            )
            if full_fidelity:
                evaluations += result.evaluations
                for point in result.points:
                    archive.setdefault(point.candidate.key(), point)
            # One frontier pass per batch feeds both the trajectory and
            # the convergence check (the EDP optimum and the knee are
            # frontier points, so the frontier is all they need).
            frontier = pareto_frontier(
                list(archive.values()), objectives=self.objectives
            )
            trajectory.append(
                self._trajectory_point(
                    batch_index, proposal, result, len(archive),
                    frontier, fresh_total, total_entries, self.objectives,
                )
            )
            batch_index += 1
            if full_fidelity and self.patience is not None:
                keys = {point.candidate.key() for point in frontier}
                if keys == frontier_keys:
                    stalled += 1
                    if stalled >= self.patience:
                        stop_reason = "converged"
                        break
                else:
                    stalled = 0
                    frontier_keys = keys

        search = SearchResult(
            workload=self.workload,
            points=list(archive.values()),
            evaluations=evaluations,
            cache_hits=len(archive) - evaluations,
            workers_used=workers_used,
            query_evaluations=fresh_total,
        )
        return OptimizationResult(
            search,
            trajectory=tuple(trajectory),
            optimizer_name=self.optimizer.name,
            budget=self.budget,
            stop_reason=stop_reason,
            reference_label=reference_label,
        )

    def _rung_workload(
        self, proposal: Proposal, ordered: tuple[WeightedQuery, ...]
    ):
        """The (sub)workload a proposal evaluates against.

        Full fidelity uses the base workload itself — same aggregate
        cache keys, same entry order, bit-identical records to a grid
        sweep.  Partial fidelity evaluates the heaviest-entry prefix.
        """
        count = proposal.entry_count
        if count >= len(ordered):
            return self.workload
        if count < 1:
            raise ConfigurationError(
                f"proposal entry_count must be >= 1, got {count}"
            )
        return _EntrySubset(
            name=f"{self.workload.name}[:{count}]",
            entries=ordered[:count],
            base_key=self.workload.cache_key(),
            count=count,
        )

    @staticmethod
    def _trajectory_point(
        batch_index, proposal, result, archive_size,
        frontier, fresh_total, total_entries, objectives=None,
    ) -> TrajectoryPoint:
        return TrajectoryPoint(
            batch=batch_index,
            rung=proposal.rung,
            fidelity=min(1.0, proposal.entry_count / total_entries),
            candidates=len(result.points),
            fresh_query_evaluations=fresh_total,
            archive_size=archive_size,
            frontier_size=len(frontier),
            best_edp=edp_optimal(frontier).edp if frontier else None,
            knee_label=(
                knee_point(frontier, objectives=objectives).label
                if frontier
                else None
            ),
        )


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------
_OPTIMIZERS = {
    "random": RandomSearch,
    "local": LocalSearch,
    "evolutionary": LocalSearch,
    "successive-halving": SuccessiveHalving,
    "sha": SuccessiveHalving,
    "halving": SuccessiveHalving,
}


def build_optimizer(spec: "Optimizer | str", **kwargs) -> Optimizer:
    """Resolve an optimizer instance from a name (or pass one through).

    ``kwargs`` are forwarded to the named optimizer's constructor;
    passing both an instance and kwargs is rejected to avoid silently
    ignoring configuration.
    """
    if isinstance(spec, Optimizer):
        if kwargs:
            raise ConfigurationError(
                "optimizer options were passed alongside an Optimizer "
                f"instance; configure {type(spec).__name__} directly instead"
            )
        return spec
    if not isinstance(spec, str) or spec not in _OPTIMIZERS:
        known = ", ".join(sorted(set(_OPTIMIZERS)))
        raise ConfigurationError(
            f"unknown optimizer {spec!r} (expected an Optimizer instance "
            f"or one of: {known})"
        )
    return _OPTIMIZERS[spec](**kwargs)
