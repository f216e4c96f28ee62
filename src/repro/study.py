"""The ``Study`` facade: one fluent entry point for design-space studies.

Pre-redesign, evaluating a workload over a design space meant choosing
between three parallel APIs: :class:`~repro.core.design_space
.DesignSpaceExplorer` sweeps (single joins, one axis),
:func:`~repro.workloads.suite.suite_tradeoff_curve` (suites, no
memoization, no parallelism, no Pareto selection), and the raw
:class:`~repro.search.engine.DesignSpaceSearch` engine (grids, no
normalized-curve analyses).  A :class:`Study` unifies them::

    from repro import CLUSTER_V_NODE, WIMPY_LAPTOP_B, Study, DesignSpaceExplorer
    from repro.workloads.suite import WorkloadSuite

    explorer = DesignSpaceExplorer(CLUSTER_V_NODE, WIMPY_LAPTOP_B, cluster_size=8)
    result = (
        Study(explorer)
        .with_workload(WorkloadSuite.of("nightly", q1, q2))
        .with_workers(4)
        .run()
    )
    result.pareto_frontier()          # SearchResult selections ...
    result.best_under({"time_s": 30.0})
    result.curve().best_design(0.6)   # ... and TradeoffCurve analyses
    result.to_json()                  # analysis/export hooks

The space can be a :class:`~repro.search.grid.DesignGrid`, an explicit
candidate sequence, a :class:`DesignSpaceExplorer`, or an (optionally
open-ended) :class:`~repro.search.space.SearchSpace` — in the explorer
case the study adopts its evaluator configuration *and its evaluation
cache*, so studies, sweeps, and single-point evaluations all warm one
memo and legacy sweeps stay bit-identical.  The workload is anything
satisfying the :class:`~repro.workloads.protocol.Workload` protocol:
single joins, weighted suites, arrival-trace mixes — and *timed* traces
(:class:`~repro.workloads.protocol.TimedTrace`), which a stream-capable
evaluator replays under queueing so the result also answers latency
questions::

    result = (
        Study(grid)
        .with_workload(TimedTrace.from_trace("one-day", events))
        .with_evaluator(SimulatorEvaluator())
        .run()
    )
    result.points[0].latency.p99_s                 # response times under queueing
    result.best_under({"response_max_s": 120.0})   # least energy, worst case <= 2 min

Besides the exhaustive :meth:`Study.run`, a study drives the adaptive
optimizers of :mod:`repro.search.optimize` over the same space through
:meth:`Study.optimize`::

    result = (
        Study(grid)                       # or a SearchSpace with open axes
        .with_workload(nightly_suite)
        .optimize(budget=400, optimizer="successive-halving", seed=7)
    )
    result.knee()                         # every StudyResult selection ...
    result.trajectory                     # ... plus the optimization path
    result.fresh_query_evaluations       # budget actually spent
    result.to_json()                      # includes the trajectory

``optimize`` accepts an optimizer name (``"random"``,
``"successive-halving"``, ``"local"``/``"evolutionary"``) with keyword
options, or a pre-built :class:`~repro.search.optimize.Optimizer`; it
shares the study's engine, so optimizer evaluations and later
:meth:`run` sweeps warm one another's cache (grid-compatible keys).  The
returned :class:`OptimizationResult` is a :class:`StudyResult` over the
full-fidelity archive, extended with the evaluations-vs-frontier-quality
trajectory and the stopping diagnosis.

Studies are immutable: every ``with_*`` step returns a new study, so
partially-configured studies can be shared and forked freely.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.design_space import DesignPoint, DesignSpaceExplorer, TradeoffCurve
from repro.costmodel.model import CostModel
from repro.errors import ConfigurationError, ModelError
from repro.pstore.plans import ExecutionMode
from repro.search.cache import EvaluationCache
from repro.search.engine import DesignSpaceSearch, SearchResult
from repro.search.evaluators import (
    CallableEvaluator,
    EvaluatedDesign,
    ModelEvaluator,
    SearchEvaluator,
)
from repro.search.grid import DesignCandidate, DesignGrid
from repro.search.optimize import (
    OptimizationLoop,
    Optimizer,
    TrajectoryPoint,
    build_optimizer,
)
from repro.search.pareto import Objective
from repro.search.space import SearchSpace
from repro.workloads.protocol import Workload, as_workload
from repro.workloads.queries import JoinWorkloadSpec

__all__ = ["OptimizationResult", "Study", "StudyResult"]


class Study:
    """A fluent, immutable description of one design-space study."""

    def __init__(
        self,
        space: (
            DesignGrid
            | DesignSpaceExplorer
            | SearchSpace
            | Iterable[DesignCandidate]
        ),
        *,
        workload: Workload | None = None,
        evaluator: SearchEvaluator | None = None,
        workers: int = 1,
        chunk_size: int | None = None,
        cache: EvaluationCache | None = None,
        min_dispatch_tasks: int | None = None,
        mode: ExecutionMode | None = None,
        reference_label: str | None = None,
        cost_model: CostModel | None = None,
        _engine_cell: list | None = None,
    ):
        if isinstance(space, (DesignGrid, DesignSpaceExplorer, SearchSpace)):
            self._space: (
                DesignGrid
                | DesignSpaceExplorer
                | SearchSpace
                | tuple[DesignCandidate, ...]
            ) = space
        else:
            self._space = tuple(space)
            if not self._space:
                raise ConfigurationError("the design space is empty")
        self._workload = workload
        self._evaluator = evaluator
        self._workers = workers
        self._chunk_size = chunk_size
        self._cache = cache
        self._min_dispatch_tasks = min_dispatch_tasks
        self._mode = mode
        self._reference_label = reference_label
        self._cost_model = cost_model
        # One-slot holder for the lazily built engine, shared between
        # studies whose engine configuration is identical (see _with), so
        # workload-swapped studies reuse one pool and one entry memo.
        self._engine_cell: list = _engine_cell if _engine_cell is not None else [None]

    # ------------------------------------------------------------- fluent API
    #: settings a DesignSpaceSearch is built from; changing any of them
    #: means a derived study can no longer share this study's engine
    _ENGINE_SETTINGS = (
        "evaluator",
        "workers",
        "chunk_size",
        "cache",
        "min_dispatch_tasks",
        "cost_model",
    )

    def _with(self, **overrides) -> "Study":
        settings = {
            "workload": self._workload,
            "evaluator": self._evaluator,
            "workers": self._workers,
            "chunk_size": self._chunk_size,
            "cache": self._cache,
            "min_dispatch_tasks": self._min_dispatch_tasks,
            "mode": self._mode,
            "reference_label": self._reference_label,
            "cost_model": self._cost_model,
        }
        if not any(key in overrides for key in self._ENGINE_SETTINGS):
            settings["_engine_cell"] = self._engine_cell
        settings.update(overrides)
        return Study(self._space, **settings)

    def with_workload(self, workload: Workload | JoinWorkloadSpec) -> "Study":
        """Set the workload: a join spec, suite, trace mix, or any Workload."""
        return self._with(workload=as_workload(workload))

    def with_evaluator(
        self,
        evaluator: SearchEvaluator | Callable[..., tuple[float, float]],
    ) -> "Study":
        """Set the evaluator; bare ``(cluster, query)`` callables are adapted."""
        if not isinstance(evaluator, SearchEvaluator):
            if not callable(evaluator):
                raise ConfigurationError(
                    f"not an evaluator: {evaluator!r} (expected a SearchEvaluator "
                    "or a (cluster, query) -> (time_s, energy_j) callable)"
                )
            evaluator = CallableEvaluator(evaluator)
        return self._with(evaluator=evaluator)

    def with_workers(
        self,
        workers: int,
        chunk_size: int | None = None,
        min_dispatch_tasks: int | None = None,
    ) -> "Study":
        """Fan cache misses out over ``workers`` processes.

        ``min_dispatch_tasks`` tunes the engine's cheap-batch threshold
        (batches below it stay serial; ``1`` forces fan-out, ``None``
        keeps the engine default).
        """
        return self._with(
            workers=workers,
            chunk_size=chunk_size,
            min_dispatch_tasks=min_dispatch_tasks,
        )

    def with_cache(self, cache: "EvaluationCache | str") -> "Study":
        """Use an explicit cache, or a path for a disk-backed one."""
        if not isinstance(cache, EvaluationCache):
            cache = EvaluationCache(cache_path=cache)
        return self._with(cache=cache)

    def with_mode(self, mode: ExecutionMode | None) -> "Study":
        """Force one execution mode on every candidate built from an explorer."""
        return self._with(mode=mode)

    def with_cost_model(self, cost_model: CostModel | None) -> "Study":
        """Price every evaluation in dollars and grams of CO₂.

        The :class:`~repro.costmodel.model.CostModel` is applied to this
        study's evaluator, so every feasible record carries ``carbon_g``
        and ``price_usd`` — enabling the TCO selections
        (``result.best_under({"price_usd": 5.0}, minimize="time_s")``) and
        cost-axis objectives
        (``result.knee(objectives=("time_s", "energy_j", "price_usd"))``).
        Cost-model records cache under distinct keys, so differently
        priced studies never alias; ``None`` removes the model.
        """
        return self._with(cost_model=cost_model)

    def with_reference(self, reference_label: str) -> "Study":
        """Pick the normalization reference of the result's trade-off curve."""
        return self._with(reference_label=reference_label)

    # -------------------------------------------------------------- execution
    def candidates(self) -> list[DesignCandidate]:
        """The design points this study will evaluate, in order.

        A forced execution mode (:meth:`with_mode`) applies to every
        candidate regardless of the space kind — grid- and list-provided
        candidates are rebound to it, explorer axes are built with it.
        """
        if isinstance(self._space, DesignSpaceExplorer):
            return self._space.mix_candidates(self._mode)
        if isinstance(self._space, SearchSpace):
            if not self._space.finite:
                raise ConfigurationError(
                    "this study's SearchSpace has open RangeAxis dimensions "
                    "and cannot be enumerated; use .optimize(...) instead "
                    "of .run()"
                )
            candidates = self._space.candidate_list()
        elif isinstance(self._space, DesignGrid):
            candidates = self._space.candidate_list()
        else:
            candidates = list(self._space)
        if self._mode is not None:
            candidates = [replace(c, mode=self._mode) for c in candidates]
        return candidates

    def search_space(self) -> SearchSpace:
        """This study's space as a :class:`SearchSpace` (for optimizers).

        A grid becomes its exact discrete space
        (:meth:`SearchSpace.from_grid`, so optimizer evaluations share
        cache keys with grid sweeps); explorer and candidate-list spaces
        become finite list-backed spaces; a :class:`SearchSpace` passes
        through.  A forced execution mode (:meth:`with_mode`) applies in
        every case.
        """
        if isinstance(self._space, SearchSpace):
            space = self._space
            return space if self._mode is None else space.with_mode(self._mode)
        if isinstance(self._space, DesignGrid):
            grid = self._space
            if self._mode is not None:
                grid = replace(grid, modes=(self._mode,))
            return SearchSpace.from_grid(grid)
        return SearchSpace.from_candidates(self.candidates())

    def _resolve_evaluator(self) -> SearchEvaluator:
        if self._evaluator is not None:
            evaluator = self._evaluator
        elif isinstance(self._space, DesignSpaceExplorer):
            evaluator = self._space.search_evaluator()
        else:
            evaluator = ModelEvaluator()
        if self._cost_model is None:
            return evaluator
        if is_dataclass(evaluator) and any(
            f.name == "cost_model" for f in fields(evaluator)
        ):
            return replace(evaluator, cost_model=self._cost_model)
        raise ConfigurationError(
            f"evaluator {type(evaluator).__name__} does not accept a cost "
            "model; use ModelEvaluator/SimulatorEvaluator (or construct "
            "the evaluator with cost_model= yourself)"
        )

    def _resolve_cache(self) -> EvaluationCache | None:
        if self._cache is not None:
            return self._cache
        if isinstance(self._space, DesignSpaceExplorer):
            # Share the explorer's memo: studies warm sweeps and vice versa.
            return self._space.cache
        return None

    def engine(self) -> DesignSpaceSearch:
        """This study's search engine, created once and reused.

        The engine is shared across every :meth:`run` of this study *and*
        of studies derived from it by steps that leave the engine
        configuration untouched (:meth:`with_workload`, :meth:`with_mode`,
        :meth:`with_reference`) — so a campaign like
        ``[base.with_workload(m).run() for m in mixes]`` reuses one
        persistent worker pool and one per-entry evaluation memo, and
        overlapping mixes share their member-join computation.  Steps that
        change the engine configuration (evaluator, workers, chunk size,
        cache) start a fresh engine.  Release the pool with :meth:`close`
        or by using the study as a context manager.
        """
        if self._engine_cell[0] is None:
            settings = dict(
                evaluator=self._resolve_evaluator(),
                workers=self._workers,
                chunk_size=self._chunk_size,
                cache=self._resolve_cache(),
            )
            if self._min_dispatch_tasks is not None:
                settings["min_dispatch_tasks"] = self._min_dispatch_tasks
            self._engine_cell[0] = DesignSpaceSearch(**settings)
        return self._engine_cell[0]

    def close(self) -> None:
        """Release the engine's persistent worker pool (if any)."""
        if self._engine_cell[0] is not None:
            self._engine_cell[0].close()

    def __enter__(self) -> "Study":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self) -> "StudyResult":
        """Search the space for the workload and wrap the analyses."""
        if self._workload is None:
            raise ConfigurationError(
                "this study has no workload; call .with_workload(...) first"
            )
        result = self.engine().search(self.candidates(), self._workload)
        return StudyResult(result, reference_label=self._reference_label)

    def optimize(
        self,
        budget: int | None = None,
        optimizer: "Optimizer | str" = "successive-halving",
        *,
        seed: int = 0,
        patience: int | None = None,
        objectives: Sequence | None = None,
        **optimizer_options,
    ) -> "OptimizationResult":
        """Search the space adaptively instead of exhaustively.

        ``budget`` caps fresh per-entry evaluations (the same currency as
        :attr:`~repro.search.engine.SearchResult.query_evaluations`);
        ``patience`` stops after that many consecutive batches without a
        frontier change; ``optimizer`` is a name — ``"random"``,
        ``"successive-halving"`` (default), ``"local"`` — with
        ``optimizer_options`` forwarded to its constructor, or a
        pre-built :class:`~repro.search.optimize.Optimizer`.  The study's
        engine (pool, evaluator, cache) is shared with :meth:`run`, so an
        optimizer run warms a later exhaustive sweep and vice versa.

        ``objectives`` steers the optimizer's frontier-driven decisions
        (archive frontier, convergence, promotion ranks) under those axes
        — e.g. ``("time_s", "energy_j", "carbon_g")`` on a
        cost-model-priced study; ``None`` keeps the classic (time,
        energy) pair.
        """
        if self._workload is None:
            raise ConfigurationError(
                "this study has no workload; call .with_workload(...) first"
            )
        loop = OptimizationLoop(
            self.engine(),
            self.search_space(),
            self._workload,
            build_optimizer(optimizer, **optimizer_options),
            budget=budget,
            patience=patience,
            seed=seed,
            objectives=objectives,
        )
        return loop.run(reference_label=self._reference_label)

    def report(self, title: str | None = None) -> str:
        """Render the active telemetry registry as a stage-time report.

        Call :func:`repro.telemetry.enable` before :meth:`run` (or
        :meth:`optimize`) and this returns the recorded breakdown —
        per-stage search spans, worker chunk times, cache and simulator
        counters — as printable text.  With telemetry disabled (the
        default) the report says so instead of being empty.  The registry
        is cumulative across runs; :func:`repro.telemetry.reset` starts a
        fresh window.
        """
        from repro.telemetry import get_telemetry
        from repro.telemetry.report import render_report

        return render_report(
            get_telemetry(),
            title=title if title is not None else "study telemetry",
        )


class StudyResult:
    """Unified outcome of one study: raw search + trade-off analyses.

    Exposes the :class:`~repro.search.engine.SearchResult` selections
    (Pareto frontier, knee, EDP optimum, ``best_under``) directly,
    the normalized :class:`~repro.core.design_space.TradeoffCurve`
    analyses via :meth:`curve`, and the :mod:`repro.analysis.export`
    serializers as methods.
    """

    def __init__(self, search: SearchResult, reference_label: str | None = None):
        self.search = search
        self.reference_label = reference_label

    # -------------------------------------------------------- search surface
    @property
    def workload(self) -> Workload:
        return self.search.workload

    @property
    def points(self) -> list[EvaluatedDesign]:
        return self.search.points

    @property
    def feasible_points(self) -> list[EvaluatedDesign]:
        return self.search.feasible_points

    @property
    def infeasible_points(self) -> list[EvaluatedDesign]:
        return self.search.infeasible_points

    @property
    def evaluations(self) -> int:
        return self.search.evaluations

    @property
    def cache_hits(self) -> int:
        return self.search.cache_hits

    def pareto_frontier(
        self, objectives: Sequence | None = None
    ) -> list[EvaluatedDesign]:
        return self.search.pareto_frontier(objectives=objectives)

    def knee(self, objectives: Sequence | None = None) -> EvaluatedDesign:
        return self.search.knee(objectives=objectives)

    def edp_optimal(self) -> EvaluatedDesign:
        return self.search.edp_optimal()

    def best_under(
        self, limits: Mapping, minimize: str | Objective = "energy_j"
    ) -> EvaluatedDesign:
        """The design minimizing ``minimize`` within upper ``limits``
        (:meth:`~repro.search.engine.SearchResult.best_under`)."""
        return self.search.best_under(limits, minimize=minimize)

    def point(self, label: str) -> EvaluatedDesign:
        return self.search.point(label)

    def __len__(self) -> int:
        return len(self.search)

    def __iter__(self):
        return iter(self.search)

    # --------------------------------------------------------- curve surface
    def curve(self, reference_label: str | None = None) -> TradeoffCurve:
        """The feasible points as a normalized trade-off curve.

        Bit-identical to the legacy sweep outputs: same labels, same
        times, same energies, in the same (enumeration) order.
        """
        points = [DesignPoint.from_record(evaluated) for evaluated in self.feasible_points]
        if not points:
            raise ModelError(
                f"no feasible design for {self.workload.name!r}"
            )
        return TradeoffCurve(
            points, reference_label=reference_label or self.reference_label
        )

    def normalized(self):
        """The paper's normalized (performance, energy) series."""
        return self.curve().normalized()

    def best_design(self, target_performance: float) -> DesignPoint:
        """Section 6 selection: least energy meeting a performance target."""
        return self.curve().best_design(target_performance)

    # ---------------------------------------------------------- export hooks
    def to_rows(self) -> list[dict]:
        """One plain dict per searched point (:func:`search_to_rows`)."""
        from repro.analysis.export import search_to_rows

        return search_to_rows(self.search)

    def to_json(self, indent: int | None = 2) -> str:
        """Full outcome — points, frontier, selections — as JSON."""
        from repro.analysis.export import search_to_json

        return search_to_json(self.search, indent=indent)

    def frontier_csv(
        self, frontier_only: bool = True, objectives: Sequence | None = None
    ) -> str:
        """The searched points as CSV (by default just the frontier).

        ``objectives`` computes frontier membership under those axes,
        e.g. ``("time_s", "energy_j", "price_usd", "carbon_g")`` for the
        TCO frontier of a cost-model-priced study.
        """
        from repro.analysis.export import frontier_to_csv

        return frontier_to_csv(
            self.search, frontier_only=frontier_only, objectives=objectives
        )

    def curve_csv(self) -> str:
        """The normalized trade-off curve as CSV."""
        from repro.analysis.export import curve_to_csv

        return curve_to_csv(self.normalized())


class OptimizationResult(StudyResult):
    """A :class:`StudyResult` plus the optimization trajectory.

    Produced by :meth:`Study.optimize` /
    :meth:`~repro.search.optimize.OptimizationLoop.run`.  The underlying
    :class:`~repro.search.engine.SearchResult` holds the *archive* — every
    full-fidelity evaluation in discovery order — so all the selections
    and exports work unchanged: ``pareto_frontier()``, ``knee()``,
    ``best_under()``, ``curve()``, ``to_rows()``...  On top of that:

    * :attr:`trajectory` — one
      :class:`~repro.search.optimize.TrajectoryPoint` per optimizer batch
      (the evaluations-vs-frontier-quality curve);
    * :attr:`fresh_query_evaluations` — fresh per-entry evaluator calls
      the whole optimization performed, rungs included (the budget
      currency);
    * :attr:`stop_reason` — ``"optimizer-finished"``,
      ``"budget-exhausted"``, or ``"converged"``;
    * :meth:`trajectory_rows` / :meth:`to_json` — exports via
      :mod:`repro.analysis.export`.
    """

    def __init__(
        self,
        search: SearchResult,
        trajectory: "tuple[TrajectoryPoint, ...]",
        optimizer_name: str,
        budget: int | None,
        stop_reason: str,
        reference_label: str | None = None,
    ):
        super().__init__(search, reference_label=reference_label)
        self.trajectory = trajectory
        self.optimizer_name = optimizer_name
        self.budget = budget
        self.stop_reason = stop_reason

    @property
    def fresh_query_evaluations(self) -> int:
        """Fresh per-entry evaluator calls spent, rungs included."""
        return self.search.query_evaluations

    def trajectory_rows(self) -> list[dict]:
        """The trajectory as plain dicts (:func:`trajectory_to_rows`)."""
        from repro.analysis.export import trajectory_to_rows

        return trajectory_to_rows(self)

    def to_json(self, indent: int | None = 2) -> str:
        """Search payload plus optimizer metadata and the trajectory."""
        from repro.analysis.export import optimization_to_json

        return optimization_to_json(self, indent=indent)
