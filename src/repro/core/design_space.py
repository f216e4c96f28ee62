"""Cluster design-space exploration (Section 5.4-5.5).

:class:`DesignSpaceExplorer` enumerates the Beefy/Wimpy mixes of a
fixed-size cluster (the paper's ``8B,0W ... 0B,8W`` axis), evaluates each
design with the analytical model (or any caller-supplied evaluator), and
returns a :class:`TradeoffCurve` supporting the paper's analyses: EDP
comparison, knee location, and best-design selection under a performance
target.

The explorer's sweeps delegate to the :mod:`repro.search` engine: results
are memoized per explorer (re-sweeping the same query costs zero model
evaluations), and the paper's one-axis space is just the degenerate grid
of the engine's multi-dimensional search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.edp import NormalizedPoint, normalized_series
from repro.core.model import Prediction
from repro.errors import ModelError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.pstore.plans import ExecutionMode
from repro.search.cache import EvaluationCache
from repro.search.engine import DesignSpaceSearch
from repro.search.evaluators import CallableEvaluator, EvaluatedDesign, ModelEvaluator
from repro.search.grid import DesignCandidate
from repro.workloads.protocol import Workload, as_workload
from repro.workloads.queries import JoinWorkloadSpec

__all__ = ["DesignPoint", "TradeoffCurve", "DesignSpaceExplorer"]

Evaluator = Callable[[ClusterSpec, JoinWorkloadSpec], tuple[float, float]]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated cluster design."""

    label: str
    cluster: ClusterSpec
    time_s: float
    energy_j: float
    prediction: Prediction | None = None

    @classmethod
    def from_record(cls, evaluated: EvaluatedDesign) -> "DesignPoint":
        """One feasible search record as a curve point."""
        return cls(
            label=evaluated.label,
            cluster=evaluated.candidate.cluster(),
            time_s=evaluated.time_s,
            energy_j=evaluated.energy_j,
            prediction=evaluated.prediction,
        )

    @property
    def num_beefy(self) -> int:
        return self.cluster.num_beefy

    @property
    def num_wimpy(self) -> int:
        return self.cluster.num_wimpy


class TradeoffCurve:
    """An ordered set of design points with a designated reference."""

    def __init__(self, points: Sequence[DesignPoint], reference_label: str | None = None):
        if not points:
            raise ModelError("a trade-off curve needs at least one point")
        self.points = list(points)
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise ModelError(f"duplicate design labels: {labels}")
        self.reference_label = reference_label or labels[0]
        if self.reference_label not in labels:
            raise ModelError(f"unknown reference {self.reference_label!r}")

    @property
    def reference(self) -> DesignPoint:
        return next(p for p in self.points if p.label == self.reference_label)

    def normalized(self) -> list[NormalizedPoint]:
        """The paper's normalized (performance, energy) series."""
        return normalized_series(
            [(p.label, p.time_s, p.energy_j) for p in self.points],
            reference_label=self.reference_label,
        )

    def point(self, label: str) -> DesignPoint:
        for p in self.points:
            if p.label == label:
                return p
        raise ModelError(f"no design point {label!r}")

    def normalized_point(self, label: str) -> NormalizedPoint:
        for np_ in self.normalized():
            if np_.label == label:
                return np_
        raise ModelError(f"no design point {label!r}")

    # ------------------------------------------------------------- analyses
    def below_edp_points(self) -> list[NormalizedPoint]:
        """Design points that beat the constant-EDP trade-off."""
        return [p for p in self.normalized() if p.below_edp_curve]

    def best_design(self, target_performance: float) -> DesignPoint:
        """Minimum-energy design meeting a normalized performance target.

        This is the Section 6 selection rule: fix an acceptable performance
        loss (e.g. 40% -> target 0.6), then choose the least-energy design
        still meeting it.
        """
        if target_performance <= 0:
            raise ModelError(f"target performance must be > 0, got {target_performance}")
        eligible = [
            (norm, point)
            for norm, point in zip(self.normalized(), self.points)
            if norm.performance >= target_performance
        ]
        if not eligible:
            raise ModelError(
                f"no design meets performance target {target_performance:.2f}"
            )
        return min(eligible, key=lambda pair: pair[0].energy)[1]

    def knee(self) -> DesignPoint:
        """The knee of the normalized curve (max distance from the chord).

        Figure 11 discusses how the knee — where the bottleneck flips from
        source-bound to Beefy-ingest-bound — migrates with selectivity.
        """
        normalized = self.normalized()
        if len(normalized) < 3:
            return self.points[-1]
        first, last = normalized[0], normalized[-1]
        dx = last.performance - first.performance
        dy = last.energy - first.energy
        length = (dx * dx + dy * dy) ** 0.5
        if length == 0:
            return self.points[0]
        best_index, best_distance = 0, -1.0
        for index, p in enumerate(normalized):
            distance = abs(
                dx * (first.energy - p.energy) - (first.performance - p.performance) * dy
            ) / length
            if distance > best_distance:
                best_index, best_distance = index, distance
        return self.points[best_index]

    def energy_span(self) -> float:
        """Max/min energy ratio across the curve (1.0 = flat curve)."""
        energies = [p.energy for p in self.normalized()]
        low = min(energies)
        if low <= 0:
            raise ModelError("non-positive normalized energy")
        return max(energies) / low

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class DesignSpaceExplorer:
    """Enumerates and evaluates Beefy/Wimpy mixes of a fixed-size cluster.

    ``workers > 1`` fans sweep evaluations out over the search engine's
    persistent worker pool (release it with :meth:`close` when done);
    results are identical to the serial path.
    """

    def __init__(
        self,
        beefy: NodeSpec,
        wimpy: NodeSpec,
        cluster_size: int,
        warm_cache: bool = False,
        evaluator: Evaluator | None = None,
        strict_paper_conditions: bool = False,
        workers: int = 1,
    ):
        if cluster_size <= 0:
            raise ModelError(f"cluster_size must be > 0, got {cluster_size}")
        self.beefy = beefy
        self.wimpy = wimpy
        self.cluster_size = cluster_size
        self.warm_cache = warm_cache
        self.strict_paper_conditions = strict_paper_conditions
        self.workers = workers
        self._evaluator = evaluator
        self._cache = EvaluationCache()
        self._engine: DesignSpaceSearch | None = None

    @property
    def cache(self) -> EvaluationCache:
        """The evaluation memo backing this explorer's sweeps and any
        :class:`~repro.study.Study` built over it."""
        return self._cache

    def mixes(self) -> list[ClusterSpec]:
        """All designs from all-Beefy to all-Wimpy (paper's ``xB,yW`` axis)."""
        designs = []
        for num_beefy in range(self.cluster_size, -1, -1):
            num_wimpy = self.cluster_size - num_beefy
            designs.append(
                ClusterSpec.beefy_wimpy(self.beefy, num_beefy, self.wimpy, num_wimpy)
            )
        return designs

    def mix_candidates(
        self, mode: ExecutionMode | None = None
    ) -> list[DesignCandidate]:
        """The mix axis as search candidates (shared by sweeps and studies)."""
        return [
            DesignCandidate(
                label=f"{num_beefy}B,{self.cluster_size - num_beefy}W",
                beefy=self.beefy,
                wimpy=self.wimpy,
                num_beefy=num_beefy,
                num_wimpy=self.cluster_size - num_beefy,
                mode=mode,
            )
            for num_beefy in range(self.cluster_size, -1, -1)
        ]

    def evaluate(
        self,
        cluster: ClusterSpec,
        workload: Workload | JoinWorkloadSpec,
        mode: ExecutionMode | None = None,
    ) -> DesignPoint:
        """Evaluate one design (analytical model unless a custom evaluator
        was supplied).

        The single-point path runs through the same evaluator and
        evaluation cache as :meth:`sweep`, so one-off evaluations warm the
        sweep memo (and vice versa).  Candidate parameters come from the
        explorer's node types directly — all-Wimpy designs keep the Beefy
        disk/NIC bandwidths (the paper's Section 5.4 uniformity
        assumption) — exactly as the sweeps build them.

        Exception: a custom evaluator is a function of the *actual*
        cluster object, so when the caller's cluster is not one the
        explorer's specs can rebuild (foreign node types), it is priced
        directly and never cached — a foreign cluster must not collide
        with same-shaped sweep entries.
        """
        candidate = DesignCandidate(
            label=cluster.name,
            beefy=self.beefy,
            wimpy=self.wimpy,
            num_beefy=cluster.num_beefy,
            num_wimpy=cluster.num_wimpy,
            mode=mode,
        )
        if self._evaluator is not None and candidate.cluster() != cluster:
            total_time = 0.0
            total_energy = 0.0
            for query, weight in as_workload(workload).weighted_queries():
                time_s, energy_j = CallableEvaluator.checked(
                    cluster.name, self._evaluator(cluster, query)
                )
                total_time += weight * time_s
                total_energy += weight * energy_j
            return DesignPoint(
                label=cluster.name,
                cluster=cluster,
                time_s=total_time,
                energy_j=total_energy,
            )
        result = self._search_engine().search([candidate], workload)
        evaluated = result.points[0]
        if not evaluated.feasible:
            raise ModelError(evaluated.infeasible_reason)
        return DesignPoint(
            label=cluster.name,
            cluster=cluster,
            time_s=evaluated.time_s,
            energy_j=evaluated.energy_j,
            prediction=evaluated.prediction,
        )

    def sweep_sizes(
        self,
        workload: Workload | JoinWorkloadSpec,
        sizes: Sequence[int],
        mode: ExecutionMode | None = None,
    ) -> TradeoffCurve:
        """Homogeneous all-Beefy size sweep (largest size is the reference).

        This is the other axis of the paper's design space: Figures 1a/3/4
        vary homogeneous cluster size, Figure 12(c) compares this sweep
        against the Beefy/Wimpy mixes at fixed size.
        """
        if not sizes:
            raise ModelError("no cluster sizes given")
        candidates = [
            DesignCandidate(
                label=f"{size}B",
                beefy=self.beefy,
                wimpy=self.wimpy,
                num_beefy=size,
                num_wimpy=0,
                mode=mode,
                homogeneous=True,
            )
            for size in sorted(set(sizes), reverse=True)
        ]
        points = self._run_search(candidates, workload)
        if not points:
            raise ModelError(f"no feasible size for {as_workload(workload).name}")
        return TradeoffCurve(points, reference_label=points[0].label)

    def sweep(
        self,
        workload: Workload | JoinWorkloadSpec,
        mode: ExecutionMode | None = None,
        reference_label: str | None = None,
    ) -> TradeoffCurve:
        """Evaluate every feasible mix; infeasible designs are skipped.

        ``workload`` is anything satisfying the
        :class:`~repro.workloads.protocol.Workload` protocol; a suite's
        cost at each design is the weight-summed cost of its queries.
        Infeasibility mirrors the paper ("we do not use fewer than 2 Beefy
        nodes because 1 Beefy node cannot build the entire hash table"):
        designs that cannot run the whole workload are dropped from the
        curve.
        """
        points = self._run_search(self.mix_candidates(mode), workload)
        if not points:
            raise ModelError(f"no feasible design for {as_workload(workload).name}")
        return TradeoffCurve(points, reference_label=reference_label)

    # ------------------------------------------------------------- delegation
    def search_evaluator(self) -> "CallableEvaluator | ModelEvaluator":
        """This explorer's configuration as a search-engine evaluator
        (shared by sweeps and studies)."""
        if self._evaluator is not None:
            return CallableEvaluator(self._evaluator)
        return ModelEvaluator(
            warm_cache=self.warm_cache,
            strict_paper_conditions=self.strict_paper_conditions,
        )

    def _search_engine(self) -> DesignSpaceSearch:
        """The :mod:`repro.search` engine backing this explorer's sweeps.

        Created once per explorer: sweeps, size sweeps, and single-point
        evaluations all share one engine, so its per-entry memo and (for
        ``workers > 1``) its persistent worker pool carry across calls.
        """
        if self._engine is None:
            self._engine = DesignSpaceSearch(
                evaluator=self.search_evaluator(),
                workers=self.workers,
                cache=self._cache,
            )
        return self._engine

    def close(self) -> None:
        """Release the engine's persistent worker pool (if any)."""
        if self._engine is not None:
            self._engine.close()

    def _run_search(
        self, candidates: Sequence[DesignCandidate], workload: Workload | JoinWorkloadSpec
    ) -> list[DesignPoint]:
        """Search the candidates and keep the feasible points, grid order."""
        result = self._search_engine().search(candidates, workload)
        return [DesignPoint.from_record(evaluated) for evaluated in result.feasible_points]
