"""A timed trace bound to a fault scenario: the degraded workload.

:meth:`TimedTrace.with_faults <repro.workloads.protocol.TimedTrace
.with_faults>` returns a :class:`FaultedTrace`: the same arrival
schedule, plus the :class:`~repro.faults.schedule.FaultSchedule` to
inject, the :class:`~repro.faults.schedule.FailurePolicy` governing
killed jobs, and (optionally) the replication the cluster runs with —
which is what decides whether a crash is survivable or the candidate is
infeasible-under-fault.

A :class:`FaultedTrace` satisfies both the plain ``Workload`` protocol
and the timed structural check (it has ``schedule()``), so it flows
through :class:`~repro.search.engine.DesignSpaceSearch` unchanged.  Its
:meth:`cache_key` namespaces the underlying trace's key with the
scenario's, so degraded evaluations can never collide with healthy rows
in the :class:`~repro.search.cache.EvaluationCache` — in either
direction.  A non-empty schedule replays on the multiplexed loop like a
healthy trace, each design's lane driving the serial loop's node-state
machine, so degraded records are bit-identical to serial replay.  An
*empty* schedule routes down the exact healthy path (serial or
multiplexed) and is bit-identical to the bare trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigurationError, PlanError
from repro.faults.schedule import FailurePolicy, FaultSchedule
from repro.pstore.replication import ReplicatedLayout
from repro.workloads.protocol import TimedTrace, WeightedQuery

__all__ = ["FaultedTrace"]


@dataclass(frozen=True)
class FaultedTrace:
    """A :class:`~repro.workloads.protocol.TimedTrace` under a fault
    scenario.

    ``replication_factor=None`` (the default) runs without a replicated
    layout: crashes still kill and re-queue jobs, but no coverage check
    applies.  With a factor, each candidate gets a chained-declustering
    :class:`~repro.pstore.replication.ReplicatedLayout` of
    ``partitions_per_node`` partitions per node sized to its cluster,
    and a crash that strands every copy of a partition makes the
    candidate infeasible-under-fault instead of silently continuing.
    """

    trace: TimedTrace
    faults: FaultSchedule
    failure_policy: FailurePolicy = field(default_factory=FailurePolicy)
    replication_factor: int | None = None
    partitions_per_node: int = 2

    def __post_init__(self) -> None:
        if self.replication_factor is not None and self.replication_factor < 1:
            raise ConfigurationError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )
        if self.partitions_per_node < 1:
            raise ConfigurationError(
                f"partitions_per_node must be >= 1, got {self.partitions_per_node}"
            )

    # -------------------------------------------------- Workload protocol
    @property
    def name(self) -> str:
        scenario = self.faults.name or f"{len(self.faults)}-faults"
        return f"{self.trace.name}+{scenario}"

    def cache_key(self) -> tuple:
        return (
            "faulted-trace",
            self.trace.cache_key(),
            self.faults.cache_key(),
            self.failure_policy.cache_key(),
            self.replication_factor,
            self.partitions_per_node,
        )

    def weighted_queries(self) -> tuple[WeightedQuery, ...]:
        return self.trace.weighted_queries()

    # ----------------------------------------------------- timed protocol
    def schedule(self):
        """The underlying ``(query, arrival_time_s)`` events — the
        presence of this accessor keeps the trace on the timed path."""
        return self.trace.schedule()

    @property
    def span_s(self) -> float:
        return self.trace.span_s

    @property
    def total_weight(self) -> float:
        return self.trace.total_weight

    def weights_only(self):
        return self.trace.weights_only()

    # ------------------------------------------------------------ faults
    def layout_for(self, num_nodes: int) -> ReplicatedLayout | None:
        """The candidate-sized replicated layout, or ``None`` without
        replication.

        A design with fewer nodes than the factor cannot hold every copy
        of a partition on a distinct node.  That is a property of the
        design, not of the scenario, so it raises
        :class:`~repro.errors.PlanError`, which the evaluators turn into
        an infeasible record instead of stopping the search.
        """
        if self.replication_factor is None:
            return None
        if self.replication_factor > num_nodes:
            raise PlanError(
                f"replication factor {self.replication_factor} needs at least "
                f"{self.replication_factor} nodes; this design has {num_nodes}"
            )
        return ReplicatedLayout(
            num_nodes=num_nodes,
            num_partitions=num_nodes * self.partitions_per_node,
            replication_factor=self.replication_factor,
        )

    def __len__(self) -> int:
        return len(self.trace)

    def __iter__(self) -> Iterator:
        return iter(self.trace)
