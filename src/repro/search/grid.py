"""Multi-dimensional design grids for the search engine.

The paper's design space (Section 5.4) is one axis — Beefy/Wimpy mixes of
a fixed-size cluster.  :class:`DesignGrid` generalizes it to the cross
product of

* node-type pairs (which Beefy and which Wimpy hardware),
* cluster sizes,
* Beefy/Wimpy splits of each size (the paper's ``xB,yW`` axis),
* cluster-wide DVFS states (frequency factors, Section 1's "dynamically
  control their power/performance trade-offs"),
* per-node-type DVFS overrides (asymmetric Beefy/Wimpy frequency states,
  ``beefy_frequency_factors`` / ``wimpy_frequency_factors``),
* execution modes (homogeneous / heterogeneous / model-chosen).

Each point of the grid is a :class:`DesignCandidate` — a frozen, picklable
record carrying everything an evaluator needs, plus a deterministic
:meth:`DesignCandidate.key` used by the evaluation cache.  A candidate
may also carry a :class:`~repro.policy.policies.ControlPolicy`
(:meth:`DesignCandidate.with_policy`): the (design x policy) point the
autoscaling searches rank.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.dvfs import dvfs_variant
from repro.hardware.node import NodeSpec
from repro.policy.policies import ControlPolicy
from repro.pstore.plans import ExecutionMode

__all__ = ["DesignCandidate", "DesignGrid", "unique_labels"]


def _spec_key(spec: NodeSpec) -> tuple:
    """Deterministic identity of a node spec for cache keys.

    Covers every field an evaluator can read — the power model enters via
    its formula string, which encodes the model class and parameters.
    """
    return (
        spec.name,
        spec.cpu_bandwidth_mbps,
        spec.memory_mb,
        spec.disk_bandwidth_mbps,
        spec.nic_bandwidth_mbps,
        spec.engine_base_utilization,
        spec.cores,
        spec.threads,
        spec.power_model.formula(),
    )


def candidate_label(
    beefy: NodeSpec,
    wimpy: NodeSpec,
    num_beefy: int,
    num_wimpy: int,
    *,
    multi_pair: bool = False,
    multi_size: bool = False,
    multi_freq: bool = False,
    multi_beefy: bool = False,
    multi_wimpy: bool = False,
    multi_mode: bool = False,
    frequency_factor: float = 1.0,
    beefy_factor: float | None = None,
    wimpy_factor: float | None = None,
    mode=None,
) -> str:
    """The canonical display label of one design point.

    Shared by :meth:`DesignGrid.candidates` and
    :meth:`~repro.search.space.SearchSpace.sample`, so a sampled
    candidate and the identical grid point always carry the same label:
    each ``multi_*`` flag says whether that axis varies in the enclosing
    space (an axis that cannot vary is omitted from labels, like the
    paper's plain ``xB,yW`` names).
    """
    parts = [f"{num_beefy}B,{num_wimpy}W"]
    if multi_pair:
        parts.append(f"{beefy.name}+{wimpy.name}")
    if multi_size:
        parts.append(f"n{num_beefy + num_wimpy}")
    if multi_freq or frequency_factor != 1.0:
        parts.append(f"phi{frequency_factor:g}")
    if beefy_factor is not None and (multi_beefy or beefy_factor != 1.0):
        parts.append(f"phiB{beefy_factor:g}")
    if wimpy_factor is not None and (multi_wimpy or wimpy_factor != 1.0):
        parts.append(f"phiW{wimpy_factor:g}")
    if multi_mode and mode is not None:
        parts.append(mode.value)
    return "|".join(parts)


@dataclass(frozen=True)
class DesignCandidate:
    """One point of the design space, ready for evaluation.

    ``frequency_factor`` applies cluster-wide DVFS: both node types are
    scaled with :func:`~repro.hardware.dvfs.dvfs_variant` before being
    handed to the evaluator.  ``beefy_frequency_factor`` and
    ``wimpy_frequency_factor`` override it per node type (e.g. Beefies at
    0.8 with Wimpies at nominal clock); each defaults to the cluster-wide
    factor.  ``homogeneous`` marks size-sweep points whose cluster should
    be a plain homogeneous spec (no empty Wimpy group).

    ``policy`` puts a :class:`~repro.policy.policies.ControlPolicy` in
    charge of the design's node power states mid-trace, consulted every
    ``control_interval_s`` simulated seconds; ``None`` (the default) is
    the paper's static cluster.  :meth:`with_policy` attaches one.
    """

    label: str
    beefy: NodeSpec
    wimpy: NodeSpec
    num_beefy: int
    num_wimpy: int
    frequency_factor: float = 1.0
    mode: ExecutionMode | None = None
    homogeneous: bool = False
    beefy_frequency_factor: float | None = None
    wimpy_frequency_factor: float | None = None
    policy: ControlPolicy | None = None
    control_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.num_beefy < 0 or self.num_wimpy < 0:
            raise ConfigurationError("node counts must be >= 0")
        if self.num_beefy + self.num_wimpy == 0:
            raise ConfigurationError(f"candidate {self.label!r} has no nodes")
        for factor in (
            self.frequency_factor,
            self.effective_beefy_frequency,
            self.effective_wimpy_frequency,
        ):
            if not 0.0 < factor <= 1.0:
                raise ConfigurationError(
                    f"frequency factor must be in (0, 1], got {factor}"
                )
        if self.homogeneous and self.num_wimpy:
            raise ConfigurationError(
                f"candidate {self.label!r}: homogeneous designs cannot have Wimpies"
            )
        if self.policy is not None and not isinstance(self.policy, ControlPolicy):
            raise ConfigurationError(f"not a control policy: {self.policy!r}")
        interval = self.control_interval_s
        if not (math.isfinite(interval) and interval > 0):
            raise ConfigurationError(
                f"control interval must be finite and > 0, got {interval}"
            )

    # ------------------------------------------------------------- derived
    @property
    def num_nodes(self) -> int:
        return self.num_beefy + self.num_wimpy

    @property
    def effective_beefy_frequency(self) -> float:
        """The Beefy DVFS state: per-type override or the cluster factor."""
        if self.beefy_frequency_factor is not None:
            return self.beefy_frequency_factor
        return self.frequency_factor

    @property
    def effective_wimpy_frequency(self) -> float:
        """The Wimpy DVFS state: per-type override or the cluster factor."""
        if self.wimpy_frequency_factor is not None:
            return self.wimpy_frequency_factor
        return self.frequency_factor

    @property
    def effective_beefy(self) -> NodeSpec:
        """The Beefy spec with the candidate's DVFS state applied."""
        if self.effective_beefy_frequency == 1.0:
            return self.beefy
        return dvfs_variant(self.beefy, self.effective_beefy_frequency)

    @property
    def effective_wimpy(self) -> NodeSpec:
        """The Wimpy spec with the candidate's DVFS state applied."""
        if self.effective_wimpy_frequency == 1.0:
            return self.wimpy
        return dvfs_variant(self.wimpy, self.effective_wimpy_frequency)

    def cluster(self) -> ClusterSpec:
        """The candidate as a concrete cluster specification."""
        if self.homogeneous:
            return ClusterSpec.homogeneous(
                self.effective_beefy, self.num_beefy, name=self.label
            )
        return ClusterSpec.beefy_wimpy(
            self.effective_beefy,
            self.num_beefy,
            self.effective_wimpy,
            self.num_wimpy,
            name=self.label,
        )

    def with_policy(
        self, policy: ControlPolicy, control_interval_s: float = 1.0
    ) -> "DesignCandidate":
        """This design under ``policy``, labeled ``{design}|{policy}``.

        The engine may relabel the result on collisions (``label`` is a
        plain field); identity always flows through :meth:`key`.
        """
        if self.policy is not None:
            raise ConfigurationError(
                f"candidate {self.label!r} already carries a policy"
            )
        if not isinstance(policy, ControlPolicy):
            raise ConfigurationError(f"not a control policy: {policy!r}")
        return replace(
            self,
            label=f"{self.label}|{policy.label}",
            policy=policy,
            control_interval_s=control_interval_s,
        )

    def key(self) -> tuple:
        """Deterministic cache key (independent of the display label).

        DVFS enters via the *resolved* per-type frequencies, so a
        cluster-wide factor and the equivalent pair of per-type overrides
        share one cache entry — they describe the same hardware.  A
        policy-bearing candidate's key is namespaced (``("policy", ...)``),
        so it can never collide with — nor be served from — a design-only
        cache row, in either direction.
        """
        design = (
            _spec_key(self.beefy),
            _spec_key(self.wimpy),
            self.num_beefy,
            self.num_wimpy,
            self.effective_beefy_frequency,
            self.effective_wimpy_frequency,
            self.mode.value if self.mode is not None else None,
            self.homogeneous,
        )
        if self.policy is None:
            return design
        return ("policy", design, self.policy.cache_key(), self.control_interval_s)


@dataclass(frozen=True)
class DesignGrid:
    """The cross product of the search dimensions.

    ``mix_step`` thins the Beefy/Wimpy axis (a step of 2 on a 16-node
    cluster enumerates 16B, 14B, ... 0B); both endpoints — all-Beefy and
    all-Wimpy — are always included.

    ``beefy_frequency_factors`` / ``wimpy_frequency_factors`` add
    asymmetric DVFS axes: each enumerated value overrides the cluster-wide
    ``frequency_factors`` state for that node type only (Beefies throttled
    to 0.8 while Wimpies stay at nominal clock, and so on), so asymmetric
    states are grid points instead of hand-built candidate lists.  ``None``
    (the default) leaves the per-type state following the cluster-wide
    factor.
    """

    node_pairs: tuple[tuple[NodeSpec, NodeSpec], ...]
    cluster_sizes: tuple[int, ...]
    frequency_factors: tuple[float, ...] = (1.0,)
    modes: tuple[ExecutionMode | None, ...] = (None,)
    mix_step: int = 1
    beefy_frequency_factors: tuple[float, ...] | None = None
    wimpy_frequency_factors: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.node_pairs:
            raise ConfigurationError("a design grid needs at least one node pair")
        if not self.cluster_sizes:
            raise ConfigurationError("a design grid needs at least one cluster size")
        if any(size <= 0 for size in self.cluster_sizes):
            raise ConfigurationError(f"cluster sizes must be > 0: {self.cluster_sizes}")
        if len(set(self.cluster_sizes)) != len(self.cluster_sizes):
            raise ConfigurationError(f"duplicate cluster sizes: {self.cluster_sizes}")
        if not self.frequency_factors:
            raise ConfigurationError("a design grid needs at least one frequency factor")
        for factor in self.frequency_factors:
            if not 0.0 < factor <= 1.0:
                raise ConfigurationError(
                    f"frequency factors must be in (0, 1], got {factor}"
                )
        if not self.modes:
            raise ConfigurationError("a design grid needs at least one mode entry")
        if self.mix_step < 1:
            raise ConfigurationError(f"mix_step must be >= 1, got {self.mix_step}")
        for axis_name, axis in (
            ("beefy_frequency_factors", self.beefy_frequency_factors),
            ("wimpy_frequency_factors", self.wimpy_frequency_factors),
        ):
            if axis is None:
                continue
            if not axis:
                raise ConfigurationError(
                    f"{axis_name} must be None or non-empty"
                )
            for factor in axis:
                if not 0.0 < factor <= 1.0:
                    raise ConfigurationError(
                        f"{axis_name} must be in (0, 1], got {factor}"
                    )
        if (
            self.beefy_frequency_factors is not None
            and self.wimpy_frequency_factors is not None
            and self.frequency_factors != (1.0,)
        ):
            # Both per-type overrides present: every candidate ignores the
            # cluster-wide factor, so a non-trivial frequency_factors axis
            # would only enumerate duplicate hardware states.
            raise ConfigurationError(
                "frequency_factors is shadowed when both "
                "beefy_frequency_factors and wimpy_frequency_factors are "
                "set; drop it (the per-type axes define every DVFS state)"
            )

    # ------------------------------------------------------------- builders
    @classmethod
    def paper_axis(
        cls, beefy: NodeSpec, wimpy: NodeSpec, cluster_size: int
    ) -> "DesignGrid":
        """The paper's single-row space: ``8B,0W ... 0B,8W`` at one size."""
        return cls(node_pairs=((beefy, wimpy),), cluster_sizes=(cluster_size,))

    # ---------------------------------------------------------- enumeration
    def _beefy_counts(self, size: int) -> list[int]:
        counts = set(range(size, -1, -self.mix_step))
        counts.add(0)  # all-Wimpy endpoint even when the step skips it
        return sorted(counts, reverse=True)

    def __len__(self) -> int:
        mixes = sum(len(self._beefy_counts(size)) for size in self.cluster_sizes)
        return (
            len(self.node_pairs)
            * mixes
            * len(self.frequency_factors)
            * len(self.beefy_frequency_factors or (None,))
            * len(self.wimpy_frequency_factors or (None,))
            * len(self.modes)
        )

    def candidates(self) -> Iterator[DesignCandidate]:
        """Yield every grid point in deterministic order with unique labels."""
        multi_pair = len(self.node_pairs) > 1
        multi_size = len(self.cluster_sizes) > 1
        multi_freq = len(self.frequency_factors) > 1
        multi_mode = len(self.modes) > 1
        beefy_axis = self.beefy_frequency_factors or (None,)
        wimpy_axis = self.wimpy_frequency_factors or (None,)
        multi_beefy = len(beefy_axis) > 1
        multi_wimpy = len(wimpy_axis) > 1
        for beefy, wimpy in self.node_pairs:
            for size in self.cluster_sizes:
                for num_beefy in self._beefy_counts(size):
                    num_wimpy = size - num_beefy
                    for factor in self.frequency_factors:
                        for beefy_factor in beefy_axis:
                            for wimpy_factor in wimpy_axis:
                                for mode in self.modes:
                                    label = candidate_label(
                                        beefy,
                                        wimpy,
                                        num_beefy,
                                        num_wimpy,
                                        multi_pair=multi_pair,
                                        multi_size=multi_size,
                                        multi_freq=multi_freq,
                                        multi_beefy=multi_beefy,
                                        multi_wimpy=multi_wimpy,
                                        multi_mode=multi_mode,
                                        frequency_factor=factor,
                                        beefy_factor=beefy_factor,
                                        wimpy_factor=wimpy_factor,
                                        mode=mode,
                                    )
                                    yield DesignCandidate(
                                        label=label,
                                        beefy=beefy,
                                        wimpy=wimpy,
                                        num_beefy=num_beefy,
                                        num_wimpy=num_wimpy,
                                        frequency_factor=factor,
                                        mode=mode,
                                        beefy_frequency_factor=beefy_factor,
                                        wimpy_frequency_factor=wimpy_factor,
                                    )

    def candidate_list(self) -> list[DesignCandidate]:
        return list(self.candidates())


def unique_labels(candidates: Sequence[DesignCandidate]) -> None:
    """Raise if two candidates share a display label."""
    counts = Counter(candidate.label for candidate in candidates)
    duplicates = sorted(label for label, count in counts.items() if count > 1)
    if duplicates:
        raise ConfigurationError(f"duplicate candidate labels: {duplicates}")
