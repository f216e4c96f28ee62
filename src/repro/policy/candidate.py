"""(design x policy) pairs as first-class search candidates.

A :class:`PolicyCandidate` wraps a
:class:`~repro.search.grid.DesignCandidate` with a
:class:`~repro.policy.policies.ControlPolicy` and a control-tick
interval, and quacks like a design candidate everywhere the search stack
looks: ``label``, ``key()``, ``cluster()``, the mix/DVFS/mode accessors,
and picklability.  The engine, optimizers, cache, Pareto selections, and
exports therefore handle (design x policy) points without modification;
only the evaluator inspects the ``policy`` attribute to decide how to
replay a timed trace.

Cache keys are namespaced (``("policy", ...)``): a policy-bearing
candidate can never collide with — nor be served from — a design-only
cache row, in either direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.policy.policies import ControlPolicy
from repro.pstore.plans import ExecutionMode
from repro.search.grid import DesignCandidate

__all__ = ["PolicyCandidate"]


@dataclass(frozen=True)
class PolicyCandidate:
    """One (cluster design, control policy) point of the search space.

    ``control_interval_s`` is how often the simulator consults the
    policy mid-trace.  The default label is ``{design}|{policy}``; the
    engine may relabel on collisions (``label`` is a real field for
    that), but identity always flows through :meth:`key`.
    """

    design: DesignCandidate
    policy: ControlPolicy
    control_interval_s: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.policy, ControlPolicy):
            raise ConfigurationError(
                f"not a control policy: {self.policy!r}"
            )
        interval = self.control_interval_s
        if not (math.isfinite(interval) and interval > 0):
            raise ConfigurationError(
                f"control interval must be finite and > 0, got {interval}"
            )
        if not self.label:
            object.__setattr__(
                self, "label", f"{self.design.label}|{self.policy.label}"
            )

    # ------------------------------------------------ design-candidate surface
    @property
    def beefy(self) -> NodeSpec:
        return self.design.beefy

    @property
    def wimpy(self) -> NodeSpec:
        return self.design.wimpy

    @property
    def num_beefy(self) -> int:
        return self.design.num_beefy

    @property
    def num_wimpy(self) -> int:
        return self.design.num_wimpy

    @property
    def num_nodes(self) -> int:
        return self.design.num_nodes

    @property
    def frequency_factor(self) -> float:
        return self.design.frequency_factor

    @property
    def beefy_frequency_factor(self) -> float | None:
        return self.design.beefy_frequency_factor

    @property
    def wimpy_frequency_factor(self) -> float | None:
        return self.design.wimpy_frequency_factor

    @property
    def effective_beefy_frequency(self) -> float:
        return self.design.effective_beefy_frequency

    @property
    def effective_wimpy_frequency(self) -> float:
        return self.design.effective_wimpy_frequency

    @property
    def effective_beefy(self) -> NodeSpec:
        return self.design.effective_beefy

    @property
    def effective_wimpy(self) -> NodeSpec:
        return self.design.effective_wimpy

    @property
    def homogeneous(self) -> bool:
        return self.design.homogeneous

    @property
    def mode(self) -> ExecutionMode | None:
        return self.design.mode

    def cluster(self) -> ClusterSpec:
        return self.design.cluster()

    def with_mode(self, mode: ExecutionMode | None) -> "PolicyCandidate":
        """This candidate with one execution mode forced on its design.

        The counterpart of ``dataclasses.replace(candidate, mode=...)``
        on a bare design (``mode`` is a delegated property here, not a
        field); :meth:`repro.study.Study.candidates` calls whichever the
        candidate offers.
        """
        return replace(self, design=replace(self.design, mode=mode))

    def key(self) -> tuple:
        """Namespaced cache key: disjoint from every design-only key."""
        return (
            "policy",
            self.design.key(),
            self.policy.cache_key(),
            self.control_interval_s,
        )
