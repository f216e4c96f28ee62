"""DVFS-style frequency scaling of node specs.

The paper's introduction notes heterogeneous design "may also become
important if future hardware (e.g., processor and/or memory subsystems)
allows systems to dynamically control their power/performance trade-offs".
This module provides that control as a spec transformation, so frequency
scaling can be compared head-to-head with downsizing and Wimpy
substitution.

The scaling model is the standard CMOS approximation: at frequency factor
``phi`` (0 < phi <= 1, relative to nominal),

* CPU bandwidth scales linearly: ``C' = phi * C``;
* the *dynamic* component of power scales cubically (voltage tracks
  frequency): ``P'(c) = P_idle + (P(c) - P_idle) * phi**3``.

Disk, NIC, and memory are unaffected — which is exactly why DVFS is so
attractive for network-bound queries: it sheds watts without touching the
bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.node import NodeSpec
from repro.hardware.power import MIN_UTILIZATION, PowerModel

__all__ = ["DVFSPowerModel", "dvfs_variant"]


@dataclass(frozen=True)
class DVFSPowerModel(PowerModel):
    """A base power model with its dynamic component scaled by ``phi**3``."""

    base: PowerModel
    frequency_factor: float

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency_factor <= 1.0:
            raise ConfigurationError(
                f"frequency factor must be in (0, 1], got {self.frequency_factor}"
            )

    def power(self, utilization: float) -> float:
        idle = self.base.power(MIN_UTILIZATION)
        dynamic = self.base.power(utilization) - idle
        return idle + dynamic * self.frequency_factor**3

    def formula(self) -> str:
        return (
            f"idle+({self.base.formula()}-idle)*{self.frequency_factor:g}^3"
        )


#: Variants already built, keyed on the node's identity and the factor:
#: a design grid asks for the same few DVFS states of the same node
#: objects once per design and join.  Each entry holds its node, so the
#: node's id cannot be reused while the entry lives.  Bounded: a full memo
#: starts over.
_VARIANTS: dict[tuple, tuple[NodeSpec, NodeSpec]] = {}
_MAX_VARIANTS = 128


def dvfs_variant(node: NodeSpec, frequency_factor: float) -> NodeSpec:
    """A copy of ``node`` running at ``frequency_factor`` of nominal clock.

    Repeated requests for the same node and factor share one spec (specs
    are immutable), so a design grid builds each DVFS state once.  A
    shared spec equals a fresh one in every field, ``description``
    included.

    >>> from repro.hardware.presets import CLUSTER_V_NODE
    >>> slow = dvfs_variant(CLUSTER_V_NODE, 0.6)
    >>> slow.cpu_bandwidth_mbps == 0.6 * CLUSTER_V_NODE.cpu_bandwidth_mbps
    True
    """
    if not 0.0 < frequency_factor <= 1.0:
        raise ConfigurationError(
            f"frequency factor must be in (0, 1], got {frequency_factor}"
        )
    # the factor's type too: 1 and 1.0 are equal keys but distinct specs
    key = (id(node), type(frequency_factor), frequency_factor)
    hit = _VARIANTS.get(key)
    if hit is not None:
        return hit[1]
    variant = node.with_overrides(
        name=f"{node.name}@{frequency_factor:.0%}",
        cpu_bandwidth_mbps=node.cpu_bandwidth_mbps * frequency_factor,
        power_model=DVFSPowerModel(node.power_model, frequency_factor),
    )
    if len(_VARIANTS) >= _MAX_VARIANTS:
        _VARIANTS.clear()
    _VARIANTS[key] = (node, variant)
    return variant
