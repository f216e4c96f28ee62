"""Server power-state transitions: the cost of turning nodes off.

Section 2: "One [approach] is to consolidate work onto few servers and turn
off unused servers.  However, switching servers on and off has direct costs
such as increased query latency and decreased hardware reliability."

This module makes those costs explicit so downsizing decisions can account
for them: a :class:`PowerStateModel` prices the shutdown/boot cycle of a
node, and :func:`downsizing_break_even_s` answers the operational question
the paper's Figure 12(b) raises — *how long must the small configuration
run before powering nodes down actually pays?*
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.node import NodeSpec

__all__ = ["PowerStateModel", "downsizing_break_even_s", "TRADITIONAL_SERVER"]


@dataclass(frozen=True)
class PowerStateModel:
    """Time and energy cost of one off/on cycle for a node.

    Boot and shutdown draw near-peak power (spin-up, fsck, service start),
    so the cycle costs energy as well as latency.
    """

    shutdown_s: float = 30.0
    boot_s: float = 120.0
    #: fraction of the node's peak power drawn during transitions
    transition_power_fraction: float = 0.8
    #: fraction of the node's *idle* power still drawn while gated (standby
    #: leakage, BMC, wake-on-LAN circuitry; 0 means a hard power-off)
    gated_power_fraction: float = 0.1

    def __post_init__(self) -> None:
        for name in ("shutdown_s", "boot_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.shutdown_s < 0 or self.boot_s < 0:
            raise ConfigurationError("transition times must be >= 0")
        if not 0.0 < self.transition_power_fraction <= 1.0:
            raise ConfigurationError(
                "transition power fraction must be in (0, 1], got "
                f"{self.transition_power_fraction}"
            )
        if not 0.0 <= self.gated_power_fraction < 1.0:
            raise ConfigurationError(
                "gated power fraction must be in [0, 1), got "
                f"{self.gated_power_fraction}"
            )

    @property
    def cycle_s(self) -> float:
        return self.shutdown_s + self.boot_s

    def cycle_energy_j(self, node: NodeSpec) -> float:
        """Energy of one full off/on cycle of ``node``."""
        return self.cycle_s * self.transition_power_fraction * node.peak_power_w

    def gated_power_w(self, node: NodeSpec) -> float:
        """Watts ``node`` draws while gated (standby residual)."""
        return self.gated_power_fraction * node.idle_power_w


#: typical enterprise rack server (order-of-minutes boot)
TRADITIONAL_SERVER = PowerStateModel()


def downsizing_break_even_s(
    node: NodeSpec,
    idle_nodes: int = 1,
    model: PowerStateModel = TRADITIONAL_SERVER,
) -> float:
    """Seconds the shrunk configuration must persist to repay the cycle.

    Powering ``idle_nodes`` nodes down saves their engine-idle power while
    off, but costs one transition cycle each.  The break-even duration is

        cycle_energy / idle_power_per_node

    independent of how many nodes are cycled (both sides scale together) —
    exposed for clarity and testing.
    """
    if idle_nodes <= 0:
        raise ConfigurationError(f"idle_nodes must be > 0, got {idle_nodes}")
    idle_power = node.idle_power_w
    if idle_power <= 0:
        raise ConfigurationError(f"{node.name}: idle power must be > 0")
    return model.cycle_energy_j(node) / idle_power


def downsizing_net_energy_j(
    node: NodeSpec,
    idle_nodes: int,
    off_duration_s: float,
    model: PowerStateModel = TRADITIONAL_SERVER,
) -> float:
    """Net energy saved (positive) or wasted (negative) by a power-down.

    ``off_duration_s`` is how long the nodes stay off before they are
    needed again.
    """
    if off_duration_s < 0:
        raise ConfigurationError(f"off duration must be >= 0, got {off_duration_s}")
    saved = idle_nodes * node.idle_power_w * off_duration_s
    spent = idle_nodes * model.cycle_energy_j(node)
    return saved - spent
