"""Control policies: the decision side of dynamic cluster control.

A :class:`ControlPolicy` is consulted by the simulator at every control
tick (:meth:`~repro.simulator.engine.ClusterSimulator.run` with a
``policy``) and answers with a list of actions — gate a node, wake a
node, step a node's frequency.  Policies are *stateless* frozen
dataclasses: everything a decision needs (current power states, load
fractions, queue depth, how long the cluster has been idle) arrives in
the :class:`ClusterState` snapshot, so the same policy object can be
shared across candidates, pickled to worker processes, and keyed into
the evaluation cache via :meth:`ControlPolicy.cache_key`.

The shipped policies mirror the related work the ROADMAP names (Schall &
Härder's wimpy clusters powering nodes up/down with load):

* :class:`StaticPolicy` — the do-nothing baseline; marked ``is_static``
  so evaluation takes the exact no-policy fast path (bit-identical
  results, just labeled);
* :class:`PowerGatePolicy` — gates nodes of one role once the cluster
  has been idle past a floor, wakes them when arrivals are held waiting;
  the wake-up latency penalty is priced by its
  :class:`~repro.hardware.powerstate.PowerStateModel`;
* :class:`DvfsLadderPolicy` — steps a node role's frequency factor up
  and down a ladder against queue depth;
* :class:`PolicyChain` — composes policies; actions apply in order.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.cluster import WIMPY
from repro.hardware.powerstate import TRADITIONAL_SERVER, PowerStateModel
from repro.simulator.engine import ACTIVE, GATED, GATING, WAKING

__all__ = [
    "ACTIVE",
    "GATED",
    "GATING",
    "WAKING",
    "Action",
    "ClusterState",
    "ControlPolicy",
    "DvfsLadderPolicy",
    "GateNode",
    "PolicyChain",
    "PowerGatePolicy",
    "SetFrequency",
    "StaticPolicy",
    "UngateNode",
]

@dataclass(frozen=True)
class ClusterState:
    """What a policy sees at one control tick.

    ``node_utilization`` is each node's *load fraction* — its allocated
    CPU rate over its current effective capacity, in [0, 1], and 0 for
    inactive nodes — not the engine-floored utilization the power model
    reads, so thresholds compare against actual work.  ``idle_s`` is how
    long the cluster has had no work at all (no running and no held
    jobs); it resets to 0 the moment work exists, which gives gating
    policies hysteresis against flapping inside busy periods.
    """

    time_s: float
    node_roles: tuple[str, ...]
    node_states: tuple[str, ...]
    node_utilization: tuple[float, ...]
    frequency_factors: tuple[float, ...]
    #: jobs currently running plus jobs held waiting for inactive nodes
    queue_depth: int
    #: jobs that have arrived but wait for a gated/transitioning node
    held_jobs: int
    idle_s: float

    @property
    def num_nodes(self) -> int:
        return len(self.node_states)

    def nodes_in_state(self, state: str, role: str | None = None) -> list[int]:
        """Node ids currently in ``state`` (optionally of one role)."""
        return [
            node_id
            for node_id in range(self.num_nodes)
            if self.node_states[node_id] == state
            and (role is None or self.node_roles[node_id] == role)
        ]

    def mean_utilization(self, role: str | None = None) -> float:
        """Mean load fraction over the *active* nodes (of one role).

        0.0 when no node of the role is active — an all-gated role reads
        as unloaded, which is what a wake-up decision should key on
        ``held_jobs`` for, not this.
        """
        active = self.nodes_in_state(ACTIVE, role)
        if not active:
            return 0.0
        return sum(self.node_utilization[node_id] for node_id in active) / len(
            active
        )


@dataclass(frozen=True)
class GateNode:
    """Power one node down (active -> gating -> gated)."""

    node_id: int


@dataclass(frozen=True)
class UngateNode:
    """Power one node back up (gated -> waking -> active)."""

    node_id: int


@dataclass(frozen=True)
class SetFrequency:
    """Step one node's DVFS factor (applied on top of the design's)."""

    node_id: int
    frequency_factor: float

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency_factor <= 1.0:
            raise ConfigurationError(
                f"frequency factor must be in (0, 1], got "
                f"{self.frequency_factor}"
            )


Action = GateNode | UngateNode | SetFrequency


class ControlPolicy(abc.ABC):
    """Observes the cluster at each control tick and emits actions.

    The simulator applies actions in order and silently drops the ones
    that do not apply (gating a node that live flows still demand, waking
    a node that is not gated) — a controller acts on a snapshot and races
    with the cluster, exactly as a real autoscaler does.
    """

    #: a static policy never acts; evaluation routes such candidates
    #: through the exact no-policy path (and the multiplexed fast path)
    is_static: bool = False

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Short display name (used in candidate labels and exports)."""

    @abc.abstractmethod
    def cache_key(self) -> tuple:
        """Deterministic identity for evaluation-cache keys."""

    @abc.abstractmethod
    def observe(self, state: ClusterState) -> list[Action]:
        """The actions to take given one cluster snapshot."""

    def power_state_model(self) -> PowerStateModel:
        """How this policy's gate/wake transitions are priced."""
        return TRADITIONAL_SERVER


@dataclass(frozen=True)
class StaticPolicy(ControlPolicy):
    """The always-on baseline: never acts.

    Candidates carrying it evaluate on the exact no-policy path (the
    event-multiplexed one included) and differ from a bare design only by
    their label and cache key — the control-sized zero against which the
    dynamic policies' energy savings are measured.
    """

    is_static = True

    @property
    def label(self) -> str:
        return "static"

    def cache_key(self) -> tuple:
        return ("static",)

    def observe(self, state: ClusterState) -> list[Action]:
        return []


@dataclass(frozen=True)
class PowerGatePolicy(ControlPolicy):
    """Gate one node role when the cluster idles, wake it when work waits.

    At each tick: if jobs are held waiting for inactive nodes, every
    gated node of ``node_role`` is woken.  Otherwise, once the cluster
    has been idle for ``min_idle_s`` *and* the role's mean load fraction
    sits at or under ``utilization_floor``, every active node of the role
    beyond ``min_active`` is gated.  ``min_idle_s`` is the hysteresis
    that keeps short gaps inside a busy period from cycling nodes;
    ``transitions`` prices the shutdown/boot delay and power — the
    wake-up latency penalty held jobs pay.
    """

    utilization_floor: float = 0.05
    node_role: str = WIMPY
    min_active: int = 0
    min_idle_s: float = 0.0
    transitions: PowerStateModel = TRADITIONAL_SERVER

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization_floor <= 1.0:
            raise ConfigurationError(
                f"utilization floor must be in [0, 1], got "
                f"{self.utilization_floor}"
            )
        if self.min_active < 0:
            raise ConfigurationError(
                f"min_active must be >= 0, got {self.min_active}"
            )
        # NaN fails ``>= 0`` too; an infinite hysteresis means "never gate"
        if not self.min_idle_s >= 0:
            raise ConfigurationError(
                f"min_idle_s must be >= 0, got {self.min_idle_s}"
            )

    @property
    def label(self) -> str:
        return (
            f"gate-{self.node_role}@{self.utilization_floor:g}"
            + (f"+{self.min_idle_s:g}s" if self.min_idle_s else "")
        )

    def cache_key(self) -> tuple:
        return (
            "power-gate",
            self.node_role,
            self.utilization_floor,
            self.min_active,
            self.min_idle_s,
            self.transitions.shutdown_s,
            self.transitions.boot_s,
            self.transitions.transition_power_fraction,
            self.transitions.gated_power_fraction,
        )

    def power_state_model(self) -> PowerStateModel:
        return self.transitions

    def observe(self, state: ClusterState) -> list[Action]:
        if state.held_jobs > 0:
            return [
                UngateNode(node_id)
                for node_id in state.nodes_in_state(GATED, self.node_role)
            ]
        if state.idle_s < self.min_idle_s:
            return []
        if state.mean_utilization(self.node_role) > self.utilization_floor:
            return []
        active = state.nodes_in_state(ACTIVE, self.node_role)
        return [GateNode(node_id) for node_id in active[self.min_active :]]


@dataclass(frozen=True)
class DvfsLadderPolicy(ControlPolicy):
    """Step one node role's frequency factor against queue depth.

    ``ladder`` maps queue-depth thresholds to frequency factors: at each
    tick the rung with the largest threshold not exceeding the current
    queue depth wins, and every node of ``node_role`` not already at that
    factor is stepped to it.  The first rung must start at depth 0 (the
    idle clock), thresholds must be strictly increasing.
    """

    ladder: tuple[tuple[int, float], ...] = ((0, 0.6), (2, 0.8), (4, 1.0))
    node_role: str = WIMPY

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ConfigurationError("the DVFS ladder needs at least one rung")
        if self.ladder[0][0] != 0:
            raise ConfigurationError(
                f"the first ladder rung must start at queue depth 0, got "
                f"{self.ladder[0][0]}"
            )
        for (low, _), (high, _) in zip(self.ladder, self.ladder[1:]):
            if high <= low:
                raise ConfigurationError(
                    f"ladder thresholds must be strictly increasing: "
                    f"{self.ladder}"
                )
        for _, factor in self.ladder:
            if not 0.0 < factor <= 1.0:
                raise ConfigurationError(
                    f"ladder frequency factors must be in (0, 1], got {factor}"
                )

    @property
    def label(self) -> str:
        rungs = ",".join(f"{depth}:{phi:g}" for depth, phi in self.ladder)
        return f"dvfs-{self.node_role}[{rungs}]"

    def cache_key(self) -> tuple:
        return ("dvfs-ladder", self.node_role, self.ladder)

    def target_factor(self, queue_depth: int) -> float:
        """The ladder rung in force at one queue depth."""
        factor = self.ladder[0][1]
        for depth, phi in self.ladder:
            if queue_depth >= depth:
                factor = phi
        return factor

    def observe(self, state: ClusterState) -> list[Action]:
        target = self.target_factor(state.queue_depth)
        return [
            SetFrequency(node_id, target)
            for node_id in range(state.num_nodes)
            if state.node_roles[node_id] == self.node_role
            and state.frequency_factors[node_id] != target
        ]


@dataclass(frozen=True)
class PolicyChain(ControlPolicy):
    """Several policies acting as one: actions concatenate in order.

    The chain is static only if every member is; its power-state model is
    the single non-default model among its members (two members pricing
    transitions differently would be ambiguous, and is rejected).
    """

    policies: tuple[ControlPolicy, ...]

    def __post_init__(self) -> None:
        if not self.policies:
            raise ConfigurationError("a policy chain needs at least one policy")
        self.power_state_model()  # reject ambiguous transition pricing early

    @property
    def is_static(self) -> bool:  # type: ignore[override]
        return all(policy.is_static for policy in self.policies)

    @property
    def label(self) -> str:
        return "+".join(policy.label for policy in self.policies)

    def cache_key(self) -> tuple:
        return ("chain",) + tuple(policy.cache_key() for policy in self.policies)

    def power_state_model(self) -> PowerStateModel:
        models = {
            policy.power_state_model() for policy in self.policies
        } - {TRADITIONAL_SERVER}
        if len(models) > 1:
            raise ConfigurationError(
                "policy chain members price power-state transitions "
                "differently; give them one PowerStateModel"
            )
        return models.pop() if models else TRADITIONAL_SERVER

    def observe(self, state: ClusterState) -> list[Action]:
        actions: list[Action] = []
        for policy in self.policies:
            actions.extend(policy.observe(state))
        return actions
