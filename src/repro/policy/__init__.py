"""Dynamic cluster control: policies acting on the cluster mid-trace.

The paper's design-space story treats every cluster as static for the
whole workload; the strongest related results (Schall & Härder's wimpy
clusters, *Dynamic Physiological Partitioning*) come from powering nodes
up and down *with* load.  This package supplies the control plane for
that:

* :mod:`repro.policy.policies` — the :class:`ControlPolicy` protocol
  (``observe(ClusterState) -> [Action]``) and the shipped policies:
  :class:`StaticPolicy` (always-on baseline), :class:`PowerGatePolicy`
  (gate a node role during idle stretches, wake on held arrivals),
  :class:`DvfsLadderPolicy` (frequency ladder against queue depth), and
  the composable :class:`PolicyChain`.

The simulator honors policies through
:meth:`~repro.simulator.engine.ClusterSimulator.run` /
:meth:`~repro.pstore.simulated.SimulatedPStore.run_trace` (``policy=``,
``control_interval_s=``).  In the search stack a policy is one more
field of the searched design:
:meth:`DesignCandidate.with_policy <repro.search.grid.DesignCandidate.with_policy>`
builds the (design x policy) point the engine evaluates, caches, and
ranks like any other, ``SearchSpace(policies=...)`` adds the policy
axis, and the ``policy`` / ``gated_node_seconds`` / ``energy_saved_j``
fields on :class:`~repro.search.evaluators.EvaluatedDesign` report what
the policy did.
"""

from repro.policy.policies import (
    ACTIVE,
    GATED,
    GATING,
    WAKING,
    Action,
    ClusterState,
    ControlPolicy,
    DvfsLadderPolicy,
    GateNode,
    PolicyChain,
    PowerGatePolicy,
    SetFrequency,
    StaticPolicy,
    UngateNode,
)

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
