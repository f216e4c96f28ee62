"""Rate-capacity resources of a simulated cluster.

Each node contributes four resources — CPU, disk, NIC-out, NIC-in — named
``"{kind}:{node_id}"``.  Capacities are in MB/s and come straight from the
node's :class:`~repro.hardware.node.NodeSpec`.  NIC-in and NIC-out are
separate because the 1 Gb/s links of the paper's testbed are full duplex:
a Beefy node can saturate ingestion while still sending its own partitions
(the key effect behind Figures 10(b) and 11).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec

__all__ = ["Resource", "ResourcePool", "cpu", "disk", "nic_in", "nic_out"]

CPU = "cpu"
DISK = "disk"
NIC_IN = "nic_in"
NIC_OUT = "nic_out"
NETWORK_KINDS = frozenset({NIC_IN, NIC_OUT})


def cpu(node_id: int) -> str:
    """Resource name for a node's CPU."""
    return f"{CPU}:{node_id}"


def disk(node_id: int) -> str:
    """Resource name for a node's storage subsystem."""
    return f"{DISK}:{node_id}"


def nic_in(node_id: int) -> str:
    """Resource name for a node's inbound network link."""
    return f"{NIC_IN}:{node_id}"


def nic_out(node_id: int) -> str:
    """Resource name for a node's outbound network link."""
    return f"{NIC_OUT}:{node_id}"


@dataclass(frozen=True, slots=True)
class Resource:
    """One shared rate-capacity resource."""

    name: str
    capacity_mbps: float
    kind: str
    node_id: int

    def __post_init__(self) -> None:
        if self.capacity_mbps <= 0:
            raise ConfigurationError(
                f"resource {self.name!r} must have positive capacity, "
                f"got {self.capacity_mbps}"
            )


class ResourcePool:
    """All resources of a cluster, indexed by name."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self._specs: list[NodeSpec] = []
        self._roles: list[str] = []
        self._resources: dict[str, Resource] = {}
        for node_id, (spec, role) in enumerate(cluster.nodes()):
            self._specs.append(spec)
            self._roles.append(role)
            for kind, capacity in (
                (CPU, spec.cpu_bandwidth_mbps),
                (DISK, spec.disk_bandwidth_mbps),
                (NIC_IN, spec.nic_bandwidth_mbps),
                (NIC_OUT, spec.nic_bandwidth_mbps),
            ):
                # interned: a multiplexed batch holds every design's pool
                name = sys.intern(f"{kind}:{node_id}")
                self._resources[name] = Resource(
                    name=name, capacity_mbps=capacity, kind=kind, node_id=node_id
                )

    @property
    def num_nodes(self) -> int:
        return len(self._specs)

    def node_spec(self, node_id: int) -> NodeSpec:
        return self._specs[node_id]

    def node_role(self, node_id: int) -> str:
        return self._roles[node_id]

    def node_ids(self) -> range:
        return range(len(self._specs))

    def capacities(self) -> dict[str, float]:
        """Name -> capacity map (fresh dict; callers may mutate their copy)."""
        return {name: res.capacity_mbps for name, res in self._resources.items()}

    def resource(self, name: str) -> Resource:
        try:
            return self._resources[name]
        except KeyError:
            raise ConfigurationError(f"unknown resource {name!r}") from None

    def is_network(self, name: str) -> bool:
        return self._resources[name].kind in NETWORK_KINDS

    def __contains__(self, name: str) -> bool:
        return name in self._resources

    def __len__(self) -> int:
        return len(self._resources)
