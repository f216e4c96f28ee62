"""The Section 5.3 analytical model of P-store performance and energy.

The model predicts response time and cluster energy for a parallel hash
join, phase by phase.  Symbols follow Table 3 of the paper:

=========  ==================================================================
``Bld``    build table size (MB), ``Sbld`` its predicate selectivity
``Prb``    probe table size (MB), ``Sprb`` its predicate selectivity
``NB/NW``  number of Beefy / Wimpy nodes
``MB/MW``  per-node memory (MB) usable for hash tables
``I``      disk bandwidth (MB/s); ``L`` network bandwidth (MB/s)
``CB/CW``  maximum CPU bandwidth (MB/s)
``GB/GW``  P-store's inherent CPU-utilization constants
``fB/fW``  node power models (watts as a function of CPU utilization)
``H``      true iff Wimpy nodes can hold their hash-table share:
           ``MW >= (Bld * Sbld) / (NB + NW)``
=========  ==================================================================

**Homogeneous execution** (``H`` true) is transcribed verbatim from the
paper.  For each phase (build, then probe), with ``S`` the phase's
selectivity and ``N = NB + NW``::

    R  = I*S                 if I*S < L        (disk bound)
         N*L/(N-1)           otherwise         (network bound)
    U  = I                   if I*S < L
         (N*L/(N-1)) / S     otherwise

    T  = Volume*S / (NB*R + NW*R)
    E  = T * ( NB*fB(GB + U/CB) + NW*fW(GW + U/CW) )

**Heterogeneous execution** (``H`` false) is only described qualitatively
in the paper ("in the interest of space, we omit this model"); we derive it
from Section 5.4's account: Wimpy nodes scan/filter and forward all
qualifying tuples; Beefy nodes additionally ingest and build/probe, and
their *inbound* NIC saturates first.  Per phase with qualifying volume
``Q = Volume*S``::

    supply  = sum over nodes of min(scan_limit * S, L)      (qualifying MB/s)
    ingest  = NB * L * N/(N-1)       (each Beefy's hash share arrives
                                      (N-1)/N over its inbound NIC)
    T       = Q / min(supply, ingest)

with source CPU rates scaled down proportionally when ingest-bound — this
produces the knee behaviour of Figure 11 (knee where supply == ingest).

**Cache regimes**: cold scans are bound by ``I``; warm scans by the node's
CPU bandwidth (the paper's Section 5.3.1 validation setting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ModelError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.hardware.power import PowerLawModel, PowerModel
from repro.pstore.plans import ExecutionMode
from repro.units import clamp
from repro.workloads.queries import JoinMethod, JoinWorkloadSpec

__all__ = [
    "ModelConstants",
    "ModelParameters",
    "HashJoinQuery",
    "PhasePrediction",
    "Prediction",
    "PStoreModel",
]


class HashJoinQuery(JoinWorkloadSpec):
    """A hash-join workload with paper-specific factories.

    Identical to :class:`~repro.workloads.queries.JoinWorkloadSpec`; exists
    so model users have a descriptive entry point.
    """

    @classmethod
    def tpch_orders_lineitem(
        cls,
        scale_factor: float,
        build_selectivity: float,
        probe_selectivity: float,
        method: JoinMethod = JoinMethod.SHUFFLE,
    ) -> "HashJoinQuery":
        """ORDERS (build) x LINEITEM (probe) at the paper's 20 B projections."""
        from repro.workloads import tpch

        return cls(
            name=f"orders-lineitem-sf{scale_factor:g}",
            build_volume_mb=tpch.projected_size_mb(tpch.ORDERS, scale_factor),
            probe_volume_mb=tpch.projected_size_mb(tpch.LINEITEM, scale_factor),
            build_selectivity=build_selectivity,
            probe_selectivity=probe_selectivity,
            method=method,
        )


@dataclass(frozen=True)
class ModelConstants:
    """Table 3's published constants, for reference and the tbl3 check."""

    CB: float = 5037.0  # max CPU bandwidth of a Beefy node (MB/s)
    CW: float = 1129.0  # max CPU bandwidth of a Wimpy node (MB/s)
    GB: float = 0.25  # Beefy CPU utilization constant of P-store
    GW: float = 0.13  # Wimpy CPU utilization constant of P-store
    beefy_power_coefficient: float = 130.03
    beefy_power_exponent: float = 0.2369
    wimpy_power_coefficient: float = 10.994
    wimpy_power_exponent: float = 0.2875

    def beefy_power_model(self) -> PowerLawModel:
        return PowerLawModel(self.beefy_power_coefficient, self.beefy_power_exponent)

    def wimpy_power_model(self) -> PowerLawModel:
        return PowerLawModel(self.wimpy_power_coefficient, self.wimpy_power_exponent)


TABLE3 = ModelConstants()


@dataclass(frozen=True)
class ModelParameters:
    """Hardware inputs of the model (one Beefy type + one Wimpy type).

    The paper assumes uniform disk (``I``) and network (``L``) bandwidths
    across node types and notes "we can easily extend our model to account
    for separate Wimpy and Beefy I/O bandwidths" — the optional
    ``wimpy_disk_mbps`` / ``wimpy_network_mbps`` fields are that extension
    (``None`` keeps the paper's uniformity assumption).
    """

    num_beefy: int
    num_wimpy: int
    beefy_memory_mb: float
    wimpy_memory_mb: float
    disk_mbps: float  # I — Beefy (and, by default, Wimpy) disk bandwidth
    network_mbps: float  # L — Beefy (and, by default, Wimpy) NIC bandwidth
    beefy_cpu_mbps: float
    wimpy_cpu_mbps: float
    beefy_base_util: float
    wimpy_base_util: float
    beefy_power: PowerModel
    wimpy_power: PowerModel
    wimpy_disk_mbps: float | None = None
    wimpy_network_mbps: float | None = None

    def __post_init__(self) -> None:
        if self.num_beefy < 0 or self.num_wimpy < 0:
            raise ModelError("node counts must be >= 0")
        if self.num_beefy + self.num_wimpy == 0:
            raise ModelError("the cluster must have at least one node")
        for attr in ("disk_mbps", "network_mbps", "beefy_cpu_mbps", "wimpy_cpu_mbps"):
            if getattr(self, attr) <= 0:
                raise ModelError(f"{attr} must be > 0")
        for attr in ("wimpy_disk_mbps", "wimpy_network_mbps"):
            value = getattr(self, attr)
            if value is not None and value <= 0:
                raise ModelError(f"{attr} must be > 0 when set")

    @property
    def num_nodes(self) -> int:
        return self.num_beefy + self.num_wimpy

    @property
    def effective_wimpy_disk_mbps(self) -> float:
        """Wimpy disk bandwidth (Beefy's under the uniformity assumption)."""
        return self.wimpy_disk_mbps if self.wimpy_disk_mbps is not None else self.disk_mbps

    @property
    def effective_wimpy_network_mbps(self) -> float:
        """Wimpy NIC bandwidth (Beefy's under the uniformity assumption)."""
        return (
            self.wimpy_network_mbps
            if self.wimpy_network_mbps is not None
            else self.network_mbps
        )

    @classmethod
    def from_specs(
        cls,
        beefy: NodeSpec,
        num_beefy: int,
        wimpy: NodeSpec | None = None,
        num_wimpy: int = 0,
    ) -> "ModelParameters":
        """Build parameters from node specs.

        Disk and network bandwidths are taken from the Beefy spec (even for
        all-Wimpy designs), reflecting the paper's uniformity assumption
        ("the disk configuration for both the Wimpy and the Beefy nodes are
        the same", and Section 5.4 models identical IO/network for both).
        """
        reference = beefy
        wimpy = wimpy or reference
        return cls(
            num_beefy=num_beefy,
            num_wimpy=num_wimpy,
            beefy_memory_mb=beefy.memory_mb,
            wimpy_memory_mb=wimpy.memory_mb,
            disk_mbps=reference.disk_bandwidth_mbps,
            network_mbps=reference.nic_bandwidth_mbps,
            beefy_cpu_mbps=beefy.cpu_bandwidth_mbps,
            wimpy_cpu_mbps=wimpy.cpu_bandwidth_mbps,
            beefy_base_util=beefy.engine_base_utilization,
            wimpy_base_util=wimpy.engine_base_utilization,
            beefy_power=beefy.power_model,
            wimpy_power=wimpy.power_model,
        )

    @classmethod
    def from_cluster(cls, cluster: ClusterSpec) -> "ModelParameters":
        num_beefy = cluster.num_beefy
        num_wimpy = cluster.num_wimpy
        beefy = cluster.beefy_spec if num_beefy else cluster.wimpy_spec
        wimpy = cluster.wimpy_spec if num_wimpy else beefy
        return cls.from_specs(beefy, num_beefy, wimpy, num_wimpy)


@dataclass(frozen=True)
class PhasePrediction:
    """Model output for one join phase."""

    name: str
    time_s: float
    energy_j: float
    beefy_utilization: float
    wimpy_utilization: float
    bottleneck: str  # 'disk' | 'cpu' | 'network' | 'ingest'

    @property
    def average_power_w(self) -> float:
        if self.time_s <= 0:
            return 0.0
        return self.energy_j / self.time_s


@dataclass(frozen=True)
class Prediction:
    """Model output for a whole join: build + probe."""

    query: JoinWorkloadSpec
    mode: ExecutionMode
    build: PhasePrediction
    probe: PhasePrediction

    @property
    def time_s(self) -> float:
        return self.build.time_s + self.probe.time_s

    @property
    def energy_j(self) -> float:
        return self.build.energy_j + self.probe.energy_j

    @property
    def performance(self) -> float:
        """The paper's performance metric: inverse response time."""
        if self.time_s <= 0:
            raise ModelError("zero-duration prediction has no performance")
        return 1.0 / self.time_s

    @property
    def average_power_w(self) -> float:
        if self.time_s <= 0:
            return 0.0
        return self.energy_j / self.time_s

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.energy_j * self.time_s


#: The watts memo every model in the process shares: id(power model) ->
#: (power model, its memoized ``power``).  Designs with the same node type
#: and DVFS state share one power-model object (presets, and
#: :func:`~repro.hardware.dvfs.dvfs_variant`'s shared specs), so a grid of
#: thousands of designs meets a few dozen (model, utilization) pairs.  A
#: power model is a pure function of its value (the shipped ones are
#: frozen dataclasses), so a hit is the float a fresh call returns.  Each
#: entry holds its model, so the model's id cannot be reused while the
#: entry lives.  Bounded: a memo holding :data:`_WATTS_MODELS` models, or
#: a table holding :data:`_WATTS_PER_MODEL` utilizations, starts over.
_WATTS: dict[int, tuple[PowerModel, Callable[[float], float]]] = {}
_WATTS_MODELS = 64
_WATTS_PER_MODEL = 256


def _memoized_power(power_model: PowerModel) -> Callable[[float], float]:
    """``power_model.power`` answered through the shared watts memo.

    A call that raises (a NaN utilization raises
    :class:`~repro.errors.ConfigurationError`) stores nothing.
    """
    hit = _WATTS.get(id(power_model))
    if hit is not None:
        return hit[1]
    table: dict[float, float] = {}

    def power(utilization: float) -> float:
        watts = table.get(utilization)
        if watts is None:
            watts = power_model.power(utilization)
            if len(table) >= _WATTS_PER_MODEL:
                table.clear()
            table[utilization] = watts
        return watts

    if len(_WATTS) >= _WATTS_MODELS:
        _WATTS.clear()
    _WATTS[id(power_model)] = (power_model, power)
    return power


class _NodeType:
    """One node type's design constants, derived once per model."""

    __slots__ = (
        "count",
        "base_util",
        "cpu_mbps",
        "cpu_cost",
        "nic_mbps",
        "network_rate",
        "scan_limit",
        "scan_util",
        "power",
        "idle_w",
    )

    def __init__(
        self,
        count: int,
        base_util: float,
        cpu_mbps: float,
        disk_mbps: float,
        nic_mbps: float,
        power_model: PowerModel,
        cpu_cost: float,
        warm_cache: bool,
        network_rate: float,
        reference_nic_mbps: float,
    ):
        self.count = count
        self.base_util = base_util
        self.cpu_mbps = cpu_mbps
        self.cpu_cost = cpu_cost
        #: the type's NIC bandwidth: the strict branch's threshold ``L``
        self.nic_mbps = nic_mbps
        #: the type's network-bound rate; the cluster's ``n*L/(n-1)`` when
        #: the NICs are uniform
        self.network_rate = network_rate * nic_mbps / reference_nic_mbps
        # Cold scans are disk-bound unless the engine pipeline cannot keep up.
        self.scan_limit = (
            cpu_mbps / cpu_cost if warm_cache else min(disk_mbps, cpu_mbps / cpu_cost)
        )
        self.scan_util = self.utilization(self.scan_limit)
        self.power = _memoized_power(power_model)
        #: watts idling at the engine-base utilization (only a type with
        #: nodes draws any)
        self.idle_w = self.power(max(base_util, 0.01)) if count else 0.0

    def utilization(self, prefilter_rate_mbps: float) -> float:
        """``G + cost*U/C``, clamped to [0, 1]."""
        return clamp(
            self.base_util + self.cpu_cost * prefilter_rate_mbps / self.cpu_mbps,
            0.0,
            1.0,
        )


class PStoreModel:
    """Analytical performance/energy model (Section 5.3).

    ``pipeline_cpu_cost`` mirrors the simulated executor's parameter: CPU
    bandwidth consumed per scanned MB.  1.0 reproduces the paper's printed
    equations (``U`` equals the scan rate and utilization is ``G + U/C``);
    the Figure 7/8/9 experiments use the calibrated value so model and
    simulator describe the same engine.

    Everything that depends on the design alone is derived once, at
    construction: the node count; per node type, the network-bound rate
    ``n*L/(n-1)`` scaled to its NIC, the scan limit of the cache regime,
    the utilization while scan-bound and the idle watts; the scan
    bottleneck's label, the Beefy ingest capacity and the smallest node's
    memory.  Each keeps the expression and operation order of the
    equations it feeds, so predictions are bit-identical to deriving it
    per phase (``tests/core/model_pins.json`` pins them), and the settings
    are read-only so the constants cannot go stale.  Power-model
    calls go through a bounded watts memo shared by every model in the
    process; a hit is the float a fresh call returns.  A model pickles as
    its settings alone.
    """

    def __init__(
        self,
        params: ModelParameters,
        warm_cache: bool = False,
        pipeline_cpu_cost: float = 1.0,
        strict_paper_conditions: bool = False,
    ):
        if pipeline_cpu_cost <= 0:
            raise ModelError(f"pipeline_cpu_cost must be > 0, got {pipeline_cpu_cost}")
        self._params = params
        self._warm_cache = warm_cache
        self._pipeline_cpu_cost = pipeline_cpu_cost
        self._strict_paper_conditions = strict_paper_conditions

        n = self._num_nodes = params.num_nodes
        # settings every node type derives its constants with
        shared = (
            pipeline_cpu_cost,
            warm_cache,
            params.network_mbps if n == 1 else n * params.network_mbps / (n - 1),
            params.network_mbps,
        )
        self._beefy = _NodeType(
            params.num_beefy,
            params.beefy_base_util,
            params.beefy_cpu_mbps,
            params.disk_mbps,
            params.network_mbps,
            params.beefy_power,
            *shared,
        )
        self._wimpy = _NodeType(
            params.num_wimpy,
            params.wimpy_base_util,
            params.wimpy_cpu_mbps,
            params.effective_wimpy_disk_mbps,
            params.effective_wimpy_network_mbps,
            params.wimpy_power,
            *shared,
        )
        self._scan_bottleneck = "cpu" if warm_cache else "disk"
        # Beefy inbound NICs: each Beefy's share arrives (n-1)/n over the wire.
        self._ingest_capacity = (
            params.num_beefy * params.network_mbps * (n / (n - 1)) if n > 1 else float("inf")
        )
        self._smallest_memory_mb = (
            min(params.wimpy_memory_mb, params.beefy_memory_mb)
            if params.num_wimpy and params.num_beefy
            else (params.wimpy_memory_mb if params.num_wimpy else params.beefy_memory_mb)
        )

    def __reduce__(self):
        # The settings alone: derived constants and memo tables are rebuilt.
        return (
            type(self),
            (
                self._params,
                self._warm_cache,
                self._pipeline_cpu_cost,
                self._strict_paper_conditions,
            ),
        )

    # -------------------------------------------------------------- settings
    @property
    def params(self) -> ModelParameters:
        return self._params

    @property
    def warm_cache(self) -> bool:
        return self._warm_cache

    @property
    def pipeline_cpu_cost(self) -> float:
        return self._pipeline_cpu_cost

    @property
    def strict_paper_conditions(self) -> bool:
        """Use the paper's printed branch condition ``I*S < L`` verbatim.

        The default compares against the effective network-bound rate
        ``n*L/(n-1)`` instead, which matches the fluid simulator exactly;
        the printed form declares small clusters network-bound slightly
        too eagerly (visible only for n <= 7 at the Section 5.4
        parameters).  Figure 12's homogeneous size sweeps use the strict
        form, reproducing the paper's own curves.
        """
        return self._strict_paper_conditions

    # ------------------------------------------------------------------ public
    def hash_table_fits_everywhere(self, query: JoinWorkloadSpec) -> bool:
        """Table 3's ``H``: can the smallest node hold its hash-table share?"""
        share = query.qualifying_build_mb / self._num_nodes
        return self._smallest_memory_mb >= share

    def resolve_mode(
        self, query: JoinWorkloadSpec, mode: ExecutionMode | None = None
    ) -> ExecutionMode:
        """Pick (or validate) the execution mode for a query."""
        params = self._params
        if mode is ExecutionMode.HOMOGENEOUS or (
            mode is None and self.hash_table_fits_everywhere(query)
        ):
            if mode is ExecutionMode.HOMOGENEOUS and not self.hash_table_fits_everywhere(
                query
            ):
                raise ModelError(
                    f"{query.name}: homogeneous execution forced but the hash "
                    "table does not fit on every node"
                )
            return ExecutionMode.HOMOGENEOUS
        # Heterogeneous: only the NB beefy nodes build hash tables.
        if params.num_beefy == 0:
            raise ModelError(
                f"{query.name}: hash table does not fit on the all-Wimpy cluster "
                "and P-store has no 2-pass join"
            )
        beefy_share = query.qualifying_build_mb / params.num_beefy
        if beefy_share > params.beefy_memory_mb:
            raise ModelError(
                f"{query.name}: heterogeneous execution needs {beefy_share:.0f} MB "
                f"per Beefy node; only {params.beefy_memory_mb:.0f} MB available"
            )
        return ExecutionMode.HETEROGENEOUS

    def predict(
        self, query: JoinWorkloadSpec, mode: ExecutionMode | None = None
    ) -> Prediction:
        """Predict response time and energy for the dual-shuffle join.

        ``mode`` forces homogeneous/heterogeneous execution (used by the
        validation experiments that mirror the paper's stated plans);
        ``None`` applies the ``H`` rule.
        """
        resolved = self.resolve_mode(query, mode)
        phase = (
            self._homogeneous_phase
            if resolved is ExecutionMode.HOMOGENEOUS
            else self._heterogeneous_phase
        )
        build = phase("build", query.build_volume_mb, query.build_selectivity)
        probe = phase("probe", query.probe_volume_mb, query.probe_selectivity)
        return Prediction(query=query, mode=resolved, build=build, probe=probe)

    def predict_broadcast(self, query: JoinWorkloadSpec) -> Prediction:
        """Analytic prediction for the broadcast join (Section 4.3.2).

        Build phase: every node must *receive* ``(N-1)/N`` of the
        qualifying build table over its inbound NIC — the algorithmic
        bottleneck ("broadcast generally takes the same time to complete
        regardless of the number of participating nodes").  Probe phase:
        purely local scanning against the replicated hash table.

        Requires homogeneous feasibility: each node holds the full
        qualifying build table.
        """
        params = self._params
        n = self._num_nodes
        beefy, wimpy = self._beefy, self._wimpy
        if query.qualifying_build_mb > self._smallest_memory_mb:
            raise ModelError(
                f"{query.name}: broadcast needs {query.qualifying_build_mb:.0f} MB "
                f"on every node; smallest node has {self._smallest_memory_mb:.0f} MB"
            )
        scan_b, scan_w = beefy.scan_limit, wimpy.scan_limit

        # Build: per-node ingest of (N-1)/N of the qualifying table over L,
        # or the sources' filtered supply if that is slower.
        qualifying = query.qualifying_build_mb
        if n > 1:
            ingest_time = qualifying * (n - 1) / n / params.network_mbps
        else:
            ingest_time = 0.0
        per_node = query.build_volume_mb / n
        supply_time_b = per_node / scan_b if beefy.count else 0.0
        supply_time_w = per_node / scan_w if wimpy.count else 0.0
        build_time = max(ingest_time, supply_time_b, supply_time_w)
        build_util_b = beefy.utilization(
            min(scan_b, per_node / build_time if build_time else scan_b)
        )
        build_util_w = wimpy.utilization(
            min(scan_w, per_node / build_time if build_time else scan_w)
        )
        build = PhasePrediction(
            name="build",
            time_s=build_time,
            energy_j=self._energy_with_idle_tails(
                build_time,
                build_time if beefy.count else 0.0,
                build_time if wimpy.count else 0.0,
                build_util_b,
                build_util_w,
            ),
            beefy_utilization=build_util_b if beefy.count else 0.0,
            wimpy_utilization=build_util_w if wimpy.count else 0.0,
            bottleneck="ingest" if build_time == ingest_time else self._scan_bottleneck,
        )

        # Probe: local scan of each node's partition, barrier on the slower
        # type; no network at all.
        probe_per_node = query.probe_volume_mb / n
        time_b = probe_per_node / scan_b if beefy.count else 0.0
        time_w = probe_per_node / scan_w if wimpy.count else 0.0
        probe_time = max(time_b, time_w)
        probe = PhasePrediction(
            name="probe",
            time_s=probe_time,
            energy_j=self._energy_with_idle_tails(
                probe_time, time_b, time_w, beefy.scan_util, wimpy.scan_util
            ),
            beefy_utilization=beefy.scan_util if beefy.count else 0.0,
            wimpy_utilization=wimpy.scan_util if wimpy.count else 0.0,
            bottleneck=self._scan_bottleneck,
        )
        return Prediction(
            query=query, mode=ExecutionMode.HOMOGENEOUS, build=build, probe=probe
        )

    # ----------------------------------------------------------------- phases
    def _homogeneous_phase(
        self, name: str, volume_mb: float, selectivity: float
    ) -> PhasePrediction:
        """The paper's homogeneous equations, one node-type pair at a time."""
        beefy, wimpy = self._beefy, self._wimpy
        rate_b, beefy_util, bneck_b = self._homogeneous_rate(beefy, selectivity)
        rate_w, wimpy_util, bneck_w = self._homogeneous_rate(wimpy, selectivity)

        # Per-node completion times; the phase barrier makes the slower node
        # type gate the phase.  When RB == RW (always true in the paper's
        # disk-/network-bound settings) this equals the printed
        # ``Volume*S / (NB*R + NW*R)``.
        per_node_qualifying = volume_mb * selectivity / self._num_nodes
        time_b = per_node_qualifying / rate_b if beefy.count else 0.0
        time_w = per_node_qualifying / rate_w if wimpy.count else 0.0
        time_s = max(time_b, time_w)

        energy = self._energy_with_idle_tails(time_s, time_b, time_w, beefy_util, wimpy_util)
        bottleneck = bneck_b if time_b >= time_w else bneck_w
        return PhasePrediction(
            name=name,
            time_s=time_s,
            energy_j=energy,
            beefy_utilization=beefy_util if beefy.count else 0.0,
            wimpy_utilization=wimpy_util if wimpy.count else 0.0,
            bottleneck=bottleneck,
        )

    def _homogeneous_rate(
        self, node: _NodeType, selectivity: float
    ) -> tuple[float, float, str]:
        """One type's (qualifying rate, utilization, bottleneck) in a
        homogeneous phase."""
        scan_rate = node.scan_limit * selectivity
        if self._strict_paper_conditions:
            # Verbatim Table 3 branch: disk bound iff I*S < L.
            scan_bound = self._num_nodes == 1 or scan_rate < node.nic_mbps
        else:
            # Compare against the effective network-bound rate n*L/(n-1):
            # identical for the paper's 8-node settings but consistent with
            # the fluid simulator at small n.
            scan_bound = self._num_nodes == 1 or scan_rate <= node.network_rate
        if scan_bound:
            return scan_rate, node.scan_util, self._scan_bottleneck
        rate = node.network_rate
        return rate, node.utilization(rate / selectivity), "network"

    def _heterogeneous_phase(
        self, name: str, volume_mb: float, selectivity: float
    ) -> PhasePrediction:
        """Derived ingestion-bound model (see module docstring)."""
        beefy, wimpy = self._beefy, self._wimpy
        scan_b, scan_w = beefy.scan_limit, wimpy.scan_limit

        # Qualifying-tuple supply per source node (outbound NIC can also cap).
        supply_b = min(scan_b * selectivity, beefy.nic_mbps)
        supply_w = min(scan_w * selectivity, wimpy.nic_mbps)

        qualifying_mb = volume_mb * selectivity

        # Three candidate limits gate the phase:
        #  * the Beefy inbound NICs draining the whole qualifying volume,
        #  * each Beefy source draining its own partition,
        #  * each Wimpy source draining its own partition (barrier).
        ingest_time = qualifying_mb / self._ingest_capacity
        per_node_qualifying = qualifying_mb / self._num_nodes
        time_b = per_node_qualifying / supply_b if beefy.count else 0.0
        time_w = per_node_qualifying / supply_w if wimpy.count else 0.0
        time_s = max(ingest_time, time_b, time_w)
        if time_s == ingest_time:
            bottleneck = "ingest"
        elif supply_b >= beefy.nic_mbps and time_b >= time_w:
            bottleneck = "network"
        else:
            bottleneck = self._scan_bottleneck

        # Source-side CPU rates, diluted by how long each type's scan work
        # is spread over the phase (slow peers or ingest limits stall it).
        throttle_b = time_b / time_s if time_s > 0 else 0.0
        throttle_w = time_w / time_s if time_s > 0 else 0.0
        util_rate_b = min(scan_b, supply_b / selectivity) * throttle_b
        util_rate_w = min(scan_w, supply_w / selectivity) * throttle_w
        beefy_util = beefy.utilization(util_rate_b)
        wimpy_util = wimpy.utilization(util_rate_w)
        # Sources stay active for the whole phase at their diluted rates.
        energy = self._energy_with_idle_tails(
            time_s, time_s if beefy.count else 0.0, time_s if wimpy.count else 0.0,
            beefy_util, wimpy_util,
        )
        return PhasePrediction(
            name=name,
            time_s=time_s,
            energy_j=energy,
            beefy_utilization=beefy_util,
            wimpy_utilization=wimpy_util if wimpy.count else 0.0,
            bottleneck=bottleneck,
        )

    # ------------------------------------------------------------- utilities
    def _energy_with_idle_tails(
        self,
        time_s: float,
        time_b: float,
        time_w: float,
        beefy_util: float,
        wimpy_util: float,
    ) -> float:
        """Cluster energy for one phase.

        Each node type is busy for its own completion time and idles at its
        engine-base utilization until the barrier releases.  When both types
        finish together this reduces to the paper's
        ``T * (NB*fB(...) + NW*fW(...))``.
        """
        beefy, wimpy = self._beefy, self._wimpy
        energy = 0.0
        if beefy.count:
            energy += beefy.count * (
                beefy.power(beefy_util) * time_b + beefy.idle_w * (time_s - time_b)
            )
        if wimpy.count:
            energy += wimpy.count * (
                wimpy.power(wimpy_util) * time_w + wimpy.idle_w * (time_s - time_w)
            )
        return energy
