"""repro — reproduction of *Towards Energy-Efficient Database Cluster Design*.

Lang, Harizopoulos, Patel, Shah, Tsirogiannis — PVLDB 5(11), 2012.

The library provides:

* :mod:`repro.hardware` — node specs, power models, calibration, meters;
* :mod:`repro.simulator` — fluid discrete-event cluster simulator;
* :mod:`repro.workloads` — TPC-H schema/sizing, data generation, queries;
* :mod:`repro.pstore` — the P-store parallel query engine (functional and
  simulated executors);
* :mod:`repro.dbms` — behavioural models of Vertica-like and HadoopDB-like
  parallel DBMSs;
* :mod:`repro.core` — the paper's analytical model, design-space explorer,
  EDP analysis, and cluster design principles;
* :mod:`repro.search` — parallel, memoized Pareto search over
  multi-dimensional cluster design grids, plus budgeted adaptive
  optimizers (random / successive-halving / evolutionary) over design
  spaces too large to enumerate;
* :mod:`repro.policy` — dynamic cluster control (power gating, DVFS
  ladders) as searchable (design x policy) candidates;
* :mod:`repro.faults` — nemesis-style fault injection (crashes,
  stragglers, network degradation) for scoring candidates in degraded
  mode, not just at full health;
* :mod:`repro.study` — the fluent :class:`Study` facade, the single entry
  point for design-space studies over any workload;
* :mod:`repro.analysis` — metrics, normalized curves, ASCII reports;
* :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart — a :class:`Study` prices any workload (a single join, a
weighted :class:`WorkloadSuite`, an arrival-trace mix) over a design
space, with memoization, optional multiprocessing, and the paper's
selection rules::

    from repro import (
        CLUSTER_V_NODE, WIMPY_LAPTOP_B,
        DesignSpaceExplorer, HashJoinQuery, Study, WorkloadSuite,
    )

    query = HashJoinQuery.tpch_orders_lineitem(
        scale_factor=1000, build_selectivity=0.10, probe_selectivity=0.01)
    explorer = DesignSpaceExplorer(
        beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B, cluster_size=8)

    result = Study(explorer).with_workload(query).run()
    print(result.pareto_frontier())                   # raw (time, energy) frontier
    print(result.curve().best_design(0.6))            # Section 6 selection rule

    nightly = WorkloadSuite.of("nightly", query, query.with_selectivities(probe=0.10))
    print(Study(explorer).with_workload(nightly).run().knee().label)

The space can also be a multi-dimensional :class:`DesignGrid` (node pairs
x sizes x Beefy/Wimpy mixes x DVFS states x modes), and ``.with_workers(n)``
fans evaluations out over processes.  The classic
:class:`DesignSpaceExplorer` sweep API remains and returns bit-identical
results — it shares its evaluation cache with studies over the same
explorer.
"""

from repro.core.design_space import DesignPoint, DesignSpaceExplorer, TradeoffCurve
from repro.core.edp import edp, normalized_series
from repro.core.model import (
    HashJoinQuery,
    ModelConstants,
    ModelParameters,
    Prediction,
    PStoreModel,
)
from repro.core.principles import DesignRecommendation, recommend_design
from repro.errors import ReproError
from repro.faults import (
    FailurePolicy,
    FaultSchedule,
    FaultedTrace,
    NetworkDegrade,
    NodeCrash,
    Straggler,
    correlated_rack_failure,
    random_crashes,
    rolling_restart,
)
from repro.hardware.cluster import ClusterSpec, NodeGroup
from repro.hardware.dvfs import dvfs_variant
from repro.hardware.node import NodeSpec
from repro.hardware.power import (
    ExponentialModel,
    IdlePeakModel,
    LogarithmicModel,
    PowerLawModel,
    PowerModel,
)
from repro.hardware.powerstate import TRADITIONAL_SERVER, PowerStateModel
from repro.hardware.presets import (
    BEEFY_L5630,
    CLUSTER_V_NODE,
    LAPTOP_B,
    TABLE2_SYSTEMS,
    WIMPY_LAPTOP_B,
)
from repro.costmodel import CarbonIntensityCurve, CostModel
from repro.policy import (
    ControlPolicy,
    DvfsLadderPolicy,
    PolicyChain,
    PowerGatePolicy,
    StaticPolicy,
)
from repro.pstore.engine import PStore, PStoreConfig
from repro.pstore.replication import ReplicatedLayout
from repro.search import (
    CallableEvaluator,
    ChoiceAxis,
    DesignCandidate,
    DesignGrid,
    DesignSpaceSearch,
    EvaluatedDesign,
    EvaluationCache,
    LatencyProfile,
    LocalSearch,
    ModelEvaluator,
    Objective,
    OptimizationLoop,
    Optimizer,
    RandomSearch,
    RangeAxis,
    SearchResult,
    SearchSpace,
    SimulatorEvaluator,
    SuccessiveHalving,
    best_under,
)
from repro.study import OptimizationResult, Study, StudyResult
from repro.workloads.protocol import (
    ArrivalMix,
    SingleJoin,
    TimedTrace,
    WeightedQuery,
    Workload,
    as_workload,
)
from repro.workloads.queries import JoinMethod, JoinWorkloadSpec, q3_join, section54_join
from repro.workloads.suite import SuiteEntry, WorkloadSuite

# 1.1.0: EvaluatedDesign gained the `latency` field (timed-trace
# evaluation), so persisted evaluation caches written by 1.0.0 hold
# records of the old pickle shape; the version stamp invalidates them.
# 1.2.0: dynamic cluster control — EvaluatedDesign gained the `policy`,
# `gated_node_seconds`, and `energy_saved_j` fields and SimulationResult
# the matching totals, so older persisted caches are invalidated again.
# 1.3.0: fault injection — EvaluatedDesign gained `degraded_latency`,
# `recovery_energy_j`, `retried_jobs`, `dropped_jobs`, and
# `faults_survived`, and SimulationResult the matching fields; the bump
# invalidates persisted caches holding the old record shapes.
# 1.5.0: multi-objective cost model — EvaluatedDesign and
# SimulationResult gained `carbon_g` / `price_usd`, so persisted caches
# written by older versions hold records of the old pickle shape; the
# bump invalidates them.
__version__ = "1.5.0"

__all__ = [
    "__version__",
    "ReproError",
    # hardware
    "NodeSpec",
    "NodeGroup",
    "ClusterSpec",
    "PowerModel",
    "PowerLawModel",
    "ExponentialModel",
    "LogarithmicModel",
    "IdlePeakModel",
    "CLUSTER_V_NODE",
    "BEEFY_L5630",
    "WIMPY_LAPTOP_B",
    "LAPTOP_B",
    "TABLE2_SYSTEMS",
    # core
    "HashJoinQuery",
    "ModelConstants",
    "ModelParameters",
    "PStoreModel",
    "Prediction",
    "DesignPoint",
    "DesignSpaceExplorer",
    "TradeoffCurve",
    "edp",
    "normalized_series",
    "DesignRecommendation",
    "recommend_design",
    # design-space search
    "DesignCandidate",
    "DesignGrid",
    "DesignSpaceSearch",
    "SearchResult",
    "EvaluatedDesign",
    "EvaluationCache",
    "LatencyProfile",
    "ModelEvaluator",
    "SimulatorEvaluator",
    "CallableEvaluator",
    # multi-objective cost model
    "CostModel",
    "CarbonIntensityCurve",
    "Objective",
    "best_under",
    # dynamic cluster control
    "PowerStateModel",
    "TRADITIONAL_SERVER",
    "ControlPolicy",
    "StaticPolicy",
    "PowerGatePolicy",
    "DvfsLadderPolicy",
    "PolicyChain",
    # fault injection
    "FaultSchedule",
    "FaultedTrace",
    "FailurePolicy",
    "NodeCrash",
    "Straggler",
    "NetworkDegrade",
    "random_crashes",
    "rolling_restart",
    "correlated_rack_failure",
    # adaptive optimization
    "SearchSpace",
    "ChoiceAxis",
    "RangeAxis",
    "Optimizer",
    "RandomSearch",
    "SuccessiveHalving",
    "LocalSearch",
    "OptimizationLoop",
    "OptimizationResult",
    # studies
    "Study",
    "StudyResult",
    # engine & workloads
    "PStore",
    "PStoreConfig",
    "JoinMethod",
    "JoinWorkloadSpec",
    "q3_join",
    "section54_join",
    "Workload",
    "WeightedQuery",
    "SingleJoin",
    "ArrivalMix",
    "TimedTrace",
    "as_workload",
    "SuiteEntry",
    "WorkloadSuite",
    "ReplicatedLayout",
    "dvfs_variant",
]
