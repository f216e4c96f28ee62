"""The documented public API surface stays importable and coherent."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.5.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_quickstart_docstring_workflow():
    """The workflow shown in the package docstring actually runs."""
    query = repro.HashJoinQuery.tpch_orders_lineitem(
        scale_factor=1000, build_selectivity=0.10, probe_selectivity=0.01
    )
    explorer = repro.DesignSpaceExplorer(
        beefy=repro.CLUSTER_V_NODE, wimpy=repro.WIMPY_LAPTOP_B, cluster_size=8
    )
    curve = explorer.sweep(query)
    best = curve.best_design(target_performance=0.6)
    assert best.cluster.num_nodes == 8
    assert best.num_wimpy > 0


@pytest.mark.parametrize(
    "module",
    [
        "repro.hardware",
        "repro.hardware.power",
        "repro.hardware.calibration",
        "repro.hardware.meter",
        "repro.hardware.presets",
        "repro.hardware.dvfs",
        "repro.hardware.powerstate",
        "repro.simulator",
        "repro.simulator.engine",
        "repro.simulator.allocation",
        "repro.simulator.network",
        "repro.simulator.trace",
        "repro.study",
        "repro.workloads",
        "repro.workloads.protocol",
        "repro.workloads.tpch",
        "repro.workloads.datagen",
        "repro.workloads.queries",
        "repro.workloads.microbench",
        "repro.workloads.skew",
        "repro.workloads.suite",
        "repro.workloads.arrivals",
        "repro.costmodel",
        "repro.costmodel.carbon",
        "repro.costmodel.model",
        "repro.policy",
        "repro.policy.policies",
        "repro.pstore",
        "repro.pstore.operators",
        "repro.pstore.planner",
        "repro.pstore.simulated",
        "repro.pstore.functional",
        "repro.pstore.queries",
        "repro.pstore.replication",
        "repro.dbms",
        "repro.core",
        "repro.core.model",
        "repro.core.design_space",
        "repro.core.edp",
        "repro.core.principles",
        "repro.core.validation",
        "repro.analysis",
        "repro.analysis.metrics",
        "repro.analysis.report",
        "repro.analysis.export",
        "repro.analysis.bottlenecks",
        "repro.telemetry",
        "repro.telemetry.registry",
        "repro.telemetry.report",
        "repro.experiments",
    ],
)
def test_module_imports_cleanly(module):
    assert importlib.import_module(module) is not None


def test_module_docstrings_present():
    """Every public module documents itself."""
    for module_name in (
        "repro",
        "repro.core.model",
        "repro.simulator.engine",
        "repro.pstore.planner",
        "repro.dbms.vertica_like",
    ):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 80


def test_errors_all_derive_from_repro_error():
    from repro import errors

    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)
