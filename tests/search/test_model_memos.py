"""The analytical model's shared work: one model per batch, shared memos.

:class:`~repro.search.ModelEvaluator` builds one
:class:`~repro.core.model.PStoreModel` per candidate batch.  Repeated
:func:`~repro.hardware.dvfs.dvfs_variant` requests for one node share one
spec, and power-model calls go through a bounded watts memo keyed on
(power model, utilization).  These tests pin that none of it shows in
what an evaluator or a model exposes — pickles, fingerprints, equality,
hashes, records — and count the work it saves, by wrapping the
constructors and power models as ``tests/telemetry/test_sim_allocations.py``
wraps the allocator.
"""

import math
import pickle
from dataclasses import replace

import pytest

from repro.core import model as model_module
from repro.core.model import ModelParameters, PStoreModel
from repro.errors import ConfigurationError
from repro.hardware import dvfs
from repro.hardware.dvfs import DVFSPowerModel, dvfs_variant
from repro.hardware.power import PowerLawModel
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import (
    DesignGrid,
    DesignSpaceSearch,
    EvaluationCache,
    ModelEvaluator,
)
from repro.workloads.queries import q3_join, section54_join
from repro.workloads.suite import WorkloadSuite

#: a small DVFS grid: 14 mixes x 3 frequency states
GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(4, 8),
    frequency_factors=(1.0, 0.8, 0.6),
)
SUITE = WorkloadSuite.of(
    "three",
    q3_join(100, 0.02, 0.05),
    q3_join(100, 0.05, 0.05),
    section54_join(0.10, 0.01),
)
JOINS = [entry.query for entry in SUITE.weighted_queries()]


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty memos, so nothing an earlier test computed is reused."""
    monkeypatch.setattr(model_module, "_WATTS", {})
    monkeypatch.setattr(dvfs, "_VARIANTS", {})


def test_a_search_leaves_the_evaluator_unchanged(fresh_memos):
    evaluator = ModelEvaluator(warm_cache=True, pipeline_cpu_cost=3.0)
    before = (pickle.dumps(evaluator), evaluator.fingerprint(), hash(evaluator))
    DesignSpaceSearch(evaluator=evaluator, cache=EvaluationCache()).search(GRID, SUITE)
    assert (pickle.dumps(evaluator), evaluator.fingerprint(), hash(evaluator)) == before
    assert evaluator == ModelEvaluator(warm_cache=True, pipeline_cpu_cost=3.0)


def test_a_model_pickles_as_its_settings(fresh_memos):
    params = ModelParameters.from_specs(CLUSTER_V_NODE, 2, WIMPY_LAPTOP_B, 2)
    used = PStoreModel(params, warm_cache=True, pipeline_cpu_cost=3.0)
    predictions = [used.predict(query) for query in JOINS]
    unused = PStoreModel(params, warm_cache=True, pipeline_cpu_cost=3.0)
    assert pickle.dumps(used) == pickle.dumps(unused)
    clone = pickle.loads(pickle.dumps(used))
    assert [clone.predict(query) for query in JOINS] == predictions


def test_model_settings_are_read_only():
    model = PStoreModel(ModelParameters.from_specs(CLUSTER_V_NODE, 4))
    for setting, value in (
        ("params", ModelParameters.from_specs(CLUSTER_V_NODE, 8)),
        ("warm_cache", True),
        ("pipeline_cpu_cost", 3.0),
        ("strict_paper_conditions", True),
    ):
        with pytest.raises(AttributeError):
            setattr(model, setting, value)


def test_a_shared_variant_equals_a_fresh_one(fresh_memos, monkeypatch):
    shared = dvfs_variant(CLUSTER_V_NODE, 0.8)
    assert dvfs_variant(CLUSTER_V_NODE, 0.8) is shared
    monkeypatch.setattr(dvfs, "_VARIANTS", {})
    fresh = dvfs_variant(CLUSTER_V_NODE, 0.8)
    assert fresh is not shared
    assert fresh == shared
    assert (fresh.name, fresh.description) == (shared.name, shared.description)


def test_a_variant_keeps_its_own_nodes_description(fresh_memos):
    """``description`` is not part of a spec's equality, so equal nodes
    can still describe themselves differently."""
    relabelled = replace(CLUSTER_V_NODE, description={"CPU": "another"})
    assert relabelled == CLUSTER_V_NODE
    assert dvfs_variant(CLUSTER_V_NODE, 0.8).description == CLUSTER_V_NODE.description
    assert dvfs_variant(relabelled, 0.8).description == {"CPU": "another"}
    assert dvfs_variant(CLUSTER_V_NODE, 0.8).description == CLUSTER_V_NODE.description


def test_equal_factors_of_another_type_get_their_own_variant(fresh_memos):
    as_float = dvfs_variant(CLUSTER_V_NODE, 1.0)
    as_int = dvfs_variant(CLUSTER_V_NODE, 1)
    assert as_int == as_float
    assert type(as_int.power_model.frequency_factor) is int
    assert type(as_float.power_model.frequency_factor) is float


def test_a_nan_utilization_still_raises_through_the_watts_memo(fresh_memos):
    for power_model in (
        CLUSTER_V_NODE.power_model,
        DVFSPowerModel(CLUSTER_V_NODE.power_model, 0.8),
    ):
        watts = model_module._memoized_power(power_model)
        for _ in range(2):  # the failed call stored nothing
            with pytest.raises(ConfigurationError, match="NaN"):
                watts(math.nan)
        assert watts(0.5) == power_model.power(0.5)
    params = replace(ModelParameters.from_specs(CLUSTER_V_NODE, 4), beefy_base_util=math.nan)
    with pytest.raises(ConfigurationError, match="NaN"):
        PStoreModel(params).predict(JOINS[0])


@pytest.mark.parametrize(
    "one, other",
    [
        (ModelEvaluator(), ModelEvaluator(warm_cache=True)),
        (ModelEvaluator(warm_cache=True), ModelEvaluator(warm_cache=True, pipeline_cpu_cost=3.0)),
    ],
    ids=["warm_cache", "pipeline_cpu_cost"],
)
def test_evaluators_that_differ_share_no_derived_constants(one, other, monkeypatch):
    """Interleaved batches of two evaluators give each one the records it
    gives alone, from empty memos."""
    candidates = GRID.candidate_list()

    def alone(evaluator):
        monkeypatch.setattr(model_module, "_WATTS", {})
        monkeypatch.setattr(dvfs, "_VARIANTS", {})
        return [evaluator.evaluate_query_batch(c, JOINS) for c in candidates]

    expected_one, expected_other = alone(one), alone(other)
    assert expected_one != expected_other
    monkeypatch.setattr(model_module, "_WATTS", {})
    interleaved = [
        (one.evaluate_query_batch(c, JOINS), other.evaluate_query_batch(c, JOINS))
        for c in candidates
    ]
    assert [records for records, _ in interleaved] == expected_one
    assert [records for _, records in interleaved] == expected_other


def test_one_model_per_batch_and_one_evaluation_per_watts_pair(fresh_memos, monkeypatch):
    """A 42-design DVFS grid x a 3-join suite: 42 batches build 42 models
    and 4 DVFS variants, and every power model is evaluated once per
    distinct utilization."""
    counts = {"batches": 0, "ModelParameters": 0, "PStoreModel": 0, "variants": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(ModelEvaluator, "evaluate_query_batch", "batches")
    counted(ModelParameters, "__init__", "ModelParameters")
    counted(PStoreModel, "__init__", "PStoreModel")
    counted(DVFSPowerModel, "__init__", "variants")

    # Calls from outside any power model: a DVFS model's calls to its
    # base model are part of its own evaluation.
    evaluations = []
    depth = [0]

    def top_level(cls):
        original = cls.power

        def power(self, utilization):
            if not depth[0]:
                evaluations.append((self, utilization))
            depth[0] += 1
            try:
                return original(self, utilization)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, "power", power)

    top_level(PowerLawModel)
    top_level(DVFSPowerModel)

    result = DesignSpaceSearch(cache=EvaluationCache()).search(GRID, SUITE)
    assert len(GRID) == 42
    assert result.query_evaluations == 3 * 42
    assert counts == {"batches": 42, "ModelParameters": 42, "PStoreModel": 42, "variants": 4}
    assert evaluations
    assert len(evaluations) == len(set(evaluations))
