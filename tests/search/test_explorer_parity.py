"""The old explorer API and the new search API agree on the paper's axis."""

import pytest

from repro.core.design_space import DesignSpaceExplorer
from repro.errors import ModelError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.pstore.plans import ExecutionMode
from repro.search import DesignGrid, DesignSpaceSearch, ModelEvaluator
from repro.workloads.queries import section54_join


@pytest.fixture(scope="module")
def explorer():
    return DesignSpaceExplorer(CLUSTER_V_NODE, WIMPY_LAPTOP_B, cluster_size=8)


def search_axis(query, **evaluator_kwargs):
    grid = DesignGrid.paper_axis(CLUSTER_V_NODE, WIMPY_LAPTOP_B, 8)
    engine = DesignSpaceSearch(evaluator=ModelEvaluator(**evaluator_kwargs))
    return engine.search(grid, query)


@pytest.mark.parametrize(
    "build_selectivity,probe_selectivity",
    [(0.10, 0.01), (0.10, 0.10), (0.01, 0.10), (0.25, 0.01)],
)
def test_sweep_matches_search_exactly(explorer, build_selectivity, probe_selectivity):
    """Same labels, same times, same energies — bit-for-bit."""
    query = section54_join(build_selectivity, probe_selectivity)
    curve = explorer.sweep(query)
    result = search_axis(query)
    feasible = result.feasible_points
    assert [p.label for p in curve] == [p.label for p in feasible]
    for old, new in zip(curve, feasible):
        assert old.time_s == new.time_s
        assert old.energy_j == new.energy_j
        assert old.prediction.mode is new.prediction.mode


def test_infeasibility_agrees(explorer):
    """Designs the explorer drops are exactly the search's infeasible set."""
    query = section54_join(0.10, 0.10)
    curve_labels = {p.label for p in explorer.sweep(query)}
    result = search_axis(query)
    assert {p.label for p in result.feasible_points} == curve_labels
    assert {p.label for p in result.infeasible_points} == {"1B,7W", "0B,8W"}


def test_forced_mode_parity(explorer):
    query = section54_join(0.01, 0.01)
    curve = explorer.sweep(query, mode=ExecutionMode.HOMOGENEOUS)
    grid = DesignGrid(
        node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
        cluster_sizes=(8,),
        modes=(ExecutionMode.HOMOGENEOUS,),
    )
    result = DesignSpaceSearch().search(grid, query)
    for old, new in zip(curve, result.feasible_points):
        assert old.time_s == new.time_s
        assert old.energy_j == new.energy_j


def test_warm_cache_and_strict_flags_propagate():
    explorer = DesignSpaceExplorer(
        CLUSTER_V_NODE, WIMPY_LAPTOP_B, 8, warm_cache=True, strict_paper_conditions=True
    )
    query = section54_join()
    curve = explorer.sweep(query)
    result = search_axis(query, warm_cache=True, strict_paper_conditions=True)
    for old, new in zip(curve, result.feasible_points):
        assert old.time_s == new.time_s
        assert old.energy_j == new.energy_j


def test_explorer_evaluate_matches_search_single_point(explorer):
    """The explorer's point API and the engine price a design identically."""
    query = section54_join()
    cluster = explorer.mixes()[2]  # 6B,2W
    old = explorer.evaluate(cluster, query)
    new = search_axis(query).point("6B,2W")
    assert old.time_s == new.time_s
    assert old.energy_j == new.energy_j


def test_explorer_resweep_is_cached(explorer):
    """Delegation gives the old API free memoization."""
    query = section54_join(0.05, 0.05)
    explorer.sweep(query)
    hits_before = explorer._cache.hits
    explorer.sweep(query)
    assert explorer._cache.hits == hits_before + 9


def test_explorer_evaluate_warms_the_sweep_memo():
    """Single-point evaluations go through the shared evaluator + cache."""
    from repro.hardware.presets import CLUSTER_V_NODE as beefy
    from repro.hardware.presets import WIMPY_LAPTOP_B as wimpy

    fresh = DesignSpaceExplorer(beefy, wimpy, cluster_size=8)
    query = section54_join()
    fresh.evaluate(fresh.mixes()[2], query)  # 6B,2W
    assert len(fresh._cache) == 1
    curve = fresh.sweep(query)
    # the sweep re-used the single-point entry: 9 designs, 8 fresh evals
    assert len(fresh._cache) == 9
    assert fresh._cache.hits >= 1
    assert curve.point("6B,2W")


def test_explorer_evaluate_reads_the_sweep_memo():
    from repro.hardware.presets import CLUSTER_V_NODE as beefy
    from repro.hardware.presets import WIMPY_LAPTOP_B as wimpy

    fresh = DesignSpaceExplorer(beefy, wimpy, cluster_size=8)
    query = section54_join()
    fresh.sweep(query)
    misses_before = fresh._cache.misses
    point = fresh.evaluate(fresh.mixes()[0], query)  # 8B,0W: already priced
    assert fresh._cache.misses == misses_before
    assert point.label == "8B,0W"


def test_explorer_evaluate_raises_for_infeasible_designs():
    from repro.hardware.presets import CLUSTER_V_NODE as beefy
    from repro.hardware.presets import WIMPY_LAPTOP_B as wimpy

    fresh = DesignSpaceExplorer(beefy, wimpy, cluster_size=8)
    query = section54_join(0.10, 0.10)
    with pytest.raises(ModelError):
        fresh.evaluate(fresh.mixes()[-1], query)  # 0B,8W cannot hold the table


def test_explorer_evaluate_foreign_cluster_reaches_the_callable():
    """A custom evaluator receives the caller's actual cluster — even one
    the explorer's specs cannot rebuild — and the result never lands in
    the sweep cache under a same-shaped key (regression)."""
    from repro.hardware.cluster import ClusterSpec

    seen = []

    def spy(cluster, query):
        seen.append(cluster)
        return (1.0, 2.0)

    fresh = DesignSpaceExplorer(
        CLUSTER_V_NODE, WIMPY_LAPTOP_B, cluster_size=8, evaluator=spy
    )
    all_wimpy = ClusterSpec.beefy_wimpy(WIMPY_LAPTOP_B, 4, WIMPY_LAPTOP_B, 4)
    point = fresh.evaluate(all_wimpy, section54_join())
    assert seen[0] is all_wimpy  # the callable saw the foreign hardware
    assert point.cluster is all_wimpy
    assert len(fresh._cache) == 0  # foreign clusters must not pollute the memo

    # a matching cluster still routes through the engine and is cached
    fresh.evaluate(fresh.mixes()[2], section54_join())
    assert len(fresh._cache) == 1
    assert seen[1].num_beefy == 6


def test_explorer_evaluate_foreign_cluster_rejects_a_nan_cost():
    from repro.hardware.cluster import ClusterSpec

    fresh = DesignSpaceExplorer(
        CLUSTER_V_NODE, WIMPY_LAPTOP_B, cluster_size=8,
        evaluator=lambda cluster, query: (float("nan"), 2.0),
    )
    all_wimpy = ClusterSpec.beefy_wimpy(WIMPY_LAPTOP_B, 4, WIMPY_LAPTOP_B, 4)
    with pytest.raises(ModelError, match="time_s=nan"):
        fresh.evaluate(all_wimpy, section54_join())


def test_sweep_sizes_parity():
    explorer = DesignSpaceExplorer(CLUSTER_V_NODE, WIMPY_LAPTOP_B, 8)
    query = section54_join(0.10, 0.01)
    curve = explorer.sweep_sizes(query, sizes=[8, 6, 4])
    assert [p.label for p in curve] == ["8B", "6B", "4B"]
    # Homogeneous size-sweep points carry single-group clusters (no empty
    # Wimpy group), exactly as the pre-delegation explorer built them.
    for point in curve:
        assert len(point.cluster.groups) == 1
        assert point.cluster.num_wimpy == 0
