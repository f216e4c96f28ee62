"""Search-engine behavior: ordering, feasibility, evaluators, selections."""

import pytest

from repro.errors import ConfigurationError, ModelError
from repro.hardware.presets import BEEFY_L5630, CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.pstore.plans import ExecutionMode
from repro.search import (
    CallableEvaluator,
    DesignGrid,
    DesignSpaceSearch,
    ModelEvaluator,
    SimulatorEvaluator,
    pareto_frontier,
)
from repro.search.grid import DesignCandidate
from repro.workloads.queries import q3_join, section54_join


@pytest.fixture(scope="module")
def axis_result():
    grid = DesignGrid.paper_axis(CLUSTER_V_NODE, WIMPY_LAPTOP_B, 8)
    return DesignSpaceSearch().search(grid, section54_join())


class TestSearch:
    def test_points_come_back_in_grid_order(self, axis_result):
        labels = [p.label for p in axis_result.points]
        assert labels[0] == "8B,0W"
        assert labels[-1] == "0B,8W"
        assert len(labels) == 9

    def test_infeasible_designs_kept_with_reason(self, axis_result):
        infeasible = {p.label: p for p in axis_result.infeasible_points}
        assert set(infeasible) == {"1B,7W", "0B,8W"}
        for point in infeasible.values():
            assert not point.feasible
            assert point.infeasible_reason
            assert point.time_s == float("inf")

    def test_model_evaluator_attaches_predictions(self, axis_result):
        for point in axis_result.feasible_points:
            assert point.prediction is not None
            assert point.time_s == pytest.approx(point.prediction.time_s)

    def test_large_multidimensional_grid(self):
        """The acceptance-criteria sweep: >= 200 designs in one search."""
        grid = DesignGrid(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
            cluster_sizes=(6, 8, 10, 12, 14, 16),
            frequency_factors=(1.0, 0.8, 0.6),
        )
        assert len(grid) == 216 >= 200
        result = DesignSpaceSearch().search(grid, section54_join())
        assert len(result.points) == 216
        assert result.evaluations == 216
        assert len(result.feasible_points) >= 200
        assert result.pareto_frontier()

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignSpaceSearch().search([], section54_join())

    def test_invalid_engine_configuration(self):
        with pytest.raises(ConfigurationError):
            DesignSpaceSearch(workers=0)
        with pytest.raises(ConfigurationError):
            DesignSpaceSearch(chunk_size=0)

    def test_point_lookup(self, axis_result):
        assert axis_result.point("4B,4W").label == "4B,4W"
        with pytest.raises(ModelError):
            axis_result.point("9B,0W")

    def test_iteration_and_len(self, axis_result):
        assert len(axis_result) == 9
        assert [p.label for p in axis_result] == [p.label for p in axis_result.points]


class TestSelectionsOnResult:
    def test_sla_selection_matches_energy_ordering(self, axis_result):
        fastest = axis_result.feasible_points[0]
        winner = axis_result.best_under({"time_s": fastest.time_s * 1.5})
        eligible = [
            p for p in axis_result.feasible_points if p.time_s <= fastest.time_s * 1.5
        ]
        assert winner.energy_j == min(p.energy_j for p in eligible)

    def test_sla_too_tight_raises(self, axis_result):
        fastest = min(p.time_s for p in axis_result.feasible_points)
        with pytest.raises(ModelError, match="time_s <="):
            axis_result.best_under({"time_s": fastest / 2})

    def test_knee_and_edp_are_on_the_frontier(self, axis_result):
        frontier_labels = {p.label for p in axis_result.pareto_frontier()}
        assert axis_result.knee().label in frontier_labels
        assert axis_result.edp_optimal().label in frontier_labels


class TestEvaluators:
    def test_callable_evaluator(self):
        search = DesignSpaceSearch(
            evaluator=CallableEvaluator(
                lambda cluster, query: (float(cluster.num_beefy), 100.0)
            )
        )
        grid = DesignGrid.paper_axis(CLUSTER_V_NODE, WIMPY_LAPTOP_B, 4)
        result = search.search(grid, section54_join())
        assert [p.time_s for p in result.points] == [4.0, 3.0, 2.0, 1.0, 0.0]

    @pytest.mark.parametrize("field", ["time_s", "energy_j"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_callable_evaluator_rejects_non_finite_or_negative_costs(
        self, field, bad
    ):
        """A NaN, infinite or negative cost makes an infeasible record that
        names the value; a feasible NaN made the frontier depend on input
        order."""
        costs = {4: (1.0, 10.0), 3: (2.0, 8.0), 2: (3.0, 1.0), 1: (3.0, 5.0), 0: (4.0, 2.0)}
        costs[2] = (bad, 1.0) if field == "time_s" else (2.5, bad)
        search = DesignSpaceSearch(
            evaluator=CallableEvaluator(lambda c, q: costs[c.num_beefy])
        )
        grid = DesignGrid.paper_axis(CLUSTER_V_NODE, WIMPY_LAPTOP_B, 4)
        points = search.search(grid, section54_join()).points
        broken = points[2]
        assert broken.label == "2B,2W" and not broken.feasible
        assert f"{field}={bad!r}" in broken.infeasible_reason
        finite = ["4B,0W", "3B,1W", "1B,3W", "0B,4W"]
        for order in (points, points[::-1], points[2:] + points[:2]):
            assert [p.label for p in pareto_frontier(order)] == finite

    def test_simulator_evaluator(self):
        grid = DesignGrid.paper_axis(BEEFY_L5630, WIMPY_LAPTOP_B, 4)
        query = q3_join(100, 0.05, 0.05)
        result = DesignSpaceSearch(evaluator=SimulatorEvaluator()).search(grid, query)
        assert result.feasible_points
        for point in result.feasible_points:
            assert point.time_s > 0
            assert point.energy_j > 0

    def test_forced_mode_flows_through_candidates(self):
        candidate = DesignCandidate(
            label="6B,2W", beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
            num_beefy=6, num_wimpy=2, mode=ExecutionMode.HETEROGENEOUS,
        )
        result = DesignSpaceSearch(evaluator=ModelEvaluator()).search(
            [candidate], section54_join()
        )
        assert result.points[0].prediction.mode is ExecutionMode.HETEROGENEOUS
