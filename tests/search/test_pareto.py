"""Pareto analysis on hand-built point sets."""

import pytest

from repro.errors import ModelError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search.evaluators import EvaluatedDesign
from repro.search.grid import DesignCandidate
from repro.search.pareto import best_under, edp_optimal, knee_point, pareto_frontier


def point(label, time_s, energy_j, feasible=True):
    candidate = DesignCandidate(
        label=label, beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
        num_beefy=1, num_wimpy=1,
    )
    return EvaluatedDesign(
        candidate=candidate,
        time_s=time_s,
        energy_j=energy_j,
        feasible=feasible,
        infeasible_reason="" if feasible else "does not fit",
    )


class TestParetoFrontier:
    def test_dominated_points_removed(self):
        points = [
            point("fast-hungry", 1.0, 100.0),
            point("balanced", 2.0, 50.0),
            point("dominated", 3.0, 60.0),  # slower AND hungrier than balanced
            point("slow-frugal", 4.0, 10.0),
        ]
        assert [p.label for p in pareto_frontier(points)] == [
            "fast-hungry", "balanced", "slow-frugal",
        ]

    def test_frontier_sorted_by_time(self):
        points = [point("b", 2.0, 1.0), point("a", 1.0, 2.0)]
        assert [p.label for p in pareto_frontier(points)] == ["a", "b"]

    def test_equal_energy_keeps_only_the_faster(self):
        points = [point("fast", 1.0, 5.0), point("slow", 2.0, 5.0)]
        assert [p.label for p in pareto_frontier(points)] == ["fast"]

    def test_exact_duplicates_keep_first_label(self):
        points = [point("z", 1.0, 5.0), point("a", 1.0, 5.0)]
        assert [p.label for p in pareto_frontier(points)] == ["a"]

    def test_infeasible_points_excluded(self):
        points = [point("ok", 2.0, 2.0), point("nope", 1.0, 1.0, feasible=False)]
        assert [p.label for p in pareto_frontier(points)] == ["ok"]

    def test_empty_input(self):
        assert pareto_frontier([]) == []
        assert pareto_frontier([point("x", 1.0, 1.0, feasible=False)]) == []


class TestSelections:
    def test_edp_optimal(self):
        points = [
            point("a", 10.0, 10.0),  # EDP 100
            point("b", 3.0, 20.0),  # EDP 60  <- winner
            point("c", 20.0, 4.0),  # EDP 80
        ]
        assert edp_optimal(points).label == "b"

    def test_edp_optimal_requires_a_feasible_point(self):
        with pytest.raises(ModelError):
            edp_optimal([point("x", 1.0, 1.0, feasible=False)])

    def test_knee_of_elbowed_curve(self):
        points = [
            point("a", 10.0, 100.0),
            point("b", 11.0, 30.0),  # big energy drop for a tiny slowdown
            point("c", 30.0, 25.0),  # long flat tail
        ]
        assert knee_point(points).label == "b"

    def test_knee_degenerate_curves_fall_back_to_edp(self):
        two = [point("a", 1.0, 10.0), point("b", 2.0, 5.0)]
        assert knee_point(two).label == edp_optimal(two).label
        with pytest.raises(ModelError):
            knee_point([])


class TestSlaSelection:
    POINTS = [
        point("fast-hungry", 1.0, 100.0),
        point("balanced", 2.0, 50.0),
        point("slow-frugal", 4.0, 10.0),
    ]

    def test_picks_cheapest_design_meeting_the_sla(self):
        assert best_under(self.POINTS, {"time_s": 2.5}).label == "balanced"
        assert best_under(self.POINTS, {"time_s": 10.0}).label == "slow-frugal"

    def test_sla_boundary_is_inclusive(self):
        assert best_under(self.POINTS, {"time_s": 2.0}).label == "balanced"

    def test_no_feasible_point_raises(self):
        with pytest.raises(ModelError, match="time_s <= 0.5"):
            best_under(self.POINTS, {"time_s": 0.5})
        with pytest.raises(ModelError, match="time_s <= 5"):
            best_under([point("x", 1.0, 1.0, feasible=False)], {"time_s": 5.0})

    def test_invalid_sla_rejected(self):
        for bad in (float("nan"), -1.0):
            with pytest.raises(ModelError, match="'time_s' must be >= 0"):
                best_under(self.POINTS, {"time_s": bad})

    def test_energy_ties_break_on_time_then_label(self):
        tied = [
            point("slower", 3.0, 10.0),
            point("faster", 2.0, 10.0),
        ]
        assert best_under(tied, {"time_s": 5.0}).label == "faster"
        same = [point("b", 2.0, 10.0), point("a", 2.0, 10.0)]
        assert best_under(same, {"time_s": 5.0}).label == "a"
