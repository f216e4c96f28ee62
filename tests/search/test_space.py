"""SearchSpace: sampling, mutation, grid compatibility, enumeration."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.hardware.presets import BEEFY_L5630, CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.pstore.plans import ExecutionMode
from repro.search import ChoiceAxis, DesignGrid, RangeAxis, SearchSpace


def reference_grid():
    return DesignGrid(
        node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
        cluster_sizes=(6, 8, 10),
        frequency_factors=(1.0, 0.8),
    )


def open_space(**overrides):
    settings = dict(
        node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
        cluster_sizes=RangeAxis("cluster_size", 4, 24, integer=True),
        frequency_factors=RangeAxis("frequency_factor", 0.5, 1.0),
    )
    settings.update(overrides)
    return SearchSpace(**settings)


class TestAxes:
    def test_choice_axis_samples_its_values(self):
        axis = ChoiceAxis("phi", (1.0, 0.8, 0.6))
        rng = random.Random(0)
        assert {axis.sample(rng) for _ in range(64)} == {1.0, 0.8, 0.6}

    def test_choice_axis_mutation_moves_to_a_neighbor(self):
        axis = ChoiceAxis("phi", (1.0, 0.8, 0.6))
        rng = random.Random(0)
        for _ in range(32):
            assert axis.mutate(0.8, rng) in (1.0, 0.6)
            assert axis.mutate(1.0, rng) == 0.8  # endpoint: one neighbor
            assert axis.mutate(0.6, rng) == 0.8

    def test_range_axis_stays_in_bounds(self):
        axis = RangeAxis("phi", 0.5, 1.0)
        rng = random.Random(1)
        for _ in range(200):
            assert 0.5 <= axis.sample(rng) <= 1.0
            assert 0.5 <= axis.mutate(0.98, rng) <= 1.0

    def test_integer_range_axis_yields_integers_and_never_stalls(self):
        axis = RangeAxis("n", 4, 24, integer=True)
        rng = random.Random(2)
        for _ in range(100):
            drawn = axis.sample(rng)
            assert isinstance(drawn, int) and 4 <= drawn <= 24
            mutant = axis.mutate(drawn, rng)
            assert isinstance(mutant, int) and 4 <= mutant <= 24
            assert mutant != drawn  # a zero-step integer move is no mutation

    def test_empty_choice_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            ChoiceAxis("phi", ())

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigurationError, match="low < high"):
            RangeAxis("phi", 1.0, 0.5)


class TestGridBackedSpace:
    def test_enumeration_is_exactly_the_grid(self):
        grid = reference_grid()
        space = SearchSpace.from_grid(grid)
        assert space.finite
        assert len(space) == len(grid)
        assert [c.label for c in space.candidate_list()] == [
            c.label for c in grid.candidate_list()
        ]

    def test_samples_are_grid_points_with_grid_labels(self):
        grid = reference_grid()
        space = SearchSpace.from_grid(grid)
        by_key = {c.key(): c.label for c in grid.candidate_list()}
        rng = random.Random(7)
        for _ in range(100):
            candidate = space.sample(rng)
            assert candidate.key() in by_key
            assert candidate.label == by_key[candidate.key()]

    def test_mutants_are_grid_points(self):
        grid = reference_grid()
        space = SearchSpace.from_grid(grid)
        keys = {c.key() for c in grid.candidate_list()}
        rng = random.Random(11)
        candidate = space.sample(rng)
        for _ in range(100):
            candidate = space.mutate(candidate, rng)
            assert candidate.key() in keys

    def test_sampling_is_deterministic_under_a_seed(self):
        space = SearchSpace.from_grid(reference_grid())
        first = [space.sample(random.Random(3)) for _ in range(1)]
        # same seed, fresh rng: identical draws
        draws_a = [space.sample(rng) for rng in [random.Random(3)] for _ in range(1)]
        rng_a, rng_b = random.Random(9), random.Random(9)
        seq_a = [space.sample(rng_a).label for _ in range(20)]
        seq_b = [space.sample(rng_b).label for _ in range(20)]
        assert seq_a == seq_b
        assert first[0].label == draws_a[0].label

    def test_mix_step_grids_only_sample_allowed_splits(self):
        grid = DesignGrid(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
            cluster_sizes=(8,),
            mix_step=2,
        )
        space = SearchSpace.from_grid(grid)
        allowed = {c.num_beefy for c in grid.candidate_list()}
        rng = random.Random(5)
        for _ in range(60):
            assert space.sample(rng).num_beefy in allowed


class TestOpenSpace:
    def test_open_space_is_not_finite_and_refuses_enumeration(self):
        space = open_space()
        assert not space.finite
        with pytest.raises(ConfigurationError, match="cannot be enumerated"):
            space.candidate_list()

    def test_samples_respect_every_axis(self):
        space = open_space()
        rng = random.Random(13)
        for _ in range(100):
            candidate = space.sample(rng)
            assert 4 <= candidate.num_nodes <= 24
            assert 0 <= candidate.num_beefy <= candidate.num_nodes
            assert 0.5 <= candidate.frequency_factor <= 1.0

    def test_mutation_changes_exactly_one_axis_dimension(self):
        space = open_space()
        rng = random.Random(17)
        parent = space.sample(rng)
        for _ in range(50):
            child = space.mutate(parent, rng)
            changed = sum(
                1
                for probe in (
                    child.num_nodes != parent.num_nodes,
                    child.num_beefy != parent.num_beefy
                    and child.num_nodes == parent.num_nodes,
                    child.frequency_factor != parent.frequency_factor,
                )
                if probe
            )
            assert changed >= 1

    def test_discrete_non_grid_space_enumerates(self):
        space = SearchSpace(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
            cluster_sizes=(4,),
            beefy_fractions=(0.0, 0.5, 1.0),
            frequency_factors=(1.0, 0.8),
        )
        assert space.finite
        labels = [c.label for c in space.candidate_list()]
        assert len(labels) == len(set(labels)) == 6  # 3 splits x 2 DVFS states
        assert {c.num_beefy for c in space.candidate_list()} == {0, 2, 4}

    def test_mode_axis_and_with_mode(self):
        space = SearchSpace(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
            cluster_sizes=(4,),
            beefy_fractions=(0.5,),
            modes=(ExecutionMode.HOMOGENEOUS, ExecutionMode.HETEROGENEOUS),
        )
        rng = random.Random(19)
        drawn_modes = {space.sample(rng).mode for _ in range(40)}
        assert drawn_modes == {
            ExecutionMode.HOMOGENEOUS,
            ExecutionMode.HETEROGENEOUS,
        }
        forced = space.with_mode(ExecutionMode.HOMOGENEOUS)
        assert all(
            forced.sample(rng).mode is ExecutionMode.HOMOGENEOUS
            for _ in range(20)
        )

    def test_multi_pair_spaces_label_the_pair(self):
        space = SearchSpace(
            node_pairs=(
                (CLUSTER_V_NODE, WIMPY_LAPTOP_B),
                (BEEFY_L5630, WIMPY_LAPTOP_B),
            ),
            cluster_sizes=(4,),
            beefy_fractions=(0.5,),
        )
        rng = random.Random(23)
        names = {space.sample(rng).beefy.name for _ in range(40)}
        assert len(names) == 2

    def test_mutating_a_foreign_candidate_with_per_type_dvfs(self):
        """A candidate carrying per-type DVFS factors mutates cleanly in
        a space without those axes (regression: AttributeError)."""
        from repro.search import DesignCandidate

        space = SearchSpace(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
            cluster_sizes=(4, 8),
            beefy_fractions=(0.0, 0.5, 1.0),
        )
        foreign = DesignCandidate(
            label="4B,4W|phiB0.8",
            beefy=CLUSTER_V_NODE,
            wimpy=WIMPY_LAPTOP_B,
            num_beefy=4,
            num_wimpy=4,
            beefy_frequency_factor=0.8,
        )
        rng = random.Random(31)
        for _ in range(30):
            mutant = space.mutate(foreign, rng)
            assert mutant.num_nodes in (4, 8)
            assert mutant.beefy_frequency_factor == 0.8  # carried through
            if mutant.num_nodes != foreign.num_nodes:
                assert "phiB0.8" in mutant.label

    def test_size_range_must_be_integer(self):
        with pytest.raises(ConfigurationError, match="integer"):
            SearchSpace(
                node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
                cluster_sizes=RangeAxis("cluster_size", 4.0, 8.5),
            )

    def test_frequency_range_must_stay_in_unit_interval(self):
        with pytest.raises(ConfigurationError, match="frequency_factor"):
            open_space(frequency_factors=RangeAxis("frequency_factor", 0.0, 1.0))

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, math.inf])
    def test_control_interval_must_be_finite_and_positive(self, interval):
        # A NaN or infinite interval would silently never consult a
        # dynamic policy, so every constructor rejects it up front.
        with pytest.raises(ConfigurationError, match="control interval"):
            open_space(control_interval_s=interval)
        with pytest.raises(ConfigurationError, match="control interval"):
            SearchSpace.from_grid(reference_grid(), control_interval_s=interval)


class TestCandidateListSpace:
    def test_from_candidates_samples_the_list(self):
        grid = reference_grid()
        listed = grid.candidate_list()[:5]
        space = SearchSpace.from_candidates(listed)
        assert space.finite
        assert space.candidate_list() == listed
        rng = random.Random(29)
        keys = {c.key() for c in listed}
        for _ in range(40):
            assert space.sample(rng).key() in keys
            assert space.mutate(listed[0], rng).key() in keys

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            SearchSpace.from_candidates([])
