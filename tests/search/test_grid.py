"""Grid enumeration: counts, labels, DVFS application, validation."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.pstore.plans import ExecutionMode
from repro.search.grid import DesignCandidate, DesignGrid, unique_labels
from repro.workloads.protocol import join_cache_key
from repro.workloads.queries import section54_join


PAIR = (CLUSTER_V_NODE, WIMPY_LAPTOP_B)


class TestDesignGrid:
    def test_paper_axis_is_the_section54_space(self):
        grid = DesignGrid.paper_axis(CLUSTER_V_NODE, WIMPY_LAPTOP_B, 8)
        candidates = grid.candidate_list()
        assert len(grid) == 9
        assert [c.label for c in candidates][:2] == ["8B,0W", "7B,1W"]
        assert candidates[-1].label == "0B,8W"
        assert all(c.num_beefy + c.num_wimpy == 8 for c in candidates)

    def test_len_matches_enumeration_on_full_product(self):
        grid = DesignGrid(
            node_pairs=(PAIR, (CLUSTER_V_NODE, CLUSTER_V_NODE)),
            cluster_sizes=(4, 6),
            frequency_factors=(1.0, 0.8),
            modes=(None, ExecutionMode.HOMOGENEOUS),
        )
        candidates = grid.candidate_list()
        assert len(candidates) == len(grid) == 2 * (5 + 7) * 2 * 2

    def test_labels_are_unique_across_all_dimensions(self):
        grid = DesignGrid(
            node_pairs=(PAIR,),
            cluster_sizes=(4, 8),
            frequency_factors=(1.0, 0.5),
            modes=(None, ExecutionMode.HOMOGENEOUS),
        )
        candidates = grid.candidate_list()
        assert len({c.label for c in candidates}) == len(candidates)
        unique_labels(candidates)  # should not raise

    def test_mix_step_keeps_both_endpoints(self):
        grid = DesignGrid(node_pairs=(PAIR,), cluster_sizes=(5,), mix_step=2)
        beefy_counts = [c.num_beefy for c in grid.candidates()]
        assert beefy_counts == [5, 3, 1, 0]  # all-Wimpy endpoint forced in

    def test_dvfs_factor_scales_the_node_specs(self):
        grid = DesignGrid(
            node_pairs=(PAIR,), cluster_sizes=(2,), frequency_factors=(0.5,)
        )
        candidate = grid.candidate_list()[0]
        assert candidate.effective_beefy.cpu_bandwidth_mbps == pytest.approx(
            0.5 * CLUSTER_V_NODE.cpu_bandwidth_mbps
        )
        assert candidate.effective_wimpy.cpu_bandwidth_mbps == pytest.approx(
            0.5 * WIMPY_LAPTOP_B.cpu_bandwidth_mbps
        )
        # ... but unity keeps the original objects untouched
        plain = DesignCandidate(
            label="x", beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B, num_beefy=1, num_wimpy=1
        )
        assert plain.effective_beefy is CLUSTER_V_NODE

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(node_pairs=(), cluster_sizes=(8,)),
            dict(node_pairs=(PAIR,), cluster_sizes=()),
            dict(node_pairs=(PAIR,), cluster_sizes=(0,)),
            dict(node_pairs=(PAIR,), cluster_sizes=(8, 8)),
            dict(node_pairs=(PAIR,), cluster_sizes=(8,), frequency_factors=(1.5,)),
            dict(node_pairs=(PAIR,), cluster_sizes=(8,), frequency_factors=()),
            dict(node_pairs=(PAIR,), cluster_sizes=(8,), modes=()),
            dict(node_pairs=(PAIR,), cluster_sizes=(8,), mix_step=0),
            dict(node_pairs=(PAIR,), cluster_sizes=(8,), beefy_frequency_factors=()),
            dict(
                node_pairs=(PAIR,),
                cluster_sizes=(8,),
                beefy_frequency_factors=(1.2,),
            ),
            dict(
                node_pairs=(PAIR,),
                cluster_sizes=(8,),
                wimpy_frequency_factors=(0.0,),
            ),
        ],
    )
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DesignGrid(**kwargs)


class TestPerTypeDvfsAxes:
    def test_axes_enter_the_cross_product(self):
        grid = DesignGrid(
            node_pairs=(PAIR,),
            cluster_sizes=(4,),
            beefy_frequency_factors=(1.0, 0.8),
            wimpy_frequency_factors=(1.0, 0.6),
        )
        candidates = grid.candidate_list()
        assert len(candidates) == len(grid) == 5 * 2 * 2
        states = {
            (c.effective_beefy_frequency, c.effective_wimpy_frequency)
            for c in candidates
        }
        assert states == {(1.0, 1.0), (1.0, 0.6), (0.8, 1.0), (0.8, 0.6)}

    def test_asymmetric_states_are_labeled_and_unique(self):
        grid = DesignGrid(
            node_pairs=(PAIR,),
            cluster_sizes=(2,),
            beefy_frequency_factors=(1.0, 0.8),
            wimpy_frequency_factors=(0.6,),
        )
        labels = [c.label for c in grid.candidates()]
        unique_labels(grid.candidate_list())  # should not raise
        assert "2B,0W|phiB0.8|phiW0.6" in labels
        assert "2B,0W|phiB1|phiW0.6" in labels

    def test_single_unity_override_adds_no_label_noise(self):
        grid = DesignGrid(
            node_pairs=(PAIR,),
            cluster_sizes=(2,),
            beefy_frequency_factors=(1.0,),
        )
        assert [c.label for c in grid.candidates()] == ["2B,0W", "1B,1W", "0B,2W"]

    def test_per_type_override_beats_the_cluster_factor(self):
        grid = DesignGrid(
            node_pairs=(PAIR,),
            cluster_sizes=(2,),
            frequency_factors=(0.5,),
            beefy_frequency_factors=(0.9,),
        )
        candidate = grid.candidate_list()[0]
        assert candidate.effective_beefy_frequency == 0.9
        assert candidate.effective_wimpy_frequency == 0.5  # follows cluster-wide

    def test_shadowed_cluster_axis_rejected(self):
        """Both per-type axes override the cluster-wide factor on every
        candidate, so a non-trivial frequency_factors axis would only
        enumerate duplicate hardware states."""
        with pytest.raises(ConfigurationError, match="shadowed"):
            DesignGrid(
                node_pairs=(PAIR,),
                cluster_sizes=(4,),
                frequency_factors=(1.0, 0.8),
                beefy_frequency_factors=(0.9,),
                wimpy_frequency_factors=(0.9,),
            )

    def test_equivalent_states_share_a_cache_key(self):
        """A cluster-wide factor and the same value as per-type overrides
        describe the same hardware, so grid points agree on the key."""
        wide = DesignGrid(
            node_pairs=(PAIR,), cluster_sizes=(2,), frequency_factors=(0.8,)
        )
        split = DesignGrid(
            node_pairs=(PAIR,),
            cluster_sizes=(2,),
            beefy_frequency_factors=(0.8,),
            wimpy_frequency_factors=(0.8,),
        )
        for a, b in zip(wide.candidate_list(), split.candidate_list()):
            assert a.key() == b.key()


class TestDesignCandidate:
    def test_cluster_mirrors_the_mix(self):
        candidate = DesignCandidate(
            label="3B,5W", beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
            num_beefy=3, num_wimpy=5,
        )
        cluster = candidate.cluster()
        assert cluster.name == "3B,5W"
        assert (cluster.num_beefy, cluster.num_wimpy) == (3, 5)

    def test_homogeneous_cluster_has_no_wimpy_group(self):
        candidate = DesignCandidate(
            label="4B", beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
            num_beefy=4, num_wimpy=0, homogeneous=True,
        )
        assert len(candidate.cluster().groups) == 1

    def test_key_ignores_label_but_not_geometry(self):
        base = dict(beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B, num_beefy=2, num_wimpy=2)
        a = DesignCandidate(label="a", **base)
        b = DesignCandidate(label="b", **base)
        c = DesignCandidate(label="c", **{**base, "num_beefy": 3})
        d = DesignCandidate(label="d", **{**base, "frequency_factor": 0.8})
        assert a.key() == b.key()
        assert a.key() != c.key()
        assert a.key() != d.key()

    def test_invalid_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignCandidate(
                label="none", beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
                num_beefy=0, num_wimpy=0,
            )
        with pytest.raises(ConfigurationError):
            DesignCandidate(
                label="bad-phi", beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
                num_beefy=1, num_wimpy=0, frequency_factor=0.0,
            )
        with pytest.raises(ConfigurationError):
            DesignCandidate(
                label="homo-wimpy", beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
                num_beefy=1, num_wimpy=1, homogeneous=True,
            )

    def test_duplicate_labels_detected(self):
        candidate = DesignCandidate(
            label="dup", beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
            num_beefy=1, num_wimpy=0,
        )
        with pytest.raises(ConfigurationError, match="dup"):
            unique_labels([candidate, candidate])


def test_query_key_distinguishes_workloads():
    assert join_cache_key(section54_join()) == join_cache_key(section54_join())
    assert join_cache_key(section54_join(0.10)) != join_cache_key(section54_join(0.05))
