"""PolicyCandidate: the (design x policy) search object."""

import math
import pickle
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.policy import PolicyCandidate, PowerGatePolicy, StaticPolicy
from repro.pstore.plans import ExecutionMode
from repro.search.grid import DesignGrid


def designs():
    grid = DesignGrid(
        node_pairs=[(CLUSTER_V_NODE, WIMPY_LAPTOP_B)], cluster_sizes=(6,)
    )
    return grid.candidate_list()


class TestConstruction:
    def test_auto_label(self):
        design = designs()[2]
        candidate = PolicyCandidate(design=design, policy=StaticPolicy())
        assert candidate.label == f"{design.label}|static"

    def test_explicit_label_preserved(self):
        candidate = PolicyCandidate(
            design=designs()[0], policy=StaticPolicy(), label="renamed"
        )
        assert candidate.label == "renamed"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PolicyCandidate(design=designs()[0], policy="not-a-policy")
        for interval in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="control interval"):
                PolicyCandidate(
                    design=designs()[0],
                    policy=StaticPolicy(),
                    control_interval_s=interval,
                )


class TestDesignSurface:
    def test_delegates_design_accessors(self):
        design = designs()[3]
        candidate = PolicyCandidate(design=design, policy=PowerGatePolicy())
        assert candidate.num_beefy == design.num_beefy
        assert candidate.num_wimpy == design.num_wimpy
        assert candidate.num_nodes == design.num_nodes
        assert candidate.beefy is design.beefy
        assert candidate.wimpy is design.wimpy
        assert candidate.frequency_factor == design.frequency_factor
        assert candidate.effective_beefy_frequency == design.effective_beefy_frequency
        assert candidate.effective_wimpy_frequency == design.effective_wimpy_frequency
        assert candidate.homogeneous == design.homogeneous
        assert candidate.mode is design.mode
        assert candidate.cluster().num_nodes == design.cluster().num_nodes

    def test_with_mode_forces_design_mode(self):
        candidate = PolicyCandidate(design=designs()[1], policy=StaticPolicy())
        forced = candidate.with_mode(ExecutionMode.HETEROGENEOUS)
        assert forced.mode is ExecutionMode.HETEROGENEOUS
        assert forced.policy == candidate.policy
        assert forced.label == candidate.label  # label survives the rewrap

    def test_engine_relabeling_via_replace_works(self):
        candidate = PolicyCandidate(design=designs()[0], policy=StaticPolicy())
        renamed = replace(candidate, label="other")
        assert renamed.label == "other"
        assert renamed.key() == candidate.key()


class TestKeys:
    def test_namespaced_and_disjoint_from_design_keys(self):
        """Policy keys can never collide with design-only keys — tested in
        both directions (no policy key equals any design key, and no
        design key equals any policy key)."""
        all_designs = designs()
        design_keys = {design.key() for design in all_designs}
        policy_keys = {
            PolicyCandidate(design=design, policy=policy).key()
            for design in all_designs
            for policy in (StaticPolicy(), PowerGatePolicy())
        }
        assert design_keys.isdisjoint(policy_keys)
        assert policy_keys.isdisjoint(design_keys)
        # and policy keys are unique across (design, policy) pairs
        assert len(policy_keys) == 2 * len(all_designs)

    def test_key_varies_with_policy_and_interval(self):
        design = designs()[0]
        a = PolicyCandidate(design=design, policy=StaticPolicy())
        b = PolicyCandidate(design=design, policy=PowerGatePolicy())
        c = PolicyCandidate(
            design=design, policy=StaticPolicy(), control_interval_s=2.0
        )
        assert len({a.key(), b.key(), c.key()}) == 3

    def test_static_policy_key_differs_from_bare_design(self):
        """A StaticPolicy candidate evaluates identically to its bare
        design but must never share its cache row (the record carries
        policy annotations)."""
        design = designs()[0]
        wrapped = PolicyCandidate(design=design, policy=StaticPolicy())
        assert wrapped.key() != design.key()


class TestPickling:
    def test_round_trips_through_pickle(self):
        candidate = PolicyCandidate(
            design=designs()[2], policy=PowerGatePolicy(min_idle_s=3.0)
        )
        clone = pickle.loads(pickle.dumps(candidate))
        assert clone.key() == candidate.key()
        assert clone.label == candidate.label
        assert clone.policy == candidate.policy
