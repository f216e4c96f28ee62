"""Policy-bearing design candidates: the (design x policy) search object."""

import math
import pickle
import random
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.hardware.powerstate import PowerStateModel
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.policy import PowerGatePolicy, StaticPolicy
from repro.pstore.plans import ExecutionMode
from repro.search import DesignSpaceSearch, SearchSpace, SimulatorEvaluator
from repro.search.grid import DesignGrid
from repro.search.optimize import LocalSearch, OptimizationLoop
from repro.search.space import ChoiceAxis
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join


def designs():
    grid = DesignGrid(
        node_pairs=[(CLUSTER_V_NODE, WIMPY_LAPTOP_B)], cluster_sizes=(6,)
    )
    return grid.candidate_list()


class TestConstruction:
    def test_auto_label(self):
        design = designs()[2]
        candidate = design.with_policy(StaticPolicy())
        assert candidate.label == f"{design.label}|static"

    def test_explicit_label_preserved(self):
        candidate = replace(designs()[0], label="renamed", policy=StaticPolicy())
        assert candidate.label == "renamed"
        assert candidate.policy == StaticPolicy()

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="not a control policy"):
            designs()[0].with_policy("not-a-policy")
        with pytest.raises(ConfigurationError, match="not a control policy"):
            replace(designs()[0], policy="not-a-policy")
        for interval in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="control interval"):
                designs()[0].with_policy(StaticPolicy(), interval)

    def test_second_policy_rejected(self):
        candidate = designs()[0].with_policy(StaticPolicy())
        with pytest.raises(ConfigurationError, match="already carries a policy"):
            candidate.with_policy(PowerGatePolicy())


class TestDesignSurface:
    def test_with_mode_forces_design_mode(self):
        candidate = designs()[1].with_policy(StaticPolicy())
        forced = replace(candidate, mode=ExecutionMode.HETEROGENEOUS)
        assert forced.mode is ExecutionMode.HETEROGENEOUS
        assert forced.policy == candidate.policy
        assert forced.label == candidate.label

    def test_engine_relabeling_via_replace_works(self):
        candidate = designs()[0].with_policy(StaticPolicy())
        renamed = replace(candidate, label="other")
        assert renamed.label == "other"
        assert renamed.key() == candidate.key()


class TestKeys:
    def test_policy_key_is_namespaced_design_key(self):
        """The exact tuple persisted cache rows were written under."""
        design = designs()[3]
        policy = PowerGatePolicy(min_idle_s=3.0)
        candidate = design.with_policy(policy, control_interval_s=0.5)
        assert candidate.key() == ("policy", design.key(), policy.cache_key(), 0.5)
        assert candidate.label == f"{design.label}|{policy.label}"

    def test_namespaced_and_disjoint_from_design_keys(self):
        """Policy keys can never collide with design-only keys — tested in
        both directions (no policy key equals any design key, and no
        design key equals any policy key)."""
        all_designs = designs()
        design_keys = {design.key() for design in all_designs}
        policy_keys = {
            design.with_policy(policy).key()
            for design in all_designs
            for policy in (StaticPolicy(), PowerGatePolicy())
        }
        assert design_keys.isdisjoint(policy_keys)
        assert policy_keys.isdisjoint(design_keys)
        # and policy keys are unique across (design, policy) pairs
        assert len(policy_keys) == 2 * len(all_designs)

    def test_key_varies_with_policy_and_interval(self):
        design = designs()[0]
        a = design.with_policy(StaticPolicy())
        b = design.with_policy(PowerGatePolicy())
        c = design.with_policy(StaticPolicy(), control_interval_s=2.0)
        assert len({a.key(), b.key(), c.key()}) == 3

    def test_static_policy_key_differs_from_bare_design(self):
        """A StaticPolicy candidate evaluates identically to its bare
        design but must never share its cache row (the record carries
        policy annotations)."""
        design = designs()[0]
        controlled = design.with_policy(StaticPolicy())
        assert controlled.key() != design.key()


class TestPickling:
    def test_round_trips_through_pickle(self):
        candidate = designs()[2].with_policy(PowerGatePolicy(min_idle_s=3.0))
        clone = pickle.loads(pickle.dumps(candidate))
        assert clone == candidate
        assert clone.key() == candidate.key()
        assert clone.label == candidate.label
        assert clone.policy == candidate.policy


# --------------------------------------------------------------- the space
GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(4,),
    frequency_factors=(1.0, 0.8),
)
STATIC = StaticPolicy()
GATE = PowerGatePolicy(
    utilization_floor=0.05,
    min_idle_s=2.0,
    transitions=PowerStateModel(
        shutdown_s=0.1,
        boot_s=0.2,
        transition_power_fraction=0.5,
        gated_power_fraction=0.05,
    ),
)


def grid_design(label):
    return {design.label: design for design in GRID.candidate_list()}[label]


def policy_key(design_label, policy, interval=0.5):
    return ("policy", grid_design(design_label).key(), policy.cache_key(), interval)


class TestMutateOverPolicySpace:
    """Labels and keys of ``SearchSpace.mutate`` on a (design x policy)
    space, each seed picking a known move; the expected values are pinned
    from the separate wrapper type the policy used to ride in."""

    space = SearchSpace.from_grid(GRID, policies=(STATIC, GATE), control_interval_s=0.5)

    def mutant(self, candidate, seed):
        return self.space.mutate(candidate, random.Random(seed))

    def test_bare_design_entering(self):
        design = grid_design("4B,0W|phi0.8")
        # a design-axis move takes the space's first policy ...
        child = self.mutant(design, 1)
        assert child.label == "3B,1W|phi0.8|static"
        assert child.key() == policy_key("3B,1W|phi0.8", STATIC)
        # ... and a policy-axis move steps away from it
        child = self.mutant(design, 5)
        assert child.label == "4B,0W|phi0.8|gate-wimpy@0.05+2s"
        assert child.key() == policy_key("4B,0W|phi0.8", GATE)

    def test_policy_axis_move(self):
        parent = grid_design("4B,0W|phi0.8").with_policy(GATE, 0.5)
        child = self.mutant(parent, 5)
        assert child.label == "4B,0W|phi0.8|static"
        assert child.key() == policy_key("4B,0W|phi0.8", STATIC)
        # an engine collision suffix does not leak into the child
        relabeled = replace(parent, label=f"{parent.label}~2")
        assert self.mutant(relabeled, 5) == child

    def test_design_axis_move(self):
        parent = grid_design("4B,0W|phi0.8").with_policy(GATE, 0.5)
        child = self.mutant(parent, 0)
        assert child.label == "4B,0W|phi1|gate-wimpy@0.05+2s"
        assert child.key() == policy_key("4B,0W|phi1", GATE)
        child = self.mutant(parent, 1)
        assert child.label == "3B,1W|phi0.8|gate-wimpy@0.05+2s"
        assert child.key() == policy_key("3B,1W|phi0.8", GATE)

    def test_nothing_to_vary(self):
        single = SearchSpace(
            node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
            cluster_sizes=ChoiceAxis("cluster_size", (4,)),
            beefy_fractions=ChoiceAxis("beefy_fraction", (0.5,)),
            policies=(GATE,),
            control_interval_s=0.25,
        )
        (only,) = single.candidate_list()
        assert only.label == "2B,2W|gate-wimpy@0.05+2s"
        assert single.mutate(only, random.Random(0)) == only
        # a candidate from elsewhere comes back at this space's interval
        foreign = grid_design("4B,0W|phi1").with_policy(GATE, 2.0)
        child = single.mutate(foreign, random.Random(0))
        assert child.label == "4B,0W|phi1|gate-wimpy@0.05+2s"
        assert child.key() == policy_key("4B,0W|phi1", GATE, 0.25)


def test_seeded_local_search_over_policy_space():
    """One seeded LocalSearch run proposes a pinned list of (design x
    policy) points, in order (pinned like the mutants above)."""
    grid = DesignGrid(
        node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
        cluster_sizes=(4, 6),
        frequency_factors=(1.0, 0.8),
    )
    times = diurnal_arrivals(
        4, base_rate_per_s=0.01, peak_rate_per_s=1.0, period_s=60.0, seed=3
    )
    trace = TimedTrace.from_schedule("diurnal-q3", q3_join(100, 0.05, 0.05), times)
    result = OptimizationLoop(
        DesignSpaceSearch(evaluator=SimulatorEvaluator()),
        SearchSpace.from_grid(grid, policies=(STATIC, GATE), control_interval_s=0.5),
        trace,
        LocalSearch(batch_size=4),
        budget=64,
        seed=2,
    ).run()
    gate = "gate-wimpy@0.05+2s"
    assert [point.label for point in result.points] == [
        f"4B,0W|n4|phi0.8|{gate}",
        f"3B,1W|n4|phi1|{gate}",
        f"6B,0W|n6|phi0.8|{gate}",
        "2B,2W|n4|phi0.8|static",
        "2B,2W|n4|phi1|static",
        "3B,1W|n4|phi0.8|static",
        "1B,3W|n4|phi0.8|static",
        f"2B,2W|n4|phi0.8|{gate}",
        "1B,3W|n4|phi1|static",
        f"6B,0W|n6|phi1|{gate}",
        f"2B,2W|n4|phi1|{gate}",
        f"3B,1W|n4|phi0.8|{gate}",
        "0B,4W|n4|phi1|static",
        f"1B,3W|n4|phi1|{gate}",
        f"1B,3W|n4|phi0.8|{gate}",
        f"4B,0W|n4|phi1|{gate}",
    ]
