"""Control-policy behavior: observe() semantics, validation, cache keys."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.hardware.cluster import BEEFY, WIMPY
from repro.hardware.powerstate import TRADITIONAL_SERVER, PowerStateModel
from repro.policy import (
    ACTIVE,
    GATED,
    ClusterState,
    DvfsLadderPolicy,
    GateNode,
    PolicyChain,
    PowerGatePolicy,
    SetFrequency,
    StaticPolicy,
    UngateNode,
)


def make_state(
    states=(ACTIVE, ACTIVE, ACTIVE, ACTIVE),
    roles=(BEEFY, BEEFY, WIMPY, WIMPY),
    utilization=None,
    factors=None,
    queue_depth=0,
    held_jobs=0,
    idle_s=0.0,
):
    n = len(states)
    return ClusterState(
        time_s=10.0,
        node_roles=tuple(roles),
        node_states=tuple(states),
        node_utilization=(
            tuple(utilization) if utilization is not None else (0.0,) * n
        ),
        frequency_factors=tuple(factors) if factors is not None else (1.0,) * n,
        queue_depth=queue_depth,
        held_jobs=held_jobs,
        idle_s=idle_s,
    )


class TestClusterState:
    def test_nodes_in_state_filters_by_role(self):
        state = make_state(states=(ACTIVE, GATED, ACTIVE, GATED))
        assert state.nodes_in_state(ACTIVE) == [0, 2]
        assert state.nodes_in_state(GATED, WIMPY) == [3]
        assert state.nodes_in_state(ACTIVE, BEEFY) == [0]

    def test_mean_utilization_over_active_nodes_only(self):
        state = make_state(
            states=(ACTIVE, ACTIVE, ACTIVE, GATED),
            utilization=(0.5, 0.3, 0.2, 0.0),
        )
        assert state.mean_utilization(BEEFY) == pytest.approx(0.4)
        # the gated wimpy node does not dilute the role mean
        assert state.mean_utilization(WIMPY) == pytest.approx(0.2)

    def test_mean_utilization_all_gated_role_is_zero(self):
        state = make_state(states=(ACTIVE, ACTIVE, GATED, GATED))
        assert state.mean_utilization(WIMPY) == 0.0


class TestStaticPolicy:
    def test_never_acts_and_is_static(self):
        policy = StaticPolicy()
        assert policy.is_static
        assert policy.observe(make_state(held_jobs=3)) == []
        assert policy.cache_key() == ("static",)
        assert policy.label == "static"


class TestPowerGatePolicy:
    def test_gates_idle_wimpy_nodes(self):
        policy = PowerGatePolicy(utilization_floor=0.05)
        actions = policy.observe(make_state(idle_s=5.0))
        assert actions == [GateNode(2), GateNode(3)]

    def test_respects_min_active(self):
        policy = PowerGatePolicy(min_active=1)
        actions = policy.observe(make_state(idle_s=5.0))
        assert actions == [GateNode(3)]

    def test_waits_for_min_idle(self):
        policy = PowerGatePolicy(min_idle_s=10.0)
        assert policy.observe(make_state(idle_s=5.0)) == []
        assert policy.observe(make_state(idle_s=15.0)) != []

    def test_no_gating_above_utilization_floor(self):
        policy = PowerGatePolicy(utilization_floor=0.05)
        busy = make_state(utilization=(0.0, 0.0, 0.5, 0.5))
        assert policy.observe(busy) == []

    def test_wakes_gated_nodes_when_jobs_held(self):
        policy = PowerGatePolicy()
        state = make_state(states=(ACTIVE, ACTIVE, GATED, GATED), held_jobs=2)
        assert policy.observe(state) == [UngateNode(2), UngateNode(3)]

    def test_gates_other_role_when_configured(self):
        policy = PowerGatePolicy(node_role=BEEFY)
        actions = policy.observe(make_state(idle_s=5.0))
        assert actions == [GateNode(0), GateNode(1)]

    def test_is_dynamic(self):
        assert not PowerGatePolicy().is_static

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PowerGatePolicy(utilization_floor=1.5)
        with pytest.raises(ConfigurationError):
            PowerGatePolicy(min_active=-1)
        with pytest.raises(ConfigurationError):
            PowerGatePolicy(min_idle_s=-0.1)
        with pytest.raises(ConfigurationError):
            PowerGatePolicy(min_idle_s=math.nan)
        # infinite hysteresis is a valid "never gate"
        assert PowerGatePolicy(min_idle_s=math.inf).min_idle_s == math.inf

    def test_cache_key_covers_transition_pricing(self):
        base = PowerGatePolicy()
        other = PowerGatePolicy(
            transitions=PowerStateModel(boot_s=1.0, shutdown_s=1.0)
        )
        assert base.cache_key() != other.cache_key()
        assert base.cache_key() == PowerGatePolicy().cache_key()

    def test_power_state_model_is_own_transitions(self):
        model = PowerStateModel(boot_s=2.0)
        assert PowerGatePolicy(transitions=model).power_state_model() is model


class TestDvfsLadderPolicy:
    def test_target_factor_picks_largest_rung(self):
        policy = DvfsLadderPolicy(ladder=((0, 0.6), (2, 0.8), (4, 1.0)))
        assert policy.target_factor(0) == 0.6
        assert policy.target_factor(1) == 0.6
        assert policy.target_factor(2) == 0.8
        assert policy.target_factor(7) == 1.0

    def test_steps_only_mismatched_nodes(self):
        policy = DvfsLadderPolicy(ladder=((0, 0.6), (2, 1.0)))
        state = make_state(queue_depth=3, factors=(1.0, 1.0, 0.6, 1.0))
        assert policy.observe(state) == [SetFrequency(2, 1.0)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DvfsLadderPolicy(ladder=())
        with pytest.raises(ConfigurationError):
            DvfsLadderPolicy(ladder=((1, 0.5),))  # must start at depth 0
        with pytest.raises(ConfigurationError):
            DvfsLadderPolicy(ladder=((0, 0.5), (0, 0.8)))  # not increasing
        with pytest.raises(ConfigurationError):
            DvfsLadderPolicy(ladder=((0, 1.5),))  # factor out of range

    def test_set_frequency_validates_factor(self):
        with pytest.raises(ConfigurationError):
            SetFrequency(0, 0.0)
        with pytest.raises(ConfigurationError):
            SetFrequency(0, 1.2)


class TestPolicyChain:
    def test_concatenates_actions_in_order(self):
        chain = PolicyChain(
            policies=(
                PowerGatePolicy(node_role=WIMPY),
                DvfsLadderPolicy(ladder=((0, 0.6),), node_role=BEEFY),
            )
        )
        actions = chain.observe(make_state(idle_s=5.0))
        assert actions == [
            GateNode(2),
            GateNode(3),
            SetFrequency(0, 0.6),
            SetFrequency(1, 0.6),
        ]

    def test_static_only_if_all_members_static(self):
        assert PolicyChain(policies=(StaticPolicy(), StaticPolicy())).is_static
        assert not PolicyChain(
            policies=(StaticPolicy(), PowerGatePolicy())
        ).is_static

    def test_rejects_ambiguous_transition_pricing(self):
        a = PowerGatePolicy(transitions=PowerStateModel(boot_s=1.0))
        b = PowerGatePolicy(
            node_role=BEEFY, transitions=PowerStateModel(boot_s=9.0)
        )
        with pytest.raises(ConfigurationError):
            PolicyChain(policies=(a, b))

    def test_single_nondefault_model_wins(self):
        model = PowerStateModel(boot_s=1.0)
        chain = PolicyChain(
            policies=(StaticPolicy(), PowerGatePolicy(transitions=model))
        )
        assert chain.power_state_model() is model
        default = PolicyChain(policies=(StaticPolicy(),))
        assert default.power_state_model() is TRADITIONAL_SERVER

    def test_needs_at_least_one_policy(self):
        with pytest.raises(ConfigurationError):
            PolicyChain(policies=())

    def test_cache_key_and_label_compose(self):
        chain = PolicyChain(policies=(StaticPolicy(), PowerGatePolicy()))
        assert chain.cache_key()[0] == "chain"
        assert chain.label == "static+" + PowerGatePolicy().label
