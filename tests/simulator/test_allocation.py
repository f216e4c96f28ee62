"""Max-min fair allocation (progressive filling)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulator.allocation import (
    _EPSILON,
    max_min_fair_allocation,
    max_min_fair_rates,
    max_min_fair_rates_flat,
)


def test_single_flow_gets_bottleneck_rate():
    rates = max_min_fair_rates(
        [{"disk": 1.0, "nic": 0.5}],
        {"disk": 200.0, "nic": 50.0},
    )
    # nic caps it: 0.5 * rate <= 50 -> rate 100; disk would allow 200
    assert rates == [pytest.approx(100.0)]


def test_two_identical_flows_split_equally():
    demands = [{"nic": 1.0}, {"nic": 1.0}]
    rates = max_min_fair_rates(demands, {"nic": 100.0})
    assert rates == [pytest.approx(50.0)] * 2


def test_max_min_redistribution():
    """A flow capped elsewhere frees capacity for its peers."""
    demands = [
        {"shared": 1.0, "private": 1.0},  # private caps this one at 10
        {"shared": 1.0},
    ]
    rates = max_min_fair_rates(demands, {"shared": 100.0, "private": 10.0})
    assert rates[0] == pytest.approx(10.0)
    assert rates[1] == pytest.approx(90.0)


def test_weighted_demand_coefficients():
    # flow 0 uses 2 units of nic per unit rate, flow 1 uses 1
    demands = [{"nic": 2.0}, {"nic": 1.0}]
    rates = max_min_fair_rates(demands, {"nic": 90.0})
    # progressive filling raises both at the same pace: 2r + r = 90 -> r = 30
    assert rates == [pytest.approx(30.0), pytest.approx(30.0)]


def test_empty_flow_list():
    assert max_min_fair_rates([], {"nic": 10.0}) == []


def test_flow_without_demands_rejected():
    with pytest.raises(SimulationError, match="unbounded"):
        max_min_fair_rates([{}], {"nic": 10.0})


def test_unknown_resource_rejected():
    with pytest.raises(SimulationError, match="unknown resource"):
        max_min_fair_rates([{"ghost": 1.0}], {"nic": 10.0})


def test_nonpositive_coefficient_rejected():
    with pytest.raises(SimulationError):
        max_min_fair_rates([{"nic": 0.0}], {"nic": 10.0})


def test_three_tier_sharing():
    """Classic max-min example: three flows, two links."""
    demands = [
        {"link1": 1.0},
        {"link1": 1.0, "link2": 1.0},
        {"link2": 1.0},
    ]
    rates = max_min_fair_rates(demands, {"link1": 10.0, "link2": 4.0})
    # link2 saturates first at rate 2 (flows 1 and 2 frozen);
    # flow 0 then takes the rest of link1.
    assert rates[1] == pytest.approx(2.0)
    assert rates[2] == pytest.approx(2.0)
    assert rates[0] == pytest.approx(8.0)


class TestBindings:
    def test_binding_names_the_saturated_resource(self):
        rates, bindings = max_min_fair_allocation(
            [{"disk": 1.0, "nic": 0.5}],
            {"disk": 200.0, "nic": 50.0},
        )
        assert bindings == ["nic"]

    def test_bindings_differ_across_flows(self):
        rates, bindings = max_min_fair_allocation(
            [
                {"shared": 1.0, "private": 1.0},  # frozen by its private link
                {"shared": 1.0},  # frozen by the shared link
            ],
            {"shared": 100.0, "private": 10.0},
        )
        assert bindings == ["private", "shared"]

    def test_binding_prefers_heaviest_saturated_resource(self):
        # both resources saturate together; the heavier coefficient wins
        rates, bindings = max_min_fair_allocation(
            [{"a": 2.0, "b": 1.0}],
            {"a": 20.0, "b": 10.0},
        )
        assert bindings == ["a"]

    def test_every_flow_gets_a_binding(self):
        demands = [{"x": 1.0}, {"x": 1.0, "y": 1.0}, {"y": 3.0}]
        rates, bindings = max_min_fair_allocation(
            demands, {"x": 10.0, "y": 30.0}
        )
        assert all(bindings)
        for demand, binding in zip(demands, bindings):
            assert binding in demand


@st.composite
def scenario(draw):
    num_resources = draw(st.integers(1, 4))
    resources = {f"r{i}": draw(st.floats(1.0, 1000.0)) for i in range(num_resources)}
    num_flows = draw(st.integers(1, 6))
    demands = []
    for _ in range(num_flows):
        used = draw(
            st.lists(
                st.sampled_from(sorted(resources)), min_size=1, max_size=num_resources, unique=True
            )
        )
        demands.append({r: draw(st.floats(0.1, 4.0)) for r in used})
    return demands, resources


@given(scenario())
def test_property_capacities_never_exceeded(case):
    demands, resources = case
    rates = max_min_fair_rates(demands, resources)
    for resource, capacity in resources.items():
        usage = sum(d.get(resource, 0.0) * r for d, r in zip(demands, rates))
        assert usage <= capacity * (1 + 1e-6)


@given(scenario())
def test_property_all_rates_positive(case):
    demands, resources = case
    rates = max_min_fair_rates(demands, resources)
    assert all(rate > 0 for rate in rates)


@given(scenario())
def test_property_every_flow_touches_a_saturated_resource(case):
    """Max-min allocations are Pareto efficient: each flow is blocked by
    some saturated resource (can't be raised without lowering another)."""
    demands, resources = case
    rates = max_min_fair_rates(demands, resources)
    usage = {
        resource: sum(d.get(resource, 0.0) * r for d, r in zip(demands, rates))
        for resource in resources
    }
    for demand in demands:
        assert any(
            usage[r] >= resources[r] * (1 - 1e-6) for r in demand
        ), "a flow could still be increased"


@st.composite
def block_diagonal(draw):
    """One to four independent lanes, each a :func:`scenario`; a lane may
    have no flows."""
    lanes = draw(st.lists(scenario(), min_size=1, max_size=4))
    return [
        ([] if draw(st.booleans()) and len(lanes) > 1 else demands, resources)
        for demands, resources in lanes
    ]


def flat_rates(lanes) -> np.ndarray:
    """:func:`max_min_fair_rates_flat` over ``lanes`` as one block-diagonal
    system: each lane's resources form one block, in lane order, and its
    flows' entries are flow-major, in demand-insertion order."""
    entry_flow, entry_res, entry_coef, lane_of_flow, lane_of_res, capacities = (
        [], [], [], [], [], []
    )
    res_offsets = [0]
    for lane, (demands, resources) in enumerate(lanes):
        local = {name: k for k, name in enumerate(resources)}
        for demand in demands:
            for name, coef in demand.items():
                entry_flow.append(len(lane_of_flow))
                entry_res.append(res_offsets[-1] + local[name])
                entry_coef.append(coef)
            lane_of_flow.append(lane)
        capacities += resources.values()
        lane_of_res += [lane] * len(resources)
        res_offsets.append(len(capacities))
    capacities = np.array(capacities)
    return max_min_fair_rates_flat(
        np.array(entry_flow, dtype=np.int64),
        np.array(entry_res, dtype=np.int64),
        np.array(entry_coef, dtype=np.float64),
        np.array(lane_of_flow, dtype=np.int64),
        np.array(lane_of_res, dtype=np.int64),
        np.array(res_offsets, dtype=np.int64),
        capacities,
        _EPSILON * np.maximum(1.0, capacities),
        len(lane_of_flow),
        len(lanes),
    )


@given(block_diagonal(), st.data())
def test_flat_lanes_are_independent(lanes, data):
    """Each lane of a block-diagonal system gets the bits the scalar
    allocator gives it alone, and a call over any subset of the lanes,
    their blocks compacted, gives those lanes the same bits again: what
    the multiplexed loop's allocation memo relies on."""
    rates = flat_rates(lanes)
    bounds = np.cumsum([0] + [len(demands) for demands, _ in lanes])
    alone = [rates[bounds[l] : bounds[l + 1]].tobytes() for l in range(len(lanes))]
    for (demands, resources), got in zip(lanes, alone):
        expected, _ = max_min_fair_allocation(demands, resources)
        assert got == np.array(expected, dtype=np.float64).tobytes()
    subset = data.draw(
        st.lists(st.integers(0, len(lanes) - 1), min_size=1, unique=True).map(sorted)
    )
    assert flat_rates([lanes[l] for l in subset]).tobytes() == b"".join(
        alone[l] for l in subset
    )
