"""Power-state transition costs and downsizing break-even."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.hardware.powerstate import (
    TRADITIONAL_SERVER,
    PowerStateModel,
    downsizing_break_even_s,
    downsizing_net_energy_j,
)
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B


def test_cycle_duration():
    model = PowerStateModel(shutdown_s=30.0, boot_s=120.0)
    assert model.cycle_s == 150.0


def test_cycle_energy():
    model = PowerStateModel(shutdown_s=10.0, boot_s=90.0, transition_power_fraction=0.5)
    expected = 100.0 * 0.5 * CLUSTER_V_NODE.peak_power_w
    assert model.cycle_energy_j(CLUSTER_V_NODE) == pytest.approx(expected)


def test_validation():
    with pytest.raises(ConfigurationError):
        PowerStateModel(shutdown_s=-1.0)
    # A NaN boot would erase the wake-up latency, and an infinite
    # transition would stall the simulator until its event guard trips.
    for field in ("shutdown_s", "boot_s"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
                PowerStateModel(**{field: value})
    with pytest.raises(ConfigurationError):
        PowerStateModel(transition_power_fraction=0.0)
    with pytest.raises(ConfigurationError):
        downsizing_break_even_s(CLUSTER_V_NODE, idle_nodes=0)
    with pytest.raises(ConfigurationError):
        downsizing_net_energy_j(CLUSTER_V_NODE, 2, off_duration_s=-1.0)


def test_break_even_definition():
    """Break-even = cycle energy / idle power, per node."""
    expected = TRADITIONAL_SERVER.cycle_energy_j(CLUSTER_V_NODE) / (
        CLUSTER_V_NODE.idle_power_w
    )
    assert downsizing_break_even_s(CLUSTER_V_NODE, idle_nodes=4) == pytest.approx(
        expected
    )


def test_break_even_independent_of_node_count():
    one = downsizing_break_even_s(CLUSTER_V_NODE, idle_nodes=1)
    many = downsizing_break_even_s(CLUSTER_V_NODE, idle_nodes=7)
    assert one == pytest.approx(many)


def test_break_even_is_minutes_not_hours_for_beefy_servers():
    """Cluster-V nodes idle at ~280 W with ~46 kJ cycle cost: turning them
    off pays within a few minutes — the paper's consolidation premise."""
    seconds = downsizing_break_even_s(CLUSTER_V_NODE)
    assert 60.0 < seconds < 600.0


def test_wimpy_nodes_take_longer_to_break_even():
    """Low idle power means less to save: Wimpy break-even is longer."""
    assert downsizing_break_even_s(WIMPY_LAPTOP_B) > downsizing_break_even_s(
        CLUSTER_V_NODE
    )


def test_net_energy_sign_flips_at_break_even():
    node = CLUSTER_V_NODE
    breakeven = downsizing_break_even_s(node)
    assert downsizing_net_energy_j(node, 2, breakeven * 0.5) < 0
    assert downsizing_net_energy_j(node, 2, breakeven * 2.0) > 0
    assert downsizing_net_energy_j(node, 2, breakeven) == pytest.approx(0.0, abs=1e-6)


def test_net_energy_scales_with_idle_nodes():
    node = CLUSTER_V_NODE
    duration = 3600.0
    two = downsizing_net_energy_j(node, 2, duration)
    four = downsizing_net_energy_j(node, 4, duration)
    assert four == pytest.approx(2 * two)
