"""The TCO cost model: curve arithmetic and per-evaluation pricing."""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CarbonIntensityCurve, CostModel, JOULES_PER_KWH
from repro.errors import ConfigurationError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search.grid import DesignCandidate


def candidate(num_beefy=2, num_wimpy=3):
    return DesignCandidate(
        label="cand",
        beefy=CLUSTER_V_NODE,
        wimpy=WIMPY_LAPTOP_B,
        num_beefy=num_beefy,
        num_wimpy=num_wimpy,
    )


class TestCarbonIntensityCurve:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one slot"):
            CarbonIntensityCurve(slots=(), period_s=86400.0)
        with pytest.raises(ConfigurationError, match="negative"):
            CarbonIntensityCurve(slots=(100.0, -1.0), period_s=86400.0)
        with pytest.raises(ConfigurationError, match="period"):
            CarbonIntensityCurve(slots=(100.0,), period_s=0.0)
        with pytest.raises(ConfigurationError, match="slots"):
            CarbonIntensityCurve.diurnal(100.0, 500.0, slots=0)
        # non-finite inputs: NaN slips past every bare comparison
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="finite"):
                CarbonIntensityCurve(slots=(100.0, bad), period_s=86400.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match="period"):
                CarbonIntensityCurve(slots=(100.0,), period_s=bad)
        with pytest.raises(ConfigurationError, match="finite"):
            CarbonIntensityCurve.diurnal(math.nan, 500.0)

    def test_at_reads_the_slot_in_force(self):
        curve = CarbonIntensityCurve(slots=(10.0, 20.0, 30.0, 40.0), period_s=4.0)
        assert curve.slot_s == 1.0
        assert curve.at(0.0) == 10.0
        assert curve.at(0.999) == 10.0
        assert curve.at(1.0) == 20.0  # right-open slots
        assert curve.at(3.5) == 40.0
        # the profile repeats in both directions
        assert curve.at(4.0) == 10.0
        assert curve.at(9.0) == 20.0
        assert curve.at(-1.0) == 40.0

    def test_mean_is_time_weighted(self):
        curve = CarbonIntensityCurve(slots=(100.0, 300.0), period_s=7200.0)
        assert curve.mean == 200.0
        diurnal = CarbonIntensityCurve.diurnal(100.0, 500.0)
        assert diurnal.mean == pytest.approx(300.0)

    def test_diurnal_shape(self):
        curve = CarbonIntensityCurve.diurnal(100.0, 500.0, slots=24)
        assert len(curve.slots) == 24
        assert all(100.0 <= s <= 500.0 for s in curve.slots)
        # trough at t=0, peak half a period later
        assert curve.at(0.0) < curve.at(43200.0)
        assert min(curve.slots) == pytest.approx(curve.slots[0])
        assert max(curve.slots) == pytest.approx(curve.slots[12])

    def test_integral_whole_period_is_mean_times_period(self):
        curve = CarbonIntensityCurve.diurnal(100.0, 500.0)
        assert curve.integral(0.0, 86400.0) == pytest.approx(
            curve.mean * 86400.0
        )
        # arbitrary whole-period windows too
        assert curve.integral(1234.5, 1234.5 + 86400.0) == pytest.approx(
            curve.mean * 86400.0
        )

    def test_integral_matches_numeric_oracle(self):
        curve = CarbonIntensityCurve.diurnal(80.0, 420.0, period_s=600.0, slots=7)
        rng = random.Random(7)
        for _ in range(20):
            start = rng.uniform(-900.0, 900.0)
            end = start + rng.uniform(0.0, 1500.0)
            steps = 200_000
            width = (end - start) / steps
            oracle = sum(
                curve.at(start + (k + 0.5) * width) for k in range(steps)
            ) * width
            assert curve.integral(start, end) == pytest.approx(
                oracle, rel=1e-3, abs=1e-6
            )

    def test_integral_is_additive_and_empty_on_inverted_ranges(self):
        curve = CarbonIntensityCurve(slots=(5.0, 15.0, 10.0), period_s=30.0)
        assert curve.integral(3.0, 3.0) == 0.0
        assert curve.integral(9.0, 2.0) == 0.0
        whole = curve.integral(1.0, 77.0)
        split = curve.integral(1.0, 25.0) + curve.integral(25.0, 77.0)
        assert whole == pytest.approx(split)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=24),
        st.floats(0.01, 500.0),
        st.lists(
            st.tuples(st.floats(-2000.0, 2000.0), st.floats(-5.0, 3000.0)),
            min_size=1,
            max_size=30,
        ),
    )
    def test_array_integral_equals_scalar_bit_for_bit(self, slots, period, spans):
        """One call over an array of stretches gives every element the
        scalar call's exact bits (the multiplexed loop relies on it)."""
        curve = CarbonIntensityCurve(slots=tuple(slots), period_s=period)
        # include stretches that start or end on slot boundaries
        spans = spans + [(k * curve.slot_s, 2 * curve.slot_s) for k in range(-2, 3)]
        starts = [s for s, _ in spans]
        ends = [s + d for s, d in spans]
        batch = curve.integral(np.array(starts), np.array(ends))
        scalar = [curve.integral(s, e) for s, e in zip(starts, ends)]
        assert all(type(value) is float for value in scalar)
        assert batch.tolist() == scalar

    def test_fingerprint_is_primitive_and_value_keyed(self):
        a = CarbonIntensityCurve(slots=(1.0, 2.0), period_s=10.0)
        b = CarbonIntensityCurve(slots=(1.0, 2.0), period_s=10.0)
        c = CarbonIntensityCurve(slots=(2.0, 1.0), period_s=10.0)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert all(
            isinstance(part, (str, float)) for part in a.fingerprint()
        )


class TestCostModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="tariff"):
            CostModel(tariff_usd_per_kwh=-0.1)
        with pytest.raises(ConfigurationError, match="carbon"):
            CostModel(carbon_g_per_kwh=-1.0)
        with pytest.raises(ConfigurationError, match="capex"):
            CostModel(capex_usd_per_node_hour={"beefy": -0.5})
        with pytest.raises(ConfigurationError, match="default capex"):
            CostModel(default_capex_usd_per_node_hour=-0.5)
        # non-finite inputs would reach Pareto selection as NaN prices
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="tariff"):
                CostModel(tariff_usd_per_kwh=bad)
            with pytest.raises(ConfigurationError, match="carbon"):
                CostModel(carbon_g_per_kwh=bad)
            with pytest.raises(ConfigurationError, match="capex"):
                CostModel(capex_usd_per_node_hour={"beefy": bad})
            with pytest.raises(ConfigurationError, match="default capex"):
                CostModel(default_capex_usd_per_node_hour=bad)

    def test_capex_mapping_is_canonicalized_hashable_and_comparable(self):
        a = CostModel(capex_usd_per_node_hour={"b": 2.0, "a": 1.0})
        b = CostModel(capex_usd_per_node_hour=(("a", 1.0), ("b", 2.0)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.capex_usd_per_node_hour == (("a", 1.0), ("b", 2.0))

    def test_node_rate_falls_back_to_default(self):
        model = CostModel(
            capex_usd_per_node_hour={"cluster-V": 0.9},
            default_capex_usd_per_node_hour=0.2,
        )
        assert model.node_rate_usd_per_hour("cluster-V") == 0.9
        assert model.node_rate_usd_per_hour("wimpy-laptopB") == 0.2
        assert model.capex_rate_usd_per_hour(candidate(2, 3)) == pytest.approx(
            2 * 0.9 + 3 * 0.2
        )

    def test_price_is_capex_over_time_plus_tariff_over_energy(self):
        model = CostModel(
            tariff_usd_per_kwh=0.12,
            capex_usd_per_node_hour={"cluster-V": 1.0, "wimpy-laptopB": 0.1},
        )
        price = model.price_usd(candidate(2, 3), time_s=1800.0, energy_j=7.2e6)
        assert price == pytest.approx((2 * 1.0 + 3 * 0.1) * 0.5 + 0.12 * 2.0)

    def test_price_is_linear_in_time_and_energy(self):
        model = CostModel(
            tariff_usd_per_kwh=0.3, default_capex_usd_per_node_hour=0.7
        )
        cand = candidate()
        a = model.price_usd(cand, 10.0, 5e5)
        b = model.price_usd(cand, 25.0, 9e5)
        assert model.price_usd(cand, 35.0, 14e5) == pytest.approx(a + b)

    def test_flat_carbon(self):
        model = CostModel(carbon_g_per_kwh=400.0)
        assert not model.time_varying
        assert model.mean_carbon_g_per_kwh == 400.0
        assert model.carbon_g(JOULES_PER_KWH) == pytest.approx(400.0)
        assert model.carbon_g(0.0) == 0.0

    def test_curve_carbon_prices_untimed_energy_at_the_cycle_mean(self):
        curve = CarbonIntensityCurve.diurnal(100.0, 500.0)
        model = CostModel(carbon_g_per_kwh=curve)
        assert model.time_varying
        assert model.mean_carbon_g_per_kwh == pytest.approx(curve.mean)
        assert model.carbon_g(2 * JOULES_PER_KWH) == pytest.approx(
            2 * curve.mean
        )

    def test_timed_carbon_with_flat_grid_reduces_to_energy_pricing(self):
        class Interval:
            def __init__(self, start_s, end_s, cluster_power_w):
                self.start_s = start_s
                self.end_s = end_s
                self.cluster_power_w = cluster_power_w

        model = CostModel(carbon_g_per_kwh=250.0)
        intervals = [Interval(0.0, 10.0, 100.0), Interval(10.0, 40.0, 50.0)]
        energy = 10.0 * 100.0 + 30.0 * 50.0
        assert model.carbon_g_timed(intervals) == pytest.approx(
            model.carbon_g(energy)
        )

    def test_timed_carbon_integrates_the_curve_per_interval(self):
        class Interval:
            def __init__(self, start_s, end_s, cluster_power_w):
                self.start_s = start_s
                self.end_s = end_s
                self.cluster_power_w = cluster_power_w

        curve = CarbonIntensityCurve(slots=(100.0, 500.0), period_s=20.0)
        model = CostModel(carbon_g_per_kwh=curve)
        # 1 kW in the trough slot only: priced at 100, not at the 300 mean
        trough = [Interval(0.0, 10.0, 1000.0)]
        expected = 1000.0 * 100.0 * 10.0 / JOULES_PER_KWH
        assert model.carbon_g_timed(trough) == pytest.approx(expected)
        # the same energy burned in the peak slot costs 5x
        peak = [Interval(10.0, 20.0, 1000.0)]
        assert model.carbon_g_timed(peak) == pytest.approx(5 * expected)

    def test_fingerprint_distinguishes_models_and_is_picklable(self):
        flat = CostModel(tariff_usd_per_kwh=0.1, carbon_g_per_kwh=300.0)
        twin = CostModel(tariff_usd_per_kwh=0.1, carbon_g_per_kwh=300.0)
        curve = CostModel(
            tariff_usd_per_kwh=0.1,
            carbon_g_per_kwh=CarbonIntensityCurve.diurnal(100.0, 500.0),
        )
        capex = CostModel(
            tariff_usd_per_kwh=0.1,
            carbon_g_per_kwh=300.0,
            capex_usd_per_node_hour={"cluster-V": 1.0},
        )
        prints = [m.fingerprint() for m in (flat, curve, capex)]
        assert flat.fingerprint() == twin.fingerprint()
        assert len(set(prints)) == 3
        for model in (flat, curve, capex):
            clone = pickle.loads(pickle.dumps(model))
            assert clone == model
            assert clone.fingerprint() == model.fingerprint()

    def test_zero_model_prices_everything_at_zero(self):
        model = CostModel()
        assert model.price_usd(candidate(), 100.0, 1e6) == 0.0
        assert model.carbon_g(1e6) == 0.0
