"""The TCO cost model: dollars and grams of CO₂ per evaluation.

A :class:`CostModel` prices one evaluated design in the two currencies
the paper's Section 1 motivation reaches past joules for:

* **price_usd** — per-node-type capex amortization (``$/node·h``, keyed
  by :class:`~repro.hardware.node.NodeSpec` name) over the evaluation's
  wall time, plus the energy tariff (``$/kWh``) over its energy;
* **carbon_g** — grid carbon intensity (``gCO₂/kWh``), either flat or a
  :class:`~repro.costmodel.carbon.CarbonIntensityCurve` integrated
  exactly against a timed run's piecewise-constant cluster power — the
  serial simulator's recorded intervals (:meth:`CostModel.carbon_g_timed`)
  or, step by step, the multiplexed loop's lanes, with bit-identical
  results — so a diurnal gating policy earns its true time-of-day carbon
  credit.

Both are *annotations*: attaching a cost model to an evaluator (or a
:class:`~repro.study.Study` via ``with_cost_model``) never changes the
time/energy arithmetic of a record — with no model configured every
record stays bit-identical to the pre-cost behaviour, cost fields
``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.costmodel.carbon import CarbonIntensityCurve
from repro.errors import ConfigurationError

__all__ = ["CostModel", "JOULES_PER_KWH"]

#: one kilowatt-hour in joules — the tariff/intensity unit bridge
JOULES_PER_KWH = 3.6e6


def _finite_non_negative(value: float) -> bool:
    # NaN fails every comparison, so a bare ``< 0`` check lets it through
    return math.isfinite(value) and value >= 0


@dataclass(frozen=True)
class CostModel:
    """Prices (time, energy) outcomes in dollars and grams of CO₂.

    ``capex_usd_per_node_hour`` maps node-spec names to amortized $/h
    rates (a mapping is accepted and canonicalized to a sorted tuple so
    the model stays hashable and cache-fingerprintable); node types
    absent from it fall back to ``default_capex_usd_per_node_hour``.
    ``carbon_g_per_kwh`` is a flat float or a
    :class:`CarbonIntensityCurve`; weights-only evaluations — which have
    no timeline — price carbon at the curve's cycle mean, timed
    evaluations integrate the curve exactly.
    """

    tariff_usd_per_kwh: float = 0.0
    carbon_g_per_kwh: float | CarbonIntensityCurve = 0.0
    capex_usd_per_node_hour: tuple[tuple[str, float], ...] | Mapping[str, float] = ()
    default_capex_usd_per_node_hour: float = 0.0
    _rates: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        rates = self.capex_usd_per_node_hour
        if isinstance(rates, Mapping):
            items = rates.items()
        else:
            items = tuple(rates)
        canonical = tuple(sorted((str(name), float(rate)) for name, rate in items))
        object.__setattr__(self, "capex_usd_per_node_hour", canonical)
        object.__setattr__(self, "_rates", dict(canonical))
        if not _finite_non_negative(self.tariff_usd_per_kwh):
            raise ConfigurationError(
                "energy tariff must be finite and non-negative: "
                f"{self.tariff_usd_per_kwh}"
            )
        if not _finite_non_negative(self.default_capex_usd_per_node_hour):
            raise ConfigurationError(
                "default capex rate must be finite and non-negative: "
                f"{self.default_capex_usd_per_node_hour}"
            )
        if not all(_finite_non_negative(rate) for _, rate in canonical):
            raise ConfigurationError(
                f"capex rates must be finite and non-negative: {canonical}"
            )
        if not isinstance(
            self.carbon_g_per_kwh, CarbonIntensityCurve
        ) and not _finite_non_negative(self.carbon_g_per_kwh):
            raise ConfigurationError(
                "carbon intensity must be finite and non-negative: "
                f"{self.carbon_g_per_kwh}"
            )

    # ------------------------------------------------------------- structure
    @property
    def time_varying(self) -> bool:
        """Whether carbon pricing needs a timeline (a curve, not a flat)."""
        return isinstance(self.carbon_g_per_kwh, CarbonIntensityCurve)

    @property
    def mean_carbon_g_per_kwh(self) -> float:
        """Flat intensity, or the curve's time-weighted cycle mean."""
        if isinstance(self.carbon_g_per_kwh, CarbonIntensityCurve):
            return self.carbon_g_per_kwh.mean
        return self.carbon_g_per_kwh

    def node_rate_usd_per_hour(self, spec_name: str) -> float:
        """Amortized capex $/h of one node of the named spec."""
        return self._rates.get(spec_name, self.default_capex_usd_per_node_hour)

    def capex_rate_usd_per_hour(self, candidate) -> float:
        """Amortized capex $/h of one candidate's whole cluster."""
        return candidate.num_beefy * self.node_rate_usd_per_hour(
            candidate.beefy.name
        ) + candidate.num_wimpy * self.node_rate_usd_per_hour(candidate.wimpy.name)

    # --------------------------------------------------------------- pricing
    def price_usd(self, candidate, time_s: float, energy_j: float) -> float:
        """Dollars of one evaluation: capex over wall time + tariff.

        Linear in (time, energy), so weight-summing per-entry prices
        equals pricing the weight-summed totals — the aggregation rule
        suites rely on.
        """
        return (
            self.capex_rate_usd_per_hour(candidate) * time_s / 3600.0
            + self.tariff_usd_per_kwh * energy_j / JOULES_PER_KWH
        )

    def carbon_g(self, energy_j: float) -> float:
        """Grams of CO₂ for an energy total with no timeline.

        Flat grids price exactly; a time-of-day curve prices at its
        cycle mean (the unbiased stand-in when nothing says *when* the
        energy was drawn — timed evaluations use :meth:`carbon_g_timed`).
        """
        return energy_j / JOULES_PER_KWH * self.mean_carbon_g_per_kwh

    def carbon_g_timed(self, intervals: Iterable) -> float:
        """Exact grams of CO₂ for a piecewise-constant power timeline.

        ``intervals`` expose ``start_s`` / ``end_s`` / ``cluster_power_w``
        (the simulator's :class:`~repro.simulator.engine.Interval`); each
        stretch's constant power multiplies the curve's exact time
        integral, so energy shifted into the trough by a gating policy is
        credited at trough intensity, not at the mean.
        """
        curve = self.carbon_g_per_kwh
        if not isinstance(curve, CarbonIntensityCurve):
            return self.carbon_g(
                sum(i.cluster_power_w * (i.end_s - i.start_s) for i in intervals)
            )
        total = 0.0
        for interval in intervals:
            total += (
                interval.cluster_power_w
                * curve.integral(interval.start_s, interval.end_s)
                / JOULES_PER_KWH
            )
        return total

    # --------------------------------------------------------------- caching
    def fingerprint(self) -> tuple:
        """Value identity for evaluation-cache keys.

        Primitives only (persistable across processes and runs): two
        models priced differently must never alias one cached record, so
        evaluators append this to their own fingerprints when a model is
        attached.
        """
        carbon = (
            self.carbon_g_per_kwh.fingerprint()
            if isinstance(self.carbon_g_per_kwh, CarbonIntensityCurve)
            else self.carbon_g_per_kwh
        )
        return (
            "costmodel",
            self.tariff_usd_per_kwh,
            carbon,
            self.capex_usd_per_node_hour,
            self.default_capex_usd_per_node_hour,
        )
