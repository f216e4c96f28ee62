"""Grid carbon intensity: flat numbers and time-of-day curves.

The paper's Section 1 motivation — energy as a growing fraction of total
cost — generalizes past joules the moment the grid behind the cluster is
priced: a kWh drawn at 3 a.m. from a wind-heavy grid emits a fraction of
the CO₂ the same kWh emits at the evening peak.  A
:class:`CarbonIntensityCurve` models that as a piecewise-constant
gCO₂/kWh profile repeating over a period (a day, usually), with an exact
closed-form time integral so a diurnal gating policy that shifts energy
into the trough earns its true carbon credit — no sampling error.

A plain ``float`` gCO₂/kWh stands in for a flat grid everywhere a curve
is accepted (:class:`~repro.costmodel.model.CostModel` normalizes the
two cases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["CarbonIntensityCurve"]


@dataclass(frozen=True)
class CarbonIntensityCurve:
    """A repeating piecewise-constant carbon-intensity profile.

    ``slots`` are gCO₂/kWh values covering one ``period_s``-long cycle in
    equal-width steps (24 slots over 86400 s = one value per hour); the
    profile repeats forever in both directions, so simulations longer
    than one period integrate over as many cycles as they span.

    The three accessors are exact, not sampled:

    * :meth:`at` — the intensity in force at an instant;
    * :meth:`integral` — ∫ intensity dt over ``[start_s, end_s]`` in
      g·s/kWh, splitting at slot and period boundaries analytically (one
      stretch, or an array of stretches in one call);
    * :attr:`mean` — the time-weighted cycle average, used wherever an
      evaluation has no timeline to integrate against (weights-only
      records).
    """

    slots: tuple[float, ...]
    period_s: float
    #: the slots as an array, and ``sum(slots[:k])`` for k = 0..len(slots)
    #: added left to right — :meth:`integral`'s lookup tables
    _values: np.ndarray = field(init=False, repr=False, compare=False, hash=False)
    _prefix: np.ndarray = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(float(s) for s in self.slots))
        if not self.slots:
            raise ConfigurationError("a carbon curve needs at least one slot")
        # NaN fails every comparison, so a bare ``< 0`` check lets it through
        if not all(math.isfinite(s) and s >= 0 for s in self.slots):
            raise ConfigurationError(
                f"carbon intensity must be finite and non-negative, got {self.slots}"
            )
        if not (self.period_s > 0 and math.isfinite(self.period_s)):
            raise ConfigurationError(
                "carbon curve period must be a finite number of seconds > 0, "
                f"got {self.period_s}"
            )
        prefix = [0.0]
        for s in self.slots:
            prefix.append(prefix[-1] + s)
        object.__setattr__(self, "_values", np.array(self.slots))
        object.__setattr__(self, "_prefix", np.array(prefix))

    @classmethod
    def diurnal(
        cls,
        trough_g_per_kwh: float,
        peak_g_per_kwh: float,
        period_s: float = 86400.0,
        slots: int = 24,
        phase: float = 0.0,
    ) -> "CarbonIntensityCurve":
        """A sinusoidal day: trough at t=0 (+``phase`` cycles), peak half
        a period later — the canonical wind-at-night / gas-peaker shape."""
        if slots < 1:
            raise ConfigurationError(f"slots must be >= 1, got {slots}")
        mid = (trough_g_per_kwh + peak_g_per_kwh) / 2.0
        amplitude = (peak_g_per_kwh - trough_g_per_kwh) / 2.0
        values = tuple(
            mid - amplitude * math.cos(2.0 * math.pi * ((k + 0.5) / slots + phase))
            for k in range(slots)
        )
        return cls(slots=values, period_s=period_s)

    @property
    def slot_s(self) -> float:
        """Width of one slot in seconds."""
        return self.period_s / len(self.slots)

    @property
    def mean(self) -> float:
        """Time-weighted cycle-average intensity (slots are equal-width)."""
        return sum(self.slots) / len(self.slots)

    def at(self, time_s: float) -> float:
        """The intensity in force at an instant (right-open slots)."""
        offset = time_s % self.period_s
        index = min(int(offset / self.slot_s), len(self.slots) - 1)
        return self.slots[index]

    def _cumulative(self, offset_s: np.ndarray) -> np.ndarray:
        """∫₀^offset intensity dt for offsets inside a single period."""
        width = self.slot_s
        # truncation, not floor: rounding can leave an offset a hair below 0
        index = np.minimum((offset_s / width).astype(np.int64), len(self.slots) - 1)
        return self._prefix[index] * width + self._values[index] * (
            offset_s - index * width
        )

    def integral(self, start_s, end_s):
        """Exact ∫ intensity dt over ``[start_s, end_s]`` (g·s/kWh).

        Multiplying by a constant power in W and dividing by J-per-kWh
        gives grams of CO₂ for the stretch; an empty or inverted range
        integrates to zero.  Floats give a float; equal-shape arrays give
        one integral per element, each bit-identical to the scalar call
        (the serial pricer integrates one interval at a time, the
        multiplexed loop one step of every lane at once).
        """
        start = np.asarray(start_s, dtype=np.float64)
        end = np.asarray(end_s, dtype=np.float64)
        cycle = self._prefix[-1] * self.slot_s
        start_cycles = np.floor(start / self.period_s)
        end_cycles = np.floor(end / self.period_s)
        value = np.where(
            end > start,
            (end_cycles - start_cycles) * cycle
            + self._cumulative(end - end_cycles * self.period_s)
            - self._cumulative(start - start_cycles * self.period_s),
            0.0,
        )
        return value if value.ndim else float(value)

    def fingerprint(self) -> tuple:
        """Value identity for cache keys (primitives only, persistable)."""
        return ("carbon-curve", self.period_s, *self.slots)
