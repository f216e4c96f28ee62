"""Max-min fair rate allocation (progressive filling).

Given flows with fixed per-resource demand coefficients and resources with
finite capacities, the allocator raises every flow's rate at the same pace
until some resource saturates, freezes the flows crossing it, and repeats.
The result is the classic max-min fair allocation used to model TCP-like
bandwidth sharing — appropriate here because P-store's exchange operator
runs one TCP stream per (sender, receiver) pair and the paper observed
near-fair sharing on its 1 Gb/s switch.

A flow's *rate* is expressed in "reference units"/s (we use pre-filter MB of
the scanned partition); its usage of resource ``r`` is ``rate * coef(f, r)``.
This lets a single flow model a scan -> filter -> partition -> send pipeline
whose network demand is ``selectivity * (N-1)/N`` of its scan rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "max_min_fair_rates",
    "max_min_fair_allocation",
    "AllocationSystem",
    "max_min_fair_rates_batch",
    "max_min_fair_rates_flat",
]

_EPSILON = 1e-12


def max_min_fair_rates(
    demands: Sequence[Mapping[str, float]],
    capacities: Mapping[str, float],
) -> list[float]:
    """Max-min fair rates only (see :func:`max_min_fair_allocation`)."""
    rates, _bindings = max_min_fair_allocation(demands, capacities)
    return rates


def max_min_fair_allocation(
    demands: Sequence[Mapping[str, float]],
    capacities: Mapping[str, float],
) -> tuple[list[float], list[str]]:
    """Compute max-min fair rates for ``demands`` under ``capacities``.

    Parameters
    ----------
    demands:
        One mapping per flow: resource name -> demand coefficient (> 0).
        Resources absent from the mapping are not used by the flow.
    capacities:
        Resource name -> capacity.  Every resource referenced by a flow
        must be present.

    Returns
    -------
    ``(rates, bindings)``, both parallel to ``demands``.  ``bindings[i]``
    names the saturated resource that froze flow ``i`` — its bottleneck in
    the Section 4.1 sense (a flow's rate cannot rise without exceeding that
    resource's capacity).

    Raises
    ------
    SimulationError
        If a flow references an unknown resource, has a non-positive
        coefficient, or has no demands at all (its rate would be unbounded).
    """
    for i, demand in enumerate(demands):
        if not demand:
            raise SimulationError(f"flow #{i} has no resource demands; rate is unbounded")
        for resource, coef in demand.items():
            if resource not in capacities:
                raise SimulationError(f"flow #{i} references unknown resource {resource!r}")
            if coef <= 0 or math.isnan(coef):
                raise SimulationError(
                    f"flow #{i} has invalid coefficient {coef} on {resource!r}"
                )

    rates = [0.0] * len(demands)
    bindings = [""] * len(demands)
    if not demands:
        return rates, bindings

    residual = dict(capacities)
    unfrozen = set(range(len(demands)))

    while unfrozen:
        # Aggregate demand of unfrozen flows per resource.
        load: dict[str, float] = {}
        for i in unfrozen:
            for resource, coef in demands[i].items():
                load[resource] = load.get(resource, 0.0) + coef

        # Largest common rate increment before some resource saturates.
        delta = math.inf
        for resource, total in load.items():
            delta = min(delta, max(0.0, residual[resource]) / total)
        if math.isinf(delta):  # pragma: no cover - guarded by validation above
            raise SimulationError("no loaded resources for unfrozen flows")

        for i in unfrozen:
            rates[i] += delta
        for resource, total in load.items():
            residual[resource] -= delta * total

        saturated = {
            resource
            for resource in load
            if residual[resource] <= _EPSILON * max(1.0, capacities[resource])
        }
        newly_frozen = {
            i for i in unfrozen if any(r in saturated for r in demands[i])
        }
        if not newly_frozen:
            # delta > 0 but nothing saturated can only happen through float
            # rounding; freeze everything to guarantee termination.
            if delta <= _EPSILON:
                newly_frozen = set(unfrozen)
            else:  # pragma: no cover - defensive
                raise SimulationError("progressive filling failed to converge")
        for i in newly_frozen:
            frozen_by = sorted(r for r in demands[i] if r in saturated)
            if frozen_by:
                # the flow's heaviest saturated resource is its bottleneck
                bindings[i] = max(frozen_by, key=lambda r: demands[i][r])
            else:  # rounding fallback: blame the most-utilized resource
                bindings[i] = max(
                    demands[i],
                    key=lambda r: demands[i][r] / max(capacities[r], _EPSILON),
                )
        unfrozen -= newly_frozen

    return rates, bindings


@dataclass(frozen=True)
class AllocationSystem:
    """One lane's (flows x resources) demand system in COO form.

    The arrays list every (flow, resource, coefficient) demand entry in
    *flow-major, demand-insertion* order — exactly the order the scalar
    allocator's ``load`` dict accumulates in — with flow and resource ids
    local to the lane.  ``capacities`` is indexed by local resource id.
    """

    flow_index: np.ndarray
    resource_index: np.ndarray
    coefficient: np.ndarray
    num_flows: int
    capacities: np.ndarray

    def __post_init__(self) -> None:
        if self.capacities.shape[0] == 0:
            raise SimulationError("allocation system has no resources")


def max_min_fair_rates_batch(
    systems: Sequence[AllocationSystem],
) -> list[np.ndarray]:
    """Progressive filling over many independent lanes at once.

    Each lane is its own cluster: lanes share no resources, so the global
    arrays are block-diagonal and every per-round quantity (aggregate
    load, rate increment, residual decrement, saturation test) is computed
    for all lanes in one vectorized pass.  Per lane, the arithmetic is
    op-for-op the scalar :func:`max_min_fair_allocation` sequence —
    ``np.bincount`` accumulates weights in input order, matching the
    scalar load-dict accumulation, and every update is the same
    elementwise float64 operation — so each lane's rates are bit-identical
    to running it alone through the scalar allocator.  Frozen flows'
    demand entries are compacted away between rounds (an order-preserving
    gather, so accumulation order never changes); a lane that converged
    early simply stops contributing entries while slower lanes finish.

    Demand systems are trusted as constructed (the simulator validates
    jobs against its resource pool before building them); the per-flow
    validation of the scalar allocator is not repeated here.

    Returns one rates array per lane, parallel to ``systems``.  Bindings
    are not computed (the batch path serves interval-free simulation);
    use the scalar allocator when bottleneck attribution is needed.
    """
    n_lanes = len(systems)
    if n_lanes == 0:
        return []

    flow_counts = np.array([s.num_flows for s in systems], dtype=np.int64)
    res_counts = np.array([s.capacities.shape[0] for s in systems], dtype=np.int64)
    flow_offsets = np.zeros(n_lanes + 1, dtype=np.int64)
    np.cumsum(flow_counts, out=flow_offsets[1:])
    res_offsets = np.zeros(n_lanes + 1, dtype=np.int64)
    np.cumsum(res_counts, out=res_offsets[1:])

    entry_flow = np.concatenate(
        [s.flow_index + flow_offsets[i] for i, s in enumerate(systems)]
    )
    entry_res = np.concatenate(
        [s.resource_index + res_offsets[i] for i, s in enumerate(systems)]
    )
    entry_coef = np.concatenate([s.coefficient for s in systems])
    capacities = np.concatenate([s.capacities for s in systems])

    rates = max_min_fair_rates_flat(
        entry_flow,
        entry_res,
        entry_coef,
        np.repeat(np.arange(n_lanes), flow_counts),
        np.repeat(np.arange(n_lanes), res_counts),
        res_offsets,
        capacities,
        _EPSILON * np.maximum(1.0, capacities),
        int(flow_offsets[-1]),
        n_lanes,
    )
    return [
        rates[flow_offsets[i] : flow_offsets[i + 1]] for i in range(n_lanes)
    ]


def max_min_fair_rates_flat(
    entry_flow: np.ndarray,
    entry_res: np.ndarray,
    entry_coef: np.ndarray,
    lane_of_flow: np.ndarray,
    lane_of_res: np.ndarray,
    res_offsets: np.ndarray,
    capacities: np.ndarray,
    sat_threshold: np.ndarray,
    total_flows: int,
    n_lanes: int,
) -> np.ndarray:
    """Progressive filling over pre-concatenated block-diagonal arrays.

    The engine behind :func:`max_min_fair_rates_batch`, exposed for
    callers (the event-multiplexed simulator) that already maintain the
    global entry/capacity arrays and would otherwise re-concatenate them
    on every allocation.  ``entry_flow``/``entry_res`` hold *global* flow
    and resource ids (each lane's block offset already applied), in
    flow-major, demand-insertion order per lane; ``res_offsets`` bounds
    each lane's resource block; ``sat_threshold`` is the per-resource
    saturation cutoff (``_EPSILON * max(1, capacity)``).  Lanes with no
    flows are permitted and ignored.  Returns the flat rates array,
    indexed by global flow id.
    """
    residual = capacities.copy()
    rates = np.zeros(total_flows)
    #: global ids of still-unfrozen flows; the entry arrays below only
    #: hold these flows' demand entries (compacted every round)
    flow_ids = np.arange(total_flows)
    #: per-lane count of unfrozen flows, maintained incrementally
    live_count = np.bincount(lane_of_flow, minlength=n_lanes)
    total_res = capacities.shape[0]

    while flow_ids.size:
        load = np.bincount(entry_res, weights=entry_coef, minlength=total_res)
        touched = load > 0

        ratio = np.full(total_res, np.inf)
        np.divide(np.maximum(residual, 0.0), load, out=ratio, where=touched)
        delta_lane = np.minimum.reduceat(ratio, res_offsets[:-1])

        flow_lanes = lane_of_flow[flow_ids]
        lane_live = live_count > 0
        if np.any(lane_live & ~np.isfinite(delta_lane)):  # pragma: no cover
            raise SimulationError("no loaded resources for unfrozen flows")

        rates[flow_ids] += delta_lane[flow_lanes]
        delta_res = delta_lane[lane_of_res]
        residual[touched] -= delta_res[touched] * load[touched]

        saturated = residual <= sat_threshold
        flow_frozen = np.zeros(total_flows, dtype=bool)
        flow_frozen[entry_flow[saturated[entry_res]]] = True

        newly = flow_frozen[flow_ids]
        frozen_lanes = np.bincount(flow_lanes[newly], minlength=n_lanes) > 0
        stuck = lane_live & ~frozen_lanes
        if stuck.any():
            # delta > 0 but nothing saturated can only happen through
            # float rounding (same fallback as the scalar allocator).
            if np.any(stuck & (delta_lane > _EPSILON)):  # pragma: no cover
                raise SimulationError("progressive filling failed to converge")
            newly |= stuck[flow_lanes]
            flow_frozen[flow_ids[newly]] = True

        live_count = live_count - np.bincount(
            flow_lanes[newly], minlength=n_lanes
        )
        flow_ids = flow_ids[~newly]
        if not flow_ids.size:
            break  # nothing reads the entries again
        entry_keep = ~flow_frozen[entry_flow]
        entry_flow = entry_flow[entry_keep]
        entry_res = entry_res[entry_keep]
        entry_coef = entry_coef[entry_keep]

    return rates
