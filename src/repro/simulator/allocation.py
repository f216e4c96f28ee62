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
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "max_min_fair_rates",
    "max_min_fair_allocation",
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
    """Progressive filling over many independent lanes at once.

    Each lane is its own cluster: lanes share no resources, so the
    arrays are block-diagonal and every per-round quantity (aggregate
    load, rate increment, residual decrement, saturation test) is
    computed for all lanes in one vectorized pass.  ``entry_flow`` and
    ``entry_res`` hold *global* flow and resource ids (each lane's block
    offset already applied), in flow-major, demand-insertion order per
    lane; ``res_offsets`` bounds each lane's resource block;
    ``sat_threshold`` is the per-resource saturation cutoff
    (``_EPSILON * max(1, capacity)``).  Lanes with no flows are permitted
    and ignored.  Returns the flat rates array, indexed by global flow
    id.  Bindings are not computed (this path serves interval-free
    simulation); use the scalar allocator when bottleneck attribution is
    needed.

    Per lane, the arithmetic is op-for-op the scalar
    :func:`max_min_fair_allocation` sequence: ``np.bincount`` accumulates
    weights in input order, matching the scalar load-dict accumulation,
    and every update is the same elementwise float64 operation.  Frozen
    flows' demand entries are compacted away between rounds (an
    order-preserving gather, so accumulation order never changes); a lane
    that converged early simply stops contributing entries while slower
    lanes finish.  A lane's increment, residuals and freezes are computed
    from its own entries and its own block alone, so each lane's rates
    are bit-identical to running it alone through the scalar allocator,
    and a call over any subset of the lanes — blocks compacted and lanes
    renumbered, each lane's entries in the same order — gives those lanes
    the same bits.  The multiplexed loop's allocation memo relies on
    this.

    Demand systems are trusted as constructed (the simulator validates
    jobs against its resource pool before building them); the per-flow
    validation of the scalar allocator is not repeated here.
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
