"""Selection over evaluated design points: objectives, frontier, knee, picks.

The paper answers its design questions with two rules over a (time,
energy) point cloud: the knee of the trade-off curve (Figure 11's
bottleneck flip), and "the least-energy design still meeting a
performance target" (Section 6).  Real provisioning decisions add
dollars, grams of CO₂ and per-query latency, so both rules read any
declared axis:

* an :class:`Objective` names one axis — where on an
  :class:`~repro.search.evaluators.EvaluatedDesign` the value lives and
  which direction is better; a registry maps the well-known names:
  ``time_s``, ``energy_j``, ``edp``, ``price_usd`` and ``carbon_g``
  (cost-model-priced records), ``response_{mean,p50,p95,p99,max}_s``
  (timed-trace evaluations), their ``degraded_response_*_s``
  counterparts and ``dropped_jobs`` (fault-injected evaluations);
* :func:`pareto_frontier` — the feasible designs no other design
  dominates under an objective list (default ``("time_s",
  "energy_j")``), in lexicographic objective order;
* :func:`knee_point` — the frontier point farthest from the endpoint
  chord (the simplex through the per-axis minimizers beyond two axes);
* :func:`edp_optimal` — the minimum energy-delay-product design;
* :func:`best_under` — the feasible design minimizing one objective
  (energy by default) among those meeting upper bounds on others: a
  response-time SLA, a p99 latency target, a dollar budget, a carbon
  cap, or any mix of them.

Every rule breaks ties deterministically — on time, then energy, then
label — so repeated sweeps, serial or parallel, pick the same design.
Selecting on an axis no feasible point carries is a
:class:`~repro.errors.ModelError` naming the configuration that
produces it, never a silent empty result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, ModelError
from repro.search.evaluators import EvaluatedDesign

__all__ = [
    "DEFAULT_OBJECTIVES",
    "Objective",
    "best_under",
    "best_under_degraded_sla",
    "best_under_latency_sla",
    "dominates",
    "edp_optimal",
    "knee_point",
    "objective_vector",
    "pareto_frontier",
    "register_objective",
    "resolve_objectives",
]


@dataclass(frozen=True)
class Objective:
    """One selection axis: a name, an accessor, and a direction.

    ``accessor`` maps an :class:`EvaluatedDesign` to the raw value (by
    default ``getattr(point, name)``); ``direction`` is ``"min"`` or
    ``"max"`` — maximized axes are negated internally so dominance and
    distances always work in minimized coordinates.  ``missing_hint``
    completes the error message raised when a feasible point lacks the
    value (``None``), pointing at the configuration that produces it.
    """

    name: str
    accessor: Callable[[EvaluatedDesign], float | None] | None = None
    direction: str = "min"
    missing_hint: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ConfigurationError(
                f"objective {self.name!r} direction must be 'min' or 'max', "
                f"got {self.direction!r}"
            )

    def raw_value(self, point: EvaluatedDesign) -> float | None:
        if self.accessor is not None:
            return self.accessor(point)
        return getattr(point, self.name, None)

    def value(self, point: EvaluatedDesign) -> float:
        """The minimized-coordinate value; ``None`` is a named error."""
        raw = self.raw_value(point)
        if raw is None:
            raise ModelError(
                f"design point {point.label!r} carries no {self.name!r} "
                f"value{self._hint()}"
            )
        return -raw if self.direction == "max" else raw

    def _hint(self) -> str:
        return f" ({self.missing_hint})" if self.missing_hint else ""


#: the registered well-known axes, by name
_REGISTRY: dict[str, Objective] = {}


def register_objective(objective: Objective, overwrite: bool = False) -> Objective:
    """Add an objective to the by-name registry (used by string specs)."""
    if not overwrite and objective.name in _REGISTRY:
        raise ConfigurationError(
            f"objective {objective.name!r} is already registered; pass "
            "overwrite=True to replace it"
        )
    _REGISTRY[objective.name] = objective
    return objective


_COST_HINT = (
    "attach a CostModel — Study.with_cost_model(...) or an evaluator's "
    "cost_model= — so evaluations are priced"
)
_TIMED_HINT = (
    "response times need a latency profile: evaluate a timed trace "
    "(TimedTrace) through a stream-capable evaluator"
)
_FAULTED_HINT = (
    "degraded response times need a degraded latency profile: evaluate a "
    "fault-injected trace (TimedTrace.with_faults) through a "
    "stream-capable evaluator"
)


def _profile_statistic(field: str, metric: str):
    def statistic(point: EvaluatedDesign) -> float | None:
        profile = getattr(point, field)
        return None if profile is None else profile.value(metric)

    return statistic


register_objective(Objective("time_s"))
register_objective(Objective("energy_j"))
register_objective(Objective("edp"))
register_objective(Objective("price_usd", missing_hint=_COST_HINT))
register_objective(Objective("carbon_g", missing_hint=_COST_HINT))
for _metric in ("mean", "p50", "p95", "p99", "max"):
    for _prefix, _field, _hint in (
        ("response", "latency", _TIMED_HINT),
        ("degraded_response", "degraded_latency", _FAULTED_HINT),
    ):
        register_objective(
            Objective(
                f"{_prefix}_{_metric}_s",
                accessor=_profile_statistic(_field, _metric),
                missing_hint=_hint,
            )
        )
register_objective(Objective("dropped_jobs", missing_hint=_FAULTED_HINT))

#: the classic paper configuration every default code path uses
DEFAULT_OBJECTIVES: tuple[str, str] = ("time_s", "energy_j")


def _resolve_objective(spec: str | Objective) -> Objective:
    """One axis: a registered name, or an :class:`Objective` as given."""
    if isinstance(spec, Objective):
        return spec
    objective = _REGISTRY.get(spec)
    if objective is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown objective {spec!r} (registered: {known}; or pass "
            "an Objective instance)"
        )
    return objective


def resolve_objectives(
    spec: Sequence[str | Objective] | None,
) -> tuple[Objective, ...]:
    """Normalize an objective spec to concrete :class:`Objective` axes.

    ``None`` means the classic (time, energy) pair; strings resolve
    through the registry; :class:`Objective` instances pass through.  At
    least two distinct axes are required — a one-axis "frontier" is just
    a minimum and should be taken directly.
    """
    resolved = tuple(
        _resolve_objective(item)
        for item in (DEFAULT_OBJECTIVES if spec is None else spec)
    )
    names = [objective.name for objective in resolved]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate objectives in {names}")
    if len(resolved) < 2:
        raise ConfigurationError(
            "need at least two objectives to trade off; got "
            f"{names or 'none'}"
        )
    return resolved


def objective_vector(
    point: EvaluatedDesign, objectives: Sequence[Objective]
) -> tuple[float, ...]:
    """One point's minimized-coordinate objective vector."""
    return tuple([objective.value(point) for objective in objectives])


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether vector ``a`` dominates ``b`` (minimized coordinates):
    no worse on every axis, strictly better on at least one."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def _feasible(points: Sequence[EvaluatedDesign]) -> list[EvaluatedDesign]:
    return [p for p in points if p.feasible]


def pareto_frontier(
    points: Sequence[EvaluatedDesign],
    objectives: Sequence[str | Objective] | None = None,
) -> list[EvaluatedDesign]:
    """Non-dominated feasible points, sorted by objective vector.

    A point dominates another when it is no worse on every axis and
    strictly better on at least one.  The result is in lexicographic
    vector order, ties by label — for the default (time, energy) axes,
    ascending response time.  Exact duplicate vectors keep only their
    **first representative by label order**, so the frontier stays a
    function of the design space, not of enumeration order.

    The sort orders the first axis and makes duplicates adjacent, so a
    kept vector no worse on the remaining axes dominates the candidate.
    With two axes that check is a running minimum of the second.
    """
    objs = resolve_objectives(objectives)
    feasible = _feasible(points)
    # column by column, then transposed: cheaper than objective_vector per point
    vectors = zip(*[[o.value(p) for p in feasible] for o in objs])
    decorated = sorted(
        zip(vectors, [p.label for p in feasible], range(len(feasible)))
    )
    frontier: list[EvaluatedDesign] = []
    tails: list[tuple[float, ...]] = []
    lowest = float("inf")
    previous: tuple[float, ...] | None = None
    for vector, _, index in decorated:
        if vector == previous:
            continue  # exact duplicate: the min-label representative won
        previous = vector
        tail = vector[1:]
        if len(tail) == 1:
            if not tail[0] < lowest:  # a NaN never lowers the minimum
                continue
            lowest = tail[0]
        elif any(all(k <= t for k, t in zip(kept, tail)) for kept in tails):
            continue
        frontier.append(feasible[index])
        tails.append(tail)
    return frontier


def edp_optimal(points: Sequence[EvaluatedDesign]) -> EvaluatedDesign:
    """The minimum energy-delay-product design."""
    feasible = _feasible(points)
    if not feasible:
        raise ModelError("no feasible design to pick an EDP optimum from")
    return min(feasible, key=lambda p: (p.edp, p.time_s, p.label))


def knee_point(
    points: Sequence[EvaluatedDesign],
    objectives: Sequence[str | Objective] | None = None,
) -> EvaluatedDesign:
    """The frontier point farthest from the endpoint chord (or simplex).

    Every axis is normalized to [0, 1] over the frontier's span so
    seconds, joules and dollars weigh equally.  With two objectives the
    knee is the frontier point of maximum perpendicular distance from
    the chord between the frontier's ends; beyond two, from the
    hyperplane through the per-axis minimizers.  Degenerate frontiers
    (no more points than axes, a zero-span axis, or a singular endpoint
    simplex) fall back to the EDP optimum.
    """
    objs = resolve_objectives(objectives)
    frontier = pareto_frontier(points, objs)
    if not frontier:
        raise ModelError("no feasible design to locate a knee on")
    if len(frontier) <= len(objs):
        return edp_optimal(frontier)
    vectors = [objective_vector(p, objs) for p in frontier]
    lows = [min(v[i] for v in vectors) for i in range(len(objs))]
    highs = [max(v[i] for v in vectors) for i in range(len(objs))]
    spans = [high - low for low, high in zip(lows, highs)]
    if any(span <= 0 for span in spans):
        return edp_optimal(frontier)
    normalized = [
        tuple((v[i] - lows[i]) / spans[i] for i in range(len(objs)))
        for v in vectors
    ]
    if len(objs) == 2:
        return _knee_2d(frontier, normalized)
    return _knee_simplex(frontier, normalized)


def _knee_2d(
    frontier: Sequence[EvaluatedDesign],
    normalized: Sequence[tuple[float, ...]],
) -> EvaluatedDesign:
    """Max perpendicular distance from the chord between the sort ends.

    The frontier is monotone under two objectives (first axis ascending,
    second descending), so the lexicographic ends are exactly the
    per-axis minimizers.
    """
    x0, y0 = normalized[0]
    x1, y1 = normalized[-1]
    dx, dy = x1 - x0, y1 - y0
    length = (dx * dx + dy * dy) ** 0.5
    best, best_distance = frontier[0], -1.0
    for point, (x, y) in zip(frontier, normalized):
        distance = abs(dx * (y0 - y) - (x0 - x) * dy) / length
        if distance > best_distance:
            best, best_distance = point, distance
    return best


def _knee_simplex(
    frontier: Sequence[EvaluatedDesign],
    normalized: Sequence[tuple[float, ...]],
) -> EvaluatedDesign:
    """Max distance from the hyperplane through the per-axis minimizers."""
    dims = len(normalized[0])
    endpoints = []
    for axis in range(dims):
        index = min(
            range(len(frontier)),
            key=lambda i: (normalized[i][axis], normalized[i], frontier[i].label),
        )
        endpoints.append(normalized[index])
    matrix = np.array(endpoints, dtype=float)
    try:
        # the hyperplane a·x = 1 through the N endpoints
        coeffs = np.linalg.solve(matrix, np.ones(dims))
    except np.linalg.LinAlgError:
        return edp_optimal(frontier)  # coincident/degenerate endpoints
    norm = float(np.linalg.norm(coeffs))
    if norm <= 0 or not np.isfinite(norm):
        return edp_optimal(frontier)
    best, best_distance = frontier[0], -1.0
    for point, vector in zip(frontier, normalized):
        distance = abs(float(np.dot(coeffs, vector)) - 1.0) / norm
        if distance > best_distance:
            best, best_distance = point, distance
    return best


def best_under(
    points: Sequence[EvaluatedDesign],
    limits: Mapping[str | Objective, float],
    minimize: str | Objective = "energy_j",
) -> EvaluatedDesign:
    """The feasible design minimizing ``minimize`` within ``limits``.

    Section 6's rule — fix an acceptable cost on some axes, then take
    the best design on another.  ``limits`` maps objective names (or
    :class:`Objective` instances) to inclusive upper bounds on the raw
    value: ``{"time_s": 30.0}`` is a response-time SLA,
    ``{"response_p99_s": 2.0}`` a per-query latency target on timed
    records, ``{"degraded_response_p99_s": 2.0, "dropped_jobs": 0}`` the
    same target under fault injection with no shed queries, and
    ``{"price_usd": 5.0}`` with ``minimize="time_s"`` the fastest design
    within a budget.

    A point is eligible when it is feasible, carries a value for every
    limited objective, and meets every bound.  Ties resolve to the
    faster design, then the lower-energy one, then label order.  Raises
    :class:`ModelError` for a negative or NaN bound, when no feasible
    point carries a limited objective (naming what produces it), and
    when nothing is eligible.
    """
    target = _resolve_objective(minimize)
    bounds = [(_resolve_objective(spec), bound) for spec, bound in limits.items()]
    for objective, bound in bounds:
        if not bound >= 0:  # NaN fails this comparison too
            raise ModelError(
                f"limit on {objective.name!r} must be >= 0, got {bound}"
            )
    feasible = _feasible(points)
    eligible = feasible
    for objective, bound in bounds:
        if feasible and all(objective.raw_value(p) is None for p in feasible):
            raise ModelError(
                f"no feasible design point carries a {objective.name!r} "
                f"value{objective._hint()}"
            )
        eligible = [
            p for p in eligible
            if (value := objective.raw_value(p)) is not None and value <= bound
        ]
    if not eligible:
        described = ", ".join(f"{o.name} <= {bound:g}" for o, bound in bounds)
        raise ModelError(f"no feasible design meets the limits {described or '(none)'}")
    return min(
        eligible, key=lambda p: (target.value(p), p.time_s, p.energy_j, p.label)
    )


def best_under_latency_sla(
    points: Sequence[EvaluatedDesign], max_response_s: float, metric: str = "max"
) -> EvaluatedDesign:
    """Minimum-energy design whose ``metric`` response time meets the SLA."""
    return best_under(points, {f"response_{metric}_s": max_response_s})


def best_under_degraded_sla(
    points: Sequence[EvaluatedDesign],
    max_response_s: float,
    metric: str = "max",
    allow_drops: bool = False,
) -> EvaluatedDesign:
    """Minimum-energy design meeting the SLA under fault injection,
    shedding no queries unless ``allow_drops``."""
    return best_under(
        points,
        {f"degraded_response_{metric}_s": max_response_s}
        | ({} if allow_drops else {"dropped_jobs": 0}),
    )
