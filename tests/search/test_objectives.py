"""Objective registry, N-dimensional selection, and 2-objective parity.

The property tests pin the compatibility contract: under the default
``("time_s", "energy_j")`` configuration the N-axis frontier and knee must
reproduce the classic sweep/chord selections *exactly* on random point
sets (the classic code is kept below as the reference), an added
objective can only grow the frontier, never shrink it, and
:func:`best_under` must equal the plain minimum over the designs that
meet every limit.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.costmodel import CostModel
from repro.errors import ConfigurationError, ModelError
from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search.evaluators import EvaluatedDesign
from repro.search.grid import DesignCandidate
from repro.search.evaluators import LatencyProfile
from repro.search.pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    best_under,
    dominates,
    knee_point,
    objective_vector,
    pareto_frontier,
    register_objective,
    resolve_objectives,
)


def point(label, time_s, energy_j, feasible=True, carbon_g=None, price_usd=None):
    candidate = DesignCandidate(
        label=label, beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
        num_beefy=1, num_wimpy=1,
    )
    return EvaluatedDesign(
        candidate=candidate,
        time_s=time_s,
        energy_j=energy_j,
        feasible=feasible,
        infeasible_reason="" if feasible else "does not fit",
        carbon_g=carbon_g,
        price_usd=price_usd,
    )


def random_cloud(rng, n, priced=False, duplicate_fraction=0.3):
    """A random point set with deliberate exact duplicates and ties."""
    points = []
    for k in range(n):
        time_s = rng.choice([1.0, 2.0, 3.0, 5.0, rng.uniform(0.5, 10.0)])
        energy_j = rng.choice([10.0, 25.0, 40.0, rng.uniform(5.0, 100.0)])
        kwargs = {}
        if priced:
            kwargs = {
                "carbon_g": rng.uniform(1.0, 50.0),
                "price_usd": rng.uniform(0.1, 5.0),
            }
        points.append(point(f"p{k:03d}", time_s, energy_j, **kwargs))
    for k in range(int(n * duplicate_fraction)):
        twin = rng.choice(points)
        points.append(replace(twin, candidate=replace(
            twin.candidate, label=f"d{k:03d}")))
    rng.shuffle(points)
    return points


def classic_frontier(points):
    """The classic two-axis sweep: the reference the N-axis frontier must
    reproduce under the default axes."""
    feasible = [p for p in points if p.feasible]
    ordered = sorted(feasible, key=lambda p: (p.time_s, p.energy_j, p.label))
    frontier = []
    best_energy = float("inf")
    previous = None
    for p in ordered:
        pair = (p.time_s, p.energy_j)
        if pair == previous:
            continue  # exact duplicate: the min-label representative won
        previous = pair
        if p.energy_j < best_energy:
            frontier.append(p)
            best_energy = p.energy_j
    return frontier


def classic_knee(points):
    """The classic chord knee over :func:`classic_frontier`."""
    frontier = classic_frontier(points)
    if not frontier:
        raise ModelError("no feasible design to locate a knee on")

    def edp_rule():
        return min(frontier, key=lambda p: (p.edp, p.time_s, p.label))

    if len(frontier) < 3:
        return edp_rule()
    t_low, t_high = frontier[0].time_s, frontier[-1].time_s
    e_low = min(p.energy_j for p in frontier)
    e_high = max(p.energy_j for p in frontier)
    t_span = t_high - t_low
    e_span = e_high - e_low
    if t_span <= 0 or e_span <= 0:
        return edp_rule()

    def normalized(p):
        return (p.time_s - t_low) / t_span, (p.energy_j - e_low) / e_span

    x0, y0 = normalized(frontier[0])
    x1, y1 = normalized(frontier[-1])
    dx, dy = x1 - x0, y1 - y0
    length = (dx * dx + dy * dy) ** 0.5
    best, best_distance = frontier[0], -1.0
    for p in frontier:
        x, y = normalized(p)
        distance = abs(dx * (y0 - y) - (x0 - x) * dy) / length
        if distance > best_distance:
            best, best_distance = p, distance
    return best


def labels(points):
    return [p.label for p in points]


class TestObjective:
    def test_direction_validated(self):
        with pytest.raises(ConfigurationError, match="direction"):
            Objective("time_s", direction="sideways")

    def test_max_direction_negates(self):
        throughput = Objective(
            "throughput", accessor=lambda p: 1.0 / p.time_s, direction="max"
        )
        p = point("a", 4.0, 1.0)
        assert throughput.raw_value(p) == 0.25
        assert throughput.value(p) == -0.25

    def test_missing_value_is_a_named_error_with_hint(self):
        unpriced = point("a", 1.0, 1.0)
        with pytest.raises(ModelError, match="CostModel"):
            resolve_objectives(("time_s", "price_usd"))[1].value(unpriced)

    def test_registry_rejects_silent_overwrite(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_objective(Objective("time_s"))

    def test_resolve_validation(self):
        assert [o.name for o in resolve_objectives(None)] == list(
            DEFAULT_OBJECTIVES
        )
        with pytest.raises(ConfigurationError, match="unknown objective"):
            resolve_objectives(("time_s", "dollars"))
        with pytest.raises(ConfigurationError, match="duplicate"):
            resolve_objectives(("time_s", "time_s"))
        with pytest.raises(ConfigurationError, match="at least two"):
            resolve_objectives(("time_s",))


class TestDominance:
    def test_componentwise_rules(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))  # equal: no strict axis
        assert not dominates((1.0, 3.0), (2.0, 2.0))  # incomparable
        assert not dominates((2.0, 2.0), (1.0, 1.0))

    def test_extra_axis_can_break_dominance(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((1.0, 1.0, 9.0), (2.0, 2.0, 1.0))


class TestTwoObjectiveParity:
    """pareto_frontier/knee_point under the default axes == the classic code."""

    def test_frontier_matches_legacy_on_random_clouds(self):
        rng = random.Random(42)
        for trial in range(50):
            points = random_cloud(rng, rng.randint(1, 40))
            legacy = labels(classic_frontier(points))
            assert labels(pareto_frontier(points)) == legacy, (
                f"trial {trial}: frontier diverged"
            )
            routed = pareto_frontier(points, objectives=DEFAULT_OBJECTIVES)
            assert labels(routed) == legacy

    def test_nan_energy_never_lowers_the_running_minimum(self):
        points = [
            point("a", 1.0, 1.0), point("b", 2.0, math.nan),
            point("c", 3.0, 5.0), point("d", 4.0, 3.0),
        ]
        assert labels(classic_frontier(points)) == ["a"]
        for order in (points, points[::-1], points[1:] + points[:1]):
            assert labels(pareto_frontier(order)) == ["a"]

    def test_frontier_matches_legacy_on_clouds_with_nan_values(self):
        rng = random.Random(2024)
        for trial in range(200):
            points = random_cloud(rng, rng.randint(1, 30))
            for k in rng.sample(range(len(points)), min(len(points), rng.randint(1, 3))):
                axis = rng.choice(("energy_j", "energy_j", "time_s"))
                points[k] = replace(points[k], **{axis: math.nan})
            assert labels(pareto_frontier(points)) == labels(
                classic_frontier(points)
            ), f"trial {trial}: frontier diverged"

    def test_knee_matches_legacy_on_random_clouds(self):
        rng = random.Random(1337)
        for trial in range(50):
            points = random_cloud(rng, rng.randint(1, 40))
            assert knee_point(points, DEFAULT_OBJECTIVES).label == (
                classic_knee(points).label
            ), f"trial {trial}: knee diverged"


class TestFrontierProperties:
    def test_exact_duplicates_keep_first_label(self):
        rng = random.Random(5)
        for _ in range(30):
            points = random_cloud(rng, rng.randint(2, 30), duplicate_fraction=1.0)
            by_vector = {}
            for p in points:
                if p.feasible:
                    by_vector.setdefault((p.time_s, p.energy_j), []).append(p.label)
            for p in pareto_frontier(points, DEFAULT_OBJECTIVES):
                assert p.label == min(by_vector[(p.time_s, p.energy_j)])

    def test_adding_an_objective_never_shrinks_the_frontier(self):
        """Label-for-label inclusion, for clouds where cost is a function
        of (time, energy) — as it is for every CostModel-priced record,
        where price/carbon derive linearly from the base axes."""
        rng = random.Random(77)
        for trial in range(30):
            points = [
                replace(
                    p,
                    carbon_g=2.0 * p.energy_j + 1.0,
                    price_usd=0.5 * p.time_s + 0.01 * p.energy_j,
                )
                for p in random_cloud(rng, rng.randint(1, 30))
            ]
            base = {p.label for p in pareto_frontier(points, DEFAULT_OBJECTIVES)}
            for extra in (
                ("time_s", "energy_j", "price_usd"),
                ("time_s", "energy_j", "carbon_g"),
                ("time_s", "energy_j", "price_usd", "carbon_g"),
            ):
                wider = {p.label for p in pareto_frontier(points, extra)}
                assert base <= wider, (
                    f"trial {trial}: {extra} dropped {base - wider}"
                )

    def test_adding_an_objective_keeps_every_base_vector(self):
        """With arbitrary (even decorrelated) extra-axis values, the 2-D
        dedupe representative may lose to a same-(time, energy) twin with
        lower cost — but every base frontier *vector* stays represented."""
        rng = random.Random(78)
        for trial in range(30):
            points = random_cloud(rng, rng.randint(1, 30), priced=True)
            base = {
                (p.time_s, p.energy_j)
                for p in pareto_frontier(points, DEFAULT_OBJECTIVES)
            }
            wider = {
                (p.time_s, p.energy_j)
                for p in pareto_frontier(
                    points, ("time_s", "energy_j", "carbon_g")
                )
            }
            assert base <= wider, f"trial {trial}: dropped {base - wider}"

    def test_frontier_points_are_mutually_non_dominated(self):
        rng = random.Random(21)
        objs = resolve_objectives(("time_s", "energy_j", "price_usd"))
        for _ in range(20):
            points = random_cloud(rng, rng.randint(1, 25), priced=True)
            frontier = pareto_frontier(points, objs)
            vectors = [objective_vector(p, objs) for p in frontier]
            for i, a in enumerate(vectors):
                for j, b in enumerate(vectors):
                    if i != j:
                        assert not dominates(a, b)
            # every excluded feasible point is dominated or a duplicate
            kept = set(vectors)
            for p in points:
                if p.feasible and p not in frontier:
                    v = objective_vector(p, objs)
                    assert v in kept or any(
                        dominates(w, v) for w in vectors
                    )

    def test_matches_brute_force_dominance(self):
        """The contract, checked pairwise: every non-dominated vector once,
        by its first label, in lexicographic vector order."""
        rng = random.Random(99)
        for axes in (
            DEFAULT_OBJECTIVES,
            ("time_s", "energy_j", "carbon_g"),
            ("time_s", "energy_j", "price_usd", "carbon_g"),
        ):
            objs = resolve_objectives(axes)
            for trial in range(40):
                points = random_cloud(rng, rng.randint(1, 30), priced=True)
                vector = {p.label: objective_vector(p, objs) for p in points}
                want = sorted(
                    (vector[p.label], p.label)
                    for p in points
                    if not any(dominates(v, vector[p.label]) for v in vector.values())
                    and p.label == min(
                        q.label for q in points if vector[q.label] == vector[p.label]
                    )
                )
                assert labels(pareto_frontier(points, axes)) == [
                    label for _, label in want
                ], (axes, trial)

    def test_infeasible_and_empty(self):
        assert pareto_frontier([], ("time_s", "energy_j", "carbon_g")) == []
        dead = [point("x", 1.0, 1.0, feasible=False, carbon_g=1.0)]
        assert pareto_frontier(dead, ("time_s", "energy_j", "carbon_g")) == []


class TestKneeNd:
    """The simplex knee beyond two axes."""

    def test_three_objective_knee_finds_the_elbow(self):
        # one point close to ideal on all three axes, plus axis extremes
        points = [
            point("t-end", 1.0, 100.0, carbon_g=100.0, price_usd=100.0),
            point("e-end", 100.0, 1.0, carbon_g=100.0, price_usd=100.0),
            point("c-end", 100.0, 100.0, carbon_g=1.0, price_usd=100.0),
            point("elbow", 10.0, 10.0, carbon_g=10.0, price_usd=100.0),
        ]
        knee = knee_point(points, ("time_s", "energy_j", "carbon_g"))
        assert knee.label == "elbow"

    def test_degenerate_frontiers_fall_back_to_edp(self):
        objs = ("time_s", "energy_j", "carbon_g")
        # fewer frontier points than objectives
        few = [
            point("a", 1.0, 9.0, carbon_g=5.0),
            point("b", 9.0, 1.0, carbon_g=5.0),
        ]
        assert knee_point(few, objs).label == knee_point(few).label
        # a zero-span axis (all carbon equal) degenerates too
        flat = [
            point("a", 1.0, 9.0, carbon_g=5.0),
            point("b", 3.0, 3.0, carbon_g=5.0),
            point("c", 9.0, 1.0, carbon_g=5.0),
            point("d", 2.0, 5.0, carbon_g=5.0),
        ]
        edp_best = min(
            pareto_frontier(flat), key=lambda p: (p.edp, p.time_s, p.label)
        )
        assert knee_point(flat, objs).label == edp_best.label

    def test_no_feasible_point_raises(self):
        with pytest.raises(ModelError, match="no feasible"):
            knee_point([point("x", 1.0, 1.0, feasible=False)], None)

    def test_knee_is_deterministic_under_shuffling(self):
        rng = random.Random(3)
        points = random_cloud(rng, 25, priced=True)
        objs = ("time_s", "energy_j", "price_usd")
        first = knee_point(points, objs).label
        for _ in range(5):
            rng.shuffle(points)
            assert knee_point(points, objs).label == first


class TestBudgetSelectors:
    """``best_under`` with a price or carbon cap, minimizing time."""

    def priced_points(self):
        return [
            point("cheap-slow", 10.0, 50.0, carbon_g=20.0, price_usd=1.0),
            point("mid", 5.0, 60.0, carbon_g=40.0, price_usd=2.0),
            point("fast-dear", 2.0, 90.0, carbon_g=80.0, price_usd=5.0),
        ]

    def fastest(self, points, cap):
        return best_under(points, cap, minimize="time_s")

    def test_price_limit_picks_fastest_that_fits(self):
        points = self.priced_points()
        assert self.fastest(points, {"price_usd": 10.0}).label == "fast-dear"
        assert self.fastest(points, {"price_usd": 2.5}).label == "mid"
        assert self.fastest(points, {"price_usd": 1.0}).label == "cheap-slow"

    def test_carbon_limit_picks_fastest_that_fits(self):
        points = self.priced_points()
        assert self.fastest(points, {"carbon_g": 100.0}).label == "fast-dear"
        assert self.fastest(points, {"carbon_g": 50.0}).label == "mid"

    def test_caps_validated(self):
        for bad in (float("nan"), -1.0):
            with pytest.raises(ModelError, match="'price_usd' must be >= 0"):
                self.fastest(self.priced_points(), {"price_usd": bad})
            with pytest.raises(ModelError, match="'carbon_g' must be >= 0"):
                self.fastest(self.priced_points(), {"carbon_g": bad})

    def test_nothing_fits_is_a_named_error(self):
        with pytest.raises(ModelError, match="price_usd <= 0.5"):
            self.fastest(self.priced_points(), {"price_usd": 0.5})
        with pytest.raises(ModelError, match="carbon_g <= 10"):
            self.fastest(self.priced_points(), {"carbon_g": 10.0})

    def test_unpriced_points_name_the_missing_cost_model(self):
        bare = [point("a", 1.0, 1.0)]
        with pytest.raises(ModelError, match="CostModel"):
            self.fastest(bare, {"price_usd": 10.0})
        with pytest.raises(ModelError, match="CostModel"):
            self.fastest(bare, {"carbon_g": 10.0})

    def test_infeasible_points_never_win(self):
        points = self.priced_points() + [
            point("broken", 0.1, 1.0, feasible=False, carbon_g=0.1, price_usd=0.1)
        ]
        assert self.fastest(points, {"price_usd": 10.0}).label == "fast-dear"

    def test_ties_on_time_resolve_by_energy_then_label(self):
        points = [
            point("z", 2.0, 30.0, price_usd=1.0, carbon_g=1.0),
            point("a", 2.0, 30.0, price_usd=1.0, carbon_g=1.0),
            point("hungrier", 2.0, 40.0, price_usd=1.0, carbon_g=1.0),
        ]
        assert self.fastest(points, {"price_usd": 5.0}).label == "a"
        assert self.fastest(points, {"carbon_g": 5.0}).label == "a"


LIMITABLE = (
    "time_s",
    "energy_j",
    "edp",
    "price_usd",
    "carbon_g",
    "response_p99_s",
    "response_max_s",
    "degraded_response_p95_s",
    "dropped_jobs",
)
MINIMIZABLE = ("energy_j", "time_s", "carbon_g", "edp")


def raw(point, name):
    """An objective's raw value, read without the registry's accessors."""
    for prefix, profile in (
        ("degraded_response_", point.degraded_latency),
        ("response_", point.latency),
    ):
        if name.startswith(prefix):
            return None if profile is None else getattr(profile, name[len(prefix):])
    return getattr(point, name)


def dressed_cloud(rng):
    """A priced random cloud whose points carry healthy or degraded
    latency profiles (or neither), with some infeasible records."""
    points = []
    for p in random_cloud(rng, rng.randint(1, 25), priced=True):
        roll = rng.random()
        samples = [rng.choice((0.5, 1.0, rng.uniform(0.2, 3.0))) for _ in range(4)]
        if roll < 0.15:
            p = replace(p, feasible=False, time_s=math.inf, energy_j=math.inf,
                        carbon_g=None, price_usd=None)
        elif roll < 0.5:
            p = replace(p, latency=LatencyProfile.from_samples(samples))
        elif roll < 0.8:
            p = replace(p, degraded_latency=LatencyProfile.from_samples(samples),
                        dropped_jobs=rng.choice((0, 0, 1)))
        points.append(p)
    return points


class TestBestUnder:
    def test_matches_the_eligible_minimum_on_random_limits(self):
        """Any limit set — including ones no single-purpose selector could
        express, such as p99 latency together with a budget — picks
        ``min(eligible, key=(value, time_s, energy_j, label))``, and
        refuses exactly when nothing is eligible."""
        rng = random.Random(2026)
        for trial in range(300):
            points = dressed_cloud(rng)
            feasible = [p for p in points if p.feasible]
            limits = {}
            for name in rng.sample(LIMITABLE, rng.randint(1, 3)):
                values = [v for p in feasible if (v := raw(p, name)) is not None]
                limits[name] = rng.choice(values) if values else 1.0
            minimize = rng.choice(MINIMIZABLE)
            # the response-time SLA rides along on every cloud
            sla = rng.uniform(0.5, 12.0)
            for asked, target in ((limits, minimize), ({"time_s": sla}, "energy_j")):
                eligible = [
                    p for p in feasible
                    if all(
                        (v := raw(p, name)) is not None and v <= bound
                        for name, bound in asked.items()
                    )
                ]
                if not eligible:
                    with pytest.raises(ModelError):
                        best_under(points, asked, minimize=target)
                    continue
                oracle = min(
                    eligible,
                    key=lambda p: (raw(p, target), p.time_s, p.energy_j, p.label),
                )
                picked = best_under(points, asked, minimize=target)
                assert picked.label == oracle.label, (trial, asked, target)

    def test_objective_instances_and_names_are_interchangeable(self):
        rng = random.Random(4)
        points = dressed_cloud(rng) + [point("sure", 1.0, 1.0, price_usd=0.1)]
        by_name = best_under(points, {"price_usd": 5.0}, minimize="edp")
        price, edp = resolve_objectives(("price_usd", "edp"))
        assert best_under(points, {price: 5.0}, minimize=edp) is by_name

    def test_bounds_are_validated_per_objective(self):
        points = [point("a", 1.0, 1.0)]
        for bad in (float("nan"), -1.0):
            with pytest.raises(ModelError, match="'time_s' must be >= 0"):
                best_under(points, {"time_s": bad})
        assert best_under(points, {"time_s": math.inf}).label == "a"
        with pytest.raises(ConfigurationError, match="unknown objective"):
            best_under(points, {"dollars": 1.0})
        with pytest.raises(ConfigurationError, match="unknown objective"):
            best_under(points, {"time_s": 1.0}, minimize="dollars")

    def test_missing_objective_names_what_produces_it(self):
        weights_only = [point("a", 1.0, 1.0)]
        with pytest.raises(ModelError, match="TimedTrace"):
            best_under(weights_only, {"response_p99_s": 10.0})
        with pytest.raises(ModelError, match="with_faults"):
            best_under(weights_only, {"degraded_response_p99_s": 10.0})
        with pytest.raises(ModelError, match="with_faults"):
            best_under(weights_only, {"dropped_jobs": 0})

    def test_every_limit_is_named_when_nothing_qualifies(self):
        points = [point("a", 2.0, 9.0, price_usd=3.0)]
        with pytest.raises(ModelError, match=r"time_s <= 1, price_usd <= 5"):
            best_under(points, {"time_s": 1.0, "price_usd": 5.0})


class TestCostModelObjectiveIntegration:
    def test_priced_cloud_supports_cost_axes_end_to_end(self):
        model = CostModel(
            tariff_usd_per_kwh=0.2,
            carbon_g_per_kwh=300.0,
            default_capex_usd_per_node_hour=0.5,
        )
        raw = [point(f"p{k}", 1.0 + k, 100.0 - 10.0 * k) for k in range(5)]
        priced = [
            replace(
                p,
                carbon_g=model.carbon_g(p.energy_j),
                price_usd=model.price_usd(p.candidate, p.time_s, p.energy_j),
            )
            for p in raw
        ]
        frontier = pareto_frontier(priced, ("time_s", "price_usd"))
        assert frontier  # non-empty and consistent with the pricing
        for p in frontier:
            assert p.price_usd == pytest.approx(
                model.price_usd(p.candidate, p.time_s, p.energy_j)
            )
