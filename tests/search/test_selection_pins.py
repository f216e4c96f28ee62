"""Selection outcomes pinned on seeded point clouds.

Every pick the library makes runs through :func:`~repro.search.best_under`,
:func:`~repro.search.pareto_frontier` or :func:`~repro.search.knee_point`.
This module builds :data:`CLOUDS` seeded clouds — healthy latency
profiles, degraded profiles with some shed queries, prices and carbon,
infeasible records, exact duplicates and ties — and asks each one:

* the least-energy design within a response-time SLA, within a per-query
  latency SLA, and within a degraded latency SLA with and without shed
  queries (every latency metric is covered across the clouds), and the
  fastest design within a dollar budget and within a carbon cap — each
  at a loose and a tight bound;
* the frontier and the knee under the default (time, energy) axes,
  under (time, energy, carbon) and under all four cost axes.

``selection_pins.json`` holds each answer — the picked label(s), or the
exception class — with each question in its ``best_under`` form.  The
answers were recorded with the single-purpose selectors and the classic
two-axis frontier and knee that ``best_under`` and the N-axis
``pareto_frontier`` / ``knee_point`` replaced, so this suite holds the
replacement to the old picks.  Regenerate the fixture only to add
questions, never to make a failing one pass::

    PYTHONPATH=src python -m tests.search.test_selection_pins
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.search import best_under, knee_point, pareto_frontier
from repro.search.evaluators import LatencyProfile
from tests.search.test_objectives import point, random_cloud

FIXTURE = Path(__file__).with_name("selection_pins.json")
SEED = 20261018
CLOUDS = 100
METRICS = ("mean", "p50", "p95", "p99", "max")
AXES = {
    "default": None,
    "carbon": ("time_s", "energy_j", "carbon_g"),
    "cost": ("time_s", "energy_j", "price_usd", "carbon_g"),
}


def _profile(rng):
    # few distinct samples, so designs tie on latency statistics too
    return LatencyProfile.from_samples(
        [rng.choice((0.5, 1.0, 2.0, rng.uniform(0.2, 4.0))) for _ in range(6)]
    )


def build_cloud(index):
    """Cloud ``index``: a :func:`random_cloud` dressed as one search kind."""
    rng = random.Random(SEED + index)
    kind = ("weights", "healthy", "degraded")[index % 3]
    priced = rng.random() < 0.5
    points = random_cloud(rng, rng.randint(1, 30), priced=priced)
    # a noisy convex trade-off curve, so frontiers grow long enough for
    # the chord and simplex knees to choose (not only the EDP fallback)
    for k in range(rng.choice((0, 0, 4, 12))):
        time_s = rng.uniform(0.5, 10.0)
        costs = (
            {"carbon_g": rng.uniform(1.0, 50.0), "price_usd": rng.uniform(0.1, 5.0)}
            if priced
            else {}
        )
        points.append(
            point(f"c{k:03d}", time_s, 100.0 / time_s * rng.uniform(0.9, 1.1), **costs)
        )
    shed_share = rng.choice((0.0, 0.3, 1.0))
    infeasible_share = rng.choice((0.0, 0.0, 0.2, 0.5, 1.0))
    dressed = []
    for p in points:
        if rng.random() < infeasible_share:
            dressed.append(
                replace(
                    p,
                    time_s=float("inf"),
                    energy_j=float("inf"),
                    feasible=False,
                    infeasible_reason="does not fit",
                    carbon_g=None,
                    price_usd=None,
                )
            )
        elif kind == "healthy":
            dressed.append(replace(p, latency=_profile(rng)))
        elif kind == "degraded":
            dressed.append(
                replace(
                    p,
                    degraded_latency=_profile(rng),
                    dropped_jobs=rng.randint(1, 3) if rng.random() < shed_share else 0,
                )
            )
        else:
            dressed.append(p)
    return rng, dressed


def _bounds(rng, values):
    """A loose bound (every value fits) and a tight one (some fit, or none)."""
    if not values:
        return [10.0, 1.0]
    ordered = sorted(values)
    return [ordered[-1], rng.uniform(0.7 * ordered[0], ordered[len(ordered) // 2])]


def questions(index, rng, points):
    """Cloud ``index``'s (limits, minimize) questions, in fixture order."""
    feasible = [p for p in points if p.feasible]
    metric = METRICS[index % len(METRICS)]
    healthy = f"response_{metric}_s"
    degraded = f"degraded_response_{metric}_s"

    def values(name):
        return [
            getattr(p, name) for p in feasible if getattr(p, name) is not None
        ]

    def statistic(field):
        return [getattr(p, field).value(metric) for p in feasible if getattr(p, field)]

    asked = []
    for bound in _bounds(rng, values("time_s")):
        asked.append(({"time_s": bound}, "energy_j"))
    for bound in _bounds(rng, statistic("latency")):
        asked.append(({healthy: bound}, "energy_j"))
    for bound in _bounds(rng, statistic("degraded_latency")):
        asked.append(({degraded: bound, "dropped_jobs": 0}, "energy_j"))
        asked.append(({degraded: bound}, "energy_j"))
    for name in ("price_usd", "carbon_g"):
        for bound in _bounds(rng, values(name)):
            asked.append(({name: bound}, "time_s"))
    return asked


def _outcome(select):
    try:
        picked = select()
    except ReproError as exc:
        return type(exc).__name__
    if isinstance(picked, list):
        return [p.label for p in picked]
    return picked.label


def answer(index):
    """Every pinned answer for cloud ``index``."""
    rng, points = build_cloud(index)
    selections = [
        [limits, minimize, _outcome(lambda: best_under(points, limits, minimize))]
        for limits, minimize in questions(index, rng, points)
    ]
    return {
        "selections": selections,
        "frontiers": {
            name: _outcome(lambda: pareto_frontier(points, objectives=axes))
            for name, axes in AXES.items()
        },
        "knees": {
            name: _outcome(lambda: knee_point(points, objectives=axes))
            for name, axes in AXES.items()
        },
    }


def record():
    return {"seed": SEED, "clouds": [answer(index) for index in range(CLOUDS)]}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cloud(pinned):
    assert pinned["seed"] == SEED
    assert len(pinned["clouds"]) == CLOUDS


def test_pins_exercise_picks_and_refusals(pinned):
    """The clouds must reach every outcome kind, or a pin proves little."""
    outcomes = [o for cloud in pinned["clouds"] for *_, o in cloud["selections"]]
    assert sum(o == "ModelError" for o in outcomes) > len(outcomes) // 10
    assert sum(o != "ModelError" for o in outcomes) > len(outcomes) // 3
    asked = {
        (tuple(sorted(limits)), minimize)
        for cloud in pinned["clouds"]
        for limits, minimize, _ in cloud["selections"]
    }
    for metric in METRICS:
        assert ((f"response_{metric}_s",), "energy_j") in asked
        assert ((f"degraded_response_{metric}_s", "dropped_jobs"), "energy_j") in asked
        assert ((f"degraded_response_{metric}_s",), "energy_j") in asked
    knees = {name: set() for name in AXES}
    for cloud in pinned["clouds"]:
        for name, label in cloud["knees"].items():
            knees[name].add(label == "ModelError")
    assert all(kinds == {True, False} for kinds in knees.values())


@pytest.mark.parametrize("index", range(0, CLOUDS, 10))
def test_answers_match_the_pins(pinned, index):
    for offset in range(10):
        cloud = index + offset
        want = pinned["clouds"][cloud]
        got = json.loads(json.dumps(answer(cloud)))
        assert got["frontiers"] == want["frontiers"], f"cloud {cloud}"
        assert got["knees"] == want["knees"], f"cloud {cloud}"
        for got_case, want_case in zip(got["selections"], want["selections"]):
            assert got_case == want_case, f"cloud {cloud}"
        assert len(got["selections"]) == len(want["selections"])


if __name__ == "__main__":
    clouds = ",\n  ".join(json.dumps(cloud) for cloud in record()["clouds"])
    FIXTURE.write_text(f'{{"seed": {SEED}, "clouds": [\n  {clouds}\n]}}\n')
    print(f"wrote {FIXTURE}")
