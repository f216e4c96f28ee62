"""Exact pins of the Section 5.3 model's predictions.

The benchmark's oracle replays candidates through the same
:class:`~repro.core.model.PStoreModel` on both sides of a comparison, and
its golden file compares a strided subset at a relative tolerance, so
neither would notice the model's arithmetic moving by a bit.  This module
replays a cross product of designs and model settings — three Beefy/Wimpy
node pairs, sizes 1 to 32, all-Beefy, mixed and all-Wimpy splits, uniform
and per-type DVFS, warm and cold scans, the strict and the effective
branch condition, and the printed and the calibrated pipeline CPU cost —
over joins that reach every mode and bottleneck, and compares every
:class:`~repro.core.model.Prediction` with ``==`` against
``model_pins.json``: the mode, and per phase its name, time, energy, both
utilizations (floats as ``float.hex``) and bottleneck.  Where the model
raises :class:`~repro.errors.ModelError`, the message is pinned instead.

Distinct phase pins and error messages are stored once and referenced by
index, which keeps the fixture small.  Regenerate it only on purpose, when
a change is *meant* to move the model::

    PYTHONPATH=src python -m tests.core.test_model_pins
"""

import json
from pathlib import Path

import pytest

from repro.core.model import ModelParameters, PStoreModel
from repro.errors import ModelError
from repro.experiments.fig07 import FIG7_CONFIG
from repro.hardware.dvfs import dvfs_variant
from repro.hardware.presets import (
    CLUSTER_V_NODE,
    DESKTOP_ATOM,
    LAPTOP_B,
    WIMPY_LAPTOP_B,
    WORKSTATION_A,
    WORKSTATION_B,
)
from repro.pstore.plans import ExecutionMode
from repro.workloads.queries import q3_join, section54_join

FIXTURE = Path(__file__).with_name("model_pins.json")

#: the (Beefy, Wimpy) node pairs of the model-grid benchmark campaign
PAIRS = (
    (CLUSTER_V_NODE, WIMPY_LAPTOP_B),
    (WORKSTATION_A, LAPTOP_B),
    (WORKSTATION_B, DESKTOP_ATOM),
)
SIZES = (1, 2, 7, 8, 16, 32)
#: (Beefy, Wimpy) frequency factors
DVFS = {"phi1": (1.0, 1.0), "phi0.6": (0.6, 0.6), "phiB0.8": (0.8, 1.0)}
#: the printed equations' cost and the Figure 7-9 calibration
CPU_COSTS = (1.0, FIG7_CONFIG.pipeline_cpu_cost)
#: (join, forced mode) pairs for ``predict``
JOINS = {
    "q3-0.01": (q3_join(100, 0.01, 0.01), None),
    "q3-0.06": (q3_join(100, 0.06, 0.06), None),
    "s54-0.10-0.01": (section54_join(0.10, 0.01), None),
    "s54-0.10-0.10": (section54_join(0.10, 0.10), None),
    "s54-0.10-0.10/homogeneous": (
        section54_join(0.10, 0.10),
        ExecutionMode.HOMOGENEOUS,
    ),
}
BROADCAST = {"q3-0.06": q3_join(100, 0.06, 0.06), "s54-0.10-0.01": section54_join(0.10, 0.01)}
COLUMNS = [*JOINS, *(f"broadcast/{name}" for name in BROADCAST)]


def splits(size):
    """All-Beefy, an even split and all-Wimpy (two splits at size 1)."""
    return sorted({size, size // 2, 0}, reverse=True)


def models():
    """Every (key, model) input, in a fixed order."""
    for beefy, wimpy in PAIRS:
        for size in SIZES:
            for num_beefy in splits(size):
                num_wimpy = size - num_beefy
                for dvfs, (beefy_factor, wimpy_factor) in DVFS.items():
                    params = ModelParameters.from_specs(
                        beefy if beefy_factor == 1.0 else dvfs_variant(beefy, beefy_factor),
                        num_beefy,
                        wimpy if wimpy_factor == 1.0 else dvfs_variant(wimpy, wimpy_factor),
                        num_wimpy,
                    )
                    for warm in (False, True):
                        for strict in (False, True):
                            for cost in CPU_COSTS:
                                key = (
                                    f"{beefy.name}+{wimpy.name}/{num_beefy}B,{num_wimpy}W"
                                    f"/{dvfs}/{'warm' if warm else 'cold'}"
                                    f"/{'strict' if strict else 'effective'}/cost{cost:g}"
                                )
                                yield key, PStoreModel(
                                    params,
                                    warm_cache=warm,
                                    pipeline_cpu_cost=cost,
                                    strict_paper_conditions=strict,
                                )


def _phase(phase):
    return " ".join(
        [
            phase.name,
            *(
                float(value).hex()
                for value in (
                    phase.time_s,
                    phase.energy_j,
                    phase.beefy_utilization,
                    phase.wimpy_utilization,
                )
            ),
            phase.bottleneck,
        ]
    )


def _outcomes(model):
    """One model's outcome per column: a Prediction or the ModelError text."""
    calls = [lambda q=q, mode=mode: model.predict(q, mode=mode) for q, mode in JOINS.values()]
    calls += [lambda q=q: model.predict_broadcast(q) for q in BROADCAST.values()]
    outcomes = []
    for call in calls:
        try:
            outcomes.append(call())
        except ModelError as error:
            outcomes.append(str(error))
    return outcomes


def replay():
    """The fixture's content: distinct phases and errors, and one row per
    model of ``[mode, build index, probe index]`` or ``error index``."""
    phases: dict[str, int] = {}
    errors: dict[str, int] = {}
    rows = {}
    for key, model in models():
        row = []
        for outcome in _outcomes(model):
            if isinstance(outcome, str):
                row.append(errors.setdefault(outcome, len(errors)))
                continue
            row.append(
                [
                    outcome.mode.value,
                    phases.setdefault(_phase(outcome.build), len(phases)),
                    phases.setdefault(_phase(outcome.probe), len(phases)),
                ]
            )
        rows[key] = row
    return {"columns": COLUMNS, "phases": list(phases), "errors": list(errors), "models": rows}


def expand(pins, row):
    """A fixture row with its indices resolved to phase and error text."""
    return [
        pins["errors"][cell]
        if isinstance(cell, int)
        else [cell[0], pins["phases"][cell[1]], pins["phases"][cell[2]]]
        for cell in row
    ]


@pytest.fixture(scope="module")
def replayed():
    return replay()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_input(replayed, pinned):
    assert pinned["columns"] == COLUMNS
    assert list(replayed["models"]) == list(pinned["models"])
    sizes = sum(len(splits(size)) for size in SIZES)
    assert len(pinned["models"]) == len(PAIRS) * sizes * len(DVFS) * 2 * 2 * len(CPU_COSTS)


@pytest.mark.parametrize("pair", [f"{b.name}+{w.name}/" for b, w in PAIRS])
def test_predictions_match_the_pins_exactly(replayed, pinned, pair):
    keys = [key for key in pinned["models"] if key.startswith(pair)]
    assert keys
    for key in keys:
        assert expand(replayed, replayed["models"][key]) == expand(
            pinned, pinned["models"][key]
        ), key


def test_pins_reach_every_mode_bottleneck_and_error(pinned):
    """The fixture only guards what its inputs reach."""
    cells = [cell for row in pinned["models"].values() for cell in row]
    modes = {cell[0] for cell in cells if isinstance(cell, list)}
    assert modes == {mode.value for mode in ExecutionMode}
    bottlenecks = {phase.rsplit(" ", 1)[1] for phase in pinned["phases"]}
    assert bottlenecks == {"disk", "cpu", "network", "ingest"}
    errors = " ".join(pinned["errors"])
    for reason in (
        "homogeneous execution forced",
        "no 2-pass join",
        "heterogeneous execution needs",
        "broadcast needs",
    ):
        assert reason in errors


if __name__ == "__main__":
    content = replay()
    # one entry per line keeps the fixture reviewable as a diff
    lines = ",\n  ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in content["models"].items())
    phases = ",\n  ".join(json.dumps(p) for p in content["phases"])
    FIXTURE.write_text(
        f'{{"columns": {json.dumps(content["columns"])},\n'
        f'"errors": {json.dumps(content["errors"], indent=1)},\n'
        f'"phases": [\n  {phases}\n],\n'
        f'"models": {{\n  {lines}\n}}}}\n'
    )
    print(f"wrote {FIXTURE}")
