"""The benchmark harness's contract with the library.

``benchmarks/perf`` changes only with the benchmark itself, yet it reaches
into the library by name: ``layers.TARGETS`` wraps module and class
attributes, and ``checks.selections`` calls the knee and the two latency
SLA selectors to pin its golden picks.  Renaming or removing any of them
breaks the benchmark without failing a test here, so this module loads
the harness (without ``layers.install()``, which patches globals) and
exercises those names the way the benchmark does, at toy size.

It also runs the harness's own oracle and invariant checks on the toy
fault and carbon campaigns, so a batch route that stops matching serial
replay fails here, not only in the full benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.search import EvaluationCache
from repro.search.evaluators import evaluate_timed_design

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perf_{name}", PERF / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


campaigns = _load("campaigns")
checks = _load("checks")
layers = _load("layers")


def test_every_traced_target_resolves_to_a_callable():
    for owner, attribute, span in layers.TARGETS:
        assert callable(getattr(owner, attribute, None)), (owner, attribute, span)


@pytest.mark.parametrize("name", ["trace-healthy", "trace-faults"])
def test_golden_selections_run_on_a_toy_campaign(name):
    workload = campaigns.build(name, campaigns.DEFAULT_SEED, toy=True)
    with workload.engine(EvaluationCache()) as engine:
        results = campaigns.sweep(engine, workload.searches)
    for result in results:
        picks = checks.selections(result)
        labels = {point.label for point in result.points}
        assert picks["knee"] in labels
        assert picks["sla_pick"] in labels


@pytest.mark.parametrize("name", ["trace-faults", "trace-carbon"])
def test_toy_campaign_passes_the_oracle_and_invariant_checks(name):
    """Every record equals its one-at-a-time serial replay, field by field
    as ``checks._oracle_view`` compares them, and breaks no invariant."""
    workload = campaigns.build(name, campaigns.DEFAULT_SEED, toy=True)
    with workload.engine(EvaluationCache()) as engine:
        results = campaigns.sweep(engine, workload.searches)
    for (candidates, target), result in zip(workload.searches, results):
        assert len(result.points) == len(candidates) == 7
        for candidate, point in zip(candidates, result.points):
            oracle = evaluate_timed_design(workload.evaluator, candidate, target)
            assert checks._oracle_view(point) == checks._oracle_view(oracle)
            if name == "trace-faults":
                assert point.retried_jobs >= 1
    assert checks.check_invariants(workload, results) == []
