# Developer entry points.  The repo is import-run from src/ (no install
# step), so every target exports PYTHONPATH=src.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint pytest bench bench-json search-demo profile perf perf-pairs perf-turns

# Tier-1 verification: lint (when available) + the unit/integration
# suite (benchmarks are opt-in).
test: lint pytest

pytest:
	$(PYTHON) -m pytest -x -q

# Static checks (ruff, configured in pyproject.toml).  The container may
# not ship ruff; the target degrades to a no-op notice instead of
# failing the test flow.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff to enable)"; \
	fi

# Paper-reproduction + performance benchmarks (regenerates every figure).
bench:
	$(PYTHON) -m pytest benchmarks -q

# Search-engine perf trajectory: times old vs new dispatch on the
# 216-design suite-sweep campaign, plus evaluations-to-knee for the
# adaptive optimizers, plus the timed-trace (stream queueing) campaign,
# the (design x policy) autoscaling campaign, the degraded-mode
# (nemesis fault injection) campaign, and the telemetry overhead gate —
# all recorded for future PRs.
bench-json:
	$(PYTHON) benchmarks/test_query_fanout.py --json BENCH_search.json
	$(PYTHON) benchmarks/test_optimize.py --json BENCH_optimize.json
	$(PYTHON) benchmarks/test_stream.py --json BENCH_stream.json
	$(PYTHON) benchmarks/test_policy.py --json BENCH_policy.json
	$(PYTHON) benchmarks/test_faults.py --json BENCH_faults.json
	$(PYTHON) benchmarks/test_telemetry.py --json BENCH_telemetry.json
	$(PYTHON) benchmarks/test_cost.py --json BENCH_cost.json

# Sweep a 216-point design grid and print its Pareto frontier.
search-demo:
	$(PYTHON) examples/design_space_search.py

# Where does a campaign's wall time go?  Run the reference 216-design
# diurnal campaign with telemetry on and print the stage breakdown.
profile:
	$(PYTHON) examples/telemetry_report.py

# The layered benchmark (six campaigns, end to end and per layer, with
# golden-record, oracle-replay and causality checks) plus its toy-size
# smoke test: the speed and parity gate for simulator changes.
perf:
	$(PYTHON) benchmarks/perf/run.py
	$(PYTHON) -m pytest benchmarks/perf -q

# Alternating parent/change pairs of the layered benchmark, judged by
# compare.py: the evidence a performance claim needs.  PARENT is the
# commit the working tree is compared against; an empty WORKLOAD runs
# all six.  Example: make perf-pairs PARENT=main WORKLOAD=trace-policy
PARENT ?= HEAD
WORKLOAD ?=
PAIRS ?= 10
SEED ?= 11
TURNS ?= 20

perf-pairs:
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) --pairs $(PAIRS) \
		--seed $(SEED) $(if $(WORKLOAD),--workload $(WORKLOAD))

# Turn-taking diagnostic: one long-lived process per tree, alternating
# cold campaigns of one workload (WORKLOAD is required).  Separates the
# code from host drift; perf-pairs stays the gate for a claim.
perf-turns:
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--turns $(TURNS) --seed $(SEED)
