"""The design-search benchmark: six campaigns, end-to-end and per layer.

    python benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--json OUT]

For each workload (all six by default) the runner launches
:data:`PROCESSES` sample processes one after another -- each a fresh
interpreter running ``sample.py`` -- and gives each an equal share of what
remains of ``--seconds`` for cold campaigns.  After each it launches one
set-up-only process, so ``setup_s`` is a median over twice as many
fresh interpreters.  It then prints every end-to-end metric, and
``failed_share``, with its unit, median, quartiles and sample count.
``--trace 1`` adds one traced process per workload and reports the
per-layer metrics instead; without ``--trace`` both are reported.  The
last stdout line is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``, with metric names prefixed by the workload when
more than one workload ran.  ``--seconds`` defaults to ``run_seconds``
and is the same on every run that is to be compared.

Every sample checks its records (golden files, oracle replay,
invariants; see ``checks.py``).  The command exits 1 when any check
failed and 2 when a sample could not run at all.  ``--write-golden``
regenerates ``golden/`` at the default seed instead of measuring.
Metric and workload declarations live in the repository's
``BENCHMARK.json``; ``README.md`` explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SAMPLE = HERE / "sample.py"
DEFAULT_SEED = 11
#: fresh-interpreter samples per workload; peak_rss_mb and
#: warm_candidates_per_s are medians over these, setup_s over these and
#: as many set-up-only processes
PROCESSES = 5
#: share of the run's seconds given to cold campaigns; set-up, warm
#: re-sweeps and checks take the rest
CAMPAIGN_SHARE = 0.8
SAMPLE_TIMEOUT_S = 120
#: single-threaded native libraries and a fixed hash seed in every sample
SAMPLE_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class SampleError(RuntimeError):
    """A sample process crashed, timed out, or printed no result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_sample(workload: str, seed: int, index: int, *, campaign_seconds=0.0,
               setup_only=False, traced=False, toy=False, write_golden=False) -> dict:
    command = [
        sys.executable, str(SAMPLE), "--workload", workload, "--seed", str(seed),
        "--index", str(index), "--campaign-seconds", f"{campaign_seconds:.3f}",
    ]
    command += ["--setup-only"] * setup_only + ["--traced"] * traced
    command += ["--toy"] * toy + ["--write-golden"] * write_golden
    command += ["--launched", repr(time.monotonic())]
    # its own session, so the sample's pool workers can be killed with it
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, **SAMPLE_ENV}, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=SAMPLE_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SampleError(f"{workload} sample timed out after {SAMPLE_TIMEOUT_S} s") from None
        raise
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SampleError(f"{workload} sample exited {process.returncode}:\n{stderr[-2000:]}")
    sys.stderr.write(stderr)
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def failed(sample: dict) -> int:
    """Candidate records of one sample that failed a check."""
    return min(len(sample["failures"]), sample["attempted"])


def run_workload(name: str, seed: int, seconds: float, traced: bool, toy: bool) -> dict:
    """Untraced samples (and optionally one traced one) of one workload."""
    processes = 1 if toy else PROCESSES
    deadline = time.monotonic() + seconds
    samples, setups = [], []
    for index in range(processes):
        budget = 0.0 if toy else (
            max(0.0, deadline - time.monotonic()) * CAMPAIGN_SHARE / (processes - index)
        )
        samples.append(run_sample(name, seed, index, campaign_seconds=budget, toy=toy))
        setups += [samples[-1], run_sample(name, seed, index, setup_only=True, toy=toy)]
    colds = [wall for s in samples for wall in s["cold_s"]]
    result = {
        "metrics": {
            "setup_s": summary([s["setup_s"] for s in setups]),
            "candidates_per_s": summary([v for s in samples for v in s["candidates_per_s"]]),
            "warm_candidates_per_s": summary([s["warm_candidates_per_s"] for s in samples]),
            "peak_rss_mb": summary([s["peak_rss_mb"] for s in samples]),
        },
        "samples": samples,
    }
    if traced:
        tracer = run_sample(name, seed, processes, traced=True, toy=toy)
        layers = dict(tracer["layers"])
        for part in ("import_s", "inputs_s", "warmup_s"):
            layers[f"setup.{part}"] = statistics.median(s["setup"][part] for s in setups)
        layers["trace.overhead"] = tracer["cold_s"][0] / statistics.median(colds) - 1.0
        result["layers"] = layers
        samples.append(tracer)
    result["metrics"]["failed_share"] = summary([failed(s) / s["attempted"] for s in samples])
    result["attempted"] = sum(s["attempted"] for s in samples)
    result["failures"] = [f for s in samples for f in s["failures"]]
    result["failed"] = sum(failed(s) for s in samples)
    return result


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git tree."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}


def print_report(name: str, result: dict, spec: dict) -> None:
    # failed_share is always 0 when all is well, so it has no relative
    # bound and is not declared with the end-to-end metrics
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"failed_share": "fraction"}
    print(f"\n{name}  attempted {result['attempted']}, failed {result['failed']}")
    for metric, stats in result["metrics"].items():
        print(
            f"  {metric:<24} {stats['median']:>14.6g} {units[metric]:<8}"
            f" IQR [{stats['q1']:.6g}, {stats['q3']:.6g}]  n={stats['n']}"
        )
    for metric, value in result.get("layers", {}).items():
        print(f"    {metric:<30} {value:>14.6g}")
    for failure in result["failures"][:10]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="wall time of one workload's untraced samples "
                             "(default: run_seconds; compare only runs that agree on it)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="report only end-to-end (0) or per-layer (1) metrics")
    parser.add_argument("--json", help="write the full results here")
    parser.add_argument("--toy", action="store_true",
                        help="one sample on tiny grids (the smoke test)")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"regenerate golden/ at seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    selected = [args.workload] if args.workload else names
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    try:
        if args.write_golden:
            if args.seed != DEFAULT_SEED or args.toy:
                parser.error(f"golden files are written at --seed {DEFAULT_SEED}, full size")
            failures = [
                f"{name}: {failure}"
                for index, name in enumerate(selected)
                for failure in run_sample(name, args.seed, index, write_golden=True)["failures"]
            ]
            for failure in failures:
                print(f"FAILED: {failure}", file=sys.stderr)
            return 1 if failures else 0

        cpus = nproc()
        env = {
            "nproc": cpus,
            "load_1m_start": os.getloadavg()[0],
            "python": platform.python_version(),
            **git_state(),
        }
        if env["load_1m_start"] > cpus - 0.5:
            print(f"warning: 1-minute load {env['load_1m_start']:.2f} is above "
                  f"nproc - 0.5 = {cpus - 0.5}; timings will be noisy", file=sys.stderr)
        traced = args.trace != 0
        results = {
            name: run_workload(name, args.seed, args.seconds, traced, args.toy)
            for name in selected
        }
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    env["load_1m_end"] = os.getloadavg()[0]
    env["numpy"] = results[selected[0]]["samples"][0]["numpy"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = sum(result["failed"] for result in results.values())
    line = {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": {},
    }
    for name, result in results.items():
        print_report(name, result, spec)
        prefix = f"{name}." if len(results) > 1 else ""
        values = {}
        if args.trace != 1:
            values.update({m["name"]: result["metrics"][m["name"]]["median"]
                           for m in spec["end_to_end"]})
        if args.trace != 0:
            values.update({m["name"]: result["layers"][m["name"]] for m in spec["per_layer"]})
        for metric, value in values.items():
            line["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    print(f"\nenvironment: {json.dumps(env)}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "toy": args.toy, "env": env,
             "workloads": results}, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
