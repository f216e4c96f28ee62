"""One benchmark sample: a fresh interpreter that sets up, times, and checks.

``run.py`` launches this script once per sample and reads the JSON object
it prints as its last stdout line.  In order, the process

1. imports the library, builds the workload's inputs from the seed and
   runs one untimed warm-up campaign on a tiny slice -- ``setup_s`` is
   the time from the runner's launch timestamp to the end of this step;
2. runs cold campaigns (fresh engine and cache each time) while half of
   one more of average length fits in ``--campaign-seconds`` (at least
   one);
3. re-sweeps the last campaign through its filled cache at least
   ``WARM_PASSES`` times and for at least ``WARM_SECONDS``;
4. reads peak resident memory, then runs the correctness checks.

With ``--traced`` the layer wrappers are installed before the warm-up and
one cold campaign plus one warm pass run inside a telemetry capture.
With ``--setup-only`` the process stops after step 1 and reports only its
set-up times: a fresh interpreter is the only way to time imports again.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy  # noqa: E402

import campaigns  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
from repro.search import EvaluationCache  # noqa: E402
from repro.telemetry import capture  # noqa: E402

WARM_PASSES = 20
WARM_SECONDS = 0.2
#: sqlite files of the persistent-cache workload live here, inside the checkout
TMP_ROOT = HERE / ".tmp"


def cold_campaign(workload, workdir: Path, index: int):
    """One campaign on a fresh engine and cache; (wall s, results, cache, path)."""
    path = workdir / f"cold-{index}.sqlite" if workload.persistent else None
    cache = EvaluationCache(path)
    start = time.perf_counter()
    with workload.engine(cache) as engine:
        results = campaigns.sweep(engine, workload.searches)
    return time.perf_counter() - start, results, cache, path


def warm_pass(workload, cache, path):
    """Re-sweep through a filled cache; a persistent one is re-opened from
    its file by a fresh engine, as a new process would."""
    start = time.perf_counter()
    if path is not None:
        cache = EvaluationCache(path)
    try:
        with workload.engine(cache) as engine:
            results = campaigns.sweep(engine, workload.searches)
    finally:
        if path is not None:
            cache.close()
    return time.perf_counter() - start, results


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child (pool workers)."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def views(results) -> list:
    return [[checks.record_view(p) for p in r.points] for r in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="sample number (oracle picks)")
    parser.add_argument("--launched", type=float, default=STARTED,
                        help="time.monotonic() when the runner launched this process")
    parser.add_argument("--campaign-seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    imported = time.monotonic()

    workload = campaigns.build(args.workload, args.seed, toy=args.toy)
    built = time.monotonic()
    if args.traced:
        layers.install()
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        workdir = Path(tmp)
        warmup_path = workdir / "warmup.sqlite" if workload.persistent else None
        warmup_cache = EvaluationCache(warmup_path)
        with workload.engine(warmup_cache) as engine:
            campaigns.sweep(engine, workload.warmup_searches())
        warmup_cache.close()
        ready = time.monotonic()
        setup = {
            "setup_s": ready - args.launched,
            "setup": {
                "import_s": imported - args.launched,
                "inputs_s": built - imported,
                "warmup_s": ready - built,
            },
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        colds, warms, layer_values, failures = [], [], None, []
        if args.traced:
            with capture() as telemetry:
                wall, results, cache, path = cold_campaign(workload, workdir, 0)
                warms.append(warm_pass(workload, cache, path)[0])
            colds.append(wall)
            layer_values = layers.layer_metrics(telemetry.snapshot(), workload.entries())
        else:
            expected = cache = None
            # start another campaign while half of an average one still fits
            while not colds or sum(colds) * (1 + 0.5 / len(colds)) <= args.campaign_seconds:
                if cache is not None:
                    # release the previous campaign so peak memory is one campaign's
                    cache.close()
                    results = cache = None
                wall, results, cache, path = cold_campaign(workload, workdir, len(colds))
                colds.append(wall)
                current = views(results)
                if expected is None:
                    expected = current
                elif current != expected:
                    failures.append("a repeated cold campaign returned different records")
            while len(warms) < WARM_PASSES or sum(warms) < WARM_SECONDS:
                wall, warm_results = warm_pass(workload, cache, path)
                warms.append(wall)
            if views(warm_results) != expected:
                failures.append("a warm re-sweep returned different records")
        rss = peak_rss_mb()
        cache.close()

        if args.write_golden:
            print(f"wrote {checks.write_golden(workload, results)}", file=sys.stderr)
        failures += checks.check_invariants(workload, results)
        failures += checks.check_oracle(
            workload, results, random.Random(args.seed * 1009 + args.index)
        )
        if args.seed == campaigns.DEFAULT_SEED and not args.toy:
            failures += checks.check_golden(workload, results)

    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "traced": args.traced,
        "candidates": workload.candidates,
        **setup,
        "cold_s": colds,
        "warm_s": median(warms),
        "warm_passes": len(warms),
        "candidates_per_s": [workload.candidates / wall for wall in colds],
        "warm_candidates_per_s": workload.candidates / median(warms),
        "peak_rss_mb": rss,
        "attempted": workload.candidates,
        "failures": failures,
        "layers": layer_values,
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
