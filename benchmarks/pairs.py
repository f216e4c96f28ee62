"""Alternating parent/change benchmark pairs, judged by ``compare.py``.

    python benchmarks/pairs.py --parent REV [--workload NAME] [--pairs N]
                               [--seed S]
    python benchmarks/pairs.py --parent REV --workload NAME --turns N
                               [--seed S]

A performance claim needs at least ten alternating pairs of runs of the
parent commit and the change (``benchmarks/perf/README.md``).  This
script checks ``REV`` out into a temporary ``git worktree``, copies this
checkout's ``benchmarks/perf/`` and ``BENCHMARK.json`` over it so both
sides run the same harness, and then runs

    benchmarks/perf/run.py [--workload NAME] --seed S --trace 0 --json FILE

``--pairs`` times in each tree: the parent first in odd pairs, this
checkout (the change, uncommitted edits included) first in even pairs.
The result files land in ``benchmarks/.pairs/<workload>-s<seed>/`` (git
ignores it); the script then hands them to ``compare.py``, prints its
table, and exits with its status.  The worktree is removed however the
run ends.  Without ``--workload`` every workload runs.

``--turns N`` takes turns instead, a diagnostic that separates the code
from host drift better than fresh processes do.  One long-lived process
per tree imports that tree's ``src`` and the copied ``campaigns.py``,
builds the workload at the seed and runs the warm-up campaign; then, over
``N`` turns, each side times one cold campaign (fresh engine and cache)
per turn, the parent first in odd turns and the change first in even
ones.  It prints each side's median and quartiles of
``candidates_per_s`` and how many turns the change won.  The pairs above
stay the gate for a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERF = Path("benchmarks") / "perf"
OUT = ROOT / "benchmarks" / ".pairs"
#: the environment ``run.py`` gives its samples: single-threaded native
#: libraries and a fixed hash seed
TURN_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def run_pass(tree: Path, workload: str | None, seed: int, out: Path) -> None:
    """One ``run.py`` pass in ``tree``; a failed check does not stop the pairs."""
    command = [sys.executable, str(tree / PERF / "run.py"), "--seed", str(seed),
               "--trace", "0", "--json", str(out)]
    command += ["--workload", workload] * bool(workload)
    status = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL).returncode
    if not out.exists():
        raise RuntimeError(f"run.py in {tree} exited {status} without writing {out}")
    print(f"  {out.name}: run.py exited {status}", flush=True)


def serve(tree: Path, workload_name: str, seed: int) -> None:
    """One side of ``--turns``: build the workload from ``tree``, warm up,
    print ``ready``, then time one cold campaign per line read from stdin
    and print its ``candidates_per_s`` as JSON."""
    sys.path[:0] = [str(tree / "src"), str(tree / PERF)]
    import campaigns
    from repro.search import EvaluationCache

    workload = campaigns.build(workload_name, seed)
    with tempfile.TemporaryDirectory(prefix="perf-turns-") as tmp:

        def campaign(index: int, searches) -> float:
            path = Path(tmp) / f"cold-{index}.sqlite" if workload.persistent else None
            cache = EvaluationCache(path)
            start = time.perf_counter()
            with workload.engine(cache) as engine:
                campaigns.sweep(engine, searches)
            wall = time.perf_counter() - start
            cache.close()
            return wall

        campaign(0, workload.warmup_searches())
        print("ready", flush=True)
        turn = 0
        while sys.stdin.readline():
            turn += 1
            wall = campaign(turn, workload.searches)
            print(json.dumps({"candidates_per_s": workload.candidates / wall}), flush=True)


def take_turns(trees: dict[str, Path], workload: str, seed: int, turns: int) -> int:
    """Alternate cold campaigns between one long-lived process per tree."""
    command = [sys.executable, str(Path(__file__).resolve()), "--serve"]
    sides = {
        side: subprocess.Popen(
            command + [str(tree), "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=tree, env={**os.environ, **TURN_ENV},
        )
        for side, tree in trees.items()
    }
    rates: dict[str, list[float]] = {side: [] for side in sides}
    try:
        for side, process in sides.items():
            if process.stdout.readline().strip() != "ready":
                raise RuntimeError(f"the {side} process exited {process.wait()} during set-up")
        for turn in range(1, turns + 1):
            order = ("parent", "change") if turn % 2 else ("change", "parent")
            for side in order:
                process = sides[side]
                process.stdin.write("go\n")
                process.stdin.flush()
                line = process.stdout.readline()
                if not line:
                    raise RuntimeError(f"the {side} process exited {process.wait()}")
                rates[side].append(json.loads(line)["candidates_per_s"])
            print(f"turn {turn}/{turns}: parent {rates['parent'][-1]:.1f}  "
                  f"change {rates['change'][-1]:.1f}", flush=True)
    finally:
        for process in sides.values():
            process.stdin.close()
        for process in sides.values():
            process.wait()

    print(f"{workload} candidates_per_s, seed {seed}, {turns} turns:")
    for side, values in rates.items():
        q1, median, q3 = (
            statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        )
        print(f"  {side:<6} median {median:.1f}  quartiles [{q1:.1f}, {q3:.1f}]")
    wins = sum(c > p for p, c in zip(rates["parent"], rates["change"]))
    ratio = statistics.median(rates["change"]) / statistics.median(rates["parent"])
    print(f"  change wins {wins}/{turns} turns; median ratio {ratio:.2f}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="commit to compare against")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--turns", type=int, help="take N turns instead of pairs")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve is not None:
        serve(args.serve, args.workload, args.seed)
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.turns is not None and (args.turns < 1 or not args.workload):
        parser.error("--turns needs N >= 1 and one --workload")

    out_dir = OUT / f"{args.workload or 'all'}-s{args.seed}"
    if args.turns is None:
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(parent_tree), args.parent)
        try:
            shutil.rmtree(parent_tree / PERF, ignore_errors=True)
            shutil.copytree(ROOT / PERF, parent_tree / PERF,
                            ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
            shutil.copy2(ROOT / "BENCHMARK.json", parent_tree / "BENCHMARK.json")
            trees = {"parent": parent_tree, "change": ROOT}
            if args.turns is not None:
                return take_turns(trees, args.workload, args.seed, args.turns)
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                print(f"pair {pair}/{args.pairs}", flush=True)
                for side in order:
                    out = out_dir / f"{side}-{pair:02d}.json"
                    run_pass(trees[side], args.workload, args.seed, out)
        finally:
            git("worktree", "remove", "--force", str(parent_tree))

    def results(side: str) -> list[str]:
        return [str(out_dir / f"{side}-{pair:02d}.json") for pair in range(1, args.pairs + 1)]

    compare = [sys.executable, str(ROOT / PERF / "compare.py"),
               "--parent", *results("parent"), "--change", *results("change")]
    return subprocess.run(compare, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
