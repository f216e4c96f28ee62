"""Alternating parent/change benchmark pairs, judged by ``compare.py``.

    python benchmarks/pairs.py --parent REV [--workload NAME] [--pairs N]
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
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERF = Path("benchmarks") / "perf"
OUT = ROOT / "benchmarks" / ".pairs"


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    out_dir = OUT / f"{args.workload or 'all'}-s{args.seed}"
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
