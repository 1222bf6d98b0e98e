"""Alternated A/B runs of the benchmark on two source trees.

    python3 scripts/ab_bench.py BASE NEW --workload links --seed 101 --pairs 10

Each pair runs BASE/perfbench/run.py and NEW/perfbench/run.py once, each
for BASE/BENCHMARK.json's run_seconds, in a fresh process with its own
tree as the working directory.  The tree that goes first alternates from
pair to pair, so neither side always runs on a warmer or a cooler
machine.  After each pair the script prints both runs' value of every
end-to-end metric that BASE/BENCHMARK.json declares.  For each of them it
then prints each side's median and quartiles over the pairs, the ratio
of the medians (NEW / BASE), how many pairs NEW wins (is better in the
metric's own direction), whether NEW's median beats BASE's by more than
BASE's interquartile distance, and a no-regression verdict against the
metric's bound (a fraction of BASE's median): WORSE where NEW's median
is worse than BASE's by more than the bound; unresolved where BASE's
interquartile distance is wider than the bound, unless every NEW run
beats every BASE run; ok otherwise.  One summary line counts the
verdicts.  Both trees are only read; each run's results file goes to a
temporary directory.  SIGTERM ends the running child and removes that
directory before the script exits.  A --pairs below 1 is a usage
error.  Standard library only.

The script refuses two trees whose sets of *.pyc files under src/
differ: where PYTHONDONTWRITEBYTECODE=1 is set, a bytecode cache on one
side only makes that side's imports and child processes faster and
skews the comparison.  Compare trees with no __pycache__ under src/, or
with both compiled.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             out: Path) -> dict:
    """One benchmark run of a tree: its last stdout line, a JSON object."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(out)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("%s exited %d:\n%s" % (" ".join(argv),
                                                 done.returncode,
                                                 done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def bytecode(tree: Path) -> set:
    """The *.pyc files under tree/src, as paths relative to tree."""
    return {str(p.relative_to(tree)) for p in (tree / "src").rglob("*.pyc")}


def quartiles(values: List[float]):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: List[float], new: List[float], bound: float,
            higher: bool) -> str:
    """ok, WORSE or unresolved for one metric's runs; bound is a fraction
    of BASE's median."""
    (b1, bm, b3), nm = quartiles(base), quartiles(new)[1]
    if ((bm - nm) if higher else (nm - bm)) > bound * abs(bm):
        return "WORSE"
    beats_all = (min(new) > max(base)) if higher else (max(new) < min(base))
    if b3 - b1 > bound * abs(bm) and not beats_all:
        return "unresolved"
    return "ok"


def report(metrics: List[dict], runs: Dict[str, List[dict]]) -> None:
    print("%-12s %-6s %-28s %-28s %6s %5s %-14s %s" % (
        "metric", "better", "base median [q1, q3]", "new median [q1, q3]",
        "ratio", "wins", "beats base IQR", "verdict"))
    pairs = len(runs["base"])
    verdicts = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        new = [r["metrics"][name]["value"] for r in runs["new"]]
        (b1, bm, b3), (n1, nm, n3) = quartiles(base), quartiles(new)
        wins = sum((n > b) if higher else (n < b) for b, n in zip(base, new))
        gain = (nm - bm) if higher else (bm - nm)
        verdicts.append(verdict(base, new, m["bound"], higher))
        print("%-12s %-6s %-28s %-28s %6s %2d/%-2d %-14s %s" % (
            name, m["better"], "%.4g [%.4g, %.4g]" % (bm, b1, b3),
            "%.4g [%.4g, %.4g]" % (nm, n1, n3),
            "%.3f" % (nm / bm) if bm else "-", wins, pairs,
            "yes" if gain > b3 - b1 else "no", verdicts[-1]))
    for side in ("base", "new"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print("%s: %d of %d items failed" % (side, failed, attempted))
    print("no-regression verdicts: %d ok, %d WORSE, %d unresolved" % tuple(
        verdicts.count(v) for v in ("ok", "WORSE", "unresolved")))


def _exit_on_signal(signum, frame):
    """Unwind instead of dying at once, so that subprocess.run kills the
    running child and the temporary directory is removed."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_signal)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path, help="the tree to compare against")
    p.add_argument("new", type=Path, help="the tree with the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    trees = {"base": args.base.resolve(), "new": args.new.resolve()}
    only = sorted(bytecode(trees["base"]) ^ bytecode(trees["new"]))
    if only:
        raise SystemExit(
            "refusing to compare: %d *.pyc file(s) under src/ are in one "
            "tree only (%s); remove every __pycache__ under src/ in both "
            "trees, or compile both" % (len(only), only[0]))
    spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    print("workload %s, seed %d: %d pairs of %g s runs, first tree "
          "alternated" % (args.workload, args.seed, args.pairs, seconds))
    runs: Dict[str, List[dict]] = {"base": [], "new": []}
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.pairs):
            sides = ("base", "new") if k % 2 == 0 else ("new", "base")
            for side in sides:
                runs[side].append(run_once(
                    trees[side], args.workload, args.seed, seconds,
                    Path(tmp) / (side + ".jsonl")))
            print("pair %d (%s first): %s" % (k + 1, sides[0], "; ".join(
                "%s base %.4g, new %.4g" % (
                    m["name"], runs["base"][-1]["metrics"][m["name"]]["value"],
                    runs["new"][-1]["metrics"][m["name"]]["value"])
                for m in spec["end_to_end"])), flush=True)
    report(spec["end_to_end"], runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
