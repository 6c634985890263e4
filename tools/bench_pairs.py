#!/usr/bin/env python3
"""Alternating benchmark pairs of a git revision against the working tree:

    python3 tools/bench_pairs.py <rev> --workload W --pairs N --seed S

Exports ``<rev>`` and the working tree (tracked and untracked files that
.gitignore does not exclude) with ``git archive`` into two temporary trees, so
each side runs its own ``bench/run.py`` on its own source and writes its own
``.bench_out/``.  Then runs ``bench/run.py --trace 0`` N times on each tree,
alternating which side goes first, and prints one JSON line per run and a
summary line.  The summary gives, for every end-to-end metric, each side's
median and quartiles and the pairs the change won, and says whether the rule
for claiming a gain holds: the change wins at least nine tenths of the pairs
(ties count for neither) and the medians differ by more than the distance
between the parent's quartiles.  Every metric the benchmark gates is lower
when better.  The trees are removed on exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args, env=None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          capture_output=True, env=env).stdout.strip()


def working_tree_id(scratch: Path) -> str:
    """A tree object of the working tree, built in a private index so that
    the repository's own index is left as it is."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def export(treeish: str, dest: Path):
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", treeish],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--trace", "0"],
                         cwd=tree, check=True, text=True, capture_output=True).stdout
    last = json.loads(out.splitlines()[-1])
    if not last.get("correct") or last.get("failed"):
        sys.exit(f"bench_pairs: {tree.name} run not correct: {last}")
    return {name: m["value"] for name, m in last["metrics"].items()}


def summary(parent: list, change: list) -> dict:
    """Median, quartiles and pair wins of each metric, and whether the
    change's gain may be claimed."""
    out = {}
    for name in parent[0]:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        pq = statistics.quantiles(p, n=4, method="inclusive")
        cq = statistics.quantiles(c, n=4, method="inclusive")
        wins = sum(b < a for a, b in zip(p, c))
        gap = statistics.median(p) - statistics.median(c)
        out[name] = {
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "change_wins": wins, "pairs": len(p),
            "median_gain": gap, "parent_iqr": pq[2] - pq[0],
            "gain_holds": wins >= 0.9 * len(p) and gap > pq[2] - pq[0],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the parent revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        export(git("rev-parse", "--verify", f"{args.rev}^{{tree}}"), trees["parent"])
        export(working_tree_id(tmp), trees["change"])
        results = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                metrics = run_bench(trees[side], args.workload, args.seed)
                results[side].append(metrics)
                print(json.dumps({"pair": pair, "side": side, "first": order[0],
                                  "metrics": metrics}), flush=True)
    print(json.dumps({"rev": args.rev, "workload": args.workload, "seed": args.seed,
                      "summary": summary(results["parent"], results["change"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
