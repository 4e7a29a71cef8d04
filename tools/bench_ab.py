"""Compare the benchmark's end-to-end metrics of the working tree and a git
revision in alternating pairs of runs.

A change that claims a speed-up is measured against its parent with one
command, from the repository root:

    python3 tools/bench_ab.py --against <parent> --workload normest-hot

It writes ``git archive <parent>`` to ``<tmp>/base`` and a copy of the
working tree to ``<tmp>/head``, so both sides run from paths of the same
length and neither starts with a bytecode cache, and runs each tree's
``perfbench/run.py`` for ``run_seconds`` of ``BENCHMARK.json``, one process
at a time.  Pair i runs seed i on both sides for 10 pairs, and the side
that runs first alternates from pair to pair, so a drift in the host's
speed falls on both sides alike.  For each end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles over the
pairs, and how many pairs the working tree wins (a tie is no win), in the
metric's own direction of better; then the share of failed cases on each
side.  A run that exits nonzero stops the comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from git_tree import copy_worktree, extract  # noqa: E402

PAIRS = 10


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """The JSON result line of one untraced ``perfbench/run.py`` run of the tree."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{tree} {workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def summarize(pairs: list[tuple[str, str]], better: dict[str, str]) -> list[str]:
    """The report of pairs of result lines (base, head): one line per metric
    named in better ("lower" or "higher"), then the failed shares."""
    base = [json.loads(b) for b, _ in pairs]
    head = [json.loads(h) for _, h in pairs]
    lines = [f"{len(pairs)} pairs; median [q1, q3] of base and head; wins of head"]
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, h))
        (bq1, _, bq3), (hq1, _, hq3) = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
        bmed, hmed = statistics.median(b), statistics.median(h)
        change = f"{(hmed - bmed) / bmed:+.1%}" if bmed else "n/a"
        lines.append(
            f"{name} ({direction} is better): base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}], "
            f"head {hmed:.6g} [{hq1:.6g}, {hq3:.6g}], {change}; head wins {wins} of {len(pairs)}"
        )
    for side, runs in (("base", base), ("head", head)):
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        lines.append(f"{side}: {failed} of {attempted} cases failed")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", default="HEAD", help="the git revision to compare with (default HEAD)")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        extract(args.against, trees["base"])
        copy_worktree(trees["head"])
        for seed in range(1, PAIRS + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            lines = {side: run_bench(trees[side], args.workload, seed, declared["run_seconds"]) for side in order}
            pairs.append((lines["base"], lines["head"]))
            print(f"pair {seed} ({order[0]} first) done", flush=True)
    print(f"{args.workload}: head is the working tree, base is {args.against}")
    for line in summarize(pairs, better):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
