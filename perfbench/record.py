"""Run the benchmark over several seeds and record the numbers.

Runs ``run.py`` once per (workload, seed) untraced and once per workload
traced, one process at a time, and writes a JSON record with the machine's
provenance, every run's metrics, and per-workload medians and quartile
spreads (the distance between the first and third quartile as a share of the
median).  Run from the repository root:

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("apply-cold", "normest-hot", "structural")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    prov = next(line for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), prov[len("provenance "):]


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", help="JSON file to write")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = seed_list(args.seeds)
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, prov = run_once(workload, seed, seconds, 0)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"], "metrics": values})
            print(workload, seed, result["attempted"], result["failed"], values, flush=True)
        record["provenance"] = json.loads(prov)
        names = runs[0]["metrics"]
        summary = {}
        for name in names:
            values = [r["metrics"][name] for r in runs]
            summary[name] = {"median": statistics.median(values)}
            if len(values) >= 2:
                summary[name]["spread"] = spread(values)
            print(f"  {workload} {name}: median {summary[name]['median']:.6g} spread {summary[name].get('spread', 0):.4f}")
        traced, _ = run_once(workload, seeds[0], seconds, 1)
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = {"end_to_end": summary, "per_layer": per_layer, "runs": runs}
    record["provenance"].pop("seed", None)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
