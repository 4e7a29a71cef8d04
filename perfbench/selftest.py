"""Self-test of the benchmark's correctness gates.

Runs single cases through the same measuring loop as a benchmark run and
checks how they are counted:

- an unmodified structural case passes;
- a structural case whose planted selection-stability violation is dropped
  counts as one failed case;
- an apply-cold case whose apply output is perturbed by 1e-6 of its largest
  value at one point counts as one failed case.

Run from the repository root; exits 0 when every expectation holds:

    python3 perfbench/selftest.py
"""

import os
import shutil
import sys

import run  # first: it fixes the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from hypercross import grid as gr  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ApplyCold, Structural  # noqa: E402

SEED = 20240601


class PerturbedApply(ApplyCold):
    def run(self, case: dict) -> dict:
        out = super().run(case)
        samples = out["apply"].samples.copy()
        samples[0, 0] += 1e-6 * np.abs(samples).max()
        out["apply"] = gr.SampledField(self.n_log2, samples)
        return out


class DroppedPlanted(Structural):
    def make_case(self, seed: int, index: int) -> dict:
        case = super().make_case(seed, index)
        _field, L, variant = case["planted"]
        clean = case["metric_2d"] if variant == "thm_4_1" else case["metric_x"]
        case["planted"] = (clean, L, variant)
        return case


def expect(label: str, workload, failed: int, message: str) -> bool:
    workload.setup(SEED)
    workload.round_cases = 1  # one case, not a whole round
    result = run.measure(workload, SEED, 1e-9, workload.tracer, False, run.HostProbe())
    messages = " ".join(" ".join(f) for _, f in result["failure_log"])
    ok = len(result["times"]) == 1 and result["failed"] == failed and message in messages
    print(f"{'PASS' if ok else 'FAIL'} {label}: {result['failed']} of {len(result['times'])} cases failed")
    return ok


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = str(run.OUT / f"selftest-{os.getpid()}")
    try:
        results = [
            expect("unmodified structural case", Structural(Tracer(), workdir), 0, ""),
            expect("dropped planted violation", DroppedPlanted(Tracer(), workdir), 1, "planted"),
            expect("perturbed apply output", PerturbedApply(Tracer(), workdir), 1, "brute force"),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
