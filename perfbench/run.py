"""Benchmark for hypercross: one workload per process, outputs verified.

Run from the repository root:

    python3 perfbench/run.py --workload apply-cold --seed 1 --seconds 25 --trace 0

The run imports the package from ``src/`` of the tree it sits in, sets up the
workload several times (reporting the median), then runs cases drawn from
``--seed`` until their timed steps have taken ``--seconds`` of wall time,
stopping only after a whole round of cases (a workload's cases cycle through
a fixed mix of inputs, and every run measures whole cycles).  Every case is
checked against an independent oracle outside the timed region; a case that
fails a check, or raises, counts as failed and is never dropped.

Case times are calibrated CPU times: each case's process CPU time, scaled
by a host probe run just before and after it to the speed of a reference host
(see ``HostProbe``).  Every step runs in one thread (BLAS is pinned to one
thread below).  The uncalibrated wall and CPU times are printed on a line of
their own for reference.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it carries the
per-layer metrics instead: each case is run once untraced and once traced (the
order alternating), spans are written to ``.perfbench/`` when the run ends,
and ``trace.overhead_ratio`` is traced over untraced case time.
"""

import argparse
import importlib
import json
import os
import pkgutil
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

START = time.perf_counter()

# One BLAS thread, fixed before numpy loads, keeps runs steady on a shared
# machine.  The FFTs run single-threaded in any case.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
# The host probe (see ``HostProbe``): repetitions per call, and the median
# CPU seconds of one call on the reference host in a quiet period (a 2-vCPU
# Intel Xeon VM, Python 3.11, numpy 2.4), the speed calibrated times are
# expressed in.
PROBE_REPS = 150
PROBE_REF_S = 0.0060
# No new case starts after this many seconds of process time, so a run whose
# cases fail fast or whose untimed checks dominate still ends in time.
WALL_LIMIT_S = 150.0

EXIT_NO_PROGRAM = 2


class HostProbe:
    """A fixed piece of numpy work that times how fast the host runs right now.

    The benchmark's machine shares its cores with other machines, and its
    speed changes by up to a factor of two for seconds to minutes at a time.
    CPU time does not remove that: the slowdown is in the shared core, not in
    waiting for one.  The probe runs next to every timed step, and a step's
    calibrated time is its CPU time times ``PROBE_REF_S`` over the probe's CPU
    time around it: the time the step would take on the reference host.  The
    probe is small 2-D FFTs and elementwise calls on a 32 x 32 grid, the same
    kind of per-call numpy work the workloads do, and it calls no hypercross
    code, so a change to the program cannot move it.  Over 8 s windows of a
    noisy period it cut the spread of window medians of the workloads' steps
    from about 30% to 3-7%.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.grid = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        # Bound before any tracing patches numpy.fft.
        self.ifft2, self.where, self.vdot, self.abs = np.fft.ifft2, np.where, np.vdot, np.abs
        self()

    def __call__(self) -> float:
        """CPU seconds of one probe call."""
        start = time.process_time()
        for _ in range(PROBE_REPS):
            out = self.ifft2(self.grid)
            kept = self.where(self.abs(out) > 0.1, out, 0.0)
            self.vdot(kept, kept)
        return time.process_time() - start

    def calibrate(self, run):
        """Run ``run()`` between two probes; return its result, its CPU
        seconds and the factor that takes CPU seconds spent meanwhile to the
        reference host's speed."""
        before = self()
        start = time.process_time()
        result = run()
        cpu = time.process_time() - start
        return result, cpu, PROBE_REF_S / (0.5 * (before + self()))


def _package_modules() -> list[str]:
    return [name for name in sys.modules if name == "hypercross" or name.startswith("hypercross.")]


def import_package() -> None:
    """Execute every hypercross module afresh, then put the original module
    objects back, so the rest of the run keeps using one set of them.  Its
    dependencies (numpy and the standard library) stay loaded."""
    saved = {name: sys.modules.pop(name) for name in _package_modules()}
    try:
        importlib.import_module("hypercross")
        for info in pkgutil.iter_modules(saved["hypercross"].__path__):
            if not info.name.startswith("_"):
                importlib.import_module("hypercross." + info.name)
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for entry in sorted(base.glob("index*")):
            level = (entry / "level").read_text().strip()
            kind = (entry / "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = (entry / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def provenance(seed: int) -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cache": cache_sizes(),
        "seed": seed,
    }


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def measure(workload, seed: int, seconds: float, tracer, trace: bool, probe: HostProbe) -> dict:
    """Run whole rounds of cases until their timed steps have taken
    ``seconds`` of wall time (or the workload's case cap); return per-case
    calibrated, CPU and wall times, failures and counters."""
    times, cpus, walls, traced_times, plain_times, counters, failure_log = [], [], [], [], [], [], []
    index = 0
    while (
        (sum(walls) < seconds or index % workload.round_cases)
        and (workload.max_cases is None or index < workload.max_cases)
        and time.perf_counter() - START < WALL_LIMIT_S
    ):
        calibrated = cpu = wall = 0.0
        try:
            case = workload.make_case(seed, index)
            passes = ([False, True] if index % 2 == 0 else [True, False]) if trace else [False]
            for traced in passes:
                (tracer.start if traced else tracer.stop)()
                tracer.case = index

                def timed():
                    start = time.perf_counter()
                    with tracer.span("case"):
                        out = workload.run(case)
                    return out, time.perf_counter() - start

                (out, elapsed_wall), elapsed_cpu, factor = probe.calibrate(timed)
                wall += elapsed_wall
                cpu += elapsed_cpu
                calibrated += elapsed_cpu * factor
                (traced_times if traced else plain_times).append(elapsed_cpu * factor)
            if trace:
                tracer.start()
            failures = workload.check(case, out)
            counters.append(workload.counters(case, out))
        except Exception:
            failures = ["raised:\n" + traceback.format_exc()]
            tracer.unwind()
        finally:
            tracer.stop()
        times.append(calibrated)
        cpus.append(cpu)
        walls.append(wall)
        if failures:
            failure_log.append((index, failures))
            print(f"case {index} FAILED: " + "; ".join(failures), file=sys.stderr)
        index += 1
    return {
        "times": times,
        "cpus": cpus,
        "walls": walls,
        "traced": traced_times,
        "plain": plain_times,
        "failed": len(failure_log),
        "failure_log": failure_log,
        "counters": counters,
    }


def end_to_end(result: dict, setup_s: float) -> dict:
    times = result["times"]
    attempted = len(times)
    verified = attempted - result["failed"]
    return {
        "setup_s": setup_s,
        "cases_per_s": verified / sum(times) if sum(times) else 0.0,
        "case_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verified_ratio": verified / attempted,
    }


def per_layer(result: dict, summary: dict) -> dict:
    totals = summary["totals"]
    cases = len(result["times"])

    def get(name: str, field: str, where: str = "case") -> float:
        return totals.get((where, name), {}).get(field, 0)

    def per_case(name: str, field: str, where: str = "case") -> float:
        return get(name, field, where) / cases

    def counter_mean(key: str) -> float:
        values = [c[key] for c in result["counters"] if key in c]
        return statistics.fmean(values) if values else 0.0

    applies = get("normest.apply", "count") + get("normest.adjoint", "count")
    apply_s = get("normest.apply", "total_s") + get("normest.adjoint", "total_s")
    case_s = get("case", "total_s")
    layer_self_s = sum(t["self_s"] for (where, name), t in totals.items() if where == "case" and name != "case")
    digits = [c["normest.certified_digits"] for c in result["counters"] if "normest.certified_digits" in c]
    metrics = {
        "grid.fft.calls": per_case("grid.fft", "count"),
        "grid.fft.s": per_case("grid.fft", "self_s"),
        "grid.fft.bytes_computed": per_case("grid.fft", "work"),
        "grid.io.s": per_case("grid.io", "self_s"),
        "grid.io.bytes": per_case("grid.io", "work"),
        "multiplier.profile.calls": per_case("multiplier.profile", "count"),
        "multiplier.profile.args": per_case("multiplier.profile", "work"),
        "multiplier.profile.s": per_case("multiplier.profile", "self_s"),
        "linearized.apply.s": per_case("linearized.apply", "self_s"),
        "linearized.adjoint.s": per_case("linearized.adjoint", "self_s"),
        "linearized.fft_per_apply": (
            summary["fft_under_apply"] / get("linearized.apply", "count") if get("linearized.apply", "count") else 0.0
        ),
        "linearized.v_buckets": counter_mean("linearized.v_buckets"),
        "linearized.h_buckets": counter_mean("linearized.h_buckets"),
        "linearized.oracle.s": per_case("linearized.oracle", "total_s", "outside"),
        "decomposition.lemma.s": per_case("decomposition.lemma", "self_s"),
        "decomposition.principal.s": per_case("decomposition.principal", "self_s"),
        "decomposition.error.s": per_case("decomposition.error", "self_s"),
        "decomposition.ladder.s": per_case("decomposition.ladder", "self_s"),
        "decomposition.calderon.s": per_case("decomposition.calderon", "self_s"),
        "decomposition.ratio.s": per_case("decomposition.ratio", "self_s"),
        "decomposition.small_variation.s": per_case("decomposition.small_variation", "self_s"),
        "decomposition.vtilde_classes": counter_mean("decomposition.vtilde_classes"),
        "normest.applies": applies / cases,
        "normest.iterations": counter_mean("normest.iterations"),
        "normest.converged_ratio": counter_mean("normest.converged_ratio"),
        "normest.power.s": per_case("normest.power", "self_s"),
        "normest.ascent.s": per_case("normest.ascent", "self_s"),
        "normest.dense.s": per_case("normest.dense", "self_s"),
        "normest.s_per_apply": apply_s / applies if applies else 0.0,
        "normest.certified_digits_p50": statistics.median(digits) if digits else 0.0,
        "dyadic.stability.s": per_case("dyadic.stability", "self_s"),
        "dyadic.haar.s": per_case("dyadic.haar", "self_s"),
        "dyadic.model.s": per_case("dyadic.model", "self_s"),
        "dyadic.martingale.s": per_case("dyadic.martingale", "self_s"),
        "dyadic.caught_ratio": counter_mean("dyadic.caught_ratio"),
        "cli.main.s": per_case("cli.main", "self_s"),
        "cli.artifact_bytes": counter_mean("cli.artifact_bytes"),
        "trace.case_s": case_s / cases,
        "trace.self_sum_ratio": layer_self_s / case_s if case_s else 0.0,
        "trace.overhead_ratio": sum(result["traced"]) / sum(result["plain"]) if result["plain"] else 0.0,
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("apply-cold", "normest-hot", "structural"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypercross" / "__init__.py").is_file():
        print(f"error: no hypercross sources at {SRC}; run from a full checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    import hypercross

    if Path(hypercross.__file__).resolve().parent != (SRC / "hypercross").resolve():
        print(f"error: imported hypercross from {hypercross.__file__}, not from {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    start = time.process_time()
    from tracing import Tracer, summarize
    from workloads import WORKLOADS

    cold_import_s = time.process_time() - start

    declared = declared_metrics()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tracer = Tracer()
    try:
        probe = HostProbe()
        setups = []
        for _ in range(SETUP_REPEATS):
            workload = WORKLOADS[args.workload](tracer, str(workdir))

            def setup():
                import_package()
                workload.setup(args.seed)

            _, cpu, factor = probe.calibrate(setup)
            setups.append(cpu * factor)
        setup_s = statistics.median(setups)

        result = measure(workload, args.seed, args.seconds, tracer, bool(args.trace), probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(result["times"])
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(
        f"workload {args.workload}: {attempted} cases, {result['failed']} failed "
        f"(failed_ratio {result['failed'] / attempted:.4f}), case_s_p50 over n={attempted}"
    )
    walls, cpus = result["walls"], result["cpus"]
    print(f"cold import of numpy and hypercross: {cold_import_s:.4f} s cpu, uncalibrated, not in setup_s")
    print(
        f"uncalibrated, for reference: wall {sum(walls):.3f} s timed, case p50 {statistics.median(walls):.4f} s; "
        f"cpu {sum(cpus):.3f} s timed, case p50 {statistics.median(cpus):.4f} s; "
        f"host speed {sum(result['times']) / sum(cpus):.3f} of the reference"
    )
    digits = [c["normest.certified_digits"] for c in result["counters"] if "normest.certified_digits" in c]
    if digits:
        print(f"certified_digits_p50 {statistics.median(digits):.4f} digits (n={len(digits)})")

    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans written to {trace_path}")
        metrics = per_layer(result, summarize(tracer.spans))
        units = declared["per_layer"]
    else:
        metrics = end_to_end(result, setup_s)
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return EXIT_NO_PROGRAM
    for name in units:
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": attempted,
                "failed": result["failed"],
                "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
