"""slate's benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload c6-train --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
./src/slate, never from an installed copy. With --trace 0 the run measures
the end-to-end metrics of BENCHMARK.json with tracing off. With --trace 1 it
runs a fixed amount of work twice, untraced and then traced, and reports the
per-layer metrics plus the tracing overhead. Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics. The
lines before it hold the full record: environment, failures by exception type
and the workload's own figures. Without --workload every workload runs, each
in its own process, because peak RSS is per process.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the program or BENCHMARK.json is not found.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"
CHILD_TIMEOUT_S = 600
BLAS_THREADS = "1"
SETUP_SECONDS = 2.0  # set-up repeats at least this long, for a median over more than a blip
TRACE_PAIRS = 3  # untraced/traced round pairs behind the tracing overhead


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import slate from this checkout's source tree; None when it is absent."""
    if not (SRC / "slate" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import slate

    if Path(slate.__file__).resolve().parent != SRC / "slate":
        return None
    return slate


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside
    a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, which names the code measured
    when there is no git commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "slate").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_record() -> dict:
    """numpy's BLAS build, and the thread count each loaded OpenBLAS reports."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for package in (np, scipy):
        libs_dir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs_dir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[package.__name__] = fn()
                    break
    return {
        "name": blas.get("name"), "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"), "threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Process high-water RSS in MiB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float):
    """End-to-end run, tracing off: set-up repeated, then the timed phase."""
    from spans import NullTracer
    from workloads import Tally

    setup_times = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setup_times) < workload.min_setups or time.perf_counter() < deadline:
        ctx = None  # frees the previous set-up before the next one runs
        t0 = time.perf_counter()
        ctx = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    workload.warm_up(ctx)
    tally = Tally()
    samples = workload.phase(ctx, tally, NullTracer(), budget_s=seconds)
    workload.check(ctx, tally)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "unit_s": statistics.median(samples["unit"]),
        "items_per_s": statistics.median(samples["items"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = dict(samples["detail"], unit=workload.unit, items=workload.items,
                  samples={"setup_s": setup_times, "unit_s": samples["unit"],
                           "items_per_s": samples["items"]})
    return metrics, tally, detail


def traced(workload, seed: int, spans_path: Path | None):
    """Per-layer metrics and tracing overhead.

    Two set-ups: one runs untraced, the other traced. Then TRACE_PAIRS pairs
    of one fixed round of the phase, untraced and traced, with the order
    alternating from pair to pair. The overhead is the median over the pairs;
    the per-layer metrics come from the traced set-up and rounds."""
    from spans import NullTracer, Tracer, layer_metrics, span_cost_s
    from workloads import Tally

    ctx = workload.setup(seed)
    workload.warm_up(ctx)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            traced_ctx = workload.setup(seed)
    finally:
        tracer.uninstall()
    tally = Tally()
    overheads, traced_s = [], 0.0
    for pair in range(TRACE_PAIRS):
        wall = {}
        for on in ((False, True) if pair % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            t0 = time.perf_counter()
            try:
                if on:
                    workload.phase(traced_ctx, tally, tracer, budget_s=None)
                else:
                    workload.phase(ctx, Tally(), NullTracer(), budget_s=None)
            finally:
                wall[on] = time.perf_counter() - t0
                if on:
                    tracer.uninstall()
        overheads.append(100.0 * (wall[True] - wall[False]) / wall[False])
        traced_s += wall[True]
    workload.check(traced_ctx, tally)
    for problem in tracer.check_residuals():
        tally.check(False, problem)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_pct"] = statistics.median(overheads)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    per_span_s = span_cost_s()
    detail = {"trace_pairs": TRACE_PAIRS, "overhead_pct_per_pair": overheads,
              "span_cost_us": per_span_s * 1e6,
              "span_cost_pct_of_traced_phases": 100.0 * per_span_s * len(tracer.spans) / traced_s,
              "untraced_names": tracer.missing,
              "spans_file": str(spans_path) if spans_path else None}
    return metrics, tally, detail


def run_one(spec: dict, workload, seed: int, seconds: float, trace: bool,
            spans_dir: Path | None = SPANS_DIR) -> int:
    name = workload.name
    if trace:
        spans_path = spans_dir / f"spans-{name}-seed{seed}.jsonl" if spans_dir else None
        values, tally, detail = traced(workload, seed, spans_path)
        kind = "per_layer"
    else:
        values, tally, detail = measure(workload, seed, seconds)
        kind = "end_to_end"
    declared = spec[kind]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"{name} produced {sorted(values)}, not BENCHMARK.json's {kind} metrics")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = not tally.check_failures
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "operations": {"attempted": tally.attempted, "failed": tally.failed,
                       "failures_by_type": dict(tally.failures),
                       "recovered_by_type": dict(tally.recovered)},
        "check_failures": tally.check_failures,
        "detail": detail,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(json.dumps(record, indent=2, default=str))
    for problem in tally.check_failures:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(spec: dict, seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a child process of its own; then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if not lines or child.returncode == 2:
            return 2
        result = json.loads(lines[-1])
        status = max(status, child.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{metric}"] = value
    print(json.dumps(combined))
    return status


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workload_names,
                   help="one workload; all of them, each in its own process, when omitted")
    p.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except OSError as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    # One BLAS thread, set before numpy loads: on a shared 2-core machine the
    # library default of 2 threads doubled the run-to-run spread of c6-train.
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    if import_program() is None:
        print(f"error: slate's source tree not found at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(spec, args.seed, seconds, bool(args.trace))
    from workloads import WORKLOADS

    return run_one(spec, WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
