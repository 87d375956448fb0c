#!/usr/bin/env python3
"""Benchmark of gwnet on seeded workloads, through its public API.

    python3 bench/run.py --workload pairs --seed 0 --seconds 50 --trace 0

Run it inside a source checkout: the library is imported from the src/
directory next to this one, and the run fails if it is missing. The
workloads (pairs, mean) are described in bench/README.md. Each
run is one process and one caller in a closed loop over a fixed, seeded
batch of operations (ops); BLAS is pinned to one thread.

--trace 0 runs the batch once, keeps cycling through it until --seconds of
op time have passed, and prints the end-to-end metrics. --trace 1 runs the
first half of the batch untraced, then the same ops traced, and prints the
per-layer metrics.
Earlier lines of standard output record the machine, list every failed op
and print each metric with its unit; the last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5

# (name, unit) of the metrics the last line carries with --trace 0; they
# must match the end_to_end list of BENCHMARK.json
END_TO_END = (("ops_per_s", "1/s"), ("op_latency_p50_s", "s"),
              ("op_latency_tail_s", "s"), ("setup_s", "s"),
              ("completed_frac", "fraction"), ("converged_frac", "fraction"),
              ("gw_distance_p50", "weight"), ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Record:
    """One attempted op: its latency and, if it failed, why."""

    index: int
    latency: float
    error: str | None = None        # "Class: message" or "check: ..."
    wrong_output: bool = False      # the op returned, but a check failed
    outcome: object = None          # workloads.Outcome when it passed


def setup(workload: str, seed: int, workdir: Path, scale: str):
    """Import gwnet from the checkout and make the workload's inputs.

    Returns (seconds taken, workload, inputs)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gwnet
    if Path(gwnet.__file__).resolve().parent != (SRC / "gwnet").resolve():
        raise RuntimeError(f"imported gwnet from {gwnet.__file__}, "
                           f"not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(seed, wl.batch[scale], workdir, scale)
    return time.perf_counter() - start, wl, inputs


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
    return f"{type(exc).__name__}: {exc} (raised at {where})"


def _record(wl, i: int, inp, latency: float, out) -> Record:
    """Check one op's outputs and keep only the verdict."""
    import workloads
    if isinstance(out, Exception):
        return Record(i, latency, _describe(out))
    try:
        return Record(i, latency, outcome=wl.check(inp, out))
    except workloads.CheckFailed as exc:
        return Record(i, latency, f"check: {exc}", True)
    except Exception as exc:        # checking raised: the output is invalid
        return Record(i, latency, f"check: {_describe(exc)}", True)


def run_ops(wl, inputs, seconds: float = 0.0,
            tracer=None) -> tuple[float, list[Record]]:
    """Run every op of the batch once, then keep cycling through the batch
    until `seconds` of op time have passed.

    Each op is timed alone and checked right after, outside its timing, so
    memory does not grow with the number of ops run. Returns the op time
    and one record per op run."""
    records, op_time = [], 0.0
    while len(records) < len(inputs) or op_time < seconds:
        i = len(records) % len(inputs)
        t0 = time.perf_counter()
        try:
            with tracer.op(i) if tracer else nullcontext():
                out = wl.op(inputs[i])
        except Exception as exc:    # a failing op is counted, not fatal
            out = exc
        latency = time.perf_counter() - t0
        op_time += latency
        records.append(_record(wl, i, inputs[i], latency, out))
    return op_time, records


def tail_percentile(batch: int) -> int:
    """Highest whole percentile with at least ten of the batch's ops beyond
    it (50 for batches too small to have one)."""
    return max(50, math.floor(100 * (batch - 10) / batch)) if batch > 10 \
        else 50


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(records: list[Record], op_time: float, batch: int,
               setup_s: float) -> tuple[dict, list[str]]:
    """End-to-end metrics, name -> (value, unit), plus notes to print.

    An op of the batch counts as failed if any of its runs failed, and
    quality figures come from the first pass over the batch, so neither
    depends on how many repeats fit in the run."""
    failed_ops = {r.index for r in records if r.error is not None}
    first = [r.outcome for r in records[:batch] if r.index not in failed_ops]
    failed = sum(r.error is not None for r in records)
    failed_frac = len(failed_ops) / batch
    latencies = sorted(r.latency for r in records)
    pct = tail_percentile(batch)
    median, _ = percentile(latencies, 50)
    tail, beyond = percentile(latencies, pct)
    metrics = {
        "ops_per_s": ((len(records) - failed) / op_time, "1/s"),
        "op_latency_p50_s": (median, "s"),
        "op_latency_tail_s": (tail, "s"),
        "setup_s": (setup_s, "s"),
        "failed_frac": (failed_frac, "fraction"),
        "completed_frac": (1.0 - failed_frac, "fraction"),
        "converged_frac": (
            statistics.fmean(o.converged for o in first) if first else 0.0,
            "fraction"),
        "gw_distance_mean": (
            statistics.fmean(o.gw_distance for o in first) if first else 0.0,
            "weight"),
        # the gated form: a rare failed block recovery moves the mean by
        # half its value, the median not at all
        "gw_distance_p50": (
            statistics.median(o.gw_distance for o in first) if first else 0.0,
            "weight"),
    }
    for key, name in (("mean_loss", "mean_loss_mean"),
                      ("block_dev", "block_dev_mean")):
        values = [o.extra[key] for o in first if key in o.extra]
        if values:
            metrics[name] = (statistics.fmean(values), "weight")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    notes = [f"op_latency_tail_s is p{pct}: {beyond} of {len(latencies)} "
             "op latencies lie beyond it"]
    return metrics, notes


def environment(workload: str, seed: int, seconds: int, trace: int,
                batch: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "batch": batch, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "platform": platform.platform()}


def setup_samples(workload: str, seed: int, own: float) -> list[float]:
    """This process's set-up time plus that of fresh processes doing the
    same set-up."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", setup_repeats: bool = True):
    """One benchmark run. Returns (lines to print, all metrics, result).

    all metrics maps name -> (value, unit) for every metric measured; the
    result is the object of the last output line."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        setup_s, wl, inputs = setup(workload, seed, Path(workdir), scale)
        lines = ["env " + json.dumps(environment(
            workload, seed, seconds, int(trace), len(inputs)))]
        if trace:
            import tracing
            half = inputs[:max(1, len(inputs) // 2)]
            plain_time, plain = run_ops(wl, half)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced_time, traced = run_ops(wl, half, tracer=tracer)
            tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
            records = plain + traced
            metrics = tracing.layer_metrics(tracer.spans)
            ok = [sum(r.error is None for r in rs) for rs in (plain, traced)]
            metrics["trace.overhead_frac"] = (
                (ok[0] / plain_time) / (ok[1] / traced_time) - 1.0
                if ok[1] else 0.0, "fraction")
            reported = list(metrics)
            lines.append(f"traced {len(half)} ops: untraced "
                         f"{plain_time:.3f} s, traced {traced_time:.3f} s")
        else:
            op_time, records = run_ops(wl, inputs, seconds)
            samples = setup_samples(workload, seed, setup_s) \
                if setup_repeats else [setup_s]
            metrics, notes = end_to_end(records, op_time, len(inputs),
                                        statistics.median(samples))
            reported = [name for name, _ in END_TO_END]
            lines.append(f"ran {len(records)} ops of a batch of "
                         f"{len(inputs)} in {op_time:.3f} s; setup samples "
                         + " ".join(f"{s:.4f}" for s in samples) + " s")
            lines += notes

    # attempted and failed count the distinct ops of the batch, so that
    # they do not depend on how many repeats fit in the run
    attempted = {r.index for r in records}
    failures = {}
    for r in records:
        if r.error is not None:
            failures.setdefault(r.index, r.error)
    for i, error in sorted(failures.items()):
        lines.append(f"failed op {i}: {error}")
    for error, n in Counter(failures.values()).most_common():
        lines.append(f"failures x{n}: {error}")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value!r} {unit}")
    result = {"correct": not any(r.wrong_output for r in records),
              "attempted": len(attempted), "failed": len(failures),
              "metrics": {name: {"value": metrics[name][0],
                                 "unit": metrics[name][1]}
                          for name in reported}}
    return lines, metrics, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pairs", "mean"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "gwnet" / "__init__.py").is_file():
        print(f"no gwnet sources at {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:           # before numpy is first imported
        os.environ[var] = "1"
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
            print(setup(args.workload, args.seed, Path(workdir), "full")[0])
        return 0
    lines, _, result = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
