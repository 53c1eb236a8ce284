"""Run one binpaths benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-enum --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` is the separate traced run: it alternates untraced and
traced passes of identical work and reports the per-layer metrics.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A JSON record with the host, the samples and every figure is
written to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Set-up probes per run; set-up time is their median.
SETUP_PROBES = 5
TRACE_SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

# Each workload is warmed by one pass of a small instance of itself.
WARM_SIZES = {
    "exact-enum": {"n": 14},
    "mc-basic": {"n": 8, "R": 1024},
    "mc-strata": {"n": 12, "R": 1024},
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "work_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "paths.codes_to_bits_calls": "count",
    "paths.codes_to_bits_ns_per_path": "ns",
    "paths.codes_to_bits_bytes_per_path": "B",
    "paths.block_probability_calls": "count",
    "paths.block_probability_us_per_call": "us",
    "mc.allocate_strata_ms": "ms",
    "mc.mc_stream_calls": "count",
    "mc.mc_stream_us_per_call": "us",
    "mc.self_us_per_stratum": "us",
    "mc.sample_bits_ns_per_draw": "ns",
    "mc.s_to_se_0.01": "s",
    "payoffs.payoff_batch_calls": "count",
    "payoffs.payoff_batch_ns_per_row": "ns",
    "payoffs.nonzero_share": "ratio",
    "exact.self_ns_per_path": "ns",
    "exact.pool_busy_share": "ratio",
    "exact.parallel_efficiency": "ratio",
    "exact.leaf_formula_us": "us",
    "model.derive_crr_us": "us",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_share": "ratio",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_package():
    """Import binpaths from this checkout's src/, and nowhere else."""
    if not (SRC / "binpaths" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'binpaths'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import binpaths

    if Path(binpaths.__file__).resolve().parent != (SRC / "binpaths").resolve():
        raise SystemExit(f"error: imported binpaths from {binpaths.__file__}, not {SRC}")
    return binpaths


def setup_samples(workload: str, seed: int, count: int, env: dict) -> list:
    """Probe set-up `count` times in fresh interpreters; returns the probe records."""
    probes = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        record = json.loads(line)
        record["setup_s"] = wall
        probes.append(record)
    return probes


def interpreter_s(count: int) -> float:
    walls = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def run_pass(units, k: int, tracer) -> tuple:
    """One pass over the units: (samples, attempted, failed)."""
    samples = []
    attempted = failed = 0
    for unit in units:
        try:
            got = unit.run(k, tracer)
        except Exception:  # a failed operation is counted, and the run goes on
            log(f"pass {k}: operation raised\n{traceback.format_exc()}")
            attempted += unit.ops
            failed += unit.ops
            continue
        samples += got
        attempted += len(got)
    return samples, attempted, failed


def keep_going(start: float, step: float, seconds: float) -> bool:
    """Run another step only if that ends nearer to `seconds` than stopping now."""
    return time.perf_counter() - start + step / 2 < seconds


def timed_run(plan, seconds: float) -> dict:
    samples = []
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        got, a, f = run_pass(plan.units, passes, None)
        samples += got
        attempted += a
        failed += f
        passes += 1
        if not keep_going(start, time.perf_counter() - t0, seconds):
            break
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "passes": passes, "measured_s": time.perf_counter() - start}


def traced_run(plan, tracer, seconds: float) -> dict:
    """Pairs of one untraced and one traced pass of the same work.

    The order inside a pair alternates.  Both passes of a pair use the
    same pass index, so they make identical calls and must give
    bit-identical values.
    """
    plain, traced = [], []
    plain_s = traced_s = 0.0
    attempted = failed = mismatched = pairs = 0
    start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        got = {}
        for with_trace in ((False, True) if pairs % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if with_trace:
                with tracer.installed(run=pairs + 1):
                    got[with_trace] = run_pass(plan.trace_units, pairs, tracer)
                traced_s += time.perf_counter() - t0
            else:
                got[with_trace] = run_pass(plan.trace_units, pairs, None)
                plain_s += time.perf_counter() - t0
            attempted += got[with_trace][1]
            failed += got[with_trace][2]
        a, b = got[False][0], got[True][0]
        if [(s.key, s.value, s.se) for s in a] != [(s.key, s.value, s.se) for s in b]:
            mismatched += 1
            log(f"pass {pairs}: traced values differ from untraced values")
        plain += a
        traced += b
        pairs += 1
        if not keep_going(start, time.perf_counter() - t_pair, seconds):
            break
    # A mismatch is counted as failed by the check, which holds every
    # traced sample to the untraced sample with the same key.
    return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
            "mismatched_pairs": mismatched, "passes": pairs,
            "overhead_share": (traced_s - plain_s) / plain_s}


def host_record(bp, nproc: int) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "binpaths": bp.__version__,
        "git_commit": commit,
    }


def peak_rss_mb(samples) -> float:
    """Peak RSS of the process that ran the workload's operations.

    CLI calls run in child processes, each measured on its own; the
    largest counts.  Other workloads run in this process; ru_maxrss is
    in KiB.
    """
    children = [s.child_rss_mb for s in samples if s.child_rss_mb is not None]
    if children:
        return max(children)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bp = import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    build = workloads.WORKLOADS[args.workload]
    env = workloads.child_env()

    probes = setup_samples(args.workload, args.seed,
                           TRACE_SETUP_PROBES if args.trace else SETUP_PROBES, env)
    tracer = spans.Tracer() if args.trace else None
    plan = build(args.seed, tracer)
    if args.workload in WARM_SIZES:
        run_pass(build(args.seed, **WARM_SIZES[args.workload]).units, 0, None)

    if args.trace:
        run = traced_run(plan, tracer, args.seconds)
        checked = run["plain"] + run["traced"]
    else:
        run = timed_run(plan, args.seconds)
        checked = run["samples"]
    failures = plan.check(checked, tracer)
    for reason in sorted(set(failures.values())):
        log(f"check failed: {reason}")
    attempted = run["attempted"]
    failed = run["failed"] + len(failures)

    if args.trace:
        figures = workloads.summarize(run["plain"], plan.cell_time)
        metrics = spans.layer_metrics(tracer.spans, run["passes"], os.cpu_count() or 1)
        cli_main = [s.wall for s in run["plain"] if s.kind == "cli"]
        metrics.update({
            "mc.s_to_se_0.01": figures["mc_s_to_se_0.01"],
            "exact.parallel_efficiency": figures["exact_parallel_efficiency"],
            "cli.interpreter_s": interpreter_s(TRACE_SETUP_PROBES),
            "cli.import_s": statistics.median(p["import_s"] for p in probes),
            "cli.main_s": statistics.median(cli_main) if cli_main else 0.0,
            "trace.overhead_share": run["overhead_share"],
        })
        units = PER_LAYER_UNITS
    else:
        figures = workloads.summarize(run["samples"], plan.cell_time)
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": peak_rss_mb(run["samples"]),
            "pass_s": figures["pass_s"],
            "work_per_s": figures["work_per_s"],
        }
        units = END_TO_END
    metrics = {name: metrics[name] for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(bp, workloads.NPROC),
        "cell_order": plan.order,
        "passes": run["passes"],
        "mismatched_traced_pairs": run.get("mismatched_pairs"),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": sorted(set(failures.values())),
        "setup_probes": probes,
        "figures": figures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": [vars(s) for s in checked],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s._asdict()) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run['passes']} passes, {attempted} operations, {failed} failed "
          f"(failed_ratio {record['failed_ratio']:.4g})")
    if args.workload == "cli-calls" and not args.trace:
        print(f"cli_call_s_p50 {figures['cli_call_s_p50']:.6g} s over "
              f"{figures['cli_calls']} calls")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
