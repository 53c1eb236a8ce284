"""The benchmark's workloads, built from the workload seed.

Every workload prices on the paper's market inputs (S0=20, K=100, q=0.06,
sigma=3, T=1) and runs as a closed loop: one caller issues one call at a
time, and worker counts and ``eval_threads`` never exceed the host's
nproc.  The seed only shuffles the order of cells and draws the MC stream
seeds; the engines receive the generated requests and nothing else.

A workload is a list of units run in order once per pass.  A unit makes
one or more timed operations and returns one ``Sample`` for each.  After
the passes, the workload's check marks the samples that are wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import binpaths as bp
from binpaths import cli

ROOT = Path(__file__).resolve().parent.parent
MARKET = {"S0": 20.0, "K": 100.0, "q": 0.06, "sigma": 3.0, "T": 1.0}
NPROC = len(os.sched_getaffinity(0))
# Distinct MC stream seeds per run; later passes reuse them, so every
# repeated call must reproduce its first result bit for bit.
SEED_CYCLE = 8
# Published N=32 values for the basic MC check.
REFERENCES = {"asian-put": 82.115, "lookback-put": 93.196}
Z_LIMIT = 5.0
CLI_TIMEOUT_S = 60


@dataclass
class Sample:
    cell: str  # the timed cell; walls are grouped by it
    key: str  # cell plus MC seed: samples with one key must agree bit for bit
    kind: str  # "exact", "mc" or "cli"
    wall: float
    value: float
    se: float
    work: int  # paths, draws or CLI calls
    threads: int
    efficiency: Optional[float] = None
    seed: Optional[int] = None  # MC stream seed, if any
    child_rss_mb: Optional[float] = None  # peak RSS of the CLI child, if any


@dataclass
class Unit:
    run: Callable  # run(pass_index, tracer) -> list of Sample
    ops: int  # operations the unit times, counted as failed if it raises


@dataclass
class Plan:
    units: list  # timed run
    trace_units: list  # traced run: the same work, in process
    check: Callable  # check(samples, tracer) -> {sample index: reason}
    order: list  # cell order, recorded with the results
    cell_time: Callable = statistics.median  # a cell's time from its walls


def traced(tracer, name, items, extra, fn, *args, **kwargs):
    """fn(*args) inside a root span when tracing, plain otherwise."""
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.root(name, items, extra):
        return fn(*args, **kwargs)


def request(n: int, payoff: str, workers: int = 1, tracer=None) -> bp.ValuationRequest:
    inputs = bp.MarketInputs(N=n, **MARKET)
    params = traced(tracer, "model.derive_crr", 0, 0, bp.derive_crr, inputs)
    return bp.ValuationRequest(inputs=inputs, params=params,
                               kind=bp.parse_payoff(payoff), workers=workers)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _payoff(s: Sample) -> str:
    """Cell labels read "<method> <payoff> ..."."""
    return s.cell.split()[1]


def _same_key_agrees(samples, failures: dict) -> None:
    first = {}
    for i, s in enumerate(samples):
        ref = first.setdefault(s.key, s)
        if (s.value, s.se) != (ref.value, ref.se):
            failures.setdefault(i, f"{s.key}: {s.value!r} differs from first call {ref.value!r}")


# -- exact-enum ---------------------------------------------------------------

EXACT_PAYOFFS = ("asian-put", "lookback-put", "euro-call")


def exact_enum(seed: int, tracer=None, n: int = 22) -> Plan:
    rng = random.Random(seed)
    order = list(EXACT_PAYOFFS)
    rng.shuffle(order)
    counts = sorted({1, NPROC})
    reqs = {(p, m): request(n, p, m, tracer) for p in order for m in counts}

    def unit(payoff):
        def run(k, tracer):
            values = {}

            def runner(n_, m):
                values[m] = traced(tracer, "exact.value_exact_parallel", 1 << n_, m,
                                   bp.value_exact_parallel, reqs[(payoff, m)])

            # run_bench times each worker count and derives the efficiency.
            records = bp.run_bench([(n, m) for m in counts], runner, repetitions=1)
            return [Sample(cell=f"exact {payoff} N={n} workers={r.m}",
                           key=f"exact {payoff} N={n} workers={r.m}", kind="exact",
                           wall=r.wall_seconds, value=values[r.m], se=0.0,
                           work=1 << n, threads=r.m,
                           efficiency=r.efficiency if r.m != counts[0] else None)
                    for r in records]

        return Unit(run=run, ops=len(counts))

    def check(samples, tracer):
        failures = {}
        _same_key_agrees(samples, failures)
        # A unit yields both worker counts or neither, so every payoff
        # with samples has a workers=1 value.
        serial = {_payoff(s): s.value for s in samples if s.threads == 1}
        leaf = traced(tracer, "exact.value_leaf_formula", 0, 0,
                      bp.value_leaf_formula, reqs[("euro-call", 1)])
        for i, s in enumerate(samples):
            base = serial[_payoff(s)]
            if not _close(s.value, base, 1e-9):
                failures.setdefault(i, f"{s.cell}: {s.value!r} vs workers=1 {base!r}")
            if _payoff(s) == "euro-call" and not _close(s.value, leaf, 1e-10):
                failures.setdefault(i, f"{s.cell}: {s.value!r} vs leaf formula {leaf!r}")
        return failures

    units = [unit(p) for p in order]
    return Plan(units=units, trace_units=units, check=check, order=order)


# -- mc-basic and mc-strata ---------------------------------------------------

ESTIMATORS = {
    "mc": ("mc.estimate_basic", bp.estimate_basic),
    "pmc": ("mc.estimate_partitioned", bp.estimate_partitioned),
    "pmc-equal": ("mc.estimate_partitioned_equal", bp.estimate_partitioned_equal),
    "smc": ("mc.estimate_shared", bp.estimate_shared),
}


def _mc_unit(method, req, R, M, threads, seeds, payoff) -> Unit:
    span, fn = ESTIMATORS[method]
    kwargs = {} if method == "mc" else {"eval_threads": threads}
    cell = f"{method} {payoff} N={req.inputs.N} R={R} M={M} eval_threads={threads}"

    def run(k, tracer):
        seed = seeds[k % len(seeds)]
        cfg = bp.McConfig(R=R, M=M, seed=seed)
        t0 = time.perf_counter()
        est = traced(tracer, span, R, M, fn, req, cfg, **kwargs)
        wall = time.perf_counter() - t0
        return [Sample(cell=cell, key=f"{method} {payoff} R={R} M={M} seed={seed}",
                       kind="mc", wall=wall, value=est.value, se=est.std_error,
                       work=est.R_used, threads=threads, seed=seed)]

    return Unit(run=run, ops=1)


def _mc_seeds(rng: random.Random) -> list:
    return [rng.randrange(1 << 32) for _ in range(SEED_CYCLE)]


def _within_z(samples, failures: dict, reference: Callable) -> None:
    for i, s in enumerate(samples):
        ref = reference(s)
        if not (s.se > 0.0 and abs(s.value - ref) <= Z_LIMIT * s.se):
            failures.setdefault(i, f"{s.key}: {s.value!r} +- {s.se!r} vs reference {ref!r}")


MC_BASIC_PAYOFFS = ("asian-put", "lookback-put")


def mc_basic(seed: int, tracer=None, n: int = 32, R: int = 1 << 16) -> Plan:
    rng = random.Random(seed)
    order = list(MC_BASIC_PAYOFFS)
    rng.shuffle(order)
    seeds = _mc_seeds(rng)
    units = [_mc_unit("mc", request(n, p, tracer=tracer), R, 1, 1, seeds, p) for p in order]

    def check(samples, tracer):
        failures = {}
        _same_key_agrees(samples, failures)
        _within_z(samples, failures, lambda s: REFERENCES[_payoff(s)])
        return failures

    return Plan(units=units, trace_units=units, check=check, order=order,
                # Median walls spread too far between runs; see README.md.
                cell_time=min)


def mc_strata(seed: int, tracer=None, n: int = 16, R: int = 1 << 12) -> Plan:
    rng = random.Random(seed)
    # (method, M, eval_threads, draws); with nproc=1 the threaded cell is a
    # duplicate.  At M=1024, R draws leave hundreds of strata with one draw
    # each, and the pooled standard error under-reports (see README.md), so
    # those cells draw 8R.
    cells = list(dict.fromkeys([("pmc", 64, 1, R), ("pmc", 1024, 1, 8 * R),
                                ("pmc", 1024, NPROC, 8 * R), ("pmc-equal", 64, 1, R),
                                ("smc", 64, 1, R)]))
    rng.shuffle(cells)
    seeds = _mc_seeds(rng)
    req = request(n, "asian-put", tracer=tracer)
    units = [_mc_unit(method, req, draws, M, t, seeds, "asian-put")
             for method, M, t, draws in cells]

    def check(samples, tracer):
        failures = {}
        # Keys leave out eval_threads, so this also holds the threaded cell
        # to the single-thread result of the same seed.
        _same_key_agrees(samples, failures)
        exact_value = bp.value_exact_serial(req)
        _within_z(samples, failures, lambda s: exact_value)
        return failures

    order = [f"{m} M={M} R={r} eval_threads={t}" for m, M, t, r in cells]
    return Plan(units=units, trace_units=units, check=check, order=order)


# -- cli-calls -----------------------------------------------------------------

# (method, payoff, N, R) of each CLI call; the mc call also gets a seed.
CLI_CALLS = (
    ("leaf", "euro-call", 60, None),
    ("exact", "asian-put", 12, None),
    ("mc", "asian-put", 32, 4096),
)


def cli_argv(method: str, payoff: str, n: int, R, seed) -> list:
    argv = ["price", "--method", method, "--payoff", payoff, "--N", str(n)]
    for name, value in MARKET.items():
        argv += [f"--{name}", repr(value)]
    if R is not None:
        argv += ["--samples", str(R), "--seed", str(seed)]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in CLI output")


def parse_report(text: str) -> dict:
    """The CLI's JSON report, refusing NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_child(argv) -> tuple:
    """One CLI call in a child process: (report, the child's peak RSS in MB).

    The child is reaped with os.wait4, which returns its own resource
    usage; ru_maxrss is in KiB.
    """
    proc = subprocess.Popen([sys.executable, "-m", "binpaths", *argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {''.join(err).strip()}")
    return parse_report(out), usage.ru_maxrss / 1024.0


def run_cli_in_process(argv) -> tuple:
    """The same call through cli.main, with stdout captured: (report, None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    return parse_report(out.getvalue()), None


def cli_calls(seed: int, tracer=None) -> Plan:
    rng = random.Random(seed)
    calls = list(CLI_CALLS)
    rng.shuffle(calls)
    seeds = _mc_seeds(rng)
    reqs = {n: request(n, payoff, tracer=tracer) for _, payoff, n, _ in calls}

    def unit(method, payoff, n, R, call, span):
        cell = f"{method} {payoff} N={n}" + (f" R={R}" if R else "")

        def run(k, tracer):
            seed = seeds[k % len(seeds)] if R else None
            argv = cli_argv(method, payoff, n, R, seed)
            t0 = time.perf_counter()
            report, rss_mb = traced(tracer, span, 0, 0, call, argv)
            wall = time.perf_counter() - t0
            return [Sample(cell=cell, key=" ".join(argv), kind="cli", wall=wall,
                           value=report["value"], se=report["std_error"], work=1,
                           threads=1, seed=seed, child_rss_mb=rss_mb)]

        return Unit(run=run, ops=1)

    units = [unit(*c, run_cli_child, "cli.child") for c in calls]
    trace_units = [unit(*c, run_cli_in_process, "cli.main") for c in calls]
    methods = {f"{m} {p} N={n}" + (f" R={R}" if R else ""): (m, n, R) for m, p, n, R in calls}

    def package_result(s, tracer) -> tuple:
        """The same call made on the package directly: (value, std_error)."""
        method, n, R = methods[s.cell]
        if method == "leaf":
            return traced(tracer, "exact.value_leaf_formula", 0, 0,
                          bp.value_leaf_formula, reqs[n]), 0.0
        if method == "exact":
            return bp.value_exact_parallel(reqs[n]), 0.0
        est = bp.estimate_basic(reqs[n], bp.McConfig(R=R, seed=s.seed))
        return est.value, est.std_error

    def check(samples, tracer):
        failures = {}
        _same_key_agrees(samples, failures)
        refs = {}
        for i, s in enumerate(samples):
            if s.key not in refs:
                refs[s.key] = package_result(s, tracer)
            value, se = refs[s.key]
            if (s.value, s.se) != (value, se):
                failures.setdefault(i, f"{s.key}: CLI gave {s.value!r}, package {value!r}")
        return failures

    return Plan(units=units, trace_units=trace_units, check=check, order=list(methods),
                # Median walls spread too far between runs; see README.md.
                cell_time=min)


WORKLOADS = {
    "exact-enum": exact_enum,
    "mc-basic": mc_basic,
    "mc-strata": mc_strata,
    "cli-calls": cli_calls,
}


def summarize(samples, cell_time) -> dict:
    """End-to-end figures of one set of passes.

    A cell's time is cell_time over its calls' walls: the median, unless
    the workload's plan names another statistic (see README.md).  pass_s
    sums the cells' times.  work_per_s divides the work of the
    single-thread cells by the sum of their times.  The parallel
    efficiency is the mean over payoffs of run_bench's median efficiency
    at workers=nproc, and s_to_se_0.01 scales each MC cell's time by
    (median se / 0.01)^2.
    """
    cells = {}
    for s in samples:
        cells.setdefault(s.cell, []).append(s)
    times = {c: cell_time([x.wall for x in group]) for c, group in cells.items()}
    single = [c for c, group in cells.items() if group[0].threads == 1]
    effs = [statistics.median(x.efficiency for x in group)
            for group in cells.values() if group[0].efficiency is not None]
    mc_cells = [c for c, group in cells.items() if group[0].kind == "mc"]
    cli_walls = [s.wall for s in samples if s.kind == "cli"]
    return {
        "pass_s": sum(times.values()),
        "work_per_s": sum(cells[c][0].work for c in single) / sum(times[c] for c in single),
        "exact_parallel_efficiency": statistics.fmean(effs) if effs else 0.0,
        "mc_s_to_se_0.01": sum(
            (times[c] * (statistics.median(x.se for x in cells[c]) / 0.01) ** 2
             for c in mc_cells), 0.0),
        "cli_call_s_p50": statistics.median(cli_walls) if cli_walls else 0.0,
        "cli_calls": len(cli_walls),
        "cells": {c: {"calls": len(cells[c]), "time_s": times[c]} for c in cells},
    }
