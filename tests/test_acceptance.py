"""End-to-end acceptance checks for the valuation engines.

Each test pins one advertised guarantee at its stated tolerance and
runtime budget.  Statistical checks use fixed seeds, so runs are
reproducible; tolerance bands are sized so a correct implementation
passes with large margin.
"""

import math
import os
import time

import numpy as np
import pytest

from binpaths import (
    MarketInputs,
    McConfig,
    PayoffKind,
    TreeParams,
    ValuationRequest,
    block_probability,
    derive_crr,
    estimate_basic,
    estimate_partitioned,
    estimate_partitioned_equal,
    estimate_shared,
    iter_block,
    make_partition,
    run_bench,
    run_repetitions,
    value_exact_parallel,
    value_exact_serial,
    value_leaf_formula,
)
from binpaths.cli import main

HEAVY_TAIL_PUT = dict(K=100.0, S0=20.0, q=0.06, sigma=3.0, T=1.0)


def _request(kind, *, S0, K, q, sigma, T, N, workers=1, force_large=False):
    inputs = MarketInputs(S0=S0, K=K, q=q, sigma=sigma, T=T, N=N)
    return ValuationRequest(
        inputs=inputs,
        params=derive_crr(inputs),
        kind=kind,
        workers=workers,
        force_large=force_large,
    )


def test_01_leaf_formula_matches_enumeration_on_parameter_grid():
    t0 = time.perf_counter()
    combos = [
        (0.20, 0.00, 0.80),
        (0.30, 0.06, 1.00),
        (0.60, -0.01, 1.25),
    ]
    checked = 0
    for sigma, q, moneyness in combos:
        for n in (8, 12, 16, 20):
            checked += 1
            for kind in (PayoffKind.EUROPEAN_CALL, PayoffKind.EUROPEAN_PUT):
                req = _request(
                    kind, S0=10.0, K=10.0 * moneyness, q=q, sigma=sigma, T=1.0, N=n
                )
                serial = value_exact_serial(req)
                leaf = value_leaf_formula(req)
                assert abs(serial - leaf) <= 1e-10 * max(abs(serial), abs(leaf), 1e-300), (
                    f"sigma={sigma} q={q} K/S0={moneyness} N={n} {kind.value}: "
                    f"{serial} vs {leaf}"
                )
    assert checked == 12
    assert time.perf_counter() - t0 < 30.0


def test_02_partition_is_exact_cover_with_unit_mass():
    t0 = time.perf_counter()
    for n in (10, 14):
        inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=n)
        params = derive_crr(inputs)
        for m in (1, 2, 3, 4, 5, 8, 16):
            part = make_partition(n, m)
            visits = np.zeros(1 << n, dtype=np.int64)
            for rank in range(m):
                for path in iter_block(part, rank):
                    visits[path.code] += 1
            assert np.all(visits == 1), f"N={n} M={m}: not an exact cover"
            total_mass = sum(block_probability(params, part, r) for r in range(m))
            assert abs(total_mass - 1.0) <= 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_03_parallel_value_invariant_in_worker_count():
    t0 = time.perf_counter()
    for kind in PayoffKind:
        values = []
        for m in (1, 2, 4, 8, 16):
            req = _request(
                kind, S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=20, workers=m
            )
            values.append(value_exact_parallel(req))
        for a in values:
            for b in values:
                assert a == b, f"{kind.value}: {values}"
    assert time.perf_counter() - t0 < 120.0


def test_04_hand_enumerated_toy_tree_values():
    inputs = MarketInputs(S0=4.0, K=5.0, q=0.0, sigma=0.3, T=1.0, N=2)
    params = TreeParams(dt=0.5, u=2.0, d=0.5, beta=1.25, up_probs=np.full(2, 0.5))
    expected = {
        PayoffKind.EUROPEAN_PUT: 1.5,
        PayoffKind.ASIAN_PUT: 1.375,
        PayoffKind.FIXED_LOOKBACK_PUT: 2.0,
    }
    for kind, want in expected.items():
        req = ValuationRequest(inputs=inputs, params=params, kind=kind)
        assert abs(value_exact_serial(req) - want) <= 1e-12


def test_05_basic_mc_converges_to_exact_with_calibrated_variance():
    t0 = time.perf_counter()
    req = _request(PayoffKind.ASIAN_PUT, N=16, **HEAVY_TAIL_PUT)
    exact = value_exact_serial(req)
    reps = 200
    summary = run_repetitions(
        estimate_basic, req, McConfig(R=1 << 14, seed=101, reps=reps)
    )
    se = summary.values.std(ddof=1) / math.sqrt(reps)
    assert abs(summary.mean_value - exact) <= 4.0 * se, (
        f"mean {summary.mean_value} vs exact {exact}, se {se}"
    )
    emp = summary.empirical_variance
    assert abs(summary.mean_variance - emp) <= 0.25 * emp, (
        f"mean variance estimate {summary.mean_variance} vs empirical {emp}"
    )
    assert time.perf_counter() - t0 < 300.0


def test_06_single_runs_reproduce_published_reference_values():
    t0 = time.perf_counter()
    targets = {PayoffKind.ASIAN_PUT: 82.115, PayoffKind.FIXED_LOOKBACK_PUT: 93.196}
    for kind, target in targets.items():
        req = _request(kind, N=32, **HEAVY_TAIL_PUT)
        est = estimate_basic(req, McConfig(R=1 << 16, seed=202))
        assert abs(est.value - target) <= 5.0 * est.std_error, (
            f"{kind.value}: {est.value} +- {est.std_error} vs {target}"
        )
    assert time.perf_counter() - t0 < 120.0


def test_07_partitioned_variance_shrinks_with_stratum_count():
    t0 = time.perf_counter()
    req = _request(PayoffKind.ASIAN_PUT, N=16, **HEAVY_TAIL_PUT)
    reps = 500
    stats = {}
    for m in (1, 4, 16, 64):
        summary = run_repetitions(
            estimate_partitioned, req, McConfig(R=1 << 10, M=m, seed=303, reps=reps)
        )
        variances = summary.variances
        stats[m] = (
            summary.mean_variance,
            variances.std(ddof=1) / math.sqrt(reps),
        )
    ms = [1, 4, 16, 64]
    for prev, nxt in zip(ms, ms[1:]):
        mv_prev, se_prev = stats[prev]
        mv_next, se_next = stats[nxt]
        assert mv_next <= mv_prev + math.hypot(se_prev, se_next), (
            f"variance estimate rose from M={prev} ({mv_prev}) to M={nxt} ({mv_next})"
        )
    assert stats[64][0] <= 0.70 * stats[1][0], (
        f"M=64 variance {stats[64][0]} not below 70% of M=1 {stats[1][0]}"
    )
    assert time.perf_counter() - t0 < 600.0


def test_08_estimator_variance_ordering_under_equal_allocation():
    t0 = time.perf_counter()
    req = _request(PayoffKind.ASIAN_PUT, N=12, **HEAVY_TAIL_PUT)
    reps = 500
    r = 1024

    def emp_and_se(estimator, m):
        cfg = McConfig(R=r, M=m, seed=404, reps=reps)
        summary = run_repetitions(estimator, req, cfg)
        emp = summary.empirical_variance
        return emp, emp * math.sqrt(2.0 / (reps - 1))

    basic_emp, basic_se = emp_and_se(estimate_basic, 1)
    for m in (2, 8, 32):
        pe_emp, pe_se = emp_and_se(estimate_partitioned_equal, m)
        sh_emp, sh_se = emp_and_se(estimate_shared, m)
        assert pe_emp <= sh_emp + math.hypot(pe_se, sh_se), (
            f"M={m}: equal-allocation variance {pe_emp} above shared {sh_emp}"
        )
        assert sh_emp <= basic_emp + math.hypot(sh_se, basic_se), (
            f"M={m}: shared variance {sh_emp} above basic {basic_emp}"
        )
    assert time.perf_counter() - t0 < 600.0


def test_09_parallel_efficiency_on_multicore_hardware():
    cores = os.cpu_count() or 1
    if cores < 8:
        pytest.skip(
            f"needs a machine with at least 8 physical cores to measure scaling; "
            f"this host reports {cores}"
        )
    t0 = time.perf_counter()
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=24)
    params = derive_crr(inputs)

    def runner(n, m):
        req = ValuationRequest(
            inputs=inputs, params=params, kind=PayoffKind.ASIAN_PUT, workers=m
        )
        value_exact_parallel(req)

    records = run_bench([(24, m) for m in (1, 2, 4, 8)], runner, repetitions=1)
    for rec in records:
        assert rec.efficiency >= 0.6, (
            f"M={rec.m}: efficiency {rec.efficiency:.3f} below 0.6"
        )
    assert time.perf_counter() - t0 < 900.0


def test_10_bit_identical_results_across_runs_and_thread_counts():
    req = _request(PayoffKind.ASIAN_PUT, N=16, **HEAVY_TAIL_PUT)
    cfg = McConfig(R=2048, M=8, seed=505)

    runs = [estimate_partitioned(req, cfg) for _ in range(3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]

    for estimator in (estimate_partitioned, estimate_partitioned_equal, estimate_shared):
        lone = estimator(req, cfg, eval_threads=1)
        for threads in (2, 4, 8):
            threaded = estimator(req, cfg, eval_threads=threads)
            assert threaded.value == lone.value
            assert threaded.variance == lone.variance

    basics = [estimate_basic(req, McConfig(R=2048, seed=505)) for _ in range(3)]
    assert basics[1] == basics[0] and basics[2] == basics[0]

    argv = [
        "price", "--method", "smc", "--payoff", "asian-put", "--S0", "20",
        "--K", "100", "--q", "0.06", "--sigma", "3.0", "--T", "1", "--N", "16",
        "--samples", "1024", "--workers", "8", "--seed", "77", "--format", "json",
    ]
    import io
    import json
    from contextlib import redirect_stdout

    outputs = []
    for threads in ("1", "2", "4"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(argv + ["--eval-threads", threads]) == 0
        outputs.append(json.loads(buf.getvalue()))
    for later in outputs[1:]:
        assert later["value"] == outputs[0]["value"]
        assert later["variance"] == outputs[0]["variance"]
