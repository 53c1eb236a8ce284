import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from binpaths import (
    EnumerationGuard,
    InvalidWorkerCount,
    LengthMismatch,
    MAX_DEPTH,
    MarketInputs,
    NonConstantProbs,
    NonFiniteValue,
    PathDependentPayoff,
    PayoffKind,
    TreeParams,
    ValuationRequest,
    asset_path,
    derive_crr,
    make_partition,
    block_code_ranges,
    value_exact_parallel,
    value_exact_serial,
    value_leaf_formula,
    with_custom_probs,
)
from binpaths.model import _binomial_pmf

from oracles import brute_pmf, brute_value

TOY_INPUTS = MarketInputs(S0=4.0, K=5.0, q=0.0, sigma=0.3, T=1.0, N=2)
TOY_PARAMS = TreeParams(dt=0.5, u=2.0, d=0.5, beta=1.25, up_probs=np.full(2, 0.5))


def _toy_req(kind, workers=1):
    return ValuationRequest(inputs=TOY_INPUTS, params=TOY_PARAMS, kind=kind, workers=workers)


def test_hand_enumerated_values():
    assert value_exact_serial(_toy_req(PayoffKind.EUROPEAN_PUT)) == pytest.approx(1.5, abs=1e-12)
    assert value_exact_serial(_toy_req(PayoffKind.ASIAN_PUT)) == pytest.approx(1.375, abs=1e-12)
    assert value_exact_serial(_toy_req(PayoffKind.FIXED_LOOKBACK_PUT)) == pytest.approx(2.0, abs=1e-12)
    assert value_exact_serial(_toy_req(PayoffKind.EUROPEAN_CALL)) == pytest.approx(2.75, abs=1e-12)


def test_serial_matches_brute_force_on_random_trees():
    rng = np.random.default_rng(9)
    for n in (6, 9):
        for _ in range(3):
            inputs = MarketInputs(
                S0=float(rng.uniform(2, 30)),
                K=float(rng.uniform(2, 30)),
                q=float(rng.uniform(-0.02, 0.1)),
                sigma=float(rng.uniform(0.1, 1.5)),
                T=float(rng.uniform(0.25, 2.0)),
                N=n,
            )
            params = derive_crr(inputs)
            for kind in PayoffKind:
                req = ValuationRequest(inputs=inputs, params=params, kind=kind)
                want = brute_value(
                    inputs.S0, inputs.K, params.u, params.d,
                    [float(p) for p in params.up_probs], inputs.q, inputs.T,
                    kind.value,
                )
                assert value_exact_serial(req) == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_degenerate_all_up_distribution():
    inputs = MarketInputs(S0=2.0, K=1.0, q=0.05, sigma=0.0, T=1.0, N=6)
    params = derive_crr(inputs)
    disc = math.exp(-0.05)
    terminal = 2.0 * params.u**6
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.EUROPEAN_CALL)
    assert value_exact_serial(req) == pytest.approx(disc * (terminal - 1.0), rel=1e-13)


def test_parallel_single_worker_is_bitwise_serial():
    for kind in PayoffKind:
        serial = value_exact_serial(_toy_req(kind))
        parallel = value_exact_parallel(_toy_req(kind, workers=1))
        assert parallel == serial

    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=14)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.ASIAN_PUT)
    assert value_exact_parallel(req) == value_exact_serial(req)


def test_parallel_one_path_per_worker():
    got = value_exact_parallel(_toy_req(PayoffKind.EUROPEAN_PUT, workers=4))
    assert got == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("workers", [2, 3, 4, 5, 7, 8])
def test_parallel_agrees_with_serial_across_worker_counts(workers):
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=12)
    params = derive_crr(inputs)
    for kind in PayoffKind:
        req = ValuationRequest(inputs=inputs, params=params, kind=kind, workers=workers)
        serial = value_exact_serial(req)
        assert value_exact_parallel(req) == serial


def test_parallel_deterministic_for_fixed_worker_count():
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=12)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.FIXED_LOOKBACK_PUT, workers=5)
    assert value_exact_parallel(req) == value_exact_parallel(req)


def test_partition_ranges_account_for_every_path():
    for n, m in ((10, 3), (10, 4), (14, 7), (12, 16)):
        part = make_partition(n, m)
        total = sum(
            hi - lo for rank in range(m) for lo, hi in block_code_ranges(part, rank)
        )
        assert total == 1 << n


def test_discount_rate_only_rescales_value():
    params = TreeParams(dt=0.5, u=2.0, d=0.5, beta=1.25, up_probs=np.full(2, 0.6))
    lo = MarketInputs(S0=4.0, K=5.0, q=0.0, sigma=0.3, T=1.0, N=2)
    hi = MarketInputs(S0=4.0, K=5.0, q=0.07, sigma=0.3, T=1.0, N=2)
    for kind in PayoffKind:
        v_lo = value_exact_serial(ValuationRequest(inputs=lo, params=params, kind=kind))
        v_hi = value_exact_serial(ValuationRequest(inputs=hi, params=params, kind=kind))
        assert v_hi == pytest.approx(v_lo * math.exp(-0.07), rel=1e-12)


def test_enumeration_guard_beyond_depth_28():
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=29)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.EUROPEAN_PUT)
    with pytest.raises(EnumerationGuard):
        value_exact_serial(req)
    with pytest.raises(EnumerationGuard):
        value_exact_parallel(req)
    # the opt-in flag is carried on the request itself
    assert ValuationRequest(
        inputs=inputs, params=params, kind=PayoffKind.EUROPEAN_PUT, force_large=True
    ).force_large


def test_worker_count_validation():
    for bad in (0, -1, True, 2.0):
        with pytest.raises(InvalidWorkerCount):
            ValuationRequest(inputs=TOY_INPUTS, params=TOY_PARAMS,
                             kind=PayoffKind.EUROPEAN_PUT, workers=bad)
    req = _toy_req(PayoffKind.EUROPEAN_PUT, workers=5)
    with pytest.raises(InvalidWorkerCount):
        value_exact_parallel(req)  # 5 > 2^2 paths


def test_request_rejects_mismatched_tree():
    inputs = MarketInputs(S0=4.0, K=5.0, q=0.0, sigma=0.3, T=1.0, N=3)
    with pytest.raises(LengthMismatch):
        ValuationRequest(inputs=inputs, params=TOY_PARAMS, kind=PayoffKind.EUROPEAN_PUT)


def test_leaf_formula_toy_values():
    assert value_leaf_formula(_toy_req(PayoffKind.EUROPEAN_PUT)) == pytest.approx(1.5, abs=1e-12)
    one = MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=1)
    params = TreeParams(dt=1.0, u=2.0, d=0.5, beta=1.25, up_probs=np.full(1, 0.5))
    req = ValuationRequest(inputs=one, params=params, kind=PayoffKind.EUROPEAN_CALL)
    assert value_leaf_formula(req) == pytest.approx(0.5, abs=1e-13)


def test_leaf_formula_equals_enumeration_on_grid():
    for sigma, q, moneyness in ((0.2, 0.0, 0.8), (0.5, 0.06, 1.0), (1.0, -0.01, 1.3)):
        for n in (8, 12):
            inputs = MarketInputs(S0=10.0, K=10.0 * moneyness, q=q, sigma=sigma, T=1.0, N=n)
            params = derive_crr(inputs)
            for kind in (PayoffKind.EUROPEAN_CALL, PayoffKind.EUROPEAN_PUT):
                req = ValuationRequest(inputs=inputs, params=params, kind=kind)
                serial = value_exact_serial(req)
                leaf = value_leaf_formula(req)
                assert abs(serial - leaf) <= 1e-10 * max(1.0, abs(serial))


def test_leaf_formula_sigma_zero_degenerate_weights():
    inputs = MarketInputs(S0=2.0, K=1.0, q=0.05, sigma=0.0, T=1.0, N=6)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.EUROPEAN_CALL)
    assert value_leaf_formula(req) == pytest.approx(value_exact_serial(req), rel=1e-12)


LEAF_PROBS = (1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9)


@pytest.mark.parametrize("depths, rel", [(range(1, 501), 1e-12),
                                         ((501, 1000, 2500, 5000, 9999, 10_000), 1e-10)])
def test_leaf_weights_match_binomial_pmf(depths, rel):
    from scipy.stats import binom

    for n in depths:
        for p in LEAF_PROBS:
            got = _binomial_pmf(n, p)
            want = binom.pmf(np.arange(n + 1), n, p)
            # Relative where the oracle is at least 1e-300; below that,
            # near-subnormal values keep too few digits to compare.
            assert np.all(np.abs(got - want) <= rel * np.maximum(want, 1e-300)), (n, p)
            assert abs(math.fsum(got) - 1.0) <= 1e-12, (n, p)


def test_leaf_weights_match_exact_rationals_at_every_allowed_depth():
    for n in range(1, MAX_DEPTH + 1):
        for p in LEAF_PROBS:
            got = _binomial_pmf(n, p).tolist()
            for j, want in enumerate(brute_pmf(n, p)):
                # Relative where the pmf is at least 1e-300, as above.
                bound = Fraction(1e-13) * max(want, Fraction(1e-300))
                assert abs(Fraction(got[j]) - want) <= bound, (n, p, j)


@pytest.mark.parametrize("p, depth", [(0.5, 56), (0.25, 26)])
def test_leaf_weights_are_exact_when_every_product_fits_a_double(p, depth):
    # Weight j is C(n, j) / 2^n or C(n, j) 3^(n-j) / 4^n: up to these depths its
    # numerator, and so every partial sum of the convolution, fits in 53 bits.
    for n in range(1, depth + 1):
        assert [Fraction(w) for w in _binomial_pmf(n, p).tolist()] == brute_pmf(n, p), n


def test_leaf_weights_are_one_hot_for_certain_moves():
    assert _binomial_pmf(6, 1.0).tolist() == [0.0] * 6 + [1.0]
    assert _binomial_pmf(6, 0.0).tolist() == [1.0] + [0.0] * 6


def test_leaf_formula_rejects_path_dependent_kinds():
    with pytest.raises(PathDependentPayoff):
        value_leaf_formula(_toy_req(PayoffKind.ASIAN_PUT))
    with pytest.raises(PathDependentPayoff):
        value_leaf_formula(_toy_req(PayoffKind.FIXED_LOOKBACK_PUT))


def test_leaf_formula_rejects_varying_probs():
    inputs = MarketInputs(S0=4.0, K=5.0, q=0.0, sigma=0.3, T=1.0, N=3)
    params = with_custom_probs(inputs, [0.4, 0.5, 0.6])
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.EUROPEAN_PUT)
    with pytest.raises(NonConstantProbs):
        value_leaf_formula(req)


def test_callable_payoff_through_engine():
    def euro_put_clone(params, S0, K, path):
        from binpaths import asset_path

        return float(max(K - asset_path(params, S0, path)[-1], 0.0))

    req = ValuationRequest(inputs=TOY_INPUTS, params=TOY_PARAMS, kind=euro_put_clone)
    assert value_exact_serial(req) == pytest.approx(1.5, abs=1e-12)
    assert value_exact_parallel(
        ValuationRequest(inputs=TOY_INPUTS, params=TOY_PARAMS, kind=euro_put_clone, workers=2)
    ) == pytest.approx(1.5, abs=1e-12)


def test_tracing_hooks_resolve_and_callable_matches_builtin_twin(monkeypatch):
    # The benchmark's traced run patches these names on binpaths.exact and
    # binpaths.mc, and expects one mc_stream and one payoff_batch call per
    # estimate_basic call.  Every estimator draws through sample_rows, and
    # sample_bits, which the tracer also wraps, is left to sample_path.
    # payoffs.code_payoffs, not traced, is where every callable call runs.
    from binpaths import exact, mc, payoffs

    calls = {}
    for module, names in ((exact, ("codes_to_bits", "payoff_batch")),
                          (payoffs, ("code_payoffs",)),
                          (mc, ("payoff_batch", "block_probability", "allocate_strata",
                                "mc_stream", "sample_bits", "sample_rows"))):
        for name in names:
            fn = getattr(module, name)
            key = f"{module.__name__}.{name}"
            calls[key] = 0

            def counted(*args, _fn=fn, _key=key):
                calls[_key] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)

    mc.estimate_basic(ValuationRequest(inputs=TOY_INPUTS, params=TOY_PARAMS,
                                       kind=PayoffKind.ASIAN_PUT), mc.McConfig(R=8))
    assert calls["binpaths.mc.mc_stream"] == 1
    assert calls["binpaths.mc.payoff_batch"] == 1
    assert calls["binpaths.mc.sample_rows"] == 1

    # The stratified estimators make one stream per thread run of chunks
    # and one sample_rows call per chunk of strata, not per stratum.  p = 1
    # on step 3 leaves the even strata of M = 8 without mass, and 64 draws
    # of 3 steps fit one chunk.
    six = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=6)
    skewed = replace(derive_crr(six), up_probs=np.array([0.4, 0.5, 1.0, 0.5, 0.5, 0.5]))
    skewed_req = ValuationRequest(inputs=six, params=skewed, kind=PayoffKind.ASIAN_PUT)
    for name in ("binpaths.mc.mc_stream", "binpaths.mc.sample_rows"):
        calls[name] = 0
    est = mc.estimate_partitioned(skewed_req, mc.McConfig(R=64, M=8))
    assert [draws > 0 for _, draws, _ in est.per_stratum] == [False, True] * 4
    assert calls["binpaths.mc.mc_stream"] == 1
    assert calls["binpaths.mc.sample_rows"] == 1
    # 8 strata of 5,000 draws: their first rows 0, 5,000, ..., 35,000 fall
    # in five CHUNK_ROWS blocks, so they make five chunks, read in one
    # thread run from one stream.
    for name in ("binpaths.mc.mc_stream", "binpaths.mc.sample_rows"):
        calls[name] = 0
    mc.estimate_partitioned_equal(skewed_req, mc.McConfig(R=5000, M=8))
    assert {b * 5_000 // mc.CHUNK_ROWS for b in range(8)} == {0, 1, 2, 3, 4}
    assert calls["binpaths.mc.mc_stream"] == 1
    assert calls["binpaths.mc.sample_rows"] == 5
    assert calls["binpaths.mc.sample_bits"] == 0

    def asian_put_clone(params, S0, K, path):
        return float(max(K - asset_path(params, S0, path).mean(), 0.0))

    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=10)
    params = derive_crr(inputs)
    for workers in (1, 3, 4):
        twin = value_exact_parallel(ValuationRequest(
            inputs=inputs, params=params, kind=PayoffKind.ASIAN_PUT, workers=workers))
        got = value_exact_parallel(ValuationRequest(
            inputs=inputs, params=params, kind=asian_put_clone, workers=workers))
        assert got == pytest.approx(twin, rel=1e-12)
    # A callable runs through the one code evaluator: one batch of 1,024
    # one-path rows per call at N=10, whatever the worker count.
    assert calls["binpaths.payoffs.code_payoffs"] == 3


@pytest.mark.parametrize("n", (10, 17))
def test_callable_sees_every_path_code_once(n):
    # N=17 puts 256 rows of 128 suffixes in one batch.
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=n)
    params = derive_crr(inputs)
    for workers in (1, 3):
        seen = []

        def record(params, S0, K, path):
            assert path.n == n and type(path.code) is int
            seen.append(path.code)
            return 1.0

        value = value_exact_parallel(ValuationRequest(inputs=inputs, params=params,
                                                      kind=record, workers=workers))
        assert value == pytest.approx(math.exp(-0.06), rel=1e-14)
        if workers == 1:
            assert seen == list(range(1 << n))
        assert sorted(seen) == list(range(1 << n))


def test_non_finite_value_is_a_domain_error():
    # u^20 overflows while the weight of that path underflows: inf * 0.
    inputs = MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=40.0, T=1.0, N=20)
    req = ValuationRequest(inputs=inputs, params=derive_crr(inputs),
                           kind=PayoffKind.EUROPEAN_CALL)
    with np.errstate(all="ignore"):
        for engine in (value_exact_serial, value_exact_parallel, value_leaf_formula):
            with pytest.raises(NonFiniteValue):
                engine(req)


def _record_pools(monkeypatch, pools: list) -> None:
    """Replace the engines' thread pool with one that records its size and runs tasks inline."""
    from binpaths import exact

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr(exact, "ThreadPoolExecutor", InlinePool)


def test_one_usable_core_evaluates_ranks_without_a_pool(monkeypatch):
    from binpaths import exact

    assert 1 <= exact.usable_cores() <= (os.cpu_count() or 1)
    pools = []
    _record_pools(monkeypatch, pools)
    # N=18 joins 2^10 prefix rows in 8 batches of 128, enough for 4 threads.
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=18)
    req = ValuationRequest(inputs=inputs, params=derive_crr(inputs),
                           kind=PayoffKind.ASIAN_PUT, workers=4)
    monkeypatch.setattr(exact, "usable_cores", lambda: 4)
    pooled = value_exact_parallel(req)
    assert pools == [4]
    monkeypatch.setattr(exact, "usable_cores", lambda: 1)
    assert value_exact_parallel(req) == pooled
    assert pools == [4]
    assert value_exact_parallel(replace(req, workers=1)) == pooled

    # One rank per path: the engine still opens at most one thread per
    # usable core, not one per rank, and gives the one-worker bits.
    monkeypatch.setattr(exact, "usable_cores", lambda: 4)
    pools.clear()
    assert value_exact_parallel(replace(req, workers=1 << 18)) == pooled
    assert pools == [4]


def test_thread_requests_are_capped_at_the_usable_cores(monkeypatch):
    # Every engine sizes its pool in _map_in_order: eight threads asked of
    # two usable cores give a pool of two, whose runs, here called inline,
    # give the one-thread estimate bit for bit.  The shared estimator joins
    # a callable in batches of rows; it sums a built-in by levels, inline.
    # At M = 1 every estimator has one chunk or one batch, so no pool opens
    # however many draws it makes.
    from binpaths import exact, mc

    pools = []
    _record_pools(monkeypatch, pools)
    monkeypatch.setattr(exact, "usable_cores", lambda: 2)
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=16)
    req = ValuationRequest(inputs=inputs, params=derive_crr(inputs), kind=PayoffKind.ASIAN_PUT)
    parity = replace(req, kind=lambda params, S0, K, path: float(path.code & 1))
    for estimator, cfg, req_, pool in (
            (mc.estimate_partitioned, mc.McConfig(R=1 << 15, M=1024), req, [2]),
            (mc.estimate_partitioned_equal, mc.McConfig(R=2048, M=64), req, [2]),
            (mc.estimate_shared, mc.McConfig(R=64, M=1024), parity, [2]),
            (mc.estimate_shared, mc.McConfig(R=1 << 12, M=1024), req, []),
            (mc.estimate_shared, mc.McConfig(R=1 << 15, M=1), req, []),
            (mc.estimate_partitioned, mc.McConfig(R=1 << 15, M=1), req, []),
            (mc.estimate_partitioned_equal, mc.McConfig(R=1 << 15, M=1), req, [])):
        pools.clear()
        threaded = estimator(req_, cfg, eval_threads=8)
        assert pools == pool, (estimator.__name__, cfg)
        assert threaded == estimator(req_, cfg, eval_threads=1)
        assert pools == pool

    # N=18 has 8 batches of rows, so only the cores cap the pool.
    inputs = replace(inputs, N=18)
    req = ValuationRequest(inputs=inputs, params=derive_crr(inputs),
                           kind=PayoffKind.ASIAN_PUT, workers=8)
    pools.clear()
    assert value_exact_parallel(req) == value_exact_parallel(replace(req, workers=1))
    assert pools == [2]


# Callable twins of the merged-state kinds, read from asset_path: they
# still enumerate every path through join_rows.
def _euro_call_clone(params, S0, K, path):
    return float(max(asset_path(params, S0, path)[-1] - K, 0.0))


def _euro_put_clone(params, S0, K, path):
    return float(max(K - asset_path(params, S0, path)[-1], 0.0))


def _lookback_put_clone(params, S0, K, path):
    return float(max(K - asset_path(params, S0, path).min(), 0.0))


MERGED_CLONES = {
    PayoffKind.EUROPEAN_CALL: _euro_call_clone,
    PayoffKind.EUROPEAN_PUT: _euro_put_clone,
    PayoffKind.FIXED_LOOKBACK_PUT: _lookback_put_clone,
}


# sigma=30 puts the all-up price beyond double precision and the
# all-down price below it; at N=1 the move sizes themselves overflow.
@pytest.mark.parametrize("n,sigma", [(1, 0.3), (10, 0.3), (14, 0.3), (10, 30.0), (14, 30.0)])
@pytest.mark.parametrize("probs", ("crr", "certain steps"))
def test_merged_states_agree_with_enumerated_twins(n, sigma, probs):
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=sigma, T=1.0, N=n)
    params = derive_crr(inputs)
    if probs == "certain steps":
        up = np.random.default_rng(n).uniform(0.05, 0.95, n)
        up[::3], up[1::4] = 1.0, 0.0
        params = replace(params, up_probs=up)
    for kind, clone in MERGED_CLONES.items():
        merged = ValuationRequest(inputs=inputs, params=params, kind=kind)
        twin = replace(merged, kind=clone)
        if sigma == 30.0 and kind is PayoffKind.EUROPEAN_CALL:
            # Some path ends at an infinite price: inf, or inf * 0 where its
            # weight underflows, on either route.
            with pytest.raises(NonFiniteValue):
                value_exact_parallel(merged)
            with pytest.raises(NonFiniteValue):
                value_exact_parallel(twin)
            continue
        want = value_exact_parallel(twin)
        assert value_exact_parallel(merged) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_merged_kinds_join_no_rows_and_open_no_pool(monkeypatch):
    from binpaths import exact

    pools, joins = [], []
    _record_pools(monkeypatch, pools)
    monkeypatch.setattr(exact, "usable_cores", lambda: 4)
    join_rows = exact.join_rows

    def counted(*args):
        joins.append(args[0].kind)
        return join_rows(*args)

    monkeypatch.setattr(exact, "join_rows", counted)
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=18)
    for kind in MERGED_CLONES:
        req = ValuationRequest(inputs=inputs, params=derive_crr(inputs), kind=kind, workers=4)
        assert value_exact_parallel(req) == value_exact_parallel(replace(req, workers=1))
    assert joins == [] and pools == []
    # asian-put still enumerates: 8 batches of rows on a pool of 4.
    value_exact_parallel(replace(req, kind=PayoffKind.ASIAN_PUT))
    assert joins == [PayoffKind.ASIAN_PUT] and pools == [4]


def test_merged_states_reach_the_published_and_deep_references():
    desk = dict(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0)
    inputs = MarketInputs(N=32, **desk)
    lookback = ValuationRequest(inputs=inputs, params=derive_crr(inputs),
                                kind=PayoffKind.FIXED_LOOKBACK_PUT, force_large=True)
    # The published N=32 lookback-put reference, reached without sampling.
    assert round(value_exact_parallel(lookback), 3) == 93.196
    with pytest.raises(EnumerationGuard):
        value_exact_parallel(replace(lookback, force_large=False))

    inputs = MarketInputs(N=MAX_DEPTH, **desk)
    call = ValuationRequest(inputs=inputs, params=derive_crr(inputs),
                            kind=PayoffKind.EUROPEAN_CALL, force_large=True)
    assert value_exact_parallel(call) == pytest.approx(value_leaf_formula(call), rel=1e-13)

    # The guard holds for the enumerated kinds too.
    inputs = MarketInputs(N=29, **desk)
    asian = ValuationRequest(inputs=inputs, params=derive_crr(inputs), kind=PayoffKind.ASIAN_PUT)
    with pytest.raises(EnumerationGuard):
        value_exact_parallel(asian)
