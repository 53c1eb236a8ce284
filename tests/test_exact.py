import math
import os
from dataclasses import replace

import numpy as np
import pytest

from binpaths import (
    EnumerationGuard,
    InvalidWorkerCount,
    LengthMismatch,
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

from oracles import brute_value

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
    with pytest.raises(InvalidWorkerCount):
        ValuationRequest(inputs=TOY_INPUTS, params=TOY_PARAMS,
                         kind=PayoffKind.EUROPEAN_PUT, workers=0)
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
    # estimate_basic call.
    from binpaths import exact, mc

    calls = {}
    for module, names in ((exact, ("codes_to_bits", "payoff_batch")),
                          (mc, ("payoff_batch", "block_probability", "allocate_strata",
                                "mc_stream", "sample_bits"))):
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
    assert calls["binpaths.mc.sample_bits"] == 1

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
    assert calls["binpaths.exact.codes_to_bits"] > 0
    assert calls["binpaths.exact.payoff_batch"] > 0


def test_non_finite_value_is_a_domain_error():
    # u^20 overflows while the weight of that path underflows: inf * 0.
    inputs = MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=40.0, T=1.0, N=20)
    req = ValuationRequest(inputs=inputs, params=derive_crr(inputs),
                           kind=PayoffKind.EUROPEAN_CALL)
    with np.errstate(all="ignore"):
        for engine in (value_exact_serial, value_exact_parallel, value_leaf_formula):
            with pytest.raises(NonFiniteValue):
                engine(req)


def test_one_usable_core_evaluates_ranks_without_a_pool(monkeypatch):
    from binpaths import exact

    assert 1 <= exact.usable_cores() <= (os.cpu_count() or 1)
    pools = []
    real_pool = exact.ThreadPoolExecutor

    def counted_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(exact, "ThreadPoolExecutor", counted_pool)
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=12)
    req = ValuationRequest(inputs=inputs, params=derive_crr(inputs),
                           kind=PayoffKind.ASIAN_PUT, workers=4)
    monkeypatch.setattr(exact, "usable_cores", lambda: 4)
    pooled = value_exact_parallel(req)
    assert pools == [4]
    monkeypatch.setattr(exact, "usable_cores", lambda: 1)
    assert value_exact_parallel(req) == pooled
    assert pools == [4]
    assert value_exact_parallel(replace(req, workers=1)) == pooled
