import math

import numpy as np
import pytest

from binpaths import (
    InfeasibleAllocation,
    InvalidInput,
    InvalidWorkerCount,
    MarketInputs,
    McConfig,
    PayoffKind,
    ValuationRequest,
    allocate_strata,
    asset_path,
    block_probability,
    derive_crr,
    estimate_basic,
    estimate_partitioned,
    estimate_partitioned_equal,
    estimate_shared,
    make_partition,
    mc_stream,
    run_repetitions,
    sample_path,
    value_exact_serial,
    with_custom_probs,
)
from binpaths.mc import sample_bits

from oracles import brute_payoff, brute_prices

DESK = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=12)
DESK_PARAMS = derive_crr(DESK)


def _desk_req(kind=PayoffKind.ASIAN_PUT):
    return ValuationRequest(inputs=DESK, params=DESK_PARAMS, kind=kind)


STRATIFIED = (estimate_partitioned, estimate_partitioned_equal, estimate_shared)


def test_stream_keying_is_deterministic_and_distinct():
    a = mc_stream(7, 0, 0).random(5)
    b = mc_stream(7, 0, 0).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, mc_stream(7, 1, 0).random(5))
    assert not np.array_equal(a, mc_stream(7, 0, 1).random(5))
    assert not np.array_equal(a, mc_stream(8, 0, 0).random(5))


def test_sample_path_degenerate_probability():
    inputs = MarketInputs(S0=2.0, K=1.0, q=0.05, sigma=0.0, T=1.0, N=8)
    params = derive_crr(inputs)
    rng = mc_stream(3)
    for _ in range(20):
        assert sample_path(params, rng).bits() == (1,) * 8


def test_sample_path_returns_valid_paths():
    rng = mc_stream(4)
    seen = {sample_path(DESK_PARAMS, rng).code for _ in range(50)}
    assert all(0 <= code < (1 << 12) for code in seen)
    assert len(seen) > 1


def test_per_bit_frequency_within_band():
    # 3 sigma band for 1e5 fair coin draws per bit position
    params = with_custom_probs(
        MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=16), [0.5] * 16
    )
    bits = sample_bits(mc_stream(2024), params.up_probs, 100_000)
    freq = bits.mean(axis=0)
    assert np.all(freq >= 0.494) and np.all(freq <= 0.506)


def test_basic_estimate_is_deterministic():
    cfg = McConfig(R=512, seed=11)
    a = estimate_basic(_desk_req(), cfg)
    b = estimate_basic(_desk_req(), cfg)
    assert a == b
    c = estimate_basic(_desk_req(), McConfig(R=512, seed=12))
    assert c.value != a.value


def test_basic_estimate_fields():
    cfg = McConfig(R=2048, seed=1)
    est = estimate_basic(_desk_req(), cfg)
    assert est.method == "basic"
    assert est.R_used == 2048
    assert est.seed == 1
    assert est.per_stratum is None
    assert est.variance >= 0.0
    assert est.std_error == math.sqrt(est.variance)


def test_basic_requires_two_draws():
    with pytest.raises(InvalidInput):
        estimate_basic(_desk_req(), McConfig(R=1, seed=0))


def test_basic_degenerate_distribution_has_zero_variance():
    # flat tree with an exactly representable payoff: variance is exactly 0
    flat = MarketInputs(S0=2.0, K=1.0, q=0.0, sigma=0.0, T=1.0, N=8)
    flat_req = ValuationRequest(
        inputs=flat, params=derive_crr(flat), kind=PayoffKind.EUROPEAN_CALL
    )
    flat_est = estimate_basic(flat_req, McConfig(R=64, seed=0))
    assert flat_est.value == 1.0
    assert flat_est.variance == 0.0

    # drifting tree: every draw is the all-up path, variance at rounding scale
    inputs = MarketInputs(S0=2.0, K=1.0, q=0.05, sigma=0.0, T=1.0, N=8)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.EUROPEAN_CALL)
    est = estimate_basic(req, McConfig(R=64, seed=0))
    assert est.variance <= 1e-30
    terminal = 2.0 * params.u**8
    assert est.value == pytest.approx(math.exp(-0.05) * (terminal - 1.0), rel=1e-13)


def test_basic_lands_near_exact_value():
    req = _desk_req()
    exact = value_exact_serial(req)
    summary = run_repetitions(estimate_basic, req, McConfig(R=1 << 14, seed=21, reps=12))
    se = summary.values.std(ddof=1) / math.sqrt(12)
    assert abs(summary.mean_value - exact) <= 4.0 * se


def test_allocation_uniform_split():
    params = with_custom_probs(
        MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=6), [0.5] * 6
    )
    part = make_partition(6, 4)
    assert allocate_strata(part, params, 1024) == [256, 256, 256, 256]


def test_allocation_largest_remainder_frozen_case():
    # masses (0.1, 0.9) and R=1024 target (102.4, 921.6)
    params = with_custom_probs(
        MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=4),
        [0.9, 0.5, 0.5, 0.5],
    )
    part = make_partition(4, 2)
    assert allocate_strata(part, params, 1024) == [102, 922]


def test_allocation_floors_starved_positive_strata():
    params = with_custom_probs(
        MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=4),
        [0.999, 0.5, 0.5, 0.5],
    )
    part = make_partition(4, 2)
    assert allocate_strata(part, params, 10) == [1, 9]


def test_allocation_conserves_total_over_random_configs():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        m = 1 << int(rng.integers(0, min(n, 5) + 1))
        r = int(rng.integers(m, 4096))
        params = with_custom_probs(
            MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=n),
            rng.uniform(0.05, 0.95, size=n),
        )
        part = make_partition(n, m)
        alloc = allocate_strata(part, params, r)
        assert sum(alloc) == r
        assert all(a >= 1 for a in alloc)


def test_allocation_infeasible_when_budget_below_strata():
    part = make_partition(6, 4)
    params = with_custom_probs(
        MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=6), [0.5] * 6
    )
    with pytest.raises(InfeasibleAllocation):
        allocate_strata(part, params, 3)
    with pytest.raises(InfeasibleAllocation):
        estimate_partitioned(_desk_req(), McConfig(R=2, M=4, seed=0))


def test_stratified_rejects_non_power_of_two():
    for estimator in STRATIFIED:
        with pytest.raises(InvalidWorkerCount):
            estimator(_desk_req(), McConfig(R=64, M=3, seed=0))


@pytest.mark.parametrize("estimator", STRATIFIED)
def test_single_stratum_is_bitwise_basic(estimator):
    cfg = McConfig(R=1024, M=1, seed=7)
    base = estimate_basic(_desk_req(), cfg)
    est = estimator(_desk_req(), cfg)
    assert est.value == base.value
    assert est.variance == base.variance
    assert est.std_error == base.std_error
    assert est.R_used == base.R_used
    assert est.per_stratum == ((0, 1024, pytest.approx(base.value / math.exp(-0.06), rel=1e-12)),)


def test_single_stratum_identity_holds_across_reps_and_kinds():
    for kind in (PayoffKind.FIXED_LOOKBACK_PUT, PayoffKind.EUROPEAN_CALL):
        req = _desk_req(kind)
        for rep in (0, 3):
            base = estimate_basic(req, McConfig(R=256, M=1, seed=5), rep=rep)
            part = estimate_partitioned(req, McConfig(R=256, M=1, seed=5), rep=rep)
            shared = estimate_shared(req, McConfig(R=256, M=1, seed=5), rep=rep)
            assert base.value == part.value == shared.value
            assert base.variance == part.variance == shared.variance


def test_full_stratification_recovers_exact_value():
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.50, T=1.0, N=4)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.ASIAN_PUT)
    exact = value_exact_serial(req)

    # one draw per stratum: squared deviations are structurally zero
    est = estimate_partitioned(req, McConfig(R=16, M=16, seed=0))
    assert est.variance == 0.0
    assert est.value == pytest.approx(exact, rel=1e-12)
    assert [draws for _, draws, _ in est.per_stratum] == [1] * 16

    # repeated draws of a single path agree to rounding of the mean
    eq = estimate_partitioned_equal(req, McConfig(R=5, M=16, seed=0))
    assert eq.variance <= 1e-28
    assert eq.value == pytest.approx(exact, rel=1e-12)
    assert eq.R_used == 80

    sh = estimate_shared(req, McConfig(R=8, M=16, seed=0))
    assert sh.variance <= 1e-28
    assert sh.value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("kind", list(PayoffKind))
def test_full_stratification_joins_an_empty_suffix_for_every_kind(kind):
    # M = 2^N: every stratum is one whole path and the sampled suffix has no steps.
    inputs = MarketInputs(S0=5.0, K=6.0, q=0.06, sigma=0.50, T=1.0, N=4)
    req = ValuationRequest(inputs=inputs, params=derive_crr(inputs), kind=kind)
    exact = value_exact_serial(req)
    for estimator in STRATIFIED:
        est = estimator(req, McConfig(R=16, M=16, seed=0))
        assert est.value == pytest.approx(exact, rel=1e-12)


def test_zero_mass_strata_are_skipped_not_sampled():
    inputs = MarketInputs(S0=2.0, K=1.0, q=0.05, sigma=0.0, T=1.0, N=8)
    params = derive_crr(inputs)  # p = 1 everywhere, only the all-up prefix has mass
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.EUROPEAN_CALL)
    est = estimate_partitioned(req, McConfig(R=8, M=4, seed=0))
    assert [draws for _, draws, _ in est.per_stratum] == [0, 0, 0, 8]
    assert est.variance <= 1e-30
    terminal = 2.0 * params.u**8
    assert est.value == pytest.approx(math.exp(-0.05) * (terminal - 1.0), rel=1e-13)


def test_partitioned_draw_counts_follow_allocation():
    est = estimate_partitioned(_desk_req(), McConfig(R=1000, M=8, seed=2))
    draws = [d for _, d, _ in est.per_stratum]
    assert sum(draws) == 1000
    assert est.R_used == 1000
    part = make_partition(12, 8)
    assert draws == allocate_strata(part, DESK_PARAMS, 1000)


def test_equal_allocation_uses_r_per_stratum():
    est = estimate_partitioned_equal(_desk_req(), McConfig(R=100, M=8, seed=2))
    assert [d for _, d, _ in est.per_stratum] == [100] * 8
    assert est.R_used == 800
    assert est.method == "partitioned-equal"
    assert estimate_partitioned(_desk_req(), McConfig(R=100, M=8, seed=2)).method == "partitioned"


def test_value_is_discounted_stratum_mixture():
    est = estimate_partitioned(_desk_req(), McConfig(R=512, M=8, seed=9))
    part = make_partition(12, 8)
    from binpaths import block_probability

    masses = np.array([block_probability(DESK_PARAMS, part, m) for m in range(8)])
    thetas = np.array([t for _, _, t in est.per_stratum])
    rebuilt = math.exp(-0.06) * float(np.sum(thetas * masses))
    assert est.value == rebuilt


@pytest.mark.parametrize("estimator", STRATIFIED)
def test_eval_threads_do_not_change_results(estimator):
    cfg = McConfig(R=512, M=8, seed=13)
    lone = estimator(_desk_req(), cfg, eval_threads=1)
    for threads in (2, 4):
        threaded = estimator(_desk_req(), cfg, eval_threads=threads)
        assert threaded == lone


def test_shared_chunks_match_brute_force_per_draw():
    # R=2048 puts 16 prefixes in a chunk, so M=32 runs two chunks.
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=8)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.ASIAN_PUT)
    cfg = McConfig(R=2048, M=32, seed=4)
    est = estimate_shared(req, cfg)
    assert estimate_shared(req, cfg, eval_threads=2) == est

    suffixes = sample_bits(mc_stream(4), params.up_probs[5:], 2048).tolist()
    part = make_partition(8, 32)
    inner = np.zeros(2048)
    for m in range(32):
        head = [(m >> (4 - t)) & 1 for t in range(5)]
        values = np.array([
            brute_payoff("asian-put", brute_prices(20.0, params.u, params.d, head + row), 100.0)
            for row in suffixes
        ])
        assert est.per_stratum[m][2] == pytest.approx(values.mean(), rel=1e-12)
        inner += block_probability(params, part, m) * values
    assert est.value == pytest.approx(math.exp(-0.06) * inner.mean(), rel=1e-12)
    assert est.variance == pytest.approx(math.exp(-0.12) * inner.var() / 2048, rel=1e-9)


@pytest.mark.parametrize("estimator", (estimate_basic,) + STRATIFIED)
def test_callable_payoff_matches_builtin_twin(estimator):
    def asian_put_clone(params, S0, K, path):
        return float(max(K - asset_path(params, S0, path).mean(), 0.0))

    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=6)
    params = derive_crr(inputs)
    cfg = McConfig(R=64, M=1 if estimator is estimate_basic else 4, seed=3)
    twin = estimator(ValuationRequest(inputs=inputs, params=params,
                                      kind=PayoffKind.ASIAN_PUT), cfg)
    got = estimator(ValuationRequest(inputs=inputs, params=params, kind=asian_put_clone), cfg)
    assert got.value == pytest.approx(twin.value, rel=1e-12)
    assert got.variance == pytest.approx(twin.variance, rel=1e-9)
    assert got.R_used == twin.R_used


def test_repetition_streams_are_independent_but_reproducible():
    cfg = McConfig(R=256, seed=5)
    first = estimate_basic(_desk_req(), cfg, rep=0)
    second = estimate_basic(_desk_req(), cfg, rep=1)
    assert first.value != second.value
    assert estimate_basic(_desk_req(), cfg, rep=1) == second


def test_run_repetitions_summary_statistics():
    cfg = McConfig(R=256, seed=5, reps=6)
    summary = run_repetitions(estimate_basic, _desk_req(), cfg)
    assert summary.reps == 6
    values = summary.values
    assert summary.mean_value == pytest.approx(values.mean(), rel=1e-15)
    assert summary.empirical_variance == pytest.approx(values.var(ddof=1), rel=1e-12)
    single = run_repetitions(estimate_basic, _desk_req(), McConfig(R=256, seed=5))
    assert single.empirical_variance == 0.0
    assert single.estimates[0] == estimate_basic(_desk_req(), McConfig(R=256, seed=5), rep=0)


def test_estimators_are_unbiased_against_exact_oracle():
    reps = 2000
    for kind in PayoffKind:
        req = _desk_req(kind)
        exact = value_exact_serial(req)
        runs = {
            "basic": run_repetitions(estimate_basic, req, McConfig(R=128, seed=31, reps=reps)),
            "pmc": run_repetitions(estimate_partitioned, req, McConfig(R=128, M=4, seed=37, reps=reps)),
            "pmc-equal": run_repetitions(estimate_partitioned_equal, req, McConfig(R=32, M=4, seed=41, reps=reps)),
            "smc": run_repetitions(estimate_shared, req, McConfig(R=128, M=4, seed=43, reps=reps)),
        }
        for tag, summary in runs.items():
            se = summary.values.std(ddof=1) / math.sqrt(reps)
            assert abs(summary.mean_value - exact) <= 4.0 * se, (
                f"{tag} on {kind.value}: mean {summary.mean_value} vs exact {exact}"
            )


def test_variance_estimates_are_calibrated():
    reps = 2000
    req = _desk_req()
    basic = run_repetitions(estimate_basic, req, McConfig(R=4096, seed=19, reps=reps))
    assert basic.mean_variance == pytest.approx(basic.empirical_variance, rel=0.20)
    part = run_repetitions(
        estimate_partitioned, req, McConfig(R=4096, M=8, seed=23, reps=reps)
    )
    assert part.mean_variance == pytest.approx(part.empirical_variance, rel=0.20)


def test_stratification_reduces_variance_on_path_dependent_payoff():
    reps = 400
    req = _desk_req()
    basic = run_repetitions(estimate_basic, req, McConfig(R=512, seed=3, reps=reps))
    part = run_repetitions(estimate_partitioned, req, McConfig(R=512, M=8, seed=3, reps=reps))
    noise = math.sqrt(2.0 / (reps - 1)) * math.hypot(
        basic.empirical_variance, part.empirical_variance
    )
    assert part.empirical_variance <= basic.empirical_variance + noise


def test_mcconfig_validation():
    for bad in (
        dict(R=0),
        dict(R=16, M=0),
        dict(R=16, seed=-1),
        dict(R=16, reps=0),
    ):
        with pytest.raises(InvalidInput):
            McConfig(**bad)


def test_shared_requires_two_draws():
    with pytest.raises(InvalidInput):
        estimate_shared(_desk_req(), McConfig(R=1, M=1, seed=0))
