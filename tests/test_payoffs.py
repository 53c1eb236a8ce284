import numpy as np
import pytest

from binpaths import (
    BernoulliPath,
    InvalidInput,
    MarketInputs,
    PayoffKind,
    TreeParams,
    derive_crr,
    parse_payoff,
    payoff,
    payoff_batch,
)
from binpaths.paths import codes_to_bits

from oracles import brute_paths, brute_payoff, brute_prices

TOY = TreeParams(dt=0.5, u=2.0, d=0.5, beta=1.25, up_probs=np.full(2, 0.5))


def test_parse_payoff_round_trip():
    for name in ("euro-call", "euro-put", "asian-put", "lookback-put"):
        assert parse_payoff(name).value == name


def test_parse_payoff_rejects_unknown_tag():
    with pytest.raises(InvalidInput):
        parse_payoff("asian-call")


def test_toy_tree_examples():
    cases = [
        (PayoffKind.ASIAN_PUT, [0, 0], 3.5),     # prices 2, 1 -> mean 1.5
        (PayoffKind.ASIAN_PUT, [0, 1], 2.0),     # prices 2, 4 -> mean 3
        (PayoffKind.FIXED_LOOKBACK_PUT, [1, 0], 1.0),  # min(8, 4) = 4
        (PayoffKind.EUROPEAN_PUT, [0, 1], 1.0),
        (PayoffKind.EUROPEAN_CALL, [1, 1], 11.0),
    ]
    for kind, bits, want in cases:
        got = payoff(kind, TOY, 4.0, 5.0, BernoulliPath.from_bits(bits))
        assert got == want


def test_zero_strike_puts_vanish():
    for kind in (PayoffKind.EUROPEAN_PUT, PayoffKind.ASIAN_PUT, PayoffKind.FIXED_LOOKBACK_PUT):
        assert payoff(kind, TOY, 4.0, 0.0, BernoulliPath.from_bits([0, 0])) == 0.0


def test_path_dependence_distinguishes_reordered_moves():
    up_down = BernoulliPath.from_bits([1, 0])
    down_up = BernoulliPath.from_bits([0, 1])
    euro = payoff(PayoffKind.EUROPEAN_PUT, TOY, 4.0, 5.0, up_down)
    assert euro == payoff(PayoffKind.EUROPEAN_PUT, TOY, 4.0, 5.0, down_up)
    assert payoff(PayoffKind.ASIAN_PUT, TOY, 4.0, 5.0, up_down) != payoff(
        PayoffKind.ASIAN_PUT, TOY, 4.0, 5.0, down_up
    )
    assert payoff(PayoffKind.FIXED_LOOKBACK_PUT, TOY, 4.0, 5.0, up_down) != payoff(
        PayoffKind.FIXED_LOOKBACK_PUT, TOY, 4.0, 5.0, down_up
    )


def test_european_depends_only_on_up_count_path_dependents_do_not():
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=10)
    params = derive_crr(inputs)
    codes = np.arange(1 << 10, dtype=np.uint64)
    bits = codes_to_bits(codes, 10)
    ups = bits.sum(axis=1)
    euro = payoff_batch(PayoffKind.EUROPEAN_PUT, params, 5.0, 10.0, bits)
    asian = payoff_batch(PayoffKind.ASIAN_PUT, params, 5.0, 10.0, bits)
    spread_seen = False
    for k in range(11):
        group = ups == k
        assert np.ptp(euro[group]) <= 1e-12
        if np.ptp(asian[group]) > 1e-9:
            spread_seen = True
    assert spread_seen


def test_batch_matches_scalar_for_all_paths_and_kinds():
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=8)
    params = derive_crr(inputs)
    codes = np.arange(1 << 8, dtype=np.uint64)
    bits = codes_to_bits(codes, 8)
    for kind in PayoffKind:
        batch = payoff_batch(kind, params, 5.0, 10.0, bits)
        for code in range(1 << 8):
            scalar = payoff(kind, params, 5.0, 10.0, BernoulliPath(code=code, n=8))
            assert batch[code] == scalar


def test_batch_matches_brute_force_reference():
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=6)
    params = derive_crr(inputs)
    codes = np.arange(1 << 6, dtype=np.uint64)
    bits = codes_to_bits(codes, 6)
    for kind in PayoffKind:
        batch = payoff_batch(kind, params, 5.0, 10.0, bits)
        for i, word in enumerate(brute_paths(6)):
            prices = brute_prices(5.0, params.u, params.d, word)
            assert batch[i] == pytest.approx(
                brute_payoff(kind.value, prices, 10.0), rel=1e-12, abs=1e-15
            )


def test_payoffs_nonnegative_on_random_draws():
    rng = np.random.default_rng(5)
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=12)
    params = derive_crr(inputs)
    bits = rng.random((500, 12)) < 0.5
    for kind in PayoffKind:
        assert np.all(payoff_batch(kind, params, 5.0, 10.0, bits) >= 0.0)


def test_callable_payoff_slots_into_batch():
    def square_mean(params, S0, K, path):
        from binpaths import asset_path

        return float(asset_path(params, S0, path).mean() ** 2)

    bits = codes_to_bits(np.arange(4, dtype=np.uint64), 2)
    got = payoff_batch(square_mean, TOY, 4.0, 5.0, bits)
    want = [1.5**2, 3.0**2, 6.0**2, 12.0**2]
    assert got.tolist() == pytest.approx(want, rel=1e-14)
