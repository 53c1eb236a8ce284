import math

import numpy as np
import pytest

from binpaths import (
    BernoulliPath,
    InvalidInput,
    LengthMismatch,
    MarketInputs,
    ProbabilityOutOfRange,
    TreeParams,
    asset_path,
    derive_crr,
    leaf_prices,
    with_custom_probs,
)


def test_derive_crr_frozen_values():
    # q=0.06, sigma=0.30, T=1, N=2, recomputed independently beforehand
    params = derive_crr(MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=2))
    assert params.dt == 0.5
    assert params.beta == pytest.approx(1.02416484221657, rel=1e-13)
    assert params.u == pytest.approx(1.245329088948476, rel=1e-13)
    assert params.d == pytest.approx(0.8030005954846637, rel=1e-13)
    assert params.n_steps == 2
    assert np.all(params.up_probs == params.up_probs[0])
    assert params.up_probs[0] == pytest.approx(0.5142195038978686, rel=1e-13)


def test_ud_product_and_martingale_identity_over_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        inputs = MarketInputs(
            S0=1.0,
            K=1.0,
            q=float(rng.uniform(-0.05, 0.2)),
            sigma=float(rng.uniform(0.01, 2.0)),
            T=float(rng.uniform(0.1, 3.0)),
            N=int(rng.integers(1, 63)),
        )
        params = derive_crr(inputs)
        assert abs(params.u * params.d - 1.0) <= 1e-12
        p = float(params.up_probs[0])
        assert 0.0 < p < 1.0
        growth = math.exp(inputs.q * params.dt)
        assert p * params.u + (1.0 - p) * params.d == pytest.approx(growth, abs=1e-12)


def test_sigma_zero_collapses_to_deterministic_forward():
    params = derive_crr(MarketInputs(S0=2.0, K=1.0, q=0.05, sigma=0.0, T=1.5, N=3))
    assert params.u == pytest.approx(math.exp(0.05 * 0.5), rel=1e-15)
    assert params.d == pytest.approx(math.exp(-0.05 * 0.5), rel=1e-15)
    assert np.all(params.up_probs == 1.0)

    flat = derive_crr(MarketInputs(S0=2.0, K=1.0, q=0.0, sigma=0.0, T=1.0, N=4))
    assert flat.u == 1.0 and flat.d == 1.0
    assert np.all(flat.up_probs == 1.0)


def test_degenerate_probability_raises():
    # strong drift with vanishing volatility rounds p onto the boundary
    with pytest.raises(ProbabilityOutOfRange):
        derive_crr(MarketInputs(S0=1.0, K=1.0, q=2.0, sigma=1e-8, T=1.0, N=1))
    # sigma so small that beta rounds to 1 collapses u onto d
    with pytest.raises(ProbabilityOutOfRange):
        derive_crr(MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=1e-300, T=1.0, N=1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("S0", 0.0),
        ("S0", -1.0),
        ("K", -0.5),
        ("sigma", -0.1),
        ("T", 0.0),
        ("N", 0),
        ("N", -1),
        ("N", True),
        ("N", 2.0),
        ("N", 63),
    ],
)
def test_invalid_inputs_rejected(field, value):
    kwargs = dict(S0=4.0, K=5.0, q=0.0, sigma=0.3, T=1.0, N=2)
    kwargs[field] = value
    with pytest.raises(InvalidInput):
        MarketInputs(**kwargs)


def test_custom_probs_stored_verbatim():
    inputs = MarketInputs(S0=4.0, K=5.0, q=0.0, sigma=0.3, T=1.0, N=3)
    params = with_custom_probs(inputs, [0.2, 0.5, 0.9])
    assert params.up_probs.tolist() == [0.2, 0.5, 0.9]
    base = derive_crr(inputs)
    assert params.u == base.u and params.d == base.d


def test_custom_probs_validation():
    inputs = MarketInputs(S0=4.0, K=5.0, q=0.0, sigma=0.3, T=1.0, N=3)
    with pytest.raises(LengthMismatch):
        with_custom_probs(inputs, [0.5, 0.5])
    for bad in ([0.0, 0.5, 0.5], [0.5, 1.0, 0.5], [-0.1, 0.5, 0.5], [0.5, 0.5, 1.5]):
        with pytest.raises(ProbabilityOutOfRange):
            with_custom_probs(inputs, bad)


def _toy_params(n):
    return TreeParams(dt=1.0 / n, u=2.0, d=0.5, beta=1.25, up_probs=np.full(n, 0.5))


def test_asset_path_examples():
    params = _toy_params(2)
    up_up = asset_path(params, 4.0, BernoulliPath.from_bits([1, 1]))
    assert up_up.tolist() == [8.0, 16.0]
    down_up = asset_path(params, 4.0, BernoulliPath.from_bits([0, 1]))
    assert down_up.tolist() == [2.0, 4.0]
    # recombination: swapped moves land on the same terminal node
    up_down = asset_path(params, 4.0, BernoulliPath.from_bits([1, 0]))
    assert up_down[-1] == down_up[-1]


def test_asset_path_excludes_spot_and_has_n_entries():
    params = _toy_params(5)
    prices = asset_path(params, 4.0, BernoulliPath.from_bits([1, 0, 1, 1, 0]))
    assert prices.shape == (5,)
    assert prices[0] == 8.0


def test_asset_path_length_mismatch():
    with pytest.raises(LengthMismatch):
        asset_path(_toy_params(3), 4.0, BernoulliPath.from_bits([1, 0]))


def test_terminal_price_equals_leaf_by_up_count_exhaustive():
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=10)
    params = derive_crr(inputs)
    leaves = leaf_prices(params, inputs.S0)
    for code in range(1 << 10):
        path = BernoulliPath(code=code, n=10)
        ups = sum(path.bits())
        terminal = asset_path(params, inputs.S0, path)[-1]
        assert terminal == pytest.approx(leaves[ups], rel=1e-12)


def test_leaf_prices_toy_tree():
    assert leaf_prices(_toy_params(2), 4.0).tolist() == [1.0, 4.0, 16.0]


def test_leaf_prices_strictly_increasing():
    params = derive_crr(MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=16))
    leaves = leaf_prices(params, 5.0)
    assert leaves.shape == (17,)
    assert np.all(np.diff(leaves) > 0)


def test_up_probs_read_only():
    params = _toy_params(3)
    with pytest.raises(ValueError):
        params.up_probs[0] = 0.9
