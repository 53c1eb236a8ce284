import numpy as np
import pytest

from binpaths import (
    BernoulliPath,
    InvalidInput,
    InvalidWorkerCount,
    MarketInputs,
    RankOutOfRange,
    TreeParams,
    block_code_ranges,
    block_probability,
    derive_crr,
    iter_block,
    make_partition,
    path_probability,
    with_custom_probs,
)
from binpaths.paths import block_probabilities, codes_to_bits

from oracles import brute_code, brute_paths, brute_prob


def _const_params(n, p):
    return TreeParams(dt=1.0 / n, u=2.0, d=0.5, beta=1.25, up_probs=np.full(n, p))


@pytest.mark.parametrize("n", [1, 5, 12])
def test_code_bits_round_trip_exhaustive(n):
    for code in range(1 << n):
        path = BernoulliPath(code=code, n=n)
        bits = path.bits()
        assert len(bits) == n
        assert BernoulliPath.from_bits(bits).code == code
        assert brute_code(bits) == code


def test_bit_order_is_first_step_most_significant():
    assert BernoulliPath(code=4, n=3).bits() == (1, 0, 0)
    assert BernoulliPath.from_bits([1, 0, 0]).code == 4
    assert BernoulliPath(code=1, n=3).bits() == (0, 0, 1)


def test_code_out_of_range_rejected():
    with pytest.raises(InvalidInput):
        BernoulliPath(code=8, n=3)
    with pytest.raises(InvalidInput):
        BernoulliPath(code=-1, n=3)
    with pytest.raises(InvalidInput):
        BernoulliPath(code=0, n=0)


def test_path_probability_uniform_and_mixed():
    uniform = _const_params(3, 0.5)
    assert path_probability(uniform, BernoulliPath.from_bits([1, 0, 1])) == 0.125
    mixed = with_custom_probs(
        MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=3), [0.2, 0.5, 0.9]
    )
    got = path_probability(mixed, BernoulliPath.from_bits([1, 0, 1]))
    assert got == pytest.approx(0.2 * 0.5 * 0.9, rel=1e-15)


def test_path_probabilities_sum_to_one():
    params = with_custom_probs(
        MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=3), [0.2, 0.5, 0.9]
    )
    total = sum(
        path_probability(params, BernoulliPath.from_bits(bits))
        for bits in brute_paths(3)
    )
    assert total == pytest.approx(1.0, abs=1e-15)


def test_up_count_mass_matches_binomial_pmf():
    from scipy.stats import binom

    n, p = 14, 0.3
    params = _const_params(n, p)
    codes = np.arange(1 << n, dtype=np.uint64)
    bits = codes_to_bits(codes, n)
    probs = np.where(bits, p, 1.0 - p).prod(axis=1)
    ups = bits.sum(axis=1)
    mass_by_ups = np.bincount(ups, weights=probs, minlength=n + 1)
    expected = binom.pmf(np.arange(n + 1), n, p)
    assert np.allclose(mass_by_ups, expected, rtol=1e-12, atol=1e-15)


def test_power_of_two_partition_is_single_prefix_per_rank():
    part = make_partition(10, 8)
    assert part.prefix_width == 3
    assert part.blocks == tuple((i,) for i in range(8))
    ranges = block_code_ranges(part, 5)
    assert ranges == [(5 * 128, 6 * 128)]


def test_single_worker_owns_everything():
    part = make_partition(6, 1)
    assert part.prefix_width == 0
    assert block_code_ranges(part, 0) == [(0, 64)]


def test_three_workers_round_robin_frozen_shape():
    # hand-derived: 6 prefix bits, 64 blocks dealt round-robin to 3 ranks
    part = make_partition(10, 3)
    assert part.prefix_width == 6
    sizes = [len(b) for b in part.blocks]
    assert sizes == [22, 21, 21]
    assert part.blocks[1][:3] == (1, 4, 7)


@pytest.mark.parametrize("n,m", [(3, 2), (2, 4), (12, 8), (10, 3), (14, 5), (14, 11), (9, 512)])
def test_partition_covers_every_code_exactly_once(n, m):
    part = make_partition(n, m)
    seen = []
    for rank in range(m):
        seen.extend(p.code for p in iter_block(part, rank))
    assert len(seen) == 1 << n
    assert sorted(seen) == list(range(1 << n))


def test_iter_block_yields_ascending_codes_of_right_length():
    part = make_partition(3, 2)
    rank1 = [p.code for p in iter_block(part, 1)]
    assert rank1 == [4, 5, 6, 7]
    assert all(p.n == 3 for p in iter_block(part, 1))


def test_every_rank_owns_one_path_when_m_is_two_to_the_n():
    part = make_partition(2, 4)
    for rank in range(4):
        assert [p.code for p in iter_block(part, rank)] == [rank]


def test_worker_count_bounds():
    for bad in (0, -1, True, 2.0):
        with pytest.raises(InvalidWorkerCount):
            make_partition(3, bad)
    with pytest.raises(InvalidWorkerCount):
        make_partition(3, 9)
    with pytest.raises(RankOutOfRange):
        block_code_ranges(make_partition(3, 2), 2)
    with pytest.raises(RankOutOfRange):
        list(iter_block(make_partition(3, 2), -1))


def test_block_probability_uniform_quarters():
    params = _const_params(6, 0.5)
    part = make_partition(6, 4)
    for rank in range(4):
        assert block_probability(params, part, rank) == pytest.approx(0.25, abs=1e-15)


def test_block_probability_follows_first_step():
    inputs = MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=4)
    params = with_custom_probs(inputs, [0.9, 0.5, 0.5, 0.5])
    part = make_partition(4, 2)
    assert block_probability(params, part, 0) == pytest.approx(0.1, abs=1e-15)
    assert block_probability(params, part, 1) == pytest.approx(0.9, abs=1e-15)


def test_block_probability_equals_enumerated_mass():
    inputs = MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=0.3, T=1.0, N=8)
    rng = np.random.default_rng(11)
    params = with_custom_probs(inputs, rng.uniform(0.05, 0.95, size=8))
    part = make_partition(8, 3)
    for rank in range(3):
        enumerated = sum(
            brute_prob(params.up_probs, p.bits()) for p in iter_block(part, rank)
        )
        assert block_probability(params, part, rank) == pytest.approx(
            enumerated, rel=1e-12
        )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16, 64])
def test_block_probabilities_sum_to_one(m):
    inputs = MarketInputs(S0=5.0, K=10.0, q=0.06, sigma=0.30, T=1.0, N=16)
    params = derive_crr(inputs)
    part = make_partition(16, m)
    total = sum(block_probability(params, part, rank) for rank in range(m))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 64, 1024])
def test_block_probabilities_are_prefix_products_bit_for_bit(m):
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=16)
    rng = np.random.default_rng(m)
    part = make_partition(16, m)
    width = part.prefix_width
    for params in (derive_crr(inputs), with_custom_probs(inputs, rng.uniform(0.05, 0.95, 16))):
        want = [
            brute_prob(params.up_probs[:width], [(r >> (width - 1 - t)) & 1 for t in range(width)])
            for r in range(m)
        ]
        assert block_probabilities(params, part) == want
        assert block_probability(params, part, m - 1) == want[-1]


def test_codes_to_bits_matches_scalar_decoding():
    n = 7
    codes = np.arange(1 << n, dtype=np.uint64)
    bits = codes_to_bits(codes, n)
    for code in (0, 1, 63, 100, 127):
        assert bits[code].tolist() == [b == 1 for b in BernoulliPath(code=code, n=n).bits()]


@pytest.mark.parametrize("dtype", (np.int64, np.uint64))
def test_codes_to_bits_reads_signed_and_unsigned_codes(dtype):
    # int64 is the dtype of folded codes (fold_rows) and of every code the engines build.
    codes = np.array([5, 0, (1 << 62) - 1], dtype=dtype)
    bits = codes_to_bits(codes, 62)
    assert bits.shape == (3, 62) and bits.dtype == bool
    assert bits[0, -4:].tolist() == [False, True, False, True] and not bits[0, :-4].any()
    assert not bits[1].any() and bits[2].all()
    assert codes_to_bits(np.array([5], dtype=dtype), 4).tolist() == [[False, True, False, True]]
