"""Property tests: the input domain, the exact engine, the partition and
the allocation.

Every market input and per-step probability vector, NaN, infinities,
subnormals and overflowing rates included, either builds a tree with
finite positive move sizes and probabilities in (0, 1) (exactly 1 on the
sigma = 0 lattice) or raises a PricingError.

The exact engine is checked against the brute-force oracle on random
markets, constant (CRR) and per-step probabilities, and every worker
count from 1 to 9, and against itself on one worker, bit for bit: its
prefix rows are fixed by N, so the worker count must not move the
value.  For N <= 10 a row is one path (an empty suffix table); the
explicit examples pin M = 2^N, round-robin deals and, at N = 16, rows
of 2^6 paths, and asian-put at N = 11 to 14 joins rows of 2 to 16
paths, to 1e-13 relative.  A partition finer than the row grid (N > 10
with M > 1024, or a round-robin M > 64) gives the same bits too: each
row goes whole to the block where it starts.

fold_bits is checked against the oracle's step-by-step prices on bit
rows of 0 to 62 steps over CRR trees up to sigma = 80, where a word of
steps can leave double precision and the words shrink.  path_table is
checked entry by entry against path_probability and the oracle's
prices, bit for bit, with probabilities 0 and 1 and moves up to e^230.

The stratum allocation is checked for its invariants and, on masses with
zeros, exact ties and long thin tails up to M = 1024, against the
plain-loop reference allocator in oracles.py, draw for draw.

The stratified estimators are checked against a stratum-at-a-time loop
over consecutive slices of one sample of the repetition's stream, bit
for bit, on trees of 1 to 14 steps, every power-of-two M up to 2^N
(M = 2^N samples no steps), per-step probabilities with 0 and 1 entries
(strata without mass draw nothing) and thread runs that jump the stream
to their first row, and against themselves on 1, 2, 3 and 4 threads,
and on 3 to 6 threads with eight usable cores assumed, so that uneven
thread runs also run on hosts with fewer cores.
At M = 1 they are the basic estimator, bit for bit.
"""

import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from binpaths import (
    InfeasibleAllocation,
    MarketInputs,
    McConfig,
    NonFiniteValue,
    PayoffKind,
    PricingError,
    ProbabilityOutOfRange,
    TreeParams,
    ValuationRequest,
    allocate_strata,
    block_code_ranges,
    block_probability,
    derive_crr,
    estimate_basic,
    estimate_partitioned,
    estimate_partitioned_equal,
    estimate_shared,
    make_partition,
    value_exact_parallel,
    with_custom_probs,
)

from binpaths.exact import CHUNK
from binpaths.mc import (_allocate, _block_mean_sse, _mean_sse, _segment_mean_sse, mc_stream,
                         sample_rows)
from binpaths.paths import (WORD_REACH, BernoulliPath, PathTable, codes_to_bits, fold_bits,
                            path_probability, path_table)
from binpaths.payoffs import join_payoff, suffix_statistic

from oracles import (brute_allocate, brute_code, brute_payoff, brute_prices, brute_prob,
                     brute_value)

# Derandomized, so a tier-1 run draws the same examples every time.
DETERMINISTIC = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)


# NaN, the infinities, signed zeros, one, subnormals, and rates whose
# step growth |q * dt| passes log(max float) ~ 709.78.
EDGES = st.floats() | st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 5e-324, 2.2e-308,
    710.0, -710.0, 800.0, -800.0, 1e308, -1e308,
])
# Valid ranges; the rates pass |q * dt| > 709 once T/N nears 1.
FIELDS = {
    "S0": st.floats(0.01, 100.0),
    "K": st.floats(0.0, 100.0),
    "q": st.floats(-800.0, 800.0),
    "sigma": st.floats(0.0, 3.0),
    "T": st.floats(0.01, 10.0),
}


@st.composite
def tree_inputs(draw):
    """Market fields, at most one of them from EDGES, and half the time a
    per-step probability vector with at most one entry from EDGES."""
    awkward = draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=1))
    fields = {name: draw(EDGES if name in awkward else valid)
              for name, valid in FIELDS.items()}
    fields["N"] = draw(st.integers(1, 8))
    n = fields["N"]
    if not draw(st.booleans()):
        return fields, None
    probs = draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))
    if probs and draw(st.booleans()):
        probs[draw(st.integers(0, n - 1))] = draw(EDGES)
    return fields, probs


DESK_FIELDS = dict(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=4)
STILL = dict(S0=1.0, K=1.0, sigma=0.0, T=1.0, N=1)


@DETERMINISTIC
@given(tree_inputs())
@example((DESK_FIELDS, [math.nan, 0.5, 0.5, 0.5]))  # NaN passed both comparisons
@example((dict(STILL, q=800.0), None))  # sigma = 0: exp(q*dt) overflowed
@example((dict(STILL, q=-800.0), None))  # sigma = 0: 1 / exp(q*dt) divided by 0
def test_inputs_give_a_finite_tree_or_a_domain_error(case):
    fields, probs = case
    try:
        inputs = MarketInputs(**fields)
        params = derive_crr(inputs) if probs is None else with_custom_probs(inputs, probs)
    except PricingError:
        return
    for move in (params.u, params.d):
        assert math.isfinite(move) and move > 0.0
    if inputs.sigma == 0.0 and probs is None:
        assert np.all(params.up_probs == 1.0)
    else:
        assert np.all((params.up_probs > 0.0) & (params.up_probs < 1.0))


@st.composite
def valuations(draw, steps=st.integers(1, 12), kinds=st.sampled_from(PayoffKind)):
    n = draw(steps)
    inputs = MarketInputs(
        S0=draw(st.floats(0.5, 50.0)),
        K=draw(st.floats(0.0, 60.0)),
        q=draw(st.floats(-0.1, 0.1)),
        sigma=draw(st.floats(0.01, 2.0)),
        T=draw(st.floats(0.1, 3.0)),
        N=n,
    )
    if draw(st.booleans()):
        probs = draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))
        params = with_custom_probs(inputs, probs)
    else:
        try:
            params = derive_crr(inputs)
        except ProbabilityOutOfRange:
            assume(False)
    workers = st.integers(1, min(9, 1 << n))
    if n <= 8:
        workers |= st.just(1 << n)
    kind = draw(kinds)
    return ValuationRequest(inputs=inputs, params=params, kind=kind,
                            workers=draw(workers))


def _request(n, workers, kind, probs=None, sigma=0.8):
    inputs = MarketInputs(S0=20.0, K=25.0, q=0.03, sigma=sigma, T=1.5, N=n)
    params = derive_crr(inputs) if probs is None else with_custom_probs(inputs, probs)
    return ValuationRequest(inputs=inputs, params=params, kind=kind, workers=workers)


@DETERMINISTIC
@given(valuations())
@example(_request(6, 64, PayoffKind.FIXED_LOOKBACK_PUT))  # M = 2^N: empty suffix
# Empty suffix while prefix prices underflow to 0 and overflow to inf.
@example(_request(4, 16, PayoffKind.FIXED_LOOKBACK_PUT, sigma=30.0))
@example(_request(8, 256, PayoffKind.ASIAN_PUT, [0.2, 0.7] * 4))
@example(_request(12, 7, PayoffKind.ASIAN_PUT))  # round-robin, 128 blocks
@example(_request(9, 3, PayoffKind.EUROPEAN_CALL, [0.1 * (i % 9 + 1) for i in range(9)]))
@example(_request(16, 3, PayoffKind.FIXED_LOOKBACK_PUT))  # round-robin, rows of 2^6 paths
@example(_request(12, 100, PayoffKind.ASIAN_PUT))  # round-robin blocks narrower than a row
@example(_request(11, 2048, PayoffKind.EUROPEAN_PUT))  # one path per block, two per row
def test_exact_engine_matches_brute_force(req):
    got = value_exact_parallel(req)
    assert got == pytest.approx(_brute(req), rel=1e-12, abs=1e-13)
    assert got == value_exact_parallel(replace(req, workers=1))


@DETERMINISTIC
@given(valuations(st.integers(11, 14), st.just(PayoffKind.ASIAN_PUT)))
def test_asian_put_rows_of_many_columns_match_brute_force(req):
    # N = 11 to 14 keeps exact.ROW_BITS = 10 prefix steps, so every prefix
    # row joins 2 to 16 suffix columns: the join's per-row prefix terms and
    # the row contraction act on rows of more than one path.
    got = value_exact_parallel(req)
    assert got == pytest.approx(_brute(req), rel=1e-13, abs=1e-13)
    assert got == value_exact_parallel(replace(req, workers=1))


def _brute(req):
    inputs, params = req.inputs, req.params
    return brute_value(
        inputs.S0, inputs.K, params.u, params.d,
        [float(p) for p in params.up_probs], inputs.q, inputs.T, req.kind.value,
    )


@st.composite
def bit_rows(draw):
    """A (rows, n) bit matrix with u, d of a CRR tree and a start price."""
    n = draw(st.integers(0, 62))
    inputs = MarketInputs(S0=1.0, K=1.0, q=0.06, sigma=draw(st.floats(0.0, 80.0)),
                          T=1.0, N=max(n, 1))
    try:
        params = derive_crr(inputs)
    except PricingError:
        assume(False)
    rows = draw(st.integers(0, 6))
    bits = draw(st.lists(st.booleans(), min_size=rows * n, max_size=rows * n))
    S0 = draw(st.sampled_from([1e-300, 1e-100, 1.0, 20.0, 1e100, 1e300]))
    return np.array(bits, dtype=bool).reshape(rows, n), params.u, params.d, S0


WIDE = derive_crr(MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=80.0, T=1.0, N=62))


def _normal(x):
    return math.isfinite(x) and x >= sys.float_info.min


@DETERMINISTIC
@given(bit_rows())
@example((np.zeros((2, 0), dtype=bool), 1.5, 1 / 1.5, 1.0))  # the empty word
@example((np.eye(12, dtype=bool), 1.3, 1 / 1.3, 20.0))  # one word
@example((np.eye(13, dtype=bool), 1.3, 1 / 1.3, 20.0))  # two words
@example((np.tri(62, dtype=bool), WIDE.u, WIDE.d, 1e-300))  # moves of e^103: words of 6
def test_row_summary_matches_step_by_step_prices(case):
    bits, u, d, S0 = case
    n = bits.shape[1]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        stats = tuple(getattr(fold_bits(bits, u, d, name), name)
                      for name in ("last", "total", "low"))
        start = path_table((), u, d, S0)
        payoffs = {kind.value: join_payoff(kind, 1.0, n, start, PathTable(None, *stats))
                   for kind in PayoffKind if n}
    for i, row in enumerate(bits.tolist()):
        prices = brute_prices(1.0, u, d, row)
        got = tuple(float(a[i]) for a in stats)
        assert not any(math.isnan(x) for x in got)
        if not prices:
            assert got == (1.0, 0.0, math.inf)
            continue
        want = prices[-1], sum(prices), min(prices)
        if all(map(_normal, prices)) and math.isfinite(want[1]):
            assert got == pytest.approx(want, rel=1e-14)
        # One word is the row: its table multiplies step by step.
        if n <= 12 and n * max(abs(math.log(u)), abs(math.log(d))) <= WORD_REACH:
            assert got[0] == want[0]
        # A price at 0 or inf times a word at inf or 0 would be NaN.
        for name, values in payoffs.items():
            if math.isfinite(brute_payoff(name, brute_prices(S0, u, d, row), 1.0)):
                assert not math.isnan(values[i]), name


@st.composite
def word_tables(draw):
    """Up to 10 steps with 0 and 1 among the probabilities, moves up to
    e^230 a step, and start prices from 1e-300 to 1e300."""
    n = draw(st.integers(1, 10))
    probs = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                          min_size=n, max_size=n))
    u = math.exp(draw(st.sampled_from([0.01, 0.3, 1.0]) | st.floats(0.001, 230.0)))
    d = draw(st.sampled_from([1.0 / u, 1.0]) | st.floats(1e-100, 1.0))
    start = draw(st.sampled_from([1e-300, 1.0, 20.0, 1e300]))
    return TreeParams(dt=1.0, u=u, d=d, beta=1.0, up_probs=np.array(probs)), start


@DETERMINISTIC
@given(word_tables())
@example((TreeParams(dt=1.0, u=WIDE.u, d=WIDE.d, beta=1.0, up_probs=np.array([1.0, 0.0] * 4)),
          1e-300))
def test_path_table_entries_are_the_step_by_step_oracle(case):
    # Entry c of path_table is the word of code c, step 1 its most
    # significant bit: path_probability's weight and the oracle's prices,
    # last, sum and minimum, bit for bit, overflow and underflow included.
    params, start = case
    n = params.n_steps
    with np.errstate(over="ignore", under="ignore"):
        table = path_table(params.up_probs, params.u, params.d, start)
    assert table.codes.tolist() == list(range(1 << n))
    for code in range(1 << n):
        path = BernoulliPath(code, n)
        bits = list(path.bits())
        prices = brute_prices(start, params.u, params.d, bits)
        assert brute_code(bits) == code
        assert table.weight[code] == path_probability(params, path)
        assert table.weight[code] == brute_prob(params.up_probs.tolist(), bits)
        assert (table.last[code], table.total[code], table.low[code]) == \
            (prices[-1], sum(prices), min(prices))
    empty = path_table((), params.u, params.d, start)
    assert [a.tolist() for a in empty] == [[1.0], [start], [0.0], [math.inf], [0]]


def test_partition_finer_than_the_row_grid():
    # 2048 ranks, the paper's blocks of 2 paths each, against rows of 4:
    # the engine joins whole rows whatever the worker count, so the
    # addends are those of one worker.
    req = _request(12, 2048, PayoffKind.ASIAN_PUT)
    assert make_partition(12, 2048).prefix_width == 11
    got = value_exact_parallel(req)
    assert got == value_exact_parallel(replace(req, workers=1))
    assert got == pytest.approx(_brute(req), rel=1e-12, abs=1e-13)


def test_infinities_of_both_signs_are_a_domain_error():
    # +inf on path 0 and -inf on path 3 sum to NaN; math.fsum raises on them.
    def signed_infinity(params, S0, K, path):
        return {0: math.inf, 3: -math.inf}.get(path.code, 0.0)

    req = replace(_request(2, 1, PayoffKind.EUROPEAN_CALL), kind=signed_infinity)
    for workers in (1, 2, 3, 4):
        with pytest.raises(NonFiniteValue):
            value_exact_parallel(replace(req, workers=workers))


@DETERMINISTIC
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 1 << n))))
@example((12, 4096))
@example((7, 100))
def test_partition_is_an_exact_cover(case):
    n, m = case
    part = make_partition(n, m)
    codes = [c for rank in range(m) for lo, hi in block_code_ranges(part, rank)
             for c in range(lo, hi)]
    assert sorted(codes) == list(range(1 << n))


@st.composite
def allocations(draw):
    """A power-of-two stratification whose prefix steps may have p = 0 or 1."""
    n = draw(st.integers(1, 10))
    m = 1 << draw(st.integers(0, min(n, 6)))
    probs = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99),
                          min_size=n, max_size=n))
    params = TreeParams(dt=1.0, u=2.0, d=0.5, beta=1.25, up_probs=np.array(probs))
    return make_partition(n, m), params, draw(st.integers(1, 4 * m))


@DETERMINISTIC
@given(allocations())
# Masses (0, 0, 0.7, 0.3): the remainder draw must skip the zero-mass ranks.
@example((make_partition(2, 4),
          TreeParams(dt=1.0, u=2.0, d=0.5, beta=1.25, up_probs=np.array([1.0, 0.3])), 5))
def test_allocation_invariants(case):
    part, params, R = case
    masses = [block_probability(params, part, m) for m in range(part.m)]
    if R < sum(mass > 0.0 for mass in masses):
        with pytest.raises(InfeasibleAllocation):
            allocate_strata(part, params, R)
        return
    alloc = allocate_strata(part, params, R)
    assert sum(alloc) == R
    assert all(a >= 1 if mass > 0.0 else a == 0 for a, mass in zip(alloc, masses))
    assert allocate_strata(part, params, R) == alloc
    # Ties: strata of equal mass get draws within one of each other.
    for mass in set(masses):
        tied = [a for a, x in zip(alloc, masses) if x == mass]
        assert max(tied) - min(tied) <= 1


@st.composite
def stratum_masses(draw):
    """Masses of up to 1,024 strata, with zeros, exact ties and long thin tails."""
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=1, max_size=40)), float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        count = 1 << draw(st.integers(0, 10))
        weights = rng.pareto(draw(st.sampled_from([0.5, 1.0, 3.0])), count)
        weights[rng.random(count) < draw(st.floats(0.0, 0.9))] = 0.0
    assume(weights.sum() > 0.0)
    masses = (weights / weights.sum()).tolist()
    positive = sum(mass > 0.0 for mass in masses)
    return masses, draw(st.integers(positive, positive + 4 * len(masses)))


@DETERMINISTIC
@given(stratum_masses())
# Four equal fractional parts: the remainder goes to the lower indices.
@example(([0.25] * 4, 6))
# One heavy stratum and 1,023 light ones: most of the light ones start empty.
@example(([0.5] + [0.5 / 1023] * 1023, 1024))
def test_allocation_matches_the_plain_loop_reference(case):
    masses, R = case
    assert _allocate(np.array(masses), R).tolist() == brute_allocate(masses, R)


@st.composite
def stratified_cases(draw):
    """A tree of 1 to 14 steps with 0 and 1 among its step probabilities,
    M = 2^r for any r <= N, and draw counts from 2M to about five chunks."""
    n = draw(st.integers(1, 14))
    r = draw(st.integers(0, n))
    probs = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95),
                          min_size=n, max_size=n))
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=draw(st.floats(0.1, 3.0)),
                          T=1.0, N=n)
    params = replace(derive_crr(inputs), up_probs=np.array(probs))
    kind = draw(st.sampled_from(list(PayoffKind)))
    m = 1 << r
    # R >= 2M leaves some stratum two draws.  The larger draw counts fill
    # up to five chunks of CHUNK rows; the odd jitter moves the offsets.
    extra = (draw(st.sampled_from([0, 100, 1000, CHUNK // 2, 5 * CHUNK - 960]))
             + draw(st.integers(0, 63)))
    R = 2 * m + extra
    equal_R = max(2, extra // m)
    return (ValuationRequest(inputs=inputs, params=params, kind=kind), m, R, equal_R,
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2)))


def _stratum_at_a_time(req, M, alloc, seed, rep):
    """Per-stratum means and squared-deviation sums, stratum m reading the
    alloc[m] rows after sum(alloc[:m]) of one sample of stream (seed, 0, rep)."""
    params, n = req.params, req.inputs.N
    r = M.bit_length() - 1
    heads = path_table(params.up_probs[:r], params.u, params.d, req.inputs.S0)
    drawn = sample_rows(mc_stream(seed, 0, rep), params.up_probs[r:], sum(alloc),
                        params.u, params.d, "codes")
    sample = codes_to_bits(drawn.codes, n - r)
    thetas, sses, row = np.zeros(M), np.zeros(M), 0
    for m, count in enumerate(alloc):
        if count:
            suffix = fold_bits(sample[row:row + count], params.u, params.d,
                               suffix_statistic(req.kind))
            values = join_payoff(req.kind, req.inputs.K, n, heads.rows(m, m + 1), suffix)[0]
            thetas[m] = float(values.mean())
            sses[m] = float(np.sum((values - thetas[m]) ** 2))
            row += count
    return heads.weight, thetas, sses


def _desk_request(n, probs=None, kind=PayoffKind.ASIAN_PUT):
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=n)
    params = derive_crr(inputs)
    if probs is not None:
        params = replace(params, up_probs=np.array(probs))
    return ValuationRequest(inputs=inputs, params=params, kind=kind)


@settings(DETERMINISTIC, max_examples=200)
@given(stratified_cases())
# Both estimators run more than one chunk, so on two or more threads a later
# run jumps its stream past the rows of the runs before it.
@example((_desk_request(9), 16, 2 * CHUNK + 617, CHUNK // 8 + 9, 5, 1))
@example((_desk_request(13, kind=PayoffKind.FIXED_LOOKBACK_PUT), 1024, 2 * CHUNK - 1,
          3 * CHUNK // 2048, 7, 0))
# M = 2^N: no suffix steps, and p = 0 or 1 leaves three strata in four
# without mass.
@example((_desk_request(6, [0.5, 1.0, 0.0, 0.3, 0.7, 0.5]), 64, 128, 2, 1, 2))
def test_stratified_estimators_read_one_stream_stratum_after_stratum(case):
    req, M, R, equal_R, seed, rep = case
    disc = math.exp(-req.inputs.q * req.inputs.T)
    for estimator, cfg in ((estimate_partitioned, McConfig(R=R, M=M, seed=seed)),
                           (estimate_partitioned_equal, McConfig(R=equal_R, M=M, seed=seed))):
        est = estimator(req, cfg, rep=rep)
        alloc = [draws for _, draws, _ in est.per_stratum]
        weight, thetas, sses = _stratum_at_a_time(req, M, alloc, seed, rep)
        assert est.per_stratum == tuple(zip(range(M), alloc, thetas.tolist()))
        assert est.value == disc * float(np.sum(thetas * weight))
        if estimator is estimate_partitioned:
            var_theta = float(np.sum(sses)) / (R * R)
        else:
            var_theta = float(np.sum(weight * weight * sses / (equal_R * equal_R)))
        assert est.variance == disc * disc * var_theta
        for threads in (2, 3, 4):
            assert estimator(req, cfg, rep=rep, eval_threads=threads) == est
        # With 8 usable cores, 3 to 6 threads make as many uneven runs.
        with mock.patch("binpaths.exact.usable_cores", lambda: 8):
            for threads in (3, 4, 5, 6):
                assert estimator(req, cfg, rep=rep, eval_threads=threads) == est
    if M == 1:
        basic = estimate_basic(req, McConfig(R=R, seed=seed), rep=rep)
        for estimator in (estimate_partitioned, estimate_partitioned_equal, estimate_shared):
            est = estimator(req, McConfig(R=R, M=1, seed=seed), rep=rep)
            assert (est.value, est.variance) == (basic.value, basic.variance)


@st.composite
def runs(draw):
    """Run lengths from 0 to 300, some of them empty, or k runs of one length."""
    if draw(st.booleans()):
        return [draw(st.integers(1, 300))] * draw(st.integers(1, 12))
    return draw(st.lists(st.integers(0, 300) | st.just(0), min_size=1, max_size=12))


@DETERMINISTIC
@given(runs(), st.integers(0, 2**32 - 1))
def test_segmented_and_block_reductions_are_mean_sse_of_each_run(counts, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(sum(counts)) * 10.0 ** rng.integers(-3, 4, sum(counts))
    theta, sse = _segment_mean_sse(values, np.array(counts))
    row = 0
    for i, count in enumerate(counts):
        want = _mean_sse(values[row:row + count]) if count else (0.0, 0.0)
        assert (theta[i], sse[i]) == want
        row += count
    if min(counts) == max(counts) > 0:
        block = _block_mean_sse(values.reshape(len(counts), -1).copy())
        assert np.array_equal(block[0], theta) and np.array_equal(block[1], sse)


@st.composite
def shared_cases(draw):
    """A tree of 1 to 12 steps with 0 and 1 among its step probabilities,
    M = 2^r strata for 1 <= r <= N, a built-in kind and 2 to 600 draws."""
    n = draw(st.integers(1, 12))
    probs = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95),
                          min_size=n, max_size=n))
    inputs = MarketInputs(S0=draw(st.floats(1.0, 50.0)), K=draw(st.floats(0.0, 100.0)),
                          q=0.06, sigma=draw(st.floats(0.1, 3.0)), T=1.0, N=n)
    params = replace(derive_crr(inputs), up_probs=np.array(probs))
    kind = draw(st.sampled_from(list(PayoffKind)))
    return (ValuationRequest(inputs=inputs, params=params, kind=kind),
            1 << draw(st.integers(1, n)), draw(st.integers(2, 600)), draw(st.integers(0, 2**32 - 1)))


@settings(DETERMINISTIC, max_examples=150)
@given(shared_cases())
# M = 2^N: every draw is the empty suffix.
@example((_desk_request(6, kind=PayoffKind.FIXED_LOOKBACK_PUT), 64, 5, 3))
def test_shared_level_sums_match_the_join_on_random_trees(case):
    req, M, R, seed = case
    params, n, K = req.params, req.inputs.N, req.inputs.K
    r = M.bit_length() - 1
    est = estimate_shared(req, McConfig(R=R, M=M, seed=seed))
    suffix = sample_rows(mc_stream(seed), params.up_probs[r:], R, params.u, params.d,
                         suffix_statistic(req.kind))
    heads = path_table(params.up_probs[:r], params.u, params.d, req.inputs.S0)
    values = join_payoff(req.kind, K, n, heads.rows(0, M), suffix)
    inner = np.sum(values * heads.weight[:, None], axis=0)
    means = values.mean(axis=1)
    disc = math.exp(-req.inputs.q * req.inputs.T)
    scale = max(K, float(np.max(np.abs(means))))
    assert est.value == pytest.approx(disc * float(inner.mean()), rel=1e-12, abs=1e-13 * scale)
    variance = disc * disc * float(np.sum((inner - inner.mean()) ** 2)) / (R * R)
    assert est.variance == pytest.approx(variance, rel=1e-9, abs=1e-12 * scale * scale / R)
    got = np.array([mean for _, _, mean in est.per_stratum])
    assert np.max(np.abs(got - means)) <= 1e-12 * scale
