"""Property tests: the exact engine, the partition and the allocation.

The exact engine is checked against the brute-force oracle on random
markets, constant (CRR) and per-step probabilities, and every worker
count from 1 to 9, and against itself on one worker, bit for bit: its
prefix rows are fixed by N, so the worker count must not move the
value.  For N <= 10 a row is one path (an empty suffix table); the
explicit examples pin M = 2^N, round-robin deals and, at N = 16, rows
of 2^6 paths.  A partition finer than the row grid is the one case
where worker counts agree only to rounding.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from binpaths import (
    InfeasibleAllocation,
    MarketInputs,
    NonFiniteValue,
    PayoffKind,
    ProbabilityOutOfRange,
    TreeParams,
    ValuationRequest,
    allocate_strata,
    block_code_ranges,
    block_probability,
    derive_crr,
    make_partition,
    value_exact_parallel,
    with_custom_probs,
)

from oracles import brute_value

# Derandomized, so a tier-1 run draws the same examples every time.
DETERMINISTIC = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def valuations(draw):
    n = draw(st.integers(1, 12))
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
    kind = draw(st.sampled_from(PayoffKind))
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
def test_exact_engine_matches_brute_force(req):
    got = value_exact_parallel(req)
    assert got == pytest.approx(_brute(req), rel=1e-12, abs=1e-13)
    assert got == value_exact_parallel(replace(req, workers=1))


def _brute(req):
    inputs, params = req.inputs, req.params
    return brute_value(
        inputs.S0, inputs.K, params.u, params.d,
        [float(p) for p in params.up_probs], inputs.q, inputs.T, req.kind.value,
    )


def test_partition_finer_than_the_row_grid():
    # 2048 blocks of 2 paths each against rows of 4: the rows shrink to
    # the blocks, so the sum has other addends than on one worker.
    req = _request(12, 2048, PayoffKind.ASIAN_PUT)
    assert make_partition(12, 2048).prefix_width == 11
    got = value_exact_parallel(req)
    assert got == pytest.approx(value_exact_parallel(replace(req, workers=1)), rel=1e-12)
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
