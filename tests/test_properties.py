"""Property tests: the exact engine against the brute-force oracle.

Inputs cover random markets, constant (CRR) and per-step probabilities,
and every worker count from 1 to 9.  N stays at 12 or below, so every
suffix table spans the whole remainder after the partition prefix; the
explicit examples pin M = 2^N (an empty suffix) and round-robin deals.
"""

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from binpaths import (
    MarketInputs,
    PayoffKind,
    ProbabilityOutOfRange,
    ValuationRequest,
    derive_crr,
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
def test_exact_engine_matches_brute_force(req):
    inputs, params = req.inputs, req.params
    want = brute_value(
        inputs.S0, inputs.K, params.u, params.d,
        [float(p) for p in params.up_probs], inputs.q, inputs.T, req.kind.value,
    )
    assert value_exact_parallel(req) == pytest.approx(want, rel=1e-12, abs=1e-13)
