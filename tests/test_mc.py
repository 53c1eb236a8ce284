import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from binpaths import (
    MAX_DEPTH,
    BernoulliPath,
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
    value_exact_parallel,
    value_exact_serial,
    with_custom_probs,
)
from binpaths import mc
from binpaths.exact import CHUNK, join_rows
from binpaths.mc import _alias_table, sample_bits, sample_rows
from binpaths.paths import PathTable, codes_to_bits, fold_bits, path_table, word_widths
from binpaths.payoffs import join_paths, join_payoff, payoff_batch, suffix_statistic

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


@pytest.mark.parametrize("n", [0, 1, 6, 32, 62])
def test_sample_bits_and_sample_path_are_the_codes_sample_rows_draws(n):
    # sample_bits is the bits of sample_rows' codes, with the word cut of
    # ordinary moves, at counts from one row to 2^16 rows.
    probs = np.linspace(0.05, 0.95, n)
    for count in (1, 2, 4095, 65536):
        got = sample_bits(mc_stream(9, 2, 1), probs, count)
        codes = sample_rows(mc_stream(9, 2, 1), probs, count, 1.0, 1.0, "codes").codes
        assert got.dtype == bool and got.shape == (count, n)
        assert np.array_equal(got, codes_to_bits(codes, n))
    if n == 0:
        return
    # sample_path draws one row of sample_rows with the tree's own moves,
    # whose words narrow to at most 7 steps at sigma^2 T/N = 100, and reads on.
    for sigma in (0.3, 10.0 * math.sqrt(n)):
        inputs = MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=sigma, T=1.0, N=n)
        params = with_custom_probs(inputs, probs.tolist())
        rng, twin = mc_stream(5), mc_stream(5)
        drawn = sample_rows(twin, params.up_probs, 3, params.u, params.d, "codes").codes
        assert [sample_path(params, rng) for _ in range(3)] == [
            BernoulliPath(code, n) for code in drawn.tolist()]


def test_sample_rows_read_one_raw_value_per_word_through_alias_tables():
    # 62 steps make words of 11, 11, 10, 10, 10 and 10 steps: row i reads
    # raw values 6i..6i+5 of the stream, step 1's word first.
    probs = np.linspace(0.05, 0.95, 62)
    u, d = DESK_PARAMS.u, DESK_PARAMS.d
    widths = word_widths(62, u, d)
    assert widths == [11, 11, 10, 10, 10, 10]
    drawn = sample_rows(mc_stream(9, 2, 1), probs, 1000, u, d, "codes").codes
    raw = mc_stream(9, 2, 1).bit_generator.random_raw(6001)
    after, raw = raw[-1], raw[:-1].reshape(1000, 6)
    want = []
    for row in raw.tolist():
        code = end = 0
        for value, w in zip(row, widths):
            thr, alias = _alias_table(tuple(probs[end:end + w].tolist()))
            end += w
            i = value >> (64 - w)
            word = i if value & ((1 << (64 - w)) - 1) < int(thr[i]) else int(alias[i])
            code = (code << w) | word
        want.append(code)
    assert drawn.tolist() == want
    # A new stream skips to any first row: rows first.. of the same sample.
    for first in (1, 2, 7, 993):
        later = sample_rows(mc_stream(9, 2, 1), probs, 1000 - first, u, d, "codes", first)
        assert np.array_equal(later.codes, drawn[first:])
    # Each statistic reads the same raw values, leaves the generator at the
    # same place and holds that statistic alone: the fold of the drawn
    # rows' bits, bit for bit.
    bits = codes_to_bits(drawn, 62)
    for name in ("codes", "last", "total", "low"):
        rng = mc_stream(9, 2, 1)
        folded = sample_rows(rng, probs, 1000, u, d, name)
        assert rng.bit_generator.random_raw() == after
        assert [f for f in PathTable._fields if getattr(folded, f) is not None] == [name]
        assert np.array_equal(getattr(folded, name), getattr(fold_bits(bits, u, d, name), name))

    # Rows of no steps read nothing and are the empty word.
    for name, empty in (("codes", 0), ("last", 1.0), ("total", 0.0), ("low", math.inf)):
        rng = mc_stream(9, 2, 1)
        folded = sample_rows(rng, probs[:0], 5, u, d, name)
        assert rng.bit_generator.random_raw() == raw[0, 0]
        assert getattr(folded, name).tolist() == [empty] * 5


def test_sample_rows_read_on_from_one_generator_as_fresh_streams_jump_there():
    # One generator read chunk after chunk, each chunk skipping some rows
    # from where the last one ended, gives each chunk the codes of a fresh
    # stream jumped to the chunk's absolute first row.  Rows of 7 steps are
    # one word, so the first rows put the jumps in every residue mod 4; 62
    # steps are six words a row.
    u, d = DESK_PARAMS.u, DESK_PARAMS.d
    for n in (7, 62):
        probs = np.linspace(0.1, 0.9, n)
        words = len(word_widths(n, u, d))
        skips, counts = (3, 0, 2, 0, 1, 0), (5, 1, 2, 0, 7, 9)
        rng, row, residues = mc_stream(11, 0, 2), 0, set()
        for skip, count in zip(skips, counts):
            row += skip
            residues.add(row * words % 4)
            got = sample_rows(rng, probs, count, u, d, "codes", skip).codes
            want = sample_rows(mc_stream(11, 0, 2), probs, count, u, d, "codes", row).codes
            assert np.array_equal(got, want)
            row += count
        if words == 1:
            assert residues == {0, 1, 2, 3}


@pytest.mark.parametrize("probs", [
    (0.48,) * 12, (0.5,) * 12, (1 / 3,) * 7, np.linspace(0.01, 0.99, 12).tolist(),
    (0.3, 1.0, 0.0, 0.7, 0.5, 1 / 3), (1.0, 0.0, 1.0), (0.0,) * 4, (1e-30, 0.5),
], ids=["crr", "fair", "thirds", "per-step", "zeros-and-ones", "one-path", "all-down",
        "below-2^-64"])
def test_alias_tables_hold_the_word_masses_exactly(probs):
    # Bucket b gives thr[b] of 2^(64 - w) to its own word and the rest to
    # alias[b].  The integer masses sum to 2^64 and match the word weights;
    # a zero weight is a zero mass: threshold 0 and an alias that has mass.
    thr, alias = _alias_table(tuple(probs))
    w = len(probs)
    cap = 1 << (64 - w)
    weight = path_table(probs, 1.0, 1.0, 1.0).weight
    assert thr.dtype == np.uint64 and int(thr.max()) <= cap
    mass = [0] * (1 << w)
    for b, (t, a) in enumerate(zip(thr.tolist(), alias.tolist())):
        mass[b] += t
        mass[a] += cap - t
    assert sum(mass) == 1 << 64
    slack = abs(1.0 - math.fsum(weight)) + 2.0 ** -52
    for c, m in enumerate(mass):
        assert abs(m / 2.0 ** 64 - weight[c]) <= slack
        if weight[c] == 0.0:
            assert m == 0 and thr[c] == 0 and weight[alias[c]] > 0.0


@pytest.mark.parametrize("probs, wraps", [
    ((1.0,) * 12, True), ((0.5,) * 12, True), ((1.0,) * 3, True),
    ((0.999,) * 12, False), ((1.0, 0.0, 1.0), False),
], ids=["all-up", "fair", "all-up-3", "near-all-up", "one-path"])
def test_sample_rows_keep_the_alias_rule_where_the_top_key_wraps(probs, wraps):
    # The sampler compares a whole raw value with the bucket's key
    # (i << (64 - w)) + thr[i], which wraps to 0 in the top bucket when its
    # threshold is the whole 2^(64 - w).  Every drawn word, the top bucket's
    # included, is still the mask-and-compare rule's.
    w = len(probs)
    thr, alias = _alias_table(probs)
    assert (int(thr[-1]) == 1 << (64 - w)) is wraps
    u, d = DESK_PARAMS.u, DESK_PARAMS.d
    assert word_widths(w, u, d) == [w]
    drawn = sample_rows(mc_stream(6), np.array(probs), 1 << 16, u, d, "codes")
    raw = mc_stream(6).bit_generator.random_raw(1 << 16).tolist()
    assert any(value >> (64 - w) == (1 << w) - 1 for value in raw)
    want = []
    for value in raw:
        i = value >> (64 - w)
        want.append(i if value & ((1 << (64 - w)) - 1) < int(thr[i]) else int(alias[i]))
    assert drawn.codes.tolist() == want


_WIDE = derive_crr(MarketInputs(S0=1.0, K=1.0, q=0.0, sigma=80.0, T=18 / 62, N=18))
_CRR24 = derive_crr(replace(DESK, N=24))
# (probs, u, d, word widths): a CRR tree; per-step probabilities with 0 and
# 1 entries; and moves of e^103, which WORD_REACH cuts into words of 6.
SAMPLER_CASES = {
    "crr": (_CRR24.up_probs, _CRR24.u, _CRR24.d, [12, 12]),
    "zeros-and-ones": (np.array([0.3, 1.0, 0.5, 0.0, 0.8, 0.15, 1.0, 0.6, 0.45, 0.0,
                                 0.7, 0.2, 0.0, 0.55, 1.0, 0.35, 0.9, 0.5, 0.05, 0.65]),
                       DESK_PARAMS.u, DESK_PARAMS.d, [10, 10]),
    "wide-moves": (np.linspace(0.1, 0.9, 18), _WIDE.u, _WIDE.d, [6, 6, 6]),
}


@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_word_code_counts_match_the_word_weights(case):
    # 2^22 rows from one stream, in blocks.  Each word's code counts are
    # held to its weights: chi-square per degree of freedom within six of
    # its standard deviations (cells expecting under 5 pooled) and every
    # |z| under 6.  A zero-weight code is never drawn.
    probs, u, d, widths = SAMPLER_CASES[case]
    assert word_widths(probs.shape[0], u, d) == widths
    rows, blocks = 1 << 22, 8
    counts = [np.zeros(1 << w, dtype=np.int64) for w in widths]
    rng = mc_stream(5, 0, 0)
    for _ in range(blocks):
        with np.errstate(over="ignore", under="ignore"):  # e^103 moves leave double range
            codes = sample_rows(rng, probs, rows // blocks, u, d, "codes").codes
        for w, count in zip(reversed(widths), reversed(counts)):
            count += np.bincount(codes & ((1 << w) - 1), minlength=1 << w)
            codes = codes >> w
    end = 0
    for w, count in zip(widths, counts):
        weight = path_table(probs[end:end + w], 1.0, 1.0, 1.0).weight
        end += w
        assert count.sum() == rows
        assert not count[weight == 0.0].any()
        expect = rows * weight
        big = expect >= 5.0
        observed = np.append(count[big], count[~big].sum())
        expected = np.append(expect[big], expect[~big].sum())
        dof = big.sum() - (expected[-1] == 0.0)
        keep = expected > 0.0
        chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
        assert abs(chi2 / dof - 1.0) <= 6.0 * math.sqrt(2.0 / dof), (w, chi2, dof)
        z = (count[big] - expect[big]) / np.sqrt(expect[big] * (1.0 - weight[big]))
        assert np.abs(z).max() < 6.0, w


def test_basic_estimate_builds_no_rows_by_steps_float_matrix():
    # 2^16 draws of 32 steps: one (R, N) float64 matrix alone is 16 MB.
    inputs = replace(DESK, N=32)
    params = derive_crr(inputs)
    cfg = McConfig(R=1 << 16, seed=0)
    for kind in PayoffKind:
        req = ValuationRequest(inputs=inputs, params=params, kind=kind)
        estimate_basic(req, cfg)  # word tables built outside the trace
        tracemalloc.start()
        try:
            estimate_basic(req, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (kind, peak)


# glibc sets its mmap and heap-trim thresholds from the blocks a process
# frees unless a MALLOC_*_ variable (or a malloc tunable) fixes them.
GLIBC_DYNAMIC_THRESHOLDS = (
    sys.platform == "linux" and platform.libc_ver()[0] == "glibc"
    and not any(name.startswith("MALLOC_") for name in os.environ)
    and "malloc" not in os.environ.get("GLIBC_TUNABLES", "")
)


@pytest.mark.skipif(not GLIBC_DYNAMIC_THRESHOLDS, reason="needs glibc's dynamic malloc thresholds")
def test_warm_basic_calls_fault_in_no_fresh_pages():
    # The 4 MB block that importing mc maps and frees lifts glibc's trim
    # threshold above a warm call's 3.5 MB of transient arrays.  Without it,
    # whether the heap top is trimmed and faulted back on every call, some
    # 750 minor faults a call, depends on where one persistent chunk lands:
    # so each fresh interpreter first holds a different number of bytes.
    import binpaths

    src = os.path.dirname(os.path.dirname(binpaths.__file__))
    code = (
        "import resource, sys\n"
        "held = bytearray(int(sys.argv[1]))\n"
        "import binpaths as bp\n"
        "inputs = bp.MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=32)\n"
        "cfg = bp.McConfig(R=1 << 16, seed=0)\n"
        "for kind in (bp.PayoffKind.ASIAN_PUT, bp.PayoffKind.FIXED_LOOKBACK_PUT):\n"
        "    req = bp.ValuationRequest(inputs=inputs, params=bp.derive_crr(inputs), kind=kind)\n"
        "    for _ in range(5):\n"
        "        bp.estimate_basic(req, cfg)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    for _ in range(20):\n"
        "        bp.estimate_basic(req, cfg)\n"
        "    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for held in (0, 1000, 3000):
        proc = subprocess.run([sys.executable, "-c", code, str(held)], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults = [float(x) for x in proc.stdout.split()]
        assert len(faults) == 2 and max(faults) < 50, (held, faults)


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


def test_stratified_rejects_more_strata_than_paths():
    # 2^12 + 1 and 2^13 strata of a 12-step tree; R is the smallest each
    # estimator accepts.
    for M in ((1 << 12) + 1, 1 << 13):
        for estimator, R in zip(STRATIFIED, (M, 2, 2)):
            with pytest.raises(InvalidWorkerCount, match="exceeds"):
                estimator(_desk_req(), McConfig(R=R, M=M, seed=0))


@pytest.mark.parametrize("estimator", STRATIFIED)
def test_single_stratum_beyond_one_chunk_is_bitwise_basic(estimator):
    # 9/8 of a chunk's rows: more than one chunk holds, and a stratum is
    # never split.
    cfg = McConfig(R=9 * CHUNK // 8, M=1, seed=8)
    assert cfg.R > CHUNK
    base = estimate_basic(_desk_req(), cfg)
    est = estimator(_desk_req(), cfg)
    assert (est.value, est.variance, est.R_used) == (base.value, base.variance, base.R_used)


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
    # M = 1 keeps estimate_basic's stream and arithmetic: the shared
    # estimator joins it through join_rows, not by levels.
    for kind in PayoffKind:
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

    # p = 0 on both prefix steps: stratum 0 fills more than a chunk, so the
    # empty strata after it make a chunk of their own.
    skewed = replace(DESK_PARAMS, up_probs=np.array([0.0, 0.0] + [0.4] * 10))
    req = ValuationRequest(inputs=DESK, params=skewed, kind=PayoffKind.ASIAN_PUT)
    cfg = McConfig(R=9 * CHUNK // 8, M=4, seed=3)
    assert cfg.R > CHUNK
    est = estimate_partitioned(req, cfg)
    assert [(draws, theta > 0.0) for _, draws, theta in est.per_stratum] == \
        [(cfg.R, True), (0, False), (0, False), (0, False)]
    assert est.value == math.exp(-0.06) * est.per_stratum[0][2]
    assert estimate_partitioned(req, cfg, eval_threads=2) == est


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


def _code_parity(params, S0, K, path):
    return float(path.code & 1)


@pytest.mark.parametrize("estimator", STRATIFIED)
def test_eval_threads_do_not_change_results(estimator, monkeypatch):
    # 3 * CHUNK draws fill 3 chunks of strata; CHUNK draws in each of 8
    # strata make 8 chunks at equal allocation.  The shared sample sums a
    # built-in payoff by levels, inline, and joins a callable's 8 prefixes
    # with CHUNK // 4 draws in 2 batches.
    cfg = McConfig(R={estimate_partitioned: 3 * CHUNK, estimate_partitioned_equal: CHUNK,
                      estimate_shared: CHUNK // 4}[estimator], M=8, seed=13)
    for kind in [*PayoffKind, _code_parity]:
        lone = estimator(_desk_req(kind), cfg, eval_threads=1)
        for threads in (1, 2, 4):
            threaded = estimator(_desk_req(kind), cfg, eval_threads=threads)
            assert threaded == lone
        # With 8 usable cores, 3 to 6 threads make as many runs as there
        # are chunks or batches, up to 6.
        with monkeypatch.context() as patch:
            patch.setattr("binpaths.exact.usable_cores", lambda: 8)
            for threads in (3, 5, 6):
                assert estimator(_desk_req(kind), cfg, eval_threads=threads) == lone


@pytest.mark.parametrize("kind, folded", [
    (PayoffKind.EUROPEAN_CALL, "last"), (PayoffKind.EUROPEAN_PUT, "last"),
    (PayoffKind.ASIAN_PUT, "total"), (PayoffKind.FIXED_LOOKBACK_PUT, "low"),
    (_code_parity, "codes"),
], ids=["euro-call", "euro-put", "asian-put", "lookback-put", "callable"])
def test_a_payoff_folds_only_the_statistic_it_reads(kind, folded, monkeypatch):
    # Sampled rows are folded for one statistic and hold it alone.
    inputs = replace(DESK, N=32)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=kind)

    def held(rows):
        return [name for name in PathTable._fields if getattr(rows, name) is not None]

    rows = sample_rows(mc_stream(4), params.up_probs, 256, params.u, params.d, folded)
    assert held(rows) == [folded]
    assert payoff_batch(kind, params, inputs.S0, inputs.K, rows).shape == (256,)

    # Rows folded for another statistic are refused by every entry that
    # joins them, before a payoff is formed.
    start = path_table((), params.u, params.d, inputs.S0)
    heads = path_table(params.up_probs[:3], params.u, params.d, inputs.S0)
    for other in {"codes", "last", "total", "low"} - {folded}:
        wrong = sample_rows(mc_stream(4), params.up_probs, 256, params.u, params.d, other)
        with pytest.raises(InvalidInput):
            payoff_batch(kind, params, inputs.S0, inputs.K, wrong)
        with pytest.raises(InvalidInput):
            join_paths(kind, params, inputs.S0, inputs.K, start, wrong, 32)
        tails = sample_rows(mc_stream(4), params.up_probs[3:], 256, params.u, params.d, other)
        with pytest.raises(InvalidInput):
            join_rows(req, heads, tails, lambda lo, hi, values: values, 2)

    # estimate_shared folds its one sample for the payoff, once, and hands
    # it to the level sums (a built-in) or to join_rows' threads (a callable).
    seen = []
    name = "join_rows" if folded == "codes" else "_level_sums"
    real = getattr(mc, name)

    def spy(req, prefix, suffix, *rest):
        seen.append(held(suffix))
        return real(req, prefix, suffix, *rest)

    monkeypatch.setattr(mc, name, spy)
    estimate_shared(req, McConfig(R=256, M=8, seed=4), eval_threads=2)
    assert seen == [[folded]]


def test_stratum_chunks_draw_each_stratum_from_its_stream_range_for_any_thread_count(
        monkeypatch):
    # M=1024 at N=16 leaves 6 sampled steps per draw, and R = 6 * CHUNK rows
    # fill six chunks (192 draws in each of 1024 strata, too).  p = 1 on step 2
    # and p = 0 on step 7 take the mass from three strata in four, in runs
    # of 8 that fall inside chunks.
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=16)
    probs = np.full(16, 0.3)
    probs[1], probs[6] = 1.0, 0.0
    params = replace(derive_crr(inputs), up_probs=probs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.ASIAN_PUT)
    cfg = McConfig(R=6 * CHUNK, M=1024, seed=21)
    est = estimate_partitioned(req, cfg)
    draws = [d for _, d, _ in est.per_stratum]
    assert sum(draws) > 5 * CHUNK
    assert [d > 0 for d in draws[248:280]] == ([False] * 8 + [True] * 8) * 2
    assert sum(d > 0 for d in draws) == 256
    for threads in (2, 3, 4):
        assert estimate_partitioned(req, cfg, eval_threads=threads) == est
    equal = estimate_partitioned_equal(req, McConfig(R=192, M=1024, seed=21))
    for threads in (2, 3, 4):
        assert estimate_partitioned_equal(req, McConfig(R=192, M=1024, seed=21),
                                          eval_threads=threads) == equal
    # With 8 usable cores, 3 to 6 threads split the six chunks into as
    # many runs, uneven ones included.
    with monkeypatch.context() as patch:
        patch.setattr("binpaths.exact.usable_cores", lambda: 8)
        for threads in (3, 4, 5, 6):
            assert estimate_partitioned(req, cfg, eval_threads=threads) == est
            assert estimate_partitioned_equal(req, McConfig(R=192, M=1024, seed=21),
                                              eval_threads=threads) == equal

    # Stratum m's rows are rows [sum(draws[:m]), sum(draws[:m + 1])) of one
    # sample of the repetition's stream.  Stratum at a time, each mean and
    # SSE is the chunked one, bit for bit, from the fold of the rows' bits.
    drawn = sample_rows(mc_stream(21, 0, 0), probs[10:], cfg.R, params.u, params.d, "codes")
    sample = codes_to_bits(drawn.codes, 6)
    first = np.cumsum(draws) - draws
    heads = path_table(probs[:10], params.u, params.d, 20.0)
    sses = np.zeros(1024)
    for m in range(1024):
        if draws[m]:
            suffix = fold_bits(sample[first[m]:first[m] + draws[m]], params.u, params.d, "total")
            values = join_payoff(PayoffKind.ASIAN_PUT, 100.0, 16, heads.rows(m, m + 1), suffix)[0]
            assert est.per_stratum[m][2] == float(values.mean())
            sses[m] = np.sum((values - values.mean()) ** 2)
        else:
            assert est.per_stratum[m][2] == 0.0
    assert est.variance == math.exp(-0.06) ** 2 * (float(np.sum(sses)) / cfg.R**2)

    sampled = [m for m in range(1024) if draws[m]]
    for m in sampled[::37]:
        head = [(m >> (9 - t)) & 1 for t in range(10)]
        rows = sample[first[m]:first[m] + draws[m]].tolist()
        values = [brute_payoff("asian-put", brute_prices(20.0, params.u, params.d, head + row),
                               100.0) for row in rows]
        assert est.per_stratum[m][2] == pytest.approx(np.mean(values), rel=1e-12)


@pytest.mark.parametrize("R", [4096, 1000])
def test_equal_strata_chunks_match_a_stratum_at_a_time(R, monkeypatch):
    # 64 strata of R draws at N=16: a chunk holds 8 strata (R=4096) or 33 and
    # 31 (R=1000), all of one count, so it is one (strata, draws) block.
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=16)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.ASIAN_PUT)
    cfg = McConfig(R=R, M=64, seed=29)
    est = estimate_partitioned_equal(req, cfg)
    chunks = np.unique(np.arange(64) * R // CHUNK)
    assert 1 < len(chunks) <= 32

    # Stratum m's rows are rows [m * R, (m + 1) * R) of one sample, folded
    # from their bits and joined and reduced one stratum at a time.
    drawn = sample_rows(mc_stream(29, 0, 0), params.up_probs[6:], 64 * R, params.u, params.d,
                        "codes")
    sample = codes_to_bits(drawn.codes, 10)
    heads = path_table(params.up_probs[:6], params.u, params.d, 20.0)
    thetas, sses = np.zeros(64), np.zeros(64)
    for m in range(64):
        suffix = fold_bits(sample[m * R:(m + 1) * R], params.u, params.d, "total")
        values = join_payoff(PayoffKind.ASIAN_PUT, 100.0, 16, heads.rows(m, m + 1), suffix)[0]
        thetas[m] = float(values.mean())
        sses[m] = float(np.sum((values - thetas[m]) ** 2))
    w, disc = heads.weight, math.exp(-0.06)
    assert est.per_stratum == tuple(zip(range(64), [R] * 64, thetas.tolist()))
    assert est.value == disc * float(np.sum(thetas * w))
    assert est.variance == disc * disc * float(np.sum(w * w * sses / (R * R)))
    for threads in (2, 3, 4):
        assert estimate_partitioned_equal(req, cfg, eval_threads=threads) == est
    with monkeypatch.context() as patch:
        patch.setattr("binpaths.exact.usable_cores", lambda: 8)
        for threads in (3, 4, 5, 6):
            assert estimate_partitioned_equal(req, cfg, eval_threads=threads) == est


def test_shared_callable_joins_every_prefix_through_join_rows(monkeypatch):
    # A callable sums no levels: join_rows joins its 8 prefixes with 4,097
    # shared draws in batches of 7 rows and 1, each summed prefix after
    # prefix, as the loop below sums them.
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=12)
    params = derive_crr(inputs)

    def asian_put_clone(params, S0, K, path):
        price, total = S0, 0.0
        for up in path.bits():
            price *= params.u if up else params.d
            total += price
        return max(K - total / path.n, 0.0)

    req = ValuationRequest(inputs=inputs, params=params, kind=asian_put_clone)
    cfg = McConfig(R=4097, M=8, seed=17)
    est = estimate_shared(req, cfg)
    drawn = sample_rows(mc_stream(17), params.up_probs[3:], cfg.R, params.u, params.d, "codes")
    heads = path_table(params.up_probs[:3], params.u, params.d, 20.0)
    inner = np.zeros(cfg.R)
    for m in range(8):
        values = np.array([asian_put_clone(params, 20.0, 100.0, BernoulliPath((m << 9) | c, 12))
                           for c in drawn.codes.tolist()])
        assert est.per_stratum[m] == (m, cfg.R, float(values.mean()))
        inner += heads.weight[m] * values
    theta, disc = float(inner.mean()), math.exp(-0.06)
    assert est.value == disc * theta
    assert est.variance == disc * disc * (float(np.sum((inner - theta) ** 2)) / cfg.R**2)
    twin = estimate_shared(replace(req, kind=PayoffKind.ASIAN_PUT), cfg)
    assert est.value == pytest.approx(twin.value, rel=1e-12)
    for threads in (2, 3, 4):
        assert estimate_shared(req, cfg, eval_threads=threads) == est
    with monkeypatch.context() as patch:
        patch.setattr("binpaths.exact.usable_cores", lambda: 8)
        for threads in (3, 4):
            assert estimate_shared(req, cfg, eval_threads=threads) == est


@pytest.mark.parametrize("kind", list(PayoffKind), ids=lambda k: k.value)
def test_shared_level_sums_match_the_join_of_every_prefix_and_draw(kind):
    # M=1024 at N=16: 11 levels of prefixes, one search per level and draw,
    # against every prefix joined with every draw and summed exactly.
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=16)
    params = derive_crr(inputs)
    cfg = McConfig(R=4096, M=1024, seed=7)
    est = estimate_shared(ValuationRequest(inputs=inputs, params=params, kind=kind), cfg)
    name = suffix_statistic(kind)
    suffix = sample_rows(mc_stream(7), params.up_probs[10:], cfg.R, params.u, params.d, name)
    heads = path_table(params.up_probs[:10], params.u, params.d, 20.0)
    inner = np.array([
        math.fsum((heads.weight * join_payoff(kind, 100.0, 16, heads, PathTable(**{name: x})))
                  .tolist())
        for x in getattr(suffix, name)])
    means = np.concatenate([
        [math.fsum(row) / cfg.R
         for row in join_payoff(kind, 100.0, 16, heads.rows(lo, lo + 64), suffix).tolist()]
        for lo in range(0, 1024, 64)])
    theta, disc = math.fsum(inner.tolist()) / cfg.R, math.exp(-0.06)
    sse = math.fsum(((inner - theta) ** 2).tolist())
    assert est.value == pytest.approx(disc * theta, rel=1e-13)
    assert est.variance == pytest.approx(disc * disc * sse / cfg.R**2, rel=1e-13)
    got = np.array([mean for _, _, mean in est.per_stratum])
    assert np.max(np.abs(got - means)) <= 1e-13 * np.max(np.abs(means))


def test_shared_chunks_match_brute_force_per_draw():
    # The 32 prefixes fall in 6 levels, each summed with one search per draw.
    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=8)
    params = derive_crr(inputs)
    req = ValuationRequest(inputs=inputs, params=params, kind=PayoffKind.ASIAN_PUT)
    cfg = McConfig(R=2048, M=32, seed=4)
    est = estimate_shared(req, cfg)
    assert estimate_shared(req, cfg, eval_threads=2) == est

    drawn = sample_rows(mc_stream(4), params.up_probs[5:], 2048, params.u, params.d, "codes")
    suffixes = codes_to_bits(drawn.codes, 3).astype(int).tolist()
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


@pytest.mark.parametrize("kind", [PayoffKind.EUROPEAN_CALL, PayoffKind.EUROPEAN_PUT,
                                  PayoffKind.FIXED_LOOKBACK_PUT], ids=lambda k: k.value)
@pytest.mark.parametrize("estimator", [estimate_basic, estimate_partitioned])
def test_deepest_tree_estimates_land_near_the_merged_state_value(estimator, kind):
    # At N=62 a whole row folds six sampled words (11, 11, 10, 10, 10 and
    # 10 steps); the merged-state table gives the exact value to hold the
    # estimates to, within 5 standard errors.
    inputs = replace(DESK, N=MAX_DEPTH)
    req = ValuationRequest(inputs=inputs, params=derive_crr(inputs), kind=kind, force_large=True)
    assert word_widths(MAX_DEPTH, req.params.u, req.params.d) == [11, 11, 10, 10, 10, 10]
    exact = value_exact_parallel(req)
    est = estimator(req, McConfig(R=1 << 14, M=1 if estimator is estimate_basic else 64, seed=62))
    assert abs(est.value - exact) <= 5.0 * est.std_error


# At N=62 the path codes lie above 2^53; at M=2^N the suffix has no steps.
TWIN_CASES = (
    [pytest.param(e, 6, 1 if e is estimate_basic else 4, id=e.__name__)
     for e in (estimate_basic,) + STRATIFIED]
    + [pytest.param(e, 62, 1 if e is estimate_basic else 4, id=f"{e.__name__}-N62")
       for e in (estimate_basic, estimate_partitioned)]
    + [pytest.param(e, 6, 64, id=f"{e.__name__}-M64") for e in STRATIFIED]
)


@pytest.mark.parametrize("estimator, n, M", TWIN_CASES)
def test_callable_payoff_matches_builtin_twin(estimator, n, M):
    def asian_put_clone(params, S0, K, path):
        return float(max(K - asset_path(params, S0, path).mean(), 0.0))

    inputs = MarketInputs(S0=20.0, K=100.0, q=0.06, sigma=3.0, T=1.0, N=n)
    params = derive_crr(inputs)
    cfg = McConfig(R=64, M=M, seed=3)
    twin = estimator(ValuationRequest(inputs=inputs, params=params,
                                      kind=PayoffKind.ASIAN_PUT), cfg)
    got = estimator(ValuationRequest(inputs=inputs, params=params, kind=asian_put_clone), cfg)
    assert got.value == pytest.approx(twin.value, rel=1e-12)
    assert got.variance == pytest.approx(twin.variance, rel=1e-9)
    assert got.R_used == twin.R_used


@pytest.mark.parametrize("estimator", STRATIFIED)
def test_callable_sees_each_draw_under_its_stratum_prefix(estimator):
    seen = []

    def record(params, S0, K, path):
        seen.append(path.code)
        return 0.0

    n = DESK.N
    est = estimator(ValuationRequest(inputs=DESK, params=DESK_PARAMS, kind=record),
                    McConfig(R=256, M=4, seed=2))
    codes = np.array(seen)
    strata = np.repeat([m for m, _, _ in est.per_stratum], [d for _, d, _ in est.per_stratum])
    assert np.array_equal(codes >> (n - 2), strata)
    if estimator is estimate_shared:
        # Every stratum extends the one shared sample, in draw order.
        tails = (codes & ((1 << (n - 2)) - 1)).reshape(4, -1)
        assert (tails == tails[0]).all()


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
    # A bool or a float is no count, and each field has its floor: 0 for seed.
    for field, floor in (("R", 1), ("M", 1), ("seed", 0), ("reps", 1)):
        for value in (True, False, 2.0, floor - 1, -1):
            with pytest.raises(InvalidInput):
                McConfig(**{"R": 16, field: value})


def test_shared_requires_two_draws():
    # One draw per stratum cannot estimate a variance either.
    for estimator in (estimate_shared, estimate_partitioned_equal):
        for M in (1, 4):
            with pytest.raises(InvalidInput):
                estimator(_desk_req(), McConfig(R=1, M=M, seed=0))
    # Nor can a proportional allocation that gives no stratum two draws.
    for R, M in ((1, 1), (4, 4)):
        with pytest.raises(InvalidInput):
            estimate_partitioned(_desk_req(), McConfig(R=R, M=M, seed=0))


def _clone(params, S0, K, path):
    return float(max(K - asset_path(params, S0, path).mean(), 0.0))


# pmc at 3 * CHUNK draws and pmc-equal at CHUNK // 16 a stratum fill several
# chunks, so two threads run two runs; a callable draws fewer, in one chunk.
PLAN_CASES = [(estimator, kind, R)
              for kind in [*PayoffKind, _clone]
              for estimator, R in zip(STRATIFIED, (3 * CHUNK, CHUNK // 16, 4096)
                                      if kind is not _clone else (512, 32, 256))]


@pytest.mark.parametrize("estimator, kind, R", PLAN_CASES,
                         ids=[f"{e.__name__}-{getattr(k, 'value', 'callable')}"
                              for e, k, _ in PLAN_CASES])
def test_warm_and_cold_stratum_plans_give_equal_estimates(estimator, kind, R):
    req = _desk_req(kind)
    for threads in (1, 2):
        for seed in (4, 5):
            cfg = McConfig(R=R, M=64, seed=seed)
            mc._stratum_plan.cache_clear()
            cold = estimator(req, cfg, eval_threads=threads)
            warm = estimator(req, cfg, eval_threads=threads)
            assert mc._stratum_plan.cache_info().hits == 1
            assert warm == cold


def test_stratum_plan_arrays_refuse_writes():
    # pmc at M=1024 over 4 * CHUNK draws gives its strata unequal counts,
    # and smc builds level tables for each built-in statistic.
    plans = [mc._plan(_desk_req(kind), McConfig(R=R, M=M), allocation)
             for kind, R, M, allocation in (
                 (PayoffKind.ASIAN_PUT, 4 * CHUNK, 1024, "proportional"),
                 (PayoffKind.ASIAN_PUT, 64, 64, "equal"),
                 (PayoffKind.EUROPEAN_PUT, 64, 64, "shared"),
                 (PayoffKind.ASIAN_PUT, 64, 64, "shared"),
                 (PayoffKind.FIXED_LOOKBACK_PUT, 64, 64, "shared"))]
    assert any(not width for _, _, _, width, _, _ in plans[0].chunks)
    arrays = []
    for plan in plans:
        arrays += [*plan.prefix, plan.alloc]
        arrays += [a for *_, runs in plan.chunks if runs for a in runs]
        for rows, _, table in plan.levels:
            arrays += [rows, *(table if isinstance(table, tuple) else ())]
    assert len(arrays) > 60
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


@pytest.mark.parametrize("estimator", STRATIFIED)
def test_trees_that_differ_share_no_stratum_plan(estimator):
    inputs = replace(DESK, K=90.0)
    probs = DESK_PARAMS.up_probs.copy()
    probs[2] = 0.3
    base = ValuationRequest(inputs=inputs, params=DESK_PARAMS,
                            kind=PayoffKind.FIXED_LOOKBACK_PUT)
    others = [
        (replace(base, inputs=replace(inputs, S0=21.0)), 4096),
        (replace(base, inputs=replace(inputs, K=110.0)), 4096),
        (replace(base, params=replace(DESK_PARAMS, up_probs=probs)), 4096),
        (base, 4000),
    ]
    for req, R in others:
        cfg = McConfig(R=R, M=8, seed=6)
        mc._stratum_plan.cache_clear()
        cold = estimator(req, cfg)
        mc._stratum_plan.cache_clear()
        estimator(base, McConfig(R=4096, M=8, seed=6))
        assert estimator(req, cfg) == cold
        assert mc._stratum_plan.cache_info().misses == 2


def test_rejected_calls_raise_again_on_a_warm_plan():
    for _ in range(2):
        with pytest.raises(InfeasibleAllocation):
            estimate_partitioned(_desk_req(), McConfig(R=2, M=4, seed=0))
        # Four strata of one draw each: no variance to estimate.
        with pytest.raises(InvalidInput, match="two draws"):
            estimate_partitioned(_desk_req(), McConfig(R=4, M=4, seed=0))
        for estimator in STRATIFIED:
            with pytest.raises(InvalidWorkerCount):
                estimator(_desk_req(), McConfig(R=64, M=3, seed=0))
