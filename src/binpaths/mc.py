"""Monte Carlo estimators of the discounted expected payoff.

Three estimators share one sampling convention.  A path splits into an
r-bit prefix (r = log2 of the stratum count M) and an (N-r)-bit suffix.

* basic: R full paths, no stratification.
* partitioned: stratum m fixes the prefix to m and draws R_m suffixes,
  with R_m proportional to the stratum probability (or R_m = R in the
  equal-allocation variant used for estimator comparisons).
* shared: one set of R suffixes is drawn once and reused by every
  stratum, so each draw yields an inner sum over all M prefixes.

Built-in payoffs go through the exact engine's path kernel, join_payoff.
One prefix table per call, built from S0 by path_table, holds every
stratum's mass (its weight) and its state after r steps, and a
RowSummary of the sampled suffix rows extends that state to whole
paths.  The basic estimator is the case r = 0, through payoff_batch.
The shared estimator joins all M prefix rows with its one sample in
chunks of rows, reduced in chunk order whatever the thread count.

Streams are keyed by (master seed, stratum index, repetition index)
through a counter-based generator, so results are reproducible and do
not depend on which thread evaluates which stratum.  With M = 1 all
three estimators consume the identical stream and arithmetic and are
bit-for-bit equal to the basic estimator.

Estimates are reported on the value scale: value = e^{-qT} * theta_hat
and variance = e^{-2qT} * Var_hat(theta_hat).  Per-stratum means stay
on the theta scale.  All estimators end in one reduction, which raises
NonFiniteValue when the value or the variance is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .errors import InfeasibleAllocation, InvalidInput, InvalidWorkerCount, quiet_non_finite
from .exact import CHUNK, ValuationRequest, _finite, _map_in_order
from .paths import (
    BernoulliPath,
    PathPartition,
    PathTable,
    RowSummary,
    block_probabilities,
    block_probability,  # noqa: F401  the benchmark's tracer wraps mc.block_probability
    codes_to_bits,
    make_partition,
    path_table,
)
from .payoffs import PayoffKind, join_payoff, payoff_batch


@dataclass(frozen=True)
class McConfig:
    """Sampling plan: total draws R, stratum count M, seed, repetitions."""

    R: int
    M: int = 1
    seed: int = 0
    reps: int = 1

    def __post_init__(self):
        if not isinstance(self.R, int) or isinstance(self.R, bool) or self.R < 1:
            raise InvalidInput(f"R must be a positive integer, got {self.R!r}")
        if not isinstance(self.M, int) or isinstance(self.M, bool) or self.M < 1:
            raise InvalidInput(f"M must be a positive integer, got {self.M!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise InvalidInput(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not isinstance(self.reps, int) or isinstance(self.reps, bool) or self.reps < 1:
            raise InvalidInput(f"reps must be a positive integer, got {self.reps!r}")


@dataclass(frozen=True)
class Estimate:
    value: float
    variance: float
    std_error: float
    R_used: int
    method: str
    seed: int
    per_stratum: Optional[tuple] = None


@dataclass(frozen=True)
class RepetitionSummary:
    """Per-repetition estimates plus the averages the studies report."""

    estimates: tuple
    mean_value: float
    mean_variance: float
    empirical_variance: float

    @property
    def reps(self) -> int:
        return len(self.estimates)

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    @property
    def variances(self) -> np.ndarray:
        return np.array([e.variance for e in self.estimates])


def mc_stream(seed: int, stratum: int = 0, rep: int = 0) -> np.random.Generator:
    """Independent generator keyed by (seed, stratum, repetition)."""
    ss = np.random.SeedSequence(seed, spawn_key=(stratum, rep))
    return np.random.Generator(np.random.Philox(ss))


def sample_bits(rng: np.random.Generator, probs: np.ndarray, count: int) -> np.ndarray:
    """(count, len(probs)) Bernoulli matrix, bit t true with prob probs[t]."""
    return rng.random((count, probs.shape[0])) < probs


def sample_path(params, rng: np.random.Generator) -> BernoulliPath:
    """Draw one path, bit t up with probability p_t."""
    bits = sample_bits(rng, params.up_probs, 1)[0]
    return BernoulliPath.from_bits([int(b) for b in bits])


def _prefix_table(req: ValuationRequest, M: int) -> PathTable:
    """States of the log2(M)-step prefixes from S0, row m for stratum m.

    The weights are the stratum masses, bit for bit block_probability's.
    """
    if M & (M - 1) != 0:
        raise InvalidWorkerCount(
            f"stratum count must be a power of two, got {M}"
        )
    r = make_partition(req.inputs.N, M).prefix_width
    params = req.params
    return path_table(params.up_probs[:r], params.u, params.d, req.inputs.S0)


def _extend(req: ValuationRequest, prefix: PathTable, lo: int, hi: int,
            suffix: RowSummary) -> np.ndarray:
    """Payoffs of prefixes lo..hi-1 (rows), each extended by every suffix (columns)."""
    kind, K = req.kind, req.inputs.K
    if isinstance(kind, PayoffKind):
        return join_payoff(kind, K, req.inputs.N, prefix.rows(lo, hi), suffix)
    # A callable has no summary: it sees whole bit rows.
    r = prefix.weight.shape[0].bit_length() - 1
    heads = codes_to_bits(np.arange(lo, hi, dtype=np.uint64), r)
    bits = np.hstack((np.repeat(heads, len(suffix.bits), axis=0),
                      np.tile(suffix.bits, (hi - lo, 1))))
    return payoff_batch(kind, req.params, req.inputs.S0, K, bits).reshape(hi - lo, -1)


def _mean_sse(values: np.ndarray) -> tuple:
    """Mean of payoff draws and the sum of their squared deviations."""
    theta = float(values.mean())
    return theta, float(np.sum((values - theta) ** 2))


def _estimate(req: ValuationRequest, cfg: McConfig, theta: float, var_theta: float,
              R_used: int, method: str, per_stratum: Optional[tuple] = None) -> Estimate:
    """The one reduction: discount theta and its variance, guard, standard error."""
    disc = math.exp(-req.inputs.q * req.inputs.T)
    value = _finite(disc * theta)
    variance = _finite(disc * disc * var_theta)
    return Estimate(
        value=value,
        variance=variance,
        std_error=math.sqrt(variance),
        R_used=R_used,
        method=method,
        seed=cfg.seed,
        per_stratum=per_stratum,
    )


@quiet_non_finite
def estimate_basic(req: ValuationRequest, cfg: McConfig, rep: int = 0) -> Estimate:
    """Plain Monte Carlo: R i.i.d. paths, sample mean and its variance.

    The variance estimate is (1/R^2) * sum of squared deviations on the
    theta scale, rescaled to the value scale by the squared discount.
    """
    if cfg.R < 2:
        raise InvalidInput(f"basic estimator needs R >= 2, got {cfg.R}")
    params = req.params
    rng = mc_stream(cfg.seed, 0, rep)
    bits = sample_bits(rng, params.up_probs, cfg.R)
    values = payoff_batch(req.kind, params, req.inputs.S0, req.inputs.K, bits)
    theta, sse = _mean_sse(values)
    return _estimate(req, cfg, theta, sse / (cfg.R * cfg.R), cfg.R, "basic")


def allocate_strata(partition: PathPartition, params, R: int) -> list:
    """Largest-remainder split of R draws proportional to stratum mass.

    Every stratum with positive probability ends up with at least one
    draw, stealing from the largest allocations when rounding left a
    positive stratum empty.  Ties break toward the lower rank so the
    result is deterministic.
    """
    return _allocate(block_probabilities(params, partition), R)


def _allocate(masses: list, R: int) -> list:
    count = len(masses)
    positive = [m for m, mass in enumerate(masses) if mass > 0.0]
    if R < len(positive):
        raise InfeasibleAllocation(
            f"R={R} draws cannot cover {len(positive)} strata with positive mass"
        )
    targets = [R * mass for mass in masses]
    alloc = [int(math.floor(t)) for t in targets]
    remainder = R - sum(alloc)
    by_fraction = sorted(range(count), key=lambda m: (-(targets[m] - alloc[m]), m))
    for m in by_fraction[:remainder]:
        alloc[m] += 1
    def spare(m: int) -> int:
        return alloc[m] - (1 if masses[m] > 0.0 else 0)

    while True:
        starved = [m for m in positive if alloc[m] == 0]
        if not starved:
            break
        donor = max(range(count), key=lambda m: (spare(m), -m))
        alloc[donor] -= 1
        alloc[starved[0]] += 1
    return alloc


def _stratified(req: ValuationRequest, cfg: McConfig, rep: int, eval_threads: int,
                prefix: PathTable, alloc: list, var_theta: Callable,
                method: str) -> Estimate:
    """Stratum m joins prefix row m with alloc[m] suffixes of its own stream.

    var_theta maps the strata's squared-deviation sums to the variance
    of the combined estimate on the theta scale.
    """
    params = req.params
    probs = params.up_probs[cfg.M.bit_length() - 1:]

    def stats(m: int) -> tuple:
        if alloc[m] == 0:
            return 0.0, 0.0
        bits = sample_bits(mc_stream(cfg.seed, m, rep), probs, alloc[m])
        suffix = RowSummary(bits, params.u, params.d)
        return _mean_sse(_extend(req, prefix, m, m + 1, suffix)[0])

    per = _map_in_order(stats, cfg.M, eval_threads)
    thetas = np.array([t for t, _ in per])
    sses = np.array([s for _, s in per])
    return _estimate(
        req, cfg, float(np.sum(thetas * prefix.weight)), var_theta(sses), sum(alloc),
        method, tuple((m, alloc[m], per[m][0]) for m in range(cfg.M)),
    )


@quiet_non_finite
def estimate_partitioned(req: ValuationRequest, cfg: McConfig, rep: int = 0,
                         eval_threads: int = 1) -> Estimate:
    """Stratified MC with draws proportional to stratum probability.

    Stratum m fixes the first r bits of every draw to the binary digits
    of m and samples the suffix bits.  The combined estimate is
    sum_m theta_m * P(m); its variance estimate is the pooled
    (1/R^2) * total squared deviation, valid under this allocation.
    """
    if cfg.R < cfg.M:
        raise InfeasibleAllocation(
            f"partitioned estimator needs R >= M, got R={cfg.R}, M={cfg.M}"
        )
    prefix = _prefix_table(req, cfg.M)
    alloc = _allocate(prefix.weight.tolist(), cfg.R)
    return _stratified(req, cfg, rep, eval_threads, prefix, alloc,
                       lambda sses: float(np.sum(sses)) / (cfg.R * cfg.R),
                       "partitioned")


@quiet_non_finite
def estimate_partitioned_equal(req: ValuationRequest, cfg: McConfig, rep: int = 0,
                               eval_threads: int = 1) -> Estimate:
    """Stratified MC with R draws in every stratum (M*R total).

    Equal allocation breaks the cancellation that lets the proportional
    variant pool squared deviations, so the variance estimate carries
    the stratum weights explicitly:

        Var_hat = sum_m P(m)^2 * (1/R_m^2) * sum_i (V_mi - theta_m)^2

    which reduces to the proportional form when R_m/R = P(m) and to the
    basic estimator at M = 1.
    """
    prefix = _prefix_table(req, cfg.M)
    w = prefix.weight
    return _stratified(req, cfg, rep, eval_threads, prefix, [cfg.R] * cfg.M,
                       lambda sses: float(np.sum(w * w * sses / (cfg.R * cfg.R))),
                       "partitioned-equal")


@quiet_non_finite
def estimate_shared(req: ValuationRequest, cfg: McConfig, rep: int = 0,
                    eval_threads: int = 1) -> Estimate:
    """Shared-sample MC: one suffix sample reused by every stratum.

    Draw i contributes the inner sum over all M prefixes weighted by
    stratum probability, so the R inner sums are i.i.d. and their
    sample variance estimates the estimator variance directly.  The
    prefixes are joined with the sample a chunk of rows at a time; the
    chunk size depends on R alone, so threads change no result.
    """
    if cfg.R < 2:
        raise InvalidInput(f"shared estimator needs R >= 2, got {cfg.R}")
    params = req.params
    prefix = _prefix_table(req, cfg.M)
    probs = params.up_probs[cfg.M.bit_length() - 1:]
    suffix = RowSummary(sample_bits(mc_stream(cfg.seed, 0, rep), probs, cfg.R),
                        params.u, params.d)
    step = max(1, CHUNK // cfg.R)

    def chunk(c: int) -> tuple:
        lo, hi = c * step, min((c + 1) * step, cfg.M)
        values = _extend(req, prefix, lo, hi, suffix)
        means = values.mean(axis=1)
        # Weighted in place: one rows x R array fewer per chunk.
        np.multiply(values, prefix.weight[lo:hi, None], out=values)
        return np.sum(values, axis=0), means

    chunks = _map_in_order(chunk, -(-cfg.M // step), eval_threads)
    theta, sse = _mean_sse(reduce(np.add, (inner for inner, _ in chunks)))
    means = np.concatenate([m for _, m in chunks])
    return _estimate(
        req, cfg, theta, sse / (cfg.R * cfg.R), cfg.R, "shared",
        tuple((m, cfg.R, float(means[m])) for m in range(cfg.M)),
    )


def run_repetitions(estimator: Callable, req: ValuationRequest, cfg: McConfig,
                    **estimator_kwargs) -> RepetitionSummary:
    """Run an estimator cfg.reps times on repetition-keyed streams.

    Reports the mean estimate, the mean of the per-repetition variance
    estimates, and the empirical variance of the estimates themselves
    (zero when reps == 1).
    """
    estimates = tuple(
        estimator(req, cfg, rep=rep, **estimator_kwargs) for rep in range(cfg.reps)
    )
    values = np.array([e.value for e in estimates])
    variances = np.array([e.variance for e in estimates])
    empirical = float(np.var(values, ddof=1)) if len(estimates) > 1 else 0.0
    return RepetitionSummary(
        estimates=estimates,
        mean_value=float(values.mean()),
        mean_variance=float(variances.mean()),
        empirical_variance=empirical,
    )
