"""Monte Carlo estimators of the discounted expected payoff.

Three estimators share one sampling convention.  A path splits into an
r-bit prefix (r = log2 of the stratum count M) and an (N-r)-bit suffix.

* basic: R full paths, no stratification.
* partitioned: stratum m fixes the prefix to m and draws R_m suffixes,
  with R_m proportional to the stratum probability (or R_m = R in the
  equal-allocation variant used for estimator comparisons).
* shared: one set of R suffixes is drawn once and reused by every
  stratum, so each draw yields an inner sum over all M prefixes.

Streams are keyed by (master seed, stratum index, repetition index)
through a counter-based generator, so results are reproducible and do
not depend on which thread evaluates which stratum.  With M = 1 all
three estimators consume the identical stream and arithmetic and are
bit-for-bit equal to the basic estimator.

Estimates are reported on the value scale: value = e^{-qT} * theta_hat
and variance = e^{-2qT} * Var_hat(theta_hat).  Per-stratum means stay
on the theta scale.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InfeasibleAllocation, InvalidInput, InvalidWorkerCount
from .exact import ValuationRequest
from .paths import (
    BernoulliPath,
    PathPartition,
    block_probabilities,
    block_probability,  # noqa: F401  the benchmark's tracer wraps mc.block_probability
    make_partition,
)
from .payoffs import payoff_batch


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


def _prefix_bits_row(rank: int, width: int) -> np.ndarray:
    return np.array(
        [(rank >> (width - 1 - t)) & 1 for t in range(width)], dtype=bool
    )


def _stratified_partition(req: ValuationRequest, M: int) -> PathPartition:
    if M & (M - 1) != 0:
        raise InvalidWorkerCount(
            f"stratum count must be a power of two, got {M}"
        )
    return make_partition(req.inputs.N, M)


def _discount(req: ValuationRequest) -> float:
    return math.exp(-req.inputs.q * req.inputs.T)


def _map_strata(fn: Callable, count: int, eval_threads: int) -> list:
    """Run fn over range(count), optionally on a thread pool, in rank order."""
    if eval_threads <= 1 or count <= 1:
        return [fn(m) for m in range(count)]
    with ThreadPoolExecutor(max_workers=min(eval_threads, count)) as pool:
        return list(pool.map(fn, range(count)))


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
    theta = float(values.mean())
    sse = float(np.sum((values - theta) ** 2))
    var_theta = sse / (cfg.R * cfg.R)
    disc = _discount(req)
    variance = disc * disc * var_theta
    return Estimate(
        value=disc * theta,
        variance=variance,
        std_error=math.sqrt(variance),
        R_used=cfg.R,
        method="basic",
        seed=cfg.seed,
    )


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


def _stratum_stats(req: ValuationRequest, partition, rank: int, draws: int,
                   seed: int, rep: int):
    """Mean and squared-deviation sum of one stratum's payoff draws."""
    if draws == 0:
        return 0.0, 0.0
    params = req.params
    r = partition.prefix_width
    n = partition.n
    rng = mc_stream(seed, rank, rep)
    suffix = sample_bits(rng, params.up_probs[r:], draws)
    bits = np.empty((draws, n), dtype=bool)
    bits[:, :r] = _prefix_bits_row(rank, r)
    bits[:, r:] = suffix
    values = payoff_batch(req.kind, params, req.inputs.S0, req.inputs.K, bits)
    theta_m = float(values.mean())
    sse_m = float(np.sum((values - theta_m) ** 2))
    return theta_m, sse_m


def _finish_partitioned(req, cfg, masses, alloc, stats, var_theta, method) -> Estimate:
    thetas = np.array([t for t, _ in stats])
    theta_s = float(np.sum(thetas * np.asarray(masses)))
    disc = _discount(req)
    variance = disc * disc * var_theta
    return Estimate(
        value=disc * theta_s,
        variance=variance,
        std_error=math.sqrt(variance),
        R_used=sum(alloc),
        method=method,
        seed=cfg.seed,
        per_stratum=tuple(
            (m, alloc[m], stats[m][0]) for m in range(len(alloc))
        ),
    )


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
    partition = _stratified_partition(req, cfg.M)
    masses = block_probabilities(req.params, partition)
    alloc = _allocate(masses, cfg.R)
    stats = _map_strata(
        lambda m: _stratum_stats(req, partition, m, alloc[m], cfg.seed, rep),
        cfg.M,
        eval_threads,
    )
    sse_total = float(np.sum(np.array([s for _, s in stats])))
    var_theta = sse_total / (cfg.R * cfg.R)
    return _finish_partitioned(req, cfg, masses, alloc, stats, var_theta, "partitioned")


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
    partition = _stratified_partition(req, cfg.M)
    masses = block_probabilities(req.params, partition)
    alloc = [cfg.R] * cfg.M
    stats = _map_strata(
        lambda m: _stratum_stats(req, partition, m, alloc[m], cfg.seed, rep),
        cfg.M,
        eval_threads,
    )
    weights = np.asarray(masses)
    sses = np.array([s for _, s in stats])
    var_theta = float(np.sum(weights * weights * sses / (cfg.R * cfg.R)))
    return _finish_partitioned(req, cfg, masses, alloc, stats, var_theta,
                               "partitioned-equal")


def estimate_shared(req: ValuationRequest, cfg: McConfig, rep: int = 0,
                    eval_threads: int = 1) -> Estimate:
    """Shared-sample MC: one suffix sample reused by every stratum.

    Draw i contributes the inner sum over all M prefixes weighted by
    stratum probability, so the R inner sums are i.i.d. and their
    sample variance estimates the estimator variance directly.
    """
    if cfg.R < 2:
        raise InvalidInput(f"shared estimator needs R >= 2, got {cfg.R}")
    partition = _stratified_partition(req, cfg.M)
    params = req.params
    r = partition.prefix_width
    n = partition.n
    masses = np.array(block_probabilities(params, partition))
    rng = mc_stream(cfg.seed, 0, rep)
    suffix = sample_bits(rng, params.up_probs[r:], cfg.R)

    def eval_stratum(m: int) -> np.ndarray:
        bits = np.empty((cfg.R, n), dtype=bool)
        bits[:, :r] = _prefix_bits_row(m, r)
        bits[:, r:] = suffix
        return payoff_batch(req.kind, params, req.inputs.S0, req.inputs.K, bits)

    per_stratum_values = _map_strata(eval_stratum, cfg.M, eval_threads)
    stacked = np.stack(per_stratum_values)
    inner = np.sum(stacked * masses[:, None], axis=0)
    theta = float(inner.mean())
    sse = float(np.sum((inner - theta) ** 2))
    var_theta = sse / (cfg.R * cfg.R)
    disc = _discount(req)
    variance = disc * disc * var_theta
    return Estimate(
        value=disc * theta,
        variance=variance,
        std_error=math.sqrt(variance),
        R_used=cfg.R,
        method="shared",
        seed=cfg.seed,
        per_stratum=tuple(
            (m, cfg.R, float(per_stratum_values[m].mean())) for m in range(cfg.M)
        ),
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
