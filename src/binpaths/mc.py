"""Monte Carlo estimators of the discounted expected payoff.

Three estimators share one sampling convention.  A path splits into an
r-bit prefix (r = log2 of the stratum count M) and an (N-r)-bit suffix.

* basic: R full paths, no stratification.
* partitioned: stratum m fixes the prefix to m and draws R_m suffixes,
  with R_m proportional to the stratum probability (or R_m = R in the
  equal-allocation variant used for estimator comparisons).
* shared: one set of R suffixes is drawn once and reused by every
  stratum, so each draw yields an inner sum over all M prefixes.

Every estimator evaluates its paths with payoffs.join_paths, the
engines' one join.  A stratified call reads one StratumPlan: its prefix
table, built from S0 by path_table, holds every stratum's mass (its
weight) and its state after r steps, and the sampled suffix rows,
folded for the statistic the payoff reads, extend that state to whole
paths.  The plan also holds the draws of each stratum, the chunks and,
for the shared estimator, the sorted prefix levels.  It is memoised
(_stratum_plan) by the first r up probabilities, u, d, S0, K, M, R, the
allocation and the statistic, so a study or run_repetitions builds it
once per table row; the checks on M and R run on every call.  The
basic estimator is the case r = 0, through payoff_batch.
sample_rows is the one sampler: sample_path draws one row of it, and
sample_bits is the bits of its codes.  It cuts a row into the words of
paths.word_widths, of at most 12 steps, and draws each word with
Walker's alias method from one 64-bit PCG64DXSM output: the top w bits
pick a bucket of the word's alias table, and the low 64 - w bits are
compared with the bucket's integer threshold, as one compare of the
whole output with the bucket's key.  Each output becomes one index into
the word's memoised resolved table (_word_draws), which holds the code
and state of the bucket's own word and of its alias, and
paths.fold_rows folds from those indices the one statistic asked for,
so no call builds a rows x steps float array.  The sampler's memos
hold at most 8 resolved tables (288 KB each) and 8 word tables (160 KB),
3.6 MB in all; an alias table is built once per resolved table and not
kept.  The plan memo holds at most 8 plans of about 80 B a stratum and
1 B a draw of an unequal chunk: 49 to 108 KB at M = 1024.
The 4 MB block that importing the module maps and frees (see the note
by its np.empty call) holds no memory after import.  binpaths loads
this module on the first use of one of its names, not with the
package, so the block is mapped then: still before any MC call draws.
The stratified estimators work in chunks of consecutive whole strata:
a stratum opens a new chunk when its first row passes a multiple of
exact.CHUNK (2^15), the bound of the exact join's batches, so each of a
chunk's float64 arrays holds about 256 KiB.  A chunk costs one
sample_rows call, one join and one reduction.  When its strata all
draw the same count (every chunk of the equal allocation), it is
evaluated as one (strata, draws) block:
the prefix states broadcast as a column and each row reduces along its
axis, with no repeated prefix states and no padded copy.
The shared estimator sums a built-in payoff by prefix levels: the r
prefix steps end on r + 1 levels, and the prefixes of one level share
their last price.  Each level is sorted by the statistic its payoff
reads, with running sums of weight and weight * statistic
(paths.sorted_table), so a draw costs one binary search per level and
the per-stratum means one search per prefix, not M joined payoffs.
A callable, and M = 1, join all M prefix rows with the one sample
through exact.join_rows, the exact engine's batched join,
max(1, exact.CHUNK // R) rows a batch.
eval_threads follows the exact engine's thread rule (exact._map_in_order):
one contiguous run of whole chunks or batches per thread, at most one
thread per usable core and per chunk or batch.  Chunk and batch bounds
depend on the allocation (or M and R) and N alone, so no thread count
changes a result.  So threads run only where a call has several: the
stratified estimators past about exact.CHUNK draws in all, and the
shared estimator with a callable payoff past max(1, exact.CHUNK // R)
prefix rows.  Every estimator runs on one thread at M = 1, and the
basic estimator and the level sums always do.

Each repetition draws from one PCG64DXSM stream keyed by (master seed,
repetition index), mc_stream(seed, 0, rep).  A row is one raw uint64 of
it per word.  The stratified estimators lay their strata's suffix rows
end to end in it, stratum after stratum.  Each thread run of chunks
makes one generator and jumps it exactly to its first row with
PCG64DXSM's advance, in O(log) of the distance; its later chunks read
on from there.  So results are reproducible and do not depend on which
thread evaluates which chunk.  With M = 1 all three estimators consume
the identical stream and arithmetic and are bit-for-bit equal to the
basic estimator.

Estimates are reported on the value scale: value = e^{-qT} * theta_hat
and variance = e^{-2qT} * Var_hat(theta_hat).  Per-stratum means stay
on the theta scale.  All estimators end in one reduction, which raises
NonFiniteValue when the value or the variance is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (InfeasibleAllocation, InvalidInput, InvalidWorkerCount, check_count,
                     quiet_non_finite)
from .exact import CHUNK, ValuationRequest, _finite, _map_in_order, join_rows
from .paths import (
    BernoulliPath,
    PathPartition,
    PathTable,
    _word_table,
    block_probabilities,
    block_probability,  # noqa: F401  the benchmark's tracer wraps mc.block_probability
    check_fits,
    codes_to_bits,
    fold_rows,
    level_groups,
    path_table,
    sorted_table,
    word_widths,
)
from .payoffs import (PayoffKind, join_paths, join_payoff, payoff_batch, read_statistic,
                      suffix_statistic)

# glibc maps an allocation above its mmap threshold on its own; freeing such
# a mapping raises the threshold to its size and the heap-top trim threshold
# to twice that.  One 4 MB block, mapped and freed here (np.empty touches
# none of it), puts both above the transient arrays of a warm
# estimate_basic call (about 3.5 MB at N=32, R=2^16).  Without it, whether
# every such call trimmed and faulted back some 750 pages depended on where
# one persistent heap chunk happened to land, which any edit could move.
np.empty(1 << 19)


@dataclass(frozen=True)
class McConfig:
    """Sampling plan: total draws R, stratum count M, seed, repetitions."""

    R: int
    M: int = 1
    seed: int = 0
    reps: int = 1

    def __post_init__(self):
        for name, floor in (("R", 1), ("M", 1), ("seed", 0), ("reps", 1)):
            check_count(name, getattr(self, name), floor, InvalidInput)


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

    @property
    def reps(self) -> int:
        return len(self.estimates)

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    @property
    def variances(self) -> np.ndarray:
        return np.array([e.variance for e in self.estimates])

    @property
    def mean_value(self) -> float:
        return float(self.values.mean())

    @property
    def mean_variance(self) -> float:
        """Mean of the per-repetition variance estimates."""
        return float(self.variances.mean())

    @property
    def empirical_variance(self) -> float:
        """Sample variance of the estimates themselves; 0.0 for one repetition."""
        return float(np.var(self.values, ddof=1)) if self.reps > 1 else 0.0


def mc_stream(seed: int, stratum: int = 0, rep: int = 0) -> np.random.Generator:
    """Independent PCG64DXSM generator keyed by (seed, stratum, repetition).

    The estimators use stratum 0 only: every stratum reads its own rows
    of mc_stream(seed, 0, rep).  PCG64DXSM jumps any number of outputs
    exactly with bit_generator.advance, in O(log) of the distance.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(stratum, rep))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def _alias_table(probs: tuple) -> tuple:
    """Walker alias table (thr, alias) of the words of len(probs) steps.

    Word c has the weight path_table(probs, ...).weight[c], scaled to an
    integer mass out of 2^64 (floored, the shortfall given to the
    heaviest word), so a zero weight is a zero mass.  Vose's pairing
    runs on the exact integers, each of the 2^w buckets holding
    2^(64 - w): bucket i keeps thr[i] of its own word and the rest of
    alias[i].  Exact sums leave no bucket unpaired, so a zero-mass word
    keeps threshold 0 and an alias of positive mass.  A table of 2^w
    entries costs a few ms to build; _word_draws, its one caller, keeps
    what it needs of it.
    """
    w = len(probs)
    n, cap = 1 << w, 1 << (64 - w)
    weight = path_table(probs, 1.0, 1.0, 1.0).weight
    mass = [int(x) for x in (weight * 2.0 ** 64).tolist()]
    mass[int(np.argmax(weight))] += (1 << 64) - sum(mass)
    thr, alias = [cap] * n, list(range(n))
    small = [i for i in range(n) if mass[i] < cap]
    large = [i for i in range(n) if mass[i] >= cap]
    # A large word that falls below cap joins the small list being read.
    for s in small:
        thr[s] = mass[s]
        big = alias[s] = large[-1]
        mass[big] -= cap - mass[s]
        if mass[big] < cap:
            small.append(large.pop())
    return np.array(thr, dtype=np.uint64), np.array(alias, dtype=np.int64)


@lru_cache(maxsize=8)
def _word_draws(probs: tuple, u: float, d: float) -> tuple:
    """(key, states): a raw value's entry in the words of len(probs) steps.

    A word of w steps resolves the value v of bucket i = v >> (64 - w)
    by v >= key[i], key[i] = (i << (64 - w)) + thr[i] in uint64, which is
    _alias_table's rule (v's low 64 - w bits >= thr[i]) in one compare.
    key[i] wraps to 0 only in the last bucket and only where thr[i] is
    the whole 2^(64 - w); Vose's pairing left alias[i] = i there, so
    every value still draws word i.
    Entries 2i and 2i + 1 of states are word i and word alias[i]: their
    codes, and their last, total and low from the word table of (u, d).
    Memoised and read-only: 72 B a bucket, 288 KB at 2^WORD_BITS buckets.
    """
    w = len(probs)
    thr, alias = _alias_table(probs)
    key = (np.arange(1 << w, dtype=np.uint64) << np.uint64(64 - w)) + thr
    code = np.stack((np.arange(1 << w), alias), axis=1).ravel()
    states = PathTable(None, *(a[code] for a in _word_table(w, u, d)[1:]))
    for a in (key, *states[1:]):
        a.flags.writeable = False
    return key, states


def sample_rows(rng: np.random.Generator, probs: np.ndarray, count: int,
                u: float, d: float, statistic: str, first: int = 0) -> PathTable:
    """count rows of rng folded for statistic, after skipping first rows from where it stands.

    Step t is up with probability probs[t].  Each word of word_widths
    costs one bit_generator.random_raw() value, so a row is `words`
    values; rng skips the first rows with one exact
    bit_generator.advance(first * words), and a later call on the same
    rng reads on after the last row drawn.  A word of w steps is drawn
    from its alias table: the value's top w bits pick bucket i, and its
    low 64 - w bits below thr[i] keep i, else give alias[i].  Each value
    becomes one index, 2i or 2i + 1, into the word's _word_draws table,
    and paths.fold_rows folds statistic from those indices.
    """
    widths = word_widths(probs.shape[0], u, d)
    rng.bit_generator.advance(first * len(widths))
    raw = rng.bit_generator.random_raw(count * len(widths)).reshape(count, len(widths))
    words = []
    for j, (w, end) in enumerate(zip(widths, accumulate(widths))):
        key, states = _word_draws(tuple(probs[end - w:end].tolist()), u, d)
        value = raw[:, j]
        index = (value >> (64 - w)).view(np.int64)
        moved = value >= key[index]
        index <<= 1
        index |= moved
        words.append((w, index, states))
    # The raw block, its column view and the last compare mask die before
    # the fold, so the fold's arrays reuse their memory: kept alive, they
    # raise a warm estimate_basic loop's peak RSS (asian-put, N=32, R=2^16)
    # by about 1.5 MB.
    raw = value = moved = None
    return fold_rows(count, u, d, words, statistic)


def sample_bits(rng: np.random.Generator, probs: np.ndarray, count: int) -> np.ndarray:
    """(count, len(probs)) Bernoulli matrix, bit t true with prob probs[t].

    The bits of the codes sample_rows draws, with the word cut of
    ordinary moves.
    """
    return codes_to_bits(sample_rows(rng, probs, count, 1.0, 1.0, "codes").codes, probs.shape[0])


def sample_path(params, rng: np.random.Generator) -> BernoulliPath:
    """Draw one path, bit t up with probability p_t: one row of sample_rows."""
    code = sample_rows(rng, params.up_probs, 1, params.u, params.d, "codes").codes[0]
    return BernoulliPath(int(code), params.n_steps)


class StratumPlan(NamedTuple):
    """What a stratified call on one tree, M and R reads besides its draws.

    prefix is the table of the log2(M)-step prefixes from S0, row m for
    stratum m: its weights are the stratum masses, bit for bit
    block_probability's.  alloc is every stratum's draw count.  chunks
    (pmc and pmc-equal) lists each chunk's strata lo..hi - 1, its rows,
    its strata's common draw count or 0, its first row in the stream,
    and, when the counts differ, the layout of its runs (_runs).  levels
    (smc with a built-in payoff and M > 1) holds each prefix level's
    rows, last price and table (_levels).  Every array is read-only.
    """

    prefix: PathTable
    alloc: np.ndarray
    chunks: tuple = ()
    levels: tuple = ()


def _plan(req: ValuationRequest, cfg: McConfig, allocation: str) -> StratumPlan:
    """The memoised StratumPlan of a call, after the checks every call runs.

    allocation is "proportional" (R draws by stratum mass), "equal" (R
    draws a stratum) or "shared" (R draws read by every stratum).
    """
    check_fits("stratum count", cfg.M, req.inputs.N)
    if cfg.M & (cfg.M - 1) != 0:
        raise InvalidWorkerCount(f"stratum count must be a power of two, got {cfg.M}")
    params = req.params
    head = tuple(params.up_probs[:cfg.M.bit_length() - 1].tolist())
    return _stratum_plan(head, params.u, params.d, req.inputs.S0, req.inputs.K, cfg.M, cfg.R,
                         allocation, suffix_statistic(req.kind))


@lru_cache(maxsize=8)
def _stratum_plan(head: tuple, u: float, d: float, S0: float, K: float, M: int, R: int,
                  allocation: str, statistic: str) -> StratumPlan:
    """StratumPlan of the prefixes with up probabilities head, keyed by all it may read.

    Memoised: a study or run_repetitions pays this O(M) set-up once per
    tree, M and R.  _allocate's InfeasibleAllocation is raised, not kept,
    so an infeasible call raises every time.
    """
    prefix = path_table(np.array(head), u, d, S0)
    alloc = _allocate(prefix.weight, R) if allocation == "proportional" else np.full(M, R)
    _read_only(*prefix, alloc)
    if allocation == "shared":
        builtin = M > 1 and statistic != "codes"
        return StratumPlan(prefix, alloc, levels=_levels(prefix, statistic, K) if builtin else ())
    first_row = np.cumsum(alloc) - alloc
    starts = np.unique(first_row // CHUNK, return_index=True)[1]
    least = np.minimum.reduceat(alloc, starts)
    widths = np.where(least == np.maximum.reduceat(alloc, starts), least, 0).tolist()
    return StratumPlan(prefix, alloc, tuple(
        (lo, hi, rows, width, int(first_row[lo]), None if width else _runs(alloc[lo:hi]))
        for lo, hi, rows, width in zip(starts.tolist(), [*starts[1:].tolist(), M],
                                       np.add.reduceat(alloc, starts).tolist(), widths)))


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _mean_sse(values: np.ndarray) -> tuple:
    """Mean of payoff draws and the sum of their squared deviations."""
    theta = float(values.mean())
    return theta, float(np.sum((values - theta) ** 2))


def _block_mean_sse(values: np.ndarray) -> tuple:
    """_mean_sse of each row of a (strata, draws) block, as two arrays; values is overwritten.

    np.add.reduce along a row adds it up exactly as values[i].sum()
    does, so every mean and SSE is _mean_sse's, bit for bit.
    """
    theta = np.add.reduce(values, axis=1)
    theta /= values.shape[1]
    values -= theta[:, None]
    values *= values
    return theta, np.add.reduce(values, axis=1)


def _runs(counts: np.ndarray) -> tuple:
    """(lead, body, reps, divisor): the read-only layout of runs of counts[i] values for _run_mean_sse.

    The runs are laid end to end with a zero in front of each: lead
    indexes those zeros, body is false there and true on the values,
    reps = counts + 1 spans each run with its zero, and divisor is
    max(counts, 1).
    """
    reps = counts + 1
    lead = np.cumsum(reps) - reps
    body = np.ones(int(reps.sum()), dtype=bool)
    body[lead] = False
    layout = lead, body, reps, np.maximum(counts, 1)
    _read_only(*layout)
    return layout


def _run_mean_sse(values: np.ndarray, runs: tuple) -> tuple:
    """_mean_sse of each run of consecutive values of a _runs layout, as two arrays.

    One segmented reduction, np.add.reduceat, over a copy of the values
    with a zero in front of every run.  reduceat starts a run's sum from
    its first element and adds the rest pairwise; starting from that
    zero, each run adds up exactly as values[a:b].sum() does, so every
    mean and SSE is _mean_sse's, bit for bit.  An empty run gives 0, 0.
    """
    lead, body, reps, divisor = runs
    padded = np.zeros(body.shape[0])
    padded[body] = values
    theta = np.add.reduceat(padded, lead) / divisor
    dev = np.subtract(padded, np.repeat(theta, reps), out=padded)
    dev *= dev
    dev[lead] = 0.0
    return theta, np.add.reduceat(dev, lead)


def _segment_mean_sse(values: np.ndarray, counts: np.ndarray) -> tuple:
    """_mean_sse of each run of counts[i] consecutive values, as two arrays."""
    return _run_mean_sse(values, _runs(counts))


def _estimate(req: ValuationRequest, cfg: McConfig, theta: float, var_theta: float,
              R_used: int, method: str, counts: Optional[np.ndarray] = None,
              means: Optional[np.ndarray] = None) -> Estimate:
    """The one reduction: discount theta and its variance, guard, standard error.

    Stratum m is reported as (m, counts[m], means[m]); without counts
    (the basic estimator) per_stratum is None.
    """
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
        per_stratum=None if counts is None
        else tuple(zip(range(cfg.M), counts.tolist(), means.tolist())),
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
    rows = sample_rows(mc_stream(cfg.seed, 0, rep), params.up_probs, cfg.R, params.u, params.d,
                       suffix_statistic(req.kind))
    values = payoff_batch(req.kind, params, req.inputs.S0, req.inputs.K, rows)
    theta, sse = _mean_sse(values)
    return _estimate(req, cfg, theta, sse / (cfg.R * cfg.R), cfg.R, "basic")


def allocate_strata(partition: PathPartition, params, R: int) -> list:
    """Largest-remainder split of R draws proportional to stratum mass.

    Every stratum with positive probability ends up with at least one
    draw, stealing from the largest allocations when rounding left a
    positive stratum empty.  Ties break toward the lower rank so the
    result is deterministic.
    """
    return _allocate(np.array(block_probabilities(params, partition)), R).tolist()


def _allocate(masses: np.ndarray, R: int) -> np.ndarray:
    positive = masses > 0.0
    if R < np.count_nonzero(positive):
        raise InfeasibleAllocation(
            f"R={R} draws cannot cover {np.count_nonzero(positive)} strata with positive mass"
        )
    targets = R * masses
    alloc = np.floor(targets).astype(np.int64)
    # The remainder goes to the largest fractional parts, lower index first.
    by_fraction = np.lexsort((np.arange(masses.shape[0]), alloc - targets))
    alloc[by_fraction[:R - int(alloc.sum())]] += 1
    # Draws beyond the one each positive stratum keeps.  A positive
    # stratum that rounding left empty (spare -1), in index order, takes
    # one from the largest spare, lower index first.
    spare = alloc - positive
    for m in np.flatnonzero(spare < 0):
        spare[np.argmax(spare)] -= 1
        spare[m] += 1
    return spare + positive


def _stratified(req: ValuationRequest, cfg: McConfig, rep: int, eval_threads: int,
                plan: StratumPlan, var_theta: Callable, method: str) -> Estimate:
    """Stratum m joins prefix row m with alloc[m] suffixes from mc_stream(seed, 0, rep).

    Stratum m's rows are the alloc[m] rows after the sum(alloc[:m]) rows
    of the strata before it in that one stream.  Strata are evaluated in
    the plan's chunks of consecutive whole strata: a stratum opens a new
    chunk when its first row passes a multiple of CHUNK, so the chunks
    depend on the allocation alone and threads change no result.  Each
    thread run of chunks (exact._map_in_order) makes one generator of the
    stream and jumps it to its first chunk's first row; a run's chunks
    hold consecutive rows, so each later chunk reads on with no jump.
    A chunk costs one sample_rows call, one join_paths call and one
    reduction.  When its strata all draw the same count, it is one
    (strata, draws) block: the prefix states broadcast as columns and
    each row reduces along its axis (_block_mean_sse).  Otherwise they
    are repeated once per draw and _run_mean_sse reduces the runs.
    A built-in payoff is joined in place into the folded statistic.
    var_theta maps the squared-deviation sums to the variance of the
    combined estimate on the theta scale.
    """
    params, S0, K = req.params, req.inputs.S0, req.inputs.K
    prefix, alloc, chunks = plan.prefix, plan.alloc, plan.chunks
    probs = params.up_probs[cfg.M.bit_length() - 1:]
    statistic = suffix_statistic(req.kind)
    # The prefix fields the join reads: a callable reads the codes alone.
    heads = [(name, getattr(prefix, name))
             for name in (("codes",) if statistic == "codes" else {"last", statistic})]

    def run(first: int, end: int) -> list:
        rng, out = mc_stream(cfg.seed, 0, rep), []
        skip = chunks[first][4]
        for lo, hi, rows, width, _, runs in chunks[first:end]:
            stat = getattr(sample_rows(rng, probs, rows, params.u, params.d, statistic, skip),
                           statistic)
            skip = 0
            if width:
                stat = stat.reshape(hi - lo, width)
                head = PathTable(**{name: a[lo:hi, None] for name, a in heads})
            else:
                head = PathTable(**{name: np.repeat(a[lo:hi], alloc[lo:hi]) for name, a in heads})
            values = join_paths(req.kind, params, S0, K, head, PathTable(**{statistic: stat}),
                                probs.shape[0], stat)
            out.append(_block_mean_sse(values) if width else _run_mean_sse(values, runs))
        return out

    per = _map_in_order(run, len(chunks), eval_threads)
    thetas, sses = (np.concatenate(parts) for parts in zip(*per))
    return _estimate(req, cfg, float(np.sum(thetas * prefix.weight)), var_theta(sses),
                     int(alloc.sum()), method, alloc, thetas)


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
    plan = _plan(req, cfg, "proportional")
    # At M = 2^N a draw is its stratum's whole path and value.
    if plan.alloc.max() < 2 and cfg.M < 1 << req.inputs.N:
        raise InvalidInput(
            f"partitioned estimator needs a stratum with two draws to estimate "
            f"a variance, got R={cfg.R} over M={cfg.M} strata"
        )
    return _stratified(req, cfg, rep, eval_threads, plan,
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
    if cfg.R < 2:
        raise InvalidInput(f"partitioned-equal estimator needs R >= 2, got {cfg.R}")
    plan = _plan(req, cfg, "equal")
    w = plan.prefix.weight
    return _stratified(req, cfg, rep, eval_threads, plan,
                       lambda sses: float(np.sum(w * w * sses / (cfg.R * cfg.R))),
                       "partitioned-equal")


@quiet_non_finite
def estimate_shared(req: ValuationRequest, cfg: McConfig, rep: int = 0,
                    eval_threads: int = 1) -> Estimate:
    """Shared-sample MC: one suffix sample reused by every stratum.

    Draw i contributes the inner sum over all M prefixes weighted by
    stratum probability, so the R inner sums are i.i.d. and their
    sample variance estimates the estimator variance directly.  A
    built-in payoff with M > 1 sums by prefix levels (_level_sums),
    inline.  A callable, and M = 1, join the prefixes with the sample in
    batches of rows (join_rows) that depend on M and R alone and are
    summed in order, so threads change no result.
    """
    if cfg.R < 2:
        raise InvalidInput(f"shared estimator needs R >= 2, got {cfg.R}")
    params = req.params
    plan = _plan(req, cfg, "shared")
    prefix = plan.prefix
    probs = params.up_probs[cfg.M.bit_length() - 1:]
    suffix = sample_rows(mc_stream(cfg.seed, 0, rep), probs, cfg.R, params.u, params.d,
                         suffix_statistic(req.kind))
    if cfg.M > 1 and isinstance(req.kind, PayoffKind):
        inner, means = _level_sums(req, prefix, suffix, plan.levels)
    else:
        def weigh(lo: int, hi: int, values: np.ndarray) -> tuple:
            means = values.mean(axis=1)
            np.multiply(values, prefix.weight[lo:hi, None], out=values)
            return np.sum(values, axis=0), means

        batches = join_rows(req, prefix, suffix, weigh, eval_threads)
        inner = reduce(np.add, (inner for inner, _ in batches))
        means = np.concatenate([m for _, m in batches])
    theta, sse = _mean_sse(inner)
    return _estimate(req, cfg, theta, sse / (cfg.R * cfg.R), cfg.R, "shared", plan.alloc, means)


def _levels(prefix: PathTable, statistic: str, K: float) -> tuple:
    """(rows, e, table) of each prefix level, for _level_sums; every array read-only.

    The prefixes of one level (paths.level_groups) share their last
    price e.  table is the level's total weight for a euro payoff, and
    its prefixes sorted by their statistic (paths.sorted_table) with
    running sums of weight and weight * total for asian-put, or of
    weight and weight * max(K - low, 0) for lookback-put.
    """
    levels = []
    for rows in level_groups(prefix.weight.shape[0].bit_length() - 1):
        w = prefix.weight[rows]
        if statistic == "last":
            table = np.sum(w)
        else:
            key = getattr(prefix, statistic)[rows]
            table = sorted_table(key, w, key if statistic == "total" else np.maximum(K - key, 0.0))
            _read_only(*table)
        _read_only(rows)
        levels.append((rows, prefix.last[rows[0]], table))
    return tuple(levels)


@np.errstate(divide="ignore")
def _level_sums(req: ValuationRequest, prefix: PathTable, suffix: PathTable,
                levels: Optional[tuple] = None) -> tuple:
    """The R inner sums and the M per-stratum means of estimate_shared, by prefix levels.

    The prefixes of one level share their last price e, so a euro
    payoff is one row of R payoffs per level.  For asian-put and
    lookback-put, prefix m's payoff with draw j is K minus a price that
    takes the prefix's statistic on one side of a kink and the draw's
    on the other.  Each level's prefixes sorted by their statistic
    (_levels, the plan's when given) sum every draw's side of the kink
    with one binary search: asian-put pays when the prefix price sum
    T_m < N*K - e*total_j, and lookback-put reads the prefix minimum
    low_m when it is below e*low_j.  The per-stratum means are the same
    sums transposed: the draws sorted once by their statistic, one
    search per prefix.  A draw costs r + 1 searches, not M payoffs.
    The inner sums come in the order of the draws' statistic, which
    keeps each level's searches in ascending order.
    """
    kind, K, n = req.kind, req.inputs.K, req.inputs.N
    statistic = suffix_statistic(kind)
    if levels is None:
        levels = _levels(prefix, statistic, K)
    draws = sorted_table(read_statistic(kind, suffix))
    stat, R = draws.key, draws.key.shape[0]
    e_all = prefix.last
    inner, means = np.zeros(R), np.empty(e_all.shape[0])
    if statistic == "total":
        # Descending totals give ascending bounds.
        stat = stat[::-1]
    for rows, e, table in levels:
        if statistic == "last":
            values = join_payoff(kind, K, n, PathTable(last=e), PathTable(last=stat))
            inner += table * values
            means[rows] = values.mean()
        elif statistic == "total":
            # w * (N*K - T - e*total_j) summed over T < N*K - e*total_j: N times
            # the payoffs.  A bound below 0 counts no T, and 0 keeps it finite.
            bound = np.maximum(n * K - e * stat, 0.0)
            paid, moment = table.below(bound)
            inner += bound * paid - moment
        else:
            floor = e * stat
            below, moment = table.below(floor)
            # fmax: an empty suffix's low is +inf, and a prefix price that
            # underflowed to 0 makes floor NaN, where the prefix minimum holds.
            inner += moment + (table.weight[-1] - below) * np.fmax(K - floor, 0.0)
    # A draw count of 0 adds 0, where e may be inf.  fmax sends a bound
    # that is NaN (inf / inf or 0 / 0) to 0, which counts no draws.
    if statistic == "total":
        inner /= n
        total = prefix.total
        count, sums = draws.below(np.fmax((n * K - total) / e_all, 0.0))
        means = np.where(count > 0, (K - total / n) * count - e_all / n * sums, 0.0) / R
    elif statistic == "low":
        low = prefix.low
        count, sums = draws.below(np.fmax(np.fmin(low, K) / e_all, 0.0))
        above = R - draws.below(np.fmax(low / e_all, 0.0))[0]
        means = (np.where(count > 0, K * count - e_all * sums, 0.0)
                 + above * np.maximum(K - low, 0.0)) / R
    return inner, means


def run_repetitions(estimator: Callable, req: ValuationRequest, cfg: McConfig,
                    **estimator_kwargs) -> RepetitionSummary:
    """Run an estimator cfg.reps times on repetition-keyed streams.

    The summary derives the mean estimate, the mean variance estimate
    and the empirical variance from the estimates it holds.
    """
    return RepetitionSummary(tuple(
        estimator(req, cfg, rep=rep, **estimator_kwargs) for rep in range(cfg.reps)
    ))
