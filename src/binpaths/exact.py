"""Exact expected value over all 2^N paths, serial and partitioned.

The value is e^{-qT} * sum over every path of p(path) * payoff(path).
Each path splits into a k-step prefix and an s = N - k step suffix, with
k = min(N, max(N - SUFFIX_BITS, ROW_BITS)) unless the partition's prefix
is wider.  Two tables built once per request hold the state of every
prefix (from S0) and of every suffix (relative to the prefix's end):
weight, last price, price sum and minimum.  join_payoff, the path
kernel the Monte Carlo estimators share, extends a prefix state by a
suffix entry in a few multiplies and adds, O(1) work per path.
Callable payoffs have no summary: they fall back to decoding bit rows
with codes_to_bits and calling payoff_batch, with the same table
weights.

A prefix row, one prefix and all of its suffixes, is the one unit of
reduction.  Workers own whole rows through the blocks of a PathPartition
and return one partial per row; the partials of all ranks are summed
once with math.fsum, which is exactly rounded and so independent of
their order, and discounted once.  Row partials depend on N alone, so
every worker count gives the same bits, except where a partition block
is narrower than a row (possible only for N > 10, with M > 1024 or a
round-robin M > 64): there the rows shrink to the blocks and the value
agrees to rounding.  The serial engine is the partitioned one with a
single worker.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EnumerationGuard,
    InvalidWorkerCount,
    LengthMismatch,
    NonConstantProbs,
    NonFiniteValue,
    PathDependentPayoff,
    quiet_non_finite,
)
from .model import MarketInputs, TreeParams, _binomial_pmf, leaf_prices
from .paths import PathPartition, PathTable, codes_to_bits, make_partition, path_table
from .payoffs import (
    PayoffKind,
    PayoffLike,
    is_path_dependent,
    join_payoff,
    payoff_batch,
)

# Above this depth, enumeration of 2^N paths needs an explicit opt-in.
LARGE_DEPTH = 28

# Steps covered by the suffix table: 2^15 entries, 256 KB per array.
SUFFIX_BITS = 15

# Steps of the narrowest row grid: 2^10 rows hold every block of every
# power-of-two partition up to 1024 ranks and of every round-robin deal
# up to 64, so the grid, and with it the value, does not move with M.
ROW_BITS = 10

# Paths evaluated per vectorized batch inside a worker.
CHUNK = 1 << 15


@dataclass(frozen=True)
class ValuationRequest:
    """One valuation: inputs, derived tree, payoff, and worker count."""

    inputs: MarketInputs
    params: TreeParams
    kind: PayoffLike
    workers: int = 1
    force_large: bool = False

    def __post_init__(self):
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) or self.workers < 1:
            raise InvalidWorkerCount(
                f"workers must be a positive integer, got {self.workers!r}"
            )
        if self.params.n_steps != self.inputs.N:
            raise LengthMismatch(
                f"tree has {self.params.n_steps} steps but inputs say N={self.inputs.N}"
            )


def _tables(req: ValuationRequest, partition: PathPartition):
    """Prefix and suffix tables for one request, shared by every rank.

    The prefix is k = min(N, max(N - SUFFIX_BITS, ROW_BITS)) steps, a grid
    fixed by N, unless the partition's prefix is wider; either way each
    partition block is a whole number of prefix rows.
    """
    params, n = req.params, req.inputs.N
    k = max(partition.prefix_width, min(n, max(n - SUFFIX_BITS, ROW_BITS)))
    prefix = path_table(params.up_probs[:k], params.u, params.d, req.inputs.S0)
    suffix = path_table(params.up_probs[k:], params.u, params.d, 1.0)
    return prefix, suffix


def _rank_value(req: ValuationRequest, partition: PathPartition, rank: int, tables):
    """Undiscounted partials of one rank's prefix rows, in its row order.

    A row's partial is its prefix weight times the suffix-weighted sum
    of its payoffs, the same whichever rank or batch computes it.  A
    batch joins a few prefix states with the whole suffix table: row i,
    column j is the path with prefix lo + i and suffix j.
    """
    prefix, suffix = tables
    n = partition.n
    s = suffix.weight.shape[0].bit_length() - 1
    span = 1 << (n - s - partition.prefix_width)
    step = max(1, CHUNK >> s)
    kind, S0, K = req.kind, req.inputs.S0, req.inputs.K
    partials = []
    # Reused by every batch: fresh batch-sized arrays cost a page fault per
    # 4 KB whenever the allocator has returned the last batch's to the OS.
    buf = np.empty((min(step, span), 1 << s))
    # A ufunc buffer that spans several batch rows makes NumPy copy the
    # broadcast operands (prefix columns, suffix weights) through it, which
    # halves the speed of those steps; a buffer of at most one row avoids it.
    bufsize = np.setbufsize(min(np.getbufsize(), 1 << max(s, 4)))
    try:
        for v in partition.blocks[rank]:
            for lo in range(v * span, (v + 1) * span, step):
                hi = min(lo + step, (v + 1) * span)
                if isinstance(kind, PayoffKind):
                    values = join_payoff(kind, K, n, prefix.rows(lo, hi), suffix, buf[:hi - lo])
                else:
                    codes = np.arange(lo << s, hi << s, dtype=np.uint64)
                    bits = codes_to_bits(codes, n)
                    values = payoff_batch(kind, req.params, S0, K, bits).reshape(hi - lo, -1)
                inner = np.sum(np.multiply(values, suffix.weight, out=values), axis=1)
                partials.append(prefix.weight[lo:hi] * inner)
    finally:
        np.setbufsize(bufsize)
    return np.concatenate(partials)


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_in_order(fn, count: int, threads: int) -> list:
    """[fn(i) for i in range(count)], spread over up to `threads` pool threads."""
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=min(threads, count)) as pool:
        return list(pool.map(quiet_non_finite(fn), range(count)))


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise NonFiniteValue(
            f"the valuation gave {value!r}: prices or weights leave the range "
            "of double precision at these inputs"
        )
    return value


def value_exact_serial(req: ValuationRequest) -> float:
    """Full enumeration as a single worker; ignores req.workers."""
    return value_exact_parallel(replace(req, workers=1))


@quiet_non_finite
def value_exact_parallel(req: ValuationRequest) -> float:
    """Partitioned enumeration over req.workers ranks.

    The row partials of all ranks are summed with math.fsum, so the
    output depends on neither thread scheduling nor, on the row grid,
    the worker count M.
    """
    if req.inputs.N > LARGE_DEPTH and not req.force_large:
        raise EnumerationGuard(
            f"N={req.inputs.N} means 2^{req.inputs.N} paths; pass the force-large "
            f"override to enumerate beyond N={LARGE_DEPTH}"
        )
    m = req.workers
    partition = make_partition(req.inputs.N, m)
    tables = _tables(req, partition)
    partials = np.concatenate(_map_in_order(
        lambda r: _rank_value(req, partition, r, tables), m, usable_cores()))
    assert partials.size * tables[1].weight.size == 1 << req.inputs.N, \
        "path accounting mismatch"
    try:
        total = math.fsum(partials)
    except (ValueError, OverflowError):  # inf - inf, or an overflow on the way
        total = math.nan
    return _finite(math.exp(-req.inputs.q * req.inputs.T) * total)


@quiet_non_finite
def value_leaf_formula(req: ValuationRequest) -> float:
    """Closed-form value from the N+1 leaves, for constant-p European kinds.

    The weight of leaf j is the binomial pmf C(N,j) p^j (1-p)^(N-j),
    evaluated in log space (model._binomial_pmf) so large N stays finite.
    """
    if is_path_dependent(req.kind):
        raise PathDependentPayoff(
            f"{req.kind} depends on the whole path; the leaf formula only "
            "covers terminal-price payoffs"
        )
    p = req.params.constant_up_prob()
    if p is None:
        raise NonConstantProbs(
            "leaf formula needs one constant up probability across steps"
        )
    n = req.inputs.N
    weights = _binomial_pmf(n, p)
    # Each leaf is the end state of whole paths, extended by the empty
    # word; a European payoff reads nothing but the last price.
    leaves = PathTable(weights, leaf_prices(req.params, req.inputs.S0), None, None)
    values = join_payoff(req.kind, req.inputs.K, n, leaves, path_table((), 1.0, 1.0, 1.0))[:, 0]
    disc = math.exp(-req.inputs.q * req.inputs.T)
    return _finite(disc * float(np.dot(weights, values)))
