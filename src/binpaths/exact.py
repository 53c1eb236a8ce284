"""Exact expected value over all 2^N paths, serial and partitioned.

The value is e^{-qT} * sum over every path of p(path) * payoff(path).
Each path splits into a k-step prefix and an s-step suffix, with
s = min(SUFFIX_BITS, partition.suffix_width).  Two tables built once per
request hold the state of every prefix (from S0) and of every suffix
(relative to the prefix's end): weight, last price, price sum and
minimum.  join_payoff, the path kernel the Monte Carlo estimators share,
extends a prefix state by a suffix entry in a few multiplies and adds,
O(1) work per path.  Callable payoffs have no summary: they fall back
to decoding bit rows with codes_to_bits and calling payoff_batch, with
the same table weights.

Workers own disjoint code ranges from a PathPartition, accumulate their
local sums with Kahan compensation, apply the discount locally, and the
partial values are reduced in ascending rank order.  The serial engine
is the partitioned one with a single worker.
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


class _Kahan:
    """Compensated accumulator for a stream of float addends."""

    __slots__ = ("total", "_c")

    def __init__(self):
        self.total = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


def _tables(req: ValuationRequest, partition: PathPartition):
    """Prefix and suffix tables for one request, shared by every rank.

    The suffix is s = min(SUFFIX_BITS, partition.suffix_width) steps, so
    each prefix of k = N - s steps lies inside one partition block.
    """
    params = req.params
    k = req.inputs.N - min(SUFFIX_BITS, partition.suffix_width)
    prefix = path_table(params.up_probs[:k], params.u, params.d, req.inputs.S0)
    suffix = path_table(params.up_probs[k:], params.u, params.d, 1.0)
    return prefix, suffix


def _rank_value(req: ValuationRequest, partition: PathPartition, rank: int, tables):
    """Discounted local sum over one rank's paths, plus its path count.

    A batch joins a few prefix states with the whole suffix table: row i,
    column j is the path with prefix lo + i and suffix j.
    """
    prefix, suffix = tables
    n = partition.n
    s = suffix.weight.shape[0].bit_length() - 1
    span = 1 << (n - s - partition.prefix_width)
    step = max(1, CHUNK >> s)
    kind, S0, K = req.kind, req.inputs.S0, req.inputs.K
    acc = _Kahan()
    visited = 0
    # Reused by every batch: fresh batch-sized arrays cost a page fault per
    # 4 KB whenever the allocator has returned the last batch's to the OS.
    buf = np.empty((min(step, span), 1 << s))
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
            acc.add(float(np.sum(prefix.weight[lo:hi] * inner)))
            visited += (hi - lo) << s
    disc = math.exp(-req.inputs.q * req.inputs.T)
    return disc * acc.total, visited


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

    Rank results are reduced in ascending order, so the output depends
    on the worker count M but not on thread scheduling.
    """
    if req.inputs.N > LARGE_DEPTH and not req.force_large:
        raise EnumerationGuard(
            f"N={req.inputs.N} means 2^{req.inputs.N} paths; pass the force-large "
            f"override to enumerate beyond N={LARGE_DEPTH}"
        )
    m = req.workers
    partition = make_partition(req.inputs.N, m)
    tables = _tables(req, partition)
    results = _map_in_order(lambda r: _rank_value(req, partition, r, tables), m,
                            usable_cores())
    visited = sum(v for _, v in results)
    assert visited == 1 << req.inputs.N, "path accounting mismatch"
    total = 0.0
    for value, _ in results:
        total += value
    return _finite(total)


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
