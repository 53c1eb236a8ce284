"""Exact expected value over all 2^N paths, serial and parallel.

The value is e^{-qT} * sum over every path of p(path) * payoff(path).
value_exact_parallel takes one of two routes to it.

Merged states (euro-call, euro-put, lookback-put: the kinds whose
payoffs.suffix_statistic is last or low).  On the recombinant lattice a
path's price after any step is fixed by its level h = ups - downs, and
these kinds read only the final level and the minimum level m.  One
forward pass over the steps (min_level_weights) merges every path into
its (h, m) state, O(N^2) work per step, and the states are priced as
the leaf formula prices its leaves (_value_end_states; Hull & White, J.
Derivatives, 1993).  This route runs inline on no pool.

Enumeration (asian-put and callables).  Each path splits into a k-step
prefix and an s = N - k step suffix, with k = min(N, max(N -
SUFFIX_BITS, ROW_BITS)).  Two tables built once per request hold the
state of every prefix (from S0) and of every suffix (relative to the
prefix's end): weight, last price, price sum, minimum and code.
payoffs.join_paths, the join the Monte Carlo estimators share, extends
a prefix state by a suffix entry in a few multiplies and adds, O(1)
work per path, or hands a callable payoff each path's code, with the
same weights.

A prefix row, one prefix and all of its suffixes, is the one unit of
reduction.  join_rows, the batched join that the shared-sample Monte
Carlo estimator uses too (for callables and M = 1), returns one partial
per row.  Either route
sums its terms once with math.fsum, which is exactly rounded and so
independent of their order, and discounts once.

Both routes keep the same rules: check_enumeration refuses N >
LARGE_DEPTH without force_large, and paths.check_fits refuses more
workers than 2^N paths.

Threads: _map_in_order turns every thread request (workers here,
eval_threads in mc) into contiguous runs of a call's batches or chunks,
one per thread, on at most min(request, usable cores, batches) threads.
Batch and chunk bounds depend on the inputs alone, so no thread count
changes a bit.  The serial engine is the parallel one with one worker.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EnumerationGuard,
    InvalidWorkerCount,
    LengthMismatch,
    NonConstantProbs,
    NonFiniteValue,
    PathDependentPayoff,
    check_count,
    quiet_non_finite,
)
from .model import MarketInputs, TreeParams, _binomial_pmf, leaf_prices
# The benchmark's tracer wraps exact.codes_to_bits and exact.payoff_batch.
from .paths import PathTable, check_fits, codes_to_bits, path_table  # noqa: F401
from .payoffs import (PayoffLike, is_path_dependent, join_paths, join_payoff, read_statistic,
                      suffix_statistic)
from .payoffs import payoff_batch  # noqa: F401

# Above this depth, enumeration of 2^N paths needs an explicit opt-in.
LARGE_DEPTH = 28

# Steps covered by the suffix table: 2^15 entries, 256 KB per array.
SUFFIX_BITS = 15

# Steps of the narrowest row grid.  The rows are math.fsum's addends: a
# row's payoffs are summed in floating point and the rows exactly, so
# this grid fixes the last bits of every value.  2^10 rows keep each
# float sum to 2^(N - 10) paths up to N = 25.
ROW_BITS = 10

# Paths evaluated per vectorized batch of a join.
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
        check_count("workers", self.workers, 1, InvalidWorkerCount)
        if self.params.n_steps != self.inputs.N:
            raise LengthMismatch(
                f"tree has {self.params.n_steps} steps but inputs say N={self.inputs.N}"
            )


def join_rows(req: ValuationRequest, prefix: PathTable, suffix: PathTable,
              reduce, threads: int) -> list:
    """reduce(lo, hi, values) of every batch of prefix rows, in row order.

    values[i, j] is the payoff of prefix lo + i followed by suffix j: a
    word of a suffix table or a sampled row, which needs only the
    statistic the payoff reads.  A batch is max(1, CHUNK // cols) rows
    from a multiple of that count, so the batches depend on the sizes
    alone.  _map_in_order hands each thread one run of whole batches,
    and a run builds its batches in one buffer, which reduce may
    overwrite.
    """
    rows, cols = prefix.last.shape[0], read_statistic(req.kind, suffix).shape[0]
    steps = req.inputs.N + 1 - rows.bit_length()
    step = max(1, CHUNK // cols)

    def run(first: int, end: int) -> list:
        out = []
        # Reused by every batch: fresh batch-sized arrays cost a page fault
        # per 4 KB whenever the allocator has returned the last batch's.
        # Aligned to 64 bytes: at malloc's 16, the join's vector stores
        # straddle cache lines and the exact engine runs about 10% slower.
        size = min(step, rows) * cols
        raw = np.empty(size + 7)
        skip = -raw.ctypes.data % 64 // 8
        buf = raw[skip:skip + size].reshape(-1, cols)
        with row_buffer(cols):
            for b in range(first, end):
                lo, hi = b * step, min((b + 1) * step, rows)
                values = join_paths(req.kind, req.params, req.inputs.S0, req.inputs.K,
                                    prefix.rows(lo, hi), suffix, steps, buf[:hi - lo])
                out.append(reduce(lo, hi, values))
        return out

    return _map_in_order(run, -(-rows // step), threads)


@contextmanager
def row_buffer(row: int):
    """Cap NumPy's ufunc buffer at one batch row of `row` elements, then restore it.

    A buffer that spans several rows of a batch makes NumPy copy the
    broadcast operands (prefix columns, suffix weights) through it, which
    halves the speed of those steps.  The cap is per thread, so each pool
    thread sets its own.
    """
    saved = np.setbufsize(min(np.getbufsize(), max(16, row & -16)))
    try:
        yield
    finally:
        np.setbufsize(saved)


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_in_order(fn, count: int, threads: int) -> list:
    """fn(lo, hi) of runs of range(count), one per thread, results concatenated in order.

    min(threads, usable_cores(), count) runs, as even as whole items
    allow; a single run is called inline.
    """
    runs = min(threads, usable_cores(), count)
    if runs <= 1:
        return fn(0, count)
    bounds = [i * count // runs for i in range(runs + 1)]
    with ThreadPoolExecutor(max_workers=runs) as pool:
        parts = pool.map(quiet_non_finite(fn), bounds[:-1], bounds[1:])
        return [x for part in parts for x in part]


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise NonFiniteValue(
            f"the valuation gave {value!r}: prices or weights leave the range "
            "of double precision at these inputs"
        )
    return value


def check_enumeration(n: int, force_large: bool) -> None:
    """Refuse 2^n paths beyond LARGE_DEPTH steps without the force-large override."""
    if n > LARGE_DEPTH and not force_large:
        raise EnumerationGuard(f"N={n} means 2^{n} paths; pass force_large "
                               f"(--force-large) to enumerate beyond N={LARGE_DEPTH}")


def value_exact_serial(req: ValuationRequest) -> float:
    """value_exact_parallel on one worker; ignores req.workers."""
    return value_exact_parallel(replace(req, workers=1))


@quiet_non_finite
def value_exact_parallel(req: ValuationRequest) -> float:
    """The exact value, by merged states or by enumeration (module docstring).

    Enumeration asks _map_in_order for req.workers threads; its row
    partials are summed with math.fsum, so the output depends on neither
    thread scheduling nor the worker count.
    """
    check_enumeration(req.inputs.N, req.force_large)
    n, m = req.inputs.N, req.workers
    check_fits("worker count", m, n)
    if suffix_statistic(req.kind) in ("last", "low"):
        return _value_merged(req)
    # A row grid fixed by N alone, whatever the worker count.
    params, k = req.params, min(n, max(n - SUFFIX_BITS, ROW_BITS))
    prefix = path_table(params.up_probs[:k], params.u, params.d, req.inputs.S0)
    suffix = path_table(params.up_probs[k:], params.u, params.d, 1.0)

    def row_partials(lo: int, hi: int, values: np.ndarray) -> np.ndarray:
        inner = np.sum(np.multiply(values, suffix.weight, out=values), axis=1)
        return prefix.weight[lo:hi] * inner

    partials = np.concatenate(join_rows(req, prefix, suffix, row_partials, m))
    assert partials.size * suffix.weight.size == 1 << n, "path accounting mismatch"
    return _discounted_sum(req, partials.tolist())


def _value_end_states(req: ValuationRequest, states: PathTable) -> float:
    """_discounted_sum of weight * payoff over whole-path end states: leaves or (h, m) states."""
    values = join_payoff(req.kind, req.inputs.K, req.inputs.N, states,
                         path_table((), 1.0, 1.0, 1.0))
    return _discounted_sum(req, (states.weight * values).tolist())


def _discounted_sum(req: ValuationRequest, terms: list) -> float:
    """e^{-qT} times the exactly rounded sum of terms, or NonFiniteValue."""
    try:
        total = math.fsum(terms)
    except (ValueError, OverflowError):  # inf - inf, or an overflow on the way
        total = math.nan
    return _finite(math.exp(-req.inputs.q * req.inputs.T) * total)


def min_level_weights(probs: np.ndarray) -> np.ndarray:
    """w[h + n, m + n]: the probability that steps 1..n end at level h with minimum m.

    The level is ups minus downs; the minimum is over steps 1..n, so S0's
    level 0 is not in it and step 1 seeds the states (1, 1) and (-1, -1).
    One forward pass, O(n^2) per step: an up move shifts h, and a down
    move shifts h and lowers m only from the diagonal m == h.
    """
    n = len(probs)
    w = np.zeros((2 * n + 1, 2 * n + 1))
    w[n + 1, n + 1], w[n - 1, n - 1] = probs[0], 1.0 - probs[0]
    diag = np.arange(2 * n)
    for p in probs[1:]:
        moved = np.zeros_like(w)
        moved[1:] = p * w[:-1]
        at_min = (1.0 - p) * w.diagonal()[1:]
        np.fill_diagonal(w, 0.0)
        moved[:-1] += (1.0 - p) * w[1:]
        moved[diag, diag] += at_min
        w = moved
    return w


def _value_merged(req: ValuationRequest) -> float:
    """The value of a kind that reads the last price or the minimum, inline.

    Every path in state (h, m) ends at S0 * u^h and has minimum S0 * u^m
    (d^-h below level 0).
    """
    params, S0, n = req.params, req.inputs.S0, req.inputs.N
    price = np.concatenate((S0 * params.d ** np.arange(n, 0, -1),
                            S0 * params.u ** np.arange(n + 1)))
    weight = min_level_weights(params.up_probs).ravel()
    return _value_end_states(req, PathTable(weight, np.repeat(price, price.size), None,
                                            np.tile(price, price.size)))


@quiet_non_finite
def value_leaf_formula(req: ValuationRequest) -> float:
    """Closed-form value from the N+1 leaves, for constant-p European kinds.

    The weight of leaf j is the binomial pmf C(N,j) p^j (1-p)^(N-j), the
    N-fold convolution of the one-step pmf (model._binomial_pmf).
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
    weights = _binomial_pmf(req.inputs.N, p)
    return _value_end_states(req, PathTable(weights, leaf_prices(req.params, req.inputs.S0)))
