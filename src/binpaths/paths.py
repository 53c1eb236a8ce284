"""Path encoding, the work partition over all 2^N paths, and word tables.

A path through an N-step tree is a word of N Bernoulli outcomes, stored
as the integer whose binary expansion, read from the most significant of
the N used bits, is the outcome sequence.  Step 1 is the most significant
bit and 1 means an up move, so

    code = sum_t bits[t] * 2^(N - 1 - t)      (t = 0..N-1)

and consecutive codes sharing a prefix describe paths sharing their first
steps.  That makes a prefix block a contiguous code range, which is what
the partition below hands to each worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInput, InvalidWorkerCount, LengthMismatch, RankOutOfRange

if TYPE_CHECKING:
    from .model import TreeParams

# Extra prefix bits used when the worker count is not a power of two, so
# the round-robin deal hands each rank many small blocks instead of a few
# lumpy ones.
OVERSUB_BITS = 4


@dataclass(frozen=True)
class BernoulliPath:
    """One path: an integer code plus the number of steps it encodes."""

    code: int
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= 62:
            raise InvalidInput(f"path length must be between 1 and 62, got {self.n}")
        if not 0 <= self.code < (1 << self.n):
            raise InvalidInput(
                f"code {self.code} is outside [0, 2^{self.n}) for an {self.n}-step path"
            )

    def bits(self) -> tuple:
        """Outcome sequence, step 1 first.  1 is an up move."""
        return tuple((self.code >> (self.n - 1 - t)) & 1 for t in range(self.n))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BernoulliPath":
        n = len(bits)
        code = 0
        for b in bits:
            if b not in (0, 1):
                raise InvalidInput(f"path bits must be 0 or 1, got {b!r}")
            code = (code << 1) | b
        return cls(code=code, n=n)


def path_probability(params: "TreeParams", path: BernoulliPath) -> float:
    """Product over steps of p_t for an up move, 1 - p_t for a down move."""
    if path.n != params.n_steps:
        raise LengthMismatch(f"path has {path.n} steps, tree has {params.n_steps}")
    prob = 1.0
    for t, b in enumerate(path.bits()):
        p = float(params.up_probs[t])
        prob *= p if b else 1.0 - p
    return prob


@dataclass(frozen=True)
class PathPartition:
    """Assignment of every N-step path code to one of m ranks.

    prefix_width is the number k of leading bits used to form blocks;
    blocks[rank] lists the k-bit prefix values that rank owns, in
    ascending order.  Each prefix value v covers the contiguous code
    range [v * 2^(N-k), (v+1) * 2^(N-k)).
    """

    n: int
    m: int
    prefix_width: int
    blocks: tuple

    @property
    def suffix_width(self) -> int:
        return self.n - self.prefix_width


def make_partition(n: int, m: int) -> PathPartition:
    """Split the 2^n path codes across m ranks.

    The 2^k blocks of k = min(n, ceil(log2 m)) prefix bits, plus
    OVERSUB_BITS more when m is not a power of two, are dealt
    round-robin, block b to rank b mod m.  A power-of-two m thus gives
    rank i the single prefix i, one contiguous range per rank.
    """
    if not 1 <= n <= 62:
        raise InvalidInput(f"n must be between 1 and 62, got {n}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidWorkerCount(f"worker count must be a positive integer, got {m!r}")
    if m > (1 << n):
        raise InvalidWorkerCount(
            f"worker count {m} exceeds the {1 << n} paths of an {n}-step tree"
        )
    width = min(n, (m - 1).bit_length() + (OVERSUB_BITS if m & (m - 1) else 0))
    blocks = tuple(tuple(range(r, 1 << width, m)) for r in range(m))
    return PathPartition(n=n, m=m, prefix_width=width, blocks=blocks)


def _check_rank(partition: PathPartition, rank: int) -> None:
    if not 0 <= rank < partition.m:
        raise RankOutOfRange(
            f"rank {rank} is outside [0, {partition.m}) for this partition"
        )


def block_code_ranges(partition: PathPartition, rank: int) -> list:
    """Contiguous [lo, hi) code ranges owned by one rank, ascending."""
    _check_rank(partition, rank)
    span = 1 << partition.suffix_width
    return [(v * span, (v + 1) * span) for v in partition.blocks[rank]]


def iter_block(partition: PathPartition, rank: int) -> Iterator[BernoulliPath]:
    """Yield the rank's paths in ascending code order, O(1) memory."""
    for lo, hi in block_code_ranges(partition, rank):
        for code in range(lo, hi):
            yield BernoulliPath(code=code, n=partition.n)


def block_probabilities(params: "TreeParams", partition: PathPartition) -> list:
    """Total probability mass of every rank's paths, in rank order.

    Suffix bits always sum out to one, so a rank's mass is the sum of
    its owned prefix weights, read from one prefix-weight table.
    """
    if partition.n != params.n_steps:
        raise LengthMismatch(
            f"partition is over {partition.n}-step paths, tree has {params.n_steps}"
        )
    probs = params.up_probs[: partition.prefix_width]
    weight = path_table(probs, params.u, params.d, 1.0).weight.tolist()
    return [sum(weight[v] for v in blocks) for blocks in partition.blocks]


def block_probability(params: "TreeParams", partition: PathPartition, rank: int) -> float:
    """Total probability mass of one rank's paths."""
    _check_rank(partition, rank)
    return block_probabilities(params, partition)[rank]


class PathTable(NamedTuple):
    """State after every j-step word, indexed by the word's code.

    weight is the word's probability.  last, total and low are the final
    price, the sum of the prices after each step, and their minimum
    (+inf for the empty word), all scaled from the start price.
    """

    weight: np.ndarray
    last: np.ndarray
    total: np.ndarray
    low: np.ndarray

    def rows(self, lo: int, hi: int) -> "PathTable":
        """The states of words lo..hi-1, as views."""
        return PathTable(self.weight[lo:hi], self.last[lo:hi], self.total[lo:hi],
                         self.low[lo:hi])


def path_table(probs: np.ndarray, u: float, d: float, start: float) -> PathTable:
    """Tables of all 2^len(probs) words, built by doubling one step at a time.

    Word c of width j extends to 2c (a down move) and 2c + 1 (an up
    move), so each step costs O(2^j) and the whole build O(2^len(probs)).
    A weight is the product of its step probabilities from step 1 on,
    the same order of rounding as path_probability.
    """
    weight = np.ones(1)
    last = np.full(1, float(start))
    total = np.zeros(1)
    low = np.full(1, np.inf)
    for p in probs:
        weight = np.stack((weight * (1.0 - p), weight * p), axis=1).ravel()
        moved = np.stack((last * d, last * u), axis=1)
        total = (total[:, None] + moved).ravel()
        low = np.minimum(low[:, None], moved).ravel()
        last = moved.ravel()
    return PathTable(weight, last, total, low)


class RowSummary:
    """PathTable's last, total and low for given bit rows, from price 1.

    The relative prices cumprod(where(bits, u, d)) are built once; each
    statistic is computed on first use, so a payoff pays only for the one
    it reads.  Rows with no columns are the empty word: last 1, total 0
    and low +inf, as in a table of zero steps.
    """

    def __init__(self, bits: np.ndarray, u: float, d: float):
        self.bits = bits
        # In place: one rows x steps array fewer to fault in per sample.
        steps = np.where(bits, u, d)
        self.prices = np.cumprod(steps, axis=1, out=steps)
        self._last = self._total = self._low = None

    # Not functools.cached_property: before Python 3.12 it holds one lock
    # per class while computing, which queues the pool threads.
    @property
    def last(self) -> np.ndarray:
        if self._last is None:
            p = self.prices
            self._last = p[:, -1] if p.shape[1] else np.ones(p.shape[0])
        return self._last

    @property
    def total(self) -> np.ndarray:
        if self._total is None:
            self._total = self.prices.sum(axis=1)
        return self._total

    @property
    def low(self) -> np.ndarray:
        if self._low is None:
            self._low = self.prices.min(axis=1, initial=np.inf)
        return self._low


def codes_to_bits(codes: np.ndarray, n: int) -> np.ndarray:
    """Expand integer path codes to a (len(codes), n) boolean bit matrix."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    return (codes[:, None] >> shifts) & np.uint64(1) != 0
