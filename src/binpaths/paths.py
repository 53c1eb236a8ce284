"""Path encoding, the work partition over all 2^N paths, and word tables.

A path through an N-step tree is a word of N Bernoulli outcomes, stored
as the integer whose binary expansion, read from the most significant of
the N used bits, is the outcome sequence.  Step 1 is the most significant
bit and 1 means an up move, so

    code = sum_t bits[t] * 2^(N - 1 - t)      (t = 0..N-1)

and consecutive codes sharing a prefix describe paths sharing their first
steps.  That makes a prefix block a contiguous code range: the partition
below, the paper's mapping of ranks to blocks, describes each rank's
share by those ranges, and the engines' prefix tables index rows by them.

A word table (path_table) holds the state after every word of j steps.
The exact engine joins prefix and suffix tables; fold_rows reads rows
the same way, as words of at most WORD_BITS steps (word_widths) whose
states come from memoised tables and fold left to right into the one
statistic a payoff reads, a PathTable holding only it.  Bit rows are
cut into those words (fold_bits); the Monte Carlo sampler draws them.
level_groups splits a table's words by their end level, and
sorted_table sorts entries by one statistic with running sums, so a
sum over the entries on one side of a payoff's kink is one search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidInput, InvalidWorkerCount, LengthMismatch, RankOutOfRange, check_count

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
    check_count("worker count", m, 1, InvalidWorkerCount)
    check_fits("worker count", m, n)
    width = min(n, (m - 1).bit_length() + (OVERSUB_BITS if m & (m - 1) else 0))
    blocks = tuple(tuple(range(r, 1 << width, m)) for r in range(m))
    return PathPartition(n=n, m=m, prefix_width=width, blocks=blocks)


def check_fits(name: str, count: int, n: int) -> None:
    """InvalidWorkerCount when count ranks or strata outnumber the 2^n paths of n steps."""
    if count > 1 << n:
        raise InvalidWorkerCount(f"{name} {count} exceeds the {1 << n} paths of an {n}-step tree")


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
    """State after every j-step word, or of every row, one entry each.

    weight is the word's probability.  last, total and low are the final
    price, the sum of the prices after each step, and their minimum
    (+inf for the empty word), all scaled from the start price.  codes
    are the words' codes: path_table lists its words in code order.  A
    state holds only the fields its reader needs; the others are None.
    """

    weight: Optional[np.ndarray] = None
    last: Optional[np.ndarray] = None
    total: Optional[np.ndarray] = None
    low: Optional[np.ndarray] = None
    codes: Optional[np.ndarray] = None

    def rows(self, lo: int, hi: int) -> "PathTable":
        """The states of words lo..hi-1 as (rows, 1) column views.

        join_payoff broadcasts a column of prefix states against a whole
        suffix table, one row of paths per prefix.
        """
        return PathTable(*(a[lo:hi, None] for a in self))


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
    return PathTable(weight, last, total, low, np.arange(last.shape[0]))


# Steps per word of fold_bits and the sampler: a word table has at most 2^12 entries.
WORD_BITS = 12
# Largest |log| of a price relative within one word, so that a word table
# of up to WORD_BITS prices and their sum stays finite and normal.
WORD_REACH = 700.0


@lru_cache(maxsize=8)
def _word_table(width: int, u: float, d: float) -> PathTable:
    """path_table of every width-step word from price 1, read-only.

    Memoised: it depends on (width, u, d) alone, and at most 2^WORD_BITS
    entries of 40 B make one table, 160 KB.
    """
    table = path_table(np.zeros(width), u, d, 1.0)
    for a in table:
        a.flags.writeable = False
    return table


def word_widths(n: int, u: float, d: float) -> list:
    """Widths of the words that n steps are cut into, step 1 first.

    ceil(n / widest) words of near-equal width, none for n = 0.  widest
    is WORD_BITS, or fewer steps when the moves are so large that
    WORD_BITS of them would leave double precision, so a word table
    never holds 0 or inf.
    """
    reach = max(abs(math.log(u)), abs(math.log(d)))
    widest = max(1, min(WORD_BITS, int(WORD_REACH / reach))) if reach else WORD_BITS
    words = -(-n // widest)
    return [n // words + (i < n % words) for i in range(words)]


def fold_rows(rows: int, u: float, d: float, words: list, statistic: str) -> PathTable:
    """The statistic of rows given word by word from price 1, in a PathTable holding only it.

    Each word, step 1 first, is (width, index, table): every row's index
    into table, whose last, total, low and codes are its entries' states
    (a word table, or a sampler's table of drawn words).  The codes sit
    side by side, step 1 the most significant bit; the prices fold left
    to right, last * last', total + last * total' and fmin(low, last *
    low'), so no rows x steps float array is built.  Narrower words at
    large moves keep every table entry finite and nonzero, so the fold
    makes no 0 * inf.  When one word is the row (n <= WORD_BITS at
    ordinary moves), last is the step-by-step product bit for bit.
    Rows with no steps are the empty word: code 0, last 1, total 0 and
    low +inf.
    """
    (_, index, table), *rest = words or [(0, np.zeros(rows, dtype=np.int64), _word_table(0, u, d))]
    stat = getattr(table, statistic)[index]
    # total and low extend from the last price before each later word.
    last = table.last[index] if rest and statistic in ("total", "low") else None
    for k, (width, index, table) in enumerate(rest, 1):
        if statistic == "codes":
            stat <<= width
            stat |= table.codes[index]
        elif statistic == "last":
            stat *= table.last[index]
        elif statistic == "total":
            stat += last * table.total[index]
        else:
            np.fmin(stat, last * table.low[index], out=stat)
        if last is not None and k < len(rest):
            last *= table.last[index]
    return PathTable(**{statistic: stat})


def level_groups(steps: int) -> list:
    """The codes of all 2^steps words in steps + 1 groups, group k the words of k up moves.

    On the recombinant tree the words of a group end at one price, so a
    table's rows of one group share their last price.
    """
    codes = np.arange(1 << steps)
    ups = np.zeros_like(codes)
    for t in range(steps):
        ups += (codes >> t) & 1
    order = np.argsort(ups, kind="stable")
    return np.split(order, np.cumsum(np.bincount(ups, minlength=steps + 1))[:-1])


class SortedTable(NamedTuple):
    """Entries sorted by a key, with running sums of their weight and weight * value.

    weight[i] and moment[i] sum the i entries of smallest key, from
    weight[0] = moment[0] = 0, so the entries below any bound sum with
    one binary search (below).  A sum over the entries on one side of a
    kink, as a put's payoff has, is then one search per query.
    """

    key: np.ndarray
    weight: np.ndarray
    moment: np.ndarray

    def below(self, bound) -> tuple:
        """(weight, moment) of the entries whose key is below each bound."""
        i = np.searchsorted(self.key, bound)
        return self.weight[i], self.moment[i]


def sorted_table(key: np.ndarray, weight: Optional[np.ndarray] = None,
                 value: Optional[np.ndarray] = None) -> SortedTable:
    """SortedTable of entries with these keys, weights and values.

    Without weight, every entry weighs 1 and its value is its key: a
    sample's counts and sums.  Otherwise ties keep their input order
    (a stable sort), so the running sums are the same on every host.
    """
    if weight is None:
        key = np.sort(key)
        return SortedTable(key, np.arange(key.shape[0] + 1.0), _running(key))
    order = np.argsort(key, kind="stable")
    return SortedTable(key[order], _running(weight[order]), _running((weight * value)[order]))


def _running(a: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(a)))


def fold_bits(bits: np.ndarray, u: float, d: float, statistic: str) -> PathTable:
    """fold_rows of (rows, n) bit rows, step 1 first.

    A row's code (step 1 the most significant bit, as in codes_to_bits)
    is cut into the words of word_widths, and each word indexes the
    memoised word table of its width by its code.
    """
    rows, n = bits.shape
    codes = bits @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    widths = word_widths(n, u, d)
    return fold_rows(rows, u, d, [
        (w, (codes >> (n - end)) & ((1 << w) - 1), _word_table(w, u, d))
        for w, end in zip(widths, accumulate(widths))], statistic)


def codes_to_bits(codes: np.ndarray, n: int) -> np.ndarray:
    """Expand integer path codes (int64 or uint64) to a (len(codes), n) boolean bit matrix."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    return (np.asarray(codes, dtype=np.uint64)[:, None] >> shifts) & np.uint64(1) != 0
