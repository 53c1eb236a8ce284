"""Payoff functionals evaluated on whole price paths.

Every payoff sees the path prices S_1..S_N (never S_0) and the strike.
The four built-in kinds are closed under the CLI tags below; a callable
with the same signature as payoff() slots in anywhere a kind is accepted,
which is the extension point for new path functionals.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .errors import InvalidInput, LengthMismatch
from .paths import BernoulliPath, PathTable, RowSummary, path_table

if TYPE_CHECKING:
    from .model import TreeParams


class PayoffKind(enum.Enum):
    EUROPEAN_CALL = "euro-call"
    EUROPEAN_PUT = "euro-put"
    ASIAN_PUT = "asian-put"
    FIXED_LOOKBACK_PUT = "lookback-put"


PAYOFF_NAMES = tuple(kind.value for kind in PayoffKind)

# Callables get the same arguments as payoff() minus the leading kind.
PayoffLike = Union[PayoffKind, Callable]

_PATH_INDEPENDENT = frozenset({PayoffKind.EUROPEAN_CALL, PayoffKind.EUROPEAN_PUT})


def parse_payoff(name: str) -> PayoffKind:
    """Map a CLI tag to its kind.  The tag set is closed."""
    for kind in PayoffKind:
        if kind.value == name:
            return kind
    raise InvalidInput(
        f"unknown payoff {name!r}; expected one of {', '.join(PAYOFF_NAMES)}"
    )


def is_path_dependent(kind: PayoffLike) -> bool:
    """False only for kinds that depend on the terminal price alone."""
    if isinstance(kind, PayoffKind):
        return kind not in _PATH_INDEPENDENT
    return True


def join_payoff(kind: PayoffKind, K: float, n: int, prefix: PathTable,
                suffix: Union[PathTable, RowSummary]) -> np.ndarray:
    """Built-in payoff of every n-step path prefix i + suffix j.

    The path kernel of every engine and the one kind dispatch.  prefix
    holds one state per row (last price, price sum and minimum, from
    S0); suffix holds last, total and low relative to the price it
    starts from.  Entry (i, j) extends prefix row i by suffix j in a few
    multiplies and adds, and each kind forms only the statistic it reads.
    """
    e = prefix.last[:, None]
    if kind is PayoffKind.EUROPEAN_CALL:
        return np.maximum(e * suffix.last - K, 0.0)
    if kind is PayoffKind.EUROPEAN_PUT:
        return np.maximum(K - e * suffix.last, 0.0)
    if kind is PayoffKind.ASIAN_PUT:
        return np.maximum(K - (prefix.total[:, None] + e * suffix.total) / n, 0.0)
    if kind is PayoffKind.FIXED_LOOKBACK_PUT:
        # fmin: an empty suffix has low = +inf, and a prefix price that
        # underflowed to 0 turns it into NaN, which fmin skips.
        return np.maximum(K - np.fmin(prefix.low[:, None], e * suffix.low), 0.0)
    raise InvalidInput(f"unhandled payoff kind {kind!r}")


def payoff(kind: PayoffLike, params: "TreeParams", S0: float, K: float,
           path: BernoulliPath) -> float:
    """Evaluate one payoff on one path."""
    return float(payoff_batch(kind, params, S0, K, [path.bits()])[0])


def payoff_batch(kind: PayoffLike, params: "TreeParams", S0: float, K: float,
                 bits: np.ndarray) -> np.ndarray:
    """Evaluate one payoff on a (batch, N) boolean bit matrix.

    Built-in kinds join the start state (S0, sum 0, minimum +inf) with
    the rows' summary.  Callable kinds fall back to a per-row loop.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2:
        raise InvalidInput(f"bit matrix must be 2-D, got shape {bits.shape}")
    if bits.shape[1] != params.n_steps:
        raise LengthMismatch(f"bit rows have {bits.shape[1]} steps, tree has {params.n_steps}")
    if not isinstance(kind, PayoffKind):
        out = np.empty(bits.shape[0], dtype=np.float64)
        for i in range(bits.shape[0]):
            p = BernoulliPath.from_bits([int(b) for b in bits[i]])
            out[i] = kind(params, S0, K, p)
        return out
    start = path_table((), params.u, params.d, S0)
    return join_payoff(kind, K, params.n_steps, start, RowSummary(bits, params.u, params.d))[0]
