"""Payoff functionals evaluated on whole price paths.

Every payoff sees the path prices S_1..S_N (never S_0) and the strike.
The four built-in kinds are closed under the CLI tags below; a callable
with the same signature as payoff() slots in anywhere a kind is
accepted, the extension point for new path functionals.

Every engine evaluates paths as a prefix state joined with a suffix
state (paths.PathTable), and join_paths is the one place that tells
the two apart: join_payoff, the path kernel, for a kind, and
code_payoffs, the one place a callable runs, on each path's code.  A
suffix needs only the statistic suffix_statistic names, the one record
of what a payoff reads; rows folded for another raise InvalidInput.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from .errors import InvalidInput, LengthMismatch
from .paths import BernoulliPath, PathTable, fold_bits, path_table

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

# The one suffix statistic each kind's join_payoff reads: the one record
# of what a payoff depends on.
_SUFFIX_STATISTIC = {
    PayoffKind.EUROPEAN_CALL: "last",
    PayoffKind.EUROPEAN_PUT: "last",
    PayoffKind.ASIAN_PUT: "total",
    PayoffKind.FIXED_LOOKBACK_PUT: "low",
}


def parse_payoff(name: str) -> PayoffKind:
    """Map a CLI tag to its kind.  The tag set is closed."""
    for kind in PayoffKind:
        if kind.value == name:
            return kind
    raise InvalidInput(
        f"unknown payoff {name!r}; expected one of {', '.join(PAYOFF_NAMES)}"
    )


def suffix_statistic(kind: PayoffLike) -> str:
    """The suffix field of PathTable a payoff reads: codes for a callable."""
    return _SUFFIX_STATISTIC[kind] if isinstance(kind, PayoffKind) else "codes"


def is_path_dependent(kind: PayoffLike) -> bool:
    """False only for kinds that read the last price alone."""
    return suffix_statistic(kind) != "last"


def read_statistic(kind: PayoffLike, suffix: PathTable) -> np.ndarray:
    """The suffix statistic a payoff reads, or InvalidInput when suffix was folded without it."""
    stat = getattr(suffix, suffix_statistic(kind))
    if stat is None:
        raise InvalidInput(f"the suffix holds no {suffix_statistic(kind)}, which the payoff reads")
    return stat


def join_paths(kind: PayoffLike, params: "TreeParams", S0: float, K: float, prefix: PathTable,
               suffix: PathTable, steps: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Payoffs of the paths that prefix states and suffix states of `steps` steps make.

    The one place that tells built-in and callable payoffs apart.  A
    kind joins the states (join_payoff, which broadcasts them and builds
    into `out` when given).  A callable gets each path's code, the
    prefix code shifted past the suffix code, (prefix.codes << steps) |
    suffix.codes.
    """
    stat = read_statistic(kind, suffix)
    if isinstance(kind, PayoffKind):
        return join_payoff(kind, K, params.n_steps, prefix, suffix, out)
    return code_payoffs(kind, params, S0, K, (prefix.codes << steps) | stat)


def join_payoff(kind: PayoffKind, K: float, n: int, prefix: PathTable,
                suffix: PathTable, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Built-in payoff of n-step paths made of a prefix and a suffix state.

    The path kernel of every engine and the one kind dispatch.  prefix
    holds states from S0 (last price, price sum and minimum); suffix
    holds last, total and low relative to the price it starts from.  The
    two broadcast as NumPy arrays do: prefix columns (PathTable.rows)
    against a suffix table give entry (i, j) for prefix row i and suffix
    j, and equal-length 1-D states join path by path.  Each entry takes a
    few multiplies and adds, and each kind forms only the statistic it
    reads.  The result is built in place, in `out` when given: the exact
    engine passes one buffer per rank, so its batches allocate nothing.
    """
    e = prefix.last
    if kind is PayoffKind.EUROPEAN_CALL:
        v = np.multiply(e, suffix.last, out=out)
        v -= K
    elif kind is PayoffKind.EUROPEAN_PUT:
        v = np.multiply(e, suffix.last, out=out)
        np.subtract(K, v, out=v)
    elif kind is PayoffKind.ASIAN_PUT:
        v = np.multiply(e, suffix.total, out=out)
        v += prefix.total
        v /= n
        np.subtract(K, v, out=v)
    elif kind is PayoffKind.FIXED_LOOKBACK_PUT:
        # fmin: an empty suffix has low = +inf, and a prefix price that
        # underflowed to 0 turns it into NaN, which fmin skips.
        v = np.multiply(e, suffix.low, out=out)
        np.fmin(prefix.low, v, out=v)
        np.subtract(K, v, out=v)
    else:
        raise InvalidInput(f"unhandled payoff kind {kind!r}")
    return np.maximum(v, 0.0, out=v)


def payoff(kind: PayoffLike, params: "TreeParams", S0: float, K: float,
           path: BernoulliPath) -> float:
    """Evaluate one payoff on one path."""
    return float(payoff_batch(kind, params, S0, K, [path.bits()])[0])


def payoff_batch(kind: PayoffLike, params: "TreeParams", S0: float, K: float,
                 bits: Union[np.ndarray, PathTable]) -> np.ndarray:
    """Evaluate one payoff on a (batch, N) boolean bit matrix or on sampled rows.

    Sampled rows come folded for the payoff's statistic (mc.sample_rows),
    N steps from S0; a bit matrix is folded here (paths.fold_bits).
    Either joins the start state (S0, sum 0, minimum +inf, code 0).
    """
    if not isinstance(bits, PathTable):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise InvalidInput(f"bit matrix must be 2-D, got shape {bits.shape}")
        if bits.shape[1] != params.n_steps:
            raise LengthMismatch(
                f"bit rows have {bits.shape[1]} steps, tree has {params.n_steps}")
        bits = fold_bits(bits, params.u, params.d, suffix_statistic(kind))
    start = path_table((), params.u, params.d, S0)
    return join_paths(kind, params, S0, K, start, bits, params.n_steps)


def code_payoffs(kind: Callable, params: "TreeParams", S0: float, K: float,
                 codes: np.ndarray) -> np.ndarray:
    """A callable payoff at each path code, one BernoulliPath each, in the codes' shape."""
    values = (kind(params, S0, K, BernoulliPath(code, params.n_steps))
              for code in codes.ravel().tolist())
    return np.fromiter(values, np.float64, codes.size).reshape(codes.shape)
