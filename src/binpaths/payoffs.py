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

from .errors import InvalidInput
from .model import asset_path

if TYPE_CHECKING:
    from .model import TreeParams
    from .paths import BernoulliPath


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


def summary_payoff(kind: PayoffKind, K: float, last: Callable, mean: Callable,
                   low: Callable) -> np.ndarray:
    """Built-in payoff from a path summary: the one kind dispatch.

    last, mean and low return S_N, the average of S_1..S_N and their
    minimum.  Each kind reads one of them, so only that one is computed.
    """
    if kind is PayoffKind.EUROPEAN_CALL:
        return np.maximum(last() - K, 0.0)
    if kind is PayoffKind.EUROPEAN_PUT:
        return np.maximum(K - last(), 0.0)
    if kind is PayoffKind.ASIAN_PUT:
        return np.maximum(K - mean(), 0.0)
    if kind is PayoffKind.FIXED_LOOKBACK_PUT:
        return np.maximum(K - low(), 0.0)
    raise InvalidInput(f"unhandled payoff kind {kind!r}")


def payoff(kind: PayoffLike, params: "TreeParams", S0: float, K: float,
           path: "BernoulliPath") -> float:
    """Evaluate one payoff on one path."""
    if not isinstance(kind, PayoffKind):
        return float(kind(params, S0, K, path))
    prices = asset_path(params, S0, path)
    return float(summary_payoff(kind, K, lambda: prices[-1], prices.mean, prices.min))


def payoff_batch(kind: PayoffLike, params: "TreeParams", S0: float, K: float,
                 bits: np.ndarray) -> np.ndarray:
    """Evaluate one payoff on a (batch, N) boolean bit matrix.

    Builds the full price trajectory for every row, so each path costs
    O(N) work for every kind.  Callable kinds fall back to a per-row
    loop through payoff().
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2:
        raise InvalidInput(f"bit matrix must be 2-D, got shape {bits.shape}")
    if not isinstance(kind, PayoffKind):
        from .paths import BernoulliPath

        out = np.empty(bits.shape[0], dtype=np.float64)
        for i in range(bits.shape[0]):
            p = BernoulliPath.from_bits([int(b) for b in bits[i]])
            out[i] = kind(params, S0, K, p)
        return out

    factors = np.where(bits, params.u, params.d)
    prices = S0 * np.cumprod(factors, axis=1)
    return summary_payoff(kind, K, lambda: prices[:, -1],
                          lambda: prices.mean(axis=1), lambda: prices.min(axis=1))
