"""Market inputs and the recombinant binomial tree built from them.

The tree has N steps of length dt = T / N.  One step multiplies the asset
price by u (an up move) or by d = 1/u (a down move), so the price lattice
recombines and the N+1 terminal nodes are S0 * u^j * d^(N-j) for j up moves.

The move sizes come from matching the first two moments of the lognormal
step under the growth rate q, which gives

    u + 1/u = exp(-q*dt) + exp((q + sigma^2)*dt)  =: 2*beta

and therefore u = beta + sqrt(beta^2 - 1) as the root larger than one.
The risk-neutral up probability is p = (exp(q*dt) - d) / (u - d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (InvalidInput, LengthMismatch, NonFiniteValue, ProbabilityOutOfRange,
                     check_count)

if TYPE_CHECKING:
    from .paths import BernoulliPath

MAX_DEPTH = 62


@dataclass(frozen=True)
class MarketInputs:
    """Contract terms and model parameters for one valuation.

    Parameters
    ----------
    S0 : float
        Spot price at time zero, strictly positive.
    K : float
        Strike, nonnegative.
    q : float
        Continuously compounded growth (and discount) rate.  May be
        negative or zero.
    sigma : float
        Volatility, nonnegative.  Zero collapses the tree to the
        deterministic forward path.
    T : float
        Maturity in years, strictly positive.
    N : int
        Number of tree steps, between 1 and 62 so path codes fit in a
        64-bit integer.
    """

    S0: float
    K: float
    q: float
    sigma: float
    T: float
    N: int

    def __post_init__(self):
        if not (self.S0 > 0.0) or not math.isfinite(self.S0):
            raise InvalidInput(f"S0 must be a positive finite number, got {self.S0}")
        if self.K < 0.0 or not math.isfinite(self.K):
            raise InvalidInput(f"K must be nonnegative and finite, got {self.K}")
        if not math.isfinite(self.q):
            raise InvalidInput(f"q must be finite, got {self.q}")
        if self.sigma < 0.0 or not math.isfinite(self.sigma):
            raise InvalidInput(f"sigma must be nonnegative and finite, got {self.sigma}")
        if not (self.T > 0.0) or not math.isfinite(self.T):
            raise InvalidInput(f"T must be a positive finite number, got {self.T}")
        check_count("N", self.N, 1, InvalidInput)
        if self.N > MAX_DEPTH:
            raise InvalidInput(f"N must be between 1 and {MAX_DEPTH}, got {self.N}")


@dataclass(frozen=True)
class TreeParams:
    """Derived step quantities: dt, the move sizes, and per-step up probs.

    up_probs has one entry per step.  derive_crr fills it with a single
    repeated value; with_custom_probs stores caller-supplied entries
    verbatim, which is the hook for non-identically-distributed steps.
    """

    dt: float
    u: float
    d: float
    beta: float
    up_probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.up_probs, dtype=np.float64)
        probs.setflags(write=False)
        object.__setattr__(self, "up_probs", probs)

    @property
    def n_steps(self) -> int:
        return int(self.up_probs.shape[0])

    def constant_up_prob(self):
        """The single up probability if every step shares it, else None."""
        p0 = float(self.up_probs[0])
        if np.all(self.up_probs == p0):
            return p0
        return None


def _check_probs_open_interval(probs: np.ndarray) -> None:
    outside = ~((probs > 0.0) & (probs < 1.0))  # NaN is outside too
    if np.any(outside):
        bad = float(probs[outside][0])
        raise ProbabilityOutOfRange(
            f"up probability {bad!r} is outside the open interval (0, 1)"
        )


def derive_crr(inputs: MarketInputs) -> TreeParams:
    """Build the tree parameters for the moment-matched lattice.

    The sigma = 0 case is handled separately: the two-moment match
    degenerates to u = exp(q*dt), d = 1/u and the up probability is
    exactly one, which keeps the deterministic forward path without
    running 0/0 through the general formula.  Either way, move sizes
    beyond double precision raise NonFiniteValue.
    """
    dt = inputs.T / inputs.N
    try:
        growth = math.exp(inputs.q * dt)
        if inputs.sigma == 0.0:
            beta = 0.5 * (growth + 1.0 / growth)
        else:
            beta = 0.5 * (
                math.exp(-inputs.q * dt) + math.exp((inputs.q + inputs.sigma**2) * dt)
            )
    except (OverflowError, ZeroDivisionError):
        beta = math.inf
    # 1/u of a subnormal u, or the sum of two large exps, reaches inf silently.
    if math.isinf(beta):
        raise NonFiniteValue(
            f"the move sizes leave double precision at q={inputs.q}, "
            f"sigma={inputs.sigma}, T/N={dt}"
        )
    if inputs.sigma == 0.0:
        probs = np.full(inputs.N, 1.0)
        return TreeParams(dt=dt, u=growth, d=1.0 / growth, beta=beta, up_probs=probs)

    u = beta + math.sqrt(beta * beta - 1.0)
    d = 1.0 / u
    if not u > d:
        raise ProbabilityOutOfRange(
            f"degenerate lattice: u={u!r} does not exceed d={d!r}"
        )
    p = (growth - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise ProbabilityOutOfRange(
            f"up probability {p!r} is outside the open interval (0, 1)"
        )
    probs = np.full(inputs.N, p)
    return TreeParams(dt=dt, u=u, d=d, beta=beta, up_probs=probs)


def with_custom_probs(inputs: MarketInputs, probs: Sequence[float]) -> TreeParams:
    """Tree with CRR move sizes but caller-supplied per-step up probs."""
    base = derive_crr(inputs)
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != inputs.N:
        raise LengthMismatch(
            f"expected {inputs.N} per-step probabilities, got shape {arr.shape}"
        )
    _check_probs_open_interval(arr)
    return TreeParams(dt=base.dt, u=base.u, d=base.d, beta=base.beta, up_probs=arr)


def asset_path(params: TreeParams, S0: float, path: "BernoulliPath") -> np.ndarray:
    """Asset prices S_1..S_N along one path.  S_0 is not included."""
    bits = np.asarray(path.bits(), dtype=bool)
    if bits.shape[0] != params.n_steps:
        raise LengthMismatch(
            f"path has {bits.shape[0]} steps, tree has {params.n_steps}"
        )
    factors = np.where(bits, params.u, params.d)
    return S0 * np.cumprod(factors)


def leaf_prices(params: TreeParams, S0: float) -> np.ndarray:
    """Terminal prices by up-move count: entry j is S0 * u^j * d^(N-j)."""
    n = params.n_steps
    j = np.arange(n + 1)
    return S0 * params.u**j * params.d ** (n - j)


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Entry j is C(n, j) p^j (1-p)^(n-j), for j = 0..n.

    The n-fold convolution of the one-step pmf (1-p, p), by binary
    powering: square for each bit of n, and convolve once more with one
    step on a 1 bit.  Sums of positive terms cancel nothing, so the
    error stays a few ulps; p in {0, 1} gives the exact one-hot vector.
    """
    step = np.array([1.0 - p, p])
    w = np.ones(1)
    for bit in bin(n)[2:]:
        w = np.convolve(w, w)
        if bit == "1":
            w = np.convolve(w, step)
    return w
