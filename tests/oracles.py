"""Brute-force reference implementations used to pin expected values.

Pure Python with explicit loops and no imports from the package, so the
vectorized kernels are checked against an independent derivation.
"""

import math
from fractions import Fraction
from itertools import product


def brute_paths(n):
    """All 2^n up/down words, step 1 first."""
    return product((0, 1), repeat=n)


def brute_prices(S0, u, d, bits):
    prices = []
    s = S0
    for b in bits:
        s = s * (u if b else d)
        prices.append(s)
    return prices


def brute_prob(probs, bits):
    out = 1.0
    for p, b in zip(probs, bits):
        out *= p if b else 1.0 - p
    return out


def brute_payoff(name, prices, K):
    if name == "euro-call":
        return max(prices[-1] - K, 0.0)
    if name == "euro-put":
        return max(K - prices[-1], 0.0)
    if name == "asian-put":
        return max(K - sum(prices) / len(prices), 0.0)
    if name == "lookback-put":
        return max(K - min(prices), 0.0)
    raise ValueError(name)


def brute_value(S0, K, u, d, probs, q, T, payoff_name):
    """Discounted expectation by full enumeration."""
    total = 0.0
    for bits in brute_paths(len(probs)):
        prices = brute_prices(S0, u, d, bits)
        total += brute_prob(probs, bits) * brute_payoff(payoff_name, prices, K)
    return math.exp(-q * T) * total


def brute_pmf(n, p):
    """C(n, j) p^j (1-p)^(n-j) for j = 0..n, as exact rationals of the float p."""
    p = Fraction(p)
    return [math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]


def brute_code(bits):
    code = 0
    for b in bits:
        code = (code << 1) | b
    return code


def brute_allocate(masses, R):
    """Largest-remainder split of R draws by plain loops.

    Floor R * mass, hand the remainder to the largest fractional parts
    (lower index on ties), then, while a positive-mass stratum is left
    empty, move one draw to the first such stratum from the stratum with
    the most draws beyond the one it keeps (lower index on ties).
    """
    alloc = [math.floor(R * mass) for mass in masses]
    by_fraction = sorted(range(len(masses)), key=lambda m: (alloc[m] - R * masses[m], m))
    for m in by_fraction[:R - sum(alloc)]:
        alloc[m] += 1
    while True:
        starved = [m for m, mass in enumerate(masses) if mass > 0.0 and alloc[m] == 0]
        if not starved:
            return alloc
        spare = [a - (1 if mass > 0.0 else 0) for a, mass in zip(alloc, masses)]
        donor = max(range(len(masses)), key=lambda m: (spare[m], -m))
        alloc[donor] -= 1
        alloc[starved[0]] += 1
