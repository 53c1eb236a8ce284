"""Exception types raised by the valuation engines."""

import numpy as np

# Prices can overflow to inf and meet weights that underflowed to 0; every
# engine raises NonFiniteValue on such a result, so NumPy's warnings on the
# way are noise.  A decorator: an errstate does not reach other threads.
quiet_non_finite = np.errstate(over="ignore", invalid="ignore")


class PricingError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidInput(PricingError):
    """A market input or configuration value is outside its domain."""


class ProbabilityOutOfRange(PricingError):
    """A per-step up probability fell outside the open interval (0, 1)."""


class LengthMismatch(PricingError):
    """A per-step vector does not have one entry per tree step."""


class InvalidWorkerCount(PricingError):
    pass


def check_count(name: str, value, floor: int, error: type) -> None:
    """Raise error unless value is an int of at least floor; a bool is not a count."""
    if not isinstance(value, int) or isinstance(value, bool) or value < floor:
        raise error(f"{name} must be an integer of at least {floor}, got {value!r}")


class RankOutOfRange(PricingError):
    pass


class PathDependentPayoff(PricingError):
    """The closed-form leaf valuation only covers path-independent payoffs."""


class NonConstantProbs(PricingError):
    """The closed-form leaf valuation needs one constant up probability."""


class InfeasibleAllocation(PricingError):
    """The sample budget cannot cover every stratum with positive mass."""


class EnumerationGuard(PricingError):
    """Refusing to enumerate 2^N paths without an explicit override."""


class NonFiniteValue(PricingError):
    """A move size or a valuation leaves the range of double precision."""
