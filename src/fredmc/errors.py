"""Exception types shared across the solver pipeline."""


class FredmcError(Exception):
    """Base class for solver errors."""


class ContractivityError(FredmcError):
    """No tabulated r_k^(1/k) lies below 1, or a damped oracle runs past
    the Neumann radius: the Neumann series cannot be certified to converge."""


class BudgetError(FredmcError):
    """The sampling budget is below the minimum (or a realized cost guard
    tripped)."""


class NotPSD(FredmcError):
    """Covariance has an eigenvalue below -1e-6 * trace (or a NaN): too
    negative to be rounding, so it cannot be clipped to a factor."""


class BandTooWide(FredmcError):
    """The non-asymptotic tail bound never drops below the requested
    miss probability on the searched range; report instead of fabricating."""


class UnsupportedDerivative(FredmcError):
    """Derivative solve requested without a kernel t-derivative."""


class ConfigError(FredmcError):
    """Experiment configuration is malformed or out of range."""
