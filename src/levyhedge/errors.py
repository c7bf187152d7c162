"""Exception types shared across the library."""


class LevyHedgeError(Exception):
    """Base class for all library errors."""


class ConfigError(LevyHedgeError, ValueError):
    """Experiment config is malformed; the message names the offending field."""


class UnsupportedOrderError(LevyHedgeError, ValueError):
    """Moment order outside the analytic range of the jump distribution."""


class BankruptcyError(LevyHedgeError, RuntimeError):
    """A sampled jump of size <= -1 drove the asset to or below zero."""


class InsufficientNodesError(LevyHedgeError, ValueError):
    """Stencil order p requires 2N > p."""


class GridError(LevyHedgeError, ValueError):
    """Price-curve grid is not uniform or otherwise unusable."""


class PricingFailedError(LevyHedgeError, RuntimeError):
    """Every simulated path was discarded (e.g. all bankrupt)."""


class LadderOrderError(LevyHedgeError, ValueError):
    """Requested derivative order exceeds what the stencil table supports."""


class NeedsHigherOrderError(LevyHedgeError, RuntimeError):
    """No truncation order within the ladder met the tolerance."""

    def __init__(self, message, best_error=None, best_order=None):
        super().__init__(message)
        self.best_error = best_error
        self.best_order = best_order


class ZeroRateError(LevyHedgeError, ValueError):
    """A bank leg is sized by dividing by e^{r dt} - 1, so it needs r != 0."""


class IncompleteMarketError(LevyHedgeError, ValueError):
    """No basket available for a required Taylor term."""

    def __init__(self, message, order=None):
        super().__init__(message)
        self.order = order


class AlignmentError(LevyHedgeError, ValueError):
    """Swap sampling points do not bracket the hedging period."""


class DegenerateModelError(LevyHedgeError, ValueError):
    """Model has no risk in the direction a formula divides by."""


class UnhedgeableSetError(LevyHedgeError, RuntimeError):
    """Instrument matrix is singular or too ill-conditioned to solve."""

    def __init__(self, message, order=None):
        super().__init__(message)
        self.order = order
