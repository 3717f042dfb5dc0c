"""Exception types shared across the package."""


class HahndiskError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HahndiskError):
    """Invalid instance configuration or command usage."""


class FormatError(HahndiskError):
    """Malformed serialized input (series text, transcript JSON, rationals)."""


class ProfileMismatchError(HahndiskError):
    """Two series with different weight profiles were combined."""


class ExponentError(HahndiskError):
    """An exponent violates the ring constraints (not in Z[1/p], or bad sign)."""


class AmbiguousLeadingError(HahndiskError):
    """Two terms share the minimal weight under a generic-radius profile.

    Generic-radius profiles promise a unique leading monomial; a tie means
    some upstream invariant was violated.
    """


class NotAUnitError(HahndiskError):
    """Inversion was requested for a series with no resolved terms."""


class InsufficientPrecisionError(HahndiskError):
    """The input precision cannot support the requested output precision."""


class PrecisionIncreaseError(HahndiskError):
    """truncate() was asked to raise a precision bound."""


class IndeterminateFromPrecisionError(HahndiskError):
    """A seminorm minimum is not resolved below the precision floor."""


class UnresolvedError(HahndiskError):
    """No term of the element is resolved below the precision floor."""


class AdaptednessFailedError(HahndiskError):
    """An exact adaptedness check failed; the plan is inconsistent."""


class StageUnavailableError(HahndiskError):
    """A required stage is absent and the plan cannot be extended to it."""


class SearchCeilingError(StageUnavailableError):
    """No Frobenius exponent up to `config.MAX_B_SEARCH` resolves a stage.

    A resource ceiling of the stage search, not a broken contract: each
    appended stage needs a larger b than every earlier one."""


class ContractViolationError(HahndiskError):
    """A certified bound failed under exact re-evaluation."""
