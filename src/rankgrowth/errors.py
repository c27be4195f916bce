"""Exception taxonomy shared across the package."""


class RankGrowthError(Exception):
    """Base class for all package errors."""


class InputError(RankGrowthError):
    """Malformed or uninterpretable user input (bad element, bad config, ...)."""


class ContractError(RankGrowthError):
    """A caller violated a documented precondition (e.g. non-independent basis)."""


class HypothesisError(RankGrowthError):
    """A declared structural hypothesis failed on concrete evidence.

    Carries a human-readable witness so the caller can see exactly which
    rank inequality or monotonicity step broke.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OperatorError(RankGrowthError):
    """A backend map failed while applying an operator word."""


class InvalidMatroidError(RankGrowthError):
    """A user-supplied rank structure failed a sampled matroid axiom check."""


class OutOfBoxError(RankGrowthError):
    """A lazily generated structure was queried beyond its generated range."""
