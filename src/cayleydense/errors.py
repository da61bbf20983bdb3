"""Exception types shared across the package."""


class CayleyDenseError(Exception):
    """Base class for library errors."""


class InternalConsistencyError(CayleyDenseError):
    """A proven invariant was violated (e.g. a diameter below a proven bound).

    This always indicates a bug, never bad input.
    """


class ConjectureRefutation(CayleyDenseError):
    """A degree-3 result contradicts the conjectural density constant 21/250.

    Carries the witness so the event can be reported rather than swallowed.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
