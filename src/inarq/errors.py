"""Exception types shared across the package."""


class InarError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(InarError, ValueError):
    """A parameter lies outside its admissible domain."""


class UnsupportedMechanismError(ParameterError):
    """The requested reporting mechanism is not covered by this operation."""


class DegenerateClassError(InarError, ValueError):
    """The i.i.d. class has no lower endpoint to trace an equivalence curve from."""


class AdmissibleRangeError(InarError, ValueError):
    """A target reporting probability lies outside the admissible interval."""

    def __init__(self, q_target: float, lower: float, upper: float):
        self.q_target = q_target
        self.lower = lower
        self.upper = upper
        super().__init__(
            f"target reporting probability {q_target} is outside the admissible "
            f"interval [{lower}, {upper}]"
        )


class TruncationError(InarError, ValueError):
    """A truncation leaves too much probability mass unaccounted for."""
