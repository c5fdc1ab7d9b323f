"""Exception types shared across the library.

The CLI maps these onto exit codes: UsageError and its kin exit 1, a failed
verification exits 2, everything healthy exits 0.
"""


class KleindimError(Exception):
    """Base class for library errors."""


class UsageError(KleindimError):
    """Caller violated a documented precondition."""


class ModelMismatchError(UsageError):
    """Operands live in different ball models (disc vs ball)."""


class NumericalOverflowError(KleindimError):
    """A computed point sits too close to the sphere for float precision."""


class ResourceLimitError(KleindimError):
    """A configured resource cap was exceeded."""


class LoxodromicNotFoundError(KleindimError):
    """No loxodromic element was found within the searched depth."""


class DegenerateBasepointError(KleindimError):
    """The basepoint is fixed by a nontrivial group element."""


class InsufficientDataError(KleindimError):
    """Too few bins or shells to run an estimator."""


class StageFailure(KleindimError):
    """A verification pipeline stage failed; carries the stage name."""

    def __init__(self, stage, original):
        self.stage = stage
        self.original = original
        super().__init__(f"stage {stage}: {original}")


class InternalError(KleindimError):
    """Invariant violation that indicates a bug in this library."""
