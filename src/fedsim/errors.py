"""Exception types shared across the package."""
from contextlib import contextmanager


class FedSimError(Exception):
    """Base class for all package errors."""


class StructureMismatchError(FedSimError):
    """Two parameter sets disagree in layer names, order, or shapes."""


class NonFiniteError(FedSimError, ValueError):
    """A parameter set would hold NaN or Inf values."""


class EmptyFederationError(FedSimError):
    """An aggregation step received zero client updates."""


class EmptyInputError(FedSimError):
    """An operation that needs at least one sample got none."""


class InsufficientDataError(FedSimError):
    """Not enough samples to build the requested partition or split."""


class IdxFormatError(FedSimError):
    """IDX file carries an unexpected magic number or dimensionality."""


class IdxLengthError(FedSimError):
    """IDX file is shorter than its header promises."""


class IdxConsistencyError(FedSimError):
    """Image and label IDX files disagree on the sample count."""


class ConfigError(FedSimError):
    """A run configuration key is unknown, mistyped, or out of range."""


class RunError(FedSimError):
    """A federation run aborted mid-flight; carries the failing round."""

    def __init__(self, round_num: int, cause: Exception):
        super().__init__(f"round {round_num}: {cause}")
        self.round_num = round_num


@contextmanager
def naming(prefix: str, *types: type[Exception]):
    """Re-raise an error of one of `types` raised in the block as its own
    type, its message prefixed with `prefix: `, chained from the original."""
    try:
        yield
    except types as exc:
        raise type(exc)(f"{prefix}: {exc}") from exc
