"""Shared exception types, and the number tests of the configs that raise ConfigError."""

import math
import numbers

__all__ = [
    "KeycontactError",
    "DegenerateInputError",
    "MisalignedTimebaseError",
    "TransferStageError",
    "RefinementDivergence",
    "BankError",
    "RecordNotFoundError",
    "SchemaError",
    "ConfigError",
]


class KeycontactError(Exception):
    """Base class for library errors."""


class DegenerateInputError(KeycontactError, ValueError):
    """Input admits no well-defined answer (collinear points, zero motion, ...)."""


class MisalignedTimebaseError(KeycontactError, ValueError):
    """Two trajectories do not share a common time base."""


class TransferStageError(KeycontactError, RuntimeError):
    """A keypoint transfer stage degenerated; carries the stage name."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


class RefinementDivergence(KeycontactError, RuntimeError):
    """The contact filter saw repeated all-zero likelihood updates."""

    def __init__(self, message: str, diagnostics=None):
        self.diagnostics = diagnostics
        super().__init__(message)


class BankError(KeycontactError, RuntimeError):
    """Knowledge-bank storage failure."""


class RecordNotFoundError(BankError, KeyError):
    """Requested record id is absent from the bank."""


class SchemaError(KeycontactError, ValueError):
    """Serialized record's schema version or shape is unsupported."""


class ConfigError(KeycontactError, ValueError):
    """Invalid configuration; collects every failing field."""

    def __init__(self, failures: dict[str, str]):
        self.failures = dict(failures)
        msg = "; ".join(f"{k}: {v}" for k, v in sorted(self.failures.items()))
        super().__init__(f"invalid config: {msg}")


def is_int(value) -> bool:
    """An integer, and not a bool (JSON true is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A finite real number, and neither a bool nor a string (JSON true and "0.002" are not lengths)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
