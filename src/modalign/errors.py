"""Exception hierarchy shared by every module in the package, and the
value checks that configs raise them from."""

import sys
from numbers import Integral, Real


class ModalignError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ModalignError):
    """Vector or bank dimensions do not match what the operation requires."""


class DegenerateVectorError(ModalignError):
    """An all-zero vector was given where a direction is required."""


class EmptyBankError(ModalignError):
    """The operation needs more rows than the given bank(s) contain."""


class TaskMismatchError(ModalignError):
    """Two banks do not cover the task ids the operation expects."""


class ParameterError(ModalignError):
    """A parameter value is outside the operation's domain."""


class FormatError(ModalignError):
    """A bank, transform, or parameter file does not conform to its format."""


class IoError(ModalignError):
    """Reading or writing a file failed at the OS level."""


class DivergenceError(ModalignError):
    """Training produced a non-finite loss."""


class PipelineError(ModalignError):
    """A benchmark pipeline stage failed; carries the stage name."""

    def __init__(self, stage, message):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage


def is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    # not math.isfinite, which raises on an integer beyond the float range
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def check_fields(config, integral=(), integral_lists=(), finite=()) -> None:
    """ParameterError naming the first field of a config that is not an
    integer, holds a non-integer entry, or is not a finite number."""
    for name in (*integral, *integral_lists):
        value = getattr(config, name)
        if not all(map(is_integer, value if name in integral_lists else [value])):
            raise ParameterError(f"{name} must be integral, got {value!r}")
    for name in finite:
        if not is_finite(getattr(config, name)):
            raise ParameterError(f"{name} must be a finite number, got {getattr(config, name)!r}")
