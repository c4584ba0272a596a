"""Exception hierarchy shared by every module in the package."""


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
