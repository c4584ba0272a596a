"""Exception hierarchy shared by every module in the package, and the
value checks that configs, JSON documents and arrays raise them from."""

import sys
from dataclasses import MISSING, fields
from numbers import Integral, Real

import numpy as np


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
    """Training produced a non-finite loss or non-finite weights."""


class PipelineError(ModalignError):
    """A benchmark pipeline stage failed; carries the stage name."""

    def __init__(self, stage, message):
        super().__init__(stage, message)  # both stay in args, so the error pickles
        self.stage = stage

    def __str__(self):
        return f"stage '{self.stage}': {self.args[1]}"


def refuse_first(bad: np.ndarray, error: type[ModalignError], message) -> None:
    """Raise error(message(*index)) at bad's first true entry in C order, one int per axis."""
    if bad.any():
        raise error(message(*map(int, np.unravel_index(np.argmax(bad), bad.shape))))


def is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    # not math.isfinite, which raises on an integer beyond the float range;
    # a numpy scalar compares as its Python value, as float max overflows a float32
    value = value.item() if isinstance(value, np.generic) else value
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


# Field metadata: the one range rule check_fields applies to a field.
POSITIVE = {"rule": (lambda v: v > 0, "positive")}
NON_NEGATIVE = {"rule": (lambda v: v >= 0, "non-negative")}
UNIT_INTERVAL = {"rule": (lambda v: 0 <= v < 1, "in [0, 1)")}
COSINE_FLOOR = {"rule": (lambda v: -1 < v <= 1, "in (-1, 1]")}
NON_EMPTY = {"rule": (bool, "non-empty")}


def one_of(*choices) -> dict:
    return {"rule": (lambda v: v in choices, f"one of {', '.join(map(str, choices))}")}


_ANY = (lambda v: True, "")
_TYPES = {
    "int": (is_integer, "integral"),
    "float": (is_finite, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "a mapping"),
}


def check_fields(config) -> None:
    """Check each field of a config dataclass against its annotation (a
    _TYPES name, a tuple[<name>, ...], either of them | None; any other
    annotation is not type-checked) and then its declared rule, entry by
    entry for a tuple, which may be given as a list, tuple or numpy array.
    ParameterError names the first field that fails, and for a tuple its
    first failing entry and that entry's index. Numbers are stored as plain
    Python ints and floats, tuples as tuples."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        is_tuple = kind.startswith("tuple[")
        if is_tuple:
            if isinstance(value, np.ndarray):
                value = value.tolist()
            if not isinstance(value, (list, tuple)):
                raise ParameterError(f"{f.name} must be a list, got {value!r}")
            kind = kind[len("tuple[") : -len(", ...]")]
        entries = list(value) if is_tuple else [value]
        for test, text in (_TYPES.get(kind, _ANY), f.metadata.get("rule", _ANY)):
            if not all(map(test, entries)):
                i = next(i for i, v in enumerate(entries) if not test(v))
                at = f" at index {i}" if is_tuple else ""
                raise ParameterError(f"{f.name} must be {text}, got {entries[i]!r}{at}")
        if kind == "int":
            entries = [int(v) for v in entries]
        elif kind == "float":  # JSON cannot encode a numpy float; a plain int still echoes as an int
            entries = [v if type(v) is int else float(v) for v in entries]
        object.__setattr__(config, f.name, tuple(entries) if is_tuple else entries[0])


def check_keys(cls, doc, where: str, error: type[ModalignError]) -> None:
    """Refuse, as error naming where, a decoded JSON document that is not an
    object, names a key that is not a field of the dataclass cls, or leaves
    out a field that has no default."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)}, key=str)  # a library dict may mix key types
    if unknown:
        raise error(f"{where}: unknown keys {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in doc and f.default is MISSING is f.default_factory]
    if missing:
        raise error(f"{where}: missing keys {missing}")


def from_json(cls, doc, where: str):
    """The dataclass cls built from a file's decoded JSON document: its keys
    pass check_keys, and a ParameterError its fields raise becomes a
    FormatError, each naming where."""
    check_keys(cls, doc, where, FormatError)
    try:
        return cls(**doc)
    except ParameterError as exc:
        raise FormatError(f"{where}: {exc}") from None
