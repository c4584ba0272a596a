"""The one file layer: every read, JSON decode and write of the package.

An OS-level failure is an IoError and a malformed JSON document a
FormatError. Outputs are regular files, replaced atomically: a reader
sees the old bytes or the new ones, never a partial write.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import suppress

import numpy as np

from .errors import FormatError, IoError, ParameterError, refuse_first


def read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def read_json(data: str | bytes, where: str):
    """Decode one UTF-8 JSON document; where names it in the error."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and the
    # 4,300-digit integer limit; RecursionError covers deep nesting.
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc


def float32_bytes(values: np.ndarray, message) -> bytes:
    """values as C-order LE float32 bytes. A value that is not finite as a
    float32 is a ParameterError saying message(*index) of its entry."""
    with np.errstate(over="ignore"):  # the finiteness check below reports it
        floats = np.ascontiguousarray(values, dtype="<f4")
    refuse_first(~np.isfinite(floats), ParameterError, message)
    return floats.tobytes()


def float32_values(raw: bytes, offset: int, shape: tuple[int, ...], message) -> np.ndarray:
    """The LE float32 values of raw from offset as a float64 array of shape. A
    non-finite one is a FormatError saying message(*index) of its entry; the
    check runs on the float32 view, so a NaN payload is refused before the cast warns."""
    floats = np.frombuffer(raw, dtype="<f4", count=np.prod(shape), offset=offset).reshape(shape)
    refuse_first(~np.isfinite(floats), FormatError, message)
    return floats.astype(np.float64)


def write_atomic(path, data: bytes | str) -> None:
    """Replace the regular file at path (through its symlinks) with data, a
    str as UTF-8: a temporary file beside it, made by a plain open so that a
    new file's mode follows the umask, then os.replace."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise IoError(f"cannot write {path}: not a regular file")
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, target)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise


def json_text(doc) -> str:
    """The sorted-key, indent-2 JSON of doc and a trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()
