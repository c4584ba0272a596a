"""The one file layer: every read, JSON decode and write of the package.

An OS-level failure is an IoError and a malformed JSON document a
FormatError. Outputs are regular files, replaced atomically: a reader
sees the old bytes or the new ones, never a partial write.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import threading
from contextlib import suppress

import numpy as np

from .errors import FormatError, IoError, ParameterError, refuse_first

_TMP_IDS = itertools.count()  # process-wide, so no two writes share a temporary name


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
    new file's mode follows the umask, then os.replace. The temporary name is
    this call's own (pid, thread, counter) and holds no part of the target's,
    so concurrent writers of one path never share one and any target name
    fits; an existing file or symlink of that name is refused."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise IoError(f"cannot write {path}: not a regular file")
    name = f".modalign.{os.getpid()}.{threading.get_ident()}.{next(_TMP_IDS)}.tmp"
    tmp, made = os.path.join(os.path.dirname(target), name), False
    try:
        with open(tmp, "xb") as fh:
            made = True
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, target)
    except BaseException as exc:
        if made:
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
