"""Row helpers, task-labelled embedding banks, and bank file I/O.

Scalars are float64 in memory. The binary bank format stores float32
(matching common embedding dumps), so a save is lossy for values that
need more than 24 mantissa bits; loading is exact, and save/load of
float32-representable banks round-trips bit-identically.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    NON_EMPTY, POSITIVE, DegenerateVectorError, DimensionError, FormatError, ParameterError, check_fields, from_json,
    one_of, refuse_first,
)
from .fileio import float32_bytes, float32_values, read_bytes, read_json, write_atomic

BINARY_MAGIC = b"EBNK"
BINARY_VERSION = 1
JSONL_VERSION = 1
_NUMBER_TYPES = {int, float}
BANK_FORMATS = ("jsonl", "binary")
MODALITIES = ("visual", "text")


@dataclass(frozen=True)
class EmbeddingBank:
    """N embeddings of one modality, each labelled by a task id; the bank's
    dim is the width of its (N, dim) values.

    Task ids need not be unique (several goals may share a task) but must
    be non-empty strings.
    """

    modality: str = field(metadata=one_of(*MODALITIES))
    task_ids: tuple[str, ...] = field(metadata=NON_EMPTY)
    values: np.ndarray  # (N, dim)

    def __post_init__(self):
        check_fields(self)
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != self.n or vals.shape[1] < 1:
            raise DimensionError(f"values shape {vals.shape} is not {self.n} rows of at least one column")
        refuse_first(~np.isfinite(vals), ParameterError, lambda r, c: (
            f"bank entries must be finite, got {float(vals[r, c])!r} at row {r}, dim {c}"
        ))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.task_ids)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "EmbeddingBank":
        """Same task ids and modality over a replacement value matrix."""
        return EmbeddingBank(self.modality, self.task_ids, values)


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis. np.vecdot makes the same dot call
    per row as a 1-d np.linalg.norm, so each norm keeps that call's bits."""
    return np.sqrt(np.vecdot(matrix, matrix))


def unit_rows(matrix: np.ndarray, what: str = "row", floor: float = 0.0) -> np.ndarray:
    """Scale every row of a matrix to unit length; a row whose norm is at
    most floor has no direction and raises DegenerateVectorError, and one
    whose norm overflows (or is NaN) raises ParameterError. The norm is
    np.linalg.norm(axis=1), whose bits every goal and retrieval bank keeps."""
    with np.errstate(over="ignore"):  # an overflowed norm is reported below
        norms = np.linalg.norm(matrix, axis=1)
    refuse_first(norms <= floor, DegenerateVectorError, lambda i: f"{what} {i} is a zero vector")
    refuse_first(~np.isfinite(norms), ParameterError, lambda i: f"{what} {i} has no finite norm")
    return matrix / norms[:, None]


def mean_row(matrix: np.ndarray, what: str) -> np.ndarray:
    """The column means of a matrix; an entry that overflows float64 is a
    ParameterError naming what and its dimension."""
    with np.errstate(over="ignore"):  # an overflowed entry is reported below
        mean = matrix.mean(axis=0)
    refuse_first(~np.isfinite(mean), ParameterError, lambda i: f"{what} overflows float64 at dim {i}")
    return mean


# ---------------------------------------------------------------------------
# File formats.
#
# JSON lines: a header object
#   {"format":"ebank","version":1,"modality":"visual"|"text","dim":D}
# followed by one {"task_id": str, "v": [D numbers]} object per row.
#
# Binary: magic "EBNK", u8 version=1, u8 modality index in MODALITIES
# (0=visual, 1=text), u32 LE dim, u64 LE count, count*dim LE float32
# row-major, then each task_id as u16 LE byte length + UTF-8 bytes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _JsonlHeader:
    """Line 1 of a JSON-lines bank."""

    format: str = field(metadata=one_of("ebank"))
    version: int = field(metadata=one_of(JSONL_VERSION))
    modality: str = field(metadata=one_of(*MODALITIES))
    dim: int = field(metadata=POSITIVE)

    __post_init__ = check_fields


def save_bank(bank: EmbeddingBank, path, format: str) -> None:
    """Write a bank to disk in one of BANK_FORMATS; deterministic (same bank -> same bytes)."""
    if format not in BANK_FORMATS:
        raise ParameterError(f"unknown bank format {format!r}")
    write_atomic(path, _encode_jsonl(bank) if format == "jsonl" else _encode_binary(bank))


def load_bank(path) -> EmbeddingBank:
    """Read a bank from disk: a file that starts with the binary magic is a
    binary bank, and any other file is read as JSON lines."""
    raw = read_bytes(path)
    if raw[:4] == BINARY_MAGIC:
        return _decode_binary(raw, str(path))
    return _decode_jsonl(raw, str(path))


def _encode_jsonl(bank: EmbeddingBank) -> bytes:
    header = asdict(_JsonlHeader("ebank", JSONL_VERSION, bank.modality, bank.dim))
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for tid, row in zip(bank.task_ids, bank.values):
        lines.append(
            json.dumps(
                {"task_id": tid, "v": [float(x) for x in row]},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _decode_jsonl(raw: bytes, name: str) -> EmbeddingBank:
    lines = raw.split(b"\n")  # 0x0A never occurs inside a UTF-8 sequence
    while lines and lines[-1] == b"":
        lines.pop()
    if not lines:
        raise FormatError(f"{name}: empty file, expected an ebank header on line 1")
    header = from_json(_JsonlHeader, read_json(lines[0], f"{name}: line 1"), f"{name}: line 1")
    ids = []
    rows = []
    for row_idx, line in enumerate(lines[1:], start=1):
        lineno = row_idx + 1
        obj = read_json(line, f"{name}: line {lineno}")
        if not isinstance(obj, dict) or set(obj) != {"task_id", "v"}:
            raise FormatError(f"{name}: line {lineno}: row must have exactly task_id and v")
        tid = obj["task_id"]
        if not isinstance(tid, str) or not tid:
            raise FormatError(f"{name}: line {lineno}: task_id must be a non-empty string")
        vec = obj["v"]
        # json gives exact types, and a bool is not an int here
        if not isinstance(vec, list) or not set(map(type, vec)) <= _NUMBER_TYPES:
            raise FormatError(f"{name}: line {lineno}: v must be a list of numbers")
        if len(vec) != header.dim:
            raise DimensionError(
                f"{name}: row {row_idx} (line {lineno}): expected {header.dim} values, got {len(vec)}"
            )
        try:
            row = np.array(vec, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            row = None
        if row is None or not np.isfinite(row).all():
            raise FormatError(f"{name}: line {lineno}: non-finite value")
        ids.append(tid)
        rows.append(row)
    values = np.array(rows, dtype=np.float64).reshape(len(ids), header.dim)
    return EmbeddingBank(header.modality, tuple(ids), values)


def _encode_binary(bank: EmbeddingBank) -> bytes:
    buf = bytearray()
    buf += BINARY_MAGIC
    buf += struct.pack("<BB", BINARY_VERSION, MODALITIES.index(bank.modality))
    buf += struct.pack("<IQ", bank.dim, bank.n)
    buf += float32_bytes(bank.values, lambda r, c: (
        f"row {r}, dim {c}: value {float(bank.values[r, c])!r} is outside float32 range"
    ))
    for i, tid in enumerate(bank.task_ids):
        encoded = tid.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ParameterError(f"row {i}: task_id longer than 65535 UTF-8 bytes")
        buf += struct.pack("<H", len(encoded))
        buf += encoded
    return bytes(buf)


def _decode_binary(raw: bytes, name: str) -> EmbeddingBank:
    def need(offset: int, count: int, what: str) -> None:
        if offset + count > len(raw):
            raise FormatError(f"{name}: truncated at offset {offset}: expected {what}")

    need(4, 2, "version and modality bytes")
    version, modality_code = struct.unpack_from("<BB", raw, 4)
    if version != BINARY_VERSION:
        raise FormatError(f"{name}: offset 4: unsupported version {version}")
    if modality_code >= len(MODALITIES):
        raise FormatError(f"{name}: offset 5: bad modality code {modality_code}")
    need(6, 12, "dim and count")
    dim, count = struct.unpack_from("<IQ", raw, 6)
    if dim < 1:
        raise FormatError(f"{name}: offset 6: dim must be >= 1, got {dim}")
    offset = 18
    n_floats = dim * count
    need(offset, 4 * n_floats, f"{n_floats} float32 values")
    values = float32_values(raw, offset, (count, dim), lambda r, c: f"{name}: row {r}: non-finite value")
    offset += 4 * n_floats
    ids = []
    for i in range(count):
        need(offset, 2, f"length prefix of task_id {i}")
        (length,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        need(offset, length, f"task_id {i} ({length} bytes)")
        try:
            tid = raw[offset : offset + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{name}: task_id {i}: invalid UTF-8 ({exc})") from exc
        if not tid:
            raise FormatError(f"{name}: task_id {i}: empty string")
        ids.append(tid)
        offset += length
    if offset != len(raw):
        raise FormatError(f"{name}: {len(raw) - offset} trailing bytes at offset {offset}")
    return EmbeddingBank(MODALITIES[modality_code], tuple(ids), values)
