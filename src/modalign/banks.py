"""Vector helpers, task-labelled embedding banks, and bank file I/O.

Scalars are float64 in memory. The binary bank format stores float32
(matching common embedding dumps), so a save is lossy for values that
need more than 24 mantissa bits; loading is exact, and save/load of
float32-representable banks round-trips bit-identically.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DegenerateVectorError,
    DimensionError,
    FormatError,
    ParameterError,
)
from .fileio import float32_bytes, float32_values, json_int, read_bytes, read_json, write_atomic

BINARY_MAGIC = b"EBNK"
BINARY_VERSION = 1
JSONL_VERSION = 1
_NUMBER_TYPES = {int, float}


class Modality(Enum):
    VISUAL = "visual"
    TEXT = "text"


class BankFormat(Enum):
    JSON_LINES = "jsonl"
    BINARY = "binary"


def as_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"expected a non-empty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ParameterError("vector entries must be finite")
    return v


@dataclass(frozen=True)
class EmbeddingBank:
    """N same-dimension embeddings of one modality, each labelled by a task id.

    Task ids need not be unique (several goals may share a task) but must
    be non-empty strings.
    """

    modality: Modality
    dim: int
    task_ids: tuple[str, ...]
    values: np.ndarray  # (N, dim)

    def __post_init__(self):
        if not isinstance(self.modality, Modality):
            raise ParameterError(f"modality must be a Modality, got {self.modality!r}")
        if int(self.dim) < 1:
            raise DimensionError(f"bank dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        ids = tuple(self.task_ids)
        for i, tid in enumerate(ids):
            if not isinstance(tid, str) or not tid:
                raise ParameterError(f"row {i}: task_id must be a non-empty string")
        object.__setattr__(self, "task_ids", ids)
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape != (len(ids), self.dim):
            raise DimensionError(
                f"values shape {vals.shape} does not match {len(ids)} rows of dim {self.dim}"
            )
        if not np.all(np.isfinite(vals)):
            raise ParameterError("bank entries must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_rows(
        cls,
        modality: Modality,
        rows: Iterable[tuple[str, Iterable[float]]],
        dim: int | None = None,
    ) -> "EmbeddingBank":
        rows = list(rows)
        ids = []
        vecs = []
        for i, (tid, vec) in enumerate(rows):
            v = np.asarray(vec, dtype=np.float64)
            if v.ndim != 1:
                raise DimensionError(f"row {i}: expected a 1-d vector, got shape {v.shape}")
            if dim is None:
                dim = int(v.size)
            if v.size != dim:
                raise DimensionError(f"row {i}: expected {dim} values, got {v.size}")
            ids.append(tid)
            vecs.append(v)
        if dim is None:
            raise ParameterError("dim is required for an empty bank")
        values = np.array(vecs, dtype=np.float64).reshape(len(ids), dim)
        return cls(modality, dim, tuple(ids), values)

    @property
    def n(self) -> int:
        return len(self.task_ids)

    def rows(self) -> Iterator[tuple[str, np.ndarray]]:
        for tid, row in zip(self.task_ids, self.values):
            yield tid, row

    def task_set(self) -> set[str]:
        return set(self.task_ids)

    def with_values(self, values: np.ndarray, dim: int | None = None) -> "EmbeddingBank":
        """Same task ids and modality over a replacement value matrix."""
        values = np.asarray(values, dtype=np.float64)
        if dim is None:
            dim = int(values.shape[1]) if values.ndim == 2 else self.dim
        return EmbeddingBank(self.modality, dim, self.task_ids, values)


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    Evaluation order is symmetric, so cosine_similarity(a, b) ==
    cosine_similarity(b, a) exactly.
    """
    u = as_vector(a)
    w = as_vector(b)
    if u.size != w.size:
        raise DimensionError(f"dimension mismatch: {u.size} vs {w.size}")
    nu = float(np.linalg.norm(u))
    nw = float(np.linalg.norm(w))
    if nu == 0.0 or nw == 0.0:
        raise DegenerateVectorError("cosine similarity of a zero vector is undefined")
    return float(np.dot(u, w) / (nu * nw))


def normalize(v) -> np.ndarray:
    """Scale a vector to unit length, preserving direction."""
    u = as_vector(v)
    n = float(np.linalg.norm(u))
    if n == 0.0:
        raise DegenerateVectorError("cannot normalize a zero vector")
    return u / n


def unit_rows(matrix: np.ndarray, what: str = "row", floor: float = 0.0) -> np.ndarray:
    """Scale every row of a matrix to unit length; a row whose norm is at
    most floor has no direction and raises DegenerateVectorError."""
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms <= floor)
    if zero.size:
        raise DegenerateVectorError(f"{what} {int(zero[0])} is a zero vector")
    return matrix / norms[:, None]


# ---------------------------------------------------------------------------
# File formats.
#
# JSON lines: a header object
#   {"format":"ebank","version":1,"modality":"visual"|"text","dim":D}
# followed by one {"task_id": str, "v": [D numbers]} object per row.
#
# Binary: magic "EBNK", u8 version=1, u8 modality (0=visual, 1=text),
# u32 LE dim, u64 LE count, count*dim LE float32 row-major, then each
# task_id as u16 LE byte length + UTF-8 bytes.
# ---------------------------------------------------------------------------

_MODALITY_CODE = {Modality.VISUAL: 0, Modality.TEXT: 1}
_CODE_MODALITY = {v: k for k, v in _MODALITY_CODE.items()}


def save_bank(bank: EmbeddingBank, path, format: BankFormat) -> None:
    """Write a bank to disk; deterministic (same bank -> same bytes)."""
    if format is BankFormat.JSON_LINES:
        payload = _encode_jsonl(bank)
    elif format is BankFormat.BINARY:
        payload = _encode_binary(bank)
    else:
        raise ParameterError(f"unknown bank format {format!r}")
    write_atomic(path, payload)


def load_bank(path, format: BankFormat | None = None) -> EmbeddingBank:
    """Read a bank from disk; format is sniffed from the file when omitted."""
    raw = read_bytes(path)
    if format is None:
        format = BankFormat.BINARY if raw[:4] == BINARY_MAGIC else BankFormat.JSON_LINES
    if format is BankFormat.JSON_LINES:
        return _decode_jsonl(raw, str(path))
    if format is BankFormat.BINARY:
        return _decode_binary(raw, str(path))
    raise ParameterError(f"unknown bank format {format!r}")


def _encode_jsonl(bank: EmbeddingBank) -> bytes:
    header = {
        "format": "ebank",
        "version": JSONL_VERSION,
        "modality": bank.modality.value,
        "dim": bank.dim,
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for tid, row in bank.rows():
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
    header = read_json(lines[0], f"{name}: line 1")
    if not isinstance(header, dict):
        raise FormatError(f"{name}: line 1: header must be a JSON object")
    expected_keys = {"format", "version", "modality", "dim"}
    if set(header) != expected_keys:
        raise FormatError(
            f"{name}: line 1: header keys {sorted(header)} != {sorted(expected_keys)}"
        )
    if header["format"] != "ebank":
        raise FormatError(f"{name}: line 1: format is {header['format']!r}, expected 'ebank'")
    if json_int(header["version"], f"{name}: line 1: version") != JSONL_VERSION:
        raise FormatError(f"{name}: line 1: unsupported version {header['version']!r}")
    if header["modality"] not in ("visual", "text"):
        raise FormatError(f"{name}: line 1: bad modality {header['modality']!r}")
    dim = json_int(header["dim"], f"{name}: line 1: dim")
    if dim < 1:
        raise FormatError(f"{name}: line 1: dim must be a positive integer, got {dim!r}")
    modality = Modality(header["modality"])

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
        if len(vec) != dim:
            raise DimensionError(
                f"{name}: row {row_idx} (line {lineno}): expected {dim} values, got {len(vec)}"
            )
        try:
            row = np.array(vec, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            row = None
        if row is None or not np.isfinite(row).all():
            raise FormatError(f"{name}: line {lineno}: non-finite value")
        ids.append(tid)
        rows.append(row)
    values = np.array(rows, dtype=np.float64).reshape(len(ids), dim)
    return EmbeddingBank(modality, dim, tuple(ids), values)


def _encode_binary(bank: EmbeddingBank) -> bytes:
    def outside(i: int) -> str:
        r, c = divmod(i, bank.dim)
        return f"row {r}, dim {c}: value {float(bank.values[r, c])!r} is outside float32 range"

    floats = float32_bytes(bank.values, outside)
    buf = bytearray()
    buf += BINARY_MAGIC
    buf += struct.pack("<BB", BINARY_VERSION, _MODALITY_CODE[bank.modality])
    buf += struct.pack("<IQ", bank.dim, bank.n)
    buf += floats
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

    need(0, 4, "magic")
    if raw[:4] != BINARY_MAGIC:
        raise FormatError(f"{name}: offset 0: bad magic {raw[:4]!r}, expected {BINARY_MAGIC!r}")
    need(4, 2, "version and modality bytes")
    version, modality_code = struct.unpack_from("<BB", raw, 4)
    if version != BINARY_VERSION:
        raise FormatError(f"{name}: offset 4: unsupported version {version}")
    if modality_code not in _CODE_MODALITY:
        raise FormatError(f"{name}: offset 5: bad modality code {modality_code}")
    need(6, 12, "dim and count")
    dim, count = struct.unpack_from("<IQ", raw, 6)
    if dim < 1:
        raise FormatError(f"{name}: offset 6: dim must be >= 1, got {dim}")
    offset = 18
    n_floats = dim * count
    need(offset, 4 * n_floats, f"{n_floats} float32 values")
    values = float32_values(
        raw, offset, n_floats, lambda i: f"{name}: row {i // dim}: non-finite value"
    ).reshape(count, dim)
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
    return EmbeddingBank(_CODE_MODALITY[modality_code], dim, tuple(ids), values)
