"""Latent-space augmentation of embeddings.

Cosine noise resamples an embedding at a random cosine similarity
s ~ U[alpha, 1] from its original direction, guaranteeing the output
stays inside the alpha-cone and on the unit sphere. Gaussian noise is
the baseline: additive iid noise with no such guarantee.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .banks import EmbeddingBank, row_norms
from .errors import (
    COSINE_FLOOR, NON_NEGATIVE, DegenerateVectorError, ParameterError, check_fields, one_of, refuse_first,
)


NOISE_KINDS = ("cosine", "gaussian")


@dataclass(frozen=True)
class CorruptConfig:
    """Noise kind plus its strength parameters and the stream seed; cosine
    noise reads alpha and Gaussian noise std, and both are always checked."""

    kind: str = field(metadata=one_of(*NOISE_KINDS))
    alpha: float = field(default=0.2, metadata=COSINE_FLOOR)
    std: float = field(default=0.0, metadata=NON_NEGATIVE)
    seed: int = field(default=0, metadata=NON_NEGATIVE)

    __post_init__ = check_fields


def _row_stream(seed: int, task_id: str, row: np.ndarray) -> np.random.Generator:
    # Substream keyed by row content, not position, so corruption commutes
    # with row permutation and parallel evaluation matches sequential.
    digest = hashlib.blake2b(digest_size=8)
    digest.update(task_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(row).tobytes())
    key = int.from_bytes(digest.digest(), "little")
    return np.random.default_rng([seed, key])


def _perpendicular(draws: np.ndarray, rows: np.ndarray, sq_norms: np.ndarray):
    """Each draw minus its projection on its row, and whether nothing was left
    (the draw was parallel to its row and must be drawn again)."""
    perp = draws - (np.vecdot(draws, rows) / sq_norms)[:, None] * rows
    return perp, row_norms(perp) <= 1e-12 * row_norms(draws)


def corrupt_bank(bank: EmbeddingBank, cfg: CorruptConfig) -> EmbeddingBank:
    """Corrupt every row with an independent substream derived from
    (cfg.seed, task id, row content); deterministic and order-independent.

    Each row's draws come from its own stream, in a fixed order; the
    arithmetic on them runs over the whole bank at once."""
    values = bank.values
    streams = [_row_stream(cfg.seed, tid, row) for tid, row in zip(bank.task_ids, values)]
    if cfg.kind == "gaussian":
        noise = np.empty_like(values)
        for i, rng in enumerate(streams):
            noise[i] = rng.normal(0.0, cfg.std, size=bank.dim)
        with np.errstate(over="ignore"):  # EmbeddingBank refuses an overflowed sum
            return bank.with_values(values + noise)
    with np.errstate(over="ignore"):  # an overflowed norm is reported below
        sq_norms = np.vecdot(values, values)
    refuse_first(sq_norms == 0.0, DegenerateVectorError, lambda i: f"cannot corrupt row {i}: it is a zero vector")
    refuse_first(
        ~np.isfinite(sq_norms), ParameterError, lambda i: f"cannot corrupt row {i}: its squared norm overflows float64"
    )
    if bank.n and bank.dim < 2:  # an empty bank passes at any dim
        raise ParameterError("cosine noise needs dim >= 2 for an orthogonal direction")
    s = np.empty(bank.n)
    draws = np.empty_like(values)
    for i, rng in enumerate(streams):
        s[i] = rng.uniform(cfg.alpha, 1.0)
        draws[i] = rng.standard_normal(bank.dim)
    perp, parallel = _perpendicular(draws, values, sq_norms)
    redraw = np.flatnonzero(parallel)  # probability ~0 for a Gaussian draw in dim >= 2
    while redraw.size:
        for i in redraw:
            draws[i] = streams[i].standard_normal(bank.dim)
        perp[redraw], parallel = _perpendicular(draws[redraw], values[redraw], sq_norms[redraw])
        redraw = redraw[parallel]
    unit = values / np.sqrt(sq_norms)[:, None]
    perp /= row_norms(perp)[:, None]
    cos, sin = s[:, None], np.sqrt(np.maximum(1.0 - s * s, 0.0))[:, None]
    return bank.with_values(cos * unit + sin * perp)
