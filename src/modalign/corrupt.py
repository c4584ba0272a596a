"""Latent-space augmentation of embeddings.

Cosine noise resamples an embedding at a random cosine similarity
s ~ U[alpha, 1] from its original direction, guaranteeing the output
stays inside the alpha-cone and on the unit sphere. Gaussian noise is
the baseline: additive iid noise with no such guarantee.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .banks import EmbeddingBank, as_vector
from .errors import (
    DegenerateVectorError,
    DimensionError,
    ParallelVectorError,
    ParameterError,
)


class NoiseKind(Enum):
    COSINE = "cosine"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class CorruptConfig:
    """Noise kind plus its strength parameter and the stream seed."""

    kind: NoiseKind
    alpha: float = 0.2
    std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, NoiseKind):
            raise ParameterError(f"kind must be a NoiseKind, got {self.kind!r}")
        if self.kind is NoiseKind.COSINE:
            if not (-1.0 < self.alpha <= 1.0):
                raise ParameterError(f"alpha must be in (-1, 1], got {self.alpha}")
        elif not (self.std >= 0.0 and math.isfinite(self.std)):
            raise ParameterError(f"std must be a finite non-negative number, got {self.std}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")


def orthogonal_component(v, phi) -> np.ndarray:
    """The part of v orthogonal to phi: v - (v.phi / phi.phi) phi.

    Raises ParallelVectorError when nothing is left, in which case the
    caller is expected to resample v.
    """
    v = np.asarray(v, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if v.shape != phi.shape:
        raise DimensionError(f"shape mismatch: {v.shape} vs {phi.shape}")
    denom = float(np.dot(phi, phi))
    if denom == 0.0:
        raise DegenerateVectorError("reference vector is zero")
    out = v - (np.dot(v, phi) / denom) * phi
    if float(np.linalg.norm(out)) <= 1e-12 * float(np.linalg.norm(v)):
        raise ParallelVectorError("vector is parallel to the reference")
    return out


def cosine_noise(v, cfg: CorruptConfig, rng: np.random.Generator) -> np.ndarray:
    """Resample vector v at a random cosine similarity s ~ U[alpha, 1].

    The output is unit length and satisfies
    cosine_similarity(output, v) == s within 1e-9 by construction.
    """
    if cfg.kind is not NoiseKind.COSINE:
        raise ParameterError(f"config kind is {cfg.kind.value}, expected cosine")
    values = as_vector(v)
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        raise DegenerateVectorError("cannot corrupt a zero vector")
    if values.size < 2:
        raise ParameterError("cosine noise needs dim >= 2 for an orthogonal direction")
    s = float(rng.uniform(cfg.alpha, 1.0))
    unit = values / norm
    while True:
        candidate = rng.standard_normal(values.size)
        try:
            perp = orthogonal_component(candidate, values)
            break
        except ParallelVectorError:
            continue  # probability ~0 for a Gaussian draw in dim >= 2
    perp /= np.linalg.norm(perp)
    return s * unit + np.sqrt(max(1.0 - s * s, 0.0)) * perp


def gaussian_noise(v, cfg: CorruptConfig, rng: np.random.Generator) -> np.ndarray:
    """Add iid zero-mean Gaussian noise of standard deviation cfg.std to vector v."""
    if cfg.kind is not NoiseKind.GAUSSIAN:
        raise ParameterError(f"config kind is {cfg.kind.value}, expected gaussian")
    values = as_vector(v)
    return values + rng.normal(0.0, cfg.std, size=values.size)


def _row_stream(seed: int, task_id: str, row: np.ndarray) -> np.random.Generator:
    # Substream keyed by row content, not position, so corruption commutes
    # with row permutation and parallel evaluation matches sequential.
    digest = hashlib.blake2b(digest_size=8)
    digest.update(task_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(row).tobytes())
    key = int.from_bytes(digest.digest(), "little")
    return np.random.default_rng([seed, key])


def corrupt_bank(bank: EmbeddingBank, cfg: CorruptConfig) -> EmbeddingBank:
    """Corrupt every row with an independent substream derived from
    (cfg.seed, row content); deterministic and order-independent."""
    noise = cosine_noise if cfg.kind is NoiseKind.COSINE else gaussian_noise
    out = np.empty_like(bank.values)
    for i, (tid, row) in enumerate(bank.rows()):
        out[i] = noise(row, cfg, _row_stream(cfg.seed, tid, row))
    return bank.with_values(out)
