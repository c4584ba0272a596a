"""Contrastive training of a toy visual/text encoder pair.

Each training example pairs a start and an end frame from a clip with an
instruction for the clip's task. The visual goal representation is the
difference between the encoded end and start frames; the loss scores
each instruction against every frame-difference in the batch via a
softmax over cosine similarities, pulling matched pairs together.

Gradients are computed analytically (hand-written backprop) and are
checked against central finite differences by finite_difference_check.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateVectorError,
    DimensionError,
    DivergenceError,
    FormatError,
    ParameterError,
)
from .fileio import float32_bytes, float32_values, json_number, read_bytes, read_json, write_atomic
from .nets import DenseParams, MomentumState, dense_backward, dense_forward, init_dense, zeros_like_dense

PARAMS_MAGIC = b"EPRM"
PARAMS_VERSION = 1


@dataclass(frozen=True)
class Clip:
    """A sequence of observations plus candidate instructions for its task."""

    observations: np.ndarray  # (T, obs_dim), T >= 2
    templates: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[0] < 2:
            raise ParameterError(f"a clip needs at least 2 observations, got shape {obs.shape}")
        object.__setattr__(self, "observations", obs)
        if not self.templates:
            raise ParameterError("a clip needs at least one instruction template")
        for tpl in self.templates:
            if len(tpl) == 0:
                raise ParameterError("instruction templates must be non-empty")


class TokenRows(NamedTuple):
    """Token sequences as padded index rows for one vocabulary: row i holds
    sequence i, then pads equal to `vocab`, which select the zero row that
    `pool` appends to the token table."""

    padded: np.ndarray  # (N, L) intp
    lengths: np.ndarray  # (N,) intp, every entry >= 1
    vocab: int

    def pool(self, table: np.ndarray) -> np.ndarray:
        """Mean token vector per row. The row sum adds the tokens in order and
        then exact zeros, so it is bit-identical to table[seq].mean(axis=0)."""
        ext = np.concatenate([table, np.zeros((1, table.shape[1]))])
        return ext[self.padded].sum(axis=1) / self.lengths[:, None]


def compile_tokens(token_seqs: Sequence[Sequence[int]], vocab: int) -> TokenRows:
    """Validate token sequences against a vocabulary and pad them into rows."""
    padded = np.full((len(token_seqs), max(map(len, token_seqs), default=0)), vocab, dtype=np.intp)
    for i, seq in enumerate(token_seqs):
        if len(seq) == 0:
            raise ParameterError(f"row {i}: empty token sequence")
        if min(seq) < 0 or max(seq) >= vocab:
            raise DimensionError(f"row {i}: token index out of range for vocab {vocab}")
        padded[i, : len(seq)] = seq
    return TokenRows(padded, np.array([len(seq) for seq in token_seqs], dtype=np.intp), vocab)


@dataclass(frozen=True)
class PairBatch:
    """B rows of (start frame, end frame, instruction tokens); `compiled`
    may carry the tokens as rows already, as the training sampler does."""

    o_start: np.ndarray  # (B, obs_dim)
    o_end: np.ndarray  # (B, obs_dim)
    tokens: tuple[tuple[int, ...], ...]
    compiled: TokenRows | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        start = np.asarray(self.o_start, dtype=np.float64)
        end = np.asarray(self.o_end, dtype=np.float64)
        if start.ndim != 2 or start.shape != end.shape:
            raise DimensionError(f"frame arrays disagree: {start.shape} vs {end.shape}")
        if start.shape[0] != len(self.tokens):
            raise DimensionError(
                f"{start.shape[0]} frame rows but {len(self.tokens)} instruction rows"
            )
        if start.shape[0] < 1:
            raise ParameterError("a batch needs at least one row")
        for seq in self.tokens:
            if len(seq) == 0:
                raise ParameterError("instruction token sequences must be non-empty")
        object.__setattr__(self, "o_start", start)
        object.__setattr__(self, "o_end", end)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def token_rows(self, vocab: int) -> TokenRows:
        if self.compiled is not None and self.compiled.vocab == vocab:
            return self.compiled
        return compile_tokens(self.tokens, vocab)


@dataclass(frozen=True)
class TrainerConfig:
    obs_dim: int
    vocab_size: int
    dim: int = 16
    visual_hidden: tuple[int, ...] = (64,)
    text_hidden: tuple[int, ...] = (64,)
    token_dim: int = 32
    temperature: float = 1.0
    steps: int = 2000
    batch_size: int = 32
    learning_rate: float = 0.3
    momentum: float = 0.9
    seed: int = 0
    freeze_text_after: int | None = None

    def __post_init__(self):
        for name in ("obs_dim", "vocab_size", "dim", "token_dim"):
            if int(getattr(self, name)) < 1:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.temperature <= 0.0:
            raise ParameterError(f"temperature must be positive, got {self.temperature}")
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if self.steps > 0 and self.batch_size < 2:
            raise ParameterError(f"batch_size must be >= 2 for contrastive training, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.freeze_text_after is not None and self.freeze_text_after < 0:
            raise ParameterError("freeze_text_after must be >= 0 or None")
        object.__setattr__(self, "visual_hidden", tuple(int(h) for h in self.visual_hidden))
        object.__setattr__(self, "text_hidden", tuple(int(h) for h in self.text_hidden))


@dataclass
class EncoderParams:
    """Weights of the visual and text encoders.

    The text encoder embeds tokens via a learned lookup table, mean-pools
    them, and passes the result through its dense layers.
    """

    visual: DenseParams
    text: DenseParams
    token_table: np.ndarray  # (vocab, token_dim)
    temperature: float = 1.0

    @property
    def dim(self) -> int:
        return self.visual.weights[-1].shape[0]

    @property
    def obs_dim(self) -> int:
        return self.visual.weights[0].shape[1]

    @property
    def vocab_size(self) -> int:
        return self.token_table.shape[0]

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.visual.copy(), self.text.copy(), self.token_table.copy(), self.temperature
        )

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays in declaration order (visual, text, table)."""
        return self.visual.arrays() + self.text.arrays() + [self.token_table]


@dataclass
class EncoderGrads:
    visual: DenseParams
    text: DenseParams
    token_table: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return self.visual.arrays() + self.text.arrays() + [self.token_table]


def init_encoder_params(config: TrainerConfig, rng: np.random.Generator) -> EncoderParams:
    visual = init_dense([config.obs_dim, *config.visual_hidden, config.dim], rng)
    text = init_dense([config.token_dim, *config.text_hidden, config.dim], rng)
    bound = 1.0 / np.sqrt(config.token_dim)
    table = rng.uniform(-bound, bound, size=(config.vocab_size, config.token_dim))
    return EncoderParams(visual, text, table, config.temperature)


def visual_forward(params: EncoderParams, observations: np.ndarray) -> np.ndarray:
    """Encode a batch of observation vectors; (B, obs_dim) -> (B, D)."""
    out, _ = dense_forward(params.visual, np.atleast_2d(np.asarray(observations, dtype=np.float64)))
    return out


def text_forward(params: EncoderParams, token_seqs: Sequence[Sequence[int]]) -> np.ndarray:
    """Encode a batch of token sequences; -> (B, D)."""
    rows = compile_tokens(token_seqs, params.vocab_size)
    out, _ = dense_forward(params.text, rows.pool(params.token_table))
    return out


def frame_differences(params: EncoderParams, starts, ends) -> np.ndarray:
    """Visual goal representations encode(end) - encode(start), row by row,
    from one visual_forward over the stacked frames; -> (B, D)."""
    starts, ends = np.atleast_2d(starts), np.atleast_2d(ends)
    if starts.shape != ends.shape:
        raise DimensionError(f"frame arrays disagree: {starts.shape} vs {ends.shape}")
    encoded = visual_forward(params, np.concatenate([starts, ends]))
    return encoded[len(starts) :] - encoded[: len(starts)]


def _loss_internals(params: EncoderParams, batch: PairBatch):
    _, cache_start = dense_forward(params.visual, batch.o_start)
    _, cache_end = dense_forward(params.visual, batch.o_end)
    # The output-layer bias cancels in the frame difference; computing the
    # difference before the last matmul keeps that cancellation exact.
    last = params.visual.n_layers - 1
    hidden_diff = cache_end[last] - cache_start[last]
    diff = hidden_diff @ params.visual.weights[last].T  # (B, D)
    rows = batch.token_rows(params.vocab_size)
    text, cache_text = dense_forward(params.text, rows.pool(params.token_table))

    norm_f = np.linalg.norm(diff, axis=1)
    norm_t = np.linalg.norm(text, axis=1)
    if np.any(norm_f == 0.0):
        raise DegenerateVectorError(
            f"frame-difference embedding {int(np.flatnonzero(norm_f == 0.0)[0])} is zero"
        )
    if np.any(norm_t == 0.0):
        raise DegenerateVectorError(
            f"text embedding {int(np.flatnonzero(norm_t == 0.0)[0])} is zero"
        )
    fn = diff / norm_f[:, None]
    tn = text / norm_t[:, None]
    sims = fn @ tn.T  # sims[j, i] = cos(frame-diff j, text i)
    logits = sims / params.temperature
    colmax = logits.max(axis=0)
    exp = np.exp(logits - colmax)
    denom = exp.sum(axis=0)
    lse = colmax + np.log(denom)
    loss = float(np.mean(lse - np.diag(logits)))
    return {
        "loss": loss,
        "softmax": exp / denom,
        "fn": fn,
        "tn": tn,
        "norm_f": norm_f,
        "norm_t": norm_t,
        "hidden_diff": hidden_diff,
        "cache_start": cache_start,
        "cache_end": cache_end,
        "cache_text": cache_text,
        "rows": rows,
    }


def infonce_loss(params: EncoderParams, batch: PairBatch) -> float:
    """Mean over instructions of -log softmax(cos / temperature) mass on
    the matched frame-difference; exactly 0 at batch size 1."""
    return _loss_internals(params, batch)["loss"]


def _gradient_from_internals(params: EncoderParams, batch: PairBatch, state) -> EncoderGrads:
    b = batch.size
    p = state["softmax"]
    dlogits = (p - np.eye(b)) / b
    dsims = dlogits / params.temperature

    fn, tn = state["fn"], state["tn"]
    g_fn = dsims @ tn  # (B, D), gradient on the normalized frame-diffs
    g_tn = dsims.T @ fn
    # through x -> x / ||x||
    ddiff = (g_fn - (np.sum(g_fn * fn, axis=1, keepdims=True)) * fn) / state["norm_f"][:, None]
    dtext = (g_tn - (np.sum(g_tn * tn, axis=1, keepdims=True)) * tn) / state["norm_t"][:, None]

    visual = zeros_like_dense(params.visual)
    last = params.visual.n_layers - 1
    visual.weights[last] = ddiff.T @ state["hidden_diff"]
    # output bias cancelled in the difference, so its gradient stays zero
    if last > 0:
        g = ddiff @ params.visual.weights[last]
        sub = DenseParams(params.visual.weights[:last], params.visual.biases[:last])
        h_end, h_start = state["cache_end"][last], state["cache_start"][last]
        grads_end, _ = dense_backward(sub, state["cache_end"][: last + 1], g * (1.0 - h_end**2))
        grads_start, _ = dense_backward(
            sub, state["cache_start"][: last + 1], -g * (1.0 - h_start**2)
        )
        for l in range(last):
            visual.weights[l] = grads_end.weights[l] + grads_start.weights[l]
            visual.biases[l] = grads_end.biases[l] + grads_start.biases[l]

    text_grads, dpooled = dense_backward(params.text, state["cache_text"], dtext)
    # One ordered scatter into the flattened table adds every token's share
    # in the order a per-token loop would; pads land in the dropped last row.
    rows, width = state["rows"], params.token_table.shape[1]
    share = np.repeat(dpooled / rows.lengths[:, None], rows.padded.shape[1], axis=0)
    cells = rows.padded.reshape(-1, 1) * width + np.arange(width)
    table = np.zeros((rows.vocab + 1) * width)
    np.add.at(table, cells.ravel(), share.ravel())
    return EncoderGrads(visual, text_grads, table.reshape(-1, width)[: rows.vocab])


def infonce_gradient(params: EncoderParams, batch: PairBatch) -> EncoderGrads:
    """Analytic gradient of infonce_loss with respect to every parameter."""
    return _gradient_from_internals(params, batch, _loss_internals(params, batch))


def infonce_loss_and_gradient(params: EncoderParams, batch: PairBatch) -> tuple[float, EncoderGrads]:
    state = _loss_internals(params, batch)
    return state["loss"], _gradient_from_internals(params, batch, state)


def finite_difference_check(params: EncoderParams, batch: PairBatch, epsilon: float = 1e-5) -> float:
    """Max relative error between the analytic gradient and central finite
    differences, parameter by parameter."""
    if epsilon <= 0.0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    work = params.copy()
    analytic = infonce_gradient(work, batch)
    worst = 0.0
    for arr, grad in zip(work.arrays(), analytic.arrays()):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            plus = infonce_loss(work, batch)
            flat[i] = saved - epsilon
            minus = infonce_loss(work, batch)
            flat[i] = saved
            numeric = (plus - minus) / (2.0 * epsilon)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


@dataclass
class TrainResult:
    params: EncoderParams
    loss_trace: list[float] = field(default_factory=list)


class _CompiledClips:
    """Clips compiled once for sampling: every observation in one array, every
    template in one list and as token rows, and per clip its first frame row,
    horizon, first template row and template count."""

    def __init__(self, clips: Sequence[Clip], vocab: int):
        self.observations = np.concatenate([clip.observations for clip in clips])
        self.templates = [tpl for clip in clips for tpl in clip.templates]
        self.rows = compile_tokens(self.templates, vocab)
        frame, first, self.spans = 0, 0, []
        for clip in clips:
            self.spans.append((frame, len(clip.observations), first, len(clip.templates)))
            frame, first = frame + len(clip.observations), first + len(clip.templates)

    def sample(self, batch_size: int, rng: np.random.Generator) -> PairBatch:
        """Draw B rows: a random clip, a random start frame n, a random segment
        length m over the valid suffix, and a random template. Each row makes
        these four scalar draws in this order, so a seed fixes every batch."""
        draw, spans = rng.integers, self.spans
        starts, ends, picks = [], [], []
        for _ in range(batch_size):
            frame, horizon, first, count = spans[int(draw(len(spans)))]
            n = int(draw(0, horizon - 1))
            starts.append(frame + n)
            ends.append(frame + n + int(draw(1, horizon - n)))
            picks.append(first + int(draw(count)))
        rows = TokenRows(self.rows.padded[picks], self.rows.lengths[picks], self.rows.vocab)
        tokens = tuple(self.templates[p] for p in picks)
        return PairBatch(self.observations[starts], self.observations[ends], tokens, rows)


def sample_pair_batch(
    clips: Sequence[Clip], batch_size: int, rng: np.random.Generator
) -> PairBatch:
    """One training batch drawn from the clips, as train_encoders draws it."""
    vocab = 1 + max(max(tpl) for clip in clips for tpl in clip.templates)
    return _CompiledClips(clips, vocab).sample(batch_size, rng)


def train_encoders(clips: Sequence[Clip], config: TrainerConfig) -> TrainResult:
    """Minimize the contrastive objective with seeded SGD + momentum.

    Deterministic per seed; steps=0 returns the seeded initialization.
    """
    clips = list(clips)
    if not clips:
        raise ParameterError("training needs at least one clip")
    for i, clip in enumerate(clips):
        if clip.observations.shape[1] != config.obs_dim:
            raise DimensionError(
                f"clip {i} obs dim {clip.observations.shape[1]} != config {config.obs_dim}"
            )
    compiled = _CompiledClips(clips, config.vocab_size)
    rng = np.random.default_rng(config.seed)
    params = init_encoder_params(config, rng)
    arrays = params.arrays()
    optimizer = MomentumState(arrays, config.learning_rate, config.momentum)
    n_visual = len(params.visual.arrays())
    trace: list[float] = []
    for step in range(config.steps):
        batch = compiled.sample(config.batch_size, rng)
        loss, grads = infonce_loss_and_gradient(params, batch)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at step {step}")
        trace.append(loss)
        if config.freeze_text_after is not None and step >= config.freeze_text_after:
            mask = [i < n_visual for i in range(len(arrays))]
        else:
            mask = None
        optimizer.step(arrays, grads.arrays(), mask)
    return TrainResult(params, trace)


# ---------------------------------------------------------------------------
# Parameter file: magic "EPRM", u8 version, u32 LE metadata length, JSON
# metadata (shapes, temperature, free-form config echo), then every
# parameter array as LE float32 in declaration order.
# ---------------------------------------------------------------------------


def save_encoder_params(params: EncoderParams, path, extra_metadata: dict | None = None) -> None:
    meta = {
        "visual_sizes": params.visual.sizes,
        "text_sizes": params.text.sizes,
        "token_table_shape": list(params.token_table.shape),
        "temperature": params.temperature,
    }
    if extra_metadata:
        meta["config"] = extra_metadata
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = bytearray()
    buf += PARAMS_MAGIC
    buf += struct.pack("<B", PARAMS_VERSION)
    buf += struct.pack("<I", len(blob))
    buf += blob
    for k, arr in enumerate(params.arrays()):
        buf += float32_bytes(arr, lambda i: (
            f"parameter array {k}, entry {i}: value {float(arr.flat[i])!r} is outside float32 range"
        ))
    write_atomic(path, bytes(buf))


def load_encoder_params(path) -> EncoderParams:
    raw = read_bytes(path)
    if raw[:4] != PARAMS_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {PARAMS_MAGIC!r}")
    if len(raw) < 9:
        raise FormatError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<B", raw, 4)
    if version != PARAMS_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (meta_len,) = struct.unpack_from("<I", raw, 5)
    if 9 + meta_len > len(raw):
        raise FormatError(f"{path}: truncated metadata block")
    meta = read_json(raw[9 : 9 + meta_len], f"{path}: metadata")
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata must be a JSON object")
    for key in ("visual_sizes", "text_sizes", "token_table_shape", "temperature"):
        if key not in meta:
            raise FormatError(f"{path}: metadata is missing {key!r}")
    temperature = json_number(meta["temperature"], f"{path}: temperature")

    offset = 9 + meta_len

    def take(shape) -> np.ndarray:
        nonlocal offset
        count = math.prod(shape)
        if offset + 4 * count > len(raw):
            raise FormatError(f"{path}: truncated payload at offset {offset}")
        arr = float32_values(
            raw, offset, count, lambda i: f"{path}: non-finite parameter at offset {offset + 4 * i}"
        )
        offset += 4 * count
        return arr.reshape(shape)

    for key in ("visual_sizes", "text_sizes", "token_table_shape"):
        sizes = meta[key]
        if not isinstance(sizes, list) or len(sizes) < 2 or not all(type(s) is int and s > 0 for s in sizes):
            raise FormatError(f"{path}: {key} {sizes!r} must be a list of two or more positive integers")
    # Declaration order interleaves each layer's weight and bias.
    visual = _take_interleaved(take, meta["visual_sizes"])
    text = _take_interleaved(take, meta["text_sizes"])
    table = take(tuple(meta["token_table_shape"]))
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return EncoderParams(visual, text, table, temperature)


def _take_interleaved(take, sizes) -> DenseParams:
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(take((fan_out, fan_in)))
        biases.append(take((fan_out,)))
    return DenseParams(weights, biases)
