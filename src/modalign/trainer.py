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
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    NON_NEGATIVE,
    POSITIVE,
    UNIT_INTERVAL,
    DegenerateVectorError,
    DimensionError,
    DivergenceError,
    FormatError,
    ParameterError,
    check_fields,
    from_json,
    is_integer,
    refuse_first,
)
from .fileio import float32_bytes, float32_values, read_bytes, read_json, write_atomic
from .nets import DenseParams, MomentumState, dense_backward, dense_count, dense_forward, init_dense

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

    def pool(self, table: np.ndarray, padded_table: np.ndarray | None = None) -> np.ndarray:
        """Mean token vector per row, from table copied into padded_table (vocab + 1
        rows, the last zero; a new one when None). The row sum adds the tokens in order
        and then exact zeros, so it is bit-identical to table[seq].mean(axis=0)."""
        ext = np.zeros((len(table) + 1, table.shape[1])) if padded_table is None else padded_table
        ext[:-1] = table
        return np.add.reduce(ext[self.padded], axis=1) / self.lengths[:, None]


def compile_tokens(token_seqs: Sequence[Sequence[int]], vocab: int) -> TokenRows:
    """Validate token sequences against a vocabulary and pad them into rows."""
    padded = np.full((len(token_seqs), max(map(len, token_seqs), default=0)), vocab, dtype=np.intp)
    for i, seq in enumerate(token_seqs):
        if len(seq) == 0:
            raise ParameterError(f"row {i}: empty token sequence")
        if not all(map(is_integer, seq)):
            raise ParameterError(f"row {i}: token ids must be integers, got {list(seq)!r}")
        if min(seq) < 0 or max(seq) >= vocab:
            raise DimensionError(f"row {i}: token index out of range for vocab {vocab}")
        padded[i, : len(seq)] = seq
    return TokenRows(padded, np.array([len(seq) for seq in token_seqs], dtype=np.intp), vocab)


@dataclass(frozen=True)
class PairBatch:
    """B rows of (start frame, end frame, instruction token rows); a
    hand-made batch takes its rows from compile_tokens(seqs, vocab)."""

    o_start: np.ndarray  # (B, obs_dim)
    o_end: np.ndarray  # (B, obs_dim)
    tokens: TokenRows

    def __post_init__(self):
        start = np.asarray(self.o_start, dtype=np.float64)
        end = np.asarray(self.o_end, dtype=np.float64)
        if start.ndim != 2 or start.shape != end.shape:
            raise DimensionError(f"frame arrays disagree: {start.shape} vs {end.shape}")
        if start.shape[0] != self.size:
            raise DimensionError(f"{start.shape[0]} frame rows but {self.size} instruction rows")
        if start.shape[0] < 1:
            raise ParameterError("a batch needs at least one row")
        object.__setattr__(self, "o_start", start)
        object.__setattr__(self, "o_end", end)

    @property
    def size(self) -> int:
        return len(self.tokens.lengths)


@dataclass(frozen=True)
class TrainerConfig:
    obs_dim: int = field(metadata=POSITIVE)
    vocab_size: int = field(metadata=POSITIVE)
    dim: int = field(default=16, metadata=POSITIVE)
    visual_hidden: tuple[int, ...] = field(default=(64,), metadata=POSITIVE)
    text_hidden: tuple[int, ...] = field(default=(64,), metadata=POSITIVE)
    token_dim: int = field(default=32, metadata=POSITIVE)
    temperature: float = field(default=1.0, metadata=POSITIVE)
    steps: int = field(default=2000, metadata=NON_NEGATIVE)
    batch_size: int = field(default=32, metadata=POSITIVE)
    learning_rate: float = field(default=0.3, metadata=POSITIVE)
    momentum: float = field(default=0.9, metadata=UNIT_INTERVAL)
    seed: int = field(default=0, metadata=NON_NEGATIVE)
    freeze_text_after: int | None = field(default=None, metadata=NON_NEGATIVE)

    def __post_init__(self):
        check_fields(self)
        if self.steps > 0 and self.batch_size < 2:
            raise ParameterError(f"batch_size must be >= 2 for contrastive training, got {self.batch_size}")


class EncoderParams:
    """Weights of the visual and text encoders: views into one flat buffer
    of the visual net, the text net, then the (vocab, token_dim) table.

    The text encoder embeds tokens via a learned lookup table, mean-pools
    them, and passes the result through its dense layers.
    """

    def __init__(self, visual_sizes, text_sizes, vocab: int, flat: np.ndarray, temperature: float = 1.0):
        n_visual, n_text = dense_count(visual_sizes), dense_count(text_sizes)
        self.flat = flat
        self.visual = DenseParams(visual_sizes, flat[:n_visual])
        self.text = DenseParams(text_sizes, flat[n_visual : n_visual + n_text])
        self.token_table = flat[n_visual + n_text :].reshape(vocab, text_sizes[0])
        self.temperature = temperature

    @property
    def vocab_size(self) -> int:
        return self.token_table.shape[0]

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.visual.sizes, self.text.sizes, self.vocab_size, self.flat.copy(), self.temperature
        )


def init_encoder_params(config: TrainerConfig, rng: np.random.Generator) -> EncoderParams:
    visual = init_dense([config.obs_dim, *config.visual_hidden, config.dim], rng)
    text = init_dense([config.token_dim, *config.text_hidden, config.dim], rng)
    bound = 1.0 / np.sqrt(config.token_dim)
    table = rng.uniform(-bound, bound, size=config.vocab_size * config.token_dim)
    flat = np.concatenate([visual.flat, text.flat, table])
    return EncoderParams(visual.sizes, text.sizes, config.vocab_size, flat, config.temperature)


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


class _StepBuffers:
    """What an encoder step writes into, built once per params: the gradient as
    EncoderParams (its visual output bias, which no step writes, stays zero),
    the visual hidden layers' view `sub` with their stacked (2, P_sub) start/end
    gradient, and the padded token table."""

    def __init__(self, params: EncoderParams):
        visual = params.visual
        self.grad = EncoderParams(visual.sizes, params.text.sizes, params.vocab_size, np.zeros_like(params.flat))
        self.sub = DenseParams(visual.sizes[:-1], visual.flat[: dense_count(visual.sizes[:-1])])
        self.stacked = DenseParams(self.sub.sizes, np.empty((2, self.sub.flat.size)))
        self.table = np.zeros((params.vocab_size + 1, params.token_table.shape[1]))


def _infonce(params: EncoderParams, frames: np.ndarray, rows: TokenRows, buffers: _StepBuffers | None = None):
    """The InfoNCE loss of (2, B, obs_dim) start/end frames against token rows
    and, given buffers, its gradient in buffers.grad: the one path behind
    infonce_loss, infonce_loss_and_gradient and train_encoders."""
    if rows.vocab != params.vocab_size:
        # a pad index of another vocabulary would select a real token row
        raise DimensionError(f"batch tokens are compiled for vocab {rows.vocab}, not {params.vocab_size}")
    # One pass of the stacked (start, end) frames through the hidden layers.
    # The output-layer bias cancels in the frame difference; computing the
    # difference before the last matmul keeps that cancellation exact.
    visual, last = params.visual, params.visual.n_layers - 1
    hidden, cache = dense_forward(visual, frames, hidden_only=True)
    hidden_diff = hidden[1] - hidden[0]
    diff = hidden_diff @ visual.weights[last].T  # (B, D)
    padded_table = None if buffers is None else buffers.table
    text, cache_text = dense_forward(params.text, rows.pool(params.token_table, padded_table))

    # np.linalg.norm and np.mean compute exactly these, behind Python-level
    # wrappers that cost more than the arithmetic at this size
    norm_f = np.sqrt(np.add.reduce(diff * diff, axis=1))
    norm_t = np.sqrt(np.add.reduce(text * text, axis=1))
    refuse_first(norm_f == 0.0, DegenerateVectorError, lambda i: f"frame-difference embedding {i} is zero")
    refuse_first(norm_t == 0.0, DegenerateVectorError, lambda i: f"text embedding {i} is zero")
    fn = diff / norm_f[:, None]
    tn = text / norm_t[:, None]
    sims = fn @ tn.T  # sims[j, i] = cos(frame-diff j, text i)
    logits = sims / params.temperature
    colmax = logits.max(axis=0)
    exp = np.exp(logits - colmax)
    denom = np.add.reduce(exp, axis=0)
    lse = colmax + np.log(denom)
    size = len(lse)
    loss = float(np.add.reduce(lse - logits.diagonal()) / size)
    if buffers is None:
        return loss

    dlogits = exp / denom  # the softmax, less one on the diagonal, over B
    dlogits.flat[:: size + 1] -= 1.0
    dlogits /= size
    dsims = dlogits / params.temperature
    g_fn = dsims @ tn  # (B, D), gradient on the normalized frame-diffs
    g_tn = dsims.T @ fn
    # through x -> x / ||x||
    ddiff = (g_fn - np.add.reduce(g_fn * fn, axis=1, keepdims=True) * fn) / norm_f[:, None]
    dtext = (g_tn - np.add.reduce(g_tn * tn, axis=1, keepdims=True) * tn) / norm_t[:, None]

    grad = buffers.grad
    if last > 0:
        # One backward of both frame sets through the hidden layers: the
        # start frames carry -g, and each gradient is end slice + start slice.
        g = ddiff @ visual.weights[last]
        grad_out = np.square(hidden, out=hidden)
        np.subtract(1.0, grad_out, out=grad_out)
        grad_out *= g
        np.negative(grad_out[0], out=grad_out[0])
        stacked, _ = dense_backward(buffers.sub, cache, grad_out, buffers.stacked)
        np.add(stacked[1], stacked[0], out=grad.flat[: stacked.shape[1]])
    # the output bias cancels in the difference, so its gradient stays zero
    np.matmul(ddiff.T, hidden_diff, out=grad.visual.weights[last])

    _, dz_text = dense_backward(params.text, cache_text, dtext, grad.text)
    dpooled = dz_text @ params.text.weights[0]
    # One weighted count over the flattened table adds every token's share
    # in the order a per-token loop would; pads land in the dropped last row.
    width = params.token_table.shape[1]
    share = (dpooled / rows.lengths[:, None]).repeat(rows.padded.shape[1], axis=0)
    cells = rows.padded.reshape(-1, 1) * width + np.arange(width)
    table = np.bincount(cells.ravel(), share.ravel(), (rows.vocab + 1) * width).reshape(-1, width)
    grad.token_table[:] = table[:-1]
    return loss, grad.flat


def infonce_loss(params: EncoderParams, batch: PairBatch) -> float:
    """Mean over instructions of -log softmax(cos / temperature) mass on
    the matched frame-difference; exactly 0 at batch size 1."""
    return _infonce(params, np.stack([batch.o_start, batch.o_end]), batch.tokens)


def infonce_loss_and_gradient(params: EncoderParams, batch: PairBatch) -> tuple[float, np.ndarray]:
    """infonce_loss and its analytic gradient, one flat array aligned with
    params.flat that the caller owns."""
    return _infonce(params, np.stack([batch.o_start, batch.o_end]), batch.tokens, _StepBuffers(params))


def finite_difference_check(params: EncoderParams, batch: PairBatch, epsilon: float = 1e-5) -> float:
    """Max relative error between the analytic gradient and central finite
    differences, parameter by parameter; inf when any entry of either is
    not finite."""
    if not 0.0 < epsilon < math.inf:
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    work = params.copy()
    _, analytic = infonce_loss_and_gradient(work, batch)
    flat, worst = work.flat, 0.0
    for i, grad in enumerate(analytic):
        saved = flat[i]
        flat[i] = saved + epsilon
        plus = infonce_loss(work, batch)
        flat[i] = saved - epsilon
        minus = infonce_loss(work, batch)
        flat[i] = saved
        numeric = (plus - minus) / (2.0 * epsilon)
        if not (math.isfinite(numeric) and math.isfinite(grad)):
            return math.inf
        denom = max(abs(grad), abs(numeric), 1e-8)
        worst = max(worst, abs(numeric - grad) / denom)
    return worst


@dataclass
class TrainResult:
    params: EncoderParams
    loss_trace: list[float] = field(default_factory=list)


# Rows drawn per chunk of training steps. A chunk takes four array
# rng.integers calls, so this size is part of the draw stream a seed fixes.
_CHUNK_ROWS = 256


class _CompiledClips:
    """Clips compiled once for sampling: every observation in one array, every
    template as token rows, and a (4, clips) table of each clip's first frame
    row, horizon, first template row and template count."""

    def __init__(self, clips: Sequence[Clip], vocab: int):
        self.observations = np.concatenate([clip.observations for clip in clips])
        self.rows = compile_tokens([tpl for clip in clips for tpl in clip.templates], vocab)
        sizes = np.array([[len(clip.observations), len(clip.templates)] for clip in clips], dtype=np.intp)
        firsts = np.cumsum(sizes, axis=0) - sizes
        self.spans = np.stack([firsts[:, 0], sizes[:, 0], firsts[:, 1], sizes[:, 1]])

    def batches(self, steps: int, batch_size: int, rng: np.random.Generator):
        """`steps` (frames, tokens) batches of B rows, frames (2, B, obs_dim) the
        start then end frames, views of one gather per chunk. Rows are drawn about
        _CHUNK_ROWS at a time by four rng.integers calls: every row's clip, then
        every start frame, every segment length over the valid suffix and every template."""
        per_chunk = max(1, _CHUNK_ROWS // batch_size)
        for done in range(0, steps, per_chunk):
            count = min(per_chunk, steps - done) * batch_size
            frame, horizon, first, templates = self.spans[:, rng.integers(0, self.spans.shape[1], count)]
            starts = frame + rng.integers(0, horizon - 1)
            ends = starts + rng.integers(1, frame + horizon - starts)
            picks = first + rng.integers(0, templates)
            frames = self.observations[np.stack([starts, ends])]
            padded, lengths = self.rows.padded[picks], self.rows.lengths[picks]
            for lo in range(0, count, batch_size):
                rows = slice(lo, lo + batch_size)
                yield frames[:, rows], TokenRows(padded[rows], lengths[rows], self.rows.vocab)


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
    optimizer = MomentumState(params.flat, config.learning_rate, config.momentum)
    buffers, trace = _StepBuffers(params), []
    for step, (frames, tokens) in enumerate(compiled.batches(config.steps, config.batch_size, rng)):
        loss, grad = _infonce(params, frames, tokens, buffers)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at step {step}")
        trace.append(loss)
        # Freezing steps only the visual prefix; the text tower and token
        # table keep their values and their velocities.
        if config.freeze_text_after is not None and step >= config.freeze_text_after:
            grad = grad[: params.visual.flat.size]
        optimizer.step(grad)
    return TrainResult(params, trace)


# ---------------------------------------------------------------------------
# Parameter file: magic "EPRM", u8 version, u32 LE metadata length, JSON
# metadata (shapes, temperature, free-form config echo), then every
# parameter buffer (EncoderParams.flat) as LE float32.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ParamsMetadata:
    """The JSON metadata of a parameter file; config echoes the training settings."""

    visual_sizes: tuple[int, ...] = field(metadata=POSITIVE)
    text_sizes: tuple[int, ...] = field(metadata=POSITIVE)
    token_table_shape: tuple[int, ...] = field(metadata=POSITIVE)
    temperature: float = field(metadata=POSITIVE)
    config: dict | None = None

    def __post_init__(self):
        check_fields(self)
        visual, text, table = self.visual_sizes, self.text_sizes, self.token_table_shape
        if len(visual) < 2 or len(text) < 2 or visual[-1] != text[-1]:
            raise ParameterError(
                f"visual_sizes {list(visual)} and text_sizes {list(text)} must each list two or more sizes "
                "and end in one dim"
            )
        if len(table) != 2 or table[1] != text[0]:
            raise ParameterError(f"token_table_shape {list(table)} must be [vocab, text_sizes[0] = {text[0]}]")


def save_encoder_params(params: EncoderParams, path, extra_metadata: dict | None = None) -> None:
    meta = _ParamsMetadata(
        params.visual.sizes, params.text.sizes, params.token_table.shape, params.temperature, extra_metadata or None
    )
    doc = {name: value for name, value in asdict(meta).items() if value is not None}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = float32_bytes(params.flat, lambda i: (
        f"parameter entry {i}: value {float(params.flat[i])!r} is outside float32 range"
    ))
    write_atomic(path, PARAMS_MAGIC + struct.pack("<BI", PARAMS_VERSION, len(blob)) + blob + payload)


def load_encoder_params(path) -> EncoderParams:
    raw = read_bytes(path)
    if raw[:4] != PARAMS_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {PARAMS_MAGIC!r}")
    if len(raw) < 9:
        raise FormatError(f"{path}: truncated header")
    version, meta_len = struct.unpack_from("<BI", raw, 4)
    if version != PARAMS_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if 9 + meta_len > len(raw):
        raise FormatError(f"{path}: truncated metadata block")
    meta = from_json(_ParamsMetadata, read_json(raw[9 : 9 + meta_len], f"{path}: metadata"), f"{path}: metadata")
    offset = 9 + meta_len
    # exact in Python ints: a declared size past the file is refused before anything is allocated
    count = dense_count(meta.visual_sizes) + dense_count(meta.text_sizes) + math.prod(meta.token_table_shape)
    if offset + 4 * count > len(raw):
        raise FormatError(f"{path}: truncated payload: {4 * count} bytes of parameters at offset {offset}")
    if offset + 4 * count < len(raw):
        raise FormatError(f"{path}: {len(raw) - offset - 4 * count} trailing bytes")
    flat = float32_values(
        raw, offset, (count,), lambda i: f"{path}: non-finite parameter at offset {offset + 4 * i}"
    )
    return EncoderParams(meta.visual_sizes, meta.text_sizes, meta.token_table_shape[0], flat, float(meta.temperature))
