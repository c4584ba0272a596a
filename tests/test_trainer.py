import hashlib
import json
import math
import pickle
import struct
import warnings

import numpy as np
import pytest

from modalign import (
    BenchConfig,
    Clip,
    DegenerateVectorError,
    DimensionError,
    DivergenceError,
    EncoderParams,
    FormatError,
    PairBatch,
    ParameterError,
    TrainerConfig,
    finite_difference_check,
    frame_differences,
    infonce_loss,
    load_encoder_params,
    save_encoder_params,
    train_encoders,
)
from modalign.bench import train_seed_encoders
from modalign.gridworld import generate_tasks
from modalign import trainer
from modalign.nets import DenseParams, MomentumState
from modalign.trainer import (
    TokenRows,
    _CompiledClips,
    compile_tokens,
    infonce_loss_and_gradient,
    init_encoder_params,
    text_forward,
    visual_forward,
)


def linear_identity_params(dim: int, table: np.ndarray | None = None) -> EncoderParams:
    """Single linear identity layers for both encoders; token table given or identity."""
    table = np.eye(dim) if table is None else np.asarray(table, dtype=np.float64)
    width = table.shape[1]
    flat = np.concatenate(
        [np.eye(dim).ravel(), np.zeros(dim), np.eye(width).ravel(), np.zeros(width), table.ravel()]
    )
    return EncoderParams([dim, dim], [width, width], len(table), flat)


def tiny_config(**overrides) -> TrainerConfig:
    base = dict(
        obs_dim=6, vocab_size=7, dim=4, visual_hidden=(5,), text_hidden=(5,),
        token_dim=4, steps=0, batch_size=3, seed=0,
    )
    base.update(overrides)
    return TrainerConfig(**base)


def random_batch(rng, b=3, obs_dim=6, vocab=7):
    tokens = tuple(
        tuple(int(t) for t in rng.integers(0, vocab, size=rng.integers(1, 4))) for _ in range(b)
    )
    return PairBatch(
        rng.standard_normal((b, obs_dim)), rng.standard_normal((b, obs_dim)), compile_tokens(tokens, vocab)
    )


class TestTrainerConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", 2.5),
            ("batch_size", 2.0),
            ("obs_dim", 6.0),
            ("dim", True),
            ("token_dim", np.float64(4)),
            ("freeze_text_after", 1.5),
            ("visual_hidden", (63.9,)),
            ("text_hidden", (4, 2.0)),
            ("seed", 2.5),
            ("seed", True),
        ],
    )
    def test_non_integral_size_names_its_field(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be integral"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize(
        "field, inside, outside",
        [
            ("obs_dim", 1, 0),
            ("vocab_size", 1, 0),
            ("dim", 1, 0),
            ("token_dim", 1, 0),
            ("visual_hidden", (1,), (5, 0)),
            ("text_hidden", (1,), (-1,)),
            ("temperature", 5e-324, 0.0),
            ("steps", 0, -1),
            ("batch_size", 1, 0),
            ("learning_rate", 5e-324, 0),
            ("momentum", 0.0, -5e-324),
            ("momentum", np.nextafter(1.0, 0.0), 1.0),
            ("seed", 0, -1),
            ("freeze_text_after", 0, -1),
            ("freeze_text_after", None, -1),
        ],
    )
    def test_field_rule_boundary_names_its_field(self, field, inside, outside):
        assert getattr(tiny_config(**{field: inside}), field) == inside
        with pytest.raises(ParameterError, match=f"^{field} must be "):
            tiny_config(**{field: outside})

    def test_contrastive_batch_needs_two_rows_only_when_training(self):
        assert tiny_config(steps=0, batch_size=1).batch_size == 1
        tiny_config(steps=1, batch_size=2)
        with pytest.raises(ParameterError, match="batch_size must be >= 2"):
            tiny_config(steps=1, batch_size=1)

    def test_numpy_integers_are_sizes(self):
        cfg = tiny_config(steps=np.int64(3), visual_hidden=[np.int32(5)])
        assert cfg.visual_hidden == (5,) and type(cfg.visual_hidden[0]) is int

    @pytest.mark.parametrize("field", ["temperature", "learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "0.5", None])
    def test_non_finite_float_names_its_field(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be a finite number"):
            tiny_config(**{field: value})


class TestEncoderForward:
    def test_zero_params_give_zero_embedding(self):
        params = linear_identity_params(3)
        for w in params.visual.weights:
            w[:] = 0.0
        out = visual_forward(params, np.array([[4.0, -1.0, 2.0]]))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_identity_linear_layer(self):
        params = linear_identity_params(2)
        out = visual_forward(params, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_text_mean_pools_tokens(self):
        table = np.array([[2.0, 0.0], [0.0, 4.0]])
        params = linear_identity_params(2, table)
        out = text_forward(params, [(0, 1)])
        np.testing.assert_allclose(out, [[1.0, 2.0]])

    def test_shape_mismatch(self):
        params = linear_identity_params(3)
        with pytest.raises(DimensionError):
            visual_forward(params, np.array([[1.0, 2.0]]))

    def test_token_out_of_range(self):
        params = linear_identity_params(2)
        with pytest.raises(DimensionError):
            text_forward(params, [(5,)])


class TestFrameDifference:
    def test_identical_frames_encode_zero(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(0))
        obs = np.random.default_rng(1).standard_normal((3, 6))
        out = frame_differences(params, obs, obs)
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_linearity_for_linear_encoder(self):
        params = linear_identity_params(4)
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        diff = frame_differences(params, a, b)
        direct = visual_forward(params, b - a)
        np.testing.assert_allclose(diff, direct, atol=1e-12)

    def test_swap_negates(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(3))
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
        fwd = frame_differences(params, a, b)
        rev = frame_differences(params, b, a)
        np.testing.assert_array_equal(fwd, -rev)

    def test_mismatched_frame_arrays_rejected(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(5))
        with pytest.raises(DimensionError):
            frame_differences(params, np.zeros((3, 6)), np.zeros((2, 6)))


class TestInfonceLoss:
    def test_batch_of_one_is_exactly_zero(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(5))
        rng = np.random.default_rng(6)
        batch = random_batch(rng, b=1)
        assert infonce_loss(params, batch) == 0.0

    def test_equal_similarities_give_ln_b(self):
        # every row identical -> all pairwise similarities equal -> ln B
        params = linear_identity_params(2)
        b = 4
        start = np.zeros((b, 2))
        end = np.tile([1.0, 0.0], (b, 1))
        batch = PairBatch(start, end, compile_tokens(((0,),) * b, 2))
        assert infonce_loss(params, batch) == pytest.approx(math.log(b), abs=1e-12)

    def test_opposed_pairs_analytic_value(self):
        # S = [[1,-1],[-1,1]] -> loss = ln(1 + e^-2)
        params = linear_identity_params(2, table=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        batch = PairBatch(
            np.zeros((2, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]]), compile_tokens(((0,), (1,)), 2)
        )
        assert infonce_loss(params, batch) == pytest.approx(math.log(1 + math.exp(-2)), abs=1e-12)

    def test_zero_frame_difference_rejected(self):
        params = linear_identity_params(2)
        obs = np.array([[1.0, 0.0]])
        batch = PairBatch(obs, obs, compile_tokens(((0,),), 2))
        with pytest.raises(DegenerateVectorError, match="^frame-difference embedding 0 is zero$"):
            infonce_loss(params, batch)

    def test_row_rescaling_invariance(self):
        # a linear encoder turns observation scaling into embedding scaling,
        # which cosine similarity absorbs
        params = linear_identity_params(3)
        rng = np.random.default_rng(7)
        start, end = np.zeros((3, 3)), rng.standard_normal((3, 3))
        tokens = compile_tokens(((0,), (1,), (2,)), 3)
        base = infonce_loss(params, PairBatch(start, end, tokens))
        scaled_end = end.copy()
        scaled_end[1] *= 37.5
        scaled = infonce_loss(params, PairBatch(start, scaled_end, tokens))
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_row_permutation_invariance(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(8))
        rng = np.random.default_rng(9)
        batch = random_batch(rng, b=5)
        perm = rng.permutation(5)
        rows = batch.tokens
        permuted = PairBatch(
            batch.o_start[perm], batch.o_end[perm], TokenRows(rows.padded[perm], rows.lengths[perm], rows.vocab)
        )
        assert infonce_loss(params, permuted) == pytest.approx(
            infonce_loss(params, batch), abs=1e-12
        )

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(10)
        for seed in range(20):
            params = init_encoder_params(tiny_config(seed=seed), np.random.default_rng(seed))
            assert infonce_loss(params, random_batch(rng)) >= 0.0

    def test_near_zero_loss_implies_diagonal_margin(self):
        # opposed pairs at a sharp temperature drive the loss under 1e-6,
        # which can only happen when the diagonal strictly dominates
        params = linear_identity_params(2, table=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        params.temperature = 0.05
        batch = PairBatch(
            np.zeros((2, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]]), compile_tokens(((0,), (1,)), 2)
        )
        loss = infonce_loss(params, batch)
        assert loss < 1e-6
        diag = np.array([1.0, 1.0])
        off = np.array([-1.0, -1.0])
        assert np.all(diag - off > 0.0)

    def test_zero_text_embedding_rejected(self):
        # a zero token table makes the text tower output zeros, while the
        # frame differences stay non-zero
        params = linear_identity_params(2, table=np.zeros((2, 2)))
        batch = PairBatch(np.zeros((2, 2)), np.eye(2), compile_tokens(((0,), (1,)), 2))
        with pytest.raises(DegenerateVectorError, match="^text embedding 0 is zero$"):
            infonce_loss(params, batch)


class TestInfonceGradient:
    def test_batch_of_one_gradient_is_zero(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(11))
        batch = random_batch(np.random.default_rng(12), b=1)
        _, grad = infonce_loss_and_gradient(params, batch)
        np.testing.assert_array_equal(grad, np.zeros_like(params.flat))

    def test_structure_matches_params(self):
        for hidden in ((), (5,), (4, 3)):
            cfg = tiny_config(visual_hidden=hidden, text_hidden=hidden)
            params = init_encoder_params(cfg, np.random.default_rng(13))
            _, grad = infonce_loss_and_gradient(params, random_batch(np.random.default_rng(14)))
            assert grad.shape == params.flat.shape

    def test_matches_finite_differences(self):
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            params = init_encoder_params(tiny_config(), rng)
            batch = random_batch(rng)
            assert finite_difference_check(params, batch, 1e-5) < 1e-4


class TestFiniteDifferenceCheck:
    def test_linear_one_parameter_toy(self):
        # 1x1 linear encoders: loss at B=1 is constant zero, so both the
        # analytic and numeric gradients vanish identically
        params = EncoderParams([1, 1], [1, 1], 1, np.array([2.0, 0.0, 1.0, 0.0, 1.0]))
        batch = PairBatch(np.array([[0.0]]), np.array([[1.0]]), compile_tokens(((0,),), 1))
        assert finite_difference_check(params, batch, 1e-5) < 1e-8

    def test_epsilon_must_be_positive(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(15))
        batch = random_batch(np.random.default_rng(16))
        # nan would score 0.0 and inf 1.0 if they reached the differences
        for epsilon in (0.0, -1e-5, math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="epsilon must be positive and finite"):
                finite_difference_check(params, batch, epsilon)

    def test_nan_analytic_gradient_scores_inf(self, monkeypatch):
        # the numeric side stays finite; a NaN must not vanish in the maximum
        params = init_encoder_params(tiny_config(), np.random.default_rng(17))
        batch = random_batch(np.random.default_rng(18))
        loss, grad = infonce_loss_and_gradient(params, batch)
        nan_grad = np.full_like(grad, math.nan)
        monkeypatch.setattr(trainer, "infonce_loss_and_gradient", lambda p, b: (loss, nan_grad))
        assert finite_difference_check(params, batch) == math.inf

    def test_nan_parameter_scores_inf(self):
        # a NaN weight makes the loss, and so both gradients, NaN
        params = init_encoder_params(tiny_config(), np.random.default_rng(19))
        params.token_table[0, 0] = math.nan
        assert finite_difference_check(params, random_batch(np.random.default_rng(20))) == math.inf


def synthetic_clips(rng, n_tasks=10, clips_per_task=20, obs_dim=12, horizon=5):
    """Clips whose frame differences all point along a per-task pattern."""
    patterns = rng.standard_normal((n_tasks, obs_dim))
    clips = []
    for k in range(n_tasks):
        for _ in range(clips_per_task):
            base = rng.standard_normal(obs_dim)
            obs = np.stack([base + (t / (horizon - 1)) * patterns[k] for t in range(horizon)])
            clips.append(Clip(obs, ((k,), (k, n_tasks))))
    return clips, patterns


class TestTrainEncoders:
    def test_zero_steps_returns_seeded_init(self):
        clips, _ = synthetic_clips(np.random.default_rng(17), n_tasks=2, clips_per_task=2)
        cfg = TrainerConfig(obs_dim=12, vocab_size=11, dim=4, steps=0, seed=42)
        result = train_encoders(clips, cfg)
        reference = init_encoder_params(cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(result.params.flat, reference.flat)
        assert result.loss_trace == []

    def test_deterministic_per_seed(self):
        clips, _ = synthetic_clips(np.random.default_rng(18), n_tasks=3, clips_per_task=3)
        cfg = TrainerConfig(obs_dim=12, vocab_size=11, dim=4, steps=30, seed=9)
        r1 = train_encoders(clips, cfg)
        r2 = train_encoders(clips, cfg)
        assert r1.loss_trace == r2.loss_trace
        np.testing.assert_array_equal(r1.params.flat, r2.params.flat)

    def test_divergence_reported_with_step(self, monkeypatch):
        # cosine-bounded logits make real divergence unreachable, so drive
        # the guard directly with a non-finite loss
        import modalign.trainer as trainer_module

        clips, _ = synthetic_clips(np.random.default_rng(19), n_tasks=2, clips_per_task=2)
        cfg = TrainerConfig(obs_dim=12, vocab_size=11, dim=4, steps=5, seed=1)
        real = trainer_module.infonce_loss_and_gradient
        calls = []

        def poisoned(params, batch):
            loss, grads = real(params, batch)
            calls.append(1)
            return (float("nan") if len(calls) >= 3 else loss), grads

        monkeypatch.setattr(trainer_module, "infonce_loss_and_gradient", poisoned)
        with pytest.raises(DivergenceError, match="step 2"):
            train_encoders(clips, cfg)

    def test_convergence_on_synthetic_pairing(self):
        # run-to-convergence oracle: K=10 tasks, 20 clips each, D=16
        rng = np.random.default_rng(20)
        clips, patterns = synthetic_clips(rng, n_tasks=10, clips_per_task=20)
        cfg = TrainerConfig(obs_dim=12, vocab_size=11, dim=16, steps=2000, batch_size=32, seed=7)
        result = train_encoders(clips, cfg)
        assert result.loss_trace[-1] < math.log(cfg.batch_size)

        from modalign import EmbeddingBank, matched_pair_similarity_matrix
        from modalign.trainer import text_forward, visual_forward

        eval_rng = np.random.default_rng(21)
        rows, ids = [], []
        for k in range(10):
            for _ in range(4):
                base = eval_rng.standard_normal(12)
                enc = visual_forward(result.params, np.stack([base, base + patterns[k]]))
                rows.append(enc[1] - enc[0])
                ids.append(f"t{k:02d}")
        bank_v = EmbeddingBank("visual", tuple(ids), np.stack(rows))
        txt = text_forward(result.params, [(k,) for k in range(10)])
        bank_l = EmbeddingBank("text", tuple(f"t{k:02d}" for k in range(10)), txt)
        matrix = matched_pair_similarity_matrix(bank_v, bank_l)
        diag = float(np.mean(np.diag(matrix)))
        off = float(np.mean(matrix[~np.eye(10, dtype=bool)]))
        assert diag - off >= 0.3

    def test_freeze_text_after_stops_text_updates(self):
        clips, _ = synthetic_clips(np.random.default_rng(22), n_tasks=3, clips_per_task=3)
        cfg = TrainerConfig(
            obs_dim=12, vocab_size=11, dim=4, steps=40, seed=5, freeze_text_after=0
        )
        result = train_encoders(clips, cfg)
        frozen = init_encoder_params(cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(result.params.token_table, frozen.token_table)
        np.testing.assert_array_equal(result.params.text.flat, frozen.text.flat)
        # while the visual tower moved
        assert not np.array_equal(result.params.visual.flat, frozen.visual.flat)

    def test_no_clips_rejected(self):
        with pytest.raises(ParameterError, match="^training needs at least one clip$"):
            train_encoders([], tiny_config(steps=5))

    @pytest.mark.parametrize("steps", [0, 5])
    def test_clip_of_another_width_rejected(self, steps):
        # at steps=0 no batch is drawn, so this check is the only one
        clips = [Clip(np.zeros((3, 6)), ((0,),)), Clip(np.zeros((3, 5)), ((1,),))]
        with pytest.raises(DimensionError, match="^clip 1 obs dim 5 != config 6$"):
            train_encoders(clips, tiny_config(steps=steps))


class TestClipAndBatchRefusals:
    @pytest.mark.parametrize(
        "observations, templates, message",
        [
            (np.zeros((1, 6)), ((0,),), r"a clip needs at least 2 observations, got shape \(1, 6\)"),
            (np.zeros(6), ((0,),), r"a clip needs at least 2 observations, got shape \(6,\)"),
            (np.zeros((2, 6)), (), "a clip needs at least one instruction template"),
            (np.zeros((2, 6)), ((0,), ()), "instruction templates must be non-empty"),
        ],
        ids=["one-observation", "flat-observations", "no-templates", "empty-template"],
    )
    def test_clip_rejected(self, observations, templates, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            Clip(observations, templates)

    def test_frames_of_two_shapes_rejected(self):
        with pytest.raises(DimensionError, match=r"^frame arrays disagree: \(2, 6\) vs \(2, 5\)$"):
            PairBatch(np.zeros((2, 6)), np.zeros((2, 5)), compile_tokens(((0,), (1,)), 7))

    def test_frame_and_token_rows_must_agree(self):
        with pytest.raises(DimensionError, match="^3 frame rows but 2 instruction rows$"):
            PairBatch(np.zeros((3, 6)), np.ones((3, 6)), compile_tokens(((0,), (1,)), 7))

    def test_batch_of_no_rows_rejected(self):
        with pytest.raises(ParameterError, match="^a batch needs at least one row$"):
            PairBatch(np.zeros((0, 6)), np.zeros((0, 6)), compile_tokens((), 7))


def chunk_rows(clips, count, rng):
    """One chunk of `count` rows as four array rng.integers calls, in clip-local
    terms: every clip, then every start n, every end n + m and every template."""
    clip = rng.integers(0, len(clips), count)
    horizon = np.array([len(clips[c].observations) for c in clip])
    start = rng.integers(0, horizon - 1)
    end = start + rng.integers(1, horizon - start)
    template = rng.integers(0, [len(clips[c].templates) for c in clip])
    return clip, start, end, template


def reference_batches(clips, steps, batch_size, rng):
    """Start frames, end frames and token sequences of `steps` batches, drawn
    by chunk_rows in chunks of 256 // batch_size steps (at least one)."""
    per_chunk = max(1, 256 // batch_size)
    for done in range(0, steps, per_chunk):
        count = min(per_chunk, steps - done) * batch_size
        rows = list(zip(*(part.tolist() for part in chunk_rows(clips, count, rng))))
        for lo in range(0, count, batch_size):
            picked = [(clips[c], n, e, t) for c, n, e, t in rows[lo : lo + batch_size]]
            yield (
                np.stack([clip.observations[n] for clip, n, _, _ in picked]),
                np.stack([clip.observations[e] for clip, _, e, _ in picked]),
                [clip.templates[t] for clip, _, _, t in picked],
            )


def sample(compiled, batch_size, rng):
    """One batch of B rows: the one-step case of batches."""
    return next(compiled.batches(1, batch_size, rng))


def varied_clips(rng, n_clips=7, obs_dim=6, vocab=9):
    """Clips of different horizons with different numbers and lengths of templates."""
    clips = []
    for _ in range(n_clips):
        horizon = int(rng.integers(2, 8))
        templates = tuple(
            tuple(int(t) for t in rng.integers(0, vocab, size=rng.integers(1, 6)))
            for _ in range(int(rng.integers(1, 4)))
        )
        clips.append(Clip(rng.standard_normal((horizon, obs_dim)), templates))
    return clips


def assert_batch_is(batch, start, end, tokens, vocab):
    np.testing.assert_array_equal(batch.o_start, start)
    np.testing.assert_array_equal(batch.o_end, end)
    np.testing.assert_array_equal(batch.tokens.lengths, [len(seq) for seq in tokens])
    for row, seq in zip(batch.tokens.padded, tokens):
        assert tuple(row[: len(seq)]) == seq and np.all(row[len(seq) :] == vocab)


class TestBatchSampling:
    def test_segments_are_forward_in_time(self):
        clips, _ = synthetic_clips(np.random.default_rng(23), n_tasks=2, clips_per_task=2)
        compiled = _CompiledClips(clips, 11)
        rng = np.random.default_rng(24)
        for _ in range(50):
            batch = sample(compiled, 8, rng)
            assert not np.array_equal(batch.o_start, batch.o_end)

    @pytest.mark.parametrize("batch_size", [2, 7, 300])
    def test_chunks_match_four_array_draws(self, batch_size):
        # 256 // 7 = 36 steps a chunk: 80 steps are chunks of 36, 36 and 8;
        # B = 2 takes all 80 steps in one chunk, B = 300 one step a chunk
        clips = varied_clips(np.random.default_rng(31))
        compiled = _CompiledClips(clips, 9)
        steps = 80 if batch_size < 300 else 3
        rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
        got = list(compiled.batches(steps, batch_size, rng))
        want = list(reference_batches(clips, steps, batch_size, ref_rng))
        assert len(got) == len(want) == steps
        for batch, (start, end, tokens) in zip(got, want):
            assert_batch_is(batch, start, end, tokens, 9)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_rows_reach_every_outcome_at_its_rate(self):
        # Each row draws clip c uniformly, start n uniformly below horizon - 1,
        # length m uniformly over the valid suffix and a template uniformly
        # among the clip's own. Every (c, n, m) cell and every (c, template)
        # pair is hit, within 5 binomial standard deviations of its rate.
        clips = varied_clips(np.random.default_rng(30))
        compiled = _CompiledClips(clips, 9)
        frame, horizon, first, templates = compiled.spans
        steps, batch_size = 2000, 100
        rows = [[], [], []]
        for batch in compiled.batches(steps, batch_size, np.random.default_rng(42)):
            rows[0].append(batch.o_start)
            rows[1].append(batch.o_end)
            rows[2].append(batch.tokens.padded)
        total = steps * batch_size
        # frames are distinct random vectors, so a frame names its row
        row_of = {obs.tobytes(): i for i, obs in enumerate(compiled.observations)}
        starts = np.array([row_of[o.tobytes()] for o in np.concatenate(rows[0])])
        ends = np.array([row_of[o.tobytes()] for o in np.concatenate(rows[1])])
        token_rows = np.concatenate(rows[2])
        clip = np.searchsorted(frame, starts, side="right") - 1
        # every row stays within its clip, forward in time
        assert np.all(starts < ends) and np.all(ends < frame[clip] + horizon[clip])
        # and takes one of that clip's templates
        own = np.zeros(total, dtype=int)
        for c in range(len(clips)):
            rows_c = clip == c
            matches = (token_rows[rows_c, None, :] == compiled.rows.padded[None, first[c] : first[c] + templates[c]]).all(axis=2)
            assert np.all(matches.sum(axis=1) >= 1)
            own[rows_c] = matches.argmax(axis=1)

        def close(hits, rate):
            return abs(hits - total * rate) <= 5 * math.sqrt(total * rate * (1 - rate))

        n_clips = len(clips)
        for c in range(n_clips):
            h = int(horizon[c])
            for n in range(h - 1):
                for m in range(1, h - n):
                    hits = np.sum((clip == c) & (starts == frame[c] + n) & (ends == frame[c] + n + m))
                    assert hits > 0 and close(hits, 1 / n_clips / (h - 1) / (h - 1 - n)), (c, n, m)
            for t in range(int(templates[c])):
                hits = np.sum((clip == c) & (own == t))
                assert hits > 0 and close(hits, 1 / n_clips / templates[c]), (c, t)

    def test_carried_token_rows_give_the_same_step(self):
        # the sampler's rows are padded to the widest template of all clips;
        # a batch compiled from its own tokens must give identical results
        clips = varied_clips(np.random.default_rng(31))
        cfg = tiny_config(vocab_size=9)
        compiled = _CompiledClips(clips, cfg.vocab_size)
        widest = max(len(tpl) for clip in clips for tpl in clip.templates)
        params = init_encoder_params(cfg, np.random.default_rng(32))
        rng = np.random.default_rng(33)
        for _ in range(10):
            batch = sample(compiled, 6, rng)
            assert batch.tokens.padded.shape[1] == widest
            own = [tuple(row[:n]) for row, n in zip(batch.tokens.padded.tolist(), batch.tokens.lengths)]
            plain = PairBatch(batch.o_start, batch.o_end, compile_tokens(own, cfg.vocab_size))
            loss, grad = infonce_loss_and_gradient(params, batch)
            plain_loss, plain_grad = infonce_loss_and_gradient(params, plain)
            assert loss == plain_loss
            np.testing.assert_array_equal(grad, plain_grad)

    def test_range_one_draws_take_no_word(self):
        # horizon 2 and one template: the start, length and template draws
        # have one outcome each, so only the clip draw takes words
        rng = np.random.default_rng(35)
        clips = [Clip(rng.standard_normal((2, 3)), ((i,),)) for i in range(4)]
        compiled = _CompiledClips(clips, 4)
        rng, ref_rng = np.random.default_rng(36), np.random.default_rng(36)
        for _ in range(5):
            batch = sample(compiled, 7, rng)
            ref_rng.integers(0, 4, 7)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            np.testing.assert_array_equal(batch.o_end - batch.o_start, [
                clips[t].observations[1] - clips[t].observations[0] for t in batch.tokens.padded[:, 0]
            ])
        # with a single such clip no draw takes a word
        before = rng.bit_generator.state
        sample(_CompiledClips(clips[:1], 4), 5, rng)
        assert rng.bit_generator.state == before

    def test_first_batches_match_recorded_rows(self):
        # start, end and template rows of the first three batches of one
        # 50-step call, recorded from the four-call sampler: they pin the
        # draw order and the chunk size (the first chunk is 42 steps at B=6)
        compiled = _CompiledClips(varied_clips(np.random.default_rng(30)), 9)
        recorded = [
            ([15, 25, 0, 19, 14, 33], [17, 28, 1, 20, 15, 34], [6, 9, 0, 8, 6, 10]),
            ([0, 0, 16, 21, 0, 32], [1, 1, 17, 22, 1, 34], [0, 0, 6, 7, 0, 10]),
            ([20, 17, 0, 10, 19, 19], [23, 18, 1, 11, 21, 23], [7, 6, 0, 5, 8, 7]),
        ]
        rng = np.random.default_rng(40)
        for batch, (starts, ends, picks) in zip(compiled.batches(50, 6, rng), recorded):
            np.testing.assert_array_equal(batch.o_start, compiled.observations[starts])
            np.testing.assert_array_equal(batch.o_end, compiled.observations[ends])
            np.testing.assert_array_equal(batch.tokens.padded, compiled.rows.padded[picks])
            np.testing.assert_array_equal(batch.tokens.lengths, compiled.rows.lengths[picks])


def pin_digest(result) -> str:
    """blake2b of the final parameter bytes and the loss trace's reprs."""
    h = hashlib.blake2b(digest_size=16)
    h.update(result.params.flat.tobytes())
    h.update(repr(result.loss_trace).encode())
    return h.hexdigest()


class TestBitPins:
    """Digests recorded from the four-call chunk sampler and the stacked
    start/end visual pass: every rewrite of the encoder step must keep each
    bit, at every tower depth."""

    def test_default_bench_shape(self):
        cfg = BenchConfig(seeds=(0,), encoder_steps=300)
        _, _, result = train_seed_encoders(cfg, generate_tasks(cfg.grid_size, cfg.world_seed), 0)
        assert pin_digest(result) == "45cb53cf05224766c1b37bdd7d76ed54"

    def test_two_visual_hidden_layers_and_a_linear_text_tower(self):
        cfg = TrainerConfig(
            obs_dim=6, vocab_size=9, dim=4, visual_hidden=(5, 3), text_hidden=(), token_dim=3,
            steps=100, batch_size=6, seed=3,
        )
        result = train_encoders(varied_clips(np.random.default_rng(30)), cfg)
        assert pin_digest(result) == "e431297254e61c09109d9b7a2fbf8617"

    def test_freeze_text_after_with_a_linear_visual_tower(self):
        clips, _ = synthetic_clips(np.random.default_rng(22), n_tasks=3, clips_per_task=3)
        cfg = TrainerConfig(
            obs_dim=12, vocab_size=11, dim=4, visual_hidden=(), text_hidden=(6, 4),
            steps=120, batch_size=5, seed=5, freeze_text_after=50,
        )
        assert pin_digest(train_encoders(clips, cfg)) == "74a0bf89926b6b6b0f05e53ce8554a2b"


class TestTokenRows:
    def test_pooling_equals_per_row_mean_bit_for_bit(self):
        rng = np.random.default_rng(34)
        table = rng.standard_normal((9, 5)) * 10.0 ** rng.uniform(-3, 3, size=(9, 1))
        seqs = [(3,), (3, 3, 3), (1, 2, 1, 2, 1), (0, 8, 0, 8, 8, 0, 4), (5,) * 11]
        seqs += [tuple(int(t) for t in rng.integers(0, 9, size=rng.integers(1, 20))) for _ in range(50)]
        pooled = compile_tokens(seqs, 9).pool(table)
        for i, seq in enumerate(seqs):
            assert np.array_equal(pooled[i], table[np.asarray(seq)].mean(axis=0)), seq

    def test_empty_sequence_names_its_row(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(35))
        with pytest.raises(ParameterError, match="row 2: empty token sequence"):
            text_forward(params, [(0,), (1, 1), ()])

    def test_out_of_range_token_names_its_row(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(36))
        with pytest.raises(DimensionError, match="row 1: token index out of range for vocab 7"):
            text_forward(params, [(0, 6), (2, 7)])
        with pytest.raises(DimensionError, match="row 0: token index out of range"):
            text_forward(params, [(-1, 2)])
        with pytest.raises(DimensionError, match="row 1: token index out of range"):
            batch = PairBatch(np.zeros((2, 6)), np.ones((2, 6)), compile_tokens(((1,), (3, 9)), 7))
            infonce_loss(params, batch)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, np.float64(1.0), "1", None], ids=repr)
    def test_non_integer_token_names_its_row(self, bad):
        # np.int64 ids are integers; floats, even integral ones, bools and
        # strings are refused rather than truncated or compared
        assert compile_tokens([(np.int64(1), 2)], 7).padded.tolist() == [[1, 2]]
        with pytest.raises(ParameterError, match="row 1: token ids must be integers"):
            compile_tokens([(0, 1), (2, bad)], 7)

    @pytest.mark.parametrize("vocab", [6, 8])
    def test_batch_compiled_for_another_vocab_refused(self, vocab):
        # pads of vocab 6 would select token row 6 of a 7-row table
        params = init_encoder_params(tiny_config(), np.random.default_rng(38))
        batch = PairBatch(np.zeros((2, 6)), np.ones((2, 6)), compile_tokens(((1,), (3, 5, 2)), vocab))
        with pytest.raises(DimensionError, match=f"compiled for vocab {vocab}, not 7"):
            infonce_loss(params, batch)

    def test_templates_validated_when_training_starts(self):
        clips, _ = synthetic_clips(np.random.default_rng(37), n_tasks=2, clips_per_task=1)
        cfg = TrainerConfig(obs_dim=12, vocab_size=2, dim=4, steps=0)
        with pytest.raises(DimensionError, match="token index out of range for vocab 2"):
            train_encoders(clips, cfg)

    def test_gradient_with_repeated_tokens_matches_finite_differences(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            params = init_encoder_params(tiny_config(), rng)
            tokens = []
            for _ in range(3):
                seq = [int(t) for t in rng.integers(0, 7, size=rng.integers(1, 4))]
                tokens.append(tuple(seq + [seq[int(rng.integers(len(seq)))]]))
            tokens = tuple(tokens)
            batch = PairBatch(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)), compile_tokens(tokens, 7))
            worst = max(worst, finite_difference_check(params, batch, 1e-5))
        assert worst < 1e-4


class TestSerialization:
    def test_roundtrip_float32_exact(self, tmp_path):
        cfg = tiny_config(visual_hidden=(5, 3), text_hidden=(4,))
        params = init_encoder_params(cfg, np.random.default_rng(25))
        # float32-representable weights round-trip bit-exactly
        params.flat[:] = params.flat.astype(np.float32).astype(np.float64)
        path = tmp_path / "enc.eprm"
        save_encoder_params(params, path, extra_metadata={"note": "unit-test"})
        loaded = load_encoder_params(path)
        assert loaded.temperature == params.temperature
        np.testing.assert_array_equal(loaded.flat, params.flat)

    def test_deterministic_bytes(self, tmp_path):
        params = init_encoder_params(tiny_config(), np.random.default_rng(26))
        p1, p2 = tmp_path / "a.eprm", tmp_path / "b.eprm"
        save_encoder_params(params, p1)
        save_encoder_params(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def eprm_with_table_entry(tmp_path, entry: bytes):
        """A valid .eprm whose token_table[3, 1] float32 bytes are replaced;
        the saver refuses non-finite values, so the file is patched."""
        params = init_encoder_params(tiny_config(), np.random.default_rng(27))
        path = tmp_path / "bad.eprm"
        save_encoder_params(params, path)
        raw = bytearray(path.read_bytes())
        at = len(raw) - 4 * params.token_table.size + 4 * (3 * params.token_table.shape[1] + 1)
        raw[at : at + 4] = entry
        path.write_bytes(bytes(raw))
        return path, at

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        path, at = self.eprm_with_table_entry(tmp_path, struct.pack("<f", bad))
        with pytest.raises(FormatError, match=f"non-finite parameter at offset {at}"):
            load_encoder_params(path)

    def test_signalling_nan_rejected_without_a_cast_warning(self, tmp_path):
        # finiteness is checked on the float32 view, before the float64 cast
        path, _ = self.eprm_with_table_entry(tmp_path, struct.pack("<I", 0x7FA00000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite parameter"):
                load_encoder_params(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39, -1e39])
    def test_save_refuses_values_outside_float32(self, tmp_path, bad):
        params = init_encoder_params(tiny_config(), np.random.default_rng(27))
        params.token_table[3, 1] = bad
        # the message names the entry of params.flat: the table comes last
        entry = params.flat.size - params.token_table.size + 3 * params.token_table.shape[1] + 1
        path = tmp_path / "bad.eprm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"^parameter entry {entry}: value .* is outside float32 range"):
                save_encoder_params(params, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda raw: raw[:-4], "truncated payload"), (lambda raw: raw + raw[-4:], "4 trailing bytes")],
        ids=["one-float-short", "one-float-over"],
    )
    def test_payload_must_hold_exactly_the_declared_parameters(self, tmp_path, edit, message):
        params = init_encoder_params(tiny_config(), np.random.default_rng(28))
        path = tmp_path / "enc.eprm"
        save_encoder_params(params, path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FormatError, match=message):
            load_encoder_params(path)

    def test_huge_declared_layer_refused_before_allocation(self, tmp_path):
        # a 10**12-entry first visual layer: refused from the sizes alone,
        # not by a MemoryError or by np.frombuffer's ValueError
        path = saved_with_metadata(tmp_path, lambda meta: json.dumps({**meta, "visual_sizes": [10**6, 10**6, 4]}))
        with pytest.raises(FormatError, match="truncated payload"):
            load_encoder_params(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.eprm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        from modalign import FormatError

        with pytest.raises(FormatError):
            load_encoder_params(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("visual_sizes", ["x"]),
            ("visual_sizes", [-2, 3]),
            ("text_sizes", [2.5]),
            ("token_table_shape", [7, True]),
            ("token_table_shape", "7x4"),
            # towers that disagree (embedding dims, token width, table rank)
            # while the payload still holds the declared number of values
            ("visual_sizes", [6, 1, 1, 25]),
            ("text_sizes", [4, 8, 1]),
            ("token_table_shape", [4, 7]),
            ("token_table_shape", [7, 4, 1]),
        ],
    )
    def test_bad_metadata_sizes_rejected(self, tmp_path, key, value):
        # a hand-built header: each size must be a positive JSON integer
        path = saved_with_metadata(tmp_path, lambda meta: json.dumps({**meta, key: value}))
        with pytest.raises(FormatError, match=key):
            load_encoder_params(path)

    @pytest.mark.parametrize("value", [True, "0.5", 10**400], ids=["bool", "string", "beyond-float"])
    def test_temperature_must_be_a_finite_number(self, tmp_path, value):
        path = saved_with_metadata(tmp_path, lambda meta: json.dumps({**meta, "temperature": value}))
        with pytest.raises(FormatError, match="temperature must be a finite number"):
            load_encoder_params(path)

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    def test_temperature_must_be_positive(self, tmp_path, value):
        path = saved_with_metadata(tmp_path, lambda meta: json.dumps({**meta, "temperature": value}))
        with pytest.raises(FormatError, match="temperature must be positive"):
            load_encoder_params(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta: {**meta, "note": 1}, r"metadata: unknown keys \['note'\]"),
            (lambda meta: {**meta, "config": [1]}, "metadata: config must be a mapping"),
            (lambda meta: {k: v for k, v in meta.items() if k != "temperature"}, r"missing keys \['temperature'\]"),
        ],
        ids=["unknown-key", "config-not-an-object", "no-temperature"],
    )
    def test_metadata_names_exactly_its_fields(self, tmp_path, edit, message):
        # the metadata is read through its dataclass: an unknown key used to be ignored
        path = saved_with_metadata(tmp_path, lambda meta: json.dumps(edit(meta)))
        with pytest.raises(FormatError, match=message):
            load_encoder_params(path)

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, np.inf, np.nan])
    def test_save_refuses_a_temperature_that_is_not_positive(self, tmp_path, value):
        params = init_encoder_params(tiny_config(), np.random.default_rng(28))
        params.temperature = value
        with pytest.raises(ParameterError, match="temperature must be (positive|a finite number)"):
            save_encoder_params(params, tmp_path / "enc.eprm")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "blob, message",
        [
            ("[1, 2]", "metadata must be a JSON object"),
            ('"meta"', "metadata must be a JSON object"),
            ("5", "metadata must be a JSON object"),
            ('{"temperature": %s}' % ("9" * 5000), "metadata: invalid JSON"),
            ("[" * 100_000, "metadata: invalid JSON"),
        ],
        ids=["list", "string", "number", "over-4300-digits", "deep"],
    )
    def test_bad_metadata_document_rejected(self, tmp_path, blob, message):
        path = saved_with_metadata(tmp_path, lambda meta: blob)
        with pytest.raises(FormatError, match=message):
            load_encoder_params(path)


class TestFlatBuffer:
    def test_encoder_views_share_the_buffer_in_declaration_order(self):
        params = init_encoder_params(tiny_config(visual_hidden=(5, 3)), np.random.default_rng(29))
        views = [a for net in (params.visual, params.text) for layer in zip(net.weights, net.biases) for a in layer]
        views.append(params.token_table)
        assert all(np.shares_memory(view, params.flat) for view in views)
        np.testing.assert_array_equal(np.concatenate([view.ravel() for view in views]), params.flat)

    def test_copy_shares_no_memory(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(30))
        copy = params.copy()
        np.testing.assert_array_equal(copy.flat, params.flat)
        assert copy.temperature == params.temperature
        for view in (copy.flat, *copy.visual.weights, *copy.text.biases, copy.token_table):
            assert not np.shares_memory(view, params.flat)

    def test_stacked_nets_are_rows_of_a_2d_buffer(self):
        sizes = [4, 3, 2]
        flat = np.arange(3 * 23, dtype=np.float64).reshape(3, 23)
        net = DenseParams(sizes, flat)
        assert [w.shape for w in net.weights] == [(3, 3, 4), (3, 2, 3)]
        assert [b.shape for b in net.biases] == [(3, 3), (3, 2)]
        assert all(np.shares_memory(a, flat) for a in (*net.weights, *net.biases))
        for v in range(3):
            row = DenseParams(sizes, flat[v])
            for got, want in zip((*net.weights, *net.biases), (*row.weights, *row.biases)):
                np.testing.assert_array_equal(got[v], want)

    def test_a_pickled_net_keeps_its_views_on_one_buffer(self):
        # a lane trained in a worker process comes back pickled
        stacked = DenseParams([4, 3, 2], np.arange(3 * 23, dtype=np.float64).reshape(3, 23))
        net = pickle.loads(pickle.dumps(DenseParams(stacked.sizes, stacked.flat[1])))
        np.testing.assert_array_equal(net.flat, np.arange(23, 46))
        assert all(np.shares_memory(a, net.flat) for a in (*net.weights, *net.biases))
        net.flat += 1.0
        np.testing.assert_array_equal(net.biases[1], [45.0, 46.0])

    def test_buffer_of_another_size_refused(self):
        with pytest.raises(DimensionError, match="need 23 parameters"):
            DenseParams([4, 3, 2], np.zeros(22))

    def test_momentum_steps_only_the_prefix_a_short_gradient_covers(self):
        flat = np.ones(5)
        optimizer = MomentumState(flat, 0.5, 0.5)
        optimizer.step(np.full(5, 2.0))
        optimizer.step(np.full(2, 4.0))
        np.testing.assert_array_equal(flat, [-2.5, -2.5, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(optimizer.velocity, [-2.5, -2.5, -1.0, -1.0, -1.0])


def saved_with_metadata(tmp_path, edit):
    """A saved .eprm file whose metadata block is replaced by edit(metadata)."""
    params = init_encoder_params(tiny_config(), np.random.default_rng(28))
    path = tmp_path / "enc.eprm"
    save_encoder_params(params, path)
    raw = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", raw, 5)
    blob = edit(json.loads(raw[9 : 9 + meta_len])).encode("utf-8")
    path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + meta_len :])
    return path
