import json
import math
import struct
import warnings

import numpy as np
import pytest

from modalign import (
    Clip,
    DegenerateVectorError,
    DimensionError,
    DivergenceError,
    EncoderParams,
    FormatError,
    Modality,
    PairBatch,
    ParameterError,
    TrainerConfig,
    finite_difference_check,
    frame_differences,
    infonce_gradient,
    infonce_loss,
    load_encoder_params,
    save_encoder_params,
    train_encoders,
)
from modalign.nets import DenseParams
from modalign.trainer import (
    compile_tokens,
    infonce_loss_and_gradient,
    init_encoder_params,
    sample_pair_batch,
    text_forward,
    visual_forward,
)


def linear_identity_params(dim: int, table: np.ndarray | None = None) -> EncoderParams:
    """Single linear identity layers for both encoders; token table given or identity."""
    if table is None:
        table = np.eye(dim)
    return EncoderParams(
        visual=DenseParams([np.eye(dim)], [np.zeros(dim)]),
        text=DenseParams([np.eye(table.shape[1])], [np.zeros(table.shape[1])]),
        token_table=np.asarray(table, dtype=np.float64),
        temperature=1.0,
    )


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
    return PairBatch(rng.standard_normal((b, obs_dim)), rng.standard_normal((b, obs_dim)), tokens)


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
        batch = PairBatch(start, end, ((0,),) * b)
        assert infonce_loss(params, batch) == pytest.approx(math.log(b), abs=1e-12)

    def test_opposed_pairs_analytic_value(self):
        # S = [[1,-1],[-1,1]] -> loss = ln(1 + e^-2)
        params = linear_identity_params(2, table=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        batch = PairBatch(
            np.zeros((2, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]]), ((0,), (1,))
        )
        assert infonce_loss(params, batch) == pytest.approx(math.log(1 + math.exp(-2)), abs=1e-12)

    def test_zero_frame_difference_rejected(self):
        params = linear_identity_params(2)
        obs = np.array([[1.0, 0.0]])
        batch = PairBatch(obs, obs, ((0,),))
        with pytest.raises(DegenerateVectorError):
            infonce_loss(params, batch)

    def test_row_rescaling_invariance(self):
        # a linear encoder turns observation scaling into embedding scaling,
        # which cosine similarity absorbs
        params = linear_identity_params(3)
        rng = np.random.default_rng(7)
        start, end = np.zeros((3, 3)), rng.standard_normal((3, 3))
        tokens = ((0,), (1,), (2,))
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
        permuted = PairBatch(
            batch.o_start[perm], batch.o_end[perm], tuple(batch.tokens[i] for i in perm)
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
        batch = PairBatch(np.zeros((2, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]]), ((0,), (1,)))
        loss = infonce_loss(params, batch)
        assert loss < 1e-6
        diag = np.array([1.0, 1.0])
        off = np.array([-1.0, -1.0])
        assert np.all(diag - off > 0.0)


class TestInfonceGradient:
    def test_batch_of_one_gradient_is_zero(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(11))
        batch = random_batch(np.random.default_rng(12), b=1)
        grads = infonce_gradient(params, batch)
        for arr in grads.arrays():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_structure_matches_params(self):
        for hidden in ((), (5,), (4, 3)):
            cfg = tiny_config(visual_hidden=hidden, text_hidden=hidden)
            params = init_encoder_params(cfg, np.random.default_rng(13))
            grads = infonce_gradient(params, random_batch(np.random.default_rng(14)))
            assert len(grads.arrays()) == len(params.arrays())
            for g, p in zip(grads.arrays(), params.arrays()):
                assert g.shape == p.shape

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
        params = EncoderParams(
            visual=DenseParams([np.array([[2.0]])], [np.zeros(1)]),
            text=DenseParams([np.array([[1.0]])], [np.zeros(1)]),
            token_table=np.array([[1.0]]),
        )
        batch = PairBatch(np.array([[0.0]]), np.array([[1.0]]), ((0,),))
        assert finite_difference_check(params, batch, 1e-5) < 1e-8

    def test_epsilon_must_be_positive(self):
        params = init_encoder_params(tiny_config(), np.random.default_rng(15))
        batch = random_batch(np.random.default_rng(16))
        with pytest.raises(ParameterError):
            finite_difference_check(params, batch, 0.0)


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
        for a, b in zip(result.params.arrays(), reference.arrays()):
            np.testing.assert_array_equal(a, b)
        assert result.loss_trace == []

    def test_deterministic_per_seed(self):
        clips, _ = synthetic_clips(np.random.default_rng(18), n_tasks=3, clips_per_task=3)
        cfg = TrainerConfig(obs_dim=12, vocab_size=11, dim=4, steps=30, seed=9)
        r1 = train_encoders(clips, cfg)
        r2 = train_encoders(clips, cfg)
        assert r1.loss_trace == r2.loss_trace
        for a, b in zip(r1.params.arrays(), r2.params.arrays()):
            np.testing.assert_array_equal(a, b)

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
        bank_v = EmbeddingBank(Modality.VISUAL, 16, tuple(ids), np.stack(rows))
        txt = text_forward(result.params, [(k,) for k in range(10)])
        bank_l = EmbeddingBank(Modality.TEXT, 16, tuple(f"t{k:02d}" for k in range(10)), txt)
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
        for a, b in zip(result.params.text.arrays(), frozen.text.arrays()):
            np.testing.assert_array_equal(a, b)
        # while the visual tower moved
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(result.params.visual.arrays(), frozen.visual.arrays())
        )


def reference_sample(clips, batch_size, rng):
    """Per-row sampler: clip, start n, length m, template, one scalar draw each."""
    o_start, o_end, tokens = [], [], []
    for _ in range(batch_size):
        clip = clips[int(rng.integers(len(clips)))]
        horizon = clip.observations.shape[0]
        n = int(rng.integers(0, horizon - 1))
        m = int(rng.integers(1, horizon - n))
        o_start.append(clip.observations[n])
        o_end.append(clip.observations[n + m])
        tokens.append(clip.templates[int(rng.integers(len(clip.templates)))])
    return np.stack(o_start), np.stack(o_end), tuple(tokens)


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


class TestBatchSampling:
    def test_segments_are_forward_in_time(self):
        clips, _ = synthetic_clips(np.random.default_rng(23), n_tasks=2, clips_per_task=2)
        rng = np.random.default_rng(24)
        for _ in range(50):
            batch = sample_pair_batch(clips, 8, rng)
            assert not np.array_equal(batch.o_start, batch.o_end)

    def test_matches_per_row_reference_sampler(self):
        clips = varied_clips(np.random.default_rng(30))
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                batch = sample_pair_batch(clips, 9, rng)
                start, end, tokens = reference_sample(clips, 9, ref_rng)
                np.testing.assert_array_equal(batch.o_start, start)
                np.testing.assert_array_equal(batch.o_end, end)
                assert batch.tokens == tokens
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_carried_token_rows_give_the_same_step(self):
        # the sampler's rows are padded to the widest template of all clips;
        # a batch compiled from its own tokens must give identical results
        clips = varied_clips(np.random.default_rng(31))
        cfg = tiny_config(vocab_size=9)
        params = init_encoder_params(cfg, np.random.default_rng(32))
        rng = np.random.default_rng(33)
        for _ in range(10):
            batch = sample_pair_batch(clips, 6, rng)
            assert batch.compiled is not None
            plain = PairBatch(batch.o_start, batch.o_end, batch.tokens)
            loss, grads = infonce_loss_and_gradient(params, batch)
            plain_loss, plain_grads = infonce_loss_and_gradient(params, plain)
            assert loss == plain_loss
            for a, b in zip(grads.arrays(), plain_grads.arrays()):
                np.testing.assert_array_equal(a, b)


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
        batch = PairBatch(np.zeros((2, 6)), np.ones((2, 6)), ((1,), (3, 9)))
        with pytest.raises(DimensionError, match="row 1: token index out of range"):
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
            batch = PairBatch(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)), tokens)
            worst = max(worst, finite_difference_check(params, batch, 1e-5))
        assert worst < 1e-4


class TestSerialization:
    def test_roundtrip_float32_exact(self, tmp_path):
        cfg = tiny_config(visual_hidden=(5, 3), text_hidden=(4,))
        params = init_encoder_params(cfg, np.random.default_rng(25))
        # float32-representable weights round-trip bit-exactly
        for arr in params.arrays():
            arr[:] = arr.astype(np.float32).astype(np.float64)
        path = tmp_path / "enc.eprm"
        save_encoder_params(params, path, extra_metadata={"note": "unit-test"})
        loaded = load_encoder_params(path)
        assert loaded.temperature == params.temperature
        for a, b in zip(loaded.arrays(), params.arrays()):
            np.testing.assert_array_equal(a, b)

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
        path = tmp_path / "bad.eprm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="outside float32 range"):
                save_encoder_params(params, path)
        assert list(tmp_path.iterdir()) == []

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
