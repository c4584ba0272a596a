import hashlib

import numpy as np
import pytest

from modalign import (
    CorruptConfig,
    DegenerateVectorError,
    DimensionError,
    EmbeddingBank,
    ParameterError,
    corrupt_bank,
)
from modalign import corrupt
from modalign.corrupt import NOISE_KINDS, _perpendicular


def cosine_cfg(alpha, seed=0):
    return CorruptConfig("cosine", alpha=alpha, seed=seed)


def gaussian_cfg(std, seed=0):
    return CorruptConfig("gaussian", std=std, seed=seed)


# Per-row reference: the 1-d kernels corrupt_bank replaced, each run on a
# generator keyed by (cfg.seed, blake2b-8 of task id, NUL, row bytes).


def as_row(values):
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"expected a non-empty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ParameterError("vector entries must be finite")
    return v


def cosine_noise(v, cfg, rng):
    values = as_row(v)
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        raise DegenerateVectorError("cannot corrupt a zero vector")
    if values.size < 2:
        raise ParameterError("cosine noise needs dim >= 2 for an orthogonal direction")
    s = float(rng.uniform(cfg.alpha, 1.0))
    while True:
        candidate = rng.standard_normal(values.size)
        perp = candidate - (np.dot(candidate, values) / float(np.dot(values, values))) * values
        if float(np.linalg.norm(perp)) > 1e-12 * float(np.linalg.norm(candidate)):
            break
    perp /= np.linalg.norm(perp)
    return s * (values / norm) + np.sqrt(max(1.0 - s * s, 0.0)) * perp


def gaussian_noise(v, cfg, rng):
    values = as_row(v)
    return values + rng.normal(0.0, cfg.std, size=values.size)


def row_stream(seed, tid, row):
    digest = hashlib.blake2b(tid.encode("utf-8") + b"\x00" + row.tobytes(), digest_size=8)
    return np.random.default_rng([seed, int.from_bytes(digest.digest(), "little")])


def reference_values(bank, cfg, stream=row_stream):
    noise = cosine_noise if cfg.kind == "cosine" else gaussian_noise
    out = np.empty_like(bank.values)
    for i, (tid, row) in enumerate(zip(bank.task_ids, bank.values)):
        out[i] = noise(row, cfg, stream(cfg.seed, tid, row))
    return out


def anchor_bank(anchors, repeats):
    """Each anchor row repeated, every copy under its own task id, so each
    copy is corrupted by its own stream."""
    values = np.repeat(np.atleast_2d(anchors), repeats, axis=0)
    return EmbeddingBank(
        "visual", tuple(f"r{i}" for i in range(len(values))), values
    )


def cosines(out, bank):
    return np.array([np.dot(o, e) / (np.linalg.norm(o) * np.linalg.norm(e)) for o, e in zip(out, bank)])


class TestConfig:
    def test_alpha_bounds(self):
        cosine_cfg(0.2)
        cosine_cfg(1.0)
        with pytest.raises(ParameterError):
            cosine_cfg(-1.0)
        with pytest.raises(ParameterError):
            cosine_cfg(1.5)

    def test_std_bounds(self):
        gaussian_cfg(0.0)
        for std in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="std"):
                gaussian_cfg(std)

    # explicit ids keep these cases' names in test reports stable
    @pytest.mark.parametrize("kind", NOISE_KINDS, ids=["NoiseKind.COSINE", "NoiseKind.GAUSSIAN"])
    @pytest.mark.parametrize(
        "field, inside, outside",
        [
            ("alpha", 1.0, np.nextafter(1.0, 2.0)),
            ("alpha", np.nextafter(-1.0, 0.0), -1.0),
            ("alpha", 0, "x"),
            ("std", 0.0, -5e-324),
            ("std", 1e300, float("nan")),
            ("seed", 0, -1),
            ("seed", np.int64(3), 2.5),
        ],
    )
    def test_every_field_checked_whatever_the_kind(self, kind, field, inside, outside):
        assert getattr(CorruptConfig(kind, **{field: inside}), field) == inside
        with pytest.raises(ParameterError, match=f"^{field} must be "):
            CorruptConfig(kind, **{field: outside})

    def test_kind_must_be_a_noise_kind(self):
        with pytest.raises(ParameterError, match="^kind must be one of cosine, gaussian, got 'laplace'$"):
            CorruptConfig("laplace")


class TestOrthogonalComponent:
    def test_projection_removal(self):
        perp, parallel = _perpendicular(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]), np.array([1.0]))
        np.testing.assert_allclose(perp, [[0.0, 1.0]], atol=1e-12)
        assert not parallel[0]

    def test_parallel_draw_flagged(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        _, parallel = _perpendicular(np.array([[2.0, 0.0], [2.0, 1.0]]), rows, np.array([1.0, 1.0]))
        assert parallel.tolist() == [True, False]

    def test_zero_reference(self):
        bank = EmbeddingBank("visual", ("a", "b", "c"), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DegenerateVectorError, match="^cannot corrupt row 2: it is a zero vector$"):
            corrupt_bank(bank, cosine_cfg(0.2))

    def test_orthogonality_over_random_draws(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((1000, 16))
        phi = rng.standard_normal((1000, 16))
        out, parallel = _perpendicular(v, phi, np.array([np.dot(p, p) for p in phi]))
        assert not parallel.any()
        for o, p in zip(out, phi):
            assert abs(np.dot(o, p)) < 1e-9 * np.linalg.norm(o) * np.linalg.norm(p)


class TestNoiseInput:
    @pytest.mark.parametrize(
        "noise, cfg", [(cosine_noise, cosine_cfg(0.2)), (gaussian_noise, gaussian_cfg(0.1))]
    )
    @pytest.mark.parametrize(
        "vector, error",
        [
            (np.ones((2, 3)), DimensionError),
            (np.array([]), DimensionError),
            (np.array([1.0, np.nan, 0.0]), ParameterError),
            (np.array([1.0, np.inf, 0.0]), ParameterError),
        ],
    )
    def test_malformed_vector_rejected(self, noise, cfg, vector, error):
        # what the per-row kernel refused, the bank path refuses with the
        # same class, before any noise is drawn
        with pytest.raises(error):
            noise(vector, cfg, np.random.default_rng(0))
        rows = np.atleast_2d(vector)
        with pytest.raises(error):
            corrupt_bank(EmbeddingBank("visual", ("a",), rows), cfg)

    def test_overflowing_norm_rejected_naming_the_row(self):
        # its squared norm used to overflow, leaving a row far outside the alpha-cone
        bank = EmbeddingBank("visual", ("a", "b"), [[3.0, 4.0, 0.0], [1e200, 0.0, -1e200]])
        with pytest.raises(ParameterError, match="^cannot corrupt row 1: its squared norm overflows float64$"):
            corrupt_bank(bank, cosine_cfg(0.2))
        assert np.isfinite(corrupt_bank(bank, gaussian_cfg(0.1)).values).all()

    def test_input_is_not_modified(self):
        bank = EmbeddingBank("visual", ("a", "b"), [[3.0, 4.0, 0.0], [0.0, 1.0, 2.0]])
        corrupt_bank(bank, cosine_cfg(0.2))
        corrupt_bank(bank, gaussian_cfg(0.5))
        np.testing.assert_array_equal(bank.values, [[3.0, 4.0, 0.0], [0.0, 1.0, 2.0]])


class TestCosineNoise:
    def test_alpha_one_returns_normalized_input(self):
        bank = anchor_bank([3.0, 4.0, 0.0], 5)
        out = corrupt_bank(bank, cosine_cfg(1.0, seed=1))
        np.testing.assert_allclose(out.values, np.tile([0.6, 0.8, 0.0], (5, 1)), atol=1e-9)

    def test_cosine_within_alpha_band(self):
        rng = np.random.default_rng(2)
        bank = anchor_bank(rng.standard_normal(12), 500)
        out = corrupt_bank(bank, cosine_cfg(0.2, seed=2)).values
        s = cosines(out, bank.values)
        assert np.all((0.2 - 1e-9 <= s) & (s <= 1.0 + 1e-9))
        assert max(abs(np.linalg.norm(o) - 1.0) for o in out) <= 1e-9

    def test_deterministic_given_seed(self):
        bank = anchor_bank(np.arange(1.0, 9.0), 4)
        out1 = corrupt_bank(bank, cosine_cfg(0.3, seed=77))
        out2 = corrupt_bank(bank, cosine_cfg(0.3, seed=77))
        np.testing.assert_array_equal(out1.values, out2.values)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError, match="^cannot corrupt row 0: it is a zero vector$"):
            corrupt_bank(anchor_bank(np.zeros(4), 1), cosine_cfg(0.2))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ParameterError):
            corrupt_bank(anchor_bank([2.0], 1), cosine_cfg(0.2))

    def test_realized_s_uniform_on_alpha_band(self):
        # KS statistic of realized cosines against U[alpha, 1] must sit
        # below the asymptotic 1% critical value 1.628/sqrt(n)
        alpha, n = 0.2, 10_000
        rng = np.random.default_rng(3)
        bank = anchor_bank(rng.standard_normal(16), n)
        draws = cosines(corrupt_bank(bank, cosine_cfg(alpha, seed=3)).values, bank.values)
        u = np.sort((draws - alpha) / (1.0 - alpha))
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        assert ks < 1.628 / np.sqrt(n)

    def test_isotropy_in_orthogonal_subspace(self):
        # mean orthogonal component should vanish within 3 standard errors
        e = np.eye(8)[0]
        n = 4000
        out = corrupt_bank(anchor_bank(e, n), cosine_cfg(0.2, seed=4)).values
        residuals = np.array([o - np.dot(o, e) * e for o in out])
        mean = residuals.mean(axis=0)
        stderr = residuals.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3.0 * np.maximum(stderr, 1e-12))


class TestGaussianNoise:
    def test_zero_std_is_identity(self):
        bank = anchor_bank([1.0, -2.0, 3.0], 3)
        out = corrupt_bank(bank, gaussian_cfg(0.0, seed=5))
        np.testing.assert_array_equal(out.values, bank.values)

    def test_large_noise_reverses_direction_sometimes(self):
        # Monte-Carlo oracle for the instability failure mode: with
        # std = 10*|e|/sqrt(D), some draws flip the direction entirely
        rng = np.random.default_rng(6)
        e = rng.standard_normal(16)
        std = 10.0 * np.linalg.norm(e) / np.sqrt(16)
        bank = anchor_bank(e, 1000)
        out = corrupt_bank(bank, gaussian_cfg(std, seed=6)).values
        assert np.sum(cosines(out, bank.values) < 0) > 0

    def test_empirical_std_matches_config(self):
        std = 0.7
        bank = anchor_bank(np.zeros(4) + 1.0, 10_000)
        draws = corrupt_bank(bank, gaussian_cfg(std, seed=7)).values - bank.values
        measured = draws.std()
        assert abs(measured - std) / std < 0.05

    def test_small_std_converges_to_identity(self):
        rng = np.random.default_rng(8)
        dim = 16
        std = 1e-4
        n = 2000
        bank = anchor_bank(rng.standard_normal(dim), n)
        out = corrupt_bank(bank, gaussian_cfg(std, seed=8)).values
        inside = sum(np.linalg.norm(o - e) <= 5.0 * std * np.sqrt(dim) for o, e in zip(out, bank.values))
        assert inside / n >= 0.99


class TestCorruptBank:
    def bank(self, rng, n=6, dim=8):
        return EmbeddingBank(
            "visual", tuple(f"t{i}" for i in range(n)), rng.standard_normal((n, dim))
        )

    def test_alpha_one_normalizes_rows(self):
        bank = self.bank(np.random.default_rng(9))
        out = corrupt_bank(bank, cosine_cfg(1.0, seed=123))
        for row, orig in zip(out.values, bank.values):
            np.testing.assert_allclose(row, orig / np.linalg.norm(orig), atol=1e-9)

    def test_deterministic(self):
        bank = self.bank(np.random.default_rng(10))
        out1 = corrupt_bank(bank, cosine_cfg(0.2, seed=5))
        out2 = corrupt_bank(bank, cosine_cfg(0.2, seed=5))
        np.testing.assert_array_equal(out1.values, out2.values)

    def test_commutes_with_row_permutation(self):
        rng = np.random.default_rng(11)
        bank = self.bank(rng, n=10)
        perm = rng.permutation(10)
        permuted = EmbeddingBank(
            bank.modality, tuple(bank.task_ids[i] for i in perm), bank.values[perm]
        )
        cfg = cosine_cfg(0.4, seed=21)
        np.testing.assert_array_equal(
            corrupt_bank(permuted, cfg).values, corrupt_bank(bank, cfg).values[perm]
        )

    @pytest.mark.parametrize("cfg", [cosine_cfg(0.3, seed=4), gaussian_cfg(0.2, seed=4)])
    def test_rows_use_content_keyed_streams(self, cfg):
        bank = self.bank(np.random.default_rng(12))
        np.testing.assert_array_equal(corrupt_bank(bank, cfg).values, reference_values(bank, cfg))

    @pytest.mark.parametrize("dim", [2, 3, 16, 512])
    @pytest.mark.parametrize(
        "cfg",
        [cosine_cfg(a, seed=6) for a in (-0.9, 0.2, 1.0)] + [gaussian_cfg(s, seed=6) for s in (0.0, 0.1)],
        ids=["cosine-0.9", "cosine0.2", "cosine1.0", "gaussian0.0", "gaussian0.1"],
    )
    def test_bit_identical_to_per_row_reference(self, dim, cfg):
        rng = np.random.default_rng(dim)
        values = rng.standard_normal((40, dim)) * rng.uniform(0.1, 10.0, (40, 1))
        bank = EmbeddingBank("text", tuple(f"t{i % 7}" for i in range(40)), values)
        np.testing.assert_array_equal(corrupt_bank(bank, cfg).values, reference_values(bank, cfg))

    @pytest.mark.parametrize("dim", [1, 2, 16])
    @pytest.mark.parametrize("cfg", [cosine_cfg(0.2), gaussian_cfg(0.1)])
    def test_empty_bank(self, dim, cfg):
        out = corrupt_bank(EmbeddingBank("visual", (), np.zeros((0, dim))), cfg)
        assert out.n == 0 and out.dim == dim

    def test_parallel_draw_is_redrawn_from_its_row_stream(self, monkeypatch):
        class ParallelFirst:
            """Row t<i>'s content-keyed stream, except that its first i % 3
            normal draws are replaced by -2 times the row, exactly parallel
            to it."""

            def __init__(self, seed, tid, row):
                self.rng = row_stream(seed, tid, row)
                self.row = row
                self.parallel = int(tid[1:]) % 3

            def uniform(self, low, high):
                return self.rng.uniform(low, high)

            def standard_normal(self, size):
                draw = self.rng.standard_normal(size)
                if self.parallel:
                    self.parallel -= 1
                    return -2.0 * self.row
                return draw

        bank = self.bank(np.random.default_rng(14), n=9, dim=5)
        cfg = cosine_cfg(0.2, seed=3)
        monkeypatch.setattr(corrupt, "_row_stream", ParallelFirst)
        out = corrupt_bank(bank, cfg).values
        np.testing.assert_array_equal(out, reference_values(bank, cfg, ParallelFirst))
        monkeypatch.undo()
        redrawn = np.arange(9) % 3 != 0
        assert not np.array_equal(out[redrawn], corrupt_bank(bank, cfg).values[redrawn])
        s = cosines(out, bank.values)
        assert np.all((0.2 - 1e-9 <= s) & (s <= 1.0 + 1e-9))

    def test_retrieval_degrades_gently_with_alpha(self):
        # Monte-Carlo sweep: stronger corruption (smaller alpha) cannot beat
        # weaker corruption by more than sampling noise
        from modalign import retrieval_topk_accuracy, synthetic_gap_bank

        bank_v, bank_l = synthetic_gap_bank(
            10, 16, gap_norm=0.0, intra_noise_std=0.02, seed=13, rows_per_task=6
        )
        accs = {}
        for alpha in (0.2, 0.5, 0.8):
            corrupted = corrupt_bank(bank_v, cosine_cfg(alpha, seed=3))
            accs[alpha] = retrieval_topk_accuracy(corrupted, bank_l, 1)
        assert accs[0.2] >= accs[0.8] - 0.25
        assert accs[0.8] >= accs[0.5] >= accs[0.2] - 0.35
