import hashlib

import numpy as np
import pytest

from modalign import (
    CorruptConfig,
    DegenerateVectorError,
    DimensionError,
    EmbeddingBank,
    Modality,
    NoiseKind,
    ParallelVectorError,
    ParameterError,
    corrupt_bank,
    cosine_noise,
    cosine_similarity,
    gaussian_noise,
    normalize,
    orthogonal_component,
)


def cosine_cfg(alpha, seed=0):
    return CorruptConfig(NoiseKind.COSINE, alpha=alpha, seed=seed)


def gaussian_cfg(std, seed=0):
    return CorruptConfig(NoiseKind.GAUSSIAN, std=std, seed=seed)


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


class TestOrthogonalComponent:
    def test_projection_removal(self):
        out = orthogonal_component([1.0, 1.0], [1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_parallel_raises(self):
        with pytest.raises(ParallelVectorError):
            orthogonal_component([2.0, 0.0], [1.0, 0.0])

    def test_zero_reference(self):
        with pytest.raises(DegenerateVectorError):
            orthogonal_component([1.0, 0.0], [0.0, 0.0])

    def test_orthogonality_over_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = rng.standard_normal(16)
            phi = rng.standard_normal(16)
            out = orthogonal_component(v, phi)
            assert abs(np.dot(out, phi)) < 1e-9 * np.linalg.norm(out) * np.linalg.norm(phi)


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
        with pytest.raises(error):
            noise(vector, cfg, np.random.default_rng(0))

    def test_input_is_not_modified(self):
        e = np.array([3.0, 4.0, 0.0])
        cosine_noise(e, cosine_cfg(0.2), np.random.default_rng(0))
        gaussian_noise(e, gaussian_cfg(0.5), np.random.default_rng(0))
        np.testing.assert_array_equal(e, [3.0, 4.0, 0.0])


class TestCosineNoise:
    def test_alpha_one_returns_normalized_input(self):
        rng = np.random.default_rng(1)
        e = np.array([3.0, 4.0, 0.0])
        out = cosine_noise(e, cosine_cfg(1.0), rng)
        np.testing.assert_allclose(out, normalize(e), atol=1e-9)

    def test_cosine_within_alpha_band(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal(12)
        for _ in range(500):
            out = cosine_noise(e, cosine_cfg(0.2), rng)
            s = cosine_similarity(out, e)
            assert 0.2 - 1e-9 <= s <= 1.0 + 1e-9
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    def test_deterministic_given_seed(self):
        e = np.arange(1.0, 9.0)
        out1 = cosine_noise(e, cosine_cfg(0.3), np.random.default_rng(77))
        out2 = cosine_noise(e, cosine_cfg(0.3), np.random.default_rng(77))
        np.testing.assert_array_equal(out1, out2)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine_noise(np.zeros(4), cosine_cfg(0.2), np.random.default_rng(0))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ParameterError):
            cosine_noise(np.array([2.0]), cosine_cfg(0.2), np.random.default_rng(0))

    def test_realized_s_uniform_on_alpha_band(self):
        # KS statistic of realized cosines against U[alpha, 1] must sit
        # below the asymptotic 1% critical value 1.628/sqrt(n)
        alpha, n = 0.2, 10_000
        rng = np.random.default_rng(3)
        e = rng.standard_normal(16)
        draws = np.array(
            [cosine_similarity(cosine_noise(e, cosine_cfg(alpha), rng), e) for _ in range(n)]
        )
        u = np.sort((draws - alpha) / (1.0 - alpha))
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        assert ks < 1.628 / np.sqrt(n)

    def test_isotropy_in_orthogonal_subspace(self):
        # mean orthogonal component should vanish within 3 standard errors
        rng = np.random.default_rng(4)
        e = np.eye(8)[0]
        n = 4000
        residuals = np.empty((n, 8))
        for i in range(n):
            out = cosine_noise(e, cosine_cfg(0.2), rng)
            residuals[i] = out - np.dot(out, e) * e
        mean = residuals.mean(axis=0)
        stderr = residuals.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3.0 * np.maximum(stderr, 1e-12))


class TestGaussianNoise:
    def test_zero_std_is_identity(self):
        e = np.array([1.0, -2.0, 3.0])
        out = gaussian_noise(e, gaussian_cfg(0.0), np.random.default_rng(5))
        np.testing.assert_array_equal(out, e)

    def test_large_noise_reverses_direction_sometimes(self):
        # Monte-Carlo oracle for the instability failure mode: with
        # std = 10*|e|/sqrt(D), some draws flip the direction entirely
        rng = np.random.default_rng(6)
        e = rng.standard_normal(16)
        std = 10.0 * np.linalg.norm(e) / np.sqrt(16)
        flipped = 0
        for _ in range(1000):
            out = gaussian_noise(e, gaussian_cfg(std), rng)
            if cosine_similarity(out, e) < 0:
                flipped += 1
        assert flipped > 0

    def test_empirical_std_matches_config(self):
        rng = np.random.default_rng(7)
        e = np.zeros(4) + 1.0
        std = 0.7
        draws = np.stack(
            [gaussian_noise(e, gaussian_cfg(std), rng) - e for _ in range(10_000)]
        )
        measured = draws.std()
        assert abs(measured - std) / std < 0.05

    def test_small_std_converges_to_identity(self):
        rng = np.random.default_rng(8)
        dim = 16
        e = rng.standard_normal(dim)
        std = 1e-4
        inside = 0
        n = 2000
        for _ in range(n):
            out = gaussian_noise(e, gaussian_cfg(std), rng)
            if np.linalg.norm(out - e) <= 5.0 * std * np.sqrt(dim):
                inside += 1
        assert inside / n >= 0.99


class TestCorruptBank:
    def bank(self, rng, n=6, dim=8):
        return EmbeddingBank(
            Modality.VISUAL, dim, tuple(f"t{i}" for i in range(n)), rng.standard_normal((n, dim))
        )

    def test_alpha_one_normalizes_rows(self):
        bank = self.bank(np.random.default_rng(9))
        out = corrupt_bank(bank, cosine_cfg(1.0, seed=123))
        for (_, row), (_, orig) in zip(out.rows(), bank.rows()):
            np.testing.assert_allclose(row, normalize(orig), atol=1e-9)

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
            bank.modality, bank.dim, tuple(bank.task_ids[i] for i in perm), bank.values[perm]
        )
        cfg = cosine_cfg(0.4, seed=21)
        np.testing.assert_array_equal(
            corrupt_bank(permuted, cfg).values, corrupt_bank(bank, cfg).values[perm]
        )

    @pytest.mark.parametrize("cfg", [cosine_cfg(0.3, seed=4), gaussian_cfg(0.2, seed=4)])
    def test_rows_use_content_keyed_streams(self, cfg):
        # reference: one kernel call per row on a generator seeded by
        # (cfg.seed, blake2b-8 of task id, NUL, row bytes)
        bank = self.bank(np.random.default_rng(12))
        noise = cosine_noise if cfg.kind is NoiseKind.COSINE else gaussian_noise
        out = corrupt_bank(bank, cfg)
        for i, (tid, row) in enumerate(bank.rows()):
            digest = hashlib.blake2b(tid.encode("utf-8") + b"\x00" + row.tobytes(), digest_size=8)
            rng = np.random.default_rng([cfg.seed, int.from_bytes(digest.digest(), "little")])
            np.testing.assert_array_equal(out.values[i], noise(row, cfg, rng))

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
