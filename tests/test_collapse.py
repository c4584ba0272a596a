import json
import re

import numpy as np
import pytest

from modalign import (
    CollapseTransform,
    DimensionError,
    EmbeddingBank,
    EmptyBankError,
    FormatError,
    ModalignError,
    ParameterError,
    apply_to_bank,
    fit_centralize,
    fit_delete,
    gap_report,
    load_transform,
    save_transform,
    synthetic_gap_bank,
)
from modalign.errors import from_json


def make_bank(modality, rows):
    ids, vecs = zip(*rows)
    values = np.array(vecs, dtype=np.float64)
    return EmbeddingBank(modality, ids, values)


def cosine_similarity(a, b):
    """Cosine of two vectors, computed per pair as the oracle."""
    return float(np.dot(a, b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))))


class TestFitCentralize:
    def test_mean_of_rows(self):
        bank_v = make_bank("visual", [("a", [2, 0]), ("b", [4, 0])])
        bank_l = make_bank("text", [("a", [0, 1]), ("b", [0, 3])])
        t = fit_centralize(bank_v, bank_l)
        np.testing.assert_allclose(t.visual_mean, [3, 0])
        np.testing.assert_allclose(t.text_mean, [0, 2])

    def test_single_row_means(self):
        bank_v = make_bank("visual", [("a", [1.5, -2.0])])
        bank_l = make_bank("text", [("a", [0.25, 9.0])])
        t = fit_centralize(bank_v, bank_l)
        np.testing.assert_array_equal(t.visual_mean, [1.5, -2.0])
        np.testing.assert_array_equal(t.text_mean, [0.25, 9.0])

    def test_recovers_synthetic_gap(self):
        sigma = 0.1
        bank_v, bank_l = synthetic_gap_bank(
            10, 8, gap_norm=3.0, intra_noise_std=sigma, seed=7, rows_per_task=50
        )
        t = fit_centralize(bank_v, bank_l)
        diff = t.visual_mean - t.text_mean
        assert abs(np.linalg.norm(diff) - 3.0) < 6 * sigma / np.sqrt(bank_v.n)

    @pytest.mark.parametrize(
        "first, second",
        [("text", "visual"), ("visual", "visual"), ("text", "text")],
        # the ids these cases had when the modality was an enum member
        ids=["Modality.TEXT-Modality.VISUAL", "Modality.VISUAL-Modality.VISUAL", "Modality.TEXT-Modality.TEXT"],
    )
    def test_reference_modalities_must_be_visual_then_text(self, first, second):
        # a swapped pair used to store the text mean as visual_mean
        bank_a = make_bank(first, [("a", [2, 0])])
        bank_b = make_bank(second, [("a", [0, 1])])
        with pytest.raises(ParameterError, match="visual then a text"):
            fit_centralize(bank_a, bank_b)

    def test_overflowing_mean_rejected(self):
        # the inf mean used to be stored and saved to a file load_transform refuses
        bank_v = make_bank("visual", [("a", [1e308, 1.0]), ("b", [1e308, -1.0])])
        bank_l = make_bank("text", [("a", [0, 1]), ("b", [0, 3])])
        with pytest.raises(ParameterError, match="^visual mean overflows float64 at dim 0$"):
            fit_centralize(bank_v, bank_l)
        with pytest.raises(ParameterError, match="^text_mean must be a finite number"):
            CollapseTransform("centralize", 2, np.zeros(2), np.array([0.0, np.inf]))

    def test_empty_bank_rejected(self):
        empty = EmbeddingBank("visual", (), np.zeros((0, 2)))
        full = make_bank("text", [("a", [1, 2])])
        with pytest.raises(EmptyBankError):
            fit_centralize(empty, full)

    @pytest.mark.parametrize("fit", [fit_centralize, fit_delete], ids=["centralize", "delete"])
    @pytest.mark.parametrize("empty_side", ["visual", "text"])
    def test_both_fits_refuse_an_empty_reference_alike(self, fit, empty_side):
        banks = {m: make_bank(m, [("a", [1.0, 2.0]), ("b", [0.0, 1.0])]) for m in ("visual", "text")}
        banks[empty_side] = EmbeddingBank(empty_side, (), np.zeros((0, 2)))
        with pytest.raises(EmptyBankError, match="^both banks must be non-empty$"):
            fit(banks["visual"], banks["text"])

    @pytest.mark.parametrize("fit", [fit_centralize, fit_delete], ids=["centralize", "delete"])
    def test_reference_banks_of_different_dims_rejected(self, fit):
        bank_v = make_bank("visual", [("a", [1.0, 2.0])])
        bank_l = make_bank("text", [("a", [1.0, 2.0, 3.0])])
        with pytest.raises(DimensionError, match="^dimension mismatch: 2 vs 3$"):
            fit(bank_v, bank_l)


def one_row(values, modality):
    return EmbeddingBank(modality, ("a",), np.array([values], dtype=np.float64))


class TestApplyCentralize:
    def test_mean_maps_to_origin(self):
        t = CollapseTransform(
            "centralize",
            source_dim=2,
            visual_mean=np.array([3.0, 0.0]),
            text_mean=np.array([0.0, 0.0]),
        )
        out = apply_to_bank(t, one_row([3.0, 0.0], "visual"))
        np.testing.assert_array_equal(out.values, [[0, 0]])

    def test_zero_mean_is_identity(self):
        t = CollapseTransform(
            "centralize",
            source_dim=3,
            visual_mean=np.zeros(3),
            text_mean=np.zeros(3),
        )
        bank = one_row([1.0, -2.0, 0.5], "text")
        np.testing.assert_array_equal(apply_to_bank(t, bank).values, bank.values)

    def test_modality_selects_mean(self):
        t = CollapseTransform(
            "centralize",
            source_dim=2,
            visual_mean=np.array([1.0, 0.0]),
            text_mean=np.array([0.0, 1.0]),
        )
        vis = apply_to_bank(t, one_row([1.0, 1.0], "visual"))
        txt = apply_to_bank(t, one_row([1.0, 1.0], "text"))
        np.testing.assert_array_equal(vis.values, [[0, 1]])
        np.testing.assert_array_equal(txt.values, [[1, 0]])

    def test_improves_matched_cosine_on_offset_pair(self):
        bank_v, bank_l = synthetic_gap_bank(
            6, 8, gap_norm=4.0, intra_noise_std=0.05, seed=11
        )
        t = fit_centralize(bank_v, bank_l)
        out_v, out_l = apply_to_bank(t, bank_v), apply_to_bank(t, bank_l)
        before, after = [], []
        for i in range(bank_v.n):
            before.append(cosine_similarity(bank_v.values[i], bank_l.values[i]))
            after.append(cosine_similarity(out_v.values[i], out_l.values[i]))
        assert np.mean(after) > np.mean(before)

    def test_wrong_kind(self):
        # The bank-level apply dispatches on the transform's own kind, so a
        # delete transform deletes and never subtracts a mean.
        t = fit_delete(
            make_bank("visual", [("a", [1, 0, 0])]),
            make_bank("text", [("a", [0, 0, 0.5])]),
            k=1,
        )
        out = apply_to_bank(t, one_row([1.0, 0, 0], "visual"))
        assert out.dim == 2
        np.testing.assert_array_equal(out.values, [[0.0, 0.0]])


class TestFitDelete:
    def test_argmax_of_gap_profile(self):
        bank_v = make_bank("visual", [("a", [0.1, 5.0, 0.2])])
        bank_l = make_bank("text", [("a", [0.0, 0.0, 0.0])])
        t = fit_delete(bank_v, bank_l, k=1)
        assert t.deleted_dims == (1,)

    def test_tie_breaks_to_lower_index(self):
        bank_v = make_bank("visual", [("a", [3.0, 3.0, 1.0])])
        bank_l = make_bank("text", [("a", [0.0, 0.0, 0.0])])
        assert fit_delete(bank_v, bank_l, k=2).deleted_dims == (0, 1)

    def test_all_zero_gap_deletes_first(self):
        bank = make_bank("visual", [("a", [1.0, 2.0, 3.0])])
        bank_l = make_bank("text", [("a", [1.0, 2.0, 3.0])])
        assert fit_delete(bank, bank_l, k=1).deleted_dims == (0,)

    def test_k_bounds(self):
        bank_v = make_bank("visual", [("a", [1, 2])])
        bank_l = make_bank("text", [("a", [3, 4])])
        with pytest.raises(ParameterError):
            fit_delete(bank_v, bank_l, k=2)
        with pytest.raises(ParameterError):
            fit_delete(bank_v, bank_l, k=0)
        with pytest.raises(ParameterError, match="k must be a positive integer"):
            fit_delete(bank_v, bank_l, k=1.0)

    def test_numpy_integer_k(self):
        bank_v = make_bank("visual", [("a", [3.0, 3.0, 1.0])])
        bank_l = make_bank("text", [("a", [0.0, 0.0, 0.0])])
        assert fit_delete(bank_v, bank_l, k=np.int64(2)).deleted_dims == (0, 1)

    def test_overflowing_mean_refused(self):
        # both gaps used to be inf and tie, so dim 0 was deleted although dim 1 has the larger gap
        bank_v = make_bank("visual", [("a", [1e308, 1.7e308, 0.0]), ("b", [1e308, 1.7e308, 0.0])])
        bank_l = make_bank("text", [("a", [0.0, 0.0, 1.0]), ("b", [0.0, 0.0, 1.0])])
        with pytest.raises(ParameterError, match="^visual mean overflows float64 at dim 0$"):
            fit_delete(bank_v, bank_l)


class TestApplyDelete:
    def _delete(self, dims, source_dim):
        return CollapseTransform("delete", source_dim=source_dim, deleted_dims=dims)

    @pytest.mark.parametrize("source_dim", [3.5, 3.0, True])
    def test_non_integral_source_dim_rejected(self, source_dim):
        # 3.5 used to be accepted, with output_dim 2.5
        with pytest.raises(ParameterError, match="^source_dim must be integral"):
            self._delete((0,), source_dim)

    @pytest.mark.parametrize("dims", [(1.7,), (True,), (0, 2.0)])
    def test_non_integral_deleted_dims_rejected(self, dims):
        # (1.7,) used to be truncated to (1,)
        with pytest.raises(ParameterError, match="^deleted_dims must be integral"):
            self._delete(dims, 4)

    def test_numpy_integer_source_dim_stored_as_int(self):
        t = self._delete((0,), np.int64(3))
        assert t.output_dim == 2 and type(t.source_dim) is int

    def test_single_coordinate_removal(self):
        t = self._delete((1,), 3)
        out = apply_to_bank(t, one_row([7.0, 8.0, 9.0], "visual"))
        np.testing.assert_array_equal(out.values, [[7, 9]])

    def test_multi_removal_keeps_order(self):
        t = self._delete((0, 2), 4)
        out = apply_to_bank(t, one_row([1.0, 2.0, 3.0, 4.0], "text"))
        np.testing.assert_array_equal(out.values, [[2, 4]])

    def test_same_dims_for_both_modalities(self):
        t = self._delete((2,), 3)
        v = apply_to_bank(t, one_row([1.0, 2.0, 3.0], "visual"))
        l = apply_to_bank(t, one_row([4.0, 5.0, 6.0], "text"))
        np.testing.assert_array_equal(v.values, [[1, 2]])
        np.testing.assert_array_equal(l.values, [[4, 5]])

    def test_concentrated_gap_mostly_removed(self):
        # construct a gap with ~95% of its squared norm in coordinate 3
        rng = np.random.default_rng(13)
        dim, n = 8, 200
        gap = np.full(dim, 0.05)
        gap[3] = 2.0  # 4.0 of ~4.0175 squared norm sits in one coordinate
        base_v = rng.standard_normal((n, dim)) * 0.1
        base_l = rng.standard_normal((n, dim)) * 0.1
        ids = tuple(f"t{i}" for i in range(n))
        bank_v = EmbeddingBank("visual", ids, base_v + gap)
        bank_l = EmbeddingBank("text", ids, base_l)
        t = fit_delete(bank_v, bank_l, k=1)
        assert t.deleted_dims == (3,)
        before = gap_report(bank_v, bank_l).gap_norm
        after = gap_report(apply_to_bank(t, bank_v), apply_to_bank(t, bank_l)).gap_norm
        assert after <= 0.1 * before

    def test_wrong_dim(self):
        t = self._delete((0,), 3)
        with pytest.raises(DimensionError):
            apply_to_bank(t, one_row([1.0, 2.0], "visual"))


class TestInvariants:
    def test_post_centralize_bank_mean_is_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n_v, n_l, dim = rng.integers(1, 30), rng.integers(1, 30), rng.integers(2, 10)
            bank_v = EmbeddingBank(
                "visual", tuple(f"v{i}" for i in range(n_v)),
                rng.standard_normal((n_v, dim)) * 5,
            )
            bank_l = EmbeddingBank(
                "text", tuple(f"l{i}" for i in range(n_l)),
                rng.standard_normal((n_l, dim)) * 5,
            )
            t = fit_centralize(bank_v, bank_l)
            out_v = apply_to_bank(t, bank_v)
            out_l = apply_to_bank(t, bank_l)
            assert np.abs(out_v.values.mean(axis=0)).max() < 1e-9
            assert np.abs(out_l.values.mean(axis=0)).max() < 1e-9

    def test_post_centralize_gap_norm_vanishes(self):
        bank_v, bank_l = synthetic_gap_bank(7, 6, gap_norm=2.5, intra_noise_std=0.3, seed=19)
        t = fit_centralize(bank_v, bank_l)
        report = gap_report(apply_to_bank(t, bank_v), apply_to_bank(t, bank_l))
        assert report.gap_norm < 1e-9

    def test_pairwise_differences_preserved_exactly_on_dyadic_data(self):
        # On values that are multiples of 2^-20 with power-of-two row
        # counts, every subtraction is exactly representable, so the
        # preservation must hold bitwise.
        rng = np.random.default_rng(23)
        values = rng.integers(-(2**24), 2**24, size=(16, 6)).astype(np.float64) * 2.0**-20
        bank = EmbeddingBank("visual", tuple(f"t{i}" for i in range(16)), values)
        other_vals = rng.integers(-(2**24), 2**24, size=(8, 6)).astype(np.float64) * 2.0**-20
        other = EmbeddingBank("text", tuple(f"x{i}" for i in range(8)), other_vals)
        t = fit_centralize(bank, other)
        out = apply_to_bank(t, bank)
        for i in range(bank.n):
            for j in range(bank.n):
                np.testing.assert_array_equal(
                    out.values[i] - out.values[j], bank.values[i] - bank.values[j]
                )

    def test_pairwise_differences_preserved_to_ulp_on_arbitrary_data(self):
        # Full-entropy float64 values pick up at most ~1 ulp of mean-scale
        # rounding per coordinate.
        rng = np.random.default_rng(24)
        bank = EmbeddingBank(
            "visual", tuple(f"t{i}" for i in range(10)),
            rng.standard_normal((10, 6)) * 3,
        )
        other = EmbeddingBank("text", ("x",), rng.standard_normal((1, 6)))
        out = apply_to_bank(fit_centralize(bank, other), bank)
        for i in range(bank.n):
            for j in range(bank.n):
                np.testing.assert_allclose(
                    out.values[i] - out.values[j],
                    bank.values[i] - bank.values[j],
                    atol=1e-14,
                )

    def test_delete_commutes_with_row_permutation(self):
        rng = np.random.default_rng(29)
        values = rng.standard_normal((8, 5))
        ids = tuple(f"t{i}" for i in range(8))
        bank = EmbeddingBank("visual", ids, values)
        ref_l = EmbeddingBank("text", ids, rng.standard_normal((8, 5)))
        t = fit_delete(bank, ref_l, k=2)
        perm = rng.permutation(8)
        permuted = EmbeddingBank("visual", tuple(ids[i] for i in perm), values[perm])
        np.testing.assert_array_equal(
            apply_to_bank(t, permuted).values, apply_to_bank(t, bank).values[perm]
        )


class TestSerialization:
    def test_centralize_roundtrip(self, tmp_path):
        bank_v, bank_l = synthetic_gap_bank(4, 5, gap_norm=1.0, intra_noise_std=0.1, seed=31)
        t = fit_centralize(bank_v, bank_l, fit_reference="unit-test banks")
        path = tmp_path / "transform.json"
        save_transform(t, path)
        loaded = load_transform(path)
        assert loaded.kind == "centralize"
        assert loaded.fit_reference == "unit-test banks"
        np.testing.assert_array_equal(loaded.visual_mean, t.visual_mean)
        np.testing.assert_array_equal(loaded.text_mean, t.text_mean)

    def test_delete_roundtrip(self, tmp_path):
        t = CollapseTransform("delete", source_dim=6, deleted_dims=(1, 4))
        path = tmp_path / "transform.json"
        save_transform(t, path)
        loaded = load_transform(path)
        assert loaded.kind == "delete"
        assert loaded.deleted_dims == (1, 4)
        assert loaded.source_dim == 6

    def test_loaded_transform_applies_identically(self, tmp_path):
        bank_v, bank_l = synthetic_gap_bank(5, 7, gap_norm=2.0, intra_noise_std=0.2, seed=37)
        t = fit_centralize(bank_v, bank_l)
        path = tmp_path / "t.json"
        save_transform(t, path)
        loaded = load_transform(path)
        np.testing.assert_array_equal(
            apply_to_bank(loaded, bank_v).values, apply_to_bank(t, bank_v).values
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "delete", "source_dim": 4, "deleted_dims": [1.7]},
            {"kind": "delete", "source_dim": 4.9, "deleted_dims": [1]},
            {"kind": "delete", "source_dim": "x", "deleted_dims": [1]},
            {"kind": "delete", "source_dim": 4, "deleted_dims": ["1"]},
            {"kind": "delete", "source_dim": 4, "deleted_dims": [True]},
            {"kind": "delete", "source_dim": 4, "deleted_dims": "12"},
            {"kind": "centralize", "source_dim": 2, "visual_mean": [0.0, float("nan")], "text_mean": [0.0, 0.0]},
            {"kind": "centralize", "source_dim": 2, "visual_mean": [0.0, 0.0], "text_mean": [float("inf"), 0.0]},
            {"kind": "centralize", "source_dim": 2, "visual_mean": [0.0, "x"], "text_mean": [0.0, 0.0]},
            {"kind": "delete", "source_dim": 4, "deleted_dims": [0], "fit_reference": 5},
            {"kind": "delete", "source_dim": 4, "deleted_dims": [0], "fit_reference": ["banks"]},
        ],
    )
    def test_non_integral_or_non_finite_values_rejected(self, doc):
        with pytest.raises(FormatError):
            from_json(CollapseTransform, doc, "transform")

    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param(
                {"kind": "centralize", "source_dim": 2, "visual_mean": [0, 1], "text_mean": [1, 0], "deleted_dims": [0]},
                "a centralize transform does not use deleted_dims", id="centralize-with-deleted_dims",
            ),
            pytest.param(
                {"kind": "delete", "source_dim": 2, "deleted_dims": [0], "text_mean": [1, 0]},
                "a delete transform does not use text_mean", id="delete-with-text_mean",
            ),
            pytest.param(
                {"kind": "centralize", "source_dim": 2, "text_mean": [1, 0]},
                "a centralize transform needs visual_mean", id="no-visual_mean",
            ),
            pytest.param(
                {"kind": "centralize", "source_dim": 2, "visual_mean": [0, 1]},
                "a centralize transform needs text_mean", id="no-text_mean",
            ),
            pytest.param({"kind": "delete", "source_dim": 2}, "a delete transform needs deleted_dims", id="no-deleted_dims"),
        ],
    )
    def test_fields_must_be_those_of_the_kind(self, doc, message):
        # a centralize file with deleted_dims used to load, ignoring them
        with pytest.raises(ModalignError, match=message):
            from_json(CollapseTransform, doc, "transform")

    @pytest.mark.parametrize(
        "dims, message",
        [
            ([], "delete transform needs at least one dimension"),
            ([2, 1], "deleted_dims must be unique and ascending, got (2, 1)"),
            ([1, 1], "deleted_dims must be unique and ascending, got (1, 1)"),
            ([0, 1, 2], "cannot delete every dimension"),
        ],
        ids=["empty", "descending", "repeated", "every-dimension"],
    )
    def test_deleted_dims_refusals_name_the_file(self, tmp_path, dims, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "delete", "source_dim": 3, "deleted_dims": dims}))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_transform(path)

    def test_integral_values_still_load(self):
        t = from_json(CollapseTransform, {"kind": "delete", "source_dim": 4, "deleted_dims": [0, 3]}, "transform")
        assert (t.source_dim, t.deleted_dims) == (4, (0, 3))
