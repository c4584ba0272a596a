import math

import numpy as np
import pytest

from modalign import (
    DimensionError,
    EmbeddingBank,
    EmptyBankError,
    Modality,
    ParameterError,
    TaskMismatchError,
    gap_report,
    gap_vector,
    matched_pair_similarity_matrix,
    pca_project_2d,
    per_dimension_mean_gap,
    retrieval_topk_accuracy,
    synthetic_gap_bank,
)
from modalign import diagnostics
from modalign.diagnostics import shared_task_ids


def make_bank(modality, rows):
    ids, vecs = zip(*rows)
    values = np.array(vecs, dtype=np.float64)
    return EmbeddingBank(modality, ids, values)


def cosine_similarity(a, b):
    """Cosine of two vectors, computed per pair as the oracle."""
    return float(np.dot(a, b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))))


class TestGapVector:
    def test_worked_example(self):
        bank_v = make_bank(Modality.VISUAL, [("a", [1, 0]), ("b", [3, 0])])
        bank_l = make_bank(Modality.TEXT, [("a", [0, 2]), ("b", [0, 4])])
        np.testing.assert_allclose(gap_vector(bank_v, bank_l), [2, -3])

    def test_identical_banks(self):
        bank = make_bank(Modality.VISUAL, [("a", [0.5, -1.0]), ("b", [2.0, 3.0])])
        np.testing.assert_array_equal(gap_vector(bank, bank), [0, 0])

    def test_constant_offset(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((6, 4))
        offset = np.array([1.5, -2.0, 0.25, 7.0])
        bank_v = EmbeddingBank(Modality.VISUAL, tuple("abcdef"), base + offset)
        bank_l = EmbeddingBank(Modality.TEXT, tuple("abcdef"), base)
        np.testing.assert_allclose(gap_vector(bank_v, bank_l), offset, atol=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        bank_v = EmbeddingBank(Modality.VISUAL, ("a", "b"), rng.standard_normal((2, 5)))
        bank_l = EmbeddingBank(Modality.TEXT, ("a", "b", "c"), rng.standard_normal((3, 5)))
        np.testing.assert_allclose(
            gap_vector(bank_v, bank_l), -gap_vector(bank_l, bank_v), atol=1e-12
        )

    def test_empty_bank(self):
        empty = EmbeddingBank(Modality.VISUAL, (), np.zeros((0, 3)))
        full = make_bank(Modality.TEXT, [("a", [1, 2, 3])])
        with pytest.raises(EmptyBankError):
            gap_vector(empty, full)

    def test_dim_mismatch(self):
        bank_v = make_bank(Modality.VISUAL, [("a", [1, 2])])
        bank_l = make_bank(Modality.TEXT, [("a", [1, 2, 3])])
        with pytest.raises(DimensionError):
            gap_vector(bank_v, bank_l)

    @pytest.mark.parametrize(
        "visual, text, message",
        [
            ([[1e308, 0.0], [1e308, 1.0]], [[0.0, 1.0], [1.0, 0.0]], "visual mean overflows float64 at dim 0"),
            ([[0.0, 1.0], [1.0, 0.0]], [[1.0, 1.7e308], [0.0, 1.7e308]], "text mean overflows float64 at dim 1"),
            ([[1.7e308, 0.0]], [[-1.7e308, 1.0]], "gap overflows float64 at dim 0"),
        ],
        ids=["visual-mean", "text-mean", "gap"],
    )
    def test_overflow_refused_naming_the_dimension(self, visual, text, message):
        # finite rows whose means or gap overflow used to give an infinite gap and a raw numpy warning
        bank_v = EmbeddingBank(Modality.VISUAL, ("a",) * len(visual), visual)
        bank_l = EmbeddingBank(Modality.TEXT, ("a",) * len(text), text)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            gap_vector(bank_v, bank_l)


class TestPerDimensionGap:
    def test_absolute_value_of_gap(self):
        bank_v = make_bank(Modality.VISUAL, [("a", [1, 0]), ("b", [3, 0])])
        bank_l = make_bank(Modality.TEXT, [("a", [0, 2]), ("b", [0, 4])])
        np.testing.assert_allclose(per_dimension_mean_gap(bank_v, bank_l), [2, 3])

    def test_identical_banks_zero(self):
        bank = make_bank(Modality.VISUAL, [("a", [1.0, -2.0, 0.5])])
        np.testing.assert_array_equal(per_dimension_mean_gap(bank, bank), [0, 0, 0])

    def test_single_row_difference(self):
        bank_v = make_bank(Modality.VISUAL, [("a", [5.0, 0.0])])
        bank_l = make_bank(Modality.TEXT, [("a", [1.0, 0.0])])
        np.testing.assert_allclose(per_dimension_mean_gap(bank_v, bank_l), [4, 0])

    def test_one_dimensional_banks(self):
        bank_v = make_bank(Modality.VISUAL, [("a", [5.0])])
        bank_l = make_bank(Modality.TEXT, [("a", [1.0])])
        np.testing.assert_allclose(per_dimension_mean_gap(bank_v, bank_l), [4])


class TestSimilarityMatrix:
    def test_identical_per_task_vectors(self):
        rows_v = [("t1", [1, 0, 0]), ("t2", [0, 1, 0]), ("t3", [0, 0, 1])]
        bank_v = make_bank(Modality.VISUAL, rows_v)
        bank_l = make_bank(Modality.TEXT, rows_v)
        matrix = matched_pair_similarity_matrix(bank_v, bank_l)
        np.testing.assert_allclose(np.diag(matrix), np.ones(3), atol=1e-12)

    def test_worked_example(self):
        bank_v = make_bank(Modality.VISUAL, [("t1", [1, 0]), ("t2", [0, 1])])
        bank_l = make_bank(Modality.TEXT, [("t1", [1, 0]), ("t2", [1, 1])])
        matrix = matched_pair_similarity_matrix(bank_v, bank_l)
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(matrix, [[1, s], [0, s]], atol=1e-12)

    def test_task_mismatch_lists_difference(self):
        bank_v = make_bank(Modality.VISUAL, [("t1", [1, 0]), ("t2", [0, 1])])
        bank_l = make_bank(Modality.TEXT, [("t1", [1, 0]), ("t3", [0, 1])])
        with pytest.raises(TaskMismatchError, match="t2.*t3"):
            matched_pair_similarity_matrix(bank_v, bank_l)

    def test_diagonal_matches_brute_force(self):
        # oracle: cosine of per-task means computed independently
        rng = np.random.default_rng(5)
        tasks = ["a", "b", "c", "d"]
        rows_v = [(t, rng.standard_normal(6)) for t in tasks for _ in range(3)]
        rows_l = [(t, rng.standard_normal(6)) for t in tasks for _ in range(2)]
        bank_v = make_bank(Modality.VISUAL, rows_v)
        bank_l = make_bank(Modality.TEXT, rows_l)
        matrix = matched_pair_similarity_matrix(bank_v, bank_l)
        for i, task in enumerate(sorted(tasks)):
            mean_v = np.mean([r for t, r in rows_v if t == task], axis=0)
            mean_l = np.mean([r for t, r in rows_l if t == task], axis=0)
            assert matrix[i, i] == pytest.approx(cosine_similarity(mean_v, mean_l), abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_per_task_means_equal_per_task_np_mean_bit_for_bit(self, dim):
        # unequal task counts (a single-row task, counts past numpy's 8- and
        # 128-element pairwise blocks), shuffled rows and -0.0 entries
        rng = np.random.default_rng(dim)
        for counts in ([1, 3, 3, 9], [1, 200, 17, 5, 130, 2], [12]):
            tasks = [f"t{i}" for i in range(len(counts))]
            ids = [t for t, c in zip(tasks, counts) for _ in range(c)]
            rng.shuffle(ids)
            values = rng.standard_normal((len(ids), dim)) * 10.0 ** rng.uniform(-6, 6, size=(len(ids), 1))
            values[:, 0] = np.where(rng.random(len(ids)) < 0.5, -0.0, values[:, 0])
            bank = EmbeddingBank(Modality.VISUAL, ids, values)
            expected = np.stack([np.mean(values[[t == task for t in ids]], axis=0) for task in tasks])
            assert diagnostics._per_task_means(bank, tasks).tobytes() == expected.tobytes()

    def test_sorted_task_order(self):
        bank_v = make_bank(Modality.VISUAL, [("z", [1, 0]), ("a", [0, 1])])
        bank_l = make_bank(Modality.TEXT, [("a", [0, 1]), ("z", [1, 0])])
        assert shared_task_ids(bank_v, bank_l) == ["a", "z"]
        matrix = matched_pair_similarity_matrix(bank_v, bank_l)
        np.testing.assert_allclose(np.diag(matrix), [1, 1], atol=1e-12)


class TestRetrieval:
    def test_self_retrieval(self):
        rng = np.random.default_rng(6)
        bank = EmbeddingBank(
            Modality.VISUAL, tuple(f"t{i}" for i in range(5)), rng.standard_normal((5, 4))
        )
        assert retrieval_topk_accuracy(bank, bank, 1) == 1.0

    def test_permuted_wrong_assignment(self):
        # oracle: brute-force nearest neighbour is the wrong task for all rows
        eye = np.eye(3)
        bank_v = EmbeddingBank(Modality.VISUAL, ("a", "b", "c"), eye)
        bank_l = EmbeddingBank(Modality.TEXT, ("b", "c", "a"), eye)
        assert retrieval_topk_accuracy(bank_v, bank_l, 1) == 0.0

    def test_aligned_synthetic_banks(self):
        bank_v, bank_l = synthetic_gap_bank(10, 8, gap_norm=0.0, intra_noise_std=0.0, seed=9)
        assert retrieval_topk_accuracy(bank_v, bank_l, 1) == 1.0

    def test_numpy_integer_k(self):
        bank_v, bank_l = synthetic_gap_bank(6, 4, gap_norm=1.0, intra_noise_std=0.5, seed=2)
        for k in (1, 2, 5):
            assert retrieval_topk_accuracy(bank_v, bank_l, np.int64(k)) == retrieval_topk_accuracy(bank_v, bank_l, k)
        with pytest.raises(ParameterError, match="k must be a positive integer"):
            retrieval_topk_accuracy(bank_v, bank_l, 2.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(8)
        ids = tuple(f"t{i % 4}" for i in range(12))
        bank_v = EmbeddingBank(Modality.VISUAL, ids, rng.standard_normal((12, 5)))
        bank_l = EmbeddingBank(Modality.TEXT, ids, rng.standard_normal((12, 5)))
        accs = [retrieval_topk_accuracy(bank_v, bank_l, k) for k in range(1, 13)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        ids_q = tuple(f"t{i % 3}" for i in range(8))
        ids_g = tuple(f"t{i % 3}" for i in range(9))
        bank_q = EmbeddingBank(Modality.VISUAL, ids_q, rng.standard_normal((8, 4)))
        bank_g = EmbeddingBank(Modality.TEXT, ids_g, rng.standard_normal((9, 4)))
        for k in (1, 2, 5):
            hits = 0
            for q in range(bank_q.n):
                sims = []
                for g in range(bank_g.n):
                    sims.append(
                        (-cosine_similarity(bank_q.values[q], bank_g.values[g]), ids_g[g], g)
                    )
                sims.sort()
                if any(tid == ids_q[q] for _, tid, _ in sims[:k]):
                    hits += 1
            assert retrieval_topk_accuracy(bank_q, bank_g, k) == pytest.approx(hits / bank_q.n)

    def test_parameter_errors(self):
        bank = make_bank(Modality.VISUAL, [("a", [1, 0])])
        with pytest.raises(ParameterError):
            retrieval_topk_accuracy(bank, bank, 0)
        with pytest.raises(ParameterError):
            retrieval_topk_accuracy(bank, bank, 2)

    def test_query_task_missing_from_gallery(self):
        bank_q = make_bank(Modality.VISUAL, [("a", [1, 0]), ("b", [0, 1])])
        bank_g = make_bank(Modality.TEXT, [("a", [1, 0])])
        with pytest.raises(TaskMismatchError, match="b"):
            retrieval_topk_accuracy(bank_q, bank_g, 1)

    def test_empty_query_bank_rejected(self):
        gallery = make_bank(Modality.TEXT, [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        empty = EmbeddingBank(Modality.VISUAL, (), np.zeros((0, 2)))
        with pytest.raises(EmptyBankError, match="query bank"):
            retrieval_topk_accuracy(empty, gallery, 1)

    def test_ties_break_by_task_id_then_index(self):
        # all gallery rows identical, so similarity ties everywhere and the
        # lexicographically smallest task id must win top-1
        query = make_bank(Modality.VISUAL, [("aa", [1.0, 0.0]), ("zz", [1.0, 0.0])])
        gallery = make_bank(
            Modality.TEXT, [("zz", [1.0, 0.0]), ("aa", [1.0, 0.0]), ("mm", [1.0, 0.0])]
        )
        assert retrieval_topk_accuracy(query, gallery, 1) == 0.5  # only "aa" hits
        assert retrieval_topk_accuracy(query, gallery, 2) == 0.5  # "aa", "mm"
        assert retrieval_topk_accuracy(query, gallery, 3) == 1.0


    def test_ties_with_gallery_ids_out_of_row_order(self):
        # exact ties (scaled copies of axis vectors) among gallery rows whose
        # ids are not sorted by row; checked against a brute-force sort by
        # (similarity desc, task_id, row)
        rng = np.random.default_rng(14)
        axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
        names = ["q", "b", "zz", "a", "m", "b2"]
        g_ids = tuple(names[i] for i in rng.integers(0, len(names), size=30))
        g_vals = axes[rng.integers(0, 4, size=30)] * rng.integers(1, 4, size=(30, 1))
        q_ids = tuple(g_ids[i] for i in rng.integers(0, 30, size=12))
        q_vals = axes[rng.integers(0, 4, size=12)]
        gallery = EmbeddingBank(Modality.TEXT, g_ids, g_vals)
        query = EmbeddingBank(Modality.VISUAL, q_ids, q_vals)
        for k in (1, 2, 3, 7):
            hits = 0
            for q in range(query.n):
                ranked = sorted(
                    range(gallery.n),
                    key=lambda g: (-cosine_similarity(q_vals[q], g_vals[g]), g_ids[g], g),
                )
                hits += any(g_ids[g] == q_ids[q] for g in ranked[:k])
            assert retrieval_topk_accuracy(query, gallery, k) == hits / query.n


def stable_sort_retrieval(query, gallery, k):
    """Per-query reference: rank gallery rows by similarity (desc), ties by
    (task_id, row), and count the queries with a same-task row in the top k."""
    q_vals = query.values / np.linalg.norm(query.values, axis=1, keepdims=True)
    g_vals = gallery.values / np.linalg.norm(gallery.values, axis=1, keepdims=True)
    sims = q_vals @ g_vals.T
    hits = 0
    for q, tid in enumerate(query.task_ids):
        ranked = sorted(range(gallery.n), key=lambda g: (-sims[q, g], gallery.task_ids[g], g))
        hits += any(gallery.task_ids[g] == tid for g in ranked[:k])
    return hits / query.n


def tie_heavy_pair(rng, n_query, n_gallery, dim=3):
    """Small-integer rows (many exact ties) under shuffled, repeated ids."""
    names = ["q", "b", "zz", "a", "m", "b2", "c"]
    g_ids = tuple(names[i] for i in rng.integers(0, len(names), size=n_gallery))
    q_ids = tuple(g_ids[i] for i in rng.integers(0, n_gallery, size=n_query))
    def rows(n):
        vals = rng.integers(-2, 3, size=(n, dim)).astype(float)
        vals[~vals.any(axis=1), 0] = 1.0
        return vals
    return (
        EmbeddingBank(Modality.VISUAL, q_ids, rows(n_query)),
        EmbeddingBank(Modality.TEXT, g_ids, rows(n_gallery)),
    )


class TestBlockedRetrieval:
    """retrieval_topk_accuracy ranks queries in blocks of rows; it must give
    the per-query stable-sort result for every block split."""

    @pytest.mark.parametrize("block", [1, 4, 256])
    @pytest.mark.parametrize("n_query", [1, 9, 263])
    def test_matches_stable_sort_reference(self, monkeypatch, block, n_query):
        monkeypatch.setattr(diagnostics, "_QUERY_BLOCK", block)
        rng = np.random.default_rng([n_query, block])
        query, gallery = tie_heavy_pair(rng, n_query, 23)
        for k in (1, 2, 3, 7, gallery.n):
            assert retrieval_topk_accuracy(query, gallery, k) == stable_sort_retrieval(query, gallery, k)

    def test_many_random_tie_heavy_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            query, gallery = tie_heavy_pair(
                rng, int(rng.integers(1, 40)), int(rng.integers(8, 30)), dim=int(rng.integers(1, 4))
            )
            for k in (1, 2, 3, 7):
                assert retrieval_topk_accuracy(query, gallery, k) == stable_sort_retrieval(query, gallery, k)

    def test_all_rows_tied(self):
        # every similarity is 1, so only the id order decides the ranks
        ids = ("m", "c", "z", "c", "a")
        gallery = EmbeddingBank(Modality.TEXT, ids, np.ones((5, 2)))
        query = EmbeddingBank(Modality.VISUAL, ("z",), np.ones((1, 2)))
        assert [retrieval_topk_accuracy(query, gallery, k) for k in range(1, 6)] == [0, 0, 0, 0, 1]


class TestPca:
    def test_recovers_planar_distances(self):
        # points living in a 2-d coordinate plane of a 5-d space: projection
        # must preserve all pairwise distances
        rng = np.random.default_rng(21)
        n = 12
        flat = np.zeros((n, 5))
        flat[:, 1] = rng.standard_normal(n) * 3
        flat[:, 3] = rng.standard_normal(n) * 2
        bank = EmbeddingBank(Modality.VISUAL, tuple(f"t{i}" for i in range(n)), flat)
        coords = pca_project_2d([bank])
        assert coords.shape == (n, 2)
        for i in range(n):
            for j in range(n):
                original = np.linalg.norm(flat[i] - flat[j])
                projected = np.linalg.norm(coords[i] - coords[j])
                assert projected == pytest.approx(original, abs=1e-6)

    def test_identical_rows_map_to_origin(self):
        bank = make_bank(Modality.TEXT, [("a", [2.0, 3.0, 4.0]), ("a", [2.0, 3.0, 4.0])])
        np.testing.assert_allclose(pca_project_2d([bank]), np.zeros((2, 2)), atol=1e-12)

    def test_gap_separates_clusters(self):
        bank_v, bank_l = synthetic_gap_bank(8, 6, gap_norm=6.0, intra_noise_std=0.05, seed=2)
        vis, txt = np.split(pca_project_2d([bank_v, bank_l]), [bank_v.n])
        centroid_gap = np.linalg.norm(vis.mean(axis=0) - txt.mean(axis=0))
        radius_v = np.linalg.norm(vis - vis.mean(axis=0), axis=1).mean()
        radius_l = np.linalg.norm(txt - txt.mean(axis=0), axis=1).mean()
        assert centroid_gap > max(radius_v, radius_l)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(30)
        values = rng.standard_normal((10, 6))
        ids = tuple(f"t{i}" for i in range(10))
        bank = EmbeddingBank(Modality.VISUAL, ids, values)
        perm = rng.permutation(10)
        shuffled = EmbeddingBank(
            Modality.VISUAL, tuple(ids[i] for i in perm), values[perm]
        )
        # shuffled row k is row perm[k] of the bank
        np.testing.assert_allclose(pca_project_2d([shuffled]), pca_project_2d([bank])[perm], atol=1e-9)

    def test_too_few_rows(self):
        bank = make_bank(Modality.VISUAL, [("a", [1, 2])])
        with pytest.raises(EmptyBankError):
            pca_project_2d([bank])

    @pytest.mark.parametrize("rows, message", [
        ([[1e308, 0, 0], [1e308, 1, 0], [0, 0, 1]], "^pooled mean overflows float64 at dim 0$"),
        ([[1.7e308, 0, 0], [-1.7e308, 0, 1], [-1.7e308, 1, 0]], "^row 0 overflows float64 at dim 0 once centered$"),
    ], ids=["mean", "centered"])
    def test_overflowing_rows_refused(self, rows, message):
        # np.linalg.svd used to run without returning on the non-finite centered rows
        bank = EmbeddingBank(Modality.VISUAL, ("a", "b", "c"), rows)
        with pytest.raises(ParameterError, match=message):
            pca_project_2d([bank])


class TestExport:
    def test_csv_and_json_exports(self, tmp_path):
        from modalign.diagnostics import (
            export_gap_report,
            export_pca_points,
            export_per_dim_gap,
            export_similarity_matrix,
            shared_task_ids,
        )

        bank_v, bank_l = synthetic_gap_bank(4, 5, gap_norm=1.5, intra_noise_std=0.1, seed=8)
        report = gap_report(bank_v, bank_l)
        export_gap_report(report, tmp_path / "report.json")
        import json

        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["aggregation"] == "per_task_mean"
        assert doc["gap_norm"] == report.gap_norm

        tasks = shared_task_ids(bank_v, bank_l)
        matrix = matched_pair_similarity_matrix(bank_v, bank_l)
        export_similarity_matrix(tasks, matrix, tmp_path / "sim.csv")
        lines = (tmp_path / "sim.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "visual_task," + ",".join(tasks)
        assert len(lines) == 1 + len(tasks)

        export_per_dim_gap(gap_vector(bank_v, bank_l), tmp_path / "gap.csv")
        gap_lines = (tmp_path / "gap.csv").read_text().splitlines()
        assert gap_lines[0] == "dim,gap,abs_gap"
        assert len(gap_lines) == 1 + bank_v.dim
        assert "," in gap_lines[1] and ";" not in gap_lines[1]  # '.' decimals

        coords = pca_project_2d([bank_v, bank_l])
        export_pca_points([bank_v, bank_l], coords, tmp_path / "pca.csv")
        pca_lines = (tmp_path / "pca.csv").read_text().splitlines()
        assert pca_lines[0] == "modality,task_id,x,y"
        assert len(pca_lines) == 1 + bank_v.n + bank_l.n
        # rows follow the banks in order, each labelled by its own bank
        (x0, y0), (x1, y1) = coords[0].tolist(), coords[-1].tolist()
        assert pca_lines[1] == f"visual,{bank_v.task_ids[0]},{x0!r},{y0!r}"
        assert pca_lines[-1] == f"text,{bank_l.task_ids[-1]},{x1!r},{y1!r}"
        with pytest.raises(DimensionError):
            export_pca_points([bank_v], coords, tmp_path / "pca.csv")


class TestGapReport:
    def test_identical_banks(self):
        rng = np.random.default_rng(31)
        ids = tuple(f"t{i}" for i in range(4))
        values = rng.standard_normal((4, 5))
        bank_v = EmbeddingBank(Modality.VISUAL, ids, values)
        bank_l = EmbeddingBank(Modality.TEXT, ids, values)
        report = gap_report(bank_v, bank_l)
        assert report.gap_norm == pytest.approx(0.0, abs=1e-12)
        assert report.matched_pair_mean_cosine == pytest.approx(1.0, abs=1e-12)
        assert report.retrieval_top1_v2t == 1.0
        assert report.retrieval_top1_t2v == 1.0

    def test_injected_gap_recovered(self):
        # construction oracle: the bank builder injects a gap of known norm
        sigma = 0.1
        bank_v, bank_l = synthetic_gap_bank(
            12, 10, gap_norm=2.0, intra_noise_std=sigma, seed=3, rows_per_task=40
        )
        report = gap_report(bank_v, bank_l)
        n = bank_v.n
        assert abs(report.gap_norm - 2.0) < 3 * sigma / math.sqrt(n) + 3 * sigma / math.sqrt(n)

    def test_report_internal_consistency(self):
        bank_v, bank_l = synthetic_gap_bank(5, 6, gap_norm=1.0, intra_noise_std=0.2, seed=4)
        report = gap_report(bank_v, bank_l)
        assert report.gap_norm == pytest.approx(np.linalg.norm(report.gap_vector), abs=1e-9)
        np.testing.assert_allclose(
            report.per_dim_abs_mean_gap, np.abs(report.gap_vector), atol=1e-9
        )
        assert 0.0 <= report.retrieval_top1_v2t <= 1.0
        assert 0.0 <= report.retrieval_top1_t2v <= 1.0
