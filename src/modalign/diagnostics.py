"""Modality-gap diagnostics between a visual and a text embedding bank.

Covers per-dimension mean gaps, task-aggregated similarity heatmaps,
cross-modal retrieval accuracy, a deterministic 2-d PCA projection, and
CSV/JSON export of all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .banks import EmbeddingBank, mean_row, row_norms, unit_rows
from .errors import DimensionError, EmptyBankError, ParameterError, TaskMismatchError, is_integer, refuse_first
from .fileio import csv_text, json_text, write_atomic

# The heatmap aggregates multiple rows per task as the per-task mean; this
# tag is recorded in exported reports so downstream plots know the convention.
TASK_AGGREGATION = "per_task_mean"

_QUERY_BLOCK = 256  # query rows per block of retrieval_topk_accuracy temporaries


@dataclass(frozen=True)
class GapReport:
    """Scalar and per-dimension statistics of the gap between two banks."""

    dim: int
    gap_vector: np.ndarray
    per_dim_abs_mean_gap: np.ndarray
    similarity_matrix: np.ndarray  # matched_pair_similarity_matrix of the pair
    gap_norm: float
    matched_pair_mean_cosine: float
    retrieval_top1_v2t: float
    retrieval_top1_t2v: float
    n_visual: int
    n_text: int

    def to_json_dict(self) -> dict:
        """Every field but the similarity matrix, arrays as lists, and the aggregation tag."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "similarity_matrix"}
        doc = {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in doc.items()}
        return {**doc, "aggregation": TASK_AGGREGATION}


def _check_pair(bank_v: EmbeddingBank, bank_l: EmbeddingBank) -> None:
    if bank_v.n == 0 or bank_l.n == 0:
        raise EmptyBankError("both banks must be non-empty")
    if bank_v.dim != bank_l.dim:
        raise DimensionError(f"dimension mismatch: {bank_v.dim} vs {bank_l.dim}")


def gap_vector(bank_v: EmbeddingBank, bank_l: EmbeddingBank) -> np.ndarray:
    """Componentwise mean(visual rows) - mean(text rows). A mean or a gap
    entry that overflows float64 is a ParameterError naming its dimension."""
    _check_pair(bank_v, bank_l)
    mean_v, mean_l = mean_row(bank_v.values, "visual mean"), mean_row(bank_l.values, "text mean")
    with np.errstate(over="ignore"):  # an overflowed entry is reported below
        gap = mean_v - mean_l
    refuse_first(~np.isfinite(gap), ParameterError, lambda i: f"gap overflows float64 at dim {i}")
    return gap


def per_dimension_mean_gap(bank_v: EmbeddingBank, bank_l: EmbeddingBank) -> np.ndarray:
    """Absolute value of gap_vector; the per-dimension gap profile."""
    return np.abs(gap_vector(bank_v, bank_l))


def shared_task_ids(bank_v: EmbeddingBank, bank_l: EmbeddingBank) -> list[str]:
    """The common task ids, sorted lexicographically.

    Raises TaskMismatchError listing the symmetric difference when the two
    banks do not cover the same task set.
    """
    tasks_v = set(bank_v.task_ids)
    tasks_l = set(bank_l.task_ids)
    if tasks_v != tasks_l:
        diff = sorted(tasks_v.symmetric_difference(tasks_l))
        raise TaskMismatchError(f"task sets differ; symmetric difference: {diff}")
    return sorted(tasks_v)


def _per_task_means(bank: EmbeddingBank, tasks: Sequence[str]) -> np.ndarray:
    """Mean row of each task, in `tasks` order. A stable sort groups the rows;
    tasks with equal row counts are summed at once over a (tasks, count, dim)
    stack, which adds in the same order (pairwise at dim 1) as np.mean over
    one task's rows, so the means are bit-identical to that."""
    index = {t: i for i, t in enumerate(tasks)}
    codes = np.fromiter((index[t] for t in bank.task_ids), dtype=np.intp, count=bank.n)
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(tasks))
    firsts = np.cumsum(counts) - counts
    means = np.empty((len(tasks), bank.dim))
    for size in np.unique(counts):
        group = np.flatnonzero(counts == size)
        rows = bank.values[order[(firsts[group, None] + np.arange(size)).ravel()]]
        with np.errstate(over="ignore"):  # unit_rows refuses an overflowed mean
            means[group] = rows.reshape(len(group), size, bank.dim).sum(axis=1) / size
    return means


def matched_pair_similarity_matrix(bank_v: EmbeddingBank, bank_l: EmbeddingBank) -> np.ndarray:
    """K x K cosine similarities between task-aggregated embeddings.

    Entry (i, j) is the cosine of visual task i against text task j, with
    tasks sorted lexicographically by task_id, so diagonal entries are the
    matched pairs. Each task is aggregated as the mean of its rows.
    """
    _check_pair(bank_v, bank_l)
    tasks = shared_task_ids(bank_v, bank_l)
    means_v = unit_rows(_per_task_means(bank_v, tasks), "visual task mean")
    means_l = unit_rows(_per_task_means(bank_l, tasks), "text task mean")
    return means_v @ means_l.T


def retrieval_topk_accuracy(query_bank: EmbeddingBank, gallery_bank: EmbeddingBank, k: int) -> float:
    """Fraction of query rows whose k nearest gallery rows (by cosine) hit
    at least one row of the same task_id.

    Ties are broken lexicographically by gallery task_id and then by row
    index, so the result is deterministic.
    """
    if not is_integer(k) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    if k > gallery_bank.n:
        raise ParameterError(f"k={k} exceeds gallery size {gallery_bank.n}")
    if query_bank.n == 0:
        raise EmptyBankError("query bank must be non-empty")
    if query_bank.dim != gallery_bank.dim:
        raise DimensionError(f"dimension mismatch: {query_bank.dim} vs {gallery_bank.dim}")
    missing = set(query_bank.task_ids) - set(gallery_bank.task_ids)
    if missing:
        raise TaskMismatchError(f"query tasks missing from gallery: {sorted(missing)}")
    queries = unit_rows(query_bank.values, "query row")
    gallery = unit_rows(gallery_bank.values, "gallery row")
    sims = queries @ gallery.T  # (n_query, n_gallery)
    # A query hits when its best same-task column ranks below k: rank counts
    # higher columns and ties before it in (task_id, row) order, which for
    # its task's first maximum are the ties of smaller task ids.
    names, gallery_codes = np.unique(np.array(gallery_bank.task_ids), return_inverse=True)
    query_codes = np.searchsorted(names, np.array(query_bank.task_ids))[:, None]
    hits = 0
    for start in range(0, query_bank.n, _QUERY_BLOCK):
        block, codes = sims[start : start + _QUERY_BLOCK], query_codes[start : start + _QUERY_BLOCK]
        best = np.where(gallery_codes == codes, block, -np.inf).max(axis=1, keepdims=True)
        ties = (block == best) & (gallery_codes < codes)
        rank = np.count_nonzero(block > best, axis=1) + np.count_nonzero(ties, axis=1)
        hits += int(np.count_nonzero(rank < k))
    return hits / query_bank.n


def pca_project_2d(banks: Sequence[EmbeddingBank]) -> np.ndarray:
    """(rows, 2) coordinates of all rows of all banks, in bank then row
    order, on the top-2 principal components of the pooled, mean-centered data.

    Deterministic: the sign of each component is fixed so that its first
    loading of non-negligible magnitude is positive. A mean or a centered
    entry that overflows float64 is a ParameterError.
    """
    banks = list(banks)
    if not banks:
        raise EmptyBankError("at least one bank is required")
    dim = banks[0].dim
    for b in banks:
        if b.dim != dim:
            raise DimensionError(f"dimension mismatch: {b.dim} vs {dim}")
    pooled = np.concatenate([b.values for b in banks], axis=0)
    if pooled.shape[0] < 2:
        raise EmptyBankError("need at least 2 rows for a 2-d projection")
    with np.errstate(over="ignore"):  # np.linalg.svd does not return on a non-finite entry
        centered = pooled - mean_row(pooled, "pooled mean")
    refuse_first(
        ~np.isfinite(centered), ParameterError, lambda r, c: f"row {r} overflows float64 at dim {c} once centered"
    )
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = np.zeros((2, dim))
    components[: min(2, vt.shape[0])] = vt[:2]
    for c in range(2):
        comp = components[c]
        big = np.flatnonzero(np.abs(comp) > 1e-12 * max(np.abs(comp).max(), 1e-300))
        if big.size and comp[big[0]] < 0:
            components[c] = -comp
    return centered @ components.T


def _norm(vector: np.ndarray) -> float:
    """The Euclidean norm, with the bits of np.linalg.norm; when the sum of
    squares overflows, it is taken again over vector scaled by its largest entry."""
    with np.errstate(over="ignore"):
        norm = float(row_norms(vector))
    if not np.isfinite(norm):
        scale = np.abs(vector).max()
        norm = float(scale * row_norms(vector / scale))
    return norm


def gap_report(bank_v: EmbeddingBank, bank_l: EmbeddingBank) -> GapReport:
    """All gap statistics for a bank pair in one report."""
    gap = gap_vector(bank_v, bank_l)
    matrix = matched_pair_similarity_matrix(bank_v, bank_l)
    return GapReport(
        dim=bank_v.dim,
        gap_vector=gap,
        per_dim_abs_mean_gap=np.abs(gap),
        similarity_matrix=matrix,
        gap_norm=_norm(gap),
        matched_pair_mean_cosine=float(np.mean(np.diag(matrix))),
        retrieval_top1_v2t=retrieval_topk_accuracy(bank_v, bank_l, 1),
        retrieval_top1_t2v=retrieval_topk_accuracy(bank_l, bank_v, 1),
        n_visual=bank_v.n,
        n_text=bank_l.n,
    )


# ---------------------------------------------------------------------------
# Export: JSON for the report, CSV (UTF-8, header row, '.' decimals) for
# matrix/profile/projection data intended for external plotting.
# ---------------------------------------------------------------------------


def export_gap_report(report: GapReport, path) -> None:
    write_atomic(path, json_text(report.to_json_dict()))


def export_similarity_matrix(task_ids: Sequence[str], matrix: np.ndarray, path) -> None:
    rows = [[tid] + [repr(float(x)) for x in row] for tid, row in zip(task_ids, matrix)]
    write_atomic(path, csv_text(["visual_task"] + list(task_ids), rows))


def export_per_dim_gap(gap: np.ndarray, path) -> None:
    rows = [[i, repr(float(x)), repr(abs(float(x)))] for i, x in enumerate(gap)]
    write_atomic(path, csv_text(["dim", "gap", "abs_gap"], rows))


def export_pca_points(banks: Sequence[EmbeddingBank], coords: np.ndarray, path) -> None:
    """One CSV row per pca_project_2d(banks) coordinate row, labelled by its bank's modality and task id."""
    labels = [(b.modality, tid) for b in banks for tid in b.task_ids]
    if coords.shape != (len(labels), 2):
        raise DimensionError(f"coordinates of shape {coords.shape} do not match {len(labels)} bank rows")
    rows = [[m, tid, repr(x), repr(y)] for (m, tid), (x, y) in zip(labels, coords.tolist())]
    write_atomic(path, csv_text(["modality", "task_id", "x", "y"], rows))
