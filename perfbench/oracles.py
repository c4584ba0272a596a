"""Computations made apart from modalign, against which its outputs are checked.

Nothing here imports modalign. Every check returns None when the value is
right and otherwise a one-line description of the property it broke.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

# One float32 rounding step relative to the value rounded.
F32_EPS = 2.0**-24

# ---------------------------------------------------------------------------
# Bank files, written and read from the documented formats.
#
# Binary (.ebnk): magic "EBNK", u8 version=1, u8 modality (0=visual, 1=text),
# u32 LE dim, u64 LE count, count*dim LE float32 row-major, then each task id
# as u16 LE byte length + UTF-8 bytes.
# JSON lines (.jsonl): a header object
# {"format":"ebank","version":1,"modality":...,"dim":D} and one
# {"task_id": str, "v": [D numbers]} object per row.
# ---------------------------------------------------------------------------

_MODALITY_CODES = {"visual": 0, "text": 1}


def write_binary_bank(path, modality: str, task_ids, values: np.ndarray) -> None:
    n, dim = values.shape
    parts = [b"EBNK", struct.pack("<BBIQ", 1, _MODALITY_CODES[modality], dim, n)]
    parts.append(np.ascontiguousarray(values, dtype="<f4").tobytes())
    for tid in task_ids:
        raw = tid.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw)
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_binary_bank(path) -> tuple[str, list[str], np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"EBNK":
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    version, code, dim, n = struct.unpack_from("<BBIQ", raw, 4)
    if version != 1 or code not in (0, 1):
        raise ValueError(f"{path}: bad version {version} or modality code {code}")
    offset = 18
    values = np.frombuffer(raw, dtype="<f4", count=n * dim, offset=offset)
    values = values.astype(np.float64).reshape(n, dim)
    offset += 4 * n * dim
    ids = []
    for _ in range(n):
        (length,) = struct.unpack_from("<H", raw, offset)
        ids.append(raw[offset + 2 : offset + 2 + length].decode("utf-8"))
        offset += 2 + length
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes")
    return ("visual", "text")[code], ids, values


def write_jsonl_bank(path, modality: str, task_ids, values: np.ndarray) -> None:
    header = {"format": "ebank", "version": 1, "modality": modality, "dim": values.shape[1]}
    lines = [json.dumps(header)]
    lines.extend(json.dumps({"task_id": t, "v": row}) for t, row in zip(task_ids, values.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_jsonl_bank(path) -> tuple[str, list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line]
    header = json.loads(lines[0])
    if header.get("format") != "ebank" or header.get("version") != 1:
        raise ValueError(f"{path}: bad header {header}")
    rows = [json.loads(line) for line in lines[1:]]
    values = np.array([r["v"] for r in rows], dtype=np.float64).reshape(len(rows), header["dim"])
    return header["modality"], [r["task_id"] for r in rows], values


def read_bank(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return read_binary_bank(path) if magic == b"EBNK" else read_jsonl_bank(path)


def f32(values: np.ndarray) -> np.ndarray:
    """What a binary bank stores for these values, read back as float64."""
    return np.asarray(values, dtype=np.float32).astype(np.float64)


# ---------------------------------------------------------------------------
# Input banks with a built-in modality gap.
# ---------------------------------------------------------------------------


def gap_bank_rows(rng, latents, task_ids, rows_per_task, noise_std, offset):
    """rows_per_task noisy unit copies of each task latent, shuffled, plus offset."""
    n_tasks, dim = latents.shape
    which = rng.permutation(np.repeat(np.arange(n_tasks), rows_per_task))
    rows = latents[which] + rng.normal(0.0, noise_std, size=(which.size, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return [task_ids[k] for k in which], rows + offset


# ---------------------------------------------------------------------------
# Exact chance floor of the gridworld protocol.
# ---------------------------------------------------------------------------

_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))


def exact_chance_floor(grid: int, horizon: int) -> float:
    """Probability that a uniformly random walk reaches its target.

    The start cell is uniform over the grid, each step takes one of five
    actions uniformly (moves clamp at the walls), an episode succeeds when
    the agent stands on the target at or before the horizon, and the value
    is averaged over every target cell. Computed by dynamic programming.
    """
    cells = grid * grid
    step = np.zeros((cells, cells))
    for r in range(grid):
        for c in range(grid):
            for dr, dc in _MOVES:
                nr = min(max(r + dr, 0), grid - 1)
                nc = min(max(c + dc, 0), grid - 1)
                step[r * grid + c, nr * grid + nc] += 1.0 / len(_MOVES)
    total = 0.0
    for target in range(cells):
        mass = np.full(cells, 1.0 / cells)
        reached = mass[target]
        mass[target] = 0.0
        for _ in range(horizon):
            mass = mass @ step
            reached += mass[target]
            mass[target] = 0.0
        total += reached
    return total / cells


def check_chance_floor(measured: float, exact: float, episodes: int) -> str | None:
    sigma = math.sqrt(exact * (1.0 - exact) / episodes)
    if not abs(measured - exact) <= 4.0 * sigma:
        return (
            f"chance floor {measured!r} is not within 4 binomial SEs ({4 * sigma:.4f}) "
            f"of the exact reach probability {exact:.4f} over {episodes} episodes"
        )
    return None


# ---------------------------------------------------------------------------
# Gap, retrieval and delete oracles.
# ---------------------------------------------------------------------------


def gap_vector(values_v: np.ndarray, values_l: np.ndarray) -> np.ndarray:
    return values_v.mean(axis=0) - values_l.mean(axis=0)


def gap_sampling_error(values_v, ids_v, values_l, ids_l) -> float:
    """Standard error of ||mean_v - mean_l|| from the within-task spread."""

    def var_over_n(values, ids):
        ids = np.asarray(ids)
        resid = np.empty_like(values)
        for tid in np.unique(ids):
            rows = ids == tid
            resid[rows] = values[rows] - values[rows].mean(axis=0)
        return float(resid.var(axis=0).sum()) / values.shape[0]

    return math.sqrt(var_over_n(values_v, ids_v) + var_over_n(values_l, ids_l))


def check_close(name: str, measured: float, expected: float, rel: float) -> str | None:
    if not abs(measured - expected) <= rel * max(abs(expected), 1.0):
        return f"{name} {measured!r} != independent value {expected!r} (rel tol {rel:g})"
    return None


def top1_hits(queries, query_ids, gallery, gallery_ids, chunk: int = 512) -> int:
    """Brute-force cosine top-1: rows whose nearest gallery row shares their
    task id. Exact ties go to the lowest gallery task id."""
    q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    g = gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
    gids = np.asarray(gallery_ids)
    qids = np.asarray(query_ids)
    hits = 0
    for lo in range(0, q.shape[0], chunk):
        sims = q[lo : lo + chunk] @ g.T
        best = sims.argmax(axis=1)
        chosen = gids[best]
        top = sims[np.arange(best.size), best]
        for i in np.flatnonzero((sims == top[:, None]).sum(axis=1) > 1):
            chosen[i] = min(gids[sims[i] == top[i]])
        hits += int(np.count_nonzero(chosen == qids[lo : lo + chunk]))
    return hits


def check_retrieval(name: str, measured: float, hits: int, n_queries: int) -> str | None:
    if measured != hits / n_queries:
        return f"{name} {measured!r} != brute-force top-1 {hits}/{n_queries}"
    return None


def delete_dims(values_v: np.ndarray, values_l: np.ndarray, k: int) -> list[int]:
    """The k dims with the largest |mean gap|; ties go to the lower index."""
    gap = np.abs(gap_vector(values_v, values_l))
    order = sorted(range(gap.size), key=lambda d: (-gap[d], d))
    return sorted(order[:k])


# ---------------------------------------------------------------------------
# Collapse and corruption properties.
# ---------------------------------------------------------------------------


def f32_tolerance(values: np.ndarray) -> float:
    """Largest error one float32 rounding can put on an entry of values."""
    return 2.0 * F32_EPS * float(np.abs(values).max()) + 1e-300


def check_matches(name: str, got: np.ndarray, expected: np.ndarray, tol: float) -> str | None:
    if got.shape != expected.shape:
        return f"{name} has shape {got.shape}, expected {expected.shape}"
    err = np.abs(got - expected)
    if not np.all(err <= tol):
        row = int(np.argwhere(err > tol)[0][0])
        return f"{name} row {row} differs by {float(err.max()):.3g} (> tol {tol:.3g})"
    return None


def check_centralized_gap(visual: np.ndarray, text: np.ndarray, tol: float) -> str | None:
    """Centralized banks must have a zero mean gap, up to storage rounding."""
    norm = float(np.linalg.norm(gap_vector(visual, text)))
    if not norm <= tol:
        return f"gap after centralize is {norm:.3g}, not zero within {tol:.3g}"
    return None


def check_cone(out: np.ndarray, inp: np.ndarray, alpha: float, tol: float) -> str | None:
    """Cosine corruption output: unit rows whose cosine to the input lies in [alpha, 1]."""
    if out.shape != inp.shape:
        return f"corrupted bank has shape {out.shape}, expected {inp.shape}"
    norms = np.linalg.norm(out, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > tol)
    if bad.size:
        return f"row {bad[0]} has norm {float(norms[bad[0]])!r}, not unit within {tol:g}"
    cos = np.einsum("ij,ij->i", out, inp) / (norms * np.linalg.norm(inp, axis=1))
    bad = np.flatnonzero((cos < alpha - tol) | (cos > 1.0 + tol))
    if bad.size:
        return f"row {bad[0]} has cosine {float(cos[bad[0]])!r} to its input, outside [{alpha}, 1]"
    return None


def check_gaussian_residuals(out: np.ndarray, inp: np.ndarray, std: float) -> str | None:
    """Additive noise: residual mean within 5 SE of 0 and std within 5 SE of std."""
    if out.shape != inp.shape:
        return f"corrupted bank has shape {out.shape}, expected {inp.shape}"
    resid = (out - inp).ravel()
    n = resid.size
    mean, sd = float(resid.mean()), float(resid.std())
    if abs(mean) > 5.0 * std / math.sqrt(n):
        return f"noise mean {mean:.3g} is not within 5 SE of 0 over {n} values"
    if abs(sd - std) > 5.0 * std / math.sqrt(2.0 * n):
        return f"noise std {sd:.5g} is not within 5 SE of {std} over {n} values"
    return None
