"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion NN] name: PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to watch them stream.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from modalign import (
    CorruptConfig,
    EmbeddingBank,
    PairBatch,
    TrainerConfig,
    compile_tokens,
    corrupt_bank,
    finite_difference_check,
    fit_centralize,
    fit_delete,
    gap_report,
    gap_vector,
    infonce_loss,
    matched_pair_similarity_matrix,
    retrieval_topk_accuracy,
    train_encoders,
)
from modalign.bench import BenchConfig, clips_from_dataset, run_transfer_experiment, subseed
from modalign.collapse import apply_to_bank
from modalign.gridworld import HELDOUT_TEMPLATE_INDICES, build_dataset, generate_tasks
from modalign.policy import build_goal_bank
from modalign.trainer import EncoderParams, init_encoder_params, text_forward


def criterion(number: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


FORWARD_CONFIG = BenchConfig(
    ablations=(
        {"collapse": "delete"},
        {"collapse": "none", "injected_gap_norm": 2.0},
        {"alpha": 0.5},
        {"alpha": 0.8},
        {"corrupt_kind": "gaussian", "std": 0.01},
        {"corrupt_kind": "gaussian", "std": 0.1},
        {"corrupt_kind": "gaussian", "std": 1.0},
    ),
)
REVERSE_CONFIG = BenchConfig(train_modality="text")


@pytest.fixture(scope="module")
def forward_bench():
    start = time.monotonic()
    report = run_transfer_experiment(FORWARD_CONFIG)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def reverse_bench():
    start = time.monotonic()
    report = run_transfer_experiment(REVERSE_CONFIG)
    return report, time.monotonic() - start


def test_criterion_01_corrupt_anchor_property():
    start = time.monotonic()
    alpha = 0.2
    cfg = CorruptConfig("cosine", alpha=alpha, seed=0)
    rng = np.random.default_rng(2024)
    # 10k draws: 20 anchors, each repeated 500 times under distinct task ids
    # so that every row is corrupted by its own stream
    anchors = np.stack([rng.standard_normal(16) * rng.uniform(0.1, 10.0) for _ in range(20)])
    values = np.repeat(anchors, 500, axis=0)
    bank = EmbeddingBank("visual", tuple(f"r{i}" for i in range(10_000)), values)
    out = corrupt_bank(bank, cfg).values
    worst_low, worst_high, worst_norm = 1.0, -1.0, 0.0
    for row, base in zip(out, values):
        s = float(np.dot(row, base) / (np.linalg.norm(row) * np.linalg.norm(base)))
        worst_low = min(worst_low, s)
        worst_high = max(worst_high, s)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(row)) - 1.0))
    elapsed = time.monotonic() - start
    ok = (
        worst_low >= alpha - 1e-9
        and worst_high <= 1.0 + 1e-9
        and worst_norm <= 1e-9
        and elapsed < 5.0
    )
    criterion(
        1,
        "corrupt anchor property (10k draws, alpha=0.2)",
        ok,
        f"cos in [{worst_low:.12f}, {worst_high:.12f}], max |norm-1| = {worst_norm:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_centralize_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    exact = True
    for _ in range(100):
        dim = int(rng.integers(2, 10))
        n_v = int(2 ** rng.integers(1, 6))  # power-of-two rows keep means on the dyadic grid
        n_l = int(2 ** rng.integers(1, 6))
        vals_v = rng.integers(-(2**24), 2**24, size=(n_v, dim)).astype(np.float64) * 2.0**-20
        vals_l = rng.integers(-(2**24), 2**24, size=(n_l, dim)).astype(np.float64) * 2.0**-20
        bank_v = EmbeddingBank("visual", tuple(f"v{i}" for i in range(n_v)), vals_v)
        bank_l = EmbeddingBank("text", tuple(f"l{i}" for i in range(n_l)), vals_l)
        transform = fit_centralize(bank_v, bank_l)
        out_v = apply_to_bank(transform, bank_v)
        out_l = apply_to_bank(transform, bank_l)
        worst_gap = max(worst_gap, float(np.linalg.norm(gap_vector(out_v, out_l))))
        for bank, out in ((bank_v, out_v), (bank_l, out_l)):
            diffs_before = bank.values[:, None, :] - bank.values[None, :, :]
            diffs_after = out.values[:, None, :] - out.values[None, :, :]
            exact = exact and np.array_equal(diffs_before, diffs_after)
    elapsed = time.monotonic() - start
    ok = worst_gap < 1e-9 and exact and elapsed < 5.0
    criterion(
        2,
        "centralize exactness (100 random bank pairs)",
        ok,
        f"worst post-centralize gap_norm = {worst_gap:.2e}, pairwise diffs exact = {exact}, {elapsed:.2f}s",
    )


def test_criterion_03_delete_effectiveness():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst_ratio = 0.0
    min_concentration = 1.0
    for _ in range(25):
        dim = int(rng.integers(4, 16))
        hot = int(rng.integers(dim))
        gap = rng.uniform(0.01, 0.03, size=dim)
        gap[hot] = rng.uniform(2.0, 4.0)
        concentration = gap[hot] ** 2 / float(np.sum(gap**2))
        min_concentration = min(min_concentration, concentration)
        n = 256
        noise = 0.05
        base = rng.standard_normal((n, dim)) * noise
        ids = tuple(f"t{i}" for i in range(n))
        bank_v = EmbeddingBank("visual", ids, base + gap)
        bank_l = EmbeddingBank("text", ids, rng.standard_normal((n, dim)) * noise)
        transform = fit_delete(bank_v, bank_l, k=1)
        before = gap_report(bank_v, bank_l).gap_norm
        after = gap_report(apply_to_bank(transform, bank_v), apply_to_bank(transform, bank_l)).gap_norm
        worst_ratio = max(worst_ratio, after / before)
    elapsed = time.monotonic() - start
    ok = min_concentration >= 0.95 and worst_ratio <= 0.10 and elapsed < 5.0
    criterion(
        3,
        "delete effectiveness (single-coordinate gap)",
        ok,
        f"min concentration = {min_concentration:.4f}, worst residual gap ratio = {worst_ratio:.4f}, {elapsed:.2f}s",
    )


def test_criterion_04_infonce_correctness():
    start = time.monotonic()

    def identity_params(table):
        layer = [*np.eye(2).ravel(), 0.0, 0.0]
        return EncoderParams([2, 2], [2, 2], 2, np.array([*layer, *layer, *np.ravel(table)]))

    one_row = PairBatch(np.zeros((1, 2)), np.array([[1.0, 0.0]]), compile_tokens(((0,),), 2))
    loss_b1 = infonce_loss(identity_params(np.eye(2)), one_row)

    b = 4
    equal = PairBatch(np.zeros((b, 2)), np.tile([1.0, 0.0], (b, 1)), compile_tokens(((0,),) * b, 2))
    loss_equal = infonce_loss(identity_params(np.eye(2)), equal)

    cfg = TrainerConfig(
        obs_dim=6, vocab_size=7, dim=4, visual_hidden=(5,), text_hidden=(5,),
        token_dim=4, steps=0, batch_size=3, seed=0,
    )
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        params = init_encoder_params(cfg, rng)
        tokens = tuple(
            tuple(int(t) for t in rng.integers(0, 7, size=rng.integers(1, 4))) for _ in range(3)
        )
        batch = PairBatch(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)), compile_tokens(tokens, 7))
        worst = max(worst, finite_difference_check(params, batch, 1e-5))
    elapsed = time.monotonic() - start
    ok = (
        loss_b1 == 0.0
        and abs(loss_equal - math.log(b)) < 1e-12
        and worst < 1e-4
        and elapsed < 120.0
    )
    criterion(
        4,
        "contrastive loss and gradient correctness",
        ok,
        f"loss(B=1) = {loss_b1!r}, loss(equal sims) - ln B = {loss_equal - math.log(b):.2e}, "
        f"max FD rel err over 100 seeds = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_alignment_at_toy_scale():
    start = time.monotonic()
    config = BenchConfig()  # default pairing: G=5 (K=25), D=16
    tasks = generate_tasks(config.grid_size, config.world_seed)
    dataset = build_dataset(tasks, config.demos_per_task, subseed(0, 0))
    encoders = train_encoders(
        clips_from_dataset(dataset), config.trainer_config(subseed(0, 1))
    ).params

    visual_bank, _ = build_goal_bank(
        encoders, build_dataset(tasks, 4, subseed(0, 50)), "visual", seed=subseed(0, 51)
    )
    ids, seqs = [], []
    for task in sorted(tasks, key=lambda t: t.task_id):
        ids.append(task.task_id)
        seqs.append(task.templates[HELDOUT_TEMPLATE_INDICES[0]])
    text_values = text_forward(encoders, seqs)
    text_values = text_values / np.linalg.norm(text_values, axis=1, keepdims=True)
    heldout_bank = EmbeddingBank("text", tuple(ids), text_values)

    retrieval = retrieval_topk_accuracy(heldout_bank, visual_bank, 1)
    matrix = matched_pair_similarity_matrix(visual_bank, heldout_bank)
    k = len(ids)
    margin = float(np.mean(np.diag(matrix)) - np.mean(matrix[~np.eye(k, dtype=bool)]))
    elapsed = time.monotonic() - start
    ok = retrieval >= 0.90 and margin >= 0.3 and elapsed < 300.0
    criterion(
        5,
        "toy-scale alignment on held-out prompts",
        ok,
        f"top-1 retrieval = {retrieval:.3f}, matched-vs-offdiagonal margin = {margin:.3f}, {elapsed:.1f}s",
    )


def test_criterion_06_headline_transfer(forward_bench, reverse_bench):
    forward, forward_time = forward_bench
    reverse, reverse_time = reverse_bench
    floor_f = forward.chance_floor
    floor_r = reverse.chance_floor
    base = dict(collapse="centralize", corrupt_kind="cosine", alpha_or_std=0.2)
    f_within = forward.aggregate("visual", **base)["success_mean"]
    f_cross = forward.aggregate("text", **base)["success_mean"]
    r_within = reverse.aggregate("text", **base)["success_mean"]
    r_cross = reverse.aggregate("visual", **base)["success_mean"]
    elapsed = forward_time + reverse_time
    ok = (
        f_cross >= 0.8 * f_within
        and f_within >= floor_f + 0.30
        and f_cross >= floor_f + 0.30
        and r_cross >= 0.8 * r_within
        and r_within >= floor_r + 0.30
        and r_cross >= floor_r + 0.30
        and elapsed < 600.0
    )
    criterion(
        6,
        "headline cross-modal transfer, both directions",
        ok,
        f"visual-train: within {f_within:.3f} / cross {f_cross:.3f} (floor {floor_f:.3f}); "
        f"text-train: within {r_within:.3f} / cross {r_cross:.3f} (floor {floor_r:.3f}); "
        f"{elapsed:.0f}s",
    )


def test_criterion_07_collapse_ablation(forward_bench):
    forward, _ = forward_bench
    centralize = forward.aggregate(
        "text", collapse="centralize", corrupt_kind="cosine", alpha_or_std=0.2,
        injected_gap_norm=0.0,
    )["success_mean"]
    delete = forward.aggregate(
        "text", collapse="delete", corrupt_kind="cosine", alpha_or_std=0.2
    )["success_mean"]
    none_gap = forward.aggregate(
        "text", collapse="none", injected_gap_norm=2.0
    )["success_mean"]
    ok = abs(centralize - delete) <= 0.15 and none_gap < centralize
    criterion(
        7,
        "collapse ablation (centralize vs delete vs none+gap)",
        ok,
        f"centralize {centralize:.3f}, delete {delete:.3f} (|diff| = {abs(centralize-delete):.3f}), "
        f"none with gap 2.0 -> {none_gap:.3f}",
    )


def test_criterion_08_noise_ablation(forward_bench):
    forward, _ = forward_bench
    cosine = [
        forward.aggregate(
            "text", collapse="centralize", corrupt_kind="cosine", alpha_or_std=a
        )["success_mean"]
        for a in (0.2, 0.5, 0.8)
    ]
    gaussian = [
        forward.aggregate(
            "text", collapse="centralize", corrupt_kind="gaussian", alpha_or_std=s
        )["success_mean"]
        for s in (0.01, 0.1, 1.0)
    ]
    cosine_range = max(cosine) - min(cosine)
    gaussian_range = max(gaussian) - min(gaussian)
    ok = cosine_range <= 0.10 and gaussian_range > cosine_range
    criterion(
        8,
        "noise ablation (cosine stable, gaussian unstable)",
        ok,
        f"cosine over alpha sweep: {[round(x, 3) for x in cosine]} (range {cosine_range:.3f}); "
        f"gaussian over std sweep: {[round(x, 3) for x in gaussian]} (range {gaussian_range:.3f})",
    )


def test_criterion_09_paraphrase_robustness(forward_bench):
    forward, _ = forward_bench
    base = dict(collapse="centralize", corrupt_kind="cosine", alpha_or_std=0.2)
    seen = forward.aggregate("text", **base)["success_mean"]
    heldout = forward.aggregate("text_heldout", **base)["success_mean"]
    ok = abs(seen - heldout) <= 0.10
    criterion(
        9,
        "paraphrase robustness (held-out templates)",
        ok,
        f"seen templates {seen:.3f}, held-out templates {heldout:.3f}, |diff| = {abs(seen-heldout):.3f}",
    )


def test_criterion_10_determinism(forward_bench, tmp_path):
    forward, _ = forward_bench
    again = run_transfer_experiment(FORWARD_CONFIG)
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    forward.write_csv(p1)
    again.write_csv(p2)
    j1, j2 = tmp_path / "run1.json", tmp_path / "run2.json"
    forward.write_json(j1)
    again.write_json(j2)
    ok = p1.read_bytes() == p2.read_bytes() and j1.read_bytes() == j2.read_bytes()
    criterion(
        10,
        "bench determinism (byte-identical outputs)",
        ok,
        f"csv identical = {p1.read_bytes() == p2.read_bytes()}, "
        f"json identical = {j1.read_bytes() == j2.read_bytes()}",
    )


# md5 of the JSON and CSV bytes of each fixture's report. Like TestBitPins,
# they hold for one numpy and BLAS build (numpy 2.4.6, OpenBLAS, x86-64).
REPORT_PINS = {
    "forward_bench": ("5f34a7600bbafaf662abb6b04fabb050", "ceca93f6fb914ff45900809b1ade8ddd"),
    "reverse_bench": ("4ced02c1115aa20b3637312955735f63", "de4b781104aa79e8cdd0cdeeb9407db7"),
}


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_report_bytes_are_pinned(request, tmp_path, name):
    report, _ = request.getfixturevalue(name)
    report.write_json(tmp_path / "report.json")
    report.write_csv(tmp_path / "report.csv")
    digests = tuple(hashlib.md5((tmp_path / f"report.{ext}").read_bytes()).hexdigest() for ext in ("json", "csv"))
    assert digests == REPORT_PINS[name]
