"""Self-tests of the benchmark's oracles: each accepts a right value and
rejects a deliberately wrong one.

    python3 perfbench/selftest.py

The file needs only numpy; it does not import modalign.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import oracles, workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_exact_chance_floor():
    value = oracles.exact_chance_floor(5, 8)
    expect(abs(value - 0.1830) < 5e-5, f"exact floor {value} != 0.1830")
    # With no steps only the start cell counts: one target cell in 25.
    expect(abs(oracles.exact_chance_floor(5, 0) - 1 / 25) < 1e-15, "horizon-0 floor != 1/25")


def test_chance_floor_check_rejects_a_shifted_floor():
    exact = oracles.exact_chance_floor(5, 8)
    expect(oracles.check_chance_floor(0.224, exact, 250) is None, "measured floor 0.224 rejected")
    expect(oracles.check_chance_floor(exact + 0.10, exact, 250) is not None, "shifted floor accepted")
    expect(oracles.check_chance_floor(exact - 0.10, exact, 250) is not None, "shifted floor accepted")


def _cone_rows(rng, n, dim, alpha):
    inp = rng.standard_normal((n, dim))
    unit = inp / np.linalg.norm(inp, axis=1, keepdims=True)
    perp = rng.standard_normal((n, dim))
    perp -= np.einsum("ij,ij->i", perp, unit)[:, None] * unit
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    s = rng.uniform(alpha, 1.0, size=n)[:, None]
    return inp, s * unit + np.sqrt(1.0 - s * s) * perp


def test_cone_check_rejects_an_out_of_cone_row():
    rng = np.random.default_rng(0)
    inp, out = _cone_rows(rng, 200, 16, 0.2)
    expect(oracles.check_cone(oracles.f32(out), oracles.f32(inp), 0.2, 1e-6) is None, "cone rows rejected")
    bad = out.copy()
    unit = inp[7] / np.linalg.norm(inp[7])
    perp = bad[7] - (bad[7] @ unit) * unit
    perp /= np.linalg.norm(perp)
    bad[7] = 0.19 * unit + np.sqrt(1.0 - 0.19**2) * perp  # cosine 0.19 < alpha
    expect(oracles.check_cone(bad, inp, 0.2, 1e-6) is not None, "out-of-cone row accepted")
    bad = out.copy()
    bad[3] *= 1.001
    expect(oracles.check_cone(bad, inp, 0.2, 1e-6) is not None, "non-unit row accepted")


def test_centralized_gap_check_rejects_a_nonzero_gap():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((500, 16)) + 0.7
    t = rng.standard_normal((400, 16)) - 0.3
    vc = oracles.f32(v - v.mean(axis=0))
    tc = t - t.mean(axis=0)
    tol = 4.0 * oracles.f32_tolerance(vc) + 1e-12
    expect(oracles.check_centralized_gap(vc, tc, tol) is None, "centralized banks rejected")
    expect(oracles.check_centralized_gap(vc + 1e-4, tc, tol) is not None, "nonzero gap accepted")


def test_retrieval_check_rejects_a_wrong_hit():
    rng = np.random.default_rng(2)
    ids = [f"task{k:02d}" for k in range(20) for _ in range(5)]
    latents = rng.standard_normal((20, 8))
    v = np.repeat(latents, 5, axis=0) + 0.8 * rng.standard_normal((100, 8))
    t = np.repeat(latents, 5, axis=0) + 0.8 * rng.standard_normal((100, 8))
    hits = oracles.top1_hits(v, ids, t, ids, chunk=7)
    # The same count by a plain loop over queries.
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    tn = t / np.linalg.norm(t, axis=1, keepdims=True)
    loop = sum(ids[int(np.argmax(tn @ vn[q]))] == ids[q] for q in range(100))
    expect(hits == loop, f"chunked hits {hits} != loop hits {loop}")
    expect(0 < hits < 100, f"degenerate retrieval fixture: {hits} hits")
    expect(oracles.check_retrieval("top1", hits / 100, hits, 100) is None, "right retrieval rejected")
    expect(oracles.check_retrieval("top1", (hits + 1) / 100, hits, 100) is not None, "wrong hit accepted")


def test_retrieval_ties_go_to_the_lowest_task_id():
    gallery = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    hits = oracles.top1_hits(np.array([[1.0, 0.0]]), ["a"], gallery, ["b", "a", "c"])
    expect(hits == 1, "tie not broken by task id")


def test_delete_dims():
    v = np.array([[0.0, 5.0, 1.0, -3.0, 2.0]])
    t = np.zeros((1, 5))
    expect(oracles.delete_dims(v, t, 3) == [1, 3, 4], "wrong top-3 dims")
    expect(oracles.delete_dims(np.ones((1, 4)), np.zeros((1, 4)), 2) == [0, 1], "ties not to lower index")


def test_gaussian_check_rejects_wrong_moments():
    rng = np.random.default_rng(3)
    inp = rng.standard_normal((1000, 16))
    expect(
        oracles.check_gaussian_residuals(inp + rng.normal(0.0, 0.1, inp.shape), inp, 0.1) is None,
        "right noise rejected",
    )
    expect(
        oracles.check_gaussian_residuals(inp + rng.normal(0.0, 0.12, inp.shape), inp, 0.1) is not None,
        "noise of std 0.12 accepted as 0.1",
    )
    expect(
        oracles.check_gaussian_residuals(inp + rng.normal(0.01, 0.1, inp.shape), inp, 0.1) is not None,
        "biased noise accepted",
    )


def test_bank_files_round_trip():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((6, 3)) * 1e3
    ids = ["a", "bé", "c", "a", "d", "e"]
    with tempfile.TemporaryDirectory() as tmp:
        oracles.write_binary_bank(Path(tmp) / "b.ebnk", "visual", ids, values)
        oracles.write_jsonl_bank(Path(tmp) / "b.jsonl", "text", ids, values)
        modality, got_ids, got = oracles.read_bank(Path(tmp) / "b.ebnk")
        expect((modality, got_ids) == ("visual", ids), "binary header or ids lost")
        expect(np.array_equal(got, oracles.f32(values)), "binary values not float32-rounded")
        expect(not np.array_equal(got, values), "binary fixture needs values that round")
        modality, got_ids, got = oracles.read_bank(Path(tmp) / "b.jsonl")
        expect((modality, got_ids) == ("text", ids), "jsonl header or ids lost")
        expect(np.array_equal(got, values), "jsonl values not exact")


def _ablation_report(delete_aggregates):
    """A `transfer_ablation` report that passes every check, with the two
    delete variants' aggregates replaced by `delete_aggregates`."""
    aggregates = []
    for v in workloads.TransferWorkload("t", 0, "text", workloads.ABLATIONS).variants:
        if v.collapse == "delete":
            continue
        for e in workloads.EVALS:
            aggregates.append({
                "eval_modality": e, "collapse": v.collapse, "corrupt_kind": v.corrupt_kind,
                "alpha_or_std": v.alpha_or_std, "injected_gap_norm": v.gap, "n_seeds": 1,
                "success_mean": 0.5 if v.gap > 0.0 else 0.9,
            })
    return {"chance_floor": 0.2, "aggregates": aggregates + delete_aggregates}


def _check_ablation(report):
    workload = workloads.TransferWorkload("t", 0, "text", workloads.ABLATIONS)
    with tempfile.TemporaryDirectory() as tmp:
        workload.out = Path(tmp)
        (workload.out / "transfer_report.json").write_text(json.dumps(report), encoding="utf-8")
        ops = workload.check([workloads.Outcome(["bench"], 0, "", "")])
    return [op for op in ops if op.failed]


def _pooled_delete(copies):
    return [
        {"eval_modality": e, "collapse": "delete", "corrupt_kind": "cosine", "alpha_or_std": 0.2,
         "injected_gap_norm": 0.0, "n_seeds": 2, "success_mean": 0.9}
        for _ in range(copies) for e in workloads.EVALS
    ]


def test_d1_excuses_only_its_own_signature():
    failed = _check_ablation(_ablation_report(_pooled_delete(2)))
    expect(len(failed) == 6 and all(op.known for op in failed), "D1 signature not counted as 6 known faults")
    failed = _check_ablation(_ablation_report([]))
    expect(len(failed) == 6 and not any(op.known for op in failed), "missing delete cells excused as D1")
    failed = _check_ablation(_ablation_report(_pooled_delete(1)))
    expect(len(failed) == 6 and not any(op.known for op in failed), "a single pooled aggregate excused as D1")


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
