"""The benchmark's oracle self-tests run with the tier-1 suite, so a broken
oracle shows up here and not only when the benchmark runs."""

import importlib
import runpy
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"
TRACING = SELFTEST.with_name("tracing.py")


def test_benchmark_oracles_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith(" 0 failed")


def test_wrapped_attributes_missing_from_modalign_are_the_six_known_dead():
    # The tracer wraps attributes by name, so a rename silently zeroes that layer's
    # metrics. These six are gone already; ROADMAP item 1 deletes their entries.
    wrapped = runpy.run_path(str(TRACING))["WRAPPED"]
    missing = {
        f"{module.removeprefix('modalign.')}.{attr}"
        for module, attr, _, _ in wrapped
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing == {
        "bench.text_forward", "bench.train_policy", "policy.frame_difference_embedding",
        "policy.apply_transform", "cli.gap_vector", "cli.matched_pair_similarity_matrix",
    }


def test_traced_bench_counts_every_wrapped_layer():
    # a wrapped function called with keyword arguments, or returning a new
    # shape, breaks only the traced benchmark pass; this runs a tiny one
    from modalign.bench import BenchConfig, run_transfer_experiment

    # text training reaches build_goal_bank for the visual reference bank and the text training goals
    config = BenchConfig(
        grid_size=3, demos_per_task=4, dim=8, seeds=(0,), episodes_per_task=2, horizon=4, encoder_steps=20,
        policy_steps=20, train_modality="text", ablations=({"collapse": "delete"}, {"corrupt_kind": "gaussian"}),
    )
    tracing = runpy.run_path(str(TRACING))
    with tracing["Tracer"]() as tracer:
        run_transfer_experiment(config)
    # a stage function bound at import time would bypass its wrapper and
    # zero its layer's metrics; entries that share a span name share a metric
    live = {
        name for module, attr, name, _ in tracing["WRAPPED"]
        if module in ("modalign.bench", "modalign.policy") and hasattr(importlib.import_module(module), attr)
    }
    assert live - {rec[0] for rec in tracer.spans} == set()
    totals = tracer.totals()
    names = (
        "trainer.train_encoders", "policy.build_goal_bank", "policy.evaluate_policy", "policy.chance_floor",
        "collapse.fit_centralize", "collapse.fit_delete", "corrupt.corrupt_bank",
    )
    counts = {name: totals.get(name, (0.0, 0))[1] for name in names}
    assert all(counts.values()), counts
