"""Span tracing of modalign's layers from outside the program.

Each layer's public functions are wrapped at the module attribute through
which callers reach them (for example `modalign.bench.train_encoders`). A
wrapper records one span (name, start, end, parent span, count) in memory;
`Tracer.write` saves the spans when the run ends. A span's self time is
its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter


def _n(i):
    return lambda args, kwargs, result: args[i].n


def _file_bytes(i):
    return lambda args, kwargs, result: os.path.getsize(args[i])


# (module, attribute, span name, count of work done by one call or None)
WRAPPED = (
    ("modalign.bench", "train_encoders", "trainer.train_encoders", lambda a, k, r: len(r.loss_trace)),
    ("modalign.bench", "text_forward", "trainer.text_forward", None),
    ("modalign.policy", "text_forward", "trainer.text_forward", None),
    ("modalign.policy", "frame_difference_embedding", "trainer.frame_difference_embedding", None),
    ("modalign.bench", "train_policy", "policy.train_policy", lambda a, k, r: len(r.loss_trace)),
    ("modalign.bench", "build_goal_bank", "policy.build_goal_bank", lambda a, k, r: r[0].n),
    ("modalign.policy", "build_goal_bank", "policy.build_goal_bank", lambda a, k, r: r[0].n),
    (
        "modalign.bench",
        "evaluate_policy",
        "policy.evaluate_policy",
        lambda a, k, r: len(r.per_task) * r.episodes_per_task,
    ),
    ("modalign.bench", "chance_floor", "policy.chance_floor", lambda a, k, r: len(a[0]) * a[1]),
    ("modalign.bench", "generate_tasks", "gridworld.generate_tasks", None),
    ("modalign.bench", "build_dataset", "gridworld.build_dataset", None),
    ("modalign.policy", "expert_trajectory", "gridworld.expert_trajectory", None),
    ("modalign.cli", "run_transfer_experiment", "bench.run_transfer_experiment", lambda a, k, r: len(r.rows)),
    ("modalign.bench", "text_reference_bank", "bench.text_reference_bank", None),
    ("modalign.policy", "corrupt_bank", "corrupt.corrupt_bank", _n(0)),
    ("modalign.cli", "corrupt_bank", "corrupt.corrupt_bank", _n(0)),
    ("modalign.bench", "fit_centralize", "collapse.fit_centralize", lambda a, k, r: a[0].n + a[1].n),
    ("modalign.bench", "fit_delete", "collapse.fit_delete", lambda a, k, r: a[0].n + a[1].n),
    ("modalign.cli", "fit_centralize", "collapse.fit_centralize", lambda a, k, r: a[0].n + a[1].n),
    ("modalign.cli", "fit_delete", "collapse.fit_delete", lambda a, k, r: a[0].n + a[1].n),
    ("modalign.cli", "apply_to_bank", "collapse.apply_to_bank", _n(1)),
    ("modalign.policy", "apply_transform", "collapse.apply_transform", lambda a, k, r: 1),
    ("modalign.cli", "load_transform", "collapse.load_transform", None),
    ("modalign.cli", "save_transform", "collapse.save_transform", None),
    ("modalign.cli", "gap_report", "diagnostics.gap_report", None),
    ("modalign.cli", "shared_task_ids", "diagnostics.shared_task_ids", None),
    ("modalign.cli", "matched_pair_similarity_matrix", "diagnostics.matched_pair_similarity_matrix", None),
    ("modalign.cli", "gap_vector", "diagnostics.gap_vector", None),
    ("modalign.cli", "pca_project_2d", "diagnostics.pca_project_2d", None),
    ("modalign.cli", "export_gap_report", "diagnostics.export_gap_report", None),
    ("modalign.cli", "export_similarity_matrix", "diagnostics.export_similarity_matrix", None),
    ("modalign.cli", "export_per_dim_gap", "diagnostics.export_per_dim_gap", None),
    ("modalign.cli", "export_pca_points", "diagnostics.export_pca_points", None),
    ("modalign.diagnostics", "retrieval_topk_accuracy", "diagnostics.retrieval_topk_accuracy", _n(0)),
    ("modalign.collapse", "per_dimension_mean_gap", "diagnostics.per_dimension_mean_gap", None),
    ("modalign.cli", "load_bank", "banks.load_bank", _file_bytes(0)),
    ("modalign.cli", "save_bank", "banks.save_bank", _file_bytes(1)),
    ("modalign.cli", "main", "cli.main", lambda a, k, r: 1),
)

# Unit of every per-layer metric, in report order.
LAYER_UNITS = {
    "trainer.busy_s": "s",
    "trainer.steps_per_s": "steps/s",
    "policy.train_busy_s": "s",
    "policy.train_steps_per_s": "steps/s",
    "policy.goal_rows_per_s": "rows/s",
    "policy.eval_busy_s": "s",
    "policy.episodes_per_s": "episodes/s",
    "gridworld.busy_s": "s",
    "bench.self_s": "s",
    "bench.cells": "count",
    "corrupt.busy_s": "s",
    "corrupt.rows_per_s": "rows/s",
    "collapse.busy_s": "s",
    "collapse.rows_per_s": "rows/s",
    "diagnostics.busy_s": "s",
    "diagnostics.retrieval_queries_per_s": "queries/s",
    "diagnostics.pca_s": "s",
    "banks.load_s": "s",
    "banks.save_s": "s",
    "banks.load_mib_per_s": "MiB/s",
    "banks.bytes_written": "bytes",
    "cli.self_s": "s",
    "cli.commands": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self):
        # One record per call: [name, start, end, parent index, count].
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()
        return False

    def self_times(self) -> list[float]:
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def totals(self) -> dict[str, tuple[float, float]]:
        """Per span name: (self seconds, summed count)."""
        out: dict[str, tuple[float, float]] = {}
        for rec, own in zip(self.spans, self.self_times()):
            seconds, count = out.get(rec[0], (0.0, 0))
            out[rec[0]] = (seconds + own, count + rec[4])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "count": count}
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    totals = tracer.totals()

    def busy(*names):
        return sum(totals.get(n, (0.0, 0))[0] for n in names)

    def count(*names):
        return sum(totals.get(n, (0.0, 0))[1] for n in names)

    def layer(prefix):
        return sum(t[0] for n, t in totals.items() if n.startswith(prefix + "."))

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    train_encoders = busy("trainer.train_encoders")
    train_policy = busy("policy.train_policy")
    goal_banks = busy("policy.build_goal_bank")
    evals = busy("policy.evaluate_policy", "policy.chance_floor")
    corrupt = layer("corrupt")
    collapse = layer("collapse")
    retrieval = busy("diagnostics.retrieval_topk_accuracy")
    loads = busy("banks.load_bank")
    return {
        "trainer.busy_s": layer("trainer"),
        "trainer.steps_per_s": rate(count("trainer.train_encoders"), train_encoders),
        "policy.train_busy_s": train_policy,
        "policy.train_steps_per_s": rate(count("policy.train_policy"), train_policy),
        "policy.goal_rows_per_s": rate(count("policy.build_goal_bank"), goal_banks),
        "policy.eval_busy_s": evals,
        "policy.episodes_per_s": rate(count("policy.evaluate_policy", "policy.chance_floor"), evals),
        "gridworld.busy_s": layer("gridworld"),
        "bench.self_s": layer("bench"),
        "bench.cells": count("bench.run_transfer_experiment"),
        "corrupt.busy_s": corrupt,
        "corrupt.rows_per_s": rate(count("corrupt.corrupt_bank"), corrupt),
        "collapse.busy_s": collapse,
        "collapse.rows_per_s": rate(
            sum(t[1] for n, t in totals.items() if n.startswith("collapse.")), collapse
        ),
        "diagnostics.busy_s": layer("diagnostics"),
        "diagnostics.retrieval_queries_per_s": rate(count("diagnostics.retrieval_topk_accuracy"), retrieval),
        "diagnostics.pca_s": busy("diagnostics.pca_project_2d"),
        "banks.load_s": loads,
        "banks.save_s": busy("banks.save_bank"),
        "banks.load_mib_per_s": rate(count("banks.load_bank") / 2**20, loads),
        "banks.bytes_written": count("banks.save_bank"),
        "cli.self_s": layer("cli"),
        "cli.commands": count("cli.main"),
        "trace.overhead_s": overhead_s,
    }
