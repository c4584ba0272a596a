"""Command-line entry point.

Subcommands: diagnose, collapse, corrupt, train-encoder, bench, verify.
Exit codes: 0 success, 2 usage or validation failure or an output that
cannot be written, 3 training divergence. Everything is seeded, so
identical inputs produce identical output bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .banks import BankFormat, cosine_similarity, load_bank, save_bank
from .bench import BenchConfig, run_transfer_experiment, train_seed_encoders
from .collapse import (
    CollapseKind,
    apply_to_bank,
    fit_centralize,
    fit_delete,
    load_transform,
    save_transform,
)
from .corrupt import CorruptConfig, NoiseKind, corrupt_bank
from .diagnostics import (
    export_gap_report,
    export_pca_points,
    export_per_dim_gap,
    export_similarity_matrix,
    gap_report,
    gap_vector,
    matched_pair_similarity_matrix,
    pca_project_2d,
    shared_task_ids,
)
from .errors import DivergenceError, ModalignError, ParameterError
from .gridworld import generate_tasks
from .trainer import save_encoder_params


def cmd_diagnose(args) -> int:
    bank_v = load_bank(args.bank_v)
    bank_l = load_bank(args.bank_l)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = gap_report(bank_v, bank_l)
    export_gap_report(report, out / "gap_report.json")
    tasks = shared_task_ids(bank_v, bank_l)
    export_similarity_matrix(
        tasks, matched_pair_similarity_matrix(bank_v, bank_l), out / "simmatrix.csv"
    )
    export_per_dim_gap(gap_vector(bank_v, bank_l), out / "perdim_gap.csv")
    export_pca_points(pca_project_2d([bank_v, bank_l]), out / "pca2d.csv")
    print(f"gap_norm={report.gap_norm!r} matched_pair_mean_cosine={report.matched_pair_mean_cosine!r}")
    print(f"retrieval_top1_v2t={report.retrieval_top1_v2t!r} retrieval_top1_t2v={report.retrieval_top1_t2v!r}")
    print(f"wrote gap_report.json, simmatrix.csv, perdim_gap.csv, pca2d.csv to {out}")
    return 0


def cmd_collapse(args) -> int:
    target = load_bank(args.target)
    if args.transform_in:
        transform = load_transform(args.transform_in)
    else:
        if not args.ref_visual or not args.ref_text:
            raise ParameterError("fitting a transform needs --ref-visual and --ref-text")
        if not args.kind:
            raise ParameterError("fitting a transform needs --kind")
        ref_v = load_bank(args.ref_visual)
        ref_l = load_bank(args.ref_text)
        reference = f"visual={args.ref_visual};text={args.ref_text}"
        if CollapseKind(args.kind) is CollapseKind.CENTRALIZE:
            transform = fit_centralize(ref_v, ref_l, fit_reference=reference)
        else:
            transform = fit_delete(ref_v, ref_l, k=args.k, fit_reference=reference)
    collapsed = apply_to_bank(transform, target)
    save_bank(collapsed, args.out, BankFormat(args.out_format))
    if args.transform_out:
        save_transform(transform, args.transform_out)
    print(f"collapsed {target.n} rows: dim {target.dim} -> {collapsed.dim}; wrote {args.out}")
    return 0


def cmd_corrupt(args) -> int:
    bank = load_bank(args.bank)
    kind = NoiseKind(args.kind)
    if kind is NoiseKind.COSINE:
        cfg = CorruptConfig(kind, alpha=args.alpha, seed=args.seed)
    else:
        cfg = CorruptConfig(kind, std=args.std, seed=args.seed)
    corrupted = corrupt_bank(bank, cfg)
    save_bank(corrupted, args.out, BankFormat(args.out_format))
    print(f"corrupted {bank.n} rows with {kind.value} noise; wrote {args.out}")
    return 0


def _load_json_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: config must be a JSON object")
    return doc


def cmd_train_encoder(args) -> int:
    doc = _load_json_config(args.config) if args.config else {"schema_version": 1}
    if args.seed is not None:
        doc["seeds"] = [args.seed]
    if args.steps is not None:
        doc["encoder_steps"] = args.steps
    if args.freeze_text_after is not None:
        doc["encoder_freeze_text_after"] = args.freeze_text_after
    cfg = BenchConfig.from_dict(doc)
    tasks = generate_tasks(cfg.grid_size, cfg.world_seed)
    _, trainer_cfg, result = train_seed_encoders(cfg, tasks, cfg.seeds[0])
    save_encoder_params(result.params, args.out, extra_metadata=asdict(trainer_cfg))
    with open(args.loss_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "loss"])
        for i, loss in enumerate(result.loss_trace):
            writer.writerow([i, repr(loss)])
    final = result.loss_trace[-1] if result.loss_trace else float("nan")
    print(f"trained {cfg.encoder_steps} steps; final loss {final!r}; wrote {args.out} and {args.loss_csv}")
    return 0


def _flag_number(flag: str, value: str, cast):
    try:
        number = cast(value)
        if math.isfinite(number):
            return number
    except ValueError:
        pass
    raise ParameterError(f"{flag} expects a finite number, got {value!r}")


def _parse_ablation(spec: str) -> dict:
    overrides: dict = {}
    for pair in spec.split(","):
        if "=" not in pair:
            raise ParameterError(f"--ablate expects key=value pairs, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        value = value.strip()
        flag = f"--ablate {key}"
        if key == "collapse":
            overrides["collapse"] = value
        elif key == "delete_k":
            overrides["delete_k"] = _flag_number(flag, value, int)
        elif key == "gap":
            overrides["injected_gap_norm"] = _flag_number(flag, value, float)
        elif key == "alpha":
            overrides["alpha"] = _flag_number(flag, value, float)
        elif key == "corrupt":
            if value == "none":
                overrides["corrupt_kind"] = "none"
            else:
                kind, _, strength = value.partition(":")
                if kind not in ("cosine", "gaussian") or not strength:
                    raise ParameterError(
                        f"--ablate corrupt expects cosine:<alpha>, gaussian:<std> or none, got {value!r}"
                    )
                overrides["corrupt_kind"] = kind
                overrides["alpha" if kind == "cosine" else "std"] = _flag_number(flag, strength, float)
        else:
            raise ParameterError(f"unknown --ablate key {key!r}")
    return overrides


def cmd_bench(args) -> int:
    doc = _load_json_config(args.config) if args.config else {"schema_version": 1}
    if args.seeds is not None:
        doc["seeds"] = [_flag_number("--seeds", s, int) for s in args.seeds.split(",") if s]
    if args.train_modality is not None:
        doc["train_modality"] = args.train_modality
    if args.ablate:
        doc["ablations"] = list(doc.get("ablations", [])) + [
            _parse_ablation(spec) for spec in args.ablate
        ]
    cfg = BenchConfig.from_dict(doc)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = run_transfer_experiment(cfg)
    report.write_json(out / "transfer_report.json")
    report.write_csv(out / "transfer_report.csv")
    print(f"chance_floor={report.chance_floor!r}")
    for agg in report.aggregates:
        strength = "" if agg["alpha_or_std"] is None else f"={agg['alpha_or_std']}"
        print(
            f"{agg['collapse']}/{agg['corrupt_kind']}{strength} gap={agg['injected_gap_norm']} "
            f"train={agg['train_modality']} eval={agg['eval_modality']}: "
            f"{agg['success_mean']:.4f} +/- {agg['success_std']:.4f}"
        )
    print(f"wrote transfer_report.json and transfer_report.csv to {out}")
    return 0


def cmd_verify(args) -> int:
    bank = load_bank(args.bank)  # loading enforces all bank invariants
    print(f"{args.bank}: valid {bank.modality.value} bank, {bank.n} rows, dim {bank.dim}")
    if args.against is None:
        return 0
    original = load_bank(args.against)
    if original.n != bank.n or original.dim != bank.dim:
        raise ParameterError(
            f"banks disagree: {bank.n}x{bank.dim} vs {original.n}x{original.dim}"
        )
    tolerance = args.tolerance
    for i in range(bank.n):
        norm = float(np.linalg.norm(bank.values[i]))
        if abs(norm - 1.0) > tolerance:
            print(f"row {i}: norm {norm!r} is not unit within {tolerance}", file=sys.stderr)
            return 2
        s = cosine_similarity(bank.values[i], original.values[i])
        if not (args.alpha - tolerance <= s <= 1.0 + tolerance):
            print(
                f"row {i}: cosine {s!r} outside [{args.alpha}, 1] within {tolerance}",
                file=sys.stderr,
            )
            return 2
    print(f"all {bank.n} rows: unit norm and cosine within [{args.alpha}, 1] (tolerance {tolerance})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalign",
        description="Multimodal embedding alignment toolkit: gap diagnostics, "
        "training-free collapse, latent corruption, toy contrastive encoders, "
        "and the gridworld transfer benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="write gap statistics for a visual/text bank pair")
    p.add_argument("--bank-v", required=True, help="visual bank file")
    p.add_argument("--bank-l", required=True, help="text bank file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("collapse", help="fit or load a gap transform and apply it to a bank")
    p.add_argument("--kind", choices=["centralize", "delete"], default="centralize")
    p.add_argument("--ref-visual", help="visual reference bank (fitting)")
    p.add_argument("--ref-text", help="text reference bank (fitting)")
    p.add_argument("--target", required=True, help="bank to transform")
    p.add_argument("--k", type=int, default=1, help="dimensions to delete (kind=delete)")
    p.add_argument("--transform-in", help="apply a previously saved transform")
    p.add_argument("--transform-out", help="save the fitted transform as JSON")
    p.add_argument("--out", required=True, help="output bank file")
    p.add_argument("--out-format", choices=["jsonl", "binary"], default="binary")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("corrupt", help="apply latent noise to every bank row")
    p.add_argument("--bank", required=True)
    p.add_argument("--kind", choices=["cosine", "gaussian"], default="cosine")
    p.add_argument("--alpha", type=float, default=0.2, help="cosine floor (kind=cosine)")
    p.add_argument("--std", type=float, default=0.1, help="noise std (kind=gaussian)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--out-format", choices=["jsonl", "binary"], default="binary")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser(
        "train-encoder", help="train one bench seed's encoder pair on its gridworld data"
    )
    p.add_argument("--config", help="bench JSON config document")
    p.add_argument("--steps", type=int, help="override config encoder_steps")
    p.add_argument("--seed", type=int, help="bench seed to train (default: the config's first seed)")
    p.add_argument(
        "--freeze-text-after",
        type=int,
        help="override config encoder_freeze_text_after: freeze the text tower after "
        "this step (visual keeps training)",
    )
    p.add_argument("--out", default="encoder_params.eprm", help="params output path")
    p.add_argument("--loss-csv", default="encoder_loss.csv", help="loss trace output path")
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("bench", help="run the transfer experiment and write the report")
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--out-dir", default=".", help="where to write the report files")
    p.add_argument("--seeds", help="override config seeds, comma separated")
    p.add_argument("--train-modality", choices=["visual", "text"], help="override train modality")
    p.add_argument(
        "--ablate",
        action="append",
        metavar="KEY=VALUE[,KEY=VALUE...]",
        help="add a comparison variant; keys: collapse, delete_k, gap, alpha, corrupt "
        "(e.g. collapse=none, alpha=0.5 or corrupt=gaussian:0.1)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="re-check bank invariants and corruption cosine bounds")
    p.add_argument("--bank", required=True, help="bank file to validate")
    p.add_argument("--against", help="original bank for cosine-bound checks")
    p.add_argument("--alpha", type=float, default=0.2, help="expected cosine floor")
    p.add_argument(
        "--tolerance",
        type=float,
        default=1e-5,
        help="bound slack; the default absorbs float32 binary-bank storage "
        "(use 1e-9 for in-memory or jsonl banks)",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModalignError, OSError) as exc:  # OSError: an output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
