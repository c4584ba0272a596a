"""Command-line entry point.

Subcommands: diagnose, collapse, corrupt, train-encoder, bench, verify.
Exit codes: 0 success, 2 usage or validation failure, a malformed input
file or an output that cannot be written, 3 training divergence.
Everything is seeded, so identical inputs produce identical output bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .banks import BANK_FORMATS, BINARY_MAGIC, MODALITIES, EmbeddingBank, load_bank, row_norms, save_bank
from .bench import BenchConfig, run_transfer_experiment, train_seed_encoders
from .collapse import COLLAPSE_KINDS, apply_to_bank, fit_centralize, fit_delete, load_transform, save_transform
from .corrupt import NOISE_KINDS, CorruptConfig, corrupt_bank
from .diagnostics import (
    export_gap_report,
    export_pca_points,
    export_per_dim_gap,
    export_similarity_matrix,
    gap_report,
    pca_project_2d,
    shared_task_ids,
)
from .errors import DegenerateVectorError, DivergenceError, FormatError, ModalignError, ParameterError, refuse_first
from .fileio import csv_text, read_bytes, read_json, write_atomic
from .gridworld import generate_tasks
from .trainer import PARAMS_MAGIC, load_encoder_params, save_encoder_params


def cmd_diagnose(args) -> int:
    bank_v = load_bank(args.bank_v)
    bank_l = load_bank(args.bank_l)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = gap_report(bank_v, bank_l)
    export_gap_report(report, out / "gap_report.json")
    tasks = shared_task_ids(bank_v, bank_l)
    export_similarity_matrix(tasks, report.similarity_matrix, out / "simmatrix.csv")
    export_per_dim_gap(report.gap_vector, out / "perdim_gap.csv")
    export_pca_points([bank_v, bank_l], pca_project_2d([bank_v, bank_l]), out / "pca2d.csv")
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
        ref_v = load_bank(args.ref_visual)
        ref_l = load_bank(args.ref_text)
        reference = f"visual={args.ref_visual};text={args.ref_text}"
        if args.kind == "centralize":
            transform = fit_centralize(ref_v, ref_l, fit_reference=reference)
        else:
            transform = fit_delete(ref_v, ref_l, k=args.k, fit_reference=reference)
    collapsed = apply_to_bank(transform, target)
    save_bank(collapsed, args.out, args.out_format)
    if args.transform_out:
        save_transform(transform, args.transform_out)
    print(f"collapsed {target.n} rows: dim {target.dim} -> {collapsed.dim}; wrote {args.out}")
    return 0


def cmd_corrupt(args) -> int:
    cfg = CorruptConfig(args.kind, args.alpha, args.std, args.seed)
    bank = load_bank(args.bank)
    corrupted = corrupt_bank(bank, cfg)
    save_bank(corrupted, args.out, args.out_format)
    print(f"corrupted {bank.n} rows with {args.kind} noise; wrote {args.out}")
    return 0


def _config(path, **flags) -> BenchConfig:
    """The config document at path (the defaults without one), with each
    flag that is given replacing its field."""
    config = BenchConfig.from_dict(read_json(read_bytes(path), path)) if path else BenchConfig()
    return replace(config, **{name: value for name, value in flags.items() if value is not None})


def cmd_train_encoder(args) -> int:
    cfg = _config(
        args.config, seeds=None if args.seed is None else [args.seed], encoder_steps=args.steps,
        encoder_freeze_text_after=args.freeze_text_after,
    )
    tasks = generate_tasks(cfg.grid_size, cfg.world_seed)
    _, trainer_cfg, result = train_seed_encoders(cfg, tasks, cfg.seeds[0])
    save_encoder_params(result.params, args.out, extra_metadata=asdict(trainer_cfg))
    rows = [[i, repr(loss)] for i, loss in enumerate(result.loss_trace)]
    write_atomic(args.loss_csv, csv_text(["step", "loss"], rows))
    final = result.loss_trace[-1] if result.loss_trace else float("nan")
    print(f"trained {cfg.encoder_steps} steps; final loss {final!r}; wrote {args.out} and {args.loss_csv}")
    return 0


def _flag_number(flag: str, value: str, cast):
    try:
        number = cast(value)
        if math.isfinite(number):
            return number
    except (ValueError, OverflowError):  # OverflowError: an integer beyond float range
        pass
    raise ParameterError(f"{flag} expects a finite number, got {value!r}")


# --ablate keys that each set one BenchConfig field: (field, cast), None keeping the text
_ABLATE_FIELDS = {"collapse": ("collapse", None), "delete_k": ("delete_k", int),
                  "gap": ("injected_gap_norm", float), "alpha": ("alpha", float)}


def _parse_ablation(spec: str) -> dict:
    overrides: dict = {}
    for pair in spec.split(","):
        if "=" not in pair:
            raise ParameterError(f"--ablate expects key=value pairs, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        if key in _ABLATE_FIELDS:
            name, cast = _ABLATE_FIELDS[key]
            overrides[name] = value if cast is None else _flag_number(f"--ablate {key}", value, cast)
        elif key == "corrupt" and value == "none":
            overrides["corrupt_kind"] = "none"
        elif key == "corrupt":
            kind, _, strength = value.partition(":")
            if kind not in NOISE_KINDS or not strength:
                raise ParameterError(f"--ablate corrupt expects cosine:<alpha>, gaussian:<std> or none, got {value!r}")
            overrides["corrupt_kind"] = kind
            overrides["alpha" if kind == "cosine" else "std"] = _flag_number("--ablate corrupt", strength, float)
        else:
            raise ParameterError(f"unknown --ablate key {key!r}")
    return overrides


def cmd_bench(args) -> int:
    seeds = None if args.seeds is None else [_flag_number("--seeds", s, int) for s in args.seeds.split(",") if s]
    cfg = _config(args.config, seeds=seeds, train_modality=args.train_modality)
    if args.ablate:
        cfg = replace(cfg, ablations=cfg.ablations + tuple(_parse_ablation(spec) for spec in args.ablate))
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


def _load_any(path) -> tuple[EmbeddingBank | None, str]:
    """The bank at path (None for an encoder parameter or transform file) and
    what it holds: a file that starts with the parameter magic is read as
    encoder parameters, a JSON object with a kind as a transform, and any
    other file as a bank. Loading checks every invariant of the format."""
    raw = read_bytes(path)
    if raw[:4] == PARAMS_MAGIC:
        params = load_encoder_params(path)
        sizes = f"visual sizes {params.visual.sizes}, text sizes {params.text.sizes}"
        return None, f"valid encoder parameters, {sizes}, vocab {params.vocab_size}"
    if raw[:4] != BINARY_MAGIC and _is_transform(raw, path):
        t = load_transform(path)
        return None, f"valid {t.kind} transform, dim {t.source_dim} -> {t.output_dim}"
    bank = load_bank(path)
    return bank, f"valid {bank.modality} bank, {bank.n} rows, dim {bank.dim}"


def _is_transform(raw: bytes, path) -> bool:
    """Whether raw is one JSON object with a kind; a JSON-lines bank is several objects."""
    try:
        doc = read_json(raw, path)
    except FormatError:
        return False
    return isinstance(doc, dict) and "kind" in doc


def cmd_verify(args) -> int:
    if not 0.0 <= args.tolerance < math.inf:
        raise ParameterError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    if not -1.0 < args.alpha <= 1.0:
        raise ParameterError(f"--alpha must be in (-1, 1], got {args.alpha}")
    bank, summary = _load_any(args.bank)
    if bank is None and args.against is not None:
        raise ParameterError(f"--against checks a bank against its original; {args.bank} is not a bank")
    print(f"{args.bank}: {summary}")
    if args.against is None:
        return 0
    original = load_bank(args.against)
    if original.n != bank.n or original.dim != bank.dim:
        raise ParameterError(f"banks disagree: {bank.n}x{bank.dim} vs {original.n}x{original.dim}")
    tolerance = args.tolerance
    with np.errstate(over="ignore"):  # an overflowed square is refused below
        norms, ref_norms = row_norms(bank.values), row_norms(original.values)
    refuse_first(~np.isfinite([norms, ref_norms]), ParameterError, lambda f, i: (
        f"{('--bank', '--against')[f]} row {i}: its squared norm overflows float64"
    ))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero row is reported below
        cosines = np.vecdot(bank.values, original.values) / (norms * ref_norms)
    off_norm = np.abs(norms - 1.0) > tolerance
    off_cone = ~((args.alpha - tolerance <= cosines) & (cosines <= 1.0 + tolerance))
    failed = np.flatnonzero(off_norm | off_cone)
    if failed.size:  # each row is checked for its norm, then its cosine
        i = int(failed[0])
        if off_norm[i]:
            print(f"row {i}: norm {float(norms[i])!r} is not unit within {tolerance}", file=sys.stderr)
            return 2
        if norms[i] == 0.0 or ref_norms[i] == 0.0:
            raise DegenerateVectorError(f"row {i}: cosine similarity of a zero vector is undefined")
        print(
            f"row {i}: cosine {float(cosines[i])!r} outside [{args.alpha}, 1] within {tolerance}",
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
    p.add_argument("--kind", choices=COLLAPSE_KINDS, default="centralize")
    p.add_argument("--ref-visual", help="visual reference bank (fitting)")
    p.add_argument("--ref-text", help="text reference bank (fitting)")
    p.add_argument("--target", required=True, help="bank to transform")
    p.add_argument("--k", type=int, default=1, help="dimensions to delete (kind=delete)")
    p.add_argument("--transform-in", help="apply a previously saved transform")
    p.add_argument("--transform-out", help="save the fitted transform as JSON")
    p.add_argument("--out", required=True, help="output bank file")
    p.add_argument("--out-format", choices=BANK_FORMATS, default="binary")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("corrupt", help="apply latent noise to every bank row")
    p.add_argument("--bank", required=True)
    p.add_argument("--kind", choices=NOISE_KINDS, default="cosine")
    p.add_argument("--alpha", type=float, default=0.2, help="cosine floor (kind=cosine)")
    p.add_argument("--std", type=float, default=0.1, help="noise std (kind=gaussian)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--out-format", choices=BANK_FORMATS, default="binary")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("train-encoder", help="train one bench seed's encoder pair on its gridworld data")
    p.add_argument("--config", help="bench JSON config document")
    p.add_argument("--steps", type=int, help="override config encoder_steps")
    p.add_argument("--seed", type=int, help="bench seed to train (default: the config's first seed)")
    p.add_argument("--freeze-text-after", type=int, help="override config encoder_freeze_text_after: "
                   "freeze the text tower after this step (visual keeps training)")
    p.add_argument("--out", default="encoder_params.eprm", help="params output path")
    p.add_argument("--loss-csv", default="encoder_loss.csv", help="loss trace output path")
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("bench", help="run the transfer experiment and write the report")
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--out-dir", default=".", help="where to write the report files")
    p.add_argument("--seeds", help="override config seeds, comma separated")
    p.add_argument("--train-modality", choices=MODALITIES, help="override train modality")
    p.add_argument("--ablate", action="append", metavar="KEY=VALUE[,KEY=VALUE...]",
                   help=f"add a comparison variant; keys: {', '.join(_ABLATE_FIELDS)}, corrupt "
                   "(e.g. collapse=none, alpha=0.5 or corrupt=gaussian:0.1)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="re-check a bank, .eprm or transform file, and corruption cosine bounds")
    p.add_argument("--bank", required=True, help="bank, .eprm or transform file to validate")
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
    except (ModalignError, OSError) as exc:  # OSError: an output directory cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
