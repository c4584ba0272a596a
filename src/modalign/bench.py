"""End-to-end transfer experiment: train encoders on gridworld pairs,
fit a collapse transform, corrupt one modality's goal embeddings, train a
behavior-cloning policy on them, and evaluate the policy under both
modalities against a measured chance floor.

Everything is seeded; re-running a config reproduces every output byte.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .banks import EmbeddingBank, Modality, normalize
from .collapse import CollapseTransform, fit_centralize, fit_delete
from .corrupt import CorruptConfig, NoiseKind
from .errors import DivergenceError, ParameterError, PipelineError
from .fileio import csv_text, json_text, write_atomic
from .gridworld import (
    HELDOUT_TEMPLATE_INDICES,
    TRAIN_TEMPLATE_INDICES,
    GridTask,
    Trajectory,
    build_dataset,
    build_vocab,
    generate_tasks,
)
from .policy import (
    PolicyConfig,
    build_goal_bank,
    chance_floor,
    encode_goals,
    evaluate_policy,
    train_policy,
)
from .trainer import Clip, TrainerConfig, TrainResult, train_encoders

_STAGE_DATA = 0
_STAGE_ENCODER = 1
_STAGE_REFBANK = 2
_STAGE_POLICY = 3
_STAGE_EVAL = 4
_STAGE_EVAL_HELDOUT = 5
_STAGE_CORRUPT = 6
_CHANCE_TAG = 97
_GAP_TAG = 98

CSV_COLUMNS = (
    "collapse", "corrupt_kind", "alpha_or_std", "train_modality", "eval_modality",
    "success_mean", "success_std", "chance_floor", "seed", "delete_k", "injected_gap_norm",
)


def subseed(*keys: int) -> int:
    """Deterministic derived seed for a pipeline stage."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint64)[0])


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # not math.isfinite, which raises on an integer beyond the float range
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class VariantSpec:
    """One ablation cell: collapse kind, corruption, and injected gap."""

    collapse: str = "centralize"  # centralize | delete | none
    delete_k: int = 1
    corrupt_kind: str = "cosine"  # cosine | gaussian | none
    alpha: float = 0.2
    std: float = 0.1
    injected_gap_norm: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "std", "injected_gap_norm"):
            if not _is_finite(getattr(self, name)):
                raise ParameterError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.collapse not in ("centralize", "delete", "none"):
            raise ParameterError(f"unknown collapse kind {self.collapse!r}")
        if self.corrupt_kind not in ("cosine", "gaussian", "none"):
            raise ParameterError(f"unknown corrupt kind {self.corrupt_kind!r}")
        if not _is_integer(self.delete_k) or self.delete_k < 1:
            raise ParameterError(f"delete_k must be a positive integer, got {self.delete_k!r}")
        if not -1.0 < self.alpha <= 1.0:
            raise ParameterError(f"alpha must be in (-1, 1], got {self.alpha}")
        if not self.std >= 0.0:
            raise ParameterError(f"std must be non-negative, got {self.std}")
        if not self.injected_gap_norm >= 0.0:
            raise ParameterError("injected_gap_norm must be >= 0")

    @property
    def alpha_or_std(self) -> float | None:
        if self.corrupt_kind == "cosine":
            return self.alpha
        if self.corrupt_kind == "gaussian":
            return self.std
        return None

    def corrupt_config(self, seed: int) -> CorruptConfig | None:
        if self.corrupt_kind == "none":
            return None
        if self.corrupt_kind == "cosine":
            return CorruptConfig(NoiseKind.COSINE, alpha=self.alpha, seed=seed)
        return CorruptConfig(NoiseKind.GAUSSIAN, std=self.std, seed=seed)

    def report_fields(self) -> dict:
        """The variant's cells of a report row; alpha and std report as alpha_or_std."""
        cells = {f.name: getattr(self, f.name) for f in fields(VariantSpec) if f.name not in ("alpha", "std")}
        return {**cells, "alpha_or_std": self.alpha_or_std}


_VARIANT_KEYS = {f.name for f in fields(VariantSpec)}
# Lower bounds of integer config fields (of every entry of an integer list).
_POSITIVE, _NON_NEGATIVE = {"floor": 1}, {"floor": 0}


@dataclass(frozen=True)
class BenchConfig(VariantSpec):
    """Every bench setting; the base variant's fields come from VariantSpec."""

    schema_version: int = 1
    grid_size: int = field(default=5, metadata=_POSITIVE)
    demos_per_task: int = field(default=20, metadata=_POSITIVE)
    dim: int = field(default=16, metadata=_POSITIVE)
    world_seed: int = field(default=0, metadata=_NON_NEGATIVE)
    seeds: tuple[int, ...] = field(default=(0, 1, 2), metadata=_NON_NEGATIVE)
    train_modality: str = "visual"
    eval_modalities: tuple[str, ...] = ("visual", "text")
    eval_heldout_text: bool = True
    episodes_per_task: int = field(default=10, metadata=_POSITIVE)
    horizon: int = field(default=8, metadata=_POSITIVE)
    encoder_steps: int = field(default=4000, metadata=_NON_NEGATIVE)
    encoder_batch_size: int = field(default=32, metadata=_POSITIVE)
    encoder_learning_rate: float = 0.1
    encoder_momentum: float = 0.9
    encoder_visual_hidden: tuple[int, ...] = field(default=(64,), metadata=_POSITIVE)
    encoder_text_hidden: tuple[int, ...] = field(default=(64,), metadata=_POSITIVE)
    encoder_token_dim: int = field(default=32, metadata=_POSITIVE)
    encoder_temperature: float = 0.5
    encoder_freeze_text_after: int | None = field(default=None, metadata=_NON_NEGATIVE)
    policy_steps: int = field(default=3000, metadata=_NON_NEGATIVE)
    policy_batch_size: int = field(default=64, metadata=_POSITIVE)
    policy_learning_rate: float = 0.3
    policy_momentum: float = 0.9
    policy_hidden: tuple[int, ...] = field(default=(64,), metadata=_POSITIVE)
    ablations: tuple[dict, ...] = ()

    def __post_init__(self):
        try:
            self._validate()
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"invalid bench config value: {exc}") from None

    def _validate(self):
        """Check every field's type (its annotation) and every variant
        before any work."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type == "int | None":
                continue
            if f.type == "tuple[int, ...]":
                if not isinstance(value, (list, tuple)) or not all(_is_integer(v) for v in value):
                    raise ParameterError(f"{f.name} must be a list of integers, got {value!r}")
                object.__setattr__(self, f.name, tuple(int(v) for v in value))
            elif f.type in ("int", "int | None") and not _is_integer(value):
                raise ParameterError(f"{f.name} must be an integer, got {value!r}")
            elif f.type == "float" and not _is_finite(value):
                raise ParameterError(f"{f.name} must be a finite number, got {value!r}")
            elif f.type == "bool" and not isinstance(value, bool):
                raise ParameterError(f"{f.name} must be true or false, got {value!r}")
            floor = f.metadata.get("floor")
            if floor is not None and min(np.atleast_1d(value), default=floor) < floor:
                raise ParameterError(f"{f.name} must be {'positive' if floor else 'non-negative'}, got {value!r}")
        if not self.seeds:
            raise ParameterError("seeds must not be empty")
        if not self.eval_modalities:
            raise ParameterError("eval_modalities must name at least one modality")
        if self.schema_version != 1:
            raise ParameterError(f"unsupported schema_version {self.schema_version!r}")
        if self.train_modality not in ("visual", "text"):
            raise ParameterError(f"train_modality must be visual or text, got {self.train_modality!r}")
        for m in self.eval_modalities:
            if m not in ("visual", "text"):
                raise ParameterError(f"eval modality must be visual or text, got {m!r}")
        if self.horizon < 2 * (self.grid_size - 1):
            raise ParameterError(
                f"horizon {self.horizon} cannot reach every cell of a {self.grid_size} grid"
            )
        # Each stage config checks its own ranges and starts its message
        # with the field name; the prefix makes that the config key.
        for prefix, stage_config in (("encoder_", self.trainer_config), ("policy_", self.policy_config)):
            try:
                stage_config(0)
            except ParameterError as exc:
                raise ParameterError(f"{prefix}{exc}") from None
        object.__setattr__(self, "eval_modalities", tuple(self.eval_modalities))
        object.__setattr__(self, "ablations", tuple(dict(a) for a in self.ablations))
        for abl in self.ablations:
            unknown = set(abl) - _VARIANT_KEYS
            if unknown:
                raise ParameterError(f"unknown ablation keys: {sorted(unknown)}")
        for variant in self.variants():
            if variant.collapse == "delete" and variant.delete_k >= self.dim:
                raise ParameterError(
                    f"delete_k={variant.delete_k} would delete all of {self.dim} dimensions"
                )

    def base_variant(self) -> VariantSpec:
        return VariantSpec(**{f.name: getattr(self, f.name) for f in fields(VariantSpec)})

    def variants(self) -> list[VariantSpec]:
        base = self.base_variant()
        return [base] + [replace(base, **abl) for abl in self.ablations]

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchConfig":
        if not isinstance(doc, dict):
            raise ParameterError("config must be a JSON object")
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(doc) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        if "schema_version" not in doc:
            raise ParameterError("config is missing schema_version")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)

    def _stage_fields(self, prefix: str) -> dict:
        """Every field named prefix + x, keyed x: one stage config's arguments."""
        n = len(prefix)
        return {f.name[n:]: getattr(self, f.name) for f in fields(self) if f.name.startswith(prefix)}

    def trainer_config(self, seed: int) -> TrainerConfig:
        return TrainerConfig(
            obs_dim=self.grid_size * self.grid_size, vocab_size=len(build_vocab(self.grid_size)),
            dim=self.dim, seed=seed, **self._stage_fields("encoder_"),
        )

    def policy_config(self, seed: int) -> PolicyConfig:
        return PolicyConfig(seed=seed, **self._stage_fields("policy_"))


@dataclass(frozen=True)
class BenchRow:
    """One report cell: a variant's report fields plus the run fields."""

    collapse: str
    delete_k: int
    corrupt_kind: str
    alpha_or_std: float | None
    injected_gap_norm: float
    train_modality: str
    eval_modality: str  # visual | text | text_heldout
    seed: int
    success_mean: float
    success_std: float
    chance_floor: float

    def csv_values(self) -> list[str]:
        """CSV_COLUMNS cells, formatted by each field's declared type, so an
        integer-valued float field still writes as a float."""
        types = {f.name: f.type for f in fields(self)}
        return [_csv_cell(getattr(self, c), types[c].startswith("float")) for c in CSV_COLUMNS]


def _csv_cell(value, is_float: bool) -> str:
    if value is None:
        return ""
    return repr(float(value)) if is_float else str(value)


@dataclass
class TransferReport:
    config: dict
    chance_floor: float
    rows: list[BenchRow] = field(default_factory=list)
    aggregates: list[dict] = field(default_factory=list)

    def aggregate(self, eval_modality: str, **variant_fields) -> dict:
        """The cross-seed aggregate row matching the given cell."""
        for agg in self.aggregates:
            if agg["eval_modality"] != eval_modality:
                continue
            if all(agg[k] == v for k, v in variant_fields.items()):
                return agg
        raise KeyError(f"no aggregate for {eval_modality} {variant_fields}")

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "chance_floor": self.chance_floor,
            "rows": [asdict(r) for r in self.rows],
            "aggregates": self.aggregates,
        }

    def write_json(self, path) -> None:
        write_atomic(path, json_text(self.to_json_dict()))

    def write_csv(self, path) -> None:
        write_atomic(path, csv_text(CSV_COLUMNS, [row.csv_values() for row in self.rows]))


def clips_from_dataset(dataset: Sequence[tuple[Trajectory, GridTask]]) -> list[Clip]:
    """Trajectories with at least one transition become encoder clips,
    paired with their task's training templates."""
    clips = []
    for traj, task in dataset:
        if len(traj.states) < 2:
            continue
        clips.append(
            Clip(traj.observations, tuple(task.templates[i] for i in TRAIN_TEMPLATE_INDICES))
        )
    return clips


def text_reference_bank(encoders, tasks: Sequence[GridTask]) -> EmbeddingBank:
    """Unit text embeddings of every task under every training template.

    Rows go through the goal-embedding path, so collapse statistics fit
    here apply to what policies actually consume.
    """
    ordered = sorted(tasks, key=lambda t: t.task_id)
    ids = [task.task_id for task in ordered for _ in TRAIN_TEMPLATE_INDICES]
    seqs = [task.templates[i] for task in ordered for i in TRAIN_TEMPLATE_INDICES]
    return encode_goals(encoders, None, Modality.TEXT, ids, seqs)


def _fit_transform(
    variant: VariantSpec, ref_v: EmbeddingBank, ref_l: EmbeddingBank
) -> CollapseTransform | None:
    if variant.collapse == "none":
        return None
    if variant.collapse == "centralize":
        return fit_centralize(ref_v, ref_l, fit_reference="bench_reference_banks")
    return fit_delete(ref_v, ref_l, variant.delete_k, fit_reference="bench_reference_banks")


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except DivergenceError as exc:
        raise DivergenceError(f"stage '{name}': {exc}") from exc
    except Exception as exc:
        raise PipelineError(name, f"{type(exc).__name__}: {exc}") from exc


def train_seed_encoders(
    config: BenchConfig, tasks: Sequence[GridTask], seed: int
) -> tuple[list[tuple[Trajectory, GridTask]], TrainerConfig, TrainResult]:
    """The encoder stage of one bench seed: its gridworld dataset, the
    trainer config derived from the seed, and the trained encoder pair."""
    dataset = _stage(
        "build_dataset", build_dataset, tasks, config.demos_per_task, subseed(seed, _STAGE_DATA)
    )
    trainer_config = config.trainer_config(subseed(seed, _STAGE_ENCODER))
    trained = _stage("train_encoders", train_encoders, clips_from_dataset(dataset), trainer_config)
    return dataset, trainer_config, trained


def run_transfer_experiment(config: BenchConfig) -> TransferReport:
    """Run the full pipeline per seed and variant; aggregate mean and std
    across seeds per (variant, eval modality)."""
    tasks = _stage("generate_tasks", generate_tasks, config.grid_size, config.world_seed)
    floor = _stage(
        "chance_floor",
        chance_floor,
        tasks,
        config.episodes_per_task,
        config.horizon,
        subseed(config.world_seed, _CHANCE_TAG),
    )
    gap_direction = normalize(
        np.random.default_rng(subseed(config.world_seed, _GAP_TAG)).standard_normal(config.dim)
    )
    train_modality = Modality(config.train_modality)
    variants = config.variants()
    report = TransferReport(config=config.to_dict(), chance_floor=floor)
    cells: dict[tuple[int, str], list[BenchRow]] = {}
    evals: list[tuple[str, Sequence[int] | None]] = [
        (m, TRAIN_TEMPLATE_INDICES if m == "text" else None) for m in config.eval_modalities
    ]
    if config.eval_heldout_text and "text" in config.eval_modalities:
        evals.append(("text_heldout", HELDOUT_TEMPLATE_INDICES))

    for seed in config.seeds:
        dataset, _, trained = train_seed_encoders(config, tasks, seed)
        encoders = trained.params
        # Reference banks do not depend on the variant: unit visual goals
        # once per seed, each variant adding its own injected gap.
        unit_v, _ = _stage(
            "reference_banks", build_goal_bank, encoders, None, dataset, Modality.VISUAL,
            subseed(seed, _STAGE_REFBANK),
        )
        ref_l = _stage("reference_banks", text_reference_bank, encoders, tasks)
        for vi, variant in enumerate(variants):
            offset = gap_direction * variant.injected_gap_norm if variant.injected_gap_norm > 0.0 else None
            ref_v = unit_v if offset is None else unit_v.with_values(unit_v.values + offset)
            transform = _stage("fit_collapse", _fit_transform, variant, ref_v, ref_l)
            corrupt_cfg = variant.corrupt_config(subseed(seed, _STAGE_CORRUPT, vi))
            policy = _stage(
                "train_policy", train_policy, dataset, encoders, transform, corrupt_cfg, train_modality,
                config.policy_config(subseed(seed, _STAGE_POLICY, vi)), TRAIN_TEMPLATE_INDICES, offset,
            ).params
            for eval_name, pool in evals:
                eval_modality = Modality.TEXT if eval_name.startswith("text") else Modality.VISUAL
                tag = _STAGE_EVAL_HELDOUT if eval_name == "text_heldout" else _STAGE_EVAL
                result = _stage(
                    "evaluate_policy", evaluate_policy, policy, tasks, eval_modality, encoders, transform,
                    config.episodes_per_task, config.horizon, subseed(seed, tag, vi), pool,
                    offset if eval_modality is Modality.VISUAL else None,
                )
                per_task = np.array(list(result.per_task.values()))
                row = BenchRow(
                    **variant.report_fields(),
                    train_modality=config.train_modality,
                    eval_modality=eval_name,
                    seed=seed,
                    success_mean=float(result.success_rate),
                    success_std=float(per_task.std()),
                    chance_floor=floor,
                )
                report.rows.append(row)
                cells.setdefault((vi, eval_name), []).append(row)

    # One aggregate per (variant, eval modality) cell, in run order, so
    # variants that differ in any field (delete_k included) never pool.
    for rows in cells.values():
        values = [row.success_mean for row in rows]
        cell = {k: v for k, v in asdict(rows[0]).items() if k != "seed"}
        cell.update(success_mean=float(np.mean(values)), success_std=float(np.std(values)), n_seeds=len(values))
        report.aggregates.append(cell)
    return report
