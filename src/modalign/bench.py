"""End-to-end transfer experiment: train encoders on gridworld pairs,
fit a collapse transform, corrupt one modality's goal embeddings, train a
behavior-cloning policy on them, and evaluate the policy under both
modalities against a measured chance floor.

Everything is seeded; re-running a config reproduces every output byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .banks import EmbeddingBank, Modality, row_norms
from .collapse import COLLAPSE_KINDS, CollapseTransform, fit_centralize, fit_delete
from .corrupt import NOISE_KINDS, CorruptConfig
from .errors import (
    COSINE_FLOOR,
    NON_NEGATIVE,
    POSITIVE,
    DivergenceError,
    ParameterError,
    PipelineError,
    check_fields,
    check_keys,
    one_of,
)
from .fileio import csv_text, json_text, write_atomic
from .gridworld import (
    HELDOUT_TEMPLATE_INDICES,
    TRAIN_TEMPLATE_INDICES,
    GridTask,
    Trajectory,
    build_dataset,
    build_vocab,
    generate_tasks,
    usable_trajectories,
)
from .policy import (
    PolicyConfig,
    build_goal_bank,
    chance_floor,
    encode_goals,
    eval_episodes,
    evaluate_policy,
    expert_steps,
    train_policies,
    training_goals,
    variant_goals,
)
from .trainer import Clip, TrainerConfig, TrainResult, train_encoders

_STAGE_DATA = 0
_STAGE_ENCODER = 1
_STAGE_GOALS = 2
_STAGE_POLICY = 3
_STAGE_EVAL = 4
_STAGE_EVAL_HELDOUT = 5
_STAGE_CORRUPT = 6
_CHANCE_TAG = 97
_GAP_TAG = 98


def subseed(*keys: int) -> int:
    """Deterministic derived seed for a pipeline stage."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class VariantSpec:
    """One ablation cell: collapse kind, corruption, and injected gap."""

    collapse: str = field(default="centralize", metadata=one_of(*COLLAPSE_KINDS, "none"))
    delete_k: int = field(default=1, metadata=POSITIVE)
    corrupt_kind: str = field(default="cosine", metadata=one_of(*NOISE_KINDS, "none"))
    alpha: float = field(default=0.2, metadata=COSINE_FLOOR)
    std: float = field(default=0.1, metadata=NON_NEGATIVE)
    injected_gap_norm: float = field(default=0.0, metadata=NON_NEGATIVE)

    __post_init__ = check_fields

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
        return CorruptConfig(self.corrupt_kind, self.alpha, self.std, seed)

    def report_fields(self) -> dict:
        """The variant's cells of a report row; alpha and std report as alpha_or_std."""
        cells = {f.name: getattr(self, f.name) for f in fields(VariantSpec) if f.name not in ("alpha", "std")}
        return {**cells, "alpha_or_std": self.alpha_or_std}


_MODALITY = one_of("visual", "text")


@dataclass(frozen=True)
class BenchConfig(VariantSpec):
    """Every bench setting; the base variant's fields come from VariantSpec."""

    schema_version: int = field(default=1, metadata=one_of(1))
    grid_size: int = field(default=5, metadata=POSITIVE)
    demos_per_task: int = field(default=20, metadata=POSITIVE)
    dim: int = field(default=16, metadata=POSITIVE)
    world_seed: int = field(default=0, metadata=NON_NEGATIVE)
    seeds: tuple[int, ...] = field(default=(0, 1, 2), metadata=NON_NEGATIVE)
    train_modality: str = field(default="visual", metadata=_MODALITY)
    eval_modalities: tuple[str, ...] = field(default=("visual", "text"), metadata=_MODALITY)
    eval_heldout_text: bool = True
    episodes_per_task: int = field(default=10, metadata=POSITIVE)
    horizon: int = field(default=8, metadata=POSITIVE)
    encoder_steps: int = 4000
    encoder_batch_size: int = 32
    encoder_learning_rate: float = 0.1
    encoder_momentum: float = 0.9
    encoder_visual_hidden: tuple[int, ...] = (64,)
    encoder_text_hidden: tuple[int, ...] = (64,)
    encoder_token_dim: int = 32
    encoder_temperature: float = 0.5
    encoder_freeze_text_after: int | None = None
    policy_steps: int = 3000
    policy_batch_size: int = 64
    policy_learning_rate: float = 0.3
    policy_momentum: float = 0.9
    policy_hidden: tuple[int, ...] = (64,)
    ablations: tuple[dict, ...] = ()

    def __post_init__(self):
        try:
            self._validate()
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"invalid bench config value: {exc}") from None

    def _validate(self):
        """Check every field and every variant before any work."""
        check_fields(self)
        if not self.seeds:
            raise ParameterError("seeds must not be empty")
        for name in ("seeds", "eval_modalities"):  # a repeat would count twice in the aggregates
            values = list(getattr(self, name))
            if len(set(values)) != len(values):
                raise ParameterError(f"{name} must not repeat, got {values}")
        if not self.eval_modalities:
            raise ParameterError("eval_modalities must name at least one modality")
        if self.horizon < 2 * (self.grid_size - 1):
            raise ParameterError(
                f"horizon {self.horizon} cannot reach every cell of a {self.grid_size} grid"
            )
        # Each stage config checks its own fields and starts its message
        # with the field name; the prefix makes that the config key.
        for prefix, stage_config in (("encoder_", self.trainer_config), ("policy_", self.policy_config)):
            try:
                stage_config(0)
            except ParameterError as exc:
                raise ParameterError(f"{prefix}{exc}") from None
        for abl in self.ablations:
            check_keys(VariantSpec, abl, "ablation", ParameterError)
        variants = self.variants()
        # each ablation keeps the checked plain values its variant stores
        ablations = tuple({key: getattr(v, key) for key in abl} for abl, v in zip(self.ablations, variants[1:]))
        object.__setattr__(self, "ablations", ablations)
        for variant in variants:
            width = self.dim - (variant.delete_k if variant.collapse == "delete" else 0)
            if width < 1:
                raise ParameterError(f"delete_k={variant.delete_k} would delete all of {self.dim} dimensions")
            if width < 2 and variant.corrupt_kind == "cosine":
                raise ParameterError(f"cosine corruption needs a goal width of at least 2, got {width}")

    def base_variant(self) -> VariantSpec:
        return VariantSpec(**{f.name: getattr(self, f.name) for f in fields(VariantSpec)})

    def variants(self) -> list[VariantSpec]:
        base = self.base_variant()
        return [base] + [replace(base, **abl) for abl in self.ablations]

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchConfig":
        check_keys(cls, doc, "config", ParameterError)
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
    """One report cell: a variant's report fields plus the run fields, in
    the order of the CSV columns."""

    collapse: str
    corrupt_kind: str
    alpha_or_std: float | None
    train_modality: str
    eval_modality: str  # visual | text | text_heldout
    success_mean: float
    success_std: float
    chance_floor: float
    seed: int
    delete_k: int
    injected_gap_norm: float

    def csv_values(self) -> list[str]:
        """The CSV cells, formatted by each field's declared type, so an
        integer-valued float field still writes as a float."""
        return [_csv_cell(getattr(self, f.name), f.type.startswith("float")) for f in fields(self)]


CSV_COLUMNS = tuple(f.name for f in fields(BenchRow))


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
        return asdict(self)

    def write_json(self, path) -> None:
        write_atomic(path, json_text(self.to_json_dict()))

    def write_csv(self, path) -> None:
        write_atomic(path, csv_text(CSV_COLUMNS, [row.csv_values() for row in self.rows]))


def clips_from_dataset(dataset: Sequence[tuple[Trajectory, GridTask]]) -> list[Clip]:
    """The usable trajectories as encoder clips, each paired with its task's
    training templates."""
    return [
        Clip(traj.observations, tuple(task.templates[t] for t in TRAIN_TEMPLATE_INDICES))
        for traj, task in (dataset[i] for i in usable_trajectories(dataset))
    ]


def text_reference_bank(encoders, tasks: Sequence[GridTask]) -> EmbeddingBank:
    """Unit text embeddings of every task under every training template.

    Rows go through the goal-embedding path, so collapse statistics fit
    here apply to what policies actually consume.
    """
    ordered = sorted(tasks, key=lambda t: t.task_id)
    ids = [task.task_id for task in ordered for _ in TRAIN_TEMPLATE_INDICES]
    seqs = [task.templates[i] for task in ordered for i in TRAIN_TEMPLATE_INDICES]
    return encode_goals(encoders, Modality.TEXT, ids, seqs)


def _fit_transform(
    variant: VariantSpec, ref_v: EmbeddingBank, ref_l: EmbeddingBank, visual_offset: np.ndarray | None
) -> CollapseTransform | None:
    """The variant's collapse transform, fit on variant_goals(ref_v, None, visual_offset) and ref_l."""
    if variant.collapse == "none":
        return None
    ref_v = variant_goals(ref_v, None, visual_offset)
    if variant.collapse == "centralize":
        return fit_centralize(ref_v, ref_l, fit_reference="bench_reference_banks")
    return fit_delete(ref_v, ref_l, variant.delete_k, fit_reference="bench_reference_banks")


def _stage(name: str, fn, *args, where: str = ""):
    """Run one stage; a failure names the stage, then what went wrong, then
    where: " (seed s)" or " (seed s, variant v)"."""
    try:
        return fn(*args)
    except PipelineError:
        raise
    except DivergenceError as exc:
        raise DivergenceError(f"stage '{name}': {exc}{where}") from exc
    except Exception as exc:
        raise PipelineError(name, f"{type(exc).__name__}: {exc}{where}") from exc


def train_seed_encoders(
    config: BenchConfig, tasks: Sequence[GridTask], seed: int
) -> tuple[list[tuple[Trajectory, GridTask]], TrainerConfig, TrainResult]:
    """The encoder stage of one bench seed: its gridworld dataset, the
    trainer config derived from the seed, and the trained encoder pair."""
    where = f" (seed {seed})"
    dataset = _stage(
        "build_dataset", build_dataset, tasks, config.demos_per_task, subseed(seed, _STAGE_DATA), where=where
    )
    trainer_config = config.trainer_config(subseed(seed, _STAGE_ENCODER))
    trained = _stage("train_encoders", train_encoders, clips_from_dataset(dataset), trainer_config, where=where)
    return dataset, trainer_config, trained


def run_transfer_experiment(config: BenchConfig) -> TransferReport:
    """Run the full pipeline per seed and variant; aggregate mean and std
    across seeds per (variant, eval modality)."""
    tasks = _stage("generate_tasks", generate_tasks, config.grid_size, config.world_seed)
    floor = _stage(
        "chance_floor", chance_floor, tasks, config.episodes_per_task, config.horizon,
        subseed(config.world_seed, _CHANCE_TAG),
    )
    gap_rng = np.random.default_rng(subseed(config.world_seed, _GAP_TAG))
    gap_direction = gap_rng.standard_normal(config.dim)
    gap_direction /= row_norms(gap_direction)
    train_modality = Modality(config.train_modality)
    variants = config.variants()
    report = TransferReport(config=config.to_dict(), chance_floor=floor)
    cells: dict[tuple[int, str], list[BenchRow]] = {}
    evals = [(m, TRAIN_TEMPLATE_INDICES if m == "text" else None, _STAGE_EVAL) for m in config.eval_modalities]
    if config.eval_heldout_text and "text" in config.eval_modalities:
        evals.append(("text_heldout", HELDOUT_TEMPLATE_INDICES, _STAGE_EVAL_HELDOUT))

    for seed in config.seeds:
        dataset, _, trained = train_seed_encoders(config, tasks, seed)
        encoders, at_seed = trained.params, f" (seed {seed})"
        # Every stream is keyed by (seed, stage), never by the variant: the
        # variants of a seed share every draw but the fields their ablation sets.
        unit_v, _ = _stage(
            "reference_banks", build_goal_bank, encoders, dataset, Modality.VISUAL,
            subseed(seed, _STAGE_GOALS), where=at_seed,
        )
        ref_l = _stage("reference_banks", text_reference_bank, encoders, tasks, where=at_seed)
        # visual goals draw no templates, so visual training goals are unit_v
        unit_train = unit_v if train_modality is Modality.VISUAL else _stage(
            "training_goals", build_goal_bank, encoders, dataset, train_modality,
            subseed(seed, _STAGE_GOALS), TRAIN_TEMPLATE_INDICES, where=at_seed,
        )[0]
        # Stage-major: every variant's collapse fit and training goals, then
        # all of the seed's policies in one lockstep training, then evaluation.
        at = [f" (seed {seed}, variant {vi})" for vi in range(len(variants))]
        offsets = [gap_direction * v.injected_gap_norm if v.injected_gap_norm > 0.0 else None for v in variants]
        transforms, goals = [], []
        for vi, (variant, offset) in enumerate(zip(variants, offsets)):
            transforms.append(_stage("fit_collapse", _fit_transform, variant, unit_v, ref_l, offset, where=at[vi]))
            goals.append(_stage(
                "training_goals", training_goals, unit_train,
                variant.corrupt_config(subseed(seed, _STAGE_CORRUPT)), transforms[vi], offset, where=at[vi],
            ))
        # The policy stage sets the run's peak memory: it runs without the
        # dataset, and evaluation without the goals, rows and loss traces.
        bc_rows = _stage("expert_steps", expert_steps, dataset, config.grid_size, where=at_seed)
        del dataset
        policies = [result.net for result in _stage(
            "train_policy", train_policies, *bc_rows, goals, config.grid_size,
            config.policy_config(subseed(seed, _STAGE_POLICY)), where=at_seed,
        )]
        del bc_rows, goals
        # Each evaluation's episodes and goals are built once, for every variant.
        episodes = [_stage(
            "eval_episodes", eval_episodes, tasks, Modality(name.removesuffix("_heldout")), encoders,
            config.episodes_per_task, subseed(seed, tag), pool, where=at_seed,
        ) for name, pool, tag in evals]
        for vi, (variant, policy, transform, offset) in enumerate(zip(variants, policies, transforms, offsets)):
            for (eval_name, *_), shared in zip(evals, episodes):
                result = _stage(
                    "evaluate_policy", evaluate_policy, policy, shared, config.horizon, transform, offset, where=at[vi]
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
