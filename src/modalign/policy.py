"""Goal-conditioned behavior cloning and rollout evaluation.

The policy is a dense net mapping (state one-hot ++ goal embedding) to
five action logits, trained with cross-entropy on expert actions. Goal
embeddings are normalized before conditioning, so the policy sees a
direction; corrupted training goals are unit length already, and raw
collapsed goals at evaluation time get the same treatment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .banks import EmbeddingBank, Modality, unit_rows
from .collapse import CollapseTransform, apply_to_bank
from .corrupt import CorruptConfig, corrupt_bank
from .errors import DimensionError, DivergenceError, ParameterError
from .gridworld import Action, GridTask, Trajectory, expert_trajectory, step_cells
from .nets import DenseParams, MomentumState, dense_backward, dense_forward, init_dense
from .trainer import EncoderParams, frame_differences, text_forward


@dataclass(frozen=True)
class PolicyConfig:
    steps: int = 3000
    batch_size: int = 64
    learning_rate: float = 0.3
    momentum: float = 0.9
    hidden: tuple[int, ...] = (64,)
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


@dataclass
class PolicyParams:
    net: DenseParams
    grid_size: int


@dataclass
class PolicyResult:
    params: PolicyParams
    loss_trace: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class EvalReport:
    success_rate: float
    per_task: dict[str, float]
    episodes_per_task: int


def encode_goals(
    encoders: EncoderParams,
    transform: CollapseTransform | None,
    modality: Modality,
    task_ids: Sequence[str],
    items: Sequence,
    visual_offset: np.ndarray | None = None,
) -> EmbeddingBank:
    """Collapsed goal bank, one row per item: a Trajectory (visual) or a
    token sequence (text), all encoded in one batch.

    Raw encoder outputs are unit-normalized first (the contrastive objective
    only constrains directions), so corruption strengths and injected gap
    norms are scale-free. A visual goal is the frame difference of the
    first and last observations; a zero transition has no direction and
    raises DegenerateVectorError. visual_offset, when set, is added to the
    unit visual rows before collapsing (a synthetic modality gap).
    """
    if modality is Modality.VISUAL:
        starts, ends = [t.observations[0] for t in items], [t.observations[-1] for t in items]
        rows = unit_rows(frame_differences(encoders, starts, ends), "visual goal", 1e-12)
        rows = rows if visual_offset is None else rows + visual_offset
    else:
        rows = unit_rows(text_forward(encoders, items), "text goal")
    return apply_to_bank(transform, EmbeddingBank(modality, rows.shape[1], tuple(task_ids), rows))


def _draw_template(task: GridTask, pool: Sequence[int] | None, rng: np.random.Generator):
    """One template of the task, drawn uniformly from pool (default: all)."""
    pool = range(len(task.templates)) if pool is None else pool
    return task.templates[int(pool[int(rng.integers(len(pool)))])]


def build_goal_bank(
    encoders: EncoderParams,
    transform: CollapseTransform | None,
    dataset: Sequence[tuple[Trajectory, GridTask]],
    modality: Modality,
    seed: int,
    template_pool: Sequence[int] | None = None,
    visual_offset: np.ndarray | None = None,
) -> tuple[EmbeddingBank, list[int]]:
    """Per-trajectory goal embeddings as a bank, plus the dataset indices
    that produced each row (zero-transition trajectories are excluded).
    Text rows draw their templates in row order from a stream seeded by seed."""
    kept = [i for i, (traj, _) in enumerate(dataset) if len(traj.states) >= 2]
    if not kept:
        raise ParameterError("no usable trajectories in the dataset")
    rng = np.random.default_rng(seed)
    if modality is Modality.VISUAL:
        items = [dataset[i][0] for i in kept]
    else:
        items = [_draw_template(dataset[i][1], template_pool, rng) for i in kept]
    ids = [dataset[i][1].task_id for i in kept]
    return encode_goals(encoders, transform, modality, ids, items, visual_offset), kept


def _state_onehot(grid_size: int, cells) -> np.ndarray:
    """One-hot rows for (n, 2) grid cells."""
    cells = np.asarray(cells, dtype=np.intp).reshape(-1, 2)
    onehot = np.zeros((len(cells), grid_size * grid_size))
    onehot[np.arange(len(cells)), cells[:, 0] * grid_size + cells[:, 1]] = 1.0
    return onehot


def train_policy_from_arrays(
    states: np.ndarray,
    goals: np.ndarray,
    actions: np.ndarray,
    grid_size: int,
    config: PolicyConfig,
) -> PolicyResult:
    """Cross-entropy behavior cloning on explicit (state, goal, action)
    arrays. Goals are used as given (no normalization here)."""
    states = np.asarray(states, dtype=np.float64)
    goals = np.asarray(goals, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.intp)
    if states.ndim != 2 or goals.ndim != 2 or states.shape[0] != goals.shape[0]:
        raise DimensionError(f"states {states.shape} and goals {goals.shape} disagree")
    if actions.shape != (states.shape[0],):
        raise DimensionError(f"actions shape {actions.shape} does not match rows")
    if states.shape[0] == 0:
        raise ParameterError("behavior cloning needs at least one example")
    inputs = np.concatenate([states, goals], axis=1)
    rng = np.random.default_rng(config.seed)
    net = init_dense([inputs.shape[1], *config.hidden, len(Action)], rng)
    optimizer = MomentumState(net.arrays(), config.learning_rate, config.momentum)
    trace: list[float] = []
    n = inputs.shape[0]
    for step_idx in range(config.steps):
        batch = rng.integers(0, n, size=min(config.batch_size, n))
        x = inputs[batch]
        y = actions[batch]
        logits, cache = dense_forward(net, x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.mean(np.log(probs[np.arange(len(y)), y] + 1e-300)))
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at step {step_idx}")
        trace.append(loss)
        dlogits = probs.copy()
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits /= len(y)
        grads, _ = dense_backward(net, cache, dlogits)
        optimizer.step(net.arrays(), grads.arrays())
    return PolicyResult(PolicyParams(net, grid_size), trace)


def train_policy(
    dataset: Sequence[tuple[Trajectory, GridTask]],
    encoders: EncoderParams,
    transform: CollapseTransform | None,
    corrupt_cfg: CorruptConfig | None,
    train_modality: Modality,
    config: PolicyConfig,
    template_pool: Sequence[int] | None = None,
    visual_offset: np.ndarray | None = None,
) -> PolicyResult:
    """Behavior cloning on one modality's collapsed, corrupted goal
    embeddings; corrupt_cfg None trains on uncorrupted goals."""
    if not dataset:
        raise ParameterError("dataset must be non-empty")
    grid_size = dataset[0][1].grid_size
    bank, kept = build_goal_bank(
        encoders, transform, dataset, train_modality, config.seed, template_pool, visual_offset
    )
    if corrupt_cfg is not None:
        bank = corrupt_bank(bank, corrupt_cfg)
    rows, cells, actions = [], [], []
    for row, dataset_idx in enumerate(kept):
        traj, _ = dataset[dataset_idx]
        rows += [row] * len(traj.actions)
        cells += traj.states[: len(traj.actions)]
        actions += traj.actions
    goals = unit_rows(bank.values, "goal")[rows]
    return train_policy_from_arrays(
        _state_onehot(grid_size, cells), goals, np.asarray(actions), grid_size, config
    )


def greedy(policy: PolicyParams, goals: np.ndarray):
    """The rollout chooser of the policy's greedy actions, episode i
    conditioned on goals[i]; argmax breaks ties at the lowest action index."""

    def choose(active: np.ndarray, cells: np.ndarray) -> np.ndarray:
        x = np.concatenate([_state_onehot(policy.grid_size, cells), goals[active]], axis=1)
        return np.argmax(dense_forward(policy.net, x)[0], axis=1)

    return choose


def rollout(tasks: Sequence[GridTask], streams, horizon: int, choose) -> np.ndarray:
    """Lockstep episodes, episode i on tasks[i] with stream streams[i], which
    draws its start cell here (after any goal draws of the caller). Every
    time step makes one choose(active, cells) call for the episodes not yet
    on their target. Returns which episodes reach it by the horizon."""
    grids = np.array([task.grid_size for task in tasks], dtype=np.intp)
    targets = np.array([task.target for task in tasks], dtype=np.intp).reshape(-1, 2)
    cells = np.array(
        [(rng.integers(t.grid_size), rng.integers(t.grid_size)) for rng, t in zip(streams, tasks)],
        dtype=np.intp,
    ).reshape(-1, 2)
    reached = np.all(cells == targets, axis=1)
    for _ in range(horizon):
        active = np.flatnonzero(~reached)
        if active.size == 0:
            break
        cells[active] = step_cells(grids[active], cells[active], choose(active, cells[active]))
        reached[active] = np.all(cells[active] == targets[active], axis=1)
    return reached


def _episodes(tasks: Sequence[GridTask], episodes_per_task: int, seed: int):
    """Tasks sorted by id, each episode's task, and each episode's stream
    default_rng([seed, task index, episode])."""
    ordered = sorted(tasks, key=lambda t: t.task_id)
    pairs = [(ti, episode) for ti in range(len(ordered)) for episode in range(episodes_per_task)]
    streams = [np.random.default_rng([seed, ti, episode]) for ti, episode in pairs]
    return ordered, [ordered[ti] for ti, _ in pairs], streams


def _prompt(task: GridTask, rng: np.random.Generator) -> Trajectory:
    """A fresh demonstration from a random start off the target."""
    while True:
        start = (int(rng.integers(task.grid_size)), int(rng.integers(task.grid_size)))
        if start != task.target:
            return expert_trajectory(task, start, int(rng.integers(0, 2**63 - 1)))


def evaluate_policy(
    policy: PolicyParams,
    tasks: Sequence[GridTask],
    eval_modality: Modality,
    encoders: EncoderParams,
    transform: CollapseTransform | None,
    episodes_per_task: int,
    horizon: int,
    seed: int,
    template_pool: Sequence[int] | None = None,
    visual_offset: np.ndarray | None = None,
) -> EvalReport:
    """Greedy rollouts from seeded random starts; success means the agent
    sits on the target at or before the horizon.

    Evaluation goals are collapsed but never corrupted. Visual goals come
    from a fresh prompt demonstration per episode (its own start cell and
    distractors), so they never match the rollout's own observations.
    """
    ordered, episodes, streams = _episodes(tasks, episodes_per_task, seed)
    if eval_modality is Modality.VISUAL:
        items = [_prompt(task, rng) for task, rng in zip(episodes, streams)]
    else:
        items = [_draw_template(task, template_pool, rng) for task, rng in zip(episodes, streams)]
    ids = [task.task_id for task in episodes]
    goals = encode_goals(encoders, transform, eval_modality, ids, items, visual_offset)
    reached = rollout(episodes, streams, horizon, greedy(policy, unit_rows(goals.values, "goal")))
    wins = reached.reshape(len(ordered), episodes_per_task).sum(axis=1)
    return EvalReport(
        success_rate=int(reached.sum()) / reached.size,
        per_task={task.task_id: int(w) / episodes_per_task for task, w in zip(ordered, wins)},
        episodes_per_task=episodes_per_task,
    )


def chance_floor(
    tasks: Sequence[GridTask], episodes_per_task: int, horizon: int, seed: int
) -> float:
    """Success rate of a uniformly random policy under the same protocol:
    each active episode draws its action from its own stream every step."""
    _, episodes, streams = _episodes(tasks, episodes_per_task, seed)

    def uniform(active: np.ndarray, cells: np.ndarray) -> np.ndarray:
        return np.array([streams[i].integers(len(Action)) for i in active], dtype=np.intp)

    reached = rollout(episodes, streams, horizon, uniform)
    return int(reached.sum()) / reached.size
