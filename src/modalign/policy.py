"""Goal-conditioned behavior cloning and rollout evaluation.

The policy is a dense net mapping (state one-hot ++ goal embedding) to
five action logits, trained with cross-entropy on expert actions. Goal
embeddings are normalized before conditioning, so the policy sees a
direction; corrupted training goals are unit length already, and raw
collapsed goals at evaluation time get the same treatment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .banks import EmbeddingBank, unit_rows
from .collapse import CollapseTransform, apply_to_bank
from .corrupt import CorruptConfig, corrupt_bank
from .errors import (
    NON_NEGATIVE,
    POSITIVE,
    UNIT_INTERVAL,
    DimensionError,
    DivergenceError,
    ParameterError,
    check_fields,
    refuse_first,
)
from .gridworld import Action, GridTask, Trajectory, expert_trajectory, step_cells
from .nets import DenseParams, MomentumState, dense_backward, dense_count, dense_forward, init_dense
from .trainer import EncoderParams, frame_differences, text_forward


@dataclass(frozen=True)
class PolicyConfig:
    steps: int = field(default=3000, metadata=NON_NEGATIVE)
    batch_size: int = field(default=64, metadata=POSITIVE)
    learning_rate: float = field(default=0.3, metadata=POSITIVE)
    momentum: float = field(default=0.9, metadata=UNIT_INTERVAL)
    hidden: tuple[int, ...] = field(default=(64,), metadata=POSITIVE)
    seed: int = field(default=0, metadata=NON_NEGATIVE)

    __post_init__ = check_fields


@dataclass
class PolicyResult:
    net: DenseParams
    loss_trace: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class EvalReport:
    success_rate: float
    per_task: dict[str, float]
    episodes_per_task: int


def encode_goals(
    encoders: EncoderParams, modality: str, task_ids: Sequence[str], items: Sequence
) -> EmbeddingBank:
    """Unit goal bank, one row per item: a Trajectory (visual) or a token
    sequence (text), all encoded in one batch.

    Raw encoder outputs are unit-normalized (the contrastive objective only
    constrains directions), so corruption strengths and injected gap norms
    are scale-free. A visual goal is the frame difference of the first and
    last observations; a zero transition has no direction and raises
    DegenerateVectorError. No items is a ParameterError.
    """
    if not items:
        raise ParameterError("no goals to encode")
    if modality == "visual":
        starts, ends = [t.observations[0] for t in items], [t.observations[-1] for t in items]
        rows = unit_rows(frame_differences(encoders, starts, ends), "visual goal", 1e-12)
    else:
        rows = unit_rows(text_forward(encoders, items), "text goal")
    return EmbeddingBank(modality, tuple(task_ids), rows)


def variant_goals(
    bank: EmbeddingBank, transform: CollapseTransform | None, visual_offset: np.ndarray | None = None
) -> EmbeddingBank:
    """One variant's goals from unit goals: visual_offset (a synthetic
    modality gap) is added to a visual bank's rows, never a text bank's,
    then the rows are collapsed by transform (None is the identity)."""
    if visual_offset is not None and bank.modality == "visual":
        bank = bank.with_values(bank.values + visual_offset)
    return apply_to_bank(transform, bank)


def _draw_template(task: GridTask, pool: Sequence[int] | None, rng: np.random.Generator):
    """One template of the task, drawn uniformly from pool (default: all)."""
    pool = range(len(task.templates)) if pool is None else pool
    return task.templates[int(pool[int(rng.integers(len(pool)))])]


def build_goal_bank(
    encoders: EncoderParams,
    dataset: Sequence[tuple[Trajectory, GridTask]],
    modality: str,
    seed: int,
    template_pool: Sequence[int] | None = None,
) -> tuple[EmbeddingBank, list[int]]:
    """Unit goals of the dataset's trajectories as a bank, plus each row's
    dataset index. Text rows draw their templates in row order from a stream
    seeded by seed."""
    rng = np.random.default_rng(seed)
    if modality == "visual":
        items = [traj for traj, _ in dataset]
    else:
        items = [_draw_template(task, template_pool, rng) for _, task in dataset]
    ids = [task.task_id for _, task in dataset]
    return encode_goals(encoders, modality, ids, items), list(range(len(dataset)))


def _state_onehot(grid_size: int, cells) -> np.ndarray:
    """One-hot rows for (n, 2) grid cells."""
    cells = np.asarray(cells, dtype=np.intp).reshape(-1, 2)
    onehot = np.zeros((len(cells), grid_size * grid_size))
    onehot[np.arange(len(cells)), cells[:, 0] * grid_size + cells[:, 1]] = 1.0
    return onehot


def expert_steps(dataset: Sequence[tuple[Trajectory, GridTask]], grid_size: int):
    """Every expert step of the dataset, in order: one-hot states
    (n, grid_size**2), actions (n,), and goal_rows (n,), each step's row in
    build_goal_bank's bank of the dataset."""
    trajs = [traj for traj, _ in dataset]
    cells = [cell for traj in trajs for cell in traj.states[: len(traj.actions)]]
    actions = np.array([a for traj in trajs for a in traj.actions], dtype=np.intp)
    goal_rows = np.array([row for row, traj in enumerate(trajs) for _ in traj.actions], dtype=np.intp)
    return _state_onehot(grid_size, cells), actions, goal_rows


def training_goals(
    goals: EmbeddingBank, corrupt_cfg: CorruptConfig | None, transform: CollapseTransform | None = None,
    visual_offset: np.ndarray | None = None,
) -> np.ndarray:
    """One policy's unit goal rows from unit goals: variant_goals of them,
    corrupted unless corrupt_cfg is None, then normalized."""
    goals = variant_goals(goals, transform, visual_offset)
    return unit_rows((goals if corrupt_cfg is None else corrupt_bank(goals, corrupt_cfg)).values, "goal")


def train_policies(
    states: np.ndarray,
    actions: np.ndarray,
    goal_rows: np.ndarray,
    goals: Sequence[np.ndarray],
    grid_size: int,
    config: PolicyConfig,
) -> list[PolicyResult]:
    """Cross-entropy behavior cloning of one policy per goals[v], all under
    config: expert row i pairs states[i] and goals[v][goal_rows[i]] with
    actions[i]. Goals are used as given. Results come in input order.

    Each policy is a lane of a stacked net that runs one gemm per lane, so
    each result is bit-identical to training that policy alone. The lanes
    split into min(V, CPUs) contiguous chunks of near-equal size; 2+ chunks
    train in worker processes. Every lane trains to the last step; then one
    check raises DivergenceError at the earliest non-finite loss, the lowest
    variant at a tied step, and weights are checked only when every loss is finite.
    """
    states = np.asarray(states, dtype=np.float64)
    actions, goal_rows = np.asarray(actions), np.asarray(goal_rows)
    goals = [np.asarray(g, dtype=np.float64) for g in goals]
    if states.ndim != 2 or states.shape[1] != grid_size * grid_size:
        raise DimensionError(f"states {states.shape} are not one-hot cells of a {grid_size} grid")
    if len({g.shape[:1] for g in goals}) != 1 or any(g.ndim != 2 for g in goals):
        raise DimensionError(f"goals {[g.shape for g in goals]} are not matrices of one row count")
    for name, values, bound in (("actions", actions, len(Action)), ("goal_rows", goal_rows, len(goals[0]))):
        if values.shape != (len(states),):
            raise DimensionError(f"{name} shape {values.shape} does not match {len(states)} rows")
        if values.dtype.kind not in "iu" or not np.all((values >= 0) & (values < bound)):
            raise ParameterError(f"{name} must be integers in [0, {bound})")
    if len(states) == 0:
        raise ParameterError("behavior cloning needs at least one example")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1  # Linux only: else one process
    chunks = np.array_split(np.arange(len(goals)), min(len(goals), cpus))
    jobs = [(states, actions, goal_rows, [goals[v] for v in vs], config) for vs in chunks]
    if len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, not at the top: a run with no pool never loads it
        with ProcessPoolExecutor(len(jobs)) as pool:
            lanes = [lane for chunk in pool.map(_train_lanes, *zip(*jobs)) for lane in chunk]
    else:
        lanes = _train_lanes(*jobs[0])
    refuse_first(~np.isfinite(np.stack([trace for _, trace in lanes], axis=1)), DivergenceError,
                 lambda step, v: f"variant {v}: non-finite loss at step {step}")
    refuse_first(np.array([not np.isfinite(net.flat).all() for net, _ in lanes]), DivergenceError,
                 lambda v: f"variant {v}: non-finite weights after step {config.steps - 1}")  # no loss follows it
    # Python-float traces take four times the memory of the arrays: build them after all the training.
    return [PolicyResult(net, trace.tolist()) for net, trace in lanes]


@np.errstate(over="ignore", invalid="ignore")  # a diverged lane trains on quietly; train_policies reports it
def _train_lanes(states, actions, goal_rows, goals, config):
    """(net, loss trace array) of each policy, the lanes of one stacked (V, P) net whose
    goal and first-layer weight columns are zero-padded to the widest goal: zeros add
    nothing to a gemm's sums. Each lane draws its init at its own width, then its batch rows,
    from its own default_rng(config.seed). A step gathers its (V, B, in) batch in one buffer.
    A lane whose loss or weights turn non-finite trains on to the last step; the caller reports it."""
    n, width = states.shape
    size, wide = min(config.batch_size, n), max(g.shape[1] for g in goals)
    rngs = [np.random.default_rng(config.seed) for _ in goals]
    inits = [init_dense([width + g.shape[1], *config.hidden, len(Action)], rng) for g, rng in zip(goals, rngs)]
    padded = np.concatenate([np.pad(g, ((0, 0), (0, wide - g.shape[1]))) for g in goals])  # lane v's rows, then v+1's
    x = np.empty((len(goals), size, width + wide))
    sizes = [x.shape[2], *config.hidden, len(Action)]
    net = DenseParams(sizes, np.zeros((len(goals), dense_count(sizes))))
    pairs = [(v, stacked, own) for v, init in enumerate(inits)
             for stacked, own in zip([*net.weights, *net.biases], [*init.weights, *init.biases])]
    for v, stacked, own in pairs:
        stacked[v, ..., : own.shape[-1]] = own
    optimizer = MomentumState(net.flat, config.learning_rate, config.momentum)
    grads = DenseParams(sizes, np.empty_like(net.flat))
    traces = np.empty((config.steps, len(goals)))
    lanes = np.arange(len(goals))[:, None], np.arange(size)
    offsets = lanes[0] * len(goals[0])  # lane v's goal rows start at row v * rows of padded
    # one (k, B) draw gives the rows, and leaves the stream, as k draws of B rows: a call per 128 steps
    chunks = (np.stack([rng.integers(0, n, size=(min(128, config.steps - lo), size)) for rng in rngs], axis=1)
              for lo in range(0, config.steps, 128))
    for step_idx, batch in enumerate(row for chunk in chunks for row in chunk):
        x[..., :width] = states[batch]
        # mode="clip" writes straight into the buffer; every index is in range
        np.take(padded, goal_rows[batch] + offsets, axis=0, out=x[..., width:], mode="clip")
        logits, cache = dense_forward(net, x)
        logits -= logits.max(axis=2, keepdims=True)
        probs = np.exp(logits, out=logits)
        probs /= probs.sum(axis=2, keepdims=True)
        picked = lanes + (actions[batch],)
        losses = -(np.add.reduce(np.log(probs[picked] + 1e-300), axis=1) / size)  # as np.mean
        traces[step_idx] = losses
        probs[picked] -= 1.0
        probs /= size
        optimizer.step(dense_backward(net, cache, probs, grads)[0])
    for v, stacked, own in pairs:  # unpad each lane into its own init's buffer
        own[...] = stacked[v, ..., : own.shape[-1]]
    return list(zip(inits, traces.T))


def greedy(net: DenseParams, grid_size: int, goals: np.ndarray):
    """The rollout chooser of net's greedy actions on a grid_size grid, episode
    i conditioned on goals[i]; argmax breaks ties at the lowest action index."""

    def choose(active: np.ndarray, cells: np.ndarray) -> np.ndarray:
        x = np.concatenate([_state_onehot(grid_size, cells), goals[active]], axis=1)
        return np.argmax(dense_forward(net, x)[0], axis=1)

    return choose


def rollout(tasks: Sequence[GridTask], starts: np.ndarray, horizon: int, choose) -> np.ndarray:
    """Lockstep episodes on the tasks' one grid, episode i on tasks[i] from start
    cell starts[i] (left as given). Every time step makes one choose(active, cells)
    call for the episodes not yet on their target. Returns which reach it by the horizon."""
    targets = np.array([task.target for task in tasks], dtype=np.intp).reshape(-1, 2)
    cells = np.array(starts, dtype=np.intp).reshape(-1, 2)  # a copy: the episodes move it in place
    reached = np.all(cells == targets, axis=1)
    for _ in range(horizon):
        active = np.flatnonzero(~reached)
        if active.size == 0:
            break
        cells[active] = step_cells(tasks[0].grid_size, cells[active], choose(active, cells[active]))
        reached[active] = np.all(cells[active] == targets[active], axis=1)
    return reached


def _episodes(tasks: Sequence[GridTask], episodes_per_task: int, seed: int):
    """Tasks sorted by id, each episode's task, and each episode's stream
    default_rng([seed, task index, episode]). No episode is a ParameterError."""
    if not tasks or episodes_per_task < 1:
        raise ParameterError(f"no episodes: {len(tasks)} tasks, {episodes_per_task} episodes per task")
    ordered = sorted(tasks, key=lambda t: t.task_id)
    pairs = [(ti, episode) for ti in range(len(ordered)) for episode in range(episodes_per_task)]
    streams = [np.random.default_rng([seed, ti, episode]) for ti, episode in pairs]
    return ordered, [ordered[ti] for ti, _ in pairs], streams


def _start_cells(episodes: Sequence[GridTask], streams) -> np.ndarray:
    """(n, 2) start cells: episode i draws its row, then its column, from streams[i]."""
    cells = [(rng.integers(t.grid_size), rng.integers(t.grid_size)) for rng, t in zip(streams, episodes)]
    return np.array(cells, dtype=np.intp)


def _prompt(task: GridTask, rng: np.random.Generator) -> Trajectory:
    """A fresh demonstration from a random start off the target."""
    while True:
        start = (int(rng.integers(task.grid_size)), int(rng.integers(task.grid_size)))
        if start != task.target:
            return expert_trajectory(task, start, int(rng.integers(0, 2**63 - 1)))


def eval_episodes(
    tasks: Sequence[GridTask], eval_modality: str, encoders: EncoderParams, episodes_per_task: int,
    seed: int, template_pool: Sequence[int] | None = None,
):
    """What every variant's evaluation shares: tasks sorted by id, each
    episode's task, unit goal bank row and start cell. Episode i draws its
    goal, then its start cell, from stream default_rng([seed, task index,
    episode]). A visual goal is a fresh prompt demonstration (its own start cell
    and distractors), so it never matches the rollout's own observations."""
    ordered, episodes, streams = _episodes(tasks, episodes_per_task, seed)
    if eval_modality == "visual":
        items = [_prompt(task, rng) for task, rng in zip(episodes, streams)]
    else:
        items = [_draw_template(task, template_pool, rng) for task, rng in zip(episodes, streams)]
    goals = encode_goals(encoders, eval_modality, [task.task_id for task in episodes], items)
    return ordered, episodes, goals, _start_cells(episodes, streams)


def evaluate_policy(
    net: DenseParams, episodes, horizon: int, transform: CollapseTransform | None = None,
    visual_offset: np.ndarray | None = None,
) -> EvalReport:
    """Greedy rollouts of net on eval_episodes' episodes, which it leaves as
    they are; success means the agent sits on the target at or before the
    horizon. Goals are variant_goals of the episodes' goals, never corrupted."""
    ordered, episode_tasks, goals, starts = episodes
    goals = variant_goals(goals, transform, visual_offset)
    choose = greedy(net, ordered[0].grid_size, unit_rows(goals.values, "goal"))
    reached = rollout(episode_tasks, starts, horizon, choose)
    per_task = reached.size // len(ordered)
    wins = reached.reshape(len(ordered), per_task).sum(axis=1)
    return EvalReport(
        success_rate=int(reached.sum()) / reached.size,
        per_task={task.task_id: int(w) / per_task for task, w in zip(ordered, wins)},
        episodes_per_task=per_task,
    )


def chance_floor(tasks: Sequence[GridTask], episodes_per_task: int, horizon: int, seed: int) -> float:
    """Success rate of a uniformly random policy under the same protocol:
    each active episode draws its action from its own stream every step."""
    _, episodes, streams = _episodes(tasks, episodes_per_task, seed)

    def uniform(active: np.ndarray, cells: np.ndarray) -> np.ndarray:
        return np.array([streams[i].integers(len(Action)) for i in active], dtype=np.intp)

    reached = rollout(episodes, _start_cells(episodes, streams), horizon, uniform)
    return int(reached.sum()) / reached.size
