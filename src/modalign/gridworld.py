"""Gridworld tasks, expert demonstrations, and synthetic embedding banks.

Each task is "reach a target cell" on a G x G grid, described both
visually (scene frames marking the goal cell, the agent, and static
distractors) and textually (templated token phrases, several
paraphrases per task).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .banks import EmbeddingBank, row_norms
from .errors import ParameterError

MIN_GRID_SIZE = 3
N_DISTRACTORS = 2
DISTRACTOR_VALUE = 0.5
GOAL_VALUE = 2.0

# Paraphrase templates; {r}/{c} are filled with per-coordinate tokens.
# The last template is reserved as the held-out paraphrase: the encoder
# trainer never sees it, but all of its tokens occur in the others.
TEMPLATES = (
    ("go", "to", "row", "{r}", "col", "{c}"),
    ("navigate", "to", "cell", "row", "{r}", "col", "{c}"),
    ("reach", "row", "{r}", "col", "{c}", "target"),
    ("go", "reach", "cell", "row", "{r}", "col", "{c}"),
)
TRAIN_TEMPLATE_INDICES = tuple(range(len(TEMPLATES) - 1))
HELDOUT_TEMPLATE_INDICES = (len(TEMPLATES) - 1,)

# The templates' fixed words in first-use order: the head of every vocabulary.
_FRAME_WORDS = tuple(dict.fromkeys(word for template in TEMPLATES for word in template if word[0] != "{"))


class Action(IntEnum):
    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3
    STAY = 4


# Each action's (row, column) change, one row per Action in order.
_MOVE_ROWS = np.array([(-1, 0), (1, 0), (0, -1), (0, 1), (0, 0)])


@dataclass(frozen=True)
class GridTask:
    task_id: str
    target: tuple[int, int]
    templates: tuple[tuple[int, ...], ...]  # token-index sequences
    grid_size: int


@dataclass(frozen=True)
class Trajectory:
    states: tuple[tuple[int, int], ...]
    actions: tuple[Action, ...]
    observations: np.ndarray  # (len(states), G*G)


def build_vocab(grid_size: int) -> list[str]:
    """The closed token vocabulary for a given grid size."""
    return list(_FRAME_WORDS) + [f"r{i}" for i in range(grid_size)] + [
        f"c{i}" for i in range(grid_size)
    ]


def generate_tasks(grid_size: int, seed: int) -> list[GridTask]:
    """One task per cell (K = G*G), each with every paraphrase template,
    listed in a seeded random order."""
    if grid_size < MIN_GRID_SIZE:
        raise ParameterError(f"grid size must be >= {MIN_GRID_SIZE}, got {grid_size}")
    vocab = build_vocab(grid_size)
    index = {tok: i for i, tok in enumerate(vocab)}
    tasks = []
    for r in range(grid_size):
        for c in range(grid_size):
            templates = tuple(
                tuple(index[tok.format(r=f"r{r}", c=f"c{c}")] for tok in template)
                for template in TEMPLATES
            )
            tasks.append(
                GridTask(
                    task_id=f"r{r}c{c}", target=(r, c), templates=templates, grid_size=grid_size
                )
            )
    rng = np.random.default_rng(seed)
    rng.shuffle(tasks)
    return tasks


def expert_trajectory(task: GridTask, start_cell: tuple[int, int], seed: int) -> Trajectory:
    """Shortest path to the target, moving along rows before columns. Each
    state's flattened scene frame marks the seeded static distractor cells,
    the goal cell (so a task is identifiable within its scene) and the
    agent; markers that share a cell add up."""
    grid_size = task.grid_size
    r, c = start_cell
    if not (0 <= r < grid_size and 0 <= c < grid_size):
        raise ParameterError(f"start cell {start_cell} outside a {grid_size}x{grid_size} grid")
    tr, tc = task.target
    rng = np.random.default_rng(seed)
    distractors = rng.choice(grid_size * grid_size, size=N_DISTRACTORS, replace=False)

    vertical, horizontal = (Action.DOWN if tr > r else Action.UP), (Action.RIGHT if tc > c else Action.LEFT)
    actions = (vertical,) * abs(tr - r) + (horizontal,) * abs(tc - c)
    path = np.cumsum(np.concatenate([[(r, c)], _MOVE_ROWS[list(actions)]]), axis=0)
    frames = np.zeros((len(path), grid_size * grid_size))
    frames[:, distractors] = DISTRACTOR_VALUE  # distinct cells, so this adds each marker once
    frames[:, tr * grid_size + tc] += GOAL_VALUE
    frames[np.arange(len(path)), path @ (grid_size, 1)] += 1.0
    return Trajectory(tuple(map(tuple, path.tolist())), actions, frames)


def build_dataset(
    tasks: list[GridTask], trajectories_per_task: int, seed: int
) -> list[tuple[Trajectory, GridTask]]:
    """Expert demonstrations from seeded random start cells; a draw that starts
    on its task's target takes its three stream draws but adds none."""
    if trajectories_per_task < 0:
        raise ParameterError(f"trajectories_per_task must be >= 0, got {trajectories_per_task}")
    rng = np.random.default_rng(seed)
    dataset = []
    for task in tasks:
        for _ in range(trajectories_per_task):
            start = (int(rng.integers(task.grid_size)), int(rng.integers(task.grid_size)))
            traj_seed = int(rng.integers(0, 2**63 - 1))
            if start != task.target:
                dataset.append((expert_trajectory(task, start, traj_seed), task))
    return dataset


def step(grid_size: int, cell: tuple[int, int], action: Action) -> tuple[int, int]:
    """Grid dynamics: moves clamp at the walls."""
    dr, dc = _MOVE_ROWS[Action(action)].tolist()
    return (
        min(max(cell[0] + dr, 0), grid_size - 1),
        min(max(cell[1] + dc, 0), grid_size - 1),
    )


def step_cells(grid_size: int, cells: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """`step` for n cells (n, 2) and n actions at once."""
    return np.clip(cells + _MOVE_ROWS[actions], 0, grid_size - 1)


def synthetic_gap_bank(
    n_tasks: int,
    dim: int,
    gap_norm: float,
    intra_noise_std: float,
    seed: int,
    rows_per_task: int = 8,
) -> tuple[EmbeddingBank, EmbeddingBank]:
    """Construct a matched visual/text bank pair with a known modality gap.

    Per task a latent unit direction z_k is drawn; rows are noisy
    normalized copies of z_k, offset by per-modality constants whose
    difference is a random vector of exactly gap_norm length. Serves as
    the construction oracle for diagnostics and collapse tests.
    """
    if dim < 2:
        raise ParameterError(f"dim must be >= 2, got {dim}")
    if n_tasks < 1 or rows_per_task < 1:
        raise ParameterError("n_tasks and rows_per_task must be positive")
    if intra_noise_std < 0.0:
        raise ParameterError(f"intra_noise_std must be >= 0, got {intra_noise_std}")
    rng = np.random.default_rng(seed)
    latents = rng.standard_normal((n_tasks, dim))
    latents /= row_norms(latents)[:, None]
    gap = rng.standard_normal(dim)
    gap = gap / row_norms(gap) * gap_norm
    ids = tuple(f"task{k:03d}" for k in range(n_tasks) for _ in range(rows_per_task))

    def rows(offset):
        noisy = np.repeat(latents, rows_per_task, axis=0) + rng.normal(
            0.0, intra_noise_std, size=(len(ids), dim)
        )
        return noisy / row_norms(noisy)[:, None] + offset

    return (
        EmbeddingBank("visual", ids, rows(gap / 2.0)),
        EmbeddingBank("text", ids, rows(-gap / 2.0)),
    )
