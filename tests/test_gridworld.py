import re
from collections import deque

import numpy as np
import pytest

from modalign import (
    Action,
    ParameterError,
    build_dataset,
    build_vocab,
    expert_trajectory,
    generate_tasks,
    synthetic_gap_bank,
)
from modalign.gridworld import (
    GOAL_VALUE,
    HELDOUT_TEMPLATE_INDICES,
    TEMPLATES,
    TRAIN_TEMPLATE_INDICES,
    step,
    step_cells,
)

# (cell, action, next cell) on a 5-grid, written out: one interior move per
# action, then each wall holding its move.
STEP_CASES = [
    ((2, 2), Action.UP, (1, 2)),
    ((2, 2), Action.DOWN, (3, 2)),
    ((2, 2), Action.LEFT, (2, 1)),
    ((2, 2), Action.RIGHT, (2, 3)),
    ((2, 2), Action.STAY, (2, 2)),
    ((0, 2), Action.UP, (0, 2)),
    ((4, 2), Action.DOWN, (4, 2)),
    ((2, 0), Action.LEFT, (2, 0)),
    ((2, 4), Action.RIGHT, (2, 4)),
]


def bfs_distance(grid_size, start, target):
    """Independent shortest-path oracle."""
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        cell, d = queue.popleft()
        if cell == target:
            return d
        for action in (Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT):
            nxt = step(grid_size, cell, action)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, d + 1))
    raise AssertionError("unreachable")


class TestStep:
    @pytest.mark.parametrize(
        "cell, action, nxt", STEP_CASES, ids=[f"{a.name}-from-{r}{c}" for (r, c), a, _ in STEP_CASES]
    )
    def test_written_out_moves(self, cell, action, nxt):
        got = step(5, cell, action)
        assert got == nxt and all(type(x) is int for x in got)

    def test_step_cells_is_step_on_every_cell_and_action(self):
        cases = [((r, c), a) for r in range(4) for c in range(4) for a in Action]
        cells = np.array([cell for cell, _ in cases])
        got = step_cells(4, cells, np.array([a for _, a in cases]))
        assert list(map(tuple, got.tolist())) == [step(4, cell, a) for cell, a in cases]
        cells = np.array([cell for cell, _, _ in STEP_CASES])
        got = step_cells(5, cells, np.array([a for _, a, _ in STEP_CASES]))
        assert list(map(tuple, got.tolist())) == [nxt for _, _, nxt in STEP_CASES]


class TestGenerateTasks:
    def test_one_task_per_cell(self):
        assert len(generate_tasks(3, 0)) == 9
        assert len(generate_tasks(5, 0)) == 25

    def test_deterministic_per_seed(self):
        assert generate_tasks(4, 7) == generate_tasks(4, 7)

    def test_every_cell_covered(self):
        tasks = generate_tasks(4, 3)
        assert {t.target for t in tasks} == {(r, c) for r in range(4) for c in range(4)}

    def test_paraphrases_differ_but_share_task(self):
        for task in generate_tasks(3, 1):
            assert len(task.templates) == len(TEMPLATES) >= 2
            assert len(set(task.templates)) == len(task.templates)

    def test_heldout_template_tokens_all_seen_in_training(self):
        for task in generate_tasks(5, 0):
            trained = set()
            for i in TRAIN_TEMPLATE_INDICES:
                trained.update(task.templates[i])
            for i in HELDOUT_TEMPLATE_INDICES:
                assert set(task.templates[i]) <= trained

    def test_tokens_within_vocab(self):
        vocab_size = len(build_vocab(5))
        for task in generate_tasks(5, 2):
            for template in task.templates:
                assert all(0 <= tok < vocab_size for tok in template)

    def test_small_grid_rejected(self):
        with pytest.raises(ParameterError):
            generate_tasks(2, 0)

    def test_vocab_written_out(self):
        # the order fixes every token id
        assert build_vocab(3) == [
            "go", "to", "row", "col", "navigate", "cell", "reach", "target", "r0", "r1", "r2", "c0", "c1", "c2",
        ]


class TestExpertTrajectory:
    def _task(self, grid_size, target, seed=0):
        tasks = generate_tasks(grid_size, seed)
        return next(t for t in tasks if t.target == target)

    def test_start_equals_target(self):
        task = self._task(3, (1, 1))
        traj = expert_trajectory(task, (1, 1), seed=5)
        assert len(traj.states) == 1
        assert traj.actions == ()
        assert traj.observations.shape == (1, 9)

    def test_rows_before_columns(self):
        task = self._task(3, (2, 0))
        traj = expert_trajectory(task, (0, 0), seed=5)
        assert traj.actions == (Action.DOWN, Action.DOWN)
        assert traj.states[-1] == (2, 0)

    @pytest.mark.parametrize("start, target, actions, states", [
        (
            (0, 3), (2, 1), ("DOWN", "DOWN", "LEFT", "LEFT"),
            [(0, 3), (1, 3), (2, 3), (2, 2), (2, 1)],
        ),
        (
            (3, 0), (1, 2), ("UP", "UP", "RIGHT", "RIGHT"),
            [(3, 0), (2, 0), (1, 0), (1, 1), (1, 2)],
        ),
    ], ids=["down-left", "up-right"])
    def test_written_out_paths(self, start, target, actions, states):
        traj = expert_trajectory(self._task(4, target), start, seed=3)
        assert traj.actions == tuple(Action[a] for a in actions)
        assert all(type(a) is Action for a in traj.actions)
        assert traj.states == tuple(states)
        assert all(type(x) is int for cell in traj.states for x in cell)

    def test_length_matches_bfs_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            grid = int(rng.integers(3, 7))
            tasks = generate_tasks(grid, 1)
            task = tasks[int(rng.integers(len(tasks)))]
            start = (int(rng.integers(grid)), int(rng.integers(grid)))
            traj = expert_trajectory(task, start, seed=int(rng.integers(1 << 40)))
            assert len(traj.actions) == bfs_distance(grid, start, task.target)
            assert traj.states[-1] == task.target
            assert len(traj.actions) == len(traj.states) - 1

    def test_transitions_obey_dynamics(self):
        task = self._task(5, (4, 3))
        traj = expert_trajectory(task, (0, 0), seed=9)
        for s, a, nxt in zip(traj.states, traj.actions, traj.states[1:]):
            assert step(5, s, a) == nxt

    def test_observations_mark_goal_in_every_frame(self):
        task = self._task(4, (2, 3))
        traj = expert_trajectory(task, (0, 0), seed=13)
        goal_flat = 2 * 4 + 3
        for t, obs in enumerate(traj.observations):
            assert obs[goal_flat] >= GOAL_VALUE
            agent_flat = traj.states[t][0] * 4 + traj.states[t][1]
            assert obs[agent_flat] >= 1.0

    def test_distractors_static_and_seeded(self):
        task = self._task(5, (4, 4))
        t1 = expert_trajectory(task, (0, 0), seed=21)
        t2 = expert_trajectory(task, (0, 0), seed=21)
        np.testing.assert_array_equal(t1.observations, t2.observations)
        t3 = expert_trajectory(task, (0, 0), seed=22)
        assert not np.array_equal(t1.observations, t3.observations)

    def test_out_of_bounds_start(self):
        task = self._task(3, (0, 0))
        with pytest.raises(ParameterError):
            expert_trajectory(task, (3, 0), seed=0)


class TestBuildDataset:
    def test_zero_per_task_is_empty(self):
        assert build_dataset(generate_tasks(3, 0), 0, seed=1) == []

    def test_negative_per_task_rejected(self):
        with pytest.raises(ParameterError, match="^trajectories_per_task must be >= 0, got -1$"):
            build_dataset(generate_tasks(3, 0), -1, seed=1)

    def test_count(self):
        # reference: the same stream, three draws per demonstration, with the
        # draws that start on their target dropped
        tasks = generate_tasks(5, 0)
        rng = np.random.default_rng(1)
        expected = []
        for task in tasks:
            for _ in range(20):
                start = (int(rng.integers(5)), int(rng.integers(5)))
                traj_seed = int(rng.integers(0, 2**63 - 1))
                if start != task.target:
                    expected.append((task, expert_trajectory(task, start, traj_seed)))
        dataset = build_dataset(tasks, 20, seed=1)
        assert len(dataset) == len(expected) == 483
        for (traj, task), (ref_task, ref) in zip(dataset, expected):
            assert task == ref_task and traj.states == ref.states
            np.testing.assert_array_equal(traj.observations, ref.observations)

    def test_every_demonstration_has_a_transition(self):
        for traj, _ in build_dataset(generate_tasks(3, 0), 30, seed=2):
            assert len(traj.states) >= 2 and len(traj.actions) >= 1

    def test_every_trajectory_reaches_its_target(self):
        for traj, task in build_dataset(generate_tasks(4, 2), 5, seed=3):
            assert traj.states[-1] == task.target

    def test_deterministic(self):
        tasks = generate_tasks(3, 0)
        d1 = build_dataset(tasks, 3, seed=9)
        d2 = build_dataset(tasks, 3, seed=9)
        for (t1, k1), (t2, k2) in zip(d1, d2):
            assert k1 == k2
            np.testing.assert_array_equal(t1.observations, t2.observations)


class TestSyntheticGapBank:
    def test_zero_gap_zero_noise_identical_pairs(self):
        bank_v, bank_l = synthetic_gap_bank(6, 8, gap_norm=0.0, intra_noise_std=0.0, seed=1)
        np.testing.assert_array_equal(bank_v.values, bank_l.values)
        assert bank_v.task_ids == bank_l.task_ids

    def test_gap_norm_recovered(self):
        from modalign import gap_report

        bank_v, bank_l = synthetic_gap_bank(
            10, 12, gap_norm=2.0, intra_noise_std=0.1, seed=2, rows_per_task=30
        )
        report = gap_report(bank_v, bank_l)
        assert abs(report.gap_norm - 2.0) < 6 * 0.1 / np.sqrt(bank_v.n)

    def test_centralize_then_zero_gap(self):
        from modalign import apply_to_bank, fit_centralize, gap_report

        bank_v, bank_l = synthetic_gap_bank(5, 6, gap_norm=3.0, intra_noise_std=0.2, seed=3)
        t = fit_centralize(bank_v, bank_l)
        assert gap_report(apply_to_bank(t, bank_v), apply_to_bank(t, bank_l)).gap_norm < 1e-9

    def test_dim_bounds(self):
        with pytest.raises(ParameterError):
            synthetic_gap_bank(3, 1, gap_norm=0.0, intra_noise_std=0.0, seed=0)

    @pytest.mark.parametrize(
        "n_tasks, rows_per_task, std, message",
        [
            (0, 8, 0.0, "n_tasks and rows_per_task must be positive"),
            (3, 0, 0.0, "n_tasks and rows_per_task must be positive"),
            (3, 8, -0.1, "intra_noise_std must be >= 0, got -0.1"),
        ],
        ids=["no-tasks", "no-rows", "negative-noise"],
    )
    def test_argument_checks(self, n_tasks, rows_per_task, std, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            synthetic_gap_bank(n_tasks, 4, gap_norm=1.0, intra_noise_std=std, seed=0, rows_per_task=rows_per_task)

    def test_modalities(self):
        bank_v, bank_l = synthetic_gap_bank(3, 4, gap_norm=1.0, intra_noise_std=0.1, seed=4)
        assert bank_v.modality == "visual"
        assert bank_l.modality == "text"
