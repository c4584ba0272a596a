import concurrent.futures
import multiprocessing
import os

import numpy as np
import pytest

import modalign.policy as policy_module

from modalign import (
    CorruptConfig,
    DegenerateVectorError,
    DimensionError,
    DivergenceError,
    ParameterError,
    PolicyConfig,
    build_dataset,
    build_vocab,
    chance_floor,
    encode_goals,
    eval_episodes,
    evaluate_policy,
    expert_steps,
    expert_trajectory,
    generate_tasks,
    train_policies,
    training_goals,
    variant_goals,
)
from modalign.bench import clips_from_dataset, text_reference_bank
from modalign.collapse import apply_to_bank, fit_centralize, fit_delete
from modalign.gridworld import HELDOUT_TEMPLATE_INDICES, TRAIN_TEMPLATE_INDICES, Action, step
from modalign.nets import dense_forward, init_dense
from modalign.policy import build_goal_bank, greedy, rollout
from modalign.trainer import TrainerConfig, train_encoders


def cosine_similarity(a, b):
    """Cosine of two vectors, computed per pair as the oracle."""
    return float(np.dot(a, b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))))


@pytest.fixture(scope="module")
def world():
    """A small trained world shared by the policy tests (G=4 for speed)."""
    grid = 4
    tasks = generate_tasks(grid, 0)
    dataset = build_dataset(tasks, 12, seed=1)
    cfg = TrainerConfig(
        obs_dim=grid * grid,
        vocab_size=len(build_vocab(grid)),
        dim=12,
        steps=1500,
        batch_size=32,
        seed=7,
    )
    encoders = train_encoders(clips_from_dataset(dataset), cfg).params
    ref_v, _ = build_goal_bank(encoders, dataset, "visual", seed=2)
    ref_l = text_reference_bank(encoders, tasks)
    transform = fit_centralize(ref_v, ref_l)
    return dict(
        grid=grid, tasks=tasks, dataset=dataset, encoders=encoders, transform=transform, ref_v=ref_v, ref_l=ref_l
    )


def off_target_start(task, rng, grid):
    while True:
        start = (int(rng.integers(grid)), int(rng.integers(grid)))
        if start != task.target:
            return start


def train_one(states, goals, actions, grid, config):
    """One policy on explicit rows: row i's goal is goals[i]."""
    return train_policies(states, actions, np.arange(len(states)), [goals], grid, config)[0]


def train_on_dataset(world, corrupt_cfg, modality, config, template_pool=None):
    """One policy on the world's expert steps and its goals of one modality."""
    unit, _ = build_goal_bank(world["encoders"], world["dataset"], modality, config.seed, template_pool)
    goals = training_goals(variant_goals(unit, world["transform"]), corrupt_cfg)
    return train_policies(*expert_steps(world["dataset"], world["grid"]), [goals], world["grid"], config)[0]


class TestGoalEmbedding:
    def test_zero_transition_flagged(self, world):
        task = world["tasks"][0]
        other = world["tasks"][1]
        good = expert_trajectory(other, (0, 0) if other.target != (0, 0) else (1, 1), seed=2)
        traj = expert_trajectory(task, task.target, seed=3)
        with pytest.raises(DegenerateVectorError):
            encode_goals(world["encoders"], "visual", [other.task_id, task.task_id], [good, traj])

    @pytest.mark.parametrize("modality", ["visual", "text"])
    def test_no_items_refused_alike(self, world, modality):
        with pytest.raises(ParameterError, match="^no goals to encode$"):
            encode_goals(world["encoders"], modality, [], [])

    def test_visual_goal_is_pure(self, world):
        task = world["tasks"][1]
        start = (0, 0) if task.target != (0, 0) else (1, 1)
        traj = expert_trajectory(task, start, seed=4)
        args = (world["encoders"], "visual", [task.task_id], [traj])
        e1 = encode_goals(*args)
        e2 = encode_goals(*args)
        np.testing.assert_array_equal(e1.values, e2.values)

    def test_text_template_selection(self, world):
        task = world["tasks"][2]
        explicit = encode_goals(world["encoders"], "text", [task.task_id], [task.templates[1]])
        traj = expert_trajectory(task, off_target_start(task, np.random.default_rng(0), world["grid"]), 1)
        sampled, _ = build_goal_bank(world["encoders"], [(traj, task)], "text", seed=0, template_pool=(1,))
        np.testing.assert_array_equal(explicit.values, sampled.values)

    def test_trained_goals_align_across_modalities(self, world):
        # retrieval oracle on the trained toy encoders: the matched pair
        # beats the average mismatched cosine
        tasks = sorted(world["tasks"], key=lambda t: t.task_id)
        ids = [t.task_id for t in tasks]
        text_goals = variant_goals(
            encode_goals(world["encoders"], "text", ids, [t.templates[0] for t in tasks]), world["transform"]
        ).values
        rng = np.random.default_rng(5)
        trajs = []
        for task in tasks:
            start = off_target_start(task, rng, world["grid"])
            trajs.append(expert_trajectory(task, start, seed=int(rng.integers(1 << 40))))
        vis = variant_goals(encode_goals(world["encoders"], "visual", ids, trajs), world["transform"]).values
        matched, mismatched = [], []
        for i in range(len(tasks)):
            for j in range(len(tasks)):
                (matched if j == i else mismatched).append(cosine_similarity(vis[i], text_goals[j]))
        assert np.mean(matched) > np.mean(mismatched)

    def test_batch_rows_match_single_item_calls(self, world):
        # one batch encodes each goal as its own one-row call does
        tasks = sorted(world["tasks"], key=lambda t: t.task_id)[:6]
        rng = np.random.default_rng(6)
        trajs = [expert_trajectory(t, off_target_start(t, rng, world["grid"]), i) for i, t in enumerate(tasks)]
        seqs = [t.templates[i % 3] for i, t in enumerate(tasks)]
        for modality, items in (("visual", trajs), ("text", seqs)):
            ids = [t.task_id for t in tasks]
            batch = encode_goals(world["encoders"], modality, ids, items)
            for i in range(len(tasks)):
                one = encode_goals(world["encoders"], modality, ids[i : i + 1], items[i : i + 1])
                np.testing.assert_allclose(batch.values[i], one.values[0], rtol=0, atol=1e-12)

    def test_variant_offset_moves_visual_rows_only(self, world):
        offset = np.random.default_rng(8).standard_normal(world["ref_v"].dim)
        moved = variant_goals(world["ref_v"], None, offset)
        np.testing.assert_array_equal(moved.values, world["ref_v"].values + offset)
        assert moved.task_ids == world["ref_v"].task_ids and moved.modality == "visual"
        assert variant_goals(world["ref_l"], None, offset) is world["ref_l"]

    @pytest.mark.parametrize("bank", ["ref_v", "ref_l"])
    def test_no_variant_is_the_identity(self, world, bank):
        assert variant_goals(world[bank], None, None) is world[bank]

    @pytest.mark.parametrize("kind", ["centralize", "delete"])
    def test_variant_is_offset_then_collapse(self, world, kind):
        offset = np.random.default_rng(9).standard_normal(world["ref_v"].dim)
        ref_v = world["ref_v"].with_values(world["ref_v"].values + offset)
        fit = fit_centralize if kind == "centralize" else lambda v, l: fit_delete(v, l, 2)
        transform = fit(ref_v, world["ref_l"])
        bank = world["ref_v"]
        expected = apply_to_bank(transform, bank.with_values(bank.values + offset))
        got = variant_goals(bank, transform, offset)
        np.testing.assert_array_equal(got.values, expected.values)
        np.testing.assert_array_equal(
            variant_goals(world["ref_l"], transform, offset).values, apply_to_bank(transform, world["ref_l"]).values
        )


class TestPolicyConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", 2.5), ("batch_size", 2.0), ("batch_size", True), ("hidden", (63.9,)), ("hidden", (8, False)),
            ("seed", 2.5), ("seed", True),
        ],
    )
    def test_non_integral_size_names_its_field(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be integral"):
            PolicyConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, inside, outside",
        [
            ("steps", 0, -1),
            ("batch_size", 1, 0),
            ("learning_rate", 5e-324, 0.0),
            ("momentum", 0.0, -5e-324),
            ("momentum", np.nextafter(1.0, 0.0), 1.0),
            ("hidden", (1,), (64, 0)),
            ("hidden", (), (-1,)),
            ("seed", 0, -1),
        ],
    )
    def test_field_rule_boundary_names_its_field(self, field, inside, outside):
        assert getattr(PolicyConfig(**{field: inside}), field) == inside
        with pytest.raises(ParameterError, match=f"^{field} must be "):
            PolicyConfig(**{field: outside})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "0.3", True])
    def test_learning_rate_must_be_a_finite_number(self, value):
        with pytest.raises(ParameterError, match="learning_rate must be a finite number"):
            PolicyConfig(learning_rate=value)


class TestTrainPolicyFromArrays:
    def test_oracle_goals_reach_99_percent(self, world):
        # sanity oracle: with one-hot target goals the task is learnable
        grid = world["grid"]
        states, goals, actions = [], [], []
        for traj, task in world["dataset"]:
            goal = np.zeros(grid * grid)
            goal[task.target[0] * grid + task.target[1]] = 1.0
            for t, action in enumerate(traj.actions):
                onehot = np.zeros(grid * grid)
                onehot[traj.states[t][0] * grid + traj.states[t][1]] = 1.0
                states.append(onehot)
                goals.append(goal)
                actions.append(int(action))
        states, goals, actions = np.stack(states), np.stack(goals), np.asarray(actions)
        result = train_one(states, goals, actions, grid, PolicyConfig(steps=2500, seed=5))
        logits, _ = dense_forward(result.net, np.concatenate([states, goals], axis=1))
        accuracy = float(np.mean(np.argmax(logits, axis=1) == actions))
        assert accuracy >= 0.99

    def test_zero_steps_returns_init(self, world):
        grid = world["grid"]
        states = np.eye(grid * grid)[:4]
        goals = np.ones((4, 3))
        actions = np.array([0, 1, 2, 3])
        r1 = train_one(states, goals, actions, grid, PolicyConfig(steps=0, seed=9))
        r2 = train_one(states, goals, actions, grid, PolicyConfig(steps=0, seed=9))
        assert r1.loss_trace == []
        np.testing.assert_array_equal(r1.net.flat, r2.net.flat)

    def test_oracle_goal_rollouts_exceed_95_percent_on_default_grid(self):
        # isolates policy learning from embedding quality: one-hot target
        # goals, greedy rollouts on the 5x5 grid
        grid = 5
        tasks = generate_tasks(grid, 0)
        dataset = build_dataset(tasks, 20, seed=1)
        states, goals, actions = [], [], []
        for traj, task in dataset:
            goal = np.zeros(grid * grid)
            goal[task.target[0] * grid + task.target[1]] = 1.0
            for t, action in enumerate(traj.actions):
                onehot = np.zeros(grid * grid)
                onehot[traj.states[t][0] * grid + traj.states[t][1]] = 1.0
                states.append(onehot)
                goals.append(goal)
                actions.append(int(action))
        net = train_one(
            np.stack(states), np.stack(goals), np.asarray(actions), grid, PolicyConfig(steps=3000, seed=5)
        ).net
        # ten episodes per task; one shared stream draws the start cells in order
        episodes = [task for task in tasks for _ in range(10)]
        goals = np.zeros((len(episodes), grid * grid))
        for i, task in enumerate(episodes):
            goals[i, task.target[0] * grid + task.target[1]] = 1.0
        rng = np.random.default_rng(3)
        starts = [(rng.integers(grid), rng.integers(grid)) for _ in episodes]
        reached = rollout(episodes, starts, 2 * (grid - 1), greedy(net, grid, goals))
        assert reached.mean() >= 0.95


class TestTrainPolicy:
    def test_deterministic(self, world):
        cfg = PolicyConfig(steps=50, seed=3)
        corrupt = CorruptConfig("cosine", alpha=0.2, seed=1)
        r1 = train_on_dataset(world, corrupt, "visual", cfg)
        r2 = train_on_dataset(world, corrupt, "visual", cfg)
        assert r1.loss_trace == r2.loss_trace
        np.testing.assert_array_equal(r1.net.flat, r2.net.flat)

    def test_text_modality_uses_template_pool(self, world):
        result = train_on_dataset(world, None, "text", PolicyConfig(steps=10, seed=4), TRAIN_TEMPLATE_INDICES)
        assert len(result.loss_trace) == 10

    def test_expert_steps_follow_goal_bank_rows(self, world):
        # the per-trajectory loop that built the behavior-cloning rows before
        grid, dataset = world["grid"], world["dataset"]
        _, kept = build_goal_bank(world["encoders"], dataset, "visual", seed=0)
        rows, cells, actions = [], [], []
        for row, i in enumerate(kept):
            traj = dataset[i][0]
            rows += [row] * len(traj.actions)
            cells += traj.states[: len(traj.actions)]
            actions += traj.actions
        states, got_actions, goal_rows = expert_steps(dataset, grid)
        np.testing.assert_array_equal(goal_rows, rows)
        np.testing.assert_array_equal(got_actions, actions)
        np.testing.assert_array_equal(states, np.eye(grid * grid)[[r * grid + c for r, c in cells]])

    def test_one_state_trajectory_refused(self, world):
        # build_dataset yields none, so a hand-built one is refused, not skipped
        grid, task = world["grid"], world["tasks"][0]
        moving = expert_trajectory(task, off_target_start(task, np.random.default_rng(5), grid), seed=2)
        still = expert_trajectory(task, task.target, seed=3)
        dataset = [(moving, task), (still, task)]
        with pytest.raises(DegenerateVectorError, match="^visual goal 1 is a zero vector$"):
            build_goal_bank(world["encoders"], dataset, "visual", 0)
        with pytest.raises(ParameterError, match=r"^a clip needs at least 2 observations, got shape \(1, 16\)$"):
            clips_from_dataset(dataset)

    def test_empty_dataset_refused_by_name(self, world):
        with pytest.raises(ParameterError, match="^no goals to encode$"):
            build_goal_bank(world["encoders"], [], "text", 0)

    def test_empty_dataset_rejected(self, world):
        with pytest.raises(ParameterError, match="^no goals to encode$"):
            build_goal_bank(world["encoders"], [], "visual", 0)
        states, actions, goal_rows = expert_steps([], world["grid"])
        with pytest.raises(ParameterError):
            train_policies(states, actions, goal_rows, [np.zeros((0, 3))], world["grid"], PolicyConfig())


def reference_forward(net, x):
    """The plain 2-d pass: x @ w.T + b, tanh on hidden layers."""
    cache, last = [x], net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = x @ w.T + b
        x = z if l == last else np.tanh(z)
        cache.append(x)
    return x, cache


def reference_backward(net, cache, g):
    weights, biases = [], []
    for l in range(net.n_layers - 1, -1, -1):
        weights.append(g.T @ cache[l])
        biases.append(g.sum(axis=0))
        g = g @ net.weights[l]
        if l > 0:
            g = g * (1.0 - cache[l] ** 2)
    return weights[::-1], biases[::-1]


def reference_train_policy(states, goals, actions, config):
    """Per-policy behavior cloning, the loop that train_policies replaced,
    with its own 2-d forward, backward and momentum step."""
    inputs = np.concatenate([states, goals], axis=1)
    rng = np.random.default_rng(config.seed)
    net = init_dense([inputs.shape[1], *config.hidden, len(Action)], rng)
    arrays = [a for pair in zip(net.weights, net.biases) for a in pair]  # views that step net.flat
    velocities = [np.zeros_like(a) for a in arrays]
    trace, n = [], inputs.shape[0]
    for _ in range(config.steps):
        batch = rng.integers(0, n, size=min(config.batch_size, n))
        x, y = inputs[batch], actions[batch]
        logits, cache = reference_forward(net, x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        trace.append(float(-np.mean(np.log(probs[np.arange(len(y)), y] + 1e-300))))
        dlogits = probs.copy()
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits /= len(y)
        weights, biases = reference_backward(net, cache, dlogits)
        grads = [a for pair in zip(weights, biases) for a in pair]
        for a, g, v in zip(arrays, grads, velocities):
            v *= config.momentum
            v -= config.learning_rate * g
            a += v
    return net, trace


# the ids these cases had when the modality was an enum member
MODALITY_POOL_IDS = ["Modality.VISUAL-None", "Modality.TEXT-pool1"]


def on_cpus(monkeypatch, n):
    """Make train_policies see n usable CPUs. Returns the worker counts of
    the process pools it then builds, in order."""
    built = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return built


def bc_rows(n, grid, seed):
    """n random one-hot states and actions, and the stream that made them."""
    rng = np.random.default_rng(seed)
    return np.eye(grid * grid)[rng.integers(0, grid * grid, n)], rng.integers(0, len(Action), n), rng


def assert_matches_reference(n, widths, config, grid=3):
    """train_policies on n random expert rows of a grid, one goal matrix per
    width: results in input order, each its own policy trained alone under
    the shared config, with its weights views of its own buffer."""
    states, actions, rng = bc_rows(n, grid, 0)
    goal_rows = rng.integers(0, 9, n)  # several expert rows share a goal row
    goals = [rng.standard_normal((9, w)) for w in widths]
    config = PolicyConfig(**config)
    results = train_policies(states, actions, goal_rows, goals, grid, config)
    assert len(results) == len(goals)
    for goal, result in zip(goals, results):
        net, trace = reference_train_policy(states, goal[goal_rows], actions, config)
        assert result.loss_trace == trace
        assert result.net.sizes == net.sizes
        np.testing.assert_array_equal(result.net.flat, net.flat)
        assert all(np.shares_memory(a, result.net.flat) for a in (*result.net.weights, *result.net.biases))


MIXED_WIDTHS = (41, [6, 5, 6, 3, 6], dict(steps=30, seed=4))  # three goal widths, zero-padded to the widest
# the transfer bench's policies: a 5 grid's 25 state columns, 16-dim goals and
# delete variants 1 and 3 dims narrower, its batch size and hidden layer
BENCH_SHAPES = (1573, [16, 15, 13, 16, 16], dict(steps=300, batch_size=64, hidden=(64,), seed=5))


class TestTrainPolicies:
    @pytest.mark.parametrize(
        "n, widths, config, cpus, grid",
        [(*case, None, 3) for case in [
            (40, [6], dict(steps=30, seed=1)),
            MIXED_WIDTHS,
            (40, [6, 6], dict(steps=0, seed=1)),
            (7, [6, 6], dict(steps=30, batch_size=64, seed=1)),
            (40, [6, 6], dict(steps=30, hidden=(), seed=1)),
            (40, [6, 6], dict(steps=30, hidden=(32, 16), seed=1)),
            # batch rows are drawn 128 steps at a time: 300 steps end inside a third draw
            (40, [6, 6], dict(steps=300, batch_size=5, hidden=(8,), seed=2)),
        ]] + [(*BENCH_SHAPES, cpus, 5) for cpus in (1, 2)],
        ids=[
            "one", "mixed-widths", "zero-steps", "batch-over-n", "no-hidden", "two-hidden", "past-a-draw",
            "bench-shapes-1-cpu", "bench-shapes-2-cpus",
        ],
    )
    def test_bit_identical_to_per_policy_reference(self, monkeypatch, n, widths, config, cpus, grid):
        if cpus is not None:  # else the CPUs of the machine
            on_cpus(monkeypatch, cpus)
        assert_matches_reference(n, widths, config, grid)

    @pytest.mark.parametrize("n", [3, 483, 2**31 + 5])
    @pytest.mark.parametrize("size", [1, 5, 64])
    def test_chunked_draws_give_per_step_rows_and_stream(self, n, size):
        # training draws a (k, B) block of batch rows per 128 steps; numpy must
        # give the rows, and leave the generator, as k draws of B rows would
        steps, chunk = 300, 128
        per_step, chunked = np.random.default_rng(7), np.random.default_rng(7)
        want = np.stack([per_step.integers(0, n, size=size) for _ in range(steps)])
        got = np.concatenate([
            chunked.integers(0, n, size=(min(chunk, steps - lo), size)) for lo in range(0, steps, chunk)
        ])
        np.testing.assert_array_equal(got, want)
        assert chunked.bit_generator.state == per_step.bit_generator.state

    def test_divergence_names_the_variant_and_step(self):
        states, actions, rng = bc_rows(20, 3, 1)
        goals = [rng.standard_normal((20, 4)) for _ in range(3)]
        goals[1][:] = np.nan
        with pytest.raises(DivergenceError, match="variant 1: non-finite loss at step 0"):
            train_policies(states, actions, np.arange(20), goals, 3, PolicyConfig(steps=5))

    @pytest.mark.parametrize("cpus, pools", [(1, []), (2, [2])], ids=["1-cpu", "2-cpus"])
    def test_mixed_widths_bit_identical_under_one_and_two_cpus(self, monkeypatch, cpus, pools):
        built = on_cpus(monkeypatch, cpus)
        assert_matches_reference(*MIXED_WIDTHS)
        assert built == pools

    @pytest.mark.parametrize(
        "widths, cpus", [([4], 2), ([4, 3, 4], 1), ([4, 3, 4], None)], ids=["one-lane", "one-cpu", "no-affinity"]
    )
    def test_one_group_or_one_cpu_starts_no_process(self, monkeypatch, widths, cpus):
        if cpus is None:  # a platform without os.sched_getaffinity trains in one process
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            on_cpus(monkeypatch, cpus)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        states, actions, rng = bc_rows(20, 3, 6)
        goals = [rng.standard_normal((20, w)) for w in widths]
        assert len(train_policies(states, actions, np.arange(20), goals, 3, PolicyConfig(steps=3))) == len(widths)

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (8, [3])], ids=["2-cpus", "more-cpus-than-lanes"])
    def test_equal_widths_split_over_the_cpus(self, monkeypatch, cpus, pools):
        # lanes of one goal width split too: one pool of min(V, CPUs) workers
        built = on_cpus(monkeypatch, cpus)
        assert_matches_reference(20, [4, 4, 4], dict(steps=3, seed=6))
        assert built == pools

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "scale, config, failure",
        [
            (np.nan, dict(steps=5), "loss at step 0"),
            # every loss is finite; the one update overflows the scaled lanes' first layers
            (1e4, dict(steps=1, learning_rate=1e308), "weights after step 0"),
        ],
        ids=["nan-goals", "last-update"],
    )
    def test_divergence_in_a_later_group_raises_as_in_one_process(self, monkeypatch, cpus, scale, config, failure):
        on_cpus(monkeypatch, cpus)
        states, actions, rng = bc_rows(20, 3, 1)
        goals = [rng.standard_normal((20, w)) for w in [4, 3, 2]]
        goals[1] *= scale  # the second and third lanes both fail, in one chunk or two; the second raises
        goals[2] *= scale
        with pytest.raises(DivergenceError, match=f"^variant 1: non-finite {failure}$"):
            train_policies(states, actions, np.arange(20), goals, 3, PolicyConfig(**config))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_earliest_failure_raises_whatever_the_split(self, monkeypatch, cpus):
        # lanes 0-1 and 2-3 are the two chunks on 2 CPUs; the earlier chunk fails later
        on_cpus(monkeypatch, cpus)
        states, actions, rng = bc_rows(20, 3, 7)
        goals = [rng.standard_normal((20, w)) for w in [4, 3, 4, 2]]
        config = PolicyConfig(steps=5, batch_size=5)
        lane = np.random.default_rng(config.seed)  # lane 1's stream: its init, then its batch rows
        init_dense([9 + 3, *config.hidden, len(Action)], lane)
        first, later = lane.integers(0, 20, size=5), lane.integers(0, 20, size=5)
        goals[1][np.setdiff1d(later, first)[0]] = np.nan  # first drawn at step 1
        goals[3][:] = np.nan
        with pytest.raises(DivergenceError, match="^variant 1: non-finite loss at step 1$"):
            train_policies(states, actions, np.arange(20), goals[:2], 3, config)
        with pytest.raises(DivergenceError, match="^variant 3: non-finite loss at step 0$"):
            train_policies(states, actions, np.arange(20), goals, 3, config)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_loss_failure_outranks_weights_after_its_step(self, monkeypatch, cpus):
        # lane 1's one update overflows its weights; lane 3's loss is NaN at that same step
        on_cpus(monkeypatch, cpus)
        states, actions, rng = bc_rows(20, 3, 1)
        goals = [rng.standard_normal((20, w)) for w in [4, 3, 4, 2]]
        goals[1] *= 1e4
        config = PolicyConfig(steps=1, learning_rate=1e308)
        with pytest.raises(DivergenceError, match="^variant 1: non-finite weights after step 0$"):
            train_policies(states, actions, np.arange(20), goals, 3, config)
        goals[3][:] = np.nan
        with pytest.raises(DivergenceError, match="^variant 3: non-finite loss at step 0$"):
            train_policies(states, actions, np.arange(20), goals, 3, config)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan-goals", "inf-goals"])  # inf makes numpy warn
    def test_a_diverged_lane_trains_on_quietly(self, monkeypatch, capfd, fill, cpus):
        # a worker's numpy warning may go to fd 2, past this process's warning filters: read the fd
        on_cpus(monkeypatch, cpus)
        states, actions, rng = bc_rows(20, 3, 1)
        goals = [rng.standard_normal((20, w)) for w in [4, 3, 4, 2]]
        goals[2][:] = fill
        with pytest.raises(DivergenceError, match="^variant 2: non-finite loss at step 0$"):
            train_policies(states, actions, np.arange(20), goals, 3, PolicyConfig(steps=300))
        assert capfd.readouterr().err == ""
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("rows",[(10, 9), ()], ids=["two-row-counts", "no-goals"])
    def test_goals_must_be_matrices_of_one_row_count(self, rows):
        states, actions, rng = bc_rows(10, 3, 4)
        goals = [rng.standard_normal((r, 4)) for r in rows]
        with pytest.raises(DimensionError, match="goals"):
            train_policies(states, actions, np.arange(10) % 9, goals, 3, PolicyConfig())

    @pytest.mark.parametrize("field", ["actions", "goal_rows"])
    @pytest.mark.parametrize("bad", [-1, 0.5, 5])
    def test_actions_and_goal_rows_must_be_indices(self, field, bad):
        states, actions, rng = bc_rows(10, 3, 2)
        rows = {"actions": actions, "goal_rows": rng.integers(0, 5, 10)}
        rows[field] = rows[field].astype(type(bad))
        rows[field][3] = bad
        with pytest.raises(ParameterError, match=field):
            train_policies(states, rows["actions"], rows["goal_rows"], [rng.standard_normal((5, 4))], 3, PolicyConfig())

    @pytest.mark.parametrize("field", ["actions", "goal_rows"])
    def test_actions_and_goal_rows_must_match_the_states(self, field):
        states, actions, rng = bc_rows(10, 3, 5)
        rows = {"actions": actions, "goal_rows": rng.integers(0, 5, 10)}
        rows[field] = rows[field][:9]
        with pytest.raises(DimensionError, match=rf"^{field} shape \(9,\) does not match 10 rows$"):
            train_policies(states, rows["actions"], rows["goal_rows"], [rng.standard_normal((5, 4))], 3, PolicyConfig())

    @pytest.mark.parametrize("width", [8, 10])
    def test_states_must_be_grid_cells(self, width):
        _, actions, rng = bc_rows(10, 3, 3)
        with pytest.raises(DimensionError, match="states"):
            train_policies(np.zeros((10, width)), actions, np.arange(10), [rng.standard_normal((10, 4))], 3, PolicyConfig())

    def test_zero_width_states_and_goals_rejected(self):
        # a 0-cell grid and zero-width goals make the net's input size 0
        states, actions, goal_rows, goals = np.zeros((1, 0)), np.array([0]), np.array([0]), [np.zeros((1, 0))]
        with pytest.raises(ParameterError, match=r"^layer sizes must be positive, got \[0, 64, 5\]$"):
            train_policies(states, actions, goal_rows, goals, 0, PolicyConfig())

    @pytest.mark.parametrize(
        "field, value", [("steps", 2.5), ("batch_size", 8.0), ("hidden", (63.9,)), ("steps", True)]
    )
    def test_config_sizes_must_be_integers(self, field, value):
        with pytest.raises(ParameterError, match=field):
            PolicyConfig(**{field: value})


@pytest.fixture(scope="module")
def trained(world):
    corrupt = CorruptConfig("cosine", alpha=0.2, seed=1)
    config = PolicyConfig(steps=2500, seed=3)
    return train_on_dataset(world, corrupt, "visual", config, TRAIN_TEMPLATE_INDICES).net


class TestEvaluatePolicy:

    def test_deterministic_repeat(self, world, trained):
        r1, r2 = (
            evaluate_policy(
                trained, eval_episodes(world["tasks"], "text", world["encoders"], 4, 11, TRAIN_TEMPLATE_INDICES),
                6, world["transform"],
            )
            for _ in range(2)
        )
        assert r1.success_rate == r2.success_rate
        assert r1.per_task == r2.per_task

    @pytest.mark.parametrize(
        "modality, pool", [("visual", None), ("text", TRAIN_TEMPLATE_INDICES)], ids=MODALITY_POOL_IDS
    )
    def test_leaves_the_shared_episodes_as_they_are(self, world, trained, modality, pool):
        # every variant of a bench seed rolls out from one eval_episodes result
        episodes = eval_episodes(world["tasks"], modality, world["encoders"], 5, seed=37, template_pool=pool)
        _, episode_tasks, goals, starts = episodes
        before = (list(episode_tasks), goals.values.copy(), starts.copy())
        other = init_dense([world["grid"] ** 2 + goals.dim, 8, len(Action)], np.random.default_rng(4))
        first = evaluate_policy(trained, episodes, 6, world["transform"])
        evaluate_policy(other, episodes, 6, None, np.full(goals.dim, 0.5))
        assert evaluate_policy(trained, episodes, 6, world["transform"]) == first
        assert episode_tasks == before[0]
        np.testing.assert_array_equal(goals.values, before[1])
        np.testing.assert_array_equal(starts, before[2])

    def test_beats_chance_on_both_modalities(self, world, trained):
        floor = chance_floor(world["tasks"], 6, 6, seed=13)
        for modality, pool in (("visual", None), ("text", TRAIN_TEMPLATE_INDICES)):
            episodes = eval_episodes(world["tasks"], modality, world["encoders"], 6, seed=13, template_pool=pool)
            report = evaluate_policy(trained, episodes, 6, world["transform"])
            assert report.success_rate > floor + 0.2

    def test_heldout_templates_close_to_seen(self, world, trained):
        rates = []
        for pool in (TRAIN_TEMPLATE_INDICES, HELDOUT_TEMPLATE_INDICES):
            episodes = eval_episodes(world["tasks"], "text", world["encoders"], 6, seed=17, template_pool=pool)
            rates.append(evaluate_policy(trained, episodes, 6, world["transform"]).success_rate)
        assert abs(rates[0] - rates[1]) <= 0.15

    def test_horizon_zero_start_on_target(self, world, trained):
        # with horizon 0 the only successes are episodes starting on target
        episodes = eval_episodes(
            world["tasks"], "text", world["encoders"], 50, seed=19, template_pool=TRAIN_TEMPLATE_INDICES
        )
        report = evaluate_policy(trained, episodes, 0, world["transform"])
        expected = 1.0 / (world["grid"] ** 2)
        assert 0.0 < report.success_rate < 3 * expected

    @pytest.mark.parametrize("modality", ["text", "visual"], ids=["Modality.TEXT", "Modality.VISUAL"])
    @pytest.mark.parametrize("n_tasks, episodes", [(0, 2), (3, 0), (3, -1)])
    def test_no_episode_rejected(self, world, trained, modality, n_tasks, episodes):
        with pytest.raises(ParameterError, match="no episodes"):
            evaluate_policy(
                trained, eval_episodes(world["tasks"][:n_tasks], modality, world["encoders"], episodes, 0), 4,
                world["transform"],
            )


def reference_evaluate(net, tasks, modality, encoders, transform, episodes, horizon, seed, pool=None, offset=None):
    """Per-episode loop: goal draws, then the start cell, then one policy
    forward per step, all from stream [seed, task index, episode]. The
    offset moves visual goals only, before the collapse."""
    ordered = sorted(tasks, key=lambda t: t.task_id)
    per_task, goals, total = {}, [], 0
    for ti, task in enumerate(ordered):
        grid, wins = task.grid_size, 0
        for episode in range(episodes):
            rng = np.random.default_rng([seed, ti, episode])
            if modality == "visual":
                start = off_target_start(task, rng, grid)
                item = expert_trajectory(task, start, int(rng.integers(0, 2**63 - 1)))
            else:
                options = pool if pool is not None else range(len(task.templates))
                item = task.templates[options[int(rng.integers(len(options)))]]
            goal = encode_goals(encoders, modality, [task.task_id], [item])
            if offset is not None and modality == "visual":
                goal = goal.with_values(goal.values + offset)
            goal = apply_to_bank(transform, goal).values[0]
            goal = goal / np.linalg.norm(goal)
            goals.append(goal)
            cell = (int(rng.integers(grid)), int(rng.integers(grid)))
            reached = cell == task.target
            for _ in range(horizon):
                if reached:
                    break
                onehot = np.zeros(grid * grid)
                onehot[cell[0] * grid + cell[1]] = 1.0
                logits, _ = dense_forward(net, np.concatenate([onehot, goal])[None, :])
                cell = step(grid, cell, Action(int(np.argmax(logits[0]))))
                reached = cell == task.target
            wins += int(reached)
        per_task[task.task_id] = wins / episodes
        total += wins
    return per_task, total / (len(ordered) * episodes), np.stack(goals)


class TestLockstepRollout:
    @pytest.mark.parametrize(
        "modality, pool", [("visual", None), ("text", TRAIN_TEMPLATE_INDICES)], ids=MODALITY_POOL_IDS
    )
    def test_matches_per_episode_reference(self, world, trained, monkeypatch, modality, pool):
        used = []
        real_greedy = policy_module.greedy

        def recording_greedy(net, grid_size, goals):
            used.append(goals)
            return real_greedy(net, grid_size, goals)

        monkeypatch.setattr(policy_module, "greedy", recording_greedy)
        args = (trained, world["tasks"], modality, world["encoders"], world["transform"], 5, 6, 31)
        episodes = eval_episodes(world["tasks"], modality, world["encoders"], 5, 31, pool)
        # without and with an injected gap, which moves visual goals only
        for offset in (None, np.full(world["transform"].source_dim, 0.5)):
            report = evaluate_policy(trained, episodes, 6, world["transform"], offset)
            per_task, success_rate, goals = reference_evaluate(*args, pool=pool, offset=offset)
            np.testing.assert_allclose(used.pop(), goals, rtol=0, atol=1e-12)
            assert report.per_task == per_task
            assert report.success_rate == success_rate


class TestChanceFloor:
    def test_matches_scalar_reference(self):
        tasks = generate_tasks(4, 0)
        for seed, episodes, horizon in ((23, 10, 6), (5, 3, 0), (7, 4, 2)):
            ordered = sorted(tasks, key=lambda t: t.task_id)
            wins = 0
            for ti, task in enumerate(ordered):
                for episode in range(episodes):
                    rng = np.random.default_rng([seed, ti, episode])
                    cell = (int(rng.integers(4)), int(rng.integers(4)))
                    reached = cell == task.target
                    for _ in range(horizon):
                        if reached:
                            break
                        cell = step(4, cell, Action(int(rng.integers(len(Action)))))
                        reached = cell == task.target
                    wins += int(reached)
            assert chance_floor(tasks, episodes, horizon, seed) == wins / (len(ordered) * episodes)

    def test_default_bench_floor(self):
        from modalign.bench import _CHANCE_TAG, subseed

        assert chance_floor(generate_tasks(5, 0), 10, 8, subseed(0, _CHANCE_TAG)) == 0.224

    def test_uniform_policy_well_below_half(self):
        tasks = generate_tasks(5, 0)
        floor = chance_floor(tasks, 10, 8, seed=23)
        assert floor < 0.5

    def test_deterministic(self):
        tasks = generate_tasks(4, 0)
        assert chance_floor(tasks, 5, 6, seed=29) == chance_floor(tasks, 5, 6, seed=29)

    @pytest.mark.parametrize("n_tasks, episodes", [(0, 2), (3, 0), (3, -1)])
    def test_no_episode_rejected(self, n_tasks, episodes):
        with pytest.raises(ParameterError, match="no episodes"):
            chance_floor(generate_tasks(4, 0)[:n_tasks], episodes, 4, 0)
