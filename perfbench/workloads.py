"""The benchmark's workloads: inputs, the timed pass, and the output checks.

A workload writes its inputs in `setup`, drives modalign's command line
(`modalign.cli.main`, called in-process) in `run_pass`, and turns the
outputs of one pass into operations in `check`. An operation is a unit of
work with the properties it must have; it fails when any property breaks.
"""

from __future__ import annotations

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracles

# Gridworld protocol the transfer workloads run, written into their config.
GRID_SIZE = 5
HORIZON = 8
EPISODES_PER_TASK = 10
# Base-variant success must clear the chance floor by this margin.
HEADLINE_MARGIN = 0.30


@dataclass
class Op:
    """One operation: its name, the properties it broke, and whether every
    broken property is a known program fault."""

    name: str
    problems: list[str] = field(default_factory=list)
    known: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Outcome:
    """What one `modalign` command returned and printed."""

    argv: list[str]
    rc: int | None
    stdout: str
    stderr: str

    def problem(self) -> str | None:
        if self.rc == 0:
            return None
        tail = (self.stderr.strip().splitlines() or [""])[-1]
        how = "raised" if self.rc is None else f"exited {self.rc}:"
        return f"`modalign {self.argv[0]}` {how} {tail}"


def run_command(cli, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag
        rc = exc.code
    except Exception as exc:  # an escaped exception is a failed command, not a crashed benchmark
        rc = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    return Outcome(argv, rc, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# Transfer workloads: `modalign bench` on one seed.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variant:
    label: str
    ablate: str | None  # the --ablate spec, None for the base variant
    collapse: str = "centralize"
    delete_k: int = 1
    corrupt_kind: str = "cosine"
    alpha_or_std: float = 0.2
    gap: float = 0.0

    def matches(self, agg: dict) -> bool:
        if "delete_k" in agg and agg["delete_k"] != self.delete_k:
            return False
        return (
            agg["collapse"] == self.collapse
            and agg["corrupt_kind"] == self.corrupt_kind
            and agg["alpha_or_std"] == self.alpha_or_std
            and agg["injected_gap_norm"] == self.gap
        )


BASE = Variant("base", None)
ABLATIONS = (
    Variant("delete", "collapse=delete", collapse="delete"),
    Variant("delete_k3", "collapse=delete,delete_k=3", collapse="delete", delete_k=3),
    Variant("none_gap2", "collapse=none,gap=2.0", collapse="none", gap=2.0),
    Variant("alpha0.5", "corrupt=cosine:0.5", alpha_or_std=0.5),
    Variant("alpha0.8", "corrupt=cosine:0.8", alpha_or_std=0.8),
    Variant("gaussian0.1", "corrupt=gaussian:0.1", corrupt_kind="gaussian", alpha_or_std=0.1),
    Variant("gaussian1.0", "corrupt=gaussian:1.0", corrupt_kind="gaussian", alpha_or_std=1.0),
)
EVALS = ("visual", "text", "text_heldout")


class TransferWorkload:
    """`modalign bench` for one seed; one operation per expected report cell
    plus one for the chance floor."""

    def __init__(self, name: str, seed: int, train_modality: str, ablations):
        self.name = name
        self.seed = seed
        self.train_modality = train_modality
        self.variants = (BASE, *ablations)
        self.exact_floor = oracles.exact_chance_floor(GRID_SIZE, HORIZON)

    def setup(self, work: Path) -> None:
        self.config = work / "bench_config.json"
        self.out = work / "report"
        doc = {
            "schema_version": 1,
            "seeds": [self.seed],
            "train_modality": self.train_modality,
            "grid_size": GRID_SIZE,
            "horizon": HORIZON,
            "episodes_per_task": EPISODES_PER_TASK,
        }
        self.config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self, cli) -> list[Outcome]:
        argv = ["bench", "--config", str(self.config), "--out-dir", str(self.out)]
        for v in self.variants[1:]:
            argv += ["--ablate", v.ablate]
        return [run_command(cli, argv)]

    def check(self, outcomes: list[Outcome]) -> list[Op]:
        ops = [Op("chance_floor")] + [Op(f"{v.label}/{e}") for v in self.variants for e in EVALS]
        failure = outcomes[0].problem()
        if failure is None:
            try:
                report = json.loads((self.out / "transfer_report.json").read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                failure = f"transfer_report.json unreadable: {exc}"
        if failure is not None:
            for op in ops:
                op.problems.append(failure)
            return ops

        floor = report["chance_floor"]
        problem = oracles.check_chance_floor(floor, self.exact_floor, GRID_SIZE**2 * EPISODES_PER_TASK)
        if problem:
            ops[0].problems.append(problem)

        cross_modal = ("visual",) if self.train_modality == "text" else ("text", "text_heldout")
        success: dict[tuple[str, str], float] = {}
        cell_ops = iter(ops[1:])
        for v in self.variants:
            for e in EVALS:
                op = next(cell_ops)
                found = [a for a in report["aggregates"] if a["eval_modality"] == e and v.matches(a)]
                n_seeds = [a["n_seeds"] for a in found]
                if n_seeds != [1]:
                    op.problems.append(
                        f"expected exactly one aggregate with n_seeds == 1, found {len(found)} "
                        f"with n_seeds {n_seeds}"
                    )
                    # ROADMAP defect D1: aggregation ignores delete_k, so the
                    # two delete variants are pooled and emitted twice. Only
                    # that exact signature is excused.
                    op.known = v.collapse == "delete" and n_seeds == [2, 2]
                    if op.known:
                        op.problems[-1] += " (known fault D1: aggregation ignores delete_k)"
                if not found:
                    continue
                value = found[0]["success_mean"]
                success[v.label, e] = value
                if not 0.0 <= value <= 1.0:
                    op.problems.append(f"success {value!r} is outside [0, 1]")
                    op.known = False
                if v is BASE and not value >= floor + HEADLINE_MARGIN:
                    op.problems.append(
                        f"base success {value!r} is below chance floor {floor!r} + {HEADLINE_MARGIN}"
                    )
                    op.known = False
                if v.gap > 0.0 and e in cross_modal and ("base", e) in success:
                    if not value < success["base", e]:
                        op.problems.append(
                            f"cross-modal success {value!r} with an uncollapsed gap is not "
                            f"below the base variant's {success['base', e]!r}"
                        )
                        op.known = False
        return ops


# ---------------------------------------------------------------------------
# Bank tools: diagnose, collapse, corrupt and verify on generated banks.
# ---------------------------------------------------------------------------

# Norm of the modality gap built into every input bank pair.
GAP_NORM = 1.0
DELETE_K = 3
ALPHA = 0.2
GAUSSIAN_STD = 0.1
# Cosine-cone and unit-norm slack for rows stored as float32.
CONE_TOL = 1e-6


@dataclass(frozen=True)
class Shape:
    name: str
    dim: int
    tasks: int
    rows_per_task: int


SHAPES = (
    Shape("tall", dim=16, tasks=100, rows_per_task=24),
    Shape("wide", dim=512, tasks=100, rows_per_task=10),
)
COMMANDS = ("diagnose", "collapse_centralize", "collapse_delete", "transform_in",
            "corrupt_cosine", "corrupt_gaussian", "verify")


@dataclass
class BankSet:
    """One shape's inputs as written to disk, kept in memory for checking."""

    shape: Shape
    dir: Path
    ids_vis: list[str]
    vis: np.ndarray  # float32-rounded, as the binary file holds it
    ids_txt: list[str]
    txt: np.ndarray  # exact, as the JSON-lines file holds it
    ids_vis2: list[str]
    vis2: np.ndarray
    shared: int  # leading rows of vis2 copied from vis

    def path(self, name: str) -> str:
        return str(self.dir / name)


class BankToolsWorkload:
    """The bank commands on a tall (D=16) and a wide (D=512) bank pair; one
    operation per command and its output check."""

    def __init__(self, seed: int):
        self.name = "bank_tools"
        self.seed = seed
        self.decode_problems: dict[str, list[str]] = {}

    def setup(self, work: Path) -> None:
        self.sets = []
        for index, shape in enumerate(SHAPES):
            rng = np.random.default_rng([self.seed, index])
            latents = rng.standard_normal((shape.tasks, shape.dim))
            latents /= np.linalg.norm(latents, axis=1, keepdims=True)
            gap = rng.standard_normal(shape.dim)
            gap *= GAP_NORM / np.linalg.norm(gap)
            tids = [f"task{k:03d}" for k in range(shape.tasks)]
            noise = 0.5 / math.sqrt(shape.dim)
            ids_vis, vis = oracles.gap_bank_rows(rng, latents, tids, shape.rows_per_task, noise, gap / 2)
            ids_txt, txt = oracles.gap_bank_rows(rng, latents, tids, shape.rows_per_task, noise, -gap / 2)
            ids_new, new = oracles.gap_bank_rows(rng, latents, tids, shape.rows_per_task // 2, noise, gap / 2)
            shared = vis.shape[0] - new.shape[0]
            d = work / shape.name
            d.mkdir(parents=True)
            bank = BankSet(
                shape, d, ids_vis, oracles.f32(vis), ids_txt, txt,
                ids_vis[:shared] + ids_new, oracles.f32(np.concatenate([vis[:shared], new])), shared,
            )
            oracles.write_binary_bank(bank.path("v.ebnk"), "visual", bank.ids_vis, bank.vis)
            oracles.write_jsonl_bank(bank.path("l.jsonl"), "text", bank.ids_txt, bank.txt)
            oracles.write_binary_bank(bank.path("v2.ebnk"), "visual", bank.ids_vis2, bank.vis2)
            self.sets.append(bank)

    def check_decoders(self, modalign) -> None:
        """Check the program's decoders against the inputs as written; the
        result is reported with every `diagnose` operation."""
        for b in self.sets:
            problems = self.decode_problems.setdefault(b.shape.name, [])
            for name, ids, values in (("v.ebnk", b.ids_vis, b.vis), ("l.jsonl", b.ids_txt, b.txt)):
                try:
                    loaded = modalign.banks.load_bank(b.path(name))
                except Exception as exc:  # a decoder failure is reported, not raised
                    problems.append(f"{name} does not load: {type(exc).__name__}: {exc}")
                    continue
                if list(loaded.task_ids) != ids or not np.array_equal(loaded.values, values):
                    problems.append(f"{name} does not load back exactly as written")

    def clear(self) -> None:
        for b in self.sets:
            shutil.rmtree(b.dir / "out", ignore_errors=True)
            (b.dir / "out").mkdir()

    def run_pass(self, cli) -> list[Outcome]:
        outcomes = []
        for b in self.sets:
            v, lt, v2, out, seed = b.path("v.ebnk"), b.path("l.jsonl"), b.path("v2.ebnk"), b.path("out"), str(self.seed)
            for argv in (
                ["diagnose", "--bank-v", v, "--bank-l", lt, "--out", f"{out}/diag"],
                ["collapse", "--kind", "centralize", "--ref-visual", v, "--ref-text", lt, "--target", v,
                 "--out", f"{out}/vc.ebnk", "--transform-out", f"{out}/centralize.json"],
                ["collapse", "--kind", "delete", "--k", str(DELETE_K), "--ref-visual", v, "--ref-text", lt,
                 "--target", v, "--out", f"{out}/vd.ebnk"],
                ["collapse", "--transform-in", f"{out}/centralize.json", "--target", v2, "--out", f"{out}/v2c.ebnk"],
                ["corrupt", "--bank", f"{out}/vc.ebnk", "--kind", "cosine", "--alpha", str(ALPHA),
                 "--seed", seed, "--out", f"{out}/vcc.ebnk"],
                ["corrupt", "--bank", lt, "--kind", "gaussian", "--std", str(GAUSSIAN_STD),
                 "--seed", seed, "--out", f"{out}/lg.jsonl", "--out-format", "jsonl"],
                ["verify", "--bank", f"{out}/vcc.ebnk", "--against", f"{out}/vc.ebnk", "--alpha", str(ALPHA)],
            ):
                outcomes.append(run_command(cli, argv))
        return outcomes

    def check(self, outcomes: list[Outcome]) -> list[Op]:
        ops = []
        per_shape = len(COMMANDS)
        for i, b in enumerate(self.sets):
            mine = outcomes[i * per_shape : (i + 1) * per_shape]
            for command, outcome in zip(COMMANDS, mine):
                op = Op(f"{b.shape.name}/{command}")
                if command == "diagnose":
                    op.problems.extend(self.decode_problems[b.shape.name])
                problem = outcome.problem()
                if problem is None:
                    try:
                        problems = getattr(self, "_check_" + command)(b, outcome)
                    except (OSError, ValueError, KeyError) as exc:
                        problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
                    op.problems.extend(problems)
                else:
                    op.problems.append(problem)
                ops.append(op)
        return ops

    @staticmethod
    def _check_diagnose(b: BankSet, outcome: Outcome) -> list[str]:
        report = json.loads(Path(b.path("out/diag/gap_report.json")).read_text(encoding="utf-8"))
        gap_norm = float(np.linalg.norm(oracles.gap_vector(b.vis, b.txt)))
        se = oracles.gap_sampling_error(b.vis, b.ids_vis, b.txt, b.ids_txt)
        problems = [oracles.check_close("gap_norm", report["gap_norm"], gap_norm, 1e-9)]
        if not abs(report["gap_norm"] - GAP_NORM) <= 5.0 * se:
            problems.append(f"gap_norm {report['gap_norm']!r} is not within 5 SE ({5 * se:.3g}) of {GAP_NORM}")
        hits = oracles.top1_hits(b.vis, b.ids_vis, b.txt, b.ids_txt)
        problems.append(oracles.check_retrieval("retrieval_top1_v2t", report["retrieval_top1_v2t"], hits, len(b.ids_vis)))
        hits = oracles.top1_hits(b.txt, b.ids_txt, b.vis, b.ids_vis)
        problems.append(oracles.check_retrieval("retrieval_top1_t2v", report["retrieval_top1_t2v"], hits, len(b.ids_txt)))
        return [p for p in problems if p]

    @staticmethod
    def _check_collapse_centralize(b: BankSet, outcome: Outcome) -> list[str]:
        doc = json.loads(Path(b.path("out/centralize.json")).read_text(encoding="utf-8"))
        mean_v, mean_l = b.vis.mean(axis=0), b.txt.mean(axis=0)
        problems = []
        if doc.get("kind") != "centralize":
            problems.append(f"transform kind is {doc.get('kind')!r}, expected 'centralize'")
        for key, mean in (("visual_mean", mean_v), ("text_mean", mean_l)):
            got = np.asarray(doc[key], dtype=np.float64)
            problems.append(oracles.check_matches(f"transform {key}", got, mean, 1e-12))
        modality, ids, vc = oracles.read_bank(b.path("out/vc.ebnk"))
        if modality != "visual" or ids != b.ids_vis:
            problems.append("centralized bank lost its modality or task ids")
        expected = b.vis - mean_v
        problems.append(oracles.check_matches("centralized bank", vc, expected, oracles.f32_tolerance(expected)))
        tol = math.sqrt(b.shape.dim) * oracles.f32_tolerance(vc) + 1e-12
        problems.append(oracles.check_centralized_gap(vc, b.txt - mean_l, tol))
        return [p for p in problems if p]

    @staticmethod
    def _check_collapse_delete(b: BankSet, outcome: Outcome) -> list[str]:
        dropped = oracles.delete_dims(b.vis, b.txt, DELETE_K)
        keep = [d for d in range(b.shape.dim) if d not in dropped]
        _, ids, vd = oracles.read_bank(b.path("out/vd.ebnk"))
        problem = oracles.check_matches(f"bank without dims {dropped}", vd, b.vis[:, keep], 0.0)
        return [problem] if problem else []

    @staticmethod
    def _check_transform_in(b: BankSet, outcome: Outcome) -> list[str]:
        _, _, vc = oracles.read_bank(b.path("out/vc.ebnk"))
        _, ids, v2c = oracles.read_bank(b.path("out/v2c.ebnk"))
        problems = []
        if ids != b.ids_vis2:
            problems.append("transformed bank lost its task ids")
        problems.append(
            oracles.check_matches("rows shared with the fitting target", v2c[: b.shared], vc[: b.shared], 0.0)
        )
        expected = b.vis2[b.shared :] - b.vis.mean(axis=0)
        problems.append(
            oracles.check_matches("new rows", v2c[b.shared :], expected, oracles.f32_tolerance(expected))
        )
        return [p for p in problems if p]

    @staticmethod
    def _check_corrupt_cosine(b: BankSet, outcome: Outcome) -> list[str]:
        _, _, vc = oracles.read_bank(b.path("out/vc.ebnk"))
        _, ids, vcc = oracles.read_bank(b.path("out/vcc.ebnk"))
        problem = oracles.check_cone(vcc, vc, ALPHA, CONE_TOL)
        if ids != b.ids_vis:
            problem = problem or "corrupted bank lost its task ids"
        return [problem] if problem else []

    @staticmethod
    def _check_corrupt_gaussian(b: BankSet, outcome: Outcome) -> list[str]:
        modality, ids, lg = oracles.read_bank(b.path("out/lg.jsonl"))
        problem = oracles.check_gaussian_residuals(lg, b.txt, GAUSSIAN_STD)
        if modality != "text" or ids != b.ids_txt:
            problem = problem or "corrupted bank lost its modality or task ids"
        return [problem] if problem else []

    @staticmethod
    def _check_verify(b: BankSet, outcome: Outcome) -> list[str]:
        if f"all {len(b.ids_vis)} rows" not in outcome.stdout:
            return [f"verify did not confirm all {len(b.ids_vis)} rows: {outcome.stdout.strip()!r}"]
        return []


def make_workload(name: str, seed: int):
    if name == "transfer_default":
        return TransferWorkload(name, seed, "visual", ())
    if name == "transfer_ablation":
        return TransferWorkload(name, seed, "text", ABLATIONS)
    if name == "bank_tools":
        return BankToolsWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

