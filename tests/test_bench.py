import csv
import json
import pickle
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from modalign import DivergenceError, ParameterError, PipelineError, synthetic_gap_bank
from modalign.bench import (
    CSV_COLUMNS,
    BenchConfig,
    BenchRow,
    VariantSpec,
    _fit_transform,
    run_transfer_experiment,
    seed_rows,
    subseed,
)
from modalign.cli import main
from modalign.fileio import json_text
from modalign.gridworld import HELDOUT_TEMPLATE_INDICES, generate_tasks


def tiny_config(**overrides):
    base = dict(
        grid_size=3,
        demos_per_task=4,
        dim=8,
        seeds=(0,),
        episodes_per_task=2,
        horizon=4,
        encoder_steps=150,
        policy_steps=150,
        eval_heldout_text=True,
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestBenchConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError, match="bogus"):
            BenchConfig.from_dict({"schema_version": 1, "bogus": 3})

    def test_missing_schema_version_rejected(self):
        with pytest.raises(ParameterError, match="schema_version"):
            BenchConfig.from_dict({"grid_size": 4})

    def test_unknown_ablation_key_rejected(self):
        with pytest.raises(ParameterError, match="nope"):
            tiny_config(ablations=({"nope": 1},))

    def test_unknown_ablation_keys_of_mixed_types_rejected(self):
        # sorting an int key beside a str key raised TypeError, which only a catch-all in the config check caught
        with pytest.raises(ParameterError, match=r"^ablation: unknown keys \[1, 'nope'\]$"):
            tiny_config(ablations=({1: 0, "nope": 0},))

    def test_horizon_must_reach_every_cell(self):
        with pytest.raises(ParameterError, match="horizon"):
            tiny_config(horizon=3)

    def test_roundtrip_through_dict(self):
        cfg = tiny_config(ablations=({"collapse": "delete"},))
        again = BenchConfig.from_dict(asdict(cfg))
        assert again == cfg

    def test_variants_apply_overrides(self):
        cfg = tiny_config(ablations=({"collapse": "none", "injected_gap_norm": 2.0},))
        variants = cfg.variants()
        assert variants[0].collapse == "centralize"
        assert variants[1].collapse == "none"
        assert variants[1].injected_gap_norm == 2.0

    def test_bad_variant_values(self):
        with pytest.raises(ParameterError):
            VariantSpec(collapse="sideways")
        with pytest.raises(ParameterError):
            VariantSpec(corrupt_kind="salt")

    @pytest.mark.parametrize(
        "fields",
        [
            {"alpha": 2.0},
            {"alpha": -1.0},
            {"alpha": float("nan")},
            {"std": -0.1},
            {"delete_k": 0},
            {"delete_k": 1.5},
            {"delete_k": True},
            {"alpha": "x"},
            {"corrupt_kind": None},
        ],
    )
    def test_out_of_domain_variant_rejected(self, fields):
        with pytest.raises(ParameterError):
            VariantSpec(**fields)

    @pytest.mark.parametrize(
        "field, inside, outside",
        [
            ("collapse", "none", "None"),
            ("delete_k", 1, 0),
            ("corrupt_kind", "gaussian", "Gaussian"),
            ("alpha", 1.0, np.nextafter(1.0, 2.0)),
            ("alpha", np.nextafter(-1.0, 0.0), -1.0),
            ("std", 0.0, -5e-324),
            ("injected_gap_norm", 0.0, -5e-324),
        ],
    )
    def test_variant_rule_boundary_names_its_field(self, field, inside, outside):
        assert getattr(VariantSpec(**{field: inside}), field) == inside
        with pytest.raises(ParameterError, match=f"^{field} must be "):
            VariantSpec(**{field: outside})

    @pytest.mark.parametrize(
        "field, inside, outside",
        [
            ("grid_size", 3, 2),
            ("demos_per_task", 1, 0),
            ("dim", 1, 0),
            ("world_seed", 0, -1),
            ("seeds", (0,), (3, -1)),
            ("train_modality", "text", "audio"),
            ("eval_modalities", ("text",), ("visual", "audio")),
            ("episodes_per_task", 1, 0),
        ],
    )
    def test_bench_rule_boundary_names_its_field(self, field, inside, outside):
        # without corruption, since cosine corruption also needs dim >= 2
        assert getattr(tiny_config(corrupt_kind="none", **{field: inside}), field) == inside
        with pytest.raises(ParameterError, match=f"^{field} must be "):
            tiny_config(corrupt_kind="none", **{field: outside})

    @pytest.mark.parametrize(
        "fields",
        [{"dim": 1}, {"collapse": "delete", "delete_k": 7}, {"ablations": ({"collapse": "delete", "delete_k": 7},)}],
        ids=["dim-1", "delete-to-1", "ablation-deletes-to-1"],
    )
    def test_cosine_corruption_needs_a_goal_width_of_two(self, fields):
        # dim is 8, so delete_k=7 leaves one dimension; cosine noise needs an orthogonal one
        with pytest.raises(ParameterError, match="^cosine corruption needs a goal width of at least 2, got 1$"):
            tiny_config(**fields)
        for kind in ("gaussian", "none"):
            tiny_config(corrupt_kind=kind, **fields)

    def test_numpy_integer_delete_k_fits_its_delete_transform(self):
        cfg = BenchConfig(collapse="delete", delete_k=np.int64(2))
        assert type(cfg.delete_k) is int
        bank_v, bank_l = synthetic_gap_bank(4, cfg.dim, gap_norm=1.0, intra_noise_std=0.1, seed=0)
        transform = _fit_transform(cfg.variants()[0], bank_v, bank_l, None)
        assert len(transform.deleted_dims) == 2 and transform.output_dim == cfg.dim - 2

    @pytest.mark.parametrize(
        "numpy_fields, plain_fields",
        [
            ({"alpha": np.float32(0.5)}, {"alpha": 0.5}),
            ({"std": np.float16(0.25), "encoder_learning_rate": np.float64(0.1)},
             {"std": 0.25, "encoder_learning_rate": 0.1}),
            ({"ablations": ({"collapse": "delete", "delete_k": np.int64(2)},)},
             {"ablations": ({"collapse": "delete", "delete_k": 2},)}),
            ({"ablations": ({"alpha": np.float32(0.5), "injected_gap_norm": np.int64(1)},)},
             {"ablations": ({"alpha": 0.5, "injected_gap_norm": 1.0},)}),
        ],
    )
    def test_numpy_scalars_are_stored_as_plain_values(self, numpy_fields, plain_fields):
        # the report echoes the config, and JSON cannot encode a numpy scalar
        got = json_text(asdict(BenchConfig(**numpy_fields)))
        assert got == json_text(asdict(BenchConfig(**plain_fields)))

    def test_plain_int_in_a_float_field_echoes_as_an_int(self):
        cfg = BenchConfig(alpha=0, ablations=({"std": 1},))
        assert type(cfg.alpha) is int and type(cfg.ablations[0]["std"]) is int

    def test_corrupt_config_carries_both_strengths(self):
        cfg = VariantSpec(corrupt_kind="gaussian", alpha=0.5, std=0.3).corrupt_config(7)
        assert (cfg.kind, cfg.alpha, cfg.std, cfg.seed) == ("gaussian", 0.5, 0.3, 7)
        assert VariantSpec(corrupt_kind="none").corrupt_config(7) is None

    @pytest.mark.parametrize(
        "ablation", [{"alpha": 2.0}, {"std": -1.0}, {"collapse": "delete", "delete_k": 8}]
    )
    def test_every_variant_checked_at_construction(self, ablation):
        # dim is 8, so deleting 8 dimensions would leave none
        with pytest.raises(ParameterError):
            tiny_config(ablations=({"collapse": "none"}, ablation))

    @pytest.mark.parametrize(
        "doc", [{"seeds": "ab"}, {"seeds": ["a"]}, {"seeds": [[0]]}, {"policy_hidden": ["x"]}, {"grid_size": "5"}]
    )
    def test_bad_values_are_parameter_errors(self, doc):
        with pytest.raises(ParameterError):
            BenchConfig.from_dict({"schema_version": 1, **doc})

    @pytest.mark.parametrize(
        "doc",
        [
            {"seeds": [2.7]},
            {"seeds": [True]},
            {"seeds": []},
            {"seeds": [-1]},
            {"world_seed": -1},
            {"policy_hidden": [63.9]},
            {"encoder_steps": 2.5},
            {"grid_size": True},
            {"encoder_freeze_text_after": 1.5},
            {"encoder_learning_rate": float("nan")},
            {"policy_momentum": float("inf")},
            {"encoder_temperature": "0.5"},
            {"alpha": True},
            {"injected_gap_norm": float("inf")},
            {"ablations": [{"std": float("inf")}]},
            {"eval_heldout_text": "no"},
        ],
    )
    def test_values_are_not_coerced(self, doc):
        # integer fields take integers (not bools or truncated floats),
        # float fields finite numbers and bool fields booleans
        with pytest.raises(ParameterError):
            BenchConfig.from_dict({"schema_version": 1, **doc})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_size", 0),
            ("demos_per_task", 0),
            ("dim", 0),
            ("episodes_per_task", 0),
            ("horizon", 0),
            ("encoder_batch_size", 0),
            ("encoder_token_dim", 0),
            ("policy_batch_size", -1),
            ("encoder_visual_hidden", [64, 0]),
            ("encoder_text_hidden", [-3]),
            ("policy_hidden", [0]),
            ("encoder_steps", -1),
            ("policy_steps", -1),
            ("encoder_freeze_text_after", -1),
            ("seeds", [0, -1]),
            ("world_seed", -1),
            ("eval_modalities", []),
            # checked by the encoder and policy stage configs
            ("policy_learning_rate", -0.1),
            ("policy_momentum", 1.0),
            ("encoder_learning_rate", 0),
            ("encoder_temperature", 0),
            ("encoder_momentum", 1.0),
            ("encoder_batch_size", 1),
            ("seeds", [0, 1, 0]),  # a repeated seed would count twice in the aggregates
            ("eval_modalities", ["visual", "audio"]),
            ("encoder_momentum", -0.1),
            ("eval_modalities", ["visual", "visual"]),  # would pool the same rows twice, as seeds above
        ],
    )
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ParameterError, match=field):
            BenchConfig.from_dict({"schema_version": 1, field: value})

    @pytest.mark.parametrize("field", ["seeds", "eval_modalities"])
    def test_empty_list_refused_by_name(self, field):
        with pytest.raises(ParameterError, match=f"^{field} must not be empty$"):
            BenchConfig.from_dict({"schema_version": 1, field: []})

    def test_zero_steps_and_empty_hidden_lists_accepted(self):
        cfg = tiny_config(
            encoder_steps=0, policy_steps=0, encoder_freeze_text_after=0, policy_hidden=(), world_seed=0
        )
        assert cfg.encoder_steps == 0 and cfg.policy_hidden == ()

    def test_integral_values_accepted(self):
        cfg = BenchConfig.from_dict(
            {"schema_version": 1, "seeds": [4], "encoder_learning_rate": 1,
             "encoder_freeze_text_after": None}
        )
        assert cfg.seeds == (4,) and cfg.encoder_learning_rate == 1


class TestSubseed:
    def test_deterministic_and_distinct(self):
        assert subseed(1, 2) == subseed(1, 2)
        assert subseed(1, 2) != subseed(2, 1)
        assert subseed(0, 0) != subseed(0, 1)


@pytest.fixture(scope="module")
def report():
    return run_transfer_experiment(tiny_config())


class TestRunTransferExperiment:
    def test_rows_cover_eval_modalities(self, report):
        names = {r.eval_modality for r in report.rows}
        assert names == {"visual", "text", "text_heldout"}

    def test_row_counts(self, report):
        # 1 seed x 1 variant x 3 eval rows
        assert len(report.rows) == 3

    def test_chance_floor_in_unit_interval(self, report):
        assert 0.0 <= report.chance_floor <= 1.0
        for row in report.rows:
            assert row.chance_floor == report.chance_floor

    def test_aggregates_match_rows_for_single_seed(self, report):
        for agg in report.aggregates:
            rows = [r for r in report.rows if r.eval_modality == agg["eval_modality"]]
            assert agg["success_mean"] == pytest.approx(rows[0].success_mean)
            assert agg["n_seeds"] == 1

    def test_aggregate_of_a_missing_cell_is_a_key_error(self, report):
        with pytest.raises(KeyError, match=re.escape("no aggregate for text {'collapse': 'delete'}")):
            report.aggregate("text", collapse="delete")

    def test_deterministic_rerun(self, report):
        again = run_transfer_experiment(tiny_config())
        assert [r.success_mean for r in again.rows] == [r.success_mean for r in report.rows]

    def test_json_and_csv_outputs(self, report, tmp_path):
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        report.write_json(json_path)
        report.write_csv(csv_path)
        doc = json.loads(json_path.read_text())
        assert doc["chance_floor"] == report.chance_floor
        assert len(doc["rows"]) == len(report.rows)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(report.rows)

    def test_csv_byte_identical_on_rerun(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_transfer_experiment(tiny_config()).write_csv(p1)
        run_transfer_experiment(tiny_config()).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("train_modality", ["visual", "text"])
class TestSeedRows:
    """seed_rows is one seed's unit of work: the report's rows are the
    seeds' rows in seed order, and a call pickles whole."""

    @pytest.fixture
    def run(self, train_modality):
        config = tiny_config(
            seeds=(0, 1), train_modality=train_modality, encoder_steps=20, policy_steps=20,
            ablations=({"alpha": 0.5}, {"collapse": "delete"}),
        )
        report = run_transfer_experiment(config)
        return config, generate_tasks(config.grid_size, config.world_seed), report

    def test_the_seeds_rows_are_the_report_rows(self, run):
        config, tasks, report = run
        per_seed = [seed_rows(config, tasks, report.chance_floor, s) for s in config.seeds]
        assert [len(rows) for rows in per_seed] == [9, 9]
        assert [row for rows in per_seed for row in rows] == report.rows

    def test_arguments_and_rows_survive_a_pickle_round_trip(self, run):
        config, tasks, report = run
        arguments = (config, tasks, report.chance_floor)
        unpickled = pickle.loads(pickle.dumps(arguments))
        assert unpickled == arguments
        rows = seed_rows(*unpickled, 1)
        assert pickle.loads(pickle.dumps(rows)) == rows == report.rows[9:]


class TestStageStreams:
    def test_every_stage_has_its_own_stream_and_every_variant_shares_it(self, monkeypatch):
        import modalign.bench as bench_module

        streams: dict[str, list[int]] = {}

        def record(name, stage_and_seed):
            real = getattr(bench_module, name)

            def recording(*args):
                stage, seed = stage_and_seed(*args)
                streams.setdefault(stage, []).append(seed)
                return real(*args)

            monkeypatch.setattr(bench_module, name, recording)

        record("build_dataset", lambda tasks, demos, seed: ("dataset", seed))
        record("train_encoders", lambda clips, config: ("encoder", config.seed))
        record("build_goal_bank", lambda encoders, dataset, modality, seed, *pool: (f"goals_{modality}", seed))
        record("train_policies", lambda *args: ("policy", args[5].seed))
        record("training_goals", lambda goals, corrupt, *rule: ("corrupt", corrupt.seed))
        record("eval_episodes", lambda *args: ("eval_heldout" if args[5] == HELDOUT_TEMPLATE_INDICES else "eval", args[4]))
        ablations = ({"alpha": 0.5}, {"collapse": "delete"}, {"corrupt_kind": "gaussian", "injected_gap_norm": 1.0})
        run_transfer_experiment(tiny_config(
            seeds=(4,), train_modality="text", encoder_steps=20, policy_steps=20, ablations=ablations,
        ))
        counts = {stage: len(seeds) for stage, seeds in streams.items()}
        assert counts == {
            "dataset": 1, "encoder": 1, "goals_visual": 1, "goals_text": 1, "policy": 1,
            "corrupt": 4, "eval": 2, "eval_heldout": 1,
        }
        # every variant draws from the same stream per stage
        seed_of = {stage: set(seeds) for stage, seeds in streams.items()}
        assert all(len(seeds) == 1 for seeds in seed_of.values()), seed_of
        seed_of = {stage: seeds.pop() for stage, seeds in seed_of.items()}
        # the visual reference bank draws nothing from the goals stream the text templates use
        assert seed_of.pop("goals_visual") == seed_of["goals_text"]
        # and no two stages share a stream: the templates are not the policy's init and batches
        assert seed_of["goals_text"] != seed_of["policy"]
        assert len(set(seed_of.values())) == len(seed_of) == 7

    def test_visual_training_goals_reuse_the_reference_bank(self, monkeypatch):
        # visual goals draw no templates, so one visual bank serves both stages
        import modalign.bench as bench_module

        calls, real = [], bench_module.build_goal_bank

        def recording(encoders, dataset, modality, *args):
            calls.append(modality)
            return real(encoders, dataset, modality, *args)

        monkeypatch.setattr(bench_module, "build_goal_bank", recording)
        run_transfer_experiment(tiny_config(encoder_steps=20, policy_steps=20, ablations=({"alpha": 0.5},)))
        assert calls == ["visual"]

    @pytest.mark.parametrize("train_modality", ["visual", "text"])
    def test_a_variant_that_repeats_the_base_reports_the_same_success(self, train_modality):
        report = run_transfer_experiment(tiny_config(
            train_modality=train_modality, encoder_steps=60, policy_steps=60, ablations=({"alpha": 0.2},),
        ))
        base, again = report.rows[:3], report.rows[3:]
        assert [r.eval_modality for r in base] == [r.eval_modality for r in again] == ["visual", "text", "text_heldout"]
        assert [r.success_mean for r in base] == [r.success_mean for r in again]


LOCALITY_ABLATIONS = ({"alpha": 0.5}, {"collapse": "delete"}, {"corrupt_kind": "gaussian", "injected_gap_norm": 1.0})


def rows_by_cell(report):
    """Every row keyed by its seed, variant and eval modality."""
    values = ("success_mean", "success_std", "chance_floor")
    return {tuple(v for k, v in asdict(row).items() if k not in values): asdict(row) for row in report.rows}


@pytest.fixture(scope="module", params=["visual", "text"])
def locality_run(request):
    """A tiny config of each train modality and its rows over seeds 0, 1 and 2."""

    def config(**overrides):
        return tiny_config(
            train_modality=request.param, encoder_steps=60, policy_steps=60,
            **{"ablations": LOCALITY_ABLATIONS, **overrides},
        )

    return config, rows_by_cell(run_transfer_experiment(config(seeds=(0, 1, 2))))


class TestLocality:
    """A row depends on the world settings, its seed and its variant only:
    not on the run's other seeds and variants or their order."""

    def test_variant_rows_do_not_depend_on_the_other_variants(self, locality_run):
        config, together = locality_run
        gaussian = LOCALITY_ABLATIONS[2]
        subset = config(seeds=(0,), ablations=(gaussian, LOCALITY_ABLATIONS[0]))
        # the delete variant as the base, and the base as an ablation
        rebased = config(
            seeds=(0,), collapse="delete",
            ablations=({"collapse": "centralize"}, {**gaussian, "collapse": "centralize"}),
        )
        for cfg in (subset, rebased):
            rows = rows_by_cell(run_transfer_experiment(cfg))
            assert len(rows) == 9 and rows.keys() < together.keys()
            assert rows == {cell: together[cell] for cell in rows}

    def test_seed_rows_do_not_depend_on_the_other_seeds(self, locality_run):
        config, together = locality_run
        alone = {}
        for seed in (0, 1, 2):
            alone.update(rows_by_cell(run_transfer_experiment(config(seeds=(seed,)))))
        assert alone == together


class TestAblations:
    def test_ablation_rows_added(self):
        cfg = tiny_config(
            eval_heldout_text=False,
            eval_modalities=("text",),
            ablations=({"collapse": "none"},),
        )
        report = run_transfer_experiment(cfg)
        assert {r.collapse for r in report.rows} == {"centralize", "none"}
        assert len(report.rows) == 2

    def test_injected_gap_hurts_without_collapse(self):
        # ablation oracle at small scale: uncorrected gap must not beat
        # centralize on cross-modal success
        cfg = tiny_config(
            grid_size=4,
            demos_per_task=8,
            dim=12,
            encoder_steps=800,
            policy_steps=1200,
            episodes_per_task=4,
            horizon=6,
            eval_heldout_text=False,
            eval_modalities=("text",),
            ablations=({"collapse": "none", "injected_gap_norm": 2.0},),
        )
        report = run_transfer_experiment(cfg)
        centralize = report.aggregate("text", collapse="centralize")
        none_gap = report.aggregate("text", collapse="none")
        assert none_gap["success_mean"] < centralize["success_mean"]

    def test_delete_k_variants_aggregate_apart(self):
        # two delete variants that differ only in delete_k must not pool
        report = run_transfer_experiment(
            tiny_config(collapse="delete", ablations=({"delete_k": 3},))
        )
        for k in (1, 3):
            cells = [a for a in report.aggregates if a["delete_k"] == k]
            assert sorted(a["eval_modality"] for a in cells) == ["text", "text_heldout", "visual"]
            assert [a["n_seeds"] for a in cells] == [1, 1, 1]
        assert len(report.aggregates) == 6

    def test_variants_identical_to_the_base_aggregate_apart(self):
        # an aggregate reads its cell's rows by their place in each seed's run
        # order, so variants that share every field still never pool
        report = run_transfer_experiment(tiny_config(
            seeds=(0, 1), encoder_steps=20, policy_steps=20, ablations=({}, {"alpha": 0.2}),
        ))
        per_seed = [[r for r in report.rows if r.seed == seed] for seed in (0, 1)]
        assert len(per_seed[0]) == len(per_seed[1]) == len(report.aggregates) == 9
        assert [a["eval_modality"] for a in report.aggregates] == ["visual", "text", "text_heldout"] * 3
        assert [a["n_seeds"] for a in report.aggregates] == [2] * 9
        for agg, first, second in zip(report.aggregates, *per_seed):
            assert agg["success_mean"] == float(np.mean([first.success_mean, second.success_mean]))

    def test_rows_name_their_seed_and_variant(self, tmp_path):
        # without seed, delete_k and injected_gap_norm two rows could share
        # every identifying column
        report = run_transfer_experiment(tiny_config(
            seeds=(0, 1), collapse="delete", eval_heldout_text=False, eval_modalities=("text",),
            ablations=({"delete_k": 3}, {"injected_gap_norm": 2.0}),
        ))
        assert [r.delete_k for r in report.rows] == [1, 3, 1] * 2
        assert [r["delete_k"] for r in asdict(report)["rows"]] == [1, 3, 1] * 2
        path = tmp_path / "report.csv"
        report.write_csv(path)
        header, *lines = path.read_text().splitlines()
        values = ("success_mean", "success_std", "chance_floor")
        keys = {tuple(v for c, v in zip(header.split(","), line.split(",")) if c not in values) for line in lines}
        assert len(keys) == len(lines) == 6

    def test_gaussian_variant_runs(self):
        cfg = tiny_config(
            eval_heldout_text=False,
            eval_modalities=("visual",),
            corrupt_kind="gaussian",
            std=0.05,
        )
        report = run_transfer_experiment(cfg)
        assert report.rows[0].corrupt_kind == "gaussian"
        assert report.rows[0].alpha_or_std == 0.05

    def test_stage_failure_is_named(self, monkeypatch):
        import modalign.bench as bench_module

        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(bench_module, "train_encoders", broken)
        with pytest.raises(PipelineError, match="train_encoders") as info:
            run_transfer_experiment(tiny_config())
        assert info.value.stage == "train_encoders"
        assert str(info.value) == "stage 'train_encoders': ValueError: boom (seed 0)"
        # per-variant stages name the variant too
        monkeypatch.undo()
        monkeypatch.setattr(bench_module, "fit_delete", broken)
        with pytest.raises(PipelineError) as info:
            run_transfer_experiment(tiny_config(seeds=(3,), ablations=({"alpha": 0.5}, {"collapse": "delete"})))
        assert info.value.stage == "fit_collapse"
        assert str(info.value) == "stage 'fit_collapse': ValueError: boom (seed 3, variant 2)"

    @pytest.mark.parametrize(
        "attr, fails, train_modality, stage, where",
        [
            ("build_dataset", lambda *a: True, "visual", "build_dataset", "(seed 6)"),
            ("build_goal_bank", lambda *a: True, "visual", "reference_banks", "(seed 6)"),
            ("text_reference_bank", lambda *a: True, "visual", "reference_banks", "(seed 6)"),
            # the visual reference bank is built first and passes; the text training goals fail
            ("build_goal_bank", lambda *a: a[2] == "text", "text", "training_goals", "(seed 6)"),
            ("eval_episodes", lambda *a: True, "visual", "eval_episodes", "(seed 6)"),
            # only variant 1, collapse=none, evaluates without a transform
            ("evaluate_policy", lambda *a: a[3] is None, "visual", "evaluate_policy", "(seed 6, variant 1)"),
        ],
        ids=[
            "build_dataset", "visual-reference-bank", "text-reference-bank", "text-training-goals", "eval_episodes",
            "evaluate_policy",
        ],
    )
    def test_every_seed_stage_failure_names_its_seed(self, monkeypatch, attr, fails, train_modality, stage, where):
        import modalign.bench as bench_module

        real = getattr(bench_module, attr)

        def broken(*args):
            if fails(*args):
                raise ValueError("boom")
            return real(*args)

        monkeypatch.setattr(bench_module, attr, broken)
        config = tiny_config(
            seeds=(6,), train_modality=train_modality, encoder_steps=20, policy_steps=20,
            ablations=({"collapse": "none"},),
        )
        with pytest.raises(PipelineError) as info:
            run_transfer_experiment(config)
        assert str(info.value) == f"stage '{stage}': ValueError: boom {where}"

    @pytest.mark.parametrize("collapse, stage", [("centralize", "fit_collapse"), ("none", "training_goals")])
    def test_goal_rule_fails_inside_the_stage_that_uses_it(self, monkeypatch, collapse, stage):
        # the bench used to apply the goal rule outside every stage, so a
        # failure there named no stage, seed or variant
        import modalign.bench as bench_module
        import modalign.policy as policy_module

        real = policy_module.variant_goals

        def broken_with_offset(bank, transform, visual_offset=None):
            if visual_offset is not None:
                raise ValueError("boom")
            return real(bank, transform, visual_offset)

        monkeypatch.setattr(bench_module, "variant_goals", broken_with_offset)
        monkeypatch.setattr(policy_module, "variant_goals", broken_with_offset)
        config = tiny_config(collapse=collapse, encoder_steps=20, policy_steps=20, ablations=({"injected_gap_norm": 1.0},))
        with pytest.raises(PipelineError) as info:
            run_transfer_experiment(config)
        assert str(info.value) == f"stage '{stage}': ValueError: boom (seed 0, variant 1)"

    def test_expert_steps_fail_inside_their_stage(self, monkeypatch):
        import modalign.bench as bench_module

        def broken(*args):
            raise ValueError("boom")

        monkeypatch.setattr(bench_module, "expert_steps", broken)
        with pytest.raises(PipelineError) as info:
            run_transfer_experiment(tiny_config(encoder_steps=20, policy_steps=20))
        assert str(info.value) == "stage 'expert_steps': ValueError: boom (seed 0)"

    def test_diverging_variant_is_named(self, monkeypatch):
        import modalign.bench as bench_module

        real = bench_module.training_goals
        calls = []

        def nan_for_variant_3(*args):
            goals = real(*args)
            calls.append(len(calls))
            return goals * np.nan if len(calls) == 4 else goals

        monkeypatch.setattr(bench_module, "training_goals", nan_for_variant_3)
        ablations = ({"alpha": 0.5}, {"collapse": "delete"}, {"corrupt_kind": "none"}, {"collapse": "none"})
        with pytest.raises(DivergenceError) as info:
            run_transfer_experiment(tiny_config(seeds=(5,), ablations=ablations))
        assert str(info.value) == "stage 'train_policy': variant 3: non-finite loss at step 0 (seed 5)"
        assert calls == [0, 1, 2, 3, 4]

    def test_run_wide_stage_failure_names_no_seed(self, monkeypatch):
        import modalign.bench as bench_module

        def broken(*args):
            raise ValueError("boom")

        monkeypatch.setattr(bench_module, "chance_floor", broken)
        with pytest.raises(PipelineError) as info:
            run_transfer_experiment(tiny_config())
        assert info.value.stage == "chance_floor"
        assert str(info.value) == "stage 'chance_floor': ValueError: boom"

    def test_divergence_in_a_variant_stage_keeps_its_class_and_exits_3(self, monkeypatch, tmp_path, capsys):
        import modalign.bench as bench_module

        real, calls = bench_module.training_goals, []

        def diverging_for_variant_1(*args):
            calls.append(len(calls))
            if len(calls) == 2:
                raise DivergenceError("non-finite goals")
            return real(*args)

        monkeypatch.setattr(bench_module, "training_goals", diverging_for_variant_1)
        config = tiny_config(seeds=(4,), encoder_steps=20, policy_steps=20, ablations=({"alpha": 0.5},))
        with pytest.raises(DivergenceError) as info:
            run_transfer_experiment(config)
        assert str(info.value) == "stage 'training_goals': non-finite goals (seed 4, variant 1)"
        calls.clear()
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(asdict(config)))
        assert main(["bench", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {info.value}\n"


class TestReportSchema:
    def test_every_variant_field_reaches_rows_csv_and_aggregates(self):
        # each ablation differs in one field from the base or the one before
        report = run_transfer_experiment(tiny_config(
            collapse="delete", eval_heldout_text=False, encoder_steps=60, policy_steps=60,
            ablations=(
                {"collapse": "none"}, {"delete_k": 2}, {"alpha": 0.5}, {"injected_gap_norm": 1.0},
                {"corrupt_kind": "gaussian"}, {"corrupt_kind": "gaussian", "std": 0.3}, {"corrupt_kind": "none"},
            ),
        ))
        keys = set(VariantSpec().report_fields())
        assert keys == {"collapse", "delete_k", "corrupt_kind", "alpha_or_std", "injected_gap_norm"}
        assert keys <= {f.name for f in fields(BenchRow)}
        assert keys <= set(CSV_COLUMNS)
        assert all(keys <= set(agg) for agg in report.aggregates)
        cells = {(tuple(agg[k] for k in sorted(keys)), agg["eval_modality"]) for agg in report.aggregates}
        assert len(cells) == len(report.aggregates) == 8 * 2

    def test_integer_valued_floats_format_by_field_type(self, tmp_path, capsys):
        config = tmp_path / "bench.json"
        doc = {
            "schema_version": 1, "grid_size": 3, "demos_per_task": 4, "dim": 8, "seeds": [0],
            "episodes_per_task": 2, "horizon": 4, "encoder_steps": 60, "policy_steps": 60,
            "eval_heldout_text": False, "eval_modalities": ["visual"], "alpha": 0, "injected_gap_norm": 1,
        }
        config.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        # the CSV formats by the declared float type, not by the value's type
        (row,) = csv.DictReader((tmp_path / "transfer_report.csv").read_text().splitlines())
        assert (row["alpha_or_std"], row["injected_gap_norm"], row["delete_k"]) == ("0.0", "1.0", "1")
        # JSON and the console keep the values as given
        report = json.loads((tmp_path / "transfer_report.json").read_text())
        for cell in (report["rows"][0], report["aggregates"][0]):
            assert (cell["alpha_or_std"], cell["injected_gap_norm"]) == (0, 1)
            assert type(cell["alpha_or_std"]) is int and type(cell["injected_gap_norm"]) is int
        assert "centralize/cosine=0 gap=1 train=visual eval=visual" in capsys.readouterr().out
