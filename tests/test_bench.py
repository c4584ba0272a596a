import csv
import json
from dataclasses import fields

import pytest

from modalign import ParameterError, PipelineError
from modalign.bench import (
    CSV_COLUMNS,
    BenchConfig,
    BenchRow,
    VariantSpec,
    run_transfer_experiment,
    subseed,
)
from modalign.cli import main


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

    def test_horizon_must_reach_every_cell(self):
        with pytest.raises(ParameterError, match="horizon"):
            tiny_config(horizon=3)

    def test_roundtrip_through_dict(self):
        cfg = tiny_config(ablations=({"collapse": "delete"},))
        again = BenchConfig.from_dict(cfg.to_dict())
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
        ],
    )
    def test_out_of_domain_variant_rejected(self, fields):
        with pytest.raises(ParameterError):
            VariantSpec(**fields)

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
        ],
    )
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ParameterError, match=field):
            BenchConfig.from_dict({"schema_version": 1, field: value})

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

    def test_rows_name_their_seed_and_variant(self, tmp_path):
        # without seed, delete_k and injected_gap_norm two rows could share
        # every identifying column
        report = run_transfer_experiment(tiny_config(
            seeds=(0, 1), collapse="delete", eval_heldout_text=False, eval_modalities=("text",),
            ablations=({"delete_k": 3}, {"injected_gap_norm": 2.0}),
        ))
        assert [r.delete_k for r in report.rows] == [1, 3, 1] * 2
        assert [r["delete_k"] for r in report.to_json_dict()["rows"]] == [1, 3, 1] * 2
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
