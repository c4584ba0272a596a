import json
import shlex
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modalign import BankFormat, load_bank, save_bank
from modalign.bench import subseed
from modalign.cli import build_parser, main
from modalign.gridworld import synthetic_gap_bank


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def bank_pair(tmp_path):
    bank_v, bank_l = synthetic_gap_bank(5, 6, gap_norm=2.0, intra_noise_std=0.1, seed=3)
    pv = tmp_path / "v.ebnk"
    pl = tmp_path / "l.ebnk"
    save_bank(bank_v, pv, BankFormat.BINARY)
    save_bank(bank_l, pl, BankFormat.BINARY)
    return pv, pl


def readme_cli_commands():
    """Every `modalign ...` command of README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("modalign ")]


class TestParser:
    def test_readme_commands_parse(self):
        commands = readme_cli_commands()
        assert {argv[1] for argv in commands} == {
            "diagnose", "collapse", "corrupt", "train-encoder", "bench", "verify"
        }
        for argv in commands:
            args = build_parser().parse_args(argv[1:])
            assert args.command == argv[1]

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            run(["--help"])
        assert info.value.code == 0

    def test_subcommand_help_exits_zero(self):
        for command in ("diagnose", "collapse", "corrupt", "train-encoder", "bench", "verify"):
            with pytest.raises(SystemExit) as info:
                run([command, "--help"])
            assert info.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            run(["corrupt", "--frobnicate"])
        assert info.value.code == 2


class TestUnwritableOutput:
    """An output path under a regular file cannot be created: exit 2, no traceback."""

    def test_diagnose(self, bank_pair, tmp_path, capsys):
        pv, pl = bank_pair
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        assert run(["diagnose", "--bank-v", pv, "--bank-l", pl, "--out", out]) == 2
        assert "afile" in capsys.readouterr().err

    def test_bench(self, monkeypatch, tmp_path, capsys):
        import modalign.cli as cli_module

        def must_not_run(config):
            raise AssertionError("the bench ran before its output directory was made")

        monkeypatch.setattr(cli_module, "run_transfer_experiment", must_not_run)
        (tmp_path / "afile").write_text("")
        assert run(["bench", "--out-dir", tmp_path / "afile" / "sub"]) == 2
        assert "afile" in capsys.readouterr().err

    def test_train_encoder(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "grid_size": 3, "encoder_steps": 0}))
        (tmp_path / "afile").write_text("")
        assert run([
            "train-encoder", "--config", config, "--out", tmp_path / "enc.eprm",
            "--loss-csv", tmp_path / "afile" / "loss.csv",
        ]) == 2
        assert "afile" in capsys.readouterr().err


class TestDiagnose:
    def test_writes_all_outputs(self, bank_pair, tmp_path):
        pv, pl = bank_pair
        out = tmp_path / "diag"
        assert run(["diagnose", "--bank-v", pv, "--bank-l", pl, "--out", out]) == 0
        for name in ("gap_report.json", "simmatrix.csv", "perdim_gap.csv", "pca2d.csv"):
            assert (out / name).exists()
        report = json.loads((out / "gap_report.json").read_text())
        assert abs(report["gap_norm"] - 2.0) < 0.3

    def test_identical_banks_zero_gap(self, tmp_path):
        bank, _ = synthetic_gap_bank(4, 5, gap_norm=0.0, intra_noise_std=0.1, seed=1)
        p = tmp_path / "b.ebnk"
        save_bank(bank, p, BankFormat.BINARY)
        out = tmp_path / "diag"
        assert run(["diagnose", "--bank-v", p, "--bank-l", p, "--out", out]) == 0
        report = json.loads((out / "gap_report.json").read_text())
        assert report["gap_norm"] == 0.0

    def test_missing_file_exit_two_names_path(self, tmp_path, capsys):
        out = tmp_path / "diag"
        code = run(["diagnose", "--bank-v", tmp_path / "absent.ebnk", "--bank-l", tmp_path / "absent.ebnk", "--out", out])
        assert code == 2
        assert "absent.ebnk" in capsys.readouterr().err


class TestCollapse:
    def test_centralize_target_zero_mean(self, bank_pair, tmp_path):
        pv, pl = bank_pair
        out = tmp_path / "collapsed.ebnk"
        code = run([
            "collapse", "--kind", "centralize", "--ref-visual", pv, "--ref-text", pl,
            "--target", pv, "--out", out,
        ])
        assert code == 0
        collapsed = load_bank(out)
        assert np.abs(collapsed.values.mean(axis=0)).max() < 1e-6  # float32 storage

    def test_delete_reduces_dim(self, bank_pair, tmp_path):
        pv, pl = bank_pair
        out = tmp_path / "collapsed.ebnk"
        code = run([
            "collapse", "--kind", "delete", "--k", 1, "--ref-visual", pv, "--ref-text", pl,
            "--target", pv, "--out", out,
        ])
        assert code == 0
        assert load_bank(out).dim == 5

    def test_saved_transform_reapplies_byte_identically(self, bank_pair, tmp_path):
        pv, pl = bank_pair
        transform = tmp_path / "t.json"
        out1 = tmp_path / "a.ebnk"
        out2 = tmp_path / "b.ebnk"
        assert run([
            "collapse", "--kind", "centralize", "--ref-visual", pv, "--ref-text", pl,
            "--target", pv, "--out", out1, "--transform-out", transform,
        ]) == 0
        assert run([
            "collapse", "--transform-in", transform, "--target", pv, "--out", out2,
        ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fit_without_refs_exits_two(self, bank_pair, tmp_path):
        pv, _ = bank_pair
        code = run(["collapse", "--kind", "centralize", "--target", pv, "--out", tmp_path / "x.ebnk"])
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            '{"kind": "delete", "source_dim": 16, "deleted_dims": [1.7]}',
            '{"kind": "delete", "source_dim": "x", "deleted_dims": [1]}',
            '{"kind": "centralize", "source_dim": 1, "visual_mean": [NaN], "text_mean": [0.0]}',
        ],
    )
    def test_malformed_transform_exits_two(self, bank_pair, tmp_path, capsys, doc):
        pv, _ = bank_pair
        transform = tmp_path / "t.json"
        transform.write_text(doc, encoding="utf-8")
        code = run(["collapse", "--transform-in", transform, "--target", pv, "--out", tmp_path / "x.ebnk"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCorrupt:
    def test_alpha_one_outputs_normalized_rows(self, bank_pair, tmp_path):
        pv, _ = bank_pair
        out = tmp_path / "c.ebnk"
        assert run(["corrupt", "--bank", pv, "--kind", "cosine", "--alpha", 1.0, "--out", out]) == 0
        original = load_bank(pv)
        corrupted = load_bank(out)
        expected = original.values / np.linalg.norm(original.values, axis=1, keepdims=True)
        np.testing.assert_allclose(corrupted.values, expected, atol=1e-6)

    def test_same_seed_byte_identical(self, bank_pair, tmp_path):
        pv, _ = bank_pair
        o1, o2 = tmp_path / "c1.ebnk", tmp_path / "c2.ebnk"
        for out in (o1, o2):
            assert run(["corrupt", "--bank", pv, "--alpha", 0.2, "--seed", 5, "--out", out]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    @pytest.mark.parametrize("std", ["nan", "inf", "-1"])
    def test_bad_std_exits_two(self, bank_pair, tmp_path, capsys, std):
        pv, _ = bank_pair
        out = tmp_path / "c.ebnk"
        code = run(["corrupt", "--bank", pv, "--kind", "gaussian", "--std", std, "--out", out])
        assert code == 2
        assert "std must be" in capsys.readouterr().err

    def test_verify_confirms_cosine_bounds(self, bank_pair, tmp_path):
        pv, _ = bank_pair
        out = tmp_path / "c.ebnk"
        assert run(["corrupt", "--bank", pv, "--alpha", 0.2, "--seed", 1, "--out", out]) == 0
        # float32 storage perturbs cosines by ~1e-7, so verify with a
        # matching tolerance
        assert run([
            "verify", "--bank", out, "--against", pv, "--alpha", 0.2, "--tolerance", 1e-5,
        ]) == 0

    def test_verify_flags_uncorrupted_bank(self, bank_pair, tmp_path, capsys):
        pv, pl = bank_pair
        code = run(["verify", "--bank", pl, "--against", pv, "--alpha", 0.2, "--tolerance", 1e-5])
        assert code == 2
        assert "row" in capsys.readouterr().err


class TestVerify:
    def test_valid_bank_alone(self, bank_pair):
        pv, _ = bank_pair
        assert run(["verify", "--bank", pv]) == 0

    def test_malformed_bank_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"ebank","version":1,"modality":"visual","dim":2}\nnot json\n')
        assert run(["verify", "--bank", bad]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_huge_integer_is_a_non_finite_value(self, tmp_path, capsys):
        # an integer beyond float range used to escape as OverflowError (exit 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"format":"ebank","version":1,"modality":"visual","dim":2}\n'
            '{"task_id":"a","v":[1,%s]}\n' % ("9" * 400)
        )
        assert run(["verify", "--bank", bad]) == 2
        assert "line 2: non-finite value" in capsys.readouterr().err


OVERLONG_INT = "9" * 5000  # past the 4,300-digit limit of int parsing
DEEP = "[" * 100_000  # past the recursion limit of the JSON decoder
JSONL_HEADER = '{"format":"ebank","version":1,"modality":"visual","dim":2}\n'


class TestMalformedJson:
    """An over-long integer or deep nesting in any JSON input exits 2 naming
    invalid JSON; neither escapes as a ValueError or RecursionError."""

    def assert_invalid_json(self, capsys, argv):
        assert run(argv) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc", ['{"schema_version": 1, "grid_size": %s}' % OVERLONG_INT, DEEP], ids=["overlong-int", "deep"]
    )
    def test_bench_config(self, tmp_path, capsys, doc):
        config = tmp_path / "cfg.json"
        config.write_text(doc)
        self.assert_invalid_json(capsys, ["bench", "--config", config, "--out-dir", tmp_path / "run"])

    @pytest.mark.parametrize(
        "doc", ['{"kind": "delete", "source_dim": %s}' % OVERLONG_INT, DEEP], ids=["overlong-int", "deep"]
    )
    def test_transform_in(self, bank_pair, tmp_path, capsys, doc):
        pv, _ = bank_pair
        transform = tmp_path / "t.json"
        transform.write_text(doc)
        self.assert_invalid_json(
            capsys, ["collapse", "--transform-in", transform, "--target", pv, "--out", tmp_path / "x.ebnk"]
        )

    @pytest.mark.parametrize(
        "text",
        [
            '{"format":"ebank","version":1,"modality":"visual","dim":%s}\n' % OVERLONG_INT,
            DEEP + "\n",
            JSONL_HEADER + '{"task_id":"a","v":[1,%s]}\n' % OVERLONG_INT,
            JSONL_HEADER + '{"task_id":"a","v":%s}\n' % DEEP,
        ],
        ids=["header-overlong-int", "header-deep", "row-overlong-int", "row-deep"],
    )
    def test_verify_bank(self, tmp_path, capsys, text):
        bank = tmp_path / "bad.jsonl"
        bank.write_text(text)
        self.assert_invalid_json(capsys, ["verify", "--bank", bank])


def read_eprm_metadata(path):
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 5)
    return json.loads(raw[9 : 9 + length])


class TestTrainEncoder:
    def config(self, tmp_path, **fields):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "grid_size": 3, **fields}))
        return config

    def test_zero_steps_writes_init(self, tmp_path):
        config = self.config(tmp_path, demos_per_task=2, encoder_steps=0)
        assert run([
            "train-encoder", "--config", config,
            "--out", tmp_path / "enc.eprm", "--loss-csv", tmp_path / "loss.csv",
        ]) == 0
        from modalign import load_encoder_params

        params = load_encoder_params(tmp_path / "enc.eprm")
        assert params.dim == 16
        assert (tmp_path / "loss.csv").read_text().splitlines() == ["step,loss"]

    def test_short_run_loss_below_ln_b(self, tmp_path):
        config = self.config(
            tmp_path, demos_per_task=6, dim=8, encoder_steps=400, encoder_batch_size=16
        )
        assert run([
            "train-encoder", "--config", config,
            "--out", tmp_path / "enc.eprm", "--loss-csv", tmp_path / "loss.csv",
        ]) == 0
        lines = (tmp_path / "loss.csv").read_text().splitlines()
        final = float(lines[-1].split(",")[1])
        assert final < np.log(16)

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "wat": 1}))
        assert run(["train-encoder", "--config", config]) == 2
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["steps", "seed", "data_seed", "out_params", "out_loss_csv"])
    def test_old_config_keys_exit_two(self, tmp_path, capsys, key):
        config = self.config(tmp_path, **{key: 1})
        assert run(["train-encoder", "--config", config]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"encoder_steps": 2.5}, {"seeds": [2.7]}, {"grid_size": True}])
    def test_non_integral_config_value_exits_two(self, tmp_path, capsys, fields):
        config = self.config(tmp_path, **fields)
        assert run(["train-encoder", "--config", config]) == 2
        assert next(iter(fields)) in capsys.readouterr().err

    def test_identical_runs_byte_identical(self, tmp_path):
        config = self.config(tmp_path, demos_per_task=3, dim=8, encoder_steps=60)
        outputs = []
        for tag in ("a", "b"):
            params = tmp_path / f"{tag}.eprm"
            loss = tmp_path / f"{tag}.csv"
            assert run([
                "train-encoder", "--config", config, "--out", params, "--loss-csv", loss,
            ]) == 0
            outputs.append((params.read_bytes(), loss.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_saves_the_encoders_the_bench_trains(self, monkeypatch, tmp_path):
        import modalign.bench as bench_module
        from modalign import load_encoder_params

        fields = dict(
            grid_size=3, demos_per_task=3, dim=8, seeds=[0, 5], episodes_per_task=1, horizon=4,
            encoder_steps=80, policy_steps=10, eval_heldout_text=False,
        )
        real = bench_module.train_encoders
        trained = []

        def recording(clips, config):
            result = real(clips, config)
            trained.append(result.params)
            return result

        monkeypatch.setattr(bench_module, "train_encoders", recording)
        bench_module.run_transfer_experiment(bench_module.BenchConfig(**fields))
        monkeypatch.undo()
        config = self.config(tmp_path, **fields)
        assert run([
            "train-encoder", "--config", config, "--seed", 5,
            "--out", tmp_path / "enc.eprm", "--loss-csv", tmp_path / "loss.csv",
        ]) == 0
        saved = load_encoder_params(tmp_path / "enc.eprm")
        for got, want in zip(saved.arrays(), trained[1].arrays(), strict=True):
            np.testing.assert_array_equal(got, want.astype(np.float32).astype(np.float64))
        assert len((tmp_path / "loss.csv").read_text().splitlines()) == 1 + 80

    def test_default_config_is_the_bench_default(self, monkeypatch, tmp_path):
        import modalign.bench as bench_module

        real = bench_module.train_encoders
        monkeypatch.setattr(  # the metadata, not the 4,000 steps, is under test
            bench_module, "train_encoders", lambda clips, config: real(clips, replace(config, steps=0))
        )
        out = tmp_path / "enc.eprm"
        assert run(["train-encoder", "--out", out, "--loss-csv", tmp_path / "loss.csv"]) == 0
        echo = read_eprm_metadata(out)["config"]
        assert (echo["learning_rate"], echo["temperature"], echo["steps"]) == (0.1, 0.5, 4000)
        assert echo["seed"] == subseed(0, 1)

    def test_flags_override_encoder_fields(self, tmp_path):
        config = self.config(tmp_path, demos_per_task=2, dim=8, encoder_steps=50)
        out = tmp_path / "enc.eprm"
        assert run([
            "train-encoder", "--config", config, "--steps", 7, "--freeze-text-after", 3,
            "--out", out, "--loss-csv", tmp_path / "loss.csv",
        ]) == 0
        echo = read_eprm_metadata(out)["config"]
        assert (echo["steps"], echo["freeze_text_after"]) == (7, 3)
        assert len((tmp_path / "loss.csv").read_text().splitlines()) == 1 + 7

    def test_divergence_maps_to_exit_three(self, monkeypatch, tmp_path, capsys):
        import modalign.bench as bench_module
        from modalign import DivergenceError

        def exploding(clips, config):
            raise DivergenceError("non-finite loss at step 3")

        monkeypatch.setattr(bench_module, "train_encoders", exploding)
        config = self.config(tmp_path, demos_per_task=2)
        assert run(["train-encoder", "--config", config]) == 3
        err = capsys.readouterr().err
        assert "step 3" in err and "train_encoders" in err


class TestBench:
    def bench_config(self, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "schema_version": 1, "grid_size": 3, "demos_per_task": 4, "dim": 8,
            "seeds": [0], "episodes_per_task": 2, "horizon": 4,
            "encoder_steps": 120, "policy_steps": 120,
        }))
        return config

    def test_writes_reports(self, tmp_path):
        config = self.bench_config(tmp_path)
        out = tmp_path / "run"
        assert run(["bench", "--config", config, "--out-dir", out]) == 0
        csv_text = (out / "transfer_report.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == (
            "collapse,corrupt_kind,alpha_or_std,train_modality,eval_modality,success_mean,success_std,"
            "chance_floor,seed,delete_k,injected_gap_norm"
        )
        doc = json.loads((out / "transfer_report.json").read_text())
        assert doc["config"]["grid_size"] == 3

    def test_identical_runs_byte_identical(self, tmp_path):
        config = self.bench_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["bench", "--config", config, "--out-dir", out1]) == 0
        assert run(["bench", "--config", config, "--out-dir", out2]) == 0
        assert (out1 / "transfer_report.csv").read_bytes() == (out2 / "transfer_report.csv").read_bytes()
        assert (out1 / "transfer_report.json").read_bytes() == (out2 / "transfer_report.json").read_bytes()

    def test_ablate_flag_adds_rows(self, tmp_path):
        config = self.bench_config(tmp_path)
        out = tmp_path / "run"
        assert run([
            "bench", "--config", config, "--out-dir", out, "--ablate", "collapse=none",
        ]) == 0
        csv_lines = (out / "transfer_report.csv").read_text().splitlines()
        collapses = {line.split(",")[0] for line in csv_lines[1:]}
        assert collapses == {"centralize", "none"}

    def test_seeds_override(self, tmp_path):
        config = self.bench_config(tmp_path)
        out = tmp_path / "run"
        assert run(["bench", "--config", config, "--out-dir", out, "--seeds", "3,4"]) == 0
        doc = json.loads((out / "transfer_report.json").read_text())
        assert doc["config"]["seeds"] == [3, 4]
        assert {r["seed"] for r in doc["rows"]} == {3, 4}

    def test_ablate_alpha(self, tmp_path):
        config = self.bench_config(tmp_path)
        out = tmp_path / "run"
        assert run(["bench", "--config", config, "--out-dir", out, "--ablate", "alpha=0.5"]) == 0
        doc = json.loads((out / "transfer_report.json").read_text())
        assert sorted(a["alpha_or_std"] for a in doc["aggregates"]) == [0.2] * 3 + [0.5] * 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["--ablate", "alpha=2"],
            ["--ablate", "corrupt=gaussian:-1"],
            ["--seeds", "a,b"],
            ["--seeds", "2.7"],
        ],
    )
    def test_bad_config_exits_two_before_training(self, monkeypatch, tmp_path, capsys, argv):
        import modalign.bench as bench_module

        calls = []

        def must_not_train(clips, config):
            calls.append(config)
            raise AssertionError("encoders trained before the config was validated")

        monkeypatch.setattr(bench_module, "train_encoders", must_not_train)
        config = self.bench_config(tmp_path)
        assert run(["bench", "--config", config, "--out-dir", tmp_path / "x", *argv]) == 2
        assert calls == []
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("episodes_per_task", 0),
            ("dim", 0),
            ("eval_modalities", []),
            # ranges the encoder and policy stage configs check
            ("policy_learning_rate", -0.1),
            ("policy_momentum", 1.0),
            ("encoder_learning_rate", 0),
            ("encoder_temperature", 0),
            ("encoder_momentum", 1.0),
            ("encoder_batch_size", 1),
        ],
    )
    def test_out_of_range_config_names_field_before_training(
        self, monkeypatch, tmp_path, capsys, field, value
    ):
        import modalign.bench as bench_module

        calls = []
        monkeypatch.setattr(bench_module, "train_encoders", lambda clips, config: calls.append(config))
        config = self.bench_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), field: value}))
        assert run(["bench", "--config", config, "--out-dir", tmp_path / "x"]) == 2
        assert calls == []
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_divergence_maps_to_exit_three(self, monkeypatch, tmp_path, capsys):
        import modalign.bench as bench_module
        from modalign import DivergenceError

        def exploding(clips, config):
            raise DivergenceError("non-finite loss at step 3")

        monkeypatch.setattr(bench_module, "train_encoders", exploding)
        config = self.bench_config(tmp_path)
        assert run(["bench", "--config", config, "--out-dir", tmp_path / "x"]) == 3
        assert "stage 'train_encoders': non-finite loss at step 3" in capsys.readouterr().err

    def test_bad_seeds_in_config_exits_two(self, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"schema_version": 1, "seeds": "ab"}))
        assert run(["bench", "--config", config, "--out-dir", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("spec", ["delete_k=abc", "delete_k=1.5", "gap=x", "alpha=x", "alpha=nan"])
    def test_bad_ablate_number_exits_two(self, tmp_path, capsys, spec):
        config = self.bench_config(tmp_path)
        assert run(["bench", "--config", config, "--out-dir", tmp_path / "x", "--ablate", spec]) == 2
        key, value = spec.split("=")
        assert f"--ablate {key} expects a finite number, got {value!r}" in capsys.readouterr().err

    def test_bad_ablate_spec_exits_two(self, tmp_path):
        config = self.bench_config(tmp_path)
        assert run([
            "bench", "--config", config, "--out-dir", tmp_path / "x", "--ablate", "corrupt=what",
        ]) == 2
