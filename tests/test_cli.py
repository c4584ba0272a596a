import json
import shlex
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modalign import EmbeddingBank, Modality, load_bank, save_bank
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
    save_bank(bank_v, pv, "binary")
    save_bank(bank_l, pl, "binary")
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
        save_bank(bank, p, "binary")
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

    @pytest.mark.parametrize("refs, flag", [("lv", "--ref-visual"), ("vv", "--ref-text"), ("ll", "--ref-visual")])
    def test_centralize_refs_must_match_their_flags(self, bank_pair, tmp_path, capsys, refs, flag):
        # a text bank given as --ref-visual used to be taken as the visual mean
        paths = dict(zip("vl", bank_pair))
        out = tmp_path / "collapsed.ebnk"
        code = run([
            "collapse", "--kind", "centralize", "--ref-visual", paths[refs[0]],
            "--ref-text", paths[refs[1]], "--target", paths["v"], "--out", out,
        ])
        assert code == 2
        assert f"error: {flag} needs a" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_without_refs_exits_two(self, bank_pair, tmp_path):
        pv, _ = bank_pair
        code = run(["collapse", "--kind", "centralize", "--target", pv, "--out", tmp_path / "x.ebnk"])
        assert code == 2

    @pytest.mark.parametrize("doc, message", [
        (
            {"kind": "centralize", "source_dim": 2, "visual_mean": [0, 1], "text_mean": [1, 0], "deleted_dims": [0]},
            "a centralize transform does not use deleted_dims",
        ),
        ({"kind": "delete", "source_dim": 2}, "a delete transform needs deleted_dims"),
    ], ids=["other-kind", "missing"])
    def test_transform_fields_must_be_those_of_its_kind(self, tmp_path, capsys, doc, message):
        target = tmp_path / "v.jsonl"
        save_bank(EmbeddingBank(Modality.VISUAL, ("a",), [[1.0, 2.0]]), target, "jsonl")
        transform = tmp_path / "t.json"
        transform.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["collapse", "--transform-in", transform, "--target", target, "--out", tmp_path / "x.ebnk"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {transform}: {message}\n"
        assert not (tmp_path / "x.ebnk").exists()

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

    @pytest.mark.parametrize("kind, flag, value", [("gaussian", "--alpha", "5"), ("cosine", "--std", "-1")])
    def test_unused_strength_is_still_checked(self, bank_pair, tmp_path, capsys, kind, flag, value):
        pv, _ = bank_pair
        out = tmp_path / "c.ebnk"
        assert run(["corrupt", "--bank", pv, "--kind", kind, flag, value, "--out", out]) == 2
        assert f"{flag[2:]} must be" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tolerance", "nan"), ("--tolerance", "inf"), ("--tolerance", "-1e-9"),
            ("--alpha", "-inf"), ("--alpha", "-1"), ("--alpha", "1.5"), ("--alpha", "nan"),
        ],
    )
    def test_bad_bound_exits_two_before_loading(self, tmp_path, capsys, flag, value):
        absent = tmp_path / "absent.ebnk"
        assert run(["verify", "--bank", absent, "--against", absent, f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        rule = "a finite number >= 0" if flag == "--tolerance" else "in (-1, 1]"
        assert f"error: {flag} must be {rule}, got {float(value)}" in err
        assert "absent" not in err

    def test_unbounded_cone_no_longer_passes_a_non_unit_bank(self, bank_pair, capsys):
        # --alpha=-inf --tolerance=inf used to confirm every row of any bank
        pv, pl = bank_pair
        assert run(["verify", "--bank", pl, "--against", pv, "--alpha=-inf", "--tolerance=inf"]) == 2
        assert "all 5 rows" not in capsys.readouterr().out

    def test_edge_bounds_accepted(self, bank_pair):
        pv, _ = bank_pair
        assert run(["verify", "--bank", pv, "--alpha", 1, "--tolerance", 0]) == 0

    def test_encoder_params_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 1, "grid_size": 3, "dim": 4, "encoder_steps": 0}))
        params = tmp_path / "enc.eprm"
        assert run(["train-encoder", "--config", config, "--out", params, "--loss-csv", tmp_path / "loss.csv"]) == 0
        capsys.readouterr()
        assert run(["verify", "--bank", params]) == 0
        sizes = "visual sizes [9, 64, 4], text sizes [32, 64, 4], vocab 14"
        assert capsys.readouterr().out == f"{params}: valid encoder parameters, {sizes}\n"

    def test_transform_file(self, bank_pair, tmp_path, capsys):
        pv, pl = bank_pair
        transform = tmp_path / "t.json"
        argv = ["collapse", "--kind", "delete", "--k", 2, "--ref-visual", pv, "--ref-text", pl, "--target", pv,
                "--out", tmp_path / "o.ebnk", "--transform-out", transform]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(["verify", "--bank", transform]) == 0
        assert capsys.readouterr().out == f"{transform}: valid delete transform, dim 6 -> 4\n"

    @pytest.mark.parametrize(
        "line, summary",
        [
            (
                '{"kind":"centralize","source_dim":1,"text_mean":[1],"visual_mean":[0]}',
                "valid centralize transform, dim 1 -> 1",
            ),
            ('{"dim":3,"format":"ebank","modality":"text","version":1}', "valid text bank, 0 rows, dim 3"),
        ],
        ids=["with-kind", "header-only-bank"],
    )
    def test_one_json_object_is_a_transform_when_it_has_a_kind(self, tmp_path, capsys, line, summary):
        path = tmp_path / "doc"
        path.write_text(line + "\n")
        assert run(["verify", "--bank", path]) == 0
        assert capsys.readouterr().out == f"{path}: {summary}\n"

    @pytest.mark.parametrize(
        "content, message",
        [(b"EPRM\x01", "truncated header"), (b'{"kind": "delete"}', "missing keys ['source_dim']")],
        ids=["eprm", "transform"],
    )
    def test_malformed_file_of_another_format_exits_two(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad"
        path.write_bytes(content)
        assert run(["verify", "--bank", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_against_needs_a_bank(self, bank_pair, tmp_path, capsys):
        pv, pl = bank_pair
        transform = tmp_path / "t.json"
        fit = ["collapse", "--ref-visual", pv, "--ref-text", pl, "--target", pv, "--out", tmp_path / "o.ebnk",
               "--transform-out", transform]
        assert run(fit) == 0
        capsys.readouterr()
        assert run(["verify", "--bank", transform, "--against", pv]) == 2
        assert capsys.readouterr() == (
            "", f"error: --against checks a bank against its original; {transform} is not a bank\n"
        )


def verify_reference(bank, original, alpha, tolerance):
    """Exit code and stderr of verify --against, checked row by row: the
    norm of the row, then its cosine to the original row."""
    for i in range(bank.n):
        norm = float(np.linalg.norm(bank.values[i]))
        if abs(norm - 1.0) > tolerance:
            return 2, f"row {i}: norm {norm!r} is not unit within {tolerance}\n"
        ref_norm = float(np.linalg.norm(original.values[i]))
        if norm == 0.0 or ref_norm == 0.0:
            return 2, f"error: row {i}: cosine similarity of a zero vector is undefined\n"
        s = float(np.dot(bank.values[i], original.values[i]) / (norm * ref_norm))
        if not (alpha - tolerance <= s <= 1.0 + tolerance):
            return 2, f"row {i}: cosine {s!r} outside [{alpha}, 1] within {tolerance}\n"
    return 0, ""


class TestVerifyAgainst:
    def check(self, tmp_path, capsys, values, against, alpha=0.2, tolerance=1e-6):
        pb, pa = tmp_path / "b.ebnk", tmp_path / "a.ebnk"
        for path, vals in ((pb, values), (pa, against)):
            vals = np.asarray(vals, dtype=np.float32).astype(np.float64)
            save_bank(EmbeddingBank(Modality.VISUAL, ("t",) * len(vals), vals), path, "binary")
        bank, original = load_bank(pb), load_bank(pa)
        code = run(["verify", "--bank", pb, "--against", pa, "--alpha", alpha, "--tolerance", tolerance])
        out, err = capsys.readouterr()
        want_code, want_err = verify_reference(bank, original, alpha, tolerance)
        want_out = f"{pb}: valid visual bank, {bank.n} rows, dim {bank.dim}\n"
        if want_code == 0:
            want_out += f"all {bank.n} rows: unit norm and cosine within [{alpha}, 1] (tolerance {tolerance})\n"
        assert (code, out, err) == (want_code, want_out, want_err)
        return err

    def test_first_failing_row_is_reported(self, tmp_path, capsys):
        values = np.tile([1.0, 0.0, 0.0], (6, 1))
        values[2] = [0.0, 1.0, 0.0]  # cosine 0 < alpha
        values[4] = [2.0, 0.0, 0.0]  # norm 2
        err = self.check(tmp_path, capsys, values, np.tile([1.0, 0.0, 0.0], (6, 1)))
        assert err == "row 2: cosine 0.0 outside [0.2, 1] within 1e-06\n"

    def test_norm_failure_precedes_cosine_failure_in_a_row(self, tmp_path, capsys):
        values = np.array([[1.0, 0.0], [0.0, 3.0]])
        err = self.check(tmp_path, capsys, values, [[1.0, 0.0], [1.0, 0.0]])
        assert err == "row 1: norm 3.0 is not unit within 1e-06\n"

    def test_zero_row_in_against(self, tmp_path, capsys):
        err = self.check(tmp_path, capsys, [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]])
        assert err == "error: row 1: cosine similarity of a zero vector is undefined\n"

    def test_infinite_tolerance_exits_two(self, bank_pair, capsys):
        pv, pl = bank_pair
        assert run(["verify", "--bank", pv, "--against", pl, "--tolerance=inf"]) == 2
        assert capsys.readouterr() == ("", "error: --tolerance must be a finite number >= 0, got inf\n")

    def test_passing_bank(self, tmp_path, capsys):
        values = [[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]]
        assert self.check(tmp_path, capsys, values, [[3.0, 4.0], [2.0, 0.5], [0.0, -7.0]]) == ""

    def test_matches_the_per_row_reference_on_random_banks(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n, dim = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            against = rng.standard_normal((n, dim)) * (rng.random((n, 1)) > 0.1)
            values = rng.standard_normal((n, dim))
            values /= np.linalg.norm(values, axis=1, keepdims=True) * rng.choice([1.0, 1.0, 0.999], (n, 1))
            values *= rng.random((n, 1)) > 0.05
            alpha = float(rng.choice([-0.5, 0.0, 0.2, 0.9, 1.0]))
            tolerance = float(rng.choice([0.0, 1e-9, 1e-6, 0.01, 0.5, 1.5]))
            self.check(tmp_path, capsys, values, against, alpha, tolerance)


BEYOND_FLOAT = "9" * 309  # an integer of more digits than any finite float has
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
        assert params.visual.sizes[-1] == params.text.sizes[-1] == 16
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

    def test_unsupported_schema_version_exits_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema_version": 2}))
        assert run(["train-encoder", "--config", config]) == 2
        assert capsys.readouterr().err == "error: schema_version must be one of 1, got 2\n"

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
        np.testing.assert_array_equal(saved.flat, trained[1].flat.astype(np.float32).astype(np.float64))
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


class TestOverflowingNorms:
    """Finite values whose norms overflow float64 exit 2 naming a row or a
    mean, not 0 with zero vectors or infinite statistics. A finite gap whose
    squared norm alone overflows is reported with its finite norm."""

    def huge_pair(self, tmp_path, scale):
        """A 32-row, dim-6 JSON-lines pair scaled by scale; every value stays finite."""
        paths = tmp_path / "v.jsonl", tmp_path / "l.jsonl"
        banks = synthetic_gap_bank(8, 6, gap_norm=2.0, intra_noise_std=0.1, seed=3, rows_per_task=4)
        for bank, path in zip(banks, paths):
            save_bank(bank.with_values(bank.values * scale), path, "jsonl")
        return paths

    def test_diagnose(self, tmp_path, capsys):
        pv, pl = self.huge_pair(tmp_path, 1e200)
        assert run(["diagnose", "--bank-v", pv, "--bank-l", pl, "--out", tmp_path / "d"]) == 2
        assert capsys.readouterr().err == "error: visual task mean 0 has no finite norm\n"
        assert not (tmp_path / "d" / "gap_report.json").exists()

    def test_diagnose_gap_whose_square_overflows(self, tmp_path):
        # rows near +1e154 e1 and -1e154 e1 with the same offsets: every row
        # norm is finite, the gap is 2e154 e1, and its squared norm overflows
        directions = ((1e153, 0), (-1e153, 0), (0, 1e153), (0, -1e153))
        offsets = np.array([[0, a, b, c] for a, b in directions for c in (1e152, -1e152)])
        ids = tuple(f"t{i // 2}" for i in range(8))
        pv, pl = tmp_path / "v.jsonl", tmp_path / "l.jsonl"
        for modality, first, path in ((Modality.VISUAL, 1e154, pv), (Modality.TEXT, -1e154, pl)):
            save_bank(EmbeddingBank(modality, ids, offsets + [first, 0, 0, 0]), path, "jsonl")
        assert run(["diagnose", "--bank-v", pv, "--bank-l", pl, "--out", tmp_path / "d"]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((tmp_path / "d" / "gap_report.json").read_text(), parse_constant=refuse)
        assert report["gap_norm"] == pytest.approx(2e154, rel=1e-12)

    def test_cosine_corrupt(self, tmp_path, capsys):
        pv, _ = self.huge_pair(tmp_path, 1e200)
        assert run(["corrupt", "--bank", pv, "--kind", "cosine", "--out", tmp_path / "c.ebnk"]) == 2
        assert capsys.readouterr().err == "error: cannot corrupt row 0: its squared norm overflows float64\n"
        assert not (tmp_path / "c.ebnk").exists()

    @staticmethod
    def overflowing_mean_pair(tmp_path):
        """Visual rows [1e308, 1.7e308, 0] for tasks a and b against text rows
        [0, 0, 1]: every value is finite, and the visual mean overflows in dims 0 and 1."""
        pv, pl = tmp_path / "v.jsonl", tmp_path / "l.jsonl"
        save_bank(EmbeddingBank(Modality.VISUAL, ("a", "b"), [[1e308, 1.7e308, 0.0]] * 2), pv, "jsonl")
        save_bank(EmbeddingBank(Modality.TEXT, ("a", "b"), [[0.0, 0.0, 1.0]] * 2), pl, "jsonl")
        return pv, pl

    def test_delete_fit_of_an_overflowing_mean(self, tmp_path, capsys):
        # the infinite gaps used to tie, and dim 0 was deleted with exit 0
        pv, pl = self.overflowing_mean_pair(tmp_path)
        argv = ["collapse", "--kind", "delete", "--ref-visual", pv, "--ref-text", pl, "--target", pl,
                "--out", tmp_path / "o.ebnk", "--transform-out", tmp_path / "t.json"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: visual mean overflows float64 at dim 0\n"
        assert not (tmp_path / "o.ebnk").exists() and not (tmp_path / "t.json").exists()

    def test_diagnose_of_an_overflowing_mean(self, tmp_path, capsys):
        pv, pl = self.overflowing_mean_pair(tmp_path)
        assert run(["diagnose", "--bank-v", pv, "--bank-l", pl, "--out", tmp_path / "d"]) == 2
        assert capsys.readouterr().err == "error: visual mean overflows float64 at dim 0\n"
        assert list((tmp_path / "d").iterdir()) == []

    @pytest.mark.parametrize("flag", ["--bank", "--against"])
    def test_verify_against_a_row_whose_square_overflows(self, tmp_path, capsys, flag):
        # the overflowed norms of the huge rows used to report cosine 0.0 where the true cosine is about 1
        unit, huge = tmp_path / "unit.jsonl", tmp_path / "huge.jsonl"
        save_bank(EmbeddingBank(Modality.VISUAL, ("a", "b"), np.eye(2)), unit, "jsonl")
        save_bank(EmbeddingBank(Modality.VISUAL, ("a", "b"), [[1.7e308, 1.0], [1.0, 1.7e308]]), huge,
                  "jsonl")
        bank, against = (huge, unit) if flag == "--bank" else (unit, huge)
        assert run(["verify", "--bank", bank, "--against", against]) == 2
        assert capsys.readouterr().err == f"error: {flag} row 0: its squared norm overflows float64\n"

    def test_gaussian_corrupt_whose_sum_overflows(self, tmp_path, capsys):
        path = tmp_path / "b.jsonl"
        save_bank(EmbeddingBank(Modality.VISUAL, ("a",), [[1.5e308, 0.0]]), path, "jsonl")
        argv = ["corrupt", "--bank", path, "--kind", "gaussian", "--std", 1e308, "--seed", 4, "--out", tmp_path / "c"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: bank entries must be finite\n"
        assert not (tmp_path / "c").exists()

    def test_centralize_fit(self, tmp_path, capsys):
        pv, pl = tmp_path / "v.jsonl", tmp_path / "l.jsonl"
        save_bank(EmbeddingBank(Modality.VISUAL, ("a", "b"), [[1e308, 1.0], [1e308, -1.0]]), pv, "jsonl")
        save_bank(EmbeddingBank(Modality.TEXT, ("a", "b"), [[0.0, 1.0], [1.0, 0.0]]), pl, "jsonl")
        argv = ["collapse", "--ref-visual", pv, "--ref-text", pl, "--target", pl, "--out", tmp_path / "o.ebnk",
                "--transform-out", tmp_path / "t.json"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: visual mean overflows float64 at dim 0\n"
        assert not (tmp_path / "o.ebnk").exists() and not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("spec, message", [
        ("corrupt=gaussian:1e200", "stage 'training_goals': ParameterError: goal 0 has no finite norm"),
        # an infinite mean used to fail outside every stage, naming no seed or variant
        ("gap=1e308", "stage 'fit_collapse': ParameterError: visual mean overflows float64 at dim 0"),
    ])
    def test_bench_names_stage_seed_and_variant(self, tmp_path, capsys, spec, message):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "schema_version": 1, "grid_size": 3, "horizon": 4, "demos_per_task": 4, "seeds": [0],
            "encoder_steps": 30, "policy_steps": 30, "episodes_per_task": 2,
        }))
        assert run(["bench", "--config", config, "--out-dir", tmp_path / "x", "--ablate", spec]) == 2
        assert capsys.readouterr().err == f"error: {message} (seed 0, variant 1)\n"
        assert not (tmp_path / "x" / "transfer_report.json").exists()


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
            ["--ablate", "collapse=delete,delete_k=7"],  # leaves one of 8 dimensions for cosine noise
            ["--seeds", "a,b"],
            ["--seeds", "2.7"],
            ["--seeds", "0,0"],
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

    def test_stage_failure_exits_two_naming_seed_and_variant(self, monkeypatch, tmp_path, capsys):
        import modalign.bench as bench_module

        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(bench_module, "fit_delete", broken)
        config = self.bench_config(tmp_path)
        argv = ["bench", "--config", config, "--out-dir", tmp_path / "x", "--seeds", "4", "--ablate", "collapse=delete"]
        assert run(argv) == 2
        assert "stage 'fit_collapse': ValueError: boom (seed 4, variant 1)" in capsys.readouterr().err

    def test_bad_seeds_in_config_exits_two(self, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"schema_version": 1, "seeds": "ab"}))
        assert run(["bench", "--config", config, "--out-dir", tmp_path / "x"]) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "delete_k=abc", "delete_k=1.5", "gap=x", "alpha=x", "alpha=nan",
            pytest.param(f"delete_k={BEYOND_FLOAT}", id="delete_k=beyond-float"),
        ],
    )
    def test_bad_ablate_number_exits_two(self, tmp_path, capsys, spec):
        config = self.bench_config(tmp_path)
        assert run(["bench", "--config", config, "--out-dir", tmp_path / "x", "--ablate", spec]) == 2
        key, value = spec.split("=")
        assert f"--ablate {key} expects a finite number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, None, True, "collapse=none", {"collapse": "none"}], ids=repr)
    def test_ablations_that_are_not_a_list_exit_two_with_or_without_ablate(self, tmp_path, capsys, value):
        config = self.bench_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), "ablations": value}))
        for extra in ([], ["--ablate", "collapse=delete"]):
            assert run(["bench", "--config", config, "--out-dir", tmp_path / "x", *extra]) == 2
            assert f"error: ablations must be a list, got {value!r}" in capsys.readouterr().err

    def test_seed_beyond_float_exits_two(self, tmp_path, capsys):
        # an integer beyond float range used to escape as OverflowError (exit 1)
        config = self.bench_config(tmp_path)
        argv = ["bench", "--config", config, "--out-dir", tmp_path / "x", "--seeds", f"0,{BEYOND_FLOAT}"]
        assert run(argv) == 2
        assert f"--seeds expects a finite number, got {BEYOND_FLOAT!r}" in capsys.readouterr().err

    def test_bad_ablate_spec_exits_two(self, tmp_path):
        config = self.bench_config(tmp_path)
        assert run([
            "bench", "--config", config, "--out-dir", tmp_path / "x", "--ablate", "corrupt=what",
        ]) == 2
