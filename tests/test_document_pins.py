"""Byte pins of the documents the toolkit writes: the transfer report
(JSON and CSV), the gap report, both kinds of transform file, both bank
formats and the encoder parameter file. Each digest was recorded when the
documents' keys were still listed by hand; deriving them from their
dataclasses' fields must keep every byte."""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from modalign import (
    TrainerConfig,
    fit_centralize,
    fit_delete,
    gap_report,
    save_bank,
    save_encoder_params,
    save_transform,
    synthetic_gap_bank,
)
from modalign.bench import BenchConfig, run_transfer_experiment
from modalign.diagnostics import export_gap_report
from modalign.trainer import init_encoder_params

SCHEMA_ABLATIONS = (
    {"collapse": "none"}, {"delete_k": 2}, {"alpha": 0.5}, {"injected_gap_norm": 1.0},
    {"corrupt_kind": "gaussian"}, {"corrupt_kind": "gaussian", "std": 0.3}, {"corrupt_kind": "none"},
)
TINY = dict(
    grid_size=3, demos_per_task=4, dim=8, seeds=(0,), episodes_per_task=2, horizon=4,
    encoder_steps=60, policy_steps=60,
)


def digest(path) -> str:
    return hashlib.md5(path.read_bytes()).hexdigest()


def report_digests(config: BenchConfig, tmp_path) -> tuple[str, str]:
    report = run_transfer_experiment(config)
    report.write_json(tmp_path / "transfer_report.json")
    report.write_csv(tmp_path / "transfer_report.csv")
    return digest(tmp_path / "transfer_report.json"), digest(tmp_path / "transfer_report.csv")


class TestTransferReport:
    def test_visual_train(self, tmp_path):
        assert report_digests(BenchConfig(**TINY), tmp_path) == (
            "47527787f003e9428ce803c67d2e2694",
            "673ddceb002b0492cd29666c8d2175e9",
        )

    def test_text_train_with_ablations_and_integer_valued_floats(self, tmp_path):
        # alpha and injected_gap_norm given as ints stay ints in JSON and write as floats in CSV
        config = BenchConfig(
            **TINY, train_modality="text", collapse="delete", alpha=0, injected_gap_norm=1,
            ablations=SCHEMA_ABLATIONS,
        )
        assert report_digests(config, tmp_path) == (
            "bec2f3d7d3d48678f474dedbe25b081b",
            "cc2268e352e0c96870c300831201d632",
        )


@pytest.fixture
def bank_pair():
    return synthetic_gap_bank(5, 6, gap_norm=1.5, intra_noise_std=0.2, seed=41, rows_per_task=3)


def test_gap_report(bank_pair, tmp_path):
    export_gap_report(gap_report(*bank_pair), tmp_path / "gap_report.json")
    assert digest(tmp_path / "gap_report.json") == "069d1f96e32cc3d2adafc82dff135db1"


@pytest.mark.parametrize(
    "fit, expected",
    [
        (lambda v, l: fit_centralize(v, l, fit_reference="pinned banks"), "c0ee239792de599da9863b5b33624117"),
        (lambda v, l: fit_delete(v, l, k=2, fit_reference="pinned banks"), "005109a61eddfef0a6c2ca3f6b8f094f"),
    ],
    ids=["centralize", "delete"],
)
def test_transform(bank_pair, tmp_path, fit, expected):
    save_transform(fit(*bank_pair), tmp_path / "transform.json")
    assert digest(tmp_path / "transform.json") == expected


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("jsonl", ("e85fc2763e13ad2080181a53989aa562", "a4521ea175248c798b47add43d1631c1")),
        ("binary", ("fbf57e04d6bc7d7f854a64c4f9e9e9ac", "54cd8c3021c921505660f65ad32b80a9")),
    ],
    ids=["jsonl", "binary"],
)
def test_bank(bank_pair, tmp_path, fmt, expected):
    bank_v, bank_l = bank_pair
    save_bank(bank_v, tmp_path / "v", fmt)
    save_bank(bank_l, tmp_path / "l", fmt)
    assert (digest(tmp_path / "v"), digest(tmp_path / "l")) == expected


ENCODER = TrainerConfig(obs_dim=6, vocab_size=7, dim=4, visual_hidden=(5,), text_hidden=(3, 5), token_dim=4)


@pytest.mark.parametrize(
    "echo, expected",
    [(None, "b03be6d01cac9011e4f17466942cb7ad"), (asdict(ENCODER), "ce4b954036008482073c9bf9cb8f0552")],
    ids=["bare", "config-echo"],
)
def test_encoder_params(tmp_path, echo, expected):
    save_encoder_params(init_encoder_params(ENCODER, np.random.default_rng(43)), tmp_path / "enc.eprm", echo)
    assert digest(tmp_path / "enc.eprm") == expected
