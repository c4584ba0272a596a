"""Byte pins of the documents the toolkit writes: the transfer report
(JSON and CSV), the gap report and both kinds of transform file. Each
digest was recorded when the documents' keys were still listed by hand;
deriving them from their dataclasses' fields must keep every byte."""

import hashlib

import pytest

from modalign import fit_centralize, fit_delete, gap_report, save_transform, synthetic_gap_bank
from modalign.bench import BenchConfig, run_transfer_experiment
from modalign.diagnostics import export_gap_report

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
