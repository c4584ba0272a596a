"""Seeded byte-level fuzzing of every file format the package reads, and
character-level fuzzing of the bench's number-bearing flags.

Each case mutates or truncates a valid file or flag value. The contract: the
loader returns a valid object or raises ModalignError, whose message starts
with the file's path for a bank, `.eprm` or transform file, and the CLI (the
command that reads the file, and `verify` for every file format) exits 0
or 2, never 1 with a traceback.
"""

import json
import math
import random
import string

import numpy as np
import pytest

import modalign.cli as cli_module
from modalign import (
    BenchConfig,
    CollapseTransform,
    EmbeddingBank,
    EncoderParams,
    Modality,
    ModalignError,
    TrainerConfig,
    fit_centralize,
    fit_delete,
    load_bank,
    load_encoder_params,
    load_transform,
    save_bank,
    save_encoder_params,
    save_transform,
)
from modalign.banks import BANK_FORMATS
from modalign.bench import TransferReport
from modalign.cli import main
from modalign.fileio import read_bytes, read_json
from modalign.trainer import init_encoder_params

CASES = 2000
CLI_EVERY = 25  # every 25th case also runs through the CLI
JSON_BYTES = b'0123456789-+.eE[]{},:" tfnul\\'


def mutants(data: bytes, seed: int):
    """CASES copies of data, each truncated or with 1-4 bytes overwritten or
    inserted; half the new bytes come from JSON's alphabet."""
    rng = random.Random(seed)
    for _ in range(CASES):
        buf = bytearray(data)
        op = rng.randrange(3)
        if op == 0:
            del buf[rng.randrange(len(buf)) :]
        for _ in range(rng.randint(1, 4) if op else 0):
            byte = rng.choice(JSON_BYTES) if rng.random() < 0.5 else rng.randrange(256)
            pos = rng.randrange(len(buf))
            if op == 1:
                buf[pos] = byte
            else:
                buf.insert(pos, byte)
        yield bytes(buf)


def fuzz(tmp_path, data, seed, load, check, *argvs, names_file=True):
    path = tmp_path / "case"
    loaded = 0
    for i, case in enumerate(mutants(data, seed)):
        path.write_bytes(case)
        try:
            obj = load(path)
        except ModalignError as exc:
            assert not names_file or str(exc).startswith(str(path)), exc
        else:
            check(obj)
            loaded += 1
        for argv in argvs if i % CLI_EVERY == 0 else ():
            assert main([str(a) for a in argv(path)]) in (0, 2)
    assert 0 < loaded < CASES  # the mutations reach both outcomes


def check_bank(bank):
    assert isinstance(bank, EmbeddingBank)
    assert bank.values.shape == (bank.n, bank.dim) and np.isfinite(bank.values).all()


def small_bank(modality=Modality.VISUAL):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((3, 2)).astype(np.float32)
    return EmbeddingBank(modality, ("a", "b", "a"), values)


# explicit ids keep these cases' names in test reports stable
@pytest.mark.parametrize("fmt", BANK_FORMATS, ids=["BankFormat.JSON_LINES", "BankFormat.BINARY"])
def test_bank_formats(tmp_path, fmt):
    source = tmp_path / "bank"
    save_bank(small_bank(), source, fmt)
    fuzz(
        tmp_path, source.read_bytes(), 11, load_bank, check_bank,
        lambda p: ["verify", "--bank", p],
    )


def test_encoder_params(tmp_path):
    config = TrainerConfig(obs_dim=2, vocab_size=3, dim=2, visual_hidden=(), text_hidden=(), token_dim=2)
    source = tmp_path / "enc.eprm"
    save_encoder_params(init_encoder_params(config, np.random.default_rng(6)), source)

    def check(params):
        assert isinstance(params, EncoderParams) and math.isfinite(params.temperature)
        assert np.isfinite(params.flat).all()

    fuzz(tmp_path, source.read_bytes(), 12, load_encoder_params, check, lambda p: ["verify", "--bank", p])


@pytest.mark.parametrize("kind", ["centralize", "delete"])
def test_transform(tmp_path, kind):
    ref_v, ref_l = small_bank(), small_bank(Modality.TEXT)
    fit = fit_centralize(ref_v, ref_l, "refs") if kind == "centralize" else fit_delete(ref_v, ref_l, 1, "refs")
    source, target = tmp_path / "t.json", tmp_path / "target.ebnk"
    save_transform(fit, source)
    save_bank(ref_v, target, "binary")

    def check(transform):
        assert isinstance(transform, CollapseTransform) and transform.output_dim >= 1

    fuzz(
        tmp_path, source.read_bytes(), 13, load_transform, check,
        lambda p: ["collapse", "--transform-in", p, "--target", target, "--out", tmp_path / "out.ebnk"],
        lambda p: ["verify", "--bank", p],
    )


def test_bench_config(tmp_path, monkeypatch):
    doc = {
        "schema_version": 1, "grid_size": 3, "seeds": [0, 1], "encoder_visual_hidden": [8],
        "alpha": 0.3, "eval_modalities": ["visual", "text"], "encoder_freeze_text_after": None,
        "ablations": [{"collapse": "delete", "delete_k": 2}, {"corrupt_kind": "gaussian", "std": 0.5}],
    }

    def load(path):
        return BenchConfig.from_dict(read_json(read_bytes(path), str(path)))

    def check(config):
        assert isinstance(config, BenchConfig) and config.variants()

    # an accepted config writes an empty report; the bench is not under test
    monkeypatch.setattr(cli_module, "run_transfer_experiment", lambda c: TransferReport(c.to_dict(), 0.0))
    fuzz(
        tmp_path, json.dumps(doc).encode("utf-8"), 14, load, check,
        lambda p: ["bench", "--config", p, "--out-dir", tmp_path / "run"],
        names_file=False,  # a config's value faults name the field, not the file
    )


FLAG_CASES = 400
FLAG_CHARS = "=,:.-+e0123456789" + string.ascii_letters
ABLATE_SPECS = (
    "collapse=delete,delete_k=3", "collapse=none,gap=2.0", "alpha=0.5",
    "corrupt=cosine:0.5", "corrupt=gaussian:0.1", "corrupt=none",
)


def flag_mutant(text: str, rng: random.Random) -> str:
    """text with 1-3 characters inserted, deleted or replaced; a fifth of the
    new pieces are digit runs longer than any finite float's integer part."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op, pos = rng.randrange(3), rng.randrange(len(chars) + 1)
        piece = "9" * rng.choice((309, 400)) if rng.random() < 0.2 else rng.choice(FLAG_CHARS)
        if op == 0:
            chars.insert(pos, piece)
        elif pos < len(chars):
            chars[pos : pos + 1] = [] if op == 1 else [piece]
    return "".join(chars)


def test_bench_number_flags(tmp_path, monkeypatch):
    # an accepted flag writes an empty report; the bench is not under test
    monkeypatch.setattr(cli_module, "run_transfer_experiment", lambda c: TransferReport(c.to_dict(), 0.0))
    rng = random.Random(15)
    codes = []
    for i in range(FLAG_CASES):
        flag, value = ("--seeds", "0,1,2") if i % 2 else ("--ablate", rng.choice(ABLATE_SPECS))
        codes.append(main(["bench", "--out-dir", str(tmp_path / "run"), f"{flag}={flag_mutant(value, rng)}"]))
    assert set(codes) == {0, 2}  # the mutations reach both outcomes, and nothing else
