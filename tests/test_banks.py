import math
import struct
import warnings

import numpy as np
import pytest

from modalign import (
    DegenerateVectorError,
    DimensionError,
    EmbeddingBank,
    FormatError,
    IoError,
    Modality,
    ParameterError,
    load_bank,
    matched_pair_similarity_matrix,
    row_norms,
    save_bank,
    unit_rows,
)
from modalign.banks import BANK_FORMATS


def vec(*xs):
    return np.array(xs, dtype=np.float64)


def cosine_similarity(a, b):
    """Cosine of two vectors as matched_pair_similarity_matrix gives it for
    a visual and a text bank of one row each."""
    bank_v = EmbeddingBank(Modality.VISUAL, ("t",), np.array([a]))
    bank_l = EmbeddingBank(Modality.TEXT, ("t",), np.array([b]))
    return float(matched_pair_similarity_matrix(bank_v, bank_l)[0, 0])


def normalize(v):
    return unit_rows(np.array([v]))[0]


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity(vec(1, 0), vec(1, 0)) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(vec(1, 0), vec(0, 1)) == pytest.approx(0.0)

    def test_45_degrees(self):
        # oracle: (a.b)/(|a||b|) = 1/sqrt(2) by direct arithmetic
        assert cosine_similarity(vec(1, 0), vec(1, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_similarity(vec(1, 0), vec(1, 0, 0))

    def test_zero_vector(self):
        with pytest.raises(DegenerateVectorError):
            cosine_similarity(vec(0, 0), vec(1, 0))

    def test_exact_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.standard_normal(rng.integers(2, 20))
            b = rng.standard_normal(a.size)
            assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.standard_normal(8)
            c = float(rng.uniform(0.01, 100))
            assert cosine_similarity(a, c * a) == pytest.approx(1.0, abs=1e-9)


class TestNormalize:
    """unit_rows on one-row matrices."""

    def test_three_four_five(self):
        np.testing.assert_allclose(normalize(vec(3, 4)), vec(0.6, 0.8), atol=1e-12)

    def test_already_unit(self):
        np.testing.assert_allclose(normalize(vec(1, 0, 0)), vec(1, 0, 0), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            normalize(vec(0, 0))

    @pytest.mark.parametrize("row", [[1e200, -1e200], [1.0, np.nan]], ids=["overflow", "nan"])
    def test_non_finite_norm_rejected_naming_the_row(self, row):
        # an overflowed norm used to divide its row down to a zero vector
        with pytest.raises(ParameterError, match="^goal 1 has no finite norm$"):
            unit_rows(np.array([[3.0, 4.0], row]), "goal")

    def test_unit_norm_and_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.standard_normal(6) * rng.uniform(0.01, 1000)
            u = normalize(v)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-9
            assert cosine_similarity(v, u) == pytest.approx(1.0, abs=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u = normalize(rng.standard_normal(5))
            np.testing.assert_allclose(normalize(u), u, atol=1e-9)


class TestRowNorms:
    def test_bit_identical_to_per_row_norm(self):
        # corrupt_bank, verify --against and synthetic_gap_bank keep the
        # bits the per-row np.linalg.norm gave them
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3, 16, 17, 512, 513):
            m = rng.standard_normal((20, dim)) * rng.uniform(0.01, 100, (20, 1))
            assert np.array_equal(row_norms(m), [np.linalg.norm(row) for row in m])
            assert row_norms(m[0]) == np.linalg.norm(m[0])

    def test_empty(self):
        assert row_norms(np.zeros((0, 4))).shape == (0,)


class TestBankConstruction:
    def test_row_dim_checked(self):
        with pytest.raises(DimensionError, match=r"values shape \(3, 2\) is not 2 rows"):
            EmbeddingBank(Modality.VISUAL, ("a", "b"), np.ones((3, 2)))

    @pytest.mark.parametrize("shape", [(2,), (2, 0), (2, 2, 1)], ids=["1-d", "no-columns", "3-d"])
    def test_values_must_be_a_matrix_with_columns(self, shape):
        with pytest.raises(DimensionError, match="at least one column"):
            EmbeddingBank(Modality.VISUAL, ("a", "b"), np.ones(shape))

    def test_dim_is_the_width_of_values(self):
        bank = EmbeddingBank(Modality.VISUAL, ("a", "b"), np.ones((2, 3), dtype=np.float32))
        assert bank.dim == 3 and type(bank.dim) is int
        assert bank.with_values(np.ones((2, 5))).dim == 5

    def test_empty_task_id_rejected(self):
        with pytest.raises(ParameterError):
            EmbeddingBank(Modality.VISUAL, ("",), [[1.0, 2.0]])

    def test_duplicate_task_ids_allowed(self):
        bank = EmbeddingBank(Modality.TEXT, ("t", "t"), [[1.0, 0.0], [0.0, 1.0]])
        assert bank.n == 2

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            EmbeddingBank(Modality.VISUAL, ("a",), [[1.0, float("nan")]])



def random_bank(rng, n=None, dim=None, modality=Modality.VISUAL, float32=True):
    n = int(rng.integers(0, 7)) if n is None else n
    dim = int(rng.integers(2, 9)) if dim is None else dim
    values = rng.standard_normal((n, dim)) * 10
    if float32:
        values = values.astype(np.float32).astype(np.float64)
    ids = tuple(f"task-{rng.integers(0, 5)}" for _ in range(n))
    return EmbeddingBank(modality, ids, values)


class TestBankIo:
    def test_jsonl_parse(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text(
            '{"format":"ebank","version":1,"modality":"visual","dim":4}\n'
            '{"task_id":"a","v":[1,2,3,4]}\n'
            '{"task_id":"b","v":[5,6,7,8]}\n'
            '{"task_id":"a","v":[0,0,1,0]}\n'
        )
        bank = load_bank(path)
        assert bank.n == 3 and bank.dim == 4
        assert bank.task_ids == ("a", "b", "a")
        np.testing.assert_array_equal(bank.values[1], vec(5, 6, 7, 8))

    def test_jsonl_wrong_row_length(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text(
            '{"format":"ebank","version":1,"modality":"visual","dim":4}\n'
            '{"task_id":"a","v":[1,2,3,4]}\n'
            '{"task_id":"b","v":[5,6,7,8,9]}\n'
        )
        with pytest.raises(DimensionError, match="row 2"):
            load_bank(path)

    def test_jsonl_bad_header(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text('{"format":"other"}\n')
        with pytest.raises(FormatError, match="line 1"):
            load_bank(path)

    def test_jsonl_bad_json_row(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text(
            '{"format":"ebank","version":1,"modality":"text","dim":2}\n' "not json\n"
        )
        with pytest.raises(FormatError, match="line 2"):
            load_bank(path)

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_jsonl_version_must_be_a_json_integer(self, tmp_path, version):
        path = tmp_path / "bank.jsonl"
        path.write_text('{"format":"ebank","version":%s,"modality":"text","dim":1}\n' % version)
        with pytest.raises(FormatError, match="line 1: version must be integral"):
            load_bank(path)

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(IoError, match="nope.jsonl"):
            load_bank(missing)

    def test_jsonl_roundtrip_exact(self, tmp_path):
        # json uses repr floats, so float64 survives the text round-trip
        rng = np.random.default_rng(0)
        bank = random_bank(rng, n=5, float32=False)
        path = tmp_path / "b.jsonl"
        save_bank(bank, path, "jsonl")
        loaded = load_bank(path)
        np.testing.assert_array_equal(loaded.values, bank.values)
        assert loaded.task_ids == bank.task_ids

    def test_binary_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for trial in range(25):
            bank = random_bank(rng)
            path = tmp_path / f"b{trial}.ebnk"
            save_bank(bank, path, "binary")
            loaded = load_bank(path)
            assert loaded.modality is bank.modality
            assert loaded.dim == bank.dim
            assert loaded.task_ids == bank.task_ids
            assert np.array_equal(loaded.values, bank.values)

    def test_binary_save_deterministic(self, tmp_path):
        bank = random_bank(np.random.default_rng(2), n=4)
        p1, p2 = tmp_path / "a.ebnk", tmp_path / "b.ebnk"
        save_bank(bank, p1, "binary")
        save_bank(bank, p2, "binary")
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_bank_roundtrip(self, tmp_path):
        bank = EmbeddingBank(Modality.TEXT, (), np.zeros((0, 8)))
        for fmt in BANK_FORMATS:
            path = tmp_path / f"empty.{fmt}"
            save_bank(bank, path, fmt)
            loaded = load_bank(path)
            assert loaded.n == 0 and loaded.dim == 8 and loaded.modality is Modality.TEXT

    def test_binary_truncation_detected(self, tmp_path):
        bank = random_bank(np.random.default_rng(3), n=3)
        path = tmp_path / "b.ebnk"
        save_bank(bank, path, "binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_bank(path)

    def test_binary_bad_magic(self, tmp_path):
        # a file without the binary magic is read as JSON lines, whatever its name
        path = tmp_path / "b.ebnk"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError, match="b.ebnk: line 1: invalid JSON"):
            load_bank(path)

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7FA00000, 0xFF800000], ids=["nan", "signalling-nan", "-inf"])
    def test_binary_non_finite_payload_rejected_without_a_cast_warning(self, tmp_path, bits):
        bank = EmbeddingBank(Modality.VISUAL, ("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        path = tmp_path / "b.ebnk"
        save_bank(bank, path, "binary")
        raw = bytearray(path.read_bytes())
        raw[18 + 12 : 18 + 16] = struct.pack("<I", bits)  # row 1, dim 1
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="row 1: non-finite value"):
                load_bank(path)

    def test_binary_save_refuses_values_outside_float32(self, tmp_path):
        bank = EmbeddingBank(Modality.VISUAL, ("a", "b"), [[1.0, 0.0], [0.0, 1e39]])
        path = tmp_path / "b.ebnk"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="row 1, dim 1: value 1e[+]?39 is outside float32 range"):
                save_bank(bank, path, "binary")
        assert not path.exists()

    def test_format_sniffing(self, tmp_path):
        bank = random_bank(np.random.default_rng(4), n=2)
        pb = tmp_path / "b.bin"
        pj = tmp_path / "b.jsonl"
        save_bank(bank, pb, "binary")
        save_bank(bank, pj, "jsonl")
        assert np.array_equal(load_bank(pb).values, load_bank(pj).values)

    def test_unicode_task_ids(self, tmp_path):
        bank = EmbeddingBank(Modality.VISUAL, ("tâche-1",), [[1.0, 2.0]])
        for fmt in BANK_FORMATS:
            path = tmp_path / f"u.{fmt}"
            save_bank(bank, path, fmt)
            assert load_bank(path).task_ids == ("tâche-1",)


JSONL_HEADER = '{"format":"ebank","version":1,"modality":"text","dim":3}\n'
HUGE_INT = "9" * 400  # beyond float range, so no float holds it


def jsonl_row(values, task_id="a"):
    return '{"task_id":"%s","v":%s}\n' % (task_id, values)


class TestJsonlRowContract:
    """Every malformed row is rejected with its error class and line; the
    first bad line wins."""

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ("[1,true,2]", FormatError, "line 3: v must be a list of numbers"),
            ('[1,"2",3]', FormatError, "line 3: v must be a list of numbers"),
            ("[1,[2],3]", FormatError, "line 3: v must be a list of numbers"),
            ("[1,null,3]", FormatError, "line 3: v must be a list of numbers"),
            ("[1,NaN,2]", FormatError, "line 3: non-finite value"),
            ("[1,Infinity,2]", FormatError, "line 3: non-finite value"),
            ("[1,-Infinity,2]", FormatError, "line 3: non-finite value"),
            ("[1,1e400,2]", FormatError, "line 3: non-finite value"),
            (f"[1,{HUGE_INT},2]", FormatError, "line 3: non-finite value"),
            (f"[1,-{HUGE_INT},2]", FormatError, "line 3: non-finite value"),
            ("[1," + "9" * 5000 + ",2]", FormatError, "line 3: invalid JSON"),
            ("[1,2]", DimensionError, r"row 2 \(line 3\): expected 3 values, got 2"),
        ],
        ids=[
            "true", "string", "nested", "null", "nan", "inf", "-inf", "1e400", "huge-int",
            "huge-negative-int", "over-4300-digits", "short",
        ],
    )
    def test_bad_row(self, tmp_path, values, error, message):
        path = tmp_path / "b.jsonl"
        path.write_text(JSONL_HEADER + jsonl_row("[1,2,3]") + jsonl_row(values) + jsonl_row("[4,5,6]"))
        with pytest.raises(error, match=message):
            load_bank(path)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            (["[1,2]", "[1,NaN,2]"], DimensionError, r"\(line 2\)"),
            (["[1,NaN,2]", "[1,2]"], FormatError, "line 2: non-finite"),
            (["[1,2,3,4]", f"[{HUGE_INT},1,2]"], DimensionError, r"\(line 2\)"),
            ([f"[{HUGE_INT},1,2]", "[1,2,3,4]"], FormatError, "line 2: non-finite"),
            (["[1,2,3]", "[true,1,2]", "[1,2]"], FormatError, "line 3: v must be"),
        ],
    )
    def test_first_bad_line_wins(self, tmp_path, rows, error, message):
        path = tmp_path / "b.jsonl"
        path.write_text(JSONL_HEADER + "".join(jsonl_row(r) for r in rows))
        with pytest.raises(error, match=message):
            load_bank(path)

    def test_integers_convert_like_float(self, tmp_path):
        ints = [2**53 + 1, -(2**70) - 3, 10**300 + 7]
        path = tmp_path / "b.jsonl"
        path.write_text(JSONL_HEADER + jsonl_row(str(ints)))
        assert load_bank(path).values[0].tolist() == [float(i) for i in ints]

    def test_17_digit_values_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(21)
        values = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3))
        text = [jsonl_row("[" + ",".join(f"{x:.17g}" for x in row) + "]") for row in values]
        path = tmp_path / "b.jsonl"
        path.write_text(JSONL_HEADER + "".join(text))
        loaded = load_bank(path)
        assert loaded.values.dtype == np.float64
        np.testing.assert_array_equal(loaded.values, values)
