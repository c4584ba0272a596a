import math
import pickle

import numpy as np
import pytest

from modalign.errors import (
    DimensionError,
    DivergenceError,
    ModalignError,
    ParameterError,
    PipelineError,
    is_finite,
    refuse_first,
)


@pytest.mark.parametrize(
    "value, finite",
    [
        (0.5, True),
        (3, True),
        (np.float16(0.5), True),
        (np.float32(-0.5), True),
        (np.float64(1e300), True),
        (np.int64(-7), True),
        (np.float32(np.inf), False),
        (np.float16(np.nan), False),
        (np.float64(-np.inf), False),
        (10**400, False),  # an int beyond the float range
        (-(10**400), False),
        (math.nan, False),
        (True, False),
        (np.bool_(True), False),
        ("1", False),
    ],
)
def test_is_finite_without_warnings(value, finite):
    # the suite turns RuntimeWarning into an error, so a warning fails here
    assert is_finite(value) is finite


@pytest.mark.parametrize("bad", [np.zeros(5, dtype=bool), np.zeros((3, 4), dtype=bool), np.zeros((0, 2), dtype=bool)],
                         ids=["1-d", "2-d", "empty"])
def test_refuse_first_passes_a_mask_with_no_true_entry(bad):
    refuse_first(bad, ParameterError, lambda *index: pytest.fail(f"message asked for at {index}"))


def test_refuse_first_names_the_first_index_of_a_1d_mask():
    with pytest.raises(ParameterError, match="^entry 2$"):
        refuse_first(np.array([False, False, True, True]), ParameterError, lambda i: f"entry {i}")


def test_refuse_first_names_row_then_column_in_c_order():
    bad = np.zeros((3, 4), dtype=bool)
    bad[2, 0] = bad[1, 3] = True
    seen = []
    with pytest.raises(DimensionError, match="^row 1, col 3$"):
        refuse_first(bad, DimensionError, lambda r, c: seen.append((r, c)) or f"row {r}, col {c}")
    assert [tuple(map(type, index)) for index in seen] == [(int, int)]


def test_refuse_first_raises_the_given_class():
    with pytest.raises(DivergenceError) as info:
        refuse_first(np.array([True]), DivergenceError, lambda i: "diverged")
    assert type(info.value) is DivergenceError


@pytest.mark.parametrize("cls", [ModalignError, *ModalignError.__subclasses__()], ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    # an error raised in a worker process reaches the caller pickled
    error = cls("stage", "went wrong") if cls is PipelineError else cls("went wrong")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) == ("stage 'stage': went wrong" if cls is PipelineError else "went wrong")
    assert getattr(copy, "stage", None) == getattr(error, "stage", None)
