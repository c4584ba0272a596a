import math

import numpy as np
import pytest

from modalign.errors import is_finite


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
