"""One-day loadings against golden copies (see ``tests/golden/record.py``)."""

import numpy as np
import pytest

from .golden.record import CASES, HERE, loading_arrays


@pytest.mark.parametrize("name", sorted(CASES))
def test_loading_matches_golden_copy(name):
    got = loading_arrays(*CASES[name]())
    with np.load(HERE / f"{name}.npz") as want:
        assert sorted(got) == sorted(want.files)
        for key in want.files:
            expected = want[key]
            # relative to the array's largest value, so zeros and rounding
            # noise next to them compare on the same scale
            scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
            np.testing.assert_allclose(got[key], expected, rtol=0.0, atol=1e-12 * scale,
                                       err_msg=f"{name}: {key}")
