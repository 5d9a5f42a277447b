import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from adae.numerics import norm2  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 14), cols=st.integers(1, 14),
       rank=st.integers(0, 14), complex_data=st.booleans(),
       scale=st.sampled_from([1.0, 1e200, 1e-200]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_norm2_matches_largest_singular_value(rows, cols, rank, complex_data,
                                              scale, seed):
    # square, tall and wide, full rank, rank-deficient and zero (rank 0),
    # real and complex; 1e+-200 pushes the Gram matrix past over/underflow
    rng = np.random.default_rng(seed)

    def draw(m, n):
        x = rng.standard_normal((m, n))
        return x + 1j * rng.standard_normal((m, n)) if complex_data else x

    r = min(rank, rows, cols)
    x = (draw(rows, r) @ draw(r, cols)) * scale
    want = np.linalg.svd(x, compute_uv=False)[0]
    got = norm2(x)
    if r == 0:
        assert got == 0.0
    else:
        assert abs(got - want) <= 1e-13 * want


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 10), cols=st.integers(1, 10),
       zero_rows=st.integers(0, 6), zero_cols=st.integers(0, 6),
       complex_data=st.booleans(),
       scale=st.sampled_from([1.0, 1e200, 1e-200]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_norm2_ignores_zero_rows_and_columns(rows, cols, zero_rows, zero_cols,
                                             complex_data, scale, seed):
    # zero lines inserted anywhere, also all around, in any number, leave
    # the norm bitwise as it was
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)) * scale
    if complex_data:
        x = x + 1j * rng.standard_normal((rows, cols)) * scale
    padded = np.insert(x, rng.integers(0, rows + 1, zero_rows), 0, axis=0)
    padded = np.insert(padded, rng.integers(0, cols + 1, zero_cols), 0, axis=1)
    assert norm2(padded) == norm2(x)
    assert norm2(np.zeros_like(padded)) == 0.0
