import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from adae.numerics import Subspace, subspace_distance  # noqa: E402


def _projector_difference(u, v):
    """The gap as the 2-norm of P_u - P_v, from the n x n projectors."""
    if u.dim == 0:
        return 0.0
    Pu, Pv = u.basis @ u.basis.conj().T, v.basis @ v.basis.conj().T
    return float(min(np.linalg.norm(Pu - Pv, 2), 1.0))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), dim=st.integers(0, 12),
       complex_data=st.booleans(),
       closeness=st.sampled_from([0.0, 1e-9, 1e-4, 1.0, None]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_subspace_distance_matches_projector_difference(n, dim, complex_data,
                                                        closeness, seed):
    # subspaces of equal dimension, real and complex, from v = u through
    # nearby ones to unrelated ones (closeness None), against the formula
    # with the n x n projectors
    rng = np.random.default_rng(seed)
    k = min(dim, n)

    def draw(rows, cols):
        x = rng.standard_normal((rows, cols))
        return x + 1j * rng.standard_normal((rows, cols)) if complex_data else x

    u = Subspace(n, np.linalg.qr(draw(n, n))[0][:, :k])
    if closeness is None:
        vb = np.linalg.qr(draw(n, n))[0][:, :k]
    else:
        vb = np.linalg.qr(u.basis + closeness * draw(n, k))[0]
    v = Subspace(n, vb)
    want = _projector_difference(u, v)
    assert abs(subspace_distance(u, v) - want) <= 1e-12
    assert abs(subspace_distance(v, u) - want) <= 1e-12
