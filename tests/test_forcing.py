import math
import tracemalloc

import numpy as np
import pytest

from adae.exceptions import InsufficientSmoothness
from adae.forcing import PolynomialForcing, SampledForcing


def test_polynomial_value_and_derivative():
    # f(t) = (1 + 2t + 3t^2, 4t)
    c = np.array([[1.0, 2.0, 3.0], [0.0, 4.0, 0.0]])
    f = PolynomialForcing.from_coeffs(c, 2.0)
    t = 0.7
    assert np.allclose(f.sample([t])[:, 0], [1 + 2 * t + 3 * t * t, 4 * t])
    assert np.allclose(f.sample([t], 1)[:, 0], [2 + 6 * t, 4.0])
    assert np.allclose(f.sample([t], 2)[:, 0], [6.0, 0.0])
    assert np.allclose(f.sample([t], 3)[:, 0], [0.0, 0.0])


def test_polynomial_pieces():
    # f = t on [0,1], f = 1 - 2(t-1) on [1,2]
    f = PolynomialForcing([0.0, 1.0, 2.0],
                          [np.array([[0.0, 1.0]]), np.array([[1.0, -2.0]])])
    assert abs(f.sample([0.5])[0, 0] - 0.5) < 1e-15
    assert abs(f.sample([1.5])[0, 0] + 0.0) < 1e-15
    assert abs(f.sample([0.5], 1)[0, 0] - 1.0) < 1e-15
    assert abs(f.sample([1.5], 1)[0, 0] + 2.0) < 1e-15
    # out-of-range times clamp to the nearest piece
    assert abs(f.sample([2.5])[0, 0] + 2.0) < 1e-15


def test_polynomial_validation():
    with pytest.raises(ValueError):
        PolynomialForcing([0.0, 0.0], [np.eye(1)])
    with pytest.raises(ValueError):
        PolynomialForcing([0.0, 1.0, 2.0], [np.eye(1)])
    with pytest.raises(ValueError):
        PolynomialForcing([0.0, 1.0, 2.0], [np.eye(2), np.eye(3)])


def test_sampled_accuracy():
    t = np.linspace(0.0, 2.0, 401)
    f = SampledForcing(t, np.vstack([np.sin(t), t ** 3]))
    for s in (0.3, 1.0, 1.97):
        assert np.allclose(f.sample([s])[:, 0], [np.sin(s), s ** 3],
                           atol=1e-7)
        assert np.allclose(f.sample([s], 1)[:, 0], [np.cos(s), 3 * s * s],
                           atol=1e-6)
        assert np.allclose(f.sample([s], 2)[:, 0], [-np.sin(s), 6 * s],
                           atol=1e-4)


def test_sampled_order_cap():
    t = np.linspace(0.0, 1.0, 11)
    f = SampledForcing(t, np.zeros((1, 11)))
    assert f.max_derivative_order == 2
    with pytest.raises(InsufficientSmoothness):
        f.sample([0.5], 3)


def test_sampled_validation():
    with pytest.raises(ValueError):
        SampledForcing([0.0, 1.0, 2.0, 3.0], np.zeros((1, 4)))  # too few
    with pytest.raises(ValueError):
        SampledForcing([0.0, 1.0, 2.0, 3.5, 4.0], np.zeros((1, 5)))
    with pytest.raises(ValueError):
        SampledForcing(np.linspace(0, 1, 6), np.zeros((1, 5)))
    # 7 samples, so the size check passes: a non-uniform grid has no one
    # spacing h, equal times would divide by h = 0, a decreasing grid has no
    # span
    for times in ([0.0, 1.0, 2.0, 3.5, 4.0, 5.0, 6.0], np.zeros(7),
                  np.linspace(1, 0, 7)):
        with pytest.raises(ValueError, match="must be uniform and increasing"):
            SampledForcing(times, np.ones((1, 7)))


def test_sampled_needs_six_samples():
    # the quartic window needs only 5 samples; the 6-sample minimum is the
    # documented input contract, and 6 samples give exact derivatives of t^2
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="6 samples"):
        SampledForcing(t, t[None, :] ** 2)
    t = np.linspace(0.0, 1.0, 6)
    f = SampledForcing(t, t[None, :] ** 2)
    assert np.max(np.abs(f.sample(t, 1)[0] - 2 * t)) < 1e-12
    for ti in t:
        assert abs(f.sample([ti], 1)[0, 0] - 2 * ti) < 1e-12


def test_samples_take_the_dtype_of_their_data():
    # real data give float64 samples, also when typed complex; data with an
    # imaginary part give complex128
    t = np.linspace(0.0, 1.0, 11)
    real = [
        PolynomialForcing.from_coeffs(np.ones((2, 2), dtype=complex), 1.0),
        PolynomialForcing.constant([1.0, -2.0], 1.0),
        SampledForcing(t, np.vstack([t, t * t]).astype(complex)),
    ]
    for f in real:
        assert f.sample(t).dtype == np.float64
        assert f.sample(t, 1).dtype == np.float64
    cplx = [
        PolynomialForcing.from_coeffs([[1.0, 1j]], 1.0),
        SampledForcing(t, np.exp(1j * t)),
    ]
    for f in cplx:
        assert f.sample(t).dtype == np.complex128
        assert f.sample(t, 1).dtype == np.complex128


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forcing_refuses_non_finite_data(bad):
    t = np.linspace(0.0, 1.0, 11)
    vals = np.vstack([t, t])
    vals[1, 4] = bad
    with pytest.raises(ValueError, match="NaN/Inf"):
        SampledForcing(t, vals)
    with pytest.raises(ValueError, match="NaN/Inf"):
        PolynomialForcing.from_coeffs([[1.0, bad]], 1.0)


def test_zero_forcing():
    f = PolynomialForcing.zero(3, 5.0)
    assert np.allclose(f.sample([2.0])[:, 0], np.zeros(3))
    assert np.allclose(f.sample([2.0], 4)[:, 0], np.zeros(3))


def _sampled_quartics(seed):
    """SampledForcing of three random complex quartics on a 41-point grid,
    the quartics themselves, and times at the nodes, the midpoints, random
    points, in the two edge windows and just outside [t0, tN]."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.5, 2.5, 41)
    h = t[1] - t[0]
    polys = [np.polynomial.Polynomial(rng.standard_normal(5)
                                      + 1j * rng.standard_normal(5))
             for _ in range(3)]
    f = SampledForcing(t, np.array([q(t) for q in polys]))
    edges = [t[0] - 0.3 * h, t[0] + 0.4 * h, t[0] + 1.5 * h, t[1] + 0.5 * h,
             t[-1] - 1.5 * h, t[-2] + 0.5 * h, t[-1] - 0.2 * h, t[-1] + 0.2 * h]
    ts = np.concatenate([t, 0.5 * (t[1:] + t[:-1]), rng.uniform(0.5, 2.5, 30),
                         edges])
    return f, polys, ts


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_sampled_reproduces_quartics(seed):
    # the local quartic through 5 samples is the quartic itself, edges and
    # off-grid times included
    f, polys, ts = _sampled_quartics(seed)
    for order in range(3):
        want = np.array([q.deriv(order)(ts) for q in polys])
        got = f.sample(ts, order)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_sampled_sample_matches_per_point_bitwise(order):
    f, _, ts = _sampled_quartics(5)
    f.values[1, ::3] = 0.0
    got = f.sample(ts, order)
    for i, s in enumerate(ts):
        assert got[:, i].tobytes() == f.sample([s], order)[:, 0].tobytes()


def _lagrange24():
    """24 l_a(s) for the Lagrange basis on the nodes s = 0..4, in integer
    arithmetic: row a holds the coefficients of s^0..s^4."""
    rows = []
    for a in range(5):
        others = [b for b in range(5) if b != a]
        coeffs = np.poly1d(others, r=True).coeffs[::-1]
        rows.append(coeffs * (24 // math.prod(a - b for b in others)))
    return np.array(rows, dtype=float)


def _sampled_reference(f, t, order):
    """Per-point derivative of a SampledForcing: the quartic through the 5
    samples nearest t, its weights by Horner's rule, one tap at a time."""
    lo = min(max(int(np.rint((t - f.times[0]) / f.h)) - 2, 0),
             f.times.size - 5)
    s = (t - f.times[lo]) / f.h
    out = np.zeros(f.dim, dtype=f.values.dtype)
    for a, c in enumerate(_lagrange24()):
        w = 0.0
        for j in range(4, order - 1, -1):
            w = w * s + c[j] * math.perm(j, order)
        out += w * f.values[:, lo + a]
    return out / (24 * f.h ** order)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("zero_rows", [[0, 2], [0, 1, 2]],
                         ids=["two-zero-rows", "all-zero"])
def test_sampled_sample_with_zero_rows_matches_per_point_bytewise(
        order, zero_rows):
    # only the rows with a nonzero sample are evaluated; the others must
    # read +0.0, as the per-point formula leaves them
    f, _, ts = _sampled_quartics(6)
    f.values[zero_rows] = 0.0
    f = SampledForcing(f.times, f.values)
    got = f.sample(ts, order)
    want = np.column_stack([_sampled_reference(f, s, order) for s in ts])
    assert got.shape == (3, ts.size)
    assert got.tobytes() == want.tobytes()
    assert got[zero_rows].tobytes() == bytes(got[zero_rows].nbytes)


def _polynomial_reference(f, t, order):
    """Per-point derivative of a PolynomialForcing, term by term."""
    i = min(max(int(np.searchsorted(f.breakpoints, t, side="right")) - 1, 0),
            len(f.coeffs) - 1)
    s = t - f.breakpoints[i]
    c = f.coeffs[i]
    out = np.zeros(f.dim, dtype=complex)
    for j in range(order, c.shape[1]):
        fac = 1.0
        for q in range(j, j - order, -1):
            fac *= q
        out += fac * c[:, j] * s ** (j - order)
    return out


def test_polynomial_sample_matches_per_point_bitwise():
    rng = np.random.default_rng(6)
    coeffs = [rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
              for _ in range(3)]
    f = PolynomialForcing([0.0, 0.7, 1.3, 2.0], coeffs)
    ts = np.concatenate([[-0.5, 0.0, 0.7, 1.3, 2.0, 2.5],
                         rng.uniform(0.0, 2.0, 200)])
    # unsorted times, and sorted ones, whose pieces are column ranges
    for ts in (ts, np.sort(ts)):
        for order in range(5):
            got = f.sample(ts, order)
            assert got.shape == (2, ts.size)
            want = np.column_stack([_polynomial_reference(f, s, order)
                                    for s in ts])
            assert got.tobytes() == want.tobytes()


def test_polynomial_sample_memory_in_outputs():
    """On a sorted grid each piece adds into its column range in place, so
    sample holds its output and one product term, not a gathered copy of
    the columns and their sum besides."""
    f = PolynomialForcing.from_coeffs(
        np.random.default_rng(7).standard_normal((22, 3)), 1.0)
    ts = np.linspace(0.0, 1.0, 4001)
    tracemalloc.start()
    try:
        out = f.sample(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * out.nbytes
