import warnings

import numpy as np
import pytest
import scipy.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import N2, random_index_pencil, random_regular_pencil
from adae.exceptions import NotInResolventSet
from adae.models import HeatWaveConfig, heat_wave_pencil
from adae.numerics import norm2
from adae.pencil import (
    _INV_RESIDUAL_TOL,
    _certified_inverse,
    _norm2_bounds,
    MatrixPencil,
    pseudo_resolvent,
    pseudo_resolvent_residual,
    resolvent_at,
)


def test_pencil_shape_validation():
    with pytest.raises(ValueError):
        MatrixPencil(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        MatrixPencil(np.zeros((2, 3)), np.zeros((2, 3)))  # wide
    with pytest.raises(ValueError, match="square"):
        MatrixPencil(np.zeros((3, 2)), np.ones((3, 2)))  # tall


def test_regularity_flag():
    assert MatrixPencil(N2, np.eye(2)).regular
    assert not MatrixPencil(np.zeros((2, 2)), np.zeros((2, 2))).regular


def test_norms_cached_and_one_dtype():
    # norms computed once per pencil, with the values of the direct
    # computation
    rng = np.random.default_rng(5)
    cplx = random_regular_pencil(rng, 6)
    real = MatrixPencil(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
    for p in (cplx, real):
        assert p.norm_E == norm2(p.E)
        assert p.norm_A == norm2(p.A)
        assert p.norm_scale() == max(norm2(p.E), norm2(p.A), 1.0)
        assert p.norm_E is p.norm_E
    # E and A share one dtype, float64 exactly when neither has an
    # imaginary part; input already of that dtype is not copied
    assert real.E.dtype == real.A.dtype == float
    assert cplx.E.dtype == cplx.A.dtype == complex
    mixed = MatrixPencil(real.E, cplx.A)
    assert mixed.E.dtype == mixed.A.dtype == complex
    assert np.array_equal(mixed.E, real.E)
    typed = MatrixPencil(real.E.astype(complex), real.A.astype(complex))
    assert typed.E.dtype == typed.A.dtype == float
    assert typed.E.flags.c_contiguous
    assert np.array_equal(typed.E, real.E) and np.array_equal(typed.A, real.A)
    assert MatrixPencil(real.E, real.A).E is real.E
    assert MatrixPencil(cplx.E, cplx.A).A is cplx.A


def test_resolvent_at_diagonal(ode_pencil):
    r = resolvent_at(ode_pencil, 0.0)
    assert np.allclose(r.inverse, np.diag([1.0, 0.5]))
    assert r.min_singular > 0


def test_resolvent_at_min_singular_is_lazy(ode_pencil):
    r = resolvent_at(ode_pencil, 0.0)
    assert "min_singular" not in vars(r)
    assert r.min_singular == 1.0 / np.linalg.norm(r.inverse, 2)
    assert vars(r)["min_singular"] == r.min_singular
    assert resolvent_at(MatrixPencil(np.zeros((0, 0)), np.zeros((0, 0))),
                        1.0).min_singular == np.inf


def test_resolvent_at_nilpotent(n2_pencil):
    for lam in (0.0, 3.0, -2.5, 1j):
        r = resolvent_at(n2_pencil, lam)
        assert np.allclose(r.inverse, -(np.eye(2) + lam * N2))


def test_resolvent_at_zero_E():
    p = MatrixPencil(np.zeros((2, 2)), np.eye(2))
    for lam in (0.0, 17.0):
        assert np.allclose(resolvent_at(p, lam).inverse, -np.eye(2))


def test_resolvent_at_spectrum_raises(diag_pencil):
    with pytest.raises(NotInResolventSet):
        resolvent_at(diag_pencil, -1.0)  # -1 is an eigenvalue


def _exact_gate(m):
    """(accepts, residual, threshold) of the inverse gate in exact 2-norms."""
    n = m.shape[0]
    try:
        inv = spla.inv(m)
    except spla.LinAlgError:
        return False, np.inf, 0.0
    if not np.all(np.isfinite(inv)):
        return False, np.inf, 0.0
    resid = np.linalg.norm(m @ inv - np.eye(n), 2)
    floor = n * np.finfo(float).eps * np.linalg.norm(m, 2) * np.linalg.norm(inv, 2)
    thresh = max(_INV_RESIDUAL_TOL, 1e3 * floor)
    return resid <= thresh, resid, thresh


def _gate_accepts(m):
    _, (error,) = _certified_inverse(m[None], [0.0])
    return error is None


def test_certified_inverse_matches_exact_gate():
    # The acceptance corpus's Weierstrass pencils on the CLI's lambda grid up
    # to 1e8, where the floor n eps ||m|| ||inv|| governs, both signs of the
    # shifted matrix; then a Wilkinson growth matrix (pivoted LU loses ~2^n
    # eps) bordered by a shrinking pivot s, so that the threshold sweeps
    # across the residual and points fall on both sides close to the gate.
    mats = []
    for seed, k in ([(1000 + i, i % 4) for i in range(100)]
                    + [(4400 + k, k) for k in range(4)]
                    + [(7000 + i, i % 3) for i in range(50)]
                    + [(8800 + i, k) for i, k in enumerate((0, 1, 2))]
                    + [(1100, 2)]):
        p = random_index_pencil(seed, k)
        for lam in np.logspace(0, 8, 48):
            mats += [p.A - lam * p.E, lam * p.E - p.A]
    rng = np.random.default_rng(3)
    W = np.eye(50) - np.tril(np.ones((50, 50)), -1)
    W[:, -1] = rng.random(50)
    for s in np.logspace(-3, -14, 45):
        mats.append(spla.block_diag(W, s).astype(complex))

    rejected = near_gate = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.LinAlgWarning)
        for m in mats:
            accepts, resid, thresh = _exact_gate(m)
            assert _gate_accepts(m) == accepts
            rejected += not accepts
            near_gate += accepts and resid > 0.1 * thresh
    assert rejected >= 1 and near_gate >= 1
    # the bordered Wilkinson matrices as one stack: each slice is inverted
    # and decided as alone, rejections by the residual included
    stack = np.array(mats[-45:])
    inv, errors = _certified_inverse(stack, list(range(45)))
    for i, m in enumerate(stack):
        one, (error,) = _certified_inverse(m[None], [i])
        assert inv[i].tobytes() == one[0].tobytes()
        assert str(errors[i]) == str(error)
    assert 0 < sum("inversion residual" in str(e) for e in errors) < 45


@pytest.mark.parametrize("m", [10, 50])
def test_certified_inverse_flushes_below_eps_squared(m):
    # at large lam the inverse of lam E - A reaches into the subnormal
    # range; resolvent_at returns it with every entry below eps^2 times its
    # largest set to 0, every other entry bitwise as inverted, and so
    # within n eps^2 of it in the 2-norm
    p = heat_wave_pencil(HeatWaveConfig(m=m))
    eps2 = np.finfo(float).eps ** 2
    for lam in (1e5, 1e6, 1e8):
        got = resolvent_at(p, lam).inverse
        want = spla.inv(lam * p.E - p.A)
        assert not np.any((got != 0) & (np.abs(got) < np.finfo(float).tiny))
        flushed = got != want
        assert np.all(got[flushed] == 0)
        assert np.all(np.abs(want[flushed]) < eps2 * np.abs(want).max())
        assert norm2(got - want) <= p.n * eps2 * norm2(want)


def test_cheap_gate_bounds_are_bounds():
    # the gate's bounds taken from |Y|: below ||Y||_2 for the shifted
    # matrix and its inverse, above it for the inversion residual
    for p in (heat_wave_pencil(HeatWaveConfig(m=10)),
              random_index_pencil(1001, 2), random_index_pencil(4403, 3)):
        for lam in np.logspace(0, 8, 9):
            m = lam * p.E - p.A
            inv = resolvent_at(p, lam).inverse
            X = m @ inv - np.eye(p.n)
            assert _norm2_bounds(np.abs(m))[0] <= norm2(m)
            assert _norm2_bounds(np.abs(inv))[0] <= norm2(inv)
            assert _norm2_bounds(np.abs(X))[1] >= norm2(X)
            # a stack is bounded slice by slice
            lower, upper = _norm2_bounds(np.abs(np.array([m, inv, X])))
            assert lower[0] <= norm2(m) and lower[1] <= norm2(inv)
            assert upper[2] >= norm2(X)


def test_pseudo_resolvent_left_constant_for_nilpotent(n2_pencil):
    for lam in (0.0, 5.0, -3.0):
        assert np.allclose(pseudo_resolvent(n2_pencil, lam, "left"), N2)


def test_pseudo_resolvent_left_diagonal(diag_pencil):
    for lam in (0.0, 2.0, 10.0):
        expected = np.diag([-1.0 / (1.0 + lam), 0.0])
        assert np.allclose(pseudo_resolvent(diag_pencil, lam, "left"),
                           expected)


def test_pseudo_resolvent_reduces_to_resolvent(ode_pencil):
    lam = 0.7
    expected = np.linalg.inv(ode_pencil.A - lam * np.eye(2))
    assert np.allclose(pseudo_resolvent(ode_pencil, lam, "left"), expected)
    assert np.allclose(pseudo_resolvent(ode_pencil, lam, "right"), expected)
    with pytest.raises(ValueError):
        pseudo_resolvent(ode_pencil, lam, "middle")


@pytest.mark.parametrize("make", [
    lambda: heat_wave_pencil(HeatWaveConfig(m=4)),
    lambda: random_index_pencil(1001, 2),
], ids=["real", "complex"])
def test_pseudo_resolvent_is_bitwise_from_A_minus_lam_E(make):
    # reference: the definitions R_l = E (A - lam E)^-1 and
    # R_r = (A - lam E)^-1 E, inverted directly; the pseudo-resolvents are
    # built from the inverse of lam E - A, negated, and agree bit for bit
    p = make()
    for lam in (0.7, 3.1, 250.0, 2.0 + 1.5j):
        G = spla.inv(p.A - lam * p.E)
        assert pseudo_resolvent(p, lam, "left").tobytes() == (p.E @ G).tobytes()
        assert pseudo_resolvent(p, lam, "right").tobytes() == (G @ p.E).tobytes()


def test_resolvent_identity_hand_examples(ode_pencil, n2_pencil, diag_pencil):
    cases = [(ode_pencil, 1.0, 2.0), (n2_pencil, 3.0, 7.0),
             (diag_pencil, 1.0, 2.0)]
    for p, lam, mu in cases:
        for side in ("left", "right"):
            assert pseudo_resolvent_residual(p, lam, mu, side) < 1e-12


def test_resolvent_identity_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = random_regular_pencil(rng, int(rng.integers(2, 9)))
        lam, mu = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for side in ("left", "right"):
            rl = np.linalg.norm(pseudo_resolvent(p, lam, side), 2)
            rm = np.linalg.norm(pseudo_resolvent(p, mu, side), 2)
            res = pseudo_resolvent_residual(p, lam, mu, side)
            assert res <= 1e-9 * (1.0 + rl * rm)


def test_resolvent_identity_equal_points_rejected(ode_pencil):
    with pytest.raises(ValueError):
        pseudo_resolvent_residual(ode_pencil, 1.0, 1.0)


def _slice(kind, base):
    """One slice of a stack for the stacked-inverse test, from lam E - A."""
    n = len(base)
    m = base.copy()
    if n == 0:
        return m
    if kind == "singular":  # a zero column: LU meets a zero pivot
        m[:, 0] = 0
    elif kind == "overflow":  # subnormal entries: the inverse is not finite
        m *= 1e-320
    elif kind == "big":  # inverse Gram below 1e-280
        m *= 1e200
    elif kind == "small":  # inverse Gram above 1e280
        m *= 1e-200
    elif kind == "flush" and n > 1:
        # the inverse's last row and column are 1e-40 of its largest entry
        # and flush to 0; the floor n eps ||m|| ||inv|| accepts that
        m[-1], m[:, -1] = 0, 0
        m[-1, -1] = 1e40
    return m


_KINDS = ("plain", "singular", "overflow", "big", "small", "flush")


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 12), complex_data=st.booleans(),
       zero_rows=st.integers(0, 3),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=5, complex_data=False, zero_rows=2,
         kinds=["plain", "plain", "singular", "overflow", "flush", "small"],
         seed=0)
@example(n=4, complex_data=True, zero_rows=1,
         kinds=["big", "singular", "plain", "singular", "flush"], seed=1)
def test_stacked_inverse_and_norms_match_single_slices(n, complex_data,
                                                       zero_rows, kinds, seed):
    # a stack is inverted and normed bitwise as each slice alone: the same
    # inverse, the same failing slices with the same messages, and the same
    # norms of the inverses and of E times them, E with zero rows
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_data else x

    E, A = draw(n, n), draw(n, n)
    E[:min(zero_rows, n)] = 0
    lams = list(np.logspace(0, 8, len(kinds)) * rng.uniform(0.5, 2.0))
    m = np.array([_slice(kind, lam * E - A)
                  for kind, lam in zip(kinds, lams)]).reshape(len(kinds), n, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the stacked call warns of nothing
        inv, errors = _certified_inverse(m, lams)
        for i in range(len(m)):
            one, (error,) = _certified_inverse(m[i:i + 1], lams[i:i + 1])
            assert inv[i].tobytes() == one[0].tobytes()
            assert str(errors[i]) == str(error)
    if n:
        assert all(errors[i] is not None
                   for i, kind in enumerate(kinds) if kind == "singular")
    left = E @ -inv
    for stack in (inv, left):
        norms = norm2(stack)
        assert [v.tobytes() for v in norms] == [
            np.float64(norm2(x)).tobytes() for x in stack]


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(0, 8), cols=st.integers(0, 8),
       size=st.integers(0, 6), complex_data=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_norm2_matches_single_slices(rows, cols, size, complex_data,
                                             seed):
    # slices of mixed zero rows and columns, scales inside and outside the
    # Gram range, and all-zero slices; each norm bitwise the slice's own
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((size, rows, cols))
    if complex_data:
        x = x + 1j * rng.standard_normal(x.shape)
    x *= rng.choice([1.0, 1e200, 1e-200, 0.0], (size, 1, 1))
    x[rng.random((size, rows)) < 0.3] = 0
    x.transpose(0, 2, 1)[rng.random((size, cols)) < 0.3] = 0
    norms = norm2(x)
    assert norms.shape == (size,)
    assert [v.tobytes() for v in norms] == [
        np.float64(norm2(s)).tobytes() for s in x]
