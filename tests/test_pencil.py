import warnings

import numpy as np
import pytest
import scipy.linalg as spla

from conftest import N2, random_index_pencil, random_regular_pencil
from adae.exceptions import GridTooCoarse, NotInResolventSet
from adae.pencil import (
    _INV_RESIDUAL_TOL,
    _certified_inverse,
    MatrixPencil,
    left_resolvent,
    mild_membership_residual,
    pseudo_resolvent,
    pseudo_resolvent_residual,
    relation_L_left,
    relation_L_right,
    relation_from_pseudo_resolvent,
    relation_parts,
    relation_resolvent,
    resolvent_at,
    right_resolvent,
)


def test_pencil_shape_validation():
    with pytest.raises(ValueError):
        MatrixPencil(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        MatrixPencil(np.zeros((2, 3)), np.zeros((2, 3)))  # wide
    p = MatrixPencil(np.zeros((3, 2)), np.ones((3, 2)))  # tall is fine
    assert not p.is_square and p.regular is None


def test_regularity_flag():
    assert MatrixPencil(N2, np.eye(2)).regular
    assert not MatrixPencil(np.zeros((2, 2)), np.zeros((2, 2))).regular


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
    try:
        _certified_inverse(m, 0.0)
    except NotInResolventSet:
        return False
    return True


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


def test_left_resolvent_constant_for_nilpotent(n2_pencil):
    for lam in (0.0, 5.0, -3.0):
        assert np.allclose(left_resolvent(n2_pencil, lam), N2)


def test_left_resolvent_diagonal(diag_pencil):
    for lam in (0.0, 2.0, 10.0):
        expected = np.diag([-1.0 / (1.0 + lam), 0.0])
        assert np.allclose(left_resolvent(diag_pencil, lam), expected)


def test_pseudo_resolvent_reduces_to_resolvent(ode_pencil):
    lam = 0.7
    expected = np.linalg.inv(ode_pencil.A - lam * np.eye(2))
    assert np.allclose(pseudo_resolvent(ode_pencil, lam, "left"), expected)
    assert np.allclose(pseudo_resolvent(ode_pencil, lam, "right"), expected)
    with pytest.raises(ValueError):
        pseudo_resolvent(ode_pencil, lam, "middle")


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


def test_relation_L_left_nilpotent(n2_pencil):
    L = relation_L_left(n2_pencil)
    assert L.dim == 2
    # the stacked columns [N2; I] e1 and [N2; I] e2 span the relation
    target = np.vstack([N2, np.eye(2)])
    proj = L.space.projector()
    assert np.linalg.norm(proj @ target - target) < 1e-12


def test_relation_trivial_operator_part():
    p = MatrixPencil(np.zeros((2, 2)), np.eye(2))
    L = relation_from_pseudo_resolvent(p, 0.0, side="left")
    dom, ker, ran, mul = relation_parts(L)
    assert dom.dim == 0 and mul.dim == 2  # {0} x X


def test_relation_graph_of_A(ode_pencil):
    L = relation_from_pseudo_resolvent(ode_pencil, 0.5, side="left")
    dom, ker, ran, mul = relation_parts(L)
    assert dom.dim == 2 and mul.dim == 0
    # second block = A applied to first block
    coeff = L.first_block()
    assert np.linalg.norm(L.second_block() - ode_pencil.A @ coeff) < 1e-10


def test_relation_independent_of_mu(n2_pencil):
    L1 = relation_from_pseudo_resolvent(n2_pencil, 0.0, "left")
    L2 = relation_from_pseudo_resolvent(n2_pencil, 4.2, "left")
    d = np.linalg.norm(L1.space.projector() - L2.space.projector(), 2)
    assert d < 1e-10


def test_relation_resolvent_recovers_pseudo_resolvent():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = random_regular_pencil(rng, 4)
        L = relation_from_pseudo_resolvent(p, 0.3, "left")
        lam = 1.1 + 0.2j
        got = relation_resolvent(L, lam)
        assert np.linalg.norm(got - left_resolvent(p, lam), 2) < 1e-9


def test_relation_L_right_membership(diag_pencil):
    L = relation_L_right(diag_pencil)
    # (x, w) with E w = A x: take x = e1, w = -e1 (since E w = -e1 = A e1)
    pair = np.concatenate([[1.0, 0.0], [-1.0, 0.0]])
    proj = L.space.projector()
    assert np.linalg.norm(proj @ pair - pair) < 1e-12


def test_mild_membership_exact_solution(ode_pencil):
    t = np.linspace(0.0, 1.0, 201)
    x = np.vstack([np.exp(-t), np.exp(-2 * t)])
    f = np.zeros_like(x)
    res = mild_membership_residual(ode_pencil, x, t, f, x[:, 0], 1.0)
    assert res < 1e-4  # trapezoid O(h^2)


def test_mild_membership_detects_garbage(ode_pencil):
    t = np.linspace(0.0, 1.0, 201)
    x = np.vstack([np.cos(7 * t) + 1.0, np.sin(5 * t) - 2.0])
    f = np.zeros_like(x)
    res = mild_membership_residual(ode_pencil, x, t, f, x[:, 0], 1.0)
    assert res > 1e-2


def test_mild_membership_grid_too_coarse(ode_pencil):
    t = np.array([0.0, 0.5, 1.0])
    x = np.zeros((2, 3))
    with pytest.raises(GridTooCoarse):
        mild_membership_residual(ode_pencil, x, t, x, x[:, 0], 1.0)
