import numpy as np
import pytest
import scipy.linalg as spla

from conftest import random_index_pencil
from adae.chains import _pick_mu
from adae.models import HeatWaveConfig, heat_wave_pencil
from adae.pencil import MatrixPencil, pseudo_resolvent
from adae.semigroup import degenerate_semigroup, evaluate, laplace_consistency


def test_evaluate_projector_at_zero(diag_pencil):
    tr = degenerate_semigroup(diag_pencil, 0.0, side="left")
    P = evaluate(tr, 0.0)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-12)


def test_evaluate_diagonal(diag_pencil):
    tr = degenerate_semigroup(diag_pencil, 0.0, side="left")
    for t in (0.5, 1.0, 3.0):
        assert np.allclose(evaluate(tr, t), np.diag([np.exp(-t), 0.0]),
                           atol=1e-12)
    with pytest.raises(ValueError):
        evaluate(tr, -0.1)


def test_evaluate_zero_semigroup(semidiss_pencil):
    tr = degenerate_semigroup(semidiss_pencil, 1.0, side="left")
    assert tr.dim_V == 0
    assert np.allclose(evaluate(tr, 2.0), np.zeros((2, 2)))


@pytest.mark.parametrize("E, A, dtype", [
    (np.zeros((3, 3)), np.eye(3), np.float64),  # V_k = {0}
    (np.diag([1.0, 0.0]), -np.eye(2), np.float64),
    (np.zeros((2, 2)), (1.0 + 1.0j) * np.eye(2), np.complex128),
])
def test_evaluate_keeps_the_pencil_dtype(E, A, dtype):
    tr = degenerate_semigroup(MatrixPencil(E, A), 0.0)
    assert evaluate(tr, 0.5).dtype == dtype


def test_semigroup_law():
    p = random_index_pencil(60, 2)
    tr = degenerate_semigroup(p, 0.4, side="left")
    T1 = evaluate(tr, 0.3)
    T2 = evaluate(tr, 0.9)
    assert np.allclose(T1 @ T1 @ T1, T2, atol=1e-10)


def test_laplace_scalar():
    # integral of e^{-t} e^{-t} over [0, inf) = 1/2 = (1 - A_R)^{-1}
    p = MatrixPencil(np.eye(1), -np.eye(1))
    tr = degenerate_semigroup(p, 1.0, side="left")
    res = laplace_consistency(tr, p, 1.0)
    assert res < 1e-10
    target = -pseudo_resolvent(p, 1.0, "left")
    assert abs(target[0, 0] - 0.5) < 1e-12


def test_laplace_diagonal_ode(ode_pencil):
    res = laplace_consistency(degenerate_semigroup(ode_pencil, 0.0, "left"),
                              ode_pencil, 1.0)
    assert res < 1e-8


def test_laplace_empty_dynamic_part(semidiss_pencil):
    tr = degenerate_semigroup(semidiss_pencil, 1.0, side="left")
    assert laplace_consistency(tr, semidiss_pencil, 2.0) < 1e-12


def test_laplace_refused_left_of_the_spectral_abscissa(ode_pencil):
    # A_R = diag(-1, -2): the integral diverges for Re lam <= -1
    tr = degenerate_semigroup(ode_pencil, 0.0, side="left")
    with pytest.raises(ValueError):
        laplace_consistency(tr, ode_pencil, -1.5)
    assert laplace_consistency(tr, ode_pencil, -0.5) <= 1e-12


def test_laplace_index_two_pencil():
    p = random_index_pencil(61, 2)
    tr = degenerate_semigroup(p, 0.4, side="left")
    for lam in (1.0, 2.5, 4.0):
        nrm = np.linalg.norm(pseudo_resolvent(p, lam, "left"), 2)
        assert laplace_consistency(tr, p, lam) <= 1e-7 * max(nrm, 1.0)


@pytest.mark.parametrize("m", [10, 25, 50])
def test_laplace_heat_wave(m):
    # the paper's example: A_R is stiff (modes down to Re -2491 at m = 25)
    # and its spectral abscissa lies just left of 0
    p = heat_wave_pencil(HeatWaveConfig(m=m))
    tr = degenerate_semigroup(p, _pick_mu(p), side="left")
    for lam in (2.0, 10.0):
        nrm = np.linalg.norm(pseudo_resolvent(p, lam, "left"), 2)
        assert laplace_consistency(tr, p, lam) <= 1e-7 * nrm


REFERENCE_PENCILS = {
    "index-1": lambda: random_index_pencil(71, 1),
    "index-2": lambda: random_index_pencil(72, 2),
    "index-3": lambda: random_index_pencil(73, 3),
    "heat-wave-10": lambda: heat_wave_pencil(HeatWaveConfig(m=10)),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(REFERENCE_PENCILS))
def test_projector_matches_the_inverse_of_Q_and_Wk(name, side):
    # T_R(0) = Q [I, K] U^* from the staircase against Q inv([Q, W_k]) cut
    # to its first dim V_k rows, with W_k from the kernel chain; T_R(0) is
    # idempotent, the identity on V_k and zero on W_k
    p = REFERENCE_PENCILS[name]()
    tr = degenerate_semigroup(p, _pick_mu(p), side)
    Q = tr.generator.basis.basis
    Wk = tr.chain.W[tr.chain.stabilization_k].basis
    assert 0 < tr.dim_V < p.n and Wk.shape[1] == p.n - tr.dim_V
    want = Q @ spla.inv(np.hstack([Q, Wk]))[:tr.dim_V]
    P = evaluate(tr, 0.0)
    scale = np.linalg.norm(want, 2)
    assert np.linalg.norm(P - want, 2) <= 1e-12 * scale
    assert np.linalg.norm(P @ P - P, 2) <= 1e-12 * scale
    assert np.linalg.norm(P @ Q - Q, 2) <= 1e-12 * scale
    assert np.linalg.norm(P @ Wk, 2) <= 1e-12 * scale
