import numpy as np
import pytest

from adae.growth import certify_D2, estimate_R_index
from adae.models import (
    HeatWaveConfig,
    RLCConfig,
    WeierstrassSpec,
    heat_wave_pencil,
    rlc_pencil,
    weierstrass_pencil,
)
from adae.chains import y_impli_check
from adae.pencil import MatrixPencil, resolvent_at


def test_heat_wave_structure():
    m = 10
    p = heat_wave_pencil(HeatWaveConfig(m=m))
    N = 2 * m
    assert p.shape == (2 * N, 2 * N)
    assert p.regular
    # E is the exact block mass matrix
    assert np.allclose(p.E[:N, :N], np.eye(N))
    assert np.all(np.diag(p.E[N:, N:])[:m] == 1.0)
    assert np.all(np.diag(p.E[N:, N:])[m:] == 0.0)
    # Herm(A) negative semidefinite to machine precision
    H = 0.5 * (p.A + p.A.conj().T)
    assert np.max(np.linalg.eigvalsh(H)) <= 1e-13


def test_heat_wave_certificates():
    p = heat_wave_pencil(HeatWaveConfig(m=8))
    assert y_impli_check(p) is True
    c = certify_D2(p)
    assert c.verdict == "holds"
    assert abs(c.M - 1.0) < 1e-8


def test_heat_wave_rejects_small_m():
    with pytest.raises(ValueError):
        HeatWaveConfig(m=3)


def test_rlc_needs_one_cell():
    assert rlc_pencil(RLCConfig(m=1)).companion.shape == (4, 4)
    for m in (0, -1):
        with pytest.raises(ValueError, match="need m >= 1"):
            RLCConfig(m=m)


def test_rlc_shapes_and_profiles():
    m = 6
    model = rlc_pencil(RLCConfig(m=m, R=np.full(m, 0.5)))
    assert model.companion.shape == (2 * m + 2, 2 * m + 2)
    # without the two extra unknowns the boundary rows make a tall pencil,
    # which no lambda makes bijective: it is refused
    with pytest.raises(ValueError, match="square"):
        MatrixPencil(model.companion.E[:, :2 * m], model.companion.A[:, :2 * m])
    r0, r1 = model.boundary_forcing_indices()
    assert (r0, r1) == (2 * m, 2 * m + 1)
    assert np.allclose(model.companion.E[r0], 0.0)
    with pytest.raises(ValueError):
        rlc_pencil(RLCConfig(m=m, C=np.full(m + 1, 1.0)))
    with pytest.raises(ValueError):
        rlc_pencil(RLCConfig(m=m, L=-np.ones(m)))


def test_rlc_A_invertible():
    model = rlc_pencil(RLCConfig(m=12))
    r = resolvent_at(model.companion, 0.0)
    assert r.min_singular > 0


def test_rlc_degenerate_L_is_index_two():
    # zero inductance everywhere degenerates half the mass matrix
    m = 8
    model = rlc_pencil(RLCConfig(m=m, L=np.zeros(m)))
    assert estimate_R_index(model.companion).k == 2


def test_weierstrass_examples():
    spec = WeierstrassSpec(ode_eigenvalues=(-1.0, -2.0),
                           nilpotent_block_sizes=(3, 2), transform_seed=7)
    assert spec.true_index == 3 and spec.dim == 7
    p, k = weierstrass_pencil(spec)
    assert k == 3 and p.shape == (7, 7) and p.regular
    # pure ODE spec
    p2, k2 = weierstrass_pencil(WeierstrassSpec(ode_eigenvalues=(-1.0,)))
    assert k2 == 0 and np.linalg.matrix_rank(p2.E) == 1


def test_weierstrass_spec_validation():
    with pytest.raises(ValueError):
        WeierstrassSpec(nilpotent_block_sizes=(0,))
    with pytest.raises(ValueError):
        WeierstrassSpec()


def test_weierstrass_transform_reproducible():
    spec = WeierstrassSpec(ode_eigenvalues=(-1.0,),
                           nilpotent_block_sizes=(2,), transform_seed=11)
    p1, _ = weierstrass_pencil(spec)
    p2, _ = weierstrass_pencil(spec)
    assert np.array_equal(p1.E, p2.E) and np.array_equal(p1.A, p2.A)
