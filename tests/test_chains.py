import numpy as np
import pytest

from conftest import N2, random_regular_pencil, random_index_pencil
from adae.chains import (
    build_chain,
    build_staircase,
    check_decomposition,
    restricted_generator,
    y_impli_check,
)
from adae.exceptions import AdaeError, ChainNotStabilized, NotInResolventSet
from adae.models import RLCConfig, rlc_pencil
from adae.numerics import Subspace, null_basis, range_basis
from adae.pencil import MatrixPencil, pseudo_resolvent


def test_chain_nilpotent(n2_pencil):
    ch = build_chain(n2_pencil, 0.0, side="left")
    assert [v.dim for v in ch.V[:3]] == [2, 1, 0]
    assert [w.dim for w in ch.W[:3]] == [0, 1, 2]
    assert ch.stabilization_k == 2


def test_chain_diagonal(diag_pencil):
    ch = build_chain(diag_pencil, 0.0, side="left")
    assert [v.dim for v in ch.V[:3]] == [2, 1, 1]
    assert [w.dim for w in ch.W[:3]] == [0, 1, 1]
    assert ch.stabilization_k == 1
    # V_1 = span{e1}, W_1 = span{e2}
    assert abs(abs(ch.V[1].basis[0, 0]) - 1.0) < 1e-12
    assert abs(abs(ch.W[1].basis[1, 0]) - 1.0) < 1e-12


def test_chain_invertible_resolvent(ode_pencil):
    ch = build_chain(ode_pencil, 0.0, side="left")
    assert ch.stabilization_k == 0
    assert ch.V[0].dim == 2 and ch.W[0].dim == 0


def _all_levels(p, mu, n_levels):
    """V_0.. and W_0.. of R(mu) iterated without any stopping test."""
    R = pseudo_resolvent(p, mu, "left")
    n = R.shape[0]
    V, W = [Subspace.full(n)], [Subspace.zero(n)]
    while len(V) < n_levels:
        V.append(range_basis(R @ V[-1].basis, p.pol))
        W.append(null_basis((np.eye(n) - W[-1].projector()) @ R, p.pol))
    return V, W


@pytest.mark.parametrize("name, k, v_dims, w_dims", [
    ("n2_pencil", 2, [2, 1, 0, 0], [0, 1, 2, 2]),
    ("diag_pencil", 1, [2, 1, 1], [0, 1, 1]),
    ("ode_pencil", 0, [2, 2], [0, 0]),
])
def test_chain_stops_at_stabilization(request, name, k, v_dims, w_dims):
    # a stabilized chain ends at V_{k+1}/W_{k+1}; its levels are those of
    # the chain iterated to the full max_k + 2 = n + 2 levels
    p = request.getfixturevalue(name)
    ch = build_chain(p, 0.0, side="left")
    assert ch.stabilization_k == k
    assert len(ch.V) == len(ch.W) == k + 2
    assert [v.dim for v in ch.V] == v_dims
    assert [w.dim for w in ch.W] == w_dims
    V, W = _all_levels(p, 0.0, p.n + 2)
    for got, want in zip(ch.V + ch.W, V[:k + 2] + W[:k + 2]):
        assert np.array_equal(got.basis, want.basis)


def test_chain_unstabilized_keeps_all_levels(n2_pencil):
    ch = build_chain(n2_pencil, 0.0, side="left", max_k=1)
    assert ch.stabilization_k is None
    assert len(ch.V) == len(ch.W) == 1 + 2
    assert [v.dim for v in ch.V] == [2, 1, 0]


@pytest.mark.parametrize("side", ["left", "right"])
def test_chain_false_plateau_not_stabilized(side):
    # RLC line without inductance: a nilpotent pencil of index 2 whose
    # computed levels break rank-nullity (left V_2/W_2 dims 11 + 26, right
    # 1 + 15, n = 26); the plateau one level later is no splitting, so the
    # chain stays unstabilized and the generator refuses
    p = rlc_pencil(RLCConfig(m=12, L=np.zeros(12))).companion
    ch = build_chain(p, 0.0, side=side)
    assert ch.stabilization_k is None
    assert len(ch.V) == len(ch.W) == p.n + 2
    with pytest.raises(AdaeError):
        restricted_generator(p, ch)


@pytest.mark.parametrize("side", ["left", "right"])
def test_stabilized_chain_dims_complement(side):
    pencils = [random_index_pencil(1000 + i, i % 4) for i in range(8)]
    pencils.append(rlc_pencil(RLCConfig(m=12)).companion)
    for p in pencils:
        ch = build_chain(p, 0.3, side=side)
        k = ch.stabilization_k
        assert k is not None
        assert ch.V[k].dim + ch.W[k].dim == p.n


def test_decomposition_degenerate(n2_pencil):
    ch = build_chain(n2_pencil, 0.0, side="left")
    holds, gap = check_decomposition(ch)
    assert holds and gap == 1.0


def test_decomposition_orthogonal(diag_pencil):
    ch = build_chain(diag_pencil, 0.0, side="left")
    holds, gap = check_decomposition(ch)
    assert holds and abs(gap - 1.0) < 1e-12


def test_decomposition_needs_stabilization(n2_pencil):
    ch = build_chain(n2_pencil, 0.0, side="left")
    ch.stabilization_k = None
    with pytest.raises(ChainNotStabilized):
        check_decomposition(ch)


def test_staircase_nilpotent(n2_pencil):
    st = build_staircase(n2_pencil, 0.0, side="left")
    assert st.block_sizes == [0, 1, 1]
    assert st.k == 2 and st.dim_V == 0
    T = st.transform(3.7)
    assert np.allclose(np.abs(T), np.abs(N2), atol=1e-12)
    assert st.pattern_residual(3.7) < 1e-12


def test_staircase_trivial(ode_pencil):
    st = build_staircase(ode_pencil, 0.0, side="left")
    assert st.block_sizes == [2]
    assert st.k == 0


def test_staircase_diagonal(diag_pencil):
    st = build_staircase(diag_pencil, 0.0, side="left")
    assert st.block_sizes == [1, 1]
    lam = 2.0
    T = st.transform(lam)
    assert np.allclose(np.abs(T), np.diag([1.0 / (1.0 + lam), 0.0]), atol=1e-12)


def test_staircase_pattern_random():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = random_regular_pencil(rng, int(rng.integers(2, 7)))
        st = build_staircase(p, 0.37, side="left")
        for lam in (1.5, -2.0 + 1j, 8.0):
            try:
                assert st.pattern_residual(lam) < 1e-10
            except NotInResolventSet:
                pass


def test_staircase_index_matches_oracle():
    for k in range(4):
        p = random_index_pencil(700 + k, k)
        st = build_staircase(p, 0.11, side="left")
        assert st.k == k


def test_restricted_generator_diagonal(diag_pencil):
    ch = build_chain(diag_pencil, 0.0, side="left")
    rg = restricted_generator(diag_pencil, ch)
    assert rg.dim == 1
    assert abs(rg.matrix[0, 0] + 1.0) < 1e-12


def test_restricted_generator_full(ode_pencil):
    ch = build_chain(ode_pencil, 0.0, side="left")
    rg = restricted_generator(ode_pencil, ch)
    eigs = np.sort(np.linalg.eigvals(rg.matrix).real)
    assert np.allclose(eigs, [-2.0, -1.0], atol=1e-10)


def test_restricted_generator_empty(semidiss_pencil):
    ch = build_chain(semidiss_pencil, 1.0, side="left")
    rg = restricted_generator(semidiss_pencil, ch)
    assert rg.dim == 0 and rg.matrix.shape == (0, 0)


def test_restricted_generator_mu_independent():
    p = random_index_pencil(41, 2)
    out = []
    for mu in (0.2, 1.7):
        ch = build_chain(p, mu, side="left")
        rg = restricted_generator(p, ch)
        out.append(np.sort_complex(np.linalg.eigvals(rg.matrix)))
    assert np.allclose(out[0], out[1], atol=1e-8)


def test_y_impli_examples(semidiss_pencil):
    # ker E = span{e2}, A e2 = (-1, 0) lies in ran E: intersection nontrivial
    assert y_impli_check(semidiss_pencil) is False
    p = MatrixPencil(np.eye(2), np.diag([-1.0, -2.0]))
    assert y_impli_check(p) is True


def test_y_impli_singular_A():
    p = MatrixPencil(np.eye(2), np.diag([0.0, 1.0]))
    with pytest.raises(NotInResolventSet):
        y_impli_check(p)
