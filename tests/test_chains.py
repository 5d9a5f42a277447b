import numpy as np
import pytest
import scipy.linalg as spla

from conftest import N2, random_regular_pencil, random_index_pencil
from adae.chains import (
    StaircaseForm,
    SubspaceChain,
    _PROBE_MUS,
    _pick_mu,
    build_chain,
    build_staircase,
    check_decomposition,
    restricted_generator,
    staircase_from_chain,
    y_impli_check,
)
from adae.exceptions import (
    AdaeError,
    ChainNotStabilized,
    NotInResolventSet,
    PatternViolation,
)
from adae.models import (
    HeatWaveConfig,
    RLCConfig,
    WeierstrassSpec,
    heat_wave_pencil,
    rlc_pencil,
    weierstrass_pencil,
)
from adae.numerics import Subspace, null_basis, range_basis, svdvals
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
        Wb = W[-1].basis
        W.append(null_basis((np.eye(n) - Wb @ Wb.conj().T) @ R, p.pol))
    return V, W


@pytest.mark.parametrize("name, k, v_dims, w_dims", [
    ("n2_pencil", 2, [2, 1, 0, 0], [0, 1, 2, 2]),
    ("diag_pencil", 1, [2, 1, 1], [0, 1, 1]),
    ("ode_pencil", 0, [2, 2], [0, 0]),
])
def test_chain_stops_at_stabilization(request, name, k, v_dims, w_dims):
    # a stabilized chain ends at V_{k+1}/W_{k+1}; its levels are those of
    # the chain iterated to the full n + 2 levels
    p = request.getfixturevalue(name)
    ch = build_chain(p, 0.0, side="left")
    assert ch.stabilization_k == k
    assert len(ch.V) == len(ch.W) == k + 2
    assert [v.dim for v in ch.V] == v_dims
    assert [w.dim for w in ch.W] == w_dims
    V, W = _all_levels(p, 0.0, p.n + 2)
    for got, want in zip(ch.V + ch.W, V[:k + 2] + W[:k + 2]):
        assert np.array_equal(got.basis, want.basis)


def test_chain_unstabilized_keeps_all_levels():
    # a transformed nilpotent index-2 block: the computed range levels never
    # reach {0}, so the chain runs to k = n and keeps all n + 2 levels
    p = weierstrass_pencil(WeierstrassSpec((), (2,), 0))[0]
    ch = build_chain(p, 0.0, side="left")
    assert ch.stabilization_k is None
    assert len(ch.V) == len(ch.W) == p.n + 2
    assert [v.dim for v in ch.V[:2]] == [2, 1]
    with pytest.raises(ChainNotStabilized,
                       match="^range chain failed to stabilize$"):
        staircase_from_chain(p, ch)


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
def test_staircase_refuses_false_plateau(side):
    # on the same pencil a range chain without the rank-nullity guard reads
    # a plateau as stable: block sizes [11, 1, 14] (left, an 11-dim dynamic
    # part of a nilpotent pencil) and [0, 1, 11, 14] (right, k = 3 against
    # QZ index 2); built from the Wong chain, the staircase refuses instead
    p = rlc_pencil(RLCConfig(m=12, L=np.zeros(12))).companion
    with pytest.raises(ChainNotStabilized,
                       match="^range chain failed to stabilize$"):
        build_staircase(p, 0.0, side=side)


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


def _split_chain(V, W):
    """A chain stabilized at k = 0 with V_0 = ran V and W_0 = ran W."""
    n = len(V)
    return SubspaceChain(mu=0.0, side="left",
                         V=[Subspace(n, np.linalg.qr(V)[0])],
                         W=[Subspace(n, np.linalg.qr(W)[0])],
                         stabilization_k=0)


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_decomposition_sees_a_shared_direction():
    # two 3-dimensional subspaces of C^6 that share one direction do not
    # split C^6; the sine of their smallest angle is ~eps, far below
    # subspace_tol, where sqrt(1 - cos^2) of the largest cosine is not
    for seed in range(200):
        rng = np.random.default_rng(seed)
        s = _cplx(rng, 6, 1)
        ch = _split_chain(np.hstack([s, _cplx(rng, 6, 2)]),
                          np.hstack([s, _cplx(rng, 6, 2)]))
        holds, gap = check_decomposition(ch)
        assert not holds and gap < 1e-13, (seed, gap)


def test_decomposition_of_random_pairs_holds():
    # generic pairs of complementary dimensions split C^6, and the gap is
    # the sine of the smallest principal angle
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 5
        V, W = _cplx(rng, 6, d), _cplx(rng, 6, 6 - d)
        holds, gap = check_decomposition(_split_chain(V, W))
        cos_max = np.linalg.svd(np.linalg.qr(V)[0].conj().T
                                @ np.linalg.qr(W)[0], compute_uv=False)[0]
        assert holds and abs(gap - np.sqrt(1.0 - cos_max ** 2)) < 1e-10


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


def test_pattern_bound_keeps_decisions_and_text(monkeypatch):
    # the pattern check accepts a lambda on a Frobenius bound when it can;
    # the bound is never below the exact residual, and with the exact
    # 2-norms alone the check accepts and rejects the same chains with the
    # same PatternViolation text
    p = random_index_pencil(702, 2, n_ode=3)
    chain = build_chain(p, 0.4)
    other = random_index_pencil(703, 2, n_ode=3)  # the chain does not fit it
    st = staircase_from_chain(p, chain)
    for lam in (1.5, -2.0 + 1j, 8.0 + 3j):
        T = st.transform(lam)
        assert st._residual_bound(T) >= st._exact_residual(T)
        assert st._exact_residual(T) == st.pattern_residual(lam)

    def outcomes():
        out = []
        for q in (p, other):
            try:
                out.append(staircase_from_chain(q, chain).block_sizes)
            except PatternViolation as exc:
                out.append(str(exc))
        return out

    fast = outcomes()
    assert fast[0] == st.block_sizes and "zero-block residual" in fast[1]
    monkeypatch.setattr(StaircaseForm, "_residual_bound",
                        lambda self, T: np.inf)
    assert outcomes() == fast


@pytest.mark.parametrize("side", ["left", "right"])
def test_staircase_from_chain_shares_factorization(side, monkeypatch):
    # the V levels and R(mu) are the chain's; the only new inverses are the
    # 3 pattern checks at lambda != mu
    p = random_index_pencil(702, 2, n_ode=3)
    ch = build_chain(p, 0.4, side=side)
    calls = []
    inv = spla.inv
    monkeypatch.setattr(spla, "inv", lambda m: calls.append(m) or inv(m))
    st = staircase_from_chain(p, ch)
    assert len(calls) == 3
    assert not any(np.array_equal(m, p.A - 0.4 * p.E) for m in calls)
    k = ch.stabilization_k
    assert st.chain is ch and st.k == k == 2
    assert st.block_sizes[0] == ch.V[k].dim and sum(st.block_sizes) == p.n
    assert np.array_equal(st.unitary[:, :st.dim_V], ch.V[k].basis)
    assert st.unitary.shape == (p.n, p.n)
    assert np.allclose(st.unitary.conj().T @ st.unitary, np.eye(p.n),
                       atol=1e-12)
    calls.clear()
    U = st.unitary
    assert np.array_equal(st.transform(0.4), U.conj().T @ ch.R @ U)
    assert not calls
    assert np.array_equal(ch.R, pseudo_resolvent(p, 0.4, side))
    assert np.array_equal(ch.G, spla.inv(p.A - 0.4 * p.E))


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


def _index_corpus(seed):
    """Weierstrass pencils of index 0-4, n 2-12, with and without an ODE
    part, like the benchmark's index corpus."""
    rng = np.random.default_rng(seed)
    for k in range(5):
        for n in range(max(2, k), 13):
            n_ode = n if k == 0 else int(rng.integers(0, n - k + 1))
            blocks = [k] if k else []
            while sum(blocks) < n - n_ode:
                rest = n - n_ode - sum(blocks)
                blocks.append(int(rng.integers(1, min(k, rest) + 1)))
            eigs = tuple(-rng.uniform(0.5, 4.0, n_ode))
            yield weierstrass_pencil(WeierstrassSpec(
                eigs, tuple(blocks), int(rng.integers(0, 2 ** 31))))[0]


def test_pick_mu_matches_probe_loop():
    # the stacked SVD takes bitwise the singular values that one svdvals
    # per probe mu does, and _pick_mu picks the first mu of the largest
    # sigma_min
    pencils = [*_index_corpus(1), heat_wave_pencil(HeatWaveConfig(m=10)),
               rlc_pencil(RLCConfig(m=12)).companion]
    assert len(pencils) > 50
    for p in pencils:
        loop = np.array([spla.svdvals(p.A - mu * p.E) for mu in _PROBE_MUS])
        stacked = svdvals(p.A - np.array(_PROBE_MUS)[:, None, None] * p.E)
        assert stacked.tobytes() == loop.tobytes()
        sig = list(loop[:, -1])
        assert _pick_mu(p) == _PROBE_MUS[sig.index(max(sig))]


def test_pick_mu_edge_cases():
    assert _pick_mu(MatrixPencil(np.zeros((0, 0)), np.zeros((0, 0)))) == 0.0
    # sigma_min(A - mu E) = |mu|: 7.9 wins
    assert _pick_mu(MatrixPencil(np.eye(2), np.zeros((2, 2)))) == 7.9
    # A - mu E = 0 for every mu
    with pytest.raises(NotInResolventSet, match="no usable probe mu"):
        _pick_mu(MatrixPencil(np.zeros((2, 2)), np.zeros((2, 2))))
