import numpy as np
import pytest
import scipy.linalg as spla

from adae.exceptions import SingularPencil
from adae.models import (
    HeatWaveConfig,
    RLCConfig,
    WeierstrassSpec,
    heat_wave_pencil,
    rlc_pencil,
)
from adae.numerics import (
    Subspace,
    TolerancePolicy,
    as_matrix,
    expm,
    inclusion_distance,
    norm2,
    null_basis,
    orthonormal_complement,
    probe_regularity,
    qz_canonical,
    range_basis,
    rank_with_tol,
    subspace_distance,
    subspace_intersection,
    svd,
    svdvals,
)


@pytest.mark.parametrize("shape", [(63, 40), (64, 64), (90, 130), (200, 150)])
@pytest.mark.parametrize("complex_data", [False, True])
def test_norm2_large_orders(shape, complex_data):
    rng = np.random.default_rng(shape[0])
    x = rng.standard_normal(shape)
    if complex_data:
        x = x + 1j * rng.standard_normal(shape)
    x[:, ::3] *= 1e-6  # a spread of singular values
    for scale in (1.0, 1e200, 1e-200):
        want = np.linalg.svd(x * scale, compute_uv=False)[0]
        assert abs(norm2(x * scale) - want) <= 1e-13 * want


def test_norm2_zero_empty_and_real_typed_complex():
    for shape in ((3, 3), (2, 5), (5, 2), (80, 70)):
        assert norm2(np.zeros(shape)) == 0.0
        assert norm2(np.zeros(shape, dtype=complex)) == 0.0
    assert norm2(np.zeros((0, 4))) == 0.0
    # complex-typed data with no imaginary part has the norm of the real data
    x = np.random.default_rng(3).standard_normal((7, 4))
    assert norm2(x.astype(complex)) == norm2(x)


def test_as_matrix_decides_the_dtype_once():
    # float64 when the input has no imaginary part, complex128 otherwise,
    # with no copy when the input already has that dtype
    x = np.random.default_rng(4).standard_normal((6, 4))
    z = x + 1j * np.random.default_rng(5).standard_normal((6, 4))
    assert as_matrix(x) is x and as_matrix(z) is z
    xc = as_matrix(x.astype(complex))
    assert xc.dtype == float and xc.flags.c_contiguous
    assert np.array_equal(xc, x)
    assert as_matrix([[1, 2]]).dtype == float
    assert as_matrix(np.arange(3.0)).shape == (1, 3)
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf]])
    # downstream, numpy carries the dtype: the SVDs keep it, and so do
    # the subspaces built from them
    assert svdvals(x).dtype == float
    u, s, vh = svd(x, full_matrices=False)
    assert u.dtype == vh.dtype == float
    assert np.array_equal(s, spla.svd(x, full_matrices=False)[1])
    assert np.array_equal(svdvals(x), spla.svdvals(x))
    assert svd(z)[0].dtype == complex
    assert np.allclose(svdvals(z), np.linalg.svd(z, compute_uv=False),
                       rtol=1e-13, atol=0.0)
    assert range_basis(x.astype(complex)).basis.dtype == float
    assert null_basis(z.T).basis.dtype == complex
    assert Subspace.full(3).basis.dtype == float


def test_policy_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        TolerancePolicy(rank_rel_tol=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(subspace_tol=1.5)
    with pytest.raises(ValueError):
        TolerancePolicy(residual_tol=-1e-9)


def test_rank_with_tol():
    assert rank_with_tol(np.eye(3)) == 3
    assert rank_with_tol(np.zeros((4, 2))) == 0
    m = np.outer([1.0, 2.0, 3.0], [1.0, -1.0])
    assert rank_with_tol(m) == 1
    # tiny perturbation below the relative threshold does not add rank
    assert rank_with_tol(m + 1e-14 * np.eye(3, 2)) == 1


def test_range_and_null_basis():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    ran = range_basis(m)
    ker = null_basis(m)
    assert ran.dim == 1 and ker.dim == 1
    # orthonormality and the defining properties
    assert abs(np.linalg.norm(ran.basis[:, 0]) - 1.0) < 1e-12
    assert np.linalg.norm(m @ ker.basis) < 1e-12
    assert np.linalg.norm(ran.basis @ ran.basis.conj().T @ m - m) < 1e-12


def test_subspace_distance_examples():
    e1 = Subspace(2, np.array([[1.0], [0.0]]))
    e2 = Subspace(2, np.array([[0.0], [1.0]]))
    mid = Subspace(2, np.array([[1.0], [1.0]]) / np.sqrt(2))
    assert subspace_distance(e1, e1) == 0.0
    assert abs(subspace_distance(e1, e2) - 1.0) < 1e-12
    assert abs(subspace_distance(e1, mid) - np.sin(np.pi / 4)) < 1e-12


def test_subspace_intersection_and_complement():
    rng = np.random.default_rng(3)
    q = spla.qr(rng.standard_normal((4, 4)), mode="economic")[0]
    u = Subspace(4, q[:, :3])
    v = Subspace(4, q[:, 1:])
    inter = subspace_intersection(u, v)
    assert inter.dim == 2
    assert inclusion_distance(inter, u) < 1e-10
    assert inclusion_distance(inter, v) < 1e-10
    comp = orthonormal_complement(u)
    assert comp.dim == 1
    assert np.linalg.norm(u.basis.conj().T @ comp.basis) < 1e-10


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_expm_edge_cases():
    assert expm(np.zeros((0, 0))).shape == (0, 0)
    assert np.allclose(expm(np.zeros((2, 2))), np.eye(2))
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_qz_ode_pencil():
    eigs, k = qz_canonical(np.eye(2), np.diag([-1.0, -2.0]))
    assert k == 0
    assert sorted(e.real for e in eigs) == pytest.approx([-2.0, -1.0])


def test_qz_nilpotent_pencil():
    N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    eigs, k = qz_canonical(N2, np.eye(2))
    assert k == 2
    assert all(e == np.inf for e in eigs)


def test_qz_mixed_pencil():
    eigs, k = qz_canonical(np.diag([1.0, 0.0]), np.diag([-1.0, 1.0]))
    assert k == 1
    finite = [e for e in eigs if e != np.inf]
    assert len(finite) == 1 and abs(finite[0] + 1.0) < 1e-10


def test_qz_singular_pencil_raises():
    with pytest.raises(SingularPencil):
        qz_canonical(np.zeros((2, 2)), np.zeros((2, 2)))


def test_subspace_distance_unequal_dims_needs_no_svd(monkeypatch):
    rng = np.random.default_rng(3)
    u = range_basis(rng.standard_normal((6, 2)))
    v = range_basis(rng.standard_normal((6, 3)))
    Pu, Pv = u.basis @ u.basis.conj().T, v.basis @ v.basis.conj().T
    want = min(np.linalg.norm(Pu - Pv, 2), 1.0)

    def no_norm(*args, **kwargs):
        raise AssertionError("unequal dimensions need no norm")
    monkeypatch.setattr(np.linalg, "norm", no_norm)
    assert subspace_distance(u, v) == 1.0 == subspace_distance(v, u)
    assert subspace_distance(Subspace.zero(6), v) == 1.0
    assert abs(want - 1.0) < 1e-12


def test_one_regularity_probe(monkeypatch):
    import adae.numerics
    import adae.pencil
    from adae.pencil import MatrixPencil

    assert probe_regularity(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    assert not probe_regularity(np.zeros((2, 2)), np.zeros((2, 2)))
    assert probe_regularity(np.zeros((0, 0)), np.zeros((0, 0)))
    calls = []

    def counted(E, A, pol):
        calls.append(E.shape)
        return probe_regularity(E, A, pol)
    monkeypatch.setattr(adae.pencil, "probe_regularity", counted)
    monkeypatch.setattr(adae.numerics, "probe_regularity", counted)
    assert not MatrixPencil(np.zeros((2, 2)), np.zeros((2, 2))).regular
    with pytest.raises(SingularPencil,
                       match="^det\\(lam E - A\\) vanishes on the probe set$"):
        qz_canonical(np.zeros((3, 3)), np.zeros((3, 3)))
    assert calls == [(2, 2), (3, 3)]


def test_qz_index_survives_transforms():
    # graded infinite part under well-conditioned mixing
    from conftest import random_index_pencil

    for k in range(4):
        p = random_index_pencil(500 + k, k)
        _, got = qz_canonical(p.E, p.A, p.pol)
        assert got == k


def _real_weierstrass(spec):
    """The canonical form of `spec` under real Gaussian transforms W, T
    drawn from its seed: a real pencil with index spec.true_index
    (weierstrass_pencil's transforms are complex)."""
    ode, blocks = spec.ode_eigenvalues, spec.nilpotent_block_sizes
    E = spla.block_diag(np.eye(len(ode)), *[np.eye(b, k=1) for b in blocks])
    A = spla.block_diag(np.diag(ode), *[np.eye(b) for b in blocks])
    T, W = np.random.default_rng(spec.transform_seed).standard_normal(
        (2,) + E.shape)
    return W @ E @ T, W @ A @ T, spec.true_index


def _complex_qz_finite(E, A):
    """Finite eigenvalues of (E, A) from the complex generalized Schur form,
    split off by qz_canonical's magnitude cut."""
    S, T, _, _ = spla.qz(A.astype(complex), E.astype(complex),
                         output="complex")
    alpha, beta = np.diag(S), np.diag(T)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(alpha) * norm2(E) / (np.abs(beta) * norm2(A))
    keep = (np.abs(beta) > 0) & (np.nan_to_num(z, nan=np.inf) <= 1e3)
    return alpha[keep] / beta[keep]


def _nearest_first(got, want):
    """Pairs (g, w) matching got to want closest pair first, so that the
    order inside conjugate pairs does not matter."""
    d = np.abs(got[:, None] - want[None, :])
    pairs = []
    for _ in range(len(got)):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        pairs.append((got[i], want[j]))
        d[i, :] = d[:, j] = np.inf
    return pairs


def _qz_cases():
    for m in (10, 25):
        p = heat_wave_pencil(HeatWaveConfig(m=m))
        yield f"heat-wave m={m}", p.E, p.A, 1
    for m in (8, 12):
        p = rlc_pencil(RLCConfig(m=m)).companion
        yield f"rlc m={m}", p.E, p.A, 2
    for blocks in ((1,), (2,), (3,), (2, 1), (3, 1), (4,)):
        for ode in ((), (-1.0, -2.0, 0.5)):
            for seed in range(4):
                spec = WeierstrassSpec(ode, blocks, seed)
                yield (repr(spec),) + _real_weierstrass(spec)


def test_real_pencils_take_the_real_qz(monkeypatch):
    # a real pencil takes the real generalized Schur form and keeps the
    # Kronecker index and, as a multiset, the finite eigenvalues of the
    # complex form
    outputs = []
    ordqz = spla.ordqz

    def watched(*args, output, **kwargs):
        outputs.append(output)
        return ordqz(*args, output=output, **kwargs)
    monkeypatch.setattr(spla, "ordqz", watched)
    for name, E, A, index in _qz_cases():
        assert E.dtype == A.dtype == float, name
        eigs, k = qz_canonical(E, A)
        assert k == index, name
        got = np.array([e for e in eigs if e != np.inf], dtype=complex)
        want = _complex_qz_finite(E, A)
        assert len(got) == len(want), name
        for g, w in _nearest_first(got, want):
            assert abs(g - w) <= 1e-12 * abs(w), (name, g, w)
    assert set(outputs) == {"real"}
    _, k = qz_canonical(np.eye(2, dtype=complex), 1j * np.eye(2))
    assert k == 0 and outputs[-1] == "complex"


def _pair_blocks(E, A):
    """Number of 2x2 blocks in the real generalized Schur form of (E, A)."""
    return np.count_nonzero(np.diag(spla.qz(A, E, output="real")[0], -1))


def test_real_qz_keeps_a_paired_infinite_block_whole():
    # the eps^(-1/3) scatter of an index-3 block often leaves a conjugate
    # pair of infinite eigenvalues in a 2x2 block of the real Schur form;
    # the sort keeps the pair together, inside the trailing block, and the
    # link of the Jordan chain that the block carries is kept
    paired = 0
    for seed in range(8):
        E, A, index = _real_weierstrass(WeierstrassSpec((), (3,), seed))
        eigs, k = qz_canonical(E, A)
        assert k == index == 3 and all(e == np.inf for e in eigs), seed
        paired += _pair_blocks(E, A) > 0
    if not paired:
        pytest.skip("the QZ scatter formed no 2x2 block on seeds 0-7")


def _beyond_the_cut():
    # index-1 pencils with finite eigenvalues past the 1e3 magnitude cut,
    # which qz_canonical counts as infinite: lambda = -2000, and a
    # conjugate pair +-1e5 i, a 2x2 block of any real Schur form
    yield "lambda=-2000", np.diag([1.0, 5e-4, 0.0]), -np.eye(3), 2
    rng = np.random.default_rng(0)
    W, T = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
    E = W @ np.diag([1.0, 1e-5, 1e-5, 0.0]) @ T
    A = W @ spla.block_diag(-1.0, [[0.0, 1.0], [-1.0, 0.0]], 1.0) @ T
    assert _pair_blocks(E, A) == 1
    yield "lambda=+-1e5i", E, A, 3


@pytest.mark.parametrize("dtype,phase", [(float, 1.0), (complex, 1j)])
def test_qz_eigenvalues_beyond_the_cut_keep_the_index(dtype, phase):
    # their beta/alpha, up to 1e-3 of the scale of N, sit in the eigenvalue
    # part of N = S22^-1 T22, which must not keep its powers from dropping;
    # the phase keeps the complex pencil complex past as_matrix
    for name, E, A, n_inf in _beyond_the_cut():
        eigs, k = qz_canonical(*(M.astype(dtype) * phase for M in (E, A)))
        assert k == 1 and eigs.count(np.inf) == n_inf, name
