import numpy as np
import pytest
import scipy.linalg as spla

from adae.exceptions import SingularPencil
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
    assert np.linalg.norm(ran.projector() @ m - m) < 1e-12


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
    want = min(np.linalg.norm(u.projector() - v.projector(), 2), 1.0)

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
