"""Dense complex linear-algebra substrate with an explicit tolerance policy.

All matrices are dense complex ``numpy`` arrays.  Subspaces are stored as
orthonormal basis matrices; rank decisions go through a single relative
threshold so that downstream modules share one notion of "numerically zero".
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .exceptions import SingularPencil

__all__ = [
    "TolerancePolicy",
    "Subspace",
    "as_cmatrix",
    "rank_with_tol",
    "range_basis",
    "null_basis",
    "subspace_distance",
    "inclusion_distance",
    "subspace_intersection",
    "orthonormal_complement",
    "probe_regularity",
    "expm",
    "qz_canonical",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative thresholds for rank, subspace and residual decisions."""

    rank_rel_tol: float = 1e-10
    subspace_tol: float = 1e-8
    residual_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel_tol", "subspace_tol", "residual_tol"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


DEFAULT_POLICY = TolerancePolicy()


def as_cmatrix(m) -> np.ndarray:
    """Coerce input to a 2-d complex array and reject non-finite entries."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN/Inf entries")
    return a


class Subspace:
    """A subspace of C^n stored as a matrix with orthonormal columns."""

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex).reshape(ambient_dim, -1)
        self.ambient_dim = int(ambient_dim)
        self.basis = basis
        if basis.shape[1]:
            gram = basis.conj().T @ basis
            if np.linalg.norm(gram - np.eye(basis.shape[1])) > 1e-8:
                raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace, in ambient coordinates."""
        return self.basis @ self.basis.conj().T

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def rank_with_tol(m, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Numerical rank: count singular values above the relative threshold."""
    a = as_cmatrix(m)
    if a.size == 0:
        return 0
    s = spla.svdvals(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    thresh = pol.rank_rel_tol * s[0] * max(a.shape)
    return int(np.count_nonzero(s > thresh))


def _svd_split(m, pol):
    a = as_cmatrix(m)
    u, s, vh = spla.svd(a, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        r = 0
    else:
        r = int(np.count_nonzero(s > pol.rank_rel_tol * s[0] * max(a.shape)))
    return u, s, vh, r


def range_basis(m, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Orthonormal basis of the column space of m."""
    a = as_cmatrix(m)
    u, _, _, r = _svd_split(a, pol)
    return Subspace(a.shape[0], u[:, :r])


def null_basis(m, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Orthonormal basis of the null space of m."""
    a = as_cmatrix(m)
    _, _, vh, r = _svd_split(a, pol)
    return Subspace(a.shape[1], vh[r:, :].conj().T)


def subspace_distance(u: Subspace, v: Subspace) -> float:
    """Gap metric: the largest principal-angle sine between two subspaces.

    Computed as the spectral norm of the projector difference; subspaces of
    unequal dimension are at distance exactly 1, with no SVD.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if u.dim != v.dim:
        return 1.0
    if u.dim == 0:
        return 0.0
    d = np.linalg.norm(u.projector() - v.projector(), 2)
    return float(min(d, 1.0))


def inclusion_distance(u: Subspace, v: Subspace) -> float:
    """How far u is from being contained in v: max sine over directions of u."""
    if u.dim == 0:
        return 0.0
    resid = u.basis - v.projector() @ u.basis
    return float(np.linalg.norm(resid, 2))


def subspace_intersection(u: Subspace, v: Subspace,
                          pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Intersection via the nullspace of the stacked orthonormal bases."""
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    coeffs = null_basis(np.hstack([u.basis, -v.basis]), pol)
    if coeffs.dim == 0:
        return Subspace.zero(u.ambient_dim)
    vecs = u.basis @ coeffs.basis[: u.dim, :]
    return range_basis(vecs, pol)


def orthonormal_complement(u: Subspace, within: Subspace | None = None,
                           pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Orthogonal complement of u inside `within` (default: ambient space)."""
    n = u.ambient_dim
    if within is None:
        within = Subspace.full(n)
    # directions of `within` annihilated by projection onto u
    m = u.basis.conj().T @ within.basis
    if u.dim == 0:
        return within
    coeffs = null_basis(m, pol)
    return Subspace(n, within.basis @ coeffs.basis)


def probe_regularity(E, A, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Is det(lam E - A) not identically zero?  Full rank of lam E - A at
    one seeded random phase on each of 8 magnitudes 1..1e6 decides it."""
    n = A.shape[1]
    if n == 0:
        return True
    rng = np.random.default_rng(11)
    for mag in np.logspace(0, 6, 8):
        lam = mag * np.exp(2j * np.pi * rng.random())
        if rank_with_tol(lam * E - A, pol) == n:
            return True
    return False


def expm(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade, via scipy)."""
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("expm requires a square matrix")
    if a.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    return spla.expm(a)


def qz_canonical(E, A, pol: TolerancePolicy = DEFAULT_POLICY):
    """Generalized-Schur oracle for a regular square pencil lam*E - A.

    Returns (eigenvalues, index): the generalized eigenvalues (np.inf for the
    infinite part) and the nilpotency index of the infinite-eigenvalue block,
    i.e. the Kronecker index of the pencil.  Entirely independent of the
    pseudo-resolvent machinery, so usable as a cross-check oracle.
    """
    E = as_cmatrix(E)
    A = as_cmatrix(A)
    n = E.shape[0]
    if E.shape != A.shape or E.shape[0] != E.shape[1]:
        raise ValueError("qz_canonical requires a square pencil")
    if n == 0:
        return [], 0
    if not probe_regularity(E, A, pol):
        raise SingularPencil("det(lam E - A) vanishes on the probe set")

    # eigenproblem A x = lam E x; sort finite eigenvalues to the leading
    # block.  QZ scatters the infinite eigenvalues of a size-k nilpotent
    # block to magnitude ~ eps^(-1/k) (dimensionless), so the finite/infinite
    # split is a magnitude cutoff, not a beta ~ 0 test; reliable up to k ~ 4.
    normE = max(np.linalg.norm(E, 2), np.finfo(float).tiny)
    normA = max(np.linalg.norm(A, 2), np.finfo(float).tiny)
    cutoff = 1e3

    def finite(alpha, beta):
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(alpha) * normE / (np.abs(beta) * normA)
        return (np.abs(beta) > 0) & (np.nan_to_num(z, nan=np.inf) <= cutoff)

    S, T, alpha, beta, _, _ = spla.ordqz(A, E, sort=finite, output="complex")
    eigs = []
    n_inf = 0
    for a_i, b_i in zip(alpha, beta):
        if finite(np.array([a_i]), np.array([b_i]))[0]:
            eigs.append(complex(a_i / b_i))
        else:
            eigs.append(np.inf)
            n_inf += 1
    if n_inf == 0:
        return eigs, 0

    # trailing block carries the infinite eigenvalues: S22 invertible,
    # T22 (quasi-)nilpotent; the index is the nilpotency index of S22^-1 T22.
    # Powers of N are compared against an absolute floor set by the QZ
    # backward error (eps * ||T||, amplified by S22^-1); a relative rank test
    # would mistake that noise for structure.
    S22 = S[n - n_inf:, n - n_inf:]
    T22 = T[n - n_inf:, n - n_inf:]
    Sinv_norm = np.linalg.norm(spla.solve_triangular(
        S22, np.eye(n_inf, dtype=complex)), 2)
    N = np.triu(spla.solve_triangular(S22, T22), 1)
    floor = 100.0 * n * np.finfo(float).eps * Sinv_norm * np.linalg.norm(T, 2)
    gain = max(1.0, np.linalg.norm(N, 2))
    idx = 1
    P = N.copy()
    prev = None
    while True:
        nrm = np.linalg.norm(P, 2)
        # N^j for j below the nilpotency index keeps O(1) of the previous
        # norm; the first vanishing power collapses to the eps^(1/k) scatter
        # left by QZ, several orders below
        thresh = floor * gain ** (idx - 1)
        if prev is not None:
            thresh = max(thresh, 1e-4 * prev * gain)
        if nrm <= thresh:
            break
        prev = nrm
        P = P @ N
        idx += 1
        if idx > n_inf + 1:  # cannot happen for a regular pencil
            raise SingularPencil("infinite part failed to nilpotate")
    return eigs, idx
