"""Dense linear-algebra substrate with an explicit tolerance policy.

All matrices are dense ``numpy`` arrays, float64 or complex128: ``as_matrix``
makes that choice once, where data enters (float64 when the input has no
imaginary part), and numpy carries the dtype from there, so a real pencil is
factored in real arithmetic end to end.  The QZ oracle follows the same rule:
a real pencil takes the real generalized Schur form, whose S is only
quasi-triangular (2x2 blocks for complex-conjugate pairs), a complex pencil
the complex one.  Subspaces are stored as orthonormal
basis matrices; rank decisions go through a single relative threshold so
that downstream modules share one notion of "numerically zero".

Every spectral norm and every SVD of the package is taken here:

* ``norm2(X)`` is the square root of the largest eigenvalue of the smaller
  Gram matrix, ``X^T X`` (one BLAS syrk) for real data and ``X^H X`` for
  complex data, from the symmetric eigensolver.  Forming X^H X perturbs
  it by O(n eps) ||X||^2 (by at most n eps |||X|||^2 <= n^2 eps ||X||^2),
  the eigensolver is backward stable, and lambda_max of a Hermitian matrix
  moves by no more than the norm of a perturbation; so lambda_max(X^H X),
  and its square root sigma_max(X), come out to O(n eps) relative
  accuracy.  Squaring costs accuracy only in the small singular values,
  which a norm never reads (Golub & Van Loan, Matrix Computations,
  sec. 8.6; Higham, Accuracy and Stability of Numerical Algorithms,
  ch. 20).  X is rescaled by max |x_ij| only when the Gram's largest
  eigenvalue would leave [1e-280, 1e280].  Rows and columns of X that are
  exactly zero are dropped first: they carry no singular value, so the
  norm is unchanged, and the Gram matrix is formed and eigensolved at the
  order of the nonzero lines (the algebraic rows of a semi-explicit DAE's E
  are zero, so are those of E (A - lam E)^-1).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .exceptions import SingularPencil

__all__ = [
    "TolerancePolicy",
    "Subspace",
    "as_matrix",
    "norm2",
    "svdvals",
    "svd",
    "rank_from_svals",
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


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-d array, float64 when it has no imaginary part and
    complex128 otherwise (no copy when it is already so), and reject
    non-finite entries."""
    a = np.atleast_2d(np.asarray(m))
    if not np.iscomplexobj(a):
        a = np.asarray(a, dtype=float)
    elif np.any(a.imag):
        a = np.asarray(a, dtype=complex)
    else:
        a = np.ascontiguousarray(a.real, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN/Inf entries")
    return a


class Subspace:
    """A subspace of C^n stored as a matrix with orthonormal columns."""

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        basis = np.asarray(basis).reshape(ambient_dim, -1)
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

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


# the Gram matrix's largest eigenvalue lies in [d, k d] for d its largest
# diagonal entry and k its order; inside these limits it neither underflows
# nor overflows
_GRAM_LO, _GRAM_HI = 1e-280, 1e280


def norm2(m):
    """Spectral norm ||m||_2, the square root of the largest eigenvalue of
    the smaller Gram matrix of m's nonzero rows and columns (see the module
    docstring); 0 on empty or all-zero input.

    m is one matrix, which gives a float, or an (L, r, c) stack, which
    gives the L norms of its slices, each bitwise the norm of that slice
    alone.  The slices are grouped by their pattern of exactly zero rows
    and columns, and each group takes one stacked Gram product and one
    stacked eigensolve; numpy runs both slice by slice through the same
    BLAS and LAPACK calls as for one matrix, which `_norm2_one` takes
    without the grouping.
    """
    m = np.asarray(m)
    if m.ndim == 2:
        return _norm2_one(m)
    # zero rows and columns carry no singular value; a stack without a zero
    # entry has none, and one count tells so
    if np.count_nonzero(m) == m.size:
        return _gram_norm2(m)
    keep_rows, keep_cols = m.any(axis=2), m.any(axis=1)
    groups = {}
    for i, (r, c) in enumerate(zip(keep_rows, keep_cols)):
        groups.setdefault((r.tobytes(), c.tobytes()), []).append(i)
    out = np.empty(len(m))
    for idx in groups.values():
        r, c = keep_rows[idx[0]], keep_cols[idx[0]]
        sub = _take(m, idx)
        # compress copies in C order: the Gram product of a slice is
        # then one syrk, not a gemm, which would round otherwise
        if not r.all():
            sub = sub.compress(r, axis=1)
        if not c.all():
            sub = sub.compress(c, axis=2)
        out[idx] = _gram_norm2(sub)
    return out


def _norm2_one(a):
    """norm2 of one matrix: its zero lines dropped as for a stack of one
    slice, then the Gram product and eigensolve of `_gram_norm2`."""
    if np.count_nonzero(a) < a.size:
        keep_rows, keep_cols = a.any(axis=1), a.any(axis=0)
        if not keep_rows.all():
            a = a.compress(keep_rows, axis=0)
        if not keep_cols.all():
            a = a.compress(keep_cols, axis=1)
    rows, cols = a.shape
    if not (rows and cols):
        return 0.0
    ah = a.conj().T if np.iscomplexobj(a) else a.T
    with np.errstate(over="ignore", invalid="ignore"):  # rescaled below
        gram = ah @ a if rows >= cols else a @ ah
    d = gram.diagonal().real.max()
    if _GRAM_LO <= d and d * len(gram) <= _GRAM_HI:
        return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))
    s = np.abs(a).max()  # the norm itself when zero or not finite
    return float(s if not 0.0 < s < np.inf else s * _norm2_one(a / s))


def _take(stack, idx):
    """The slices idx of stack, without a copy when they are all of it."""
    return stack if len(idx) == len(stack) else stack[idx]


def _gram_norm2(a):
    """norm2 of each slice of the stack a, none of whose slices has an
    exactly zero row or column to drop."""
    size, rows, cols = a.shape
    if not (size and rows and cols):
        return np.zeros(size)
    ah = (a.conj() if np.iscomplexobj(a) else a).transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # rescaled below
        gram = ah @ a if rows >= cols else a @ ah
    d = gram.diagonal(0, 1, 2).real.max(axis=1)
    k = gram.shape[1]
    # a NaN fails both tests, and its slice goes to the rescaling below
    if _GRAM_LO <= d.min() and d.max() * k <= _GRAM_HI:
        return np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
    fits = (_GRAM_LO <= d) & (d * k <= _GRAM_HI)
    out = np.empty(size)
    if fits.any():
        out[fits] = np.sqrt(np.linalg.eigvalsh(gram[fits])[:, -1])
    for i in np.flatnonzero(~fits):
        out[i] = _norm2_one(a[i])
    return out


def svdvals(m) -> np.ndarray:
    """Singular values of m in descending order.  For an (L, r, c) stack,
    those of each slice, from one stacked LAPACK call; each row is bitwise
    what the one-matrix call gives for its slice."""
    m = np.asarray(m)
    if m.ndim == 2:
        return spla.svdvals(m)
    return np.linalg.svd(m, compute_uv=False)


def svd(m, full_matrices: bool = True):
    """(u, s, vh) with m = u diag(s) vh."""
    return spla.svd(m, full_matrices=full_matrices)


def rank_from_svals(s, shape, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Numerical rank of a matrix of `shape` with descending singular values
    `s`: the count above rank_rel_tol * s[0] * max(shape)."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > pol.rank_rel_tol * s[0] * max(shape)))


def rank_with_tol(m, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Numerical rank: count singular values above the relative threshold."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    return rank_from_svals(svdvals(a), a.shape, pol)


def range_basis(m, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Orthonormal basis of the column space of m."""
    a = as_matrix(m)
    u, s, _ = svd(a)
    return Subspace(a.shape[0], u[:, :rank_from_svals(s, a.shape, pol)])


def null_basis(m, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Orthonormal basis of the null space of m."""
    a = as_matrix(m)
    _, s, vh = svd(a)
    r = rank_from_svals(s, a.shape, pol)
    return Subspace(a.shape[1], vh[r:, :].conj().T)


def subspace_distance(u: Subspace, v: Subspace) -> float:
    """Gap metric: the largest principal-angle sine between two subspaces.

    For equal dimensions ||P_u - P_v||_2 = ||(I - P_v) U||_2, which is
    inclusion_distance; subspaces of unequal dimension are at distance
    exactly 1, with no factorization.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if u.dim != v.dim:
        return 1.0
    return float(min(inclusion_distance(u, v), 1.0))


def inclusion_distance(u: Subspace, v: Subspace) -> float:
    """How far u is from being contained in v: max sine over directions of u."""
    if u.dim == 0:
        return 0.0
    return norm2(u.basis - v.basis @ (v.basis.conj().T @ u.basis))


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
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("expm requires a square matrix")
    if a.shape[0] == 0:
        return np.zeros((0, 0), dtype=a.dtype)
    return spla.expm(a)


def _nilpotent_part(N, sub):
    """N, block upper triangular like the S22 whose subdiagonal is `sub`,
    with the eigenvalues of its diagonal blocks moved to 0.

    The diagonal of N = S22^-1 T22 holds beta/alpha: the scatter of the
    infinite eigenvalues, but also up to 1e-3 of N's scale for a large
    finite eigenvalue beyond the cut, and powers of N would not drop at the
    index.  A 1x1 block becomes 0, so the complex form (sub all zero) gets
    np.triu(N, 1).  A 2x2 block of the real form is c I + [[p, h], [h, -p]]
    + [[0, w], [-w, 0]]; it keeps p and h and gets w of size hypot(p, h).
    That block is real, nilpotent and of Frobenius norm 2 hypot(p, h), the
    off-diagonal entry of its complex Schur form, which np.triu keeps: a
    link of the Jordan chain stays, a rotation by a conjugate pair goes.
    """
    out = np.triu(N, 1)
    for i in np.flatnonzero(sub):
        (a, b), (c, d) = N[i:i + 2, i:i + 2]
        p, h = (a - d) / 2, (b + c) / 2
        w = np.copysign(np.hypot(p, h), b - c)
        out[i:i + 2, i:i + 2] = [[p, h + w], [h - w, -p]]
    return out


def qz_canonical(E, A, pol: TolerancePolicy = DEFAULT_POLICY):
    """Generalized-Schur oracle for a regular square pencil lam*E - A.

    Returns (eigenvalues, index): the generalized eigenvalues (np.inf for the
    infinite part) and the nilpotency index of the infinite-eigenvalue block,
    i.e. the Kronecker index of the pencil.  Entirely independent of the
    pseudo-resolvent machinery, so usable as a cross-check oracle.

    A real pencil takes the real generalized Schur form (ordqz with
    output="real"), a complex one (E or A complex) the complex form; only
    the dtype of the pencil decides.  In the real form S is quasi-triangular,
    with a 2x2 block for each complex-conjugate pair, so the trailing block
    S22 is inverted by a general solve.
    """
    E = as_matrix(E)
    A = as_matrix(A)
    if E.shape != A.shape or E.shape[0] != E.shape[1]:
        raise ValueError("qz_canonical requires a square pencil")
    return _qz_regular(E, A, probe_regularity(E, A, pol))


def _qz_regular(E, A, regular: bool):
    """qz_canonical of a square pencil whose matrices have been through
    as_matrix and whose regularity has been probed."""
    if not regular:
        raise SingularPencil("det(lam E - A) vanishes on the probe set")
    n = E.shape[0]
    if n == 0:
        return [], 0

    # eigenproblem A x = lam E x; sort finite eigenvalues to the leading
    # block.  QZ scatters the infinite eigenvalues of a size-k nilpotent
    # block to magnitude ~ eps^(-1/k) (dimensionless), so the finite/infinite
    # split is a magnitude cutoff, not a beta ~ 0 test; reliable up to k ~ 4.
    normE = max(norm2(E), np.finfo(float).tiny)
    normA = max(norm2(A), np.finfo(float).tiny)
    cutoff = 1e3

    # both members of a conjugate pair of the real form have the same
    # |alpha| and beta, so the same z: the sort keeps a 2x2 block whole, on
    # one side of the cut, also when the scatter of a nilpotent block of
    # size >= 3 pairs infinite eigenvalues into one
    def finite(alpha, beta):
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(alpha) * normE / (np.abs(beta) * normA)
        return (np.abs(beta) > 0) & (np.nan_to_num(z, nan=np.inf) <= cutoff)

    output = "real" if np.result_type(E, A) == float else "complex"
    S, T, alpha, beta, _, _ = spla.ordqz(A, E, sort=finite, output=output)
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
    # T22 (quasi-)nilpotent; the index is the nilpotency index of the
    # nilpotent part of S22^-1 T22.  S22 is only quasi-triangular in the
    # real form, so one general solve gives S22^-1 and N together.  Powers
    # of N are compared against an absolute floor set by the QZ backward
    # error (eps * ||T||, amplified by S22^-1); a relative rank test would
    # mistake that noise for structure.
    S22 = S[n - n_inf:, n - n_inf:]
    T22 = T[n - n_inf:, n - n_inf:]
    X = np.linalg.solve(S22, np.hstack([np.eye(n_inf), T22]))
    Sinv_norm = norm2(X[:, :n_inf])
    N = _nilpotent_part(X[:, n_inf:], np.diagonal(S22, -1))
    floor = 100.0 * n * np.finfo(float).eps * Sinv_norm * norm2(T)
    gain = max(1.0, norm2(N))
    idx = 1
    P = N.copy()
    prev = None
    while True:
        nrm = norm2(P)
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
