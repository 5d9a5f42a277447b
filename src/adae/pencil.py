"""Matrix pencils, certified resolvents and left/right pseudo-resolvents.

The pencil lam*E - A is the central object.  The left and right
pseudo-resolvents are

    R_l(lam) = E (A - lam E)^-1        (acting on the equation space Z)
    R_r(lam) = (A - lam E)^-1 E        (acting on the state space X)

and every command reaches them through `pseudo_resolvent`, which takes the
one certified inverse of `resolvent_at`.  Both satisfy the resolvent
identity in the form

    R(lam) - R(mu) = (lam - mu) R(lam) R(mu),

which is what `pseudo_resolvent_residual` measures.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .exceptions import NotInResolventSet
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    as_matrix,
    norm2,
    probe_regularity,
)

__all__ = [
    "MatrixPencil",
    "ResolventSample",
    "resolvent_at",
    "pseudo_resolvent",
    "pseudo_resolvent_residual",
]


class MatrixPencil:
    """Pair (E, A) of matrices sharing dimensions and one dtype: float64
    when neither has an imaginary part, complex128 otherwise.

    `regular` is the regularity probe (rank of lam*E - A at pseudo-random
    lambda), taken on first use; rectangular pencils (more rows than
    columns, boundary-row structure from the models module) read None.
    """

    def __init__(self, E, A, pol: TolerancePolicy = DEFAULT_POLICY):
        E, A = as_matrix(E), as_matrix(A)
        dtype = np.result_type(E, A)
        self.E = E.astype(dtype, copy=False)
        self.A = A.astype(dtype, copy=False)
        if self.E.shape != self.A.shape:
            raise ValueError("E and A must share dimensions")
        if self.E.shape[0] < self.E.shape[1]:
            raise ValueError("pencils with fewer rows than columns unsupported")
        self.pol = pol

    @property
    def shape(self):
        return self.E.shape

    @property
    def n(self) -> int:
        return self.E.shape[1]

    @property
    def is_square(self) -> bool:
        return self.E.shape[0] == self.E.shape[1]

    # E and A are never reassigned after construction, so their spectral
    # norms are computed once, on first use
    @cached_property
    def norm_E(self) -> float:
        return norm2(self.E)

    @cached_property
    def norm_A(self) -> float:
        return norm2(self.A)

    @cached_property
    def regular(self) -> bool | None:
        """Is det(lam E - A) not identically zero?  None when not square."""
        if self.is_square:
            return probe_regularity(self.E, self.A, self.pol)

    def norm_scale(self) -> float:
        return max(self.norm_E, self.norm_A, 1.0)

    def __repr__(self):
        return f"MatrixPencil(shape={self.shape}, regular={self.regular})"


@dataclass(frozen=True)
class ResolventSample:
    """(lam*E - A)^-1 together with its conditioning information.

    `min_singular` = 1/||inverse||_2 costs an eigensolve, so it is computed
    on first access only.
    """

    lam: complex
    inverse: np.ndarray

    @cached_property
    def min_singular(self) -> float:
        if not self.inverse.shape[0]:
            return np.inf
        return 1.0 / norm2(self.inverse)


# Acceptance gate for computed inverses.  A raw condition-number threshold
# would wrongly reject graded matrices (lam E - A of a high-index pencil at
# large lam has cond ~ lam^k yet inverts to near machine accuracy under
# pivoted LU), so membership in the resolvent set is decided by the residual
# of the inverse actually obtained.
_INV_RESIDUAL_TOL = 1e-6
# relative slack that keeps rounding in the cheap norm bounds from deciding
_BOUND_MARGIN = 1.0 - 1e-8
# entries of an inverse below _FLUSH times its largest are set to 0 (see
# _certified_inverse)
_FLUSH = np.finfo(float).eps ** 2


# Bounds on the 2-norm of a square Y that need no factorization, from its
# entries' absolute values a = |Y|: max(||Y||_1, ||Y||_inf, ||Y||_F) /
# sqrt(n) <= ||Y||_2 <= min(||Y||_F, sqrt(||Y||_1 ||Y||_inf)).
def _norm2_lower(a):
    return max(a.sum(axis=0).max(), a.sum(axis=1).max(),
               np.sqrt(np.vdot(a, a))) / np.sqrt(len(a))


def _norm2_upper(a):
    return min(np.sqrt(np.vdot(a, a)),
               np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()))


def _certified_inverse(m, lam):
    n = m.shape[0]
    if n == 0:
        return np.zeros_like(m)
    try:
        # scipy warns of ill-conditioning by rcond, which the residual gate
        # below does not go by (see _INV_RESIDUAL_TOL)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.LinAlgWarning)
            inv = spla.inv(m)
    except spla.LinAlgError:
        raise NotInResolventSet(lam, "matrix singular to working precision")
    if not np.all(np.isfinite(inv)):
        raise NotInResolventSet(lam, "inverse overflowed")
    # Flush to 0 every entry below eps^2 max|inv_ij|.  Each moves by less
    # than that, so the inverse moves by ||D||_2 <= n eps^2 ||inv||_2, a
    # factor 2^-52 n below its own rounding error, and negation still
    # commutes with it.  At large lam, lam E - A of a DAE inverts to entries
    # down to the subnormal range (heat-wave m = 50, lam >= 1e5: 816-1036 of
    # 40 000), and every product and Gram matrix formed from them takes
    # x86's slow subnormal path: 2.0-3.8 ms per 200 x 200 Gram product
    # against 0.2 ms on a Xeon with OpenBLAS (BENCH_18.json).  The gate
    # below certifies the flushed inverse.
    a = np.abs(inv)
    tiny = a < _FLUSH * a.max()
    inv[tiny] = 0
    a[tiny] = 0
    X = m @ inv - np.eye(n)
    # a backward-stable inverse satisfies resid <~ n eps ||m|| ||inv|| no
    # matter the conditioning, so reject only clear failures of that bound.
    # The gate is in exact 2-norms, but each one costs an eigensolve.  Try
    # it first with cheap bounds that can only make acceptance harder: an
    # upper bound on the residual and lower bounds on the floor, shrunk by
    # _BOUND_MARGIN against rounding in the norms (and not used once they
    # overflow).  What passes them passes the exact gate; the rest goes to
    # the exact gate, so the decision and the message never differ from the
    # exact gate's.
    eps_n = n * np.finfo(float).eps
    resid_hi = _norm2_upper(np.abs(X))
    floor_lo = eps_n * _norm2_lower(np.abs(m)) * _norm2_lower(a)
    if (np.isfinite(floor_lo) and resid_hi
            <= _BOUND_MARGIN * max(_INV_RESIDUAL_TOL, 1e3 * floor_lo)):
        return inv
    resid = norm2(X)
    floor = eps_n * norm2(m) * norm2(inv)
    if resid > max(_INV_RESIDUAL_TOL, 1e3 * floor):
        raise NotInResolventSet(lam, f"inversion residual {resid:.3e}")
    return inv


def resolvent_at(p: MatrixPencil, lam: complex) -> ResolventSample:
    """Certified inverse of lam*E - A, with its entries below eps^2 times
    the largest set to 0."""
    if not p.is_square:
        raise ValueError("resolvent_at requires a square pencil")
    m = lam * p.E - p.A
    return ResolventSample(lam=lam, inverse=_certified_inverse(m, lam))


def _side_product(p: MatrixPencil, G: np.ndarray, side: str) -> np.ndarray:
    """The pseudo-resolvent E G (left) or G E (right), G = (A - lam E)^-1."""
    if side == "left":
        return p.E @ G
    if side == "right":
        return G @ p.E
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def pseudo_resolvent(p: MatrixPencil, lam: complex, side: str) -> np.ndarray:
    # pivoted LU and the flush commute with negation, so the negated
    # certified inverse of lam E - A is bitwise that of A - lam E
    return _side_product(p, -resolvent_at(p, lam).inverse, side)


def pseudo_resolvent_residual(p: MatrixPencil, lam: complex, mu: complex,
                              side: str = "left") -> float:
    """Defect in the resolvent identity R(lam)-R(mu) = (lam-mu) R(lam)R(mu)."""
    if lam == mu:
        raise ValueError("lambda and mu must differ")
    rl = pseudo_resolvent(p, lam, side)
    rm = pseudo_resolvent(p, mu, side)
    defect = (rl - rm) / (lam - mu) - rl @ rm
    return norm2(defect)
