"""Matrix pencils, certified resolvents and left/right pseudo-resolvents.

The pencil lam*E - A is the central object.  The left and right
pseudo-resolvents are

    R_l(lam) = E (A - lam E)^-1        (acting on the equation space Z)
    R_r(lam) = (A - lam E)^-1 E        (acting on the state space X)

and every inverse of lam*E - A is the one certified inverse
`_certified_inverse`, which takes a stack of lambda at once.  `_resolvents`
forms that stack for a list of lambda (the growth sweeps call it with
blocks of their grids), `resolvent_at` is its one-lambda call, and
`pseudo_resolvent` negates the inverse of `resolvent_at`.  Each slice of a
stack is inverted, flushed and decided bitwise as if it were alone.  Both
pseudo-resolvents satisfy the resolvent identity in the form

    R(lam) - R(mu) = (lam - mu) R(lam) R(mu),

which is what `pseudo_resolvent_residual` measures.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .exceptions import NotInResolventSet
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _take,
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
    """Pair (E, A) of square matrices of one size and one dtype: float64
    when neither has an imaginary part, complex128 otherwise.  A pencil
    that is not square has no lambda with lam*E - A bijective, so it is
    refused.

    `regular` is the regularity probe (rank of lam*E - A at pseudo-random
    lambda), taken on first use.
    """

    def __init__(self, E, A, pol: TolerancePolicy = DEFAULT_POLICY):
        E, A = as_matrix(E), as_matrix(A)
        if E.shape != A.shape or E.shape[0] != E.shape[1]:
            raise ValueError("E and A must be square matrices of one size, "
                             f"got {E.shape} and {A.shape}")
        dtype = np.result_type(E, A)
        self.E = E.astype(dtype, copy=False)
        self.A = A.astype(dtype, copy=False)
        self.pol = pol

    @property
    def shape(self):
        return self.E.shape

    @property
    def n(self) -> int:
        return self.E.shape[1]

    # E and A are never reassigned after construction, so their spectral
    # norms are computed once, on first use
    @cached_property
    def norm_E(self) -> float:
        return norm2(self.E)

    @cached_property
    def norm_A(self) -> float:
        return norm2(self.A)

    @cached_property
    def regular(self) -> bool:
        """Is det(lam E - A) not identically zero?"""
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
_EPS = np.finfo(float).eps
# entries of an inverse below _FLUSH times its largest are set to 0 (see
# _certified_inverse)
_FLUSH = _EPS ** 2


# Bounds on the 2-norm of a square Y that need no factorization, from its
# entries' absolute values a = |Y|: max(||Y||_1, ||Y||_inf, ||Y||_F) /
# sqrt(n) <= ||Y||_2 <= min(||Y||_F, sqrt(||Y||_1 ||Y||_inf)).
def _norm2_bounds(a):
    """(lower, upper) bounds on ||Y||_2 from a = |Y|, for one matrix or for
    each slice of a stack, from one pass over a."""
    x = a.reshape(*a.shape[:-2], 1, -1)
    fro = np.sqrt((x @ np.swapaxes(x, -1, -2))[..., 0, 0])  # a BLAS dot each
    one, inf = a.sum(axis=-2).max(axis=-1), a.sum(axis=-1).max(axis=-1)
    return (np.maximum(np.maximum(one, inf), fro) / math.sqrt(a.shape[-1]),
            np.minimum(fro, np.sqrt(one * inf)))


def _certified_inverse(m, lams):
    """Certified inverses of the (L, n, n) stack m, whose slice i is
    lams[i] E - A (lams[i] names it in its error).

    Returns the stack of inverses, with every entry below eps^2 times its
    slice's largest set to 0, and per slice None or the NotInResolventSet
    that says why it has no inverse (its slice of the stack is then 0).
    Each slice is decided and flushed as if it were inverted alone.
    """
    size, n = m.shape[:2]
    errors = [None] * size
    if n == 0:
        return np.zeros_like(m), errors
    # scipy warns of ill-conditioning by rcond, which the residual gate
    # below does not go by (see _INV_RESIDUAL_TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.LinAlgWarning)
        try:
            inv = spla.inv(m)
        except spla.LinAlgError:
            # the stacked call fails as a whole, and its message does not
            # say which slice is singular: invert each slice alone
            inv = np.zeros(m.shape, np.result_type(m, float))
            for i in range(size):
                try:
                    inv[i] = spla.inv(m[i])
                except spla.LinAlgError:
                    errors[i] = NotInResolventSet(
                        lams[i], "matrix singular to working precision")
    finite = np.isfinite(inv)
    if not finite.all():
        for i in np.flatnonzero(~finite.all(axis=(1, 2))):
            errors[i] = NotInResolventSet(lams[i], "inverse overflowed")
            inv[i] = 0
    # Flush to 0 every entry below eps^2 max|inv_ij|.  Each moves by less
    # than that, so the inverse moves by ||D||_2 <= n eps^2 ||inv||_2, a
    # factor 2^-52 n below its own rounding error, and negation still
    # commutes with it.  At large lam, lam E - A of a DAE inverts to entries
    # down to the subnormal range (heat-wave m = 50, lam >= 1e5: 816-1036 of
    # 40 000), and every product and Gram matrix formed from them takes
    # x86's slow subnormal path: 2.0-3.8 ms per 200 x 200 Gram product
    # against 0.2 ms on a Xeon with OpenBLAS (BENCH_18.json).  The gate
    # below certifies the flushed inverse.
    absolute = np.empty((3, *m.shape))  # |X|, |m|, |inv| for _norm2_bounds
    a = np.abs(inv, out=absolute[2])
    tiny = a < _FLUSH * a.max(axis=(1, 2), keepdims=True)
    inv[tiny] = 0
    a[tiny] = 0
    X = m @ inv - np.eye(n)
    np.abs(X, out=absolute[0])
    np.abs(m, out=absolute[1])
    # a backward-stable inverse satisfies resid <~ n eps ||m|| ||inv|| no
    # matter the conditioning, so reject only clear failures of that bound.
    # The gate is in exact 2-norms, but each one costs an eigensolve.  Try
    # it first with cheap bounds that can only make acceptance harder: an
    # upper bound on the residual and lower bounds on the floor, shrunk by
    # _BOUND_MARGIN against rounding in the norms (and not used once they
    # overflow).  What passes them passes the exact gate; the rest goes to
    # the exact gate, so the decision and the message never differ from the
    # exact gate's.
    eps_n = n * _EPS
    with np.errstate(over="ignore"):  # an overflowing bound is not used
        lower, upper = _norm2_bounds(absolute)
        resid_hi, floor_lo = upper[0], eps_n * lower[1] * lower[2]
    passed = np.isfinite(floor_lo) & (resid_hi <= _BOUND_MARGIN * np.maximum(
        _INV_RESIDUAL_TOL, 1e3 * floor_lo))
    exact = [] if passed.all() else [
        i for i in np.flatnonzero(~passed) if errors[i] is None]
    if exact:
        resid = norm2(_take(X, exact))
        floor = eps_n * norm2(_take(m, exact)) * norm2(_take(inv, exact))
        for i, r, f in zip(exact, resid, floor):
            if r > max(_INV_RESIDUAL_TOL, 1e3 * f):
                errors[i] = NotInResolventSet(
                    lams[i], f"inversion residual {r:.3e}")
                inv[i] = 0
    return inv, errors


def _resolvents(p: MatrixPencil, lams):
    """Certified inverses of lam*E - A for each lam of `lams`: the (L, n, n)
    stack of `_certified_inverse` and, per lam, None or why it is not in
    the resolvent set."""
    m = np.asarray(lams)[:, None, None] * p.E - p.A
    return _certified_inverse(m, lams)


def resolvent_at(p: MatrixPencil, lam: complex) -> ResolventSample:
    """Certified inverse of lam*E - A, with its entries below eps^2 times
    the largest set to 0: the one-lambda call of `_resolvents`."""
    inv, (error,) = _resolvents(p, [lam])
    if error is not None:
        raise error
    return ResolventSample(lam=lam, inverse=inv[0])


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
