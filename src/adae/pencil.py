"""Matrix pencils, resolvents, left/right pseudo-resolvents, linear relations.

The pencil lam*E - A is the central object.  The left and right
pseudo-resolvents are

    R_l(lam) = E (A - lam E)^-1        (acting on the equation space Z)
    R_r(lam) = (A - lam E)^-1 E        (acting on the state space X)

Both satisfy the resolvent identity in the form

    R(lam) - R(mu) = (lam - mu) R(lam) R(mu),

which is what `pseudo_resolvent_residual` measures.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .exceptions import GridTooCoarse, NotInResolventSet
from .numerics import (
    DEFAULT_POLICY,
    Subspace,
    TolerancePolicy,
    as_matrix,
    norm2,
    null_basis,
    probe_regularity,
    range_basis,
)

__all__ = [
    "MatrixPencil",
    "ResolventSample",
    "LinearRelation",
    "resolvent_at",
    "left_resolvent",
    "right_resolvent",
    "pseudo_resolvent",
    "pseudo_resolvent_residual",
    "relation_L_left",
    "relation_L_right",
    "relation_from_pseudo_resolvent",
    "relation_parts",
    "relation_resolvent",
    "mild_membership_residual",
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


def left_resolvent(p: MatrixPencil, lam: complex) -> np.ndarray:
    """R_l(lam) = E (A - lam E)^-1."""
    return pseudo_resolvent(p, lam, "left")


def right_resolvent(p: MatrixPencil, lam: complex) -> np.ndarray:
    """R_r(lam) = (A - lam E)^-1 E."""
    return pseudo_resolvent(p, lam, "right")


def pseudo_resolvent_residual(p: MatrixPencil, lam: complex, mu: complex,
                              side: str = "left") -> float:
    """Defect in the resolvent identity R(lam)-R(mu) = (lam-mu) R(lam)R(mu)."""
    if lam == mu:
        raise ValueError("lambda and mu must differ")
    rl = pseudo_resolvent(p, lam, side)
    rm = pseudo_resolvent(p, mu, side)
    defect = (rl - rm) / (lam - mu) - rl @ rm
    return norm2(defect)


class LinearRelation:
    """A linear relation: a subspace of the product of two spaces."""

    def __init__(self, dim_first: int, dim_second: int, space: Subspace):
        if space.ambient_dim != dim_first + dim_second:
            raise ValueError("product-space dimension mismatch")
        self.dim_first = dim_first
        self.dim_second = dim_second
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    def first_block(self) -> np.ndarray:
        return self.space.basis[: self.dim_first, :]

    def second_block(self) -> np.ndarray:
        return self.space.basis[self.dim_first:, :]

    def __repr__(self):
        return (f"LinearRelation(dim={self.dim}, "
                f"ambient=({self.dim_first},{self.dim_second}))")


def relation_L_left(p: MatrixPencil) -> LinearRelation:
    """L_l = {(Ex, Ax)}: the range of the stacked matrix [E; A]."""
    stacked = np.vstack([p.E, p.A])
    space = range_basis(stacked, p.pol)
    m = p.E.shape[0]
    return LinearRelation(m, m, space)


def relation_L_right(p: MatrixPencil) -> LinearRelation:
    """L_r = {(x, w) : Ew = Ax}, the null space of [A, -E] on (x, w)."""
    space = null_basis(np.hstack([p.A, -p.E]), p.pol)
    return LinearRelation(p.n, p.n, space)


def relation_from_pseudo_resolvent(p: MatrixPencil, mu: complex,
                                   side: str = "left") -> LinearRelation:
    """L_mu = ran [R(mu); I + mu R(mu)]; independent of mu."""
    r = pseudo_resolvent(p, mu, side)
    n = r.shape[0]
    stacked = np.vstack([r, np.eye(n) + mu * r])
    return LinearRelation(n, n, range_basis(stacked, p.pol))


def relation_parts(L: LinearRelation, pol: TolerancePolicy = DEFAULT_POLICY):
    """Return (dom, ker, ran, mul) of a relation as subspaces."""
    top = L.first_block()
    bot = L.second_block()
    dom = range_basis(top, pol) if L.dim else Subspace.zero(L.dim_first)
    ran = range_basis(bot, pol) if L.dim else Subspace.zero(L.dim_second)
    # ker: first components of relation elements whose second component is 0
    coeff_ker = null_basis(bot, pol) if L.dim else Subspace.zero(0)
    if coeff_ker.dim:
        ker = range_basis(top @ coeff_ker.basis, pol)
    else:
        ker = Subspace.zero(L.dim_first)
    # mul: second components of elements whose first component is 0
    coeff_mul = null_basis(top, pol) if L.dim else Subspace.zero(0)
    if coeff_mul.dim:
        mul = range_basis(bot @ coeff_mul.basis, pol)
    else:
        mul = Subspace.zero(L.dim_second)
    return dom, ker, ran, mul


def relation_resolvent(L: LinearRelation, lam: complex) -> np.ndarray:
    """(L - lam)^-1 as a matrix, assuming the inverse relation is an operator.

    Shifting maps (x, y) to (x, y - lam x); inverting swaps the components.
    The result is the single-valued operator solving M (y - lam x) = x.
    """
    top = L.first_block()
    bot = L.second_block() - lam * L.first_block()
    return top @ np.linalg.pinv(bot)


def _cumulative_trapezoid(y, h) -> np.ndarray:
    """Trapezoidal integrals of the columns of y with step(s) h, 0 first."""
    out = np.zeros_like(y)
    out[:, 1:] = np.cumsum(0.5 * h * (y[:, 1:] + y[:, :-1]), axis=1)
    return out


def mild_membership_residual(p: MatrixPencil, trajectory, times, forcing, x0,
                             lam: complex) -> float:
    """Distance of the mild-solution pair to the relation L_r, maximized over t.

    For each grid time t the pair

        ( int_0^t x - (lam E - A)^-1 int_0^t f,
          x(t) - x0 - lam (lam E - A)^-1 int_0^t f )

    must lie in L_r; cumulative integrals are trapezoidal, so the residual of
    an exact solution is O(h^2).
    """
    x = np.asarray(trajectory, dtype=complex)
    t = np.asarray(times, dtype=float)
    f = np.asarray(forcing, dtype=complex)
    if t.size < 4:
        raise GridTooCoarse("mild membership needs at least 4 samples")
    if x.shape[1] != t.size or f.shape[1] != t.size:
        raise ValueError("trajectory/forcing must be sampled on the time grid")
    x0 = np.asarray(x0, dtype=complex).reshape(-1)

    inv = resolvent_at(p, lam).inverse
    L = relation_L_right(p)
    P = L.space.projector()

    h = np.diff(t)
    cum_x = _cumulative_trapezoid(x, h)
    cum_f = _cumulative_trapezoid(f, h)

    worst = 0.0
    for j in range(t.size):
        rf = inv @ cum_f[:, j]
        pair = np.concatenate([cum_x[:, j] - rf, x[:, j] - x0 - lam * rf])
        nrm = np.linalg.norm(pair)
        if nrm == 0.0:
            continue
        dist = np.linalg.norm(pair - P @ pair) / nrm
        worst = max(worst, float(dist))
    return worst
