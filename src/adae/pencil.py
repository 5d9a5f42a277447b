"""Matrix pencils, resolvents, left/right pseudo-resolvents, linear relations.

The pencil lam*E - A is the central object.  The left and right
pseudo-resolvents are

    R_l(lam) = E (A - lam E)^-1        (acting on the equation space Z)
    R_r(lam) = (A - lam E)^-1 E        (acting on the state space X)

Both satisfy the resolvent identity in the form

    R(lam) - R(mu) = (lam - mu) R(lam) R(mu),

which is what `pseudo_resolvent_residual` measures.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .exceptions import GridTooCoarse, NotInResolventSet
from .numerics import (
    DEFAULT_POLICY,
    Subspace,
    TolerancePolicy,
    as_cmatrix,
    null_basis,
    range_basis,
    rank_with_tol,
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
    """Pair (E, A) of complex matrices sharing dimensions.

    Square pencils get an eager regularity probe (rank of lam*E - A at
    pseudo-random lambda); rectangular pencils (more rows than columns,
    boundary-row structure from the models module) skip it.
    """

    def __init__(self, E, A, pol: TolerancePolicy = DEFAULT_POLICY):
        self.E = as_cmatrix(E)
        self.A = as_cmatrix(A)
        if self.E.shape != self.A.shape:
            raise ValueError("E and A must share dimensions")
        if self.E.shape[0] < self.E.shape[1]:
            raise ValueError("pencils with fewer rows than columns unsupported")
        self.pol = pol
        self.regular = None
        if self.is_square:
            self.regular = self._probe_regularity()

    @property
    def shape(self):
        return self.E.shape

    @property
    def n(self) -> int:
        return self.E.shape[1]

    @property
    def is_square(self) -> bool:
        return self.E.shape[0] == self.E.shape[1]

    def _probe_regularity(self) -> bool:
        rng = np.random.default_rng(11)
        n = self.n
        if n == 0:
            return True
        for mag in np.logspace(0, 6, 8):
            lam = mag * np.exp(2j * np.pi * rng.random())
            if rank_with_tol(lam * self.E - self.A, self.pol) == n:
                return True
        return False

    def norm_scale(self) -> float:
        return max(np.linalg.norm(self.E, 2), np.linalg.norm(self.A, 2), 1.0)

    def __repr__(self):
        return f"MatrixPencil(shape={self.shape}, regular={self.regular})"


@dataclass(frozen=True)
class ResolventSample:
    """(lam*E - A)^-1 together with its conditioning information.

    `min_singular` = 1/||inverse||_2 costs an SVD, so it is computed on
    first access only.
    """

    lam: complex
    inverse: np.ndarray

    @cached_property
    def min_singular(self) -> float:
        if not self.inverse.shape[0]:
            return np.inf
        return float(1.0 / np.linalg.norm(self.inverse, 2))


# Acceptance gate for computed inverses.  A raw condition-number threshold
# would wrongly reject graded matrices (lam E - A of a high-index pencil at
# large lam has cond ~ lam^k yet inverts to near machine accuracy under
# pivoted LU), so membership in the resolvent set is decided by the residual
# of the inverse actually obtained.
_INV_RESIDUAL_TOL = 1e-6
# relative slack that keeps rounding in the cheap norm bounds from deciding
_BOUND_MARGIN = 1.0 - 1e-8


def _norm2_lower(Y):
    """Lower bound on ||Y||_2 of a square Y that needs no SVD."""
    return max(np.linalg.norm(Y, 1), np.linalg.norm(Y, np.inf),
               np.linalg.norm(Y, "fro")) / np.sqrt(Y.shape[0])


def _certified_inverse(m, lam):
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    try:
        inv = spla.inv(m)
    except spla.LinAlgError:
        raise NotInResolventSet(lam, "matrix singular to working precision")
    if not np.all(np.isfinite(inv)):
        raise NotInResolventSet(lam, "inverse overflowed")
    X = m @ inv - np.eye(n)
    # a backward-stable inverse satisfies resid <~ n eps ||m|| ||inv|| no
    # matter the conditioning, so reject only clear failures of that bound.
    # The gate is in exact 2-norms, but each one costs an SVD.  Try it first
    # with cheap bounds that can only make acceptance harder: an upper bound
    # on the residual, ||X||_2 <= min(||X||_F, sqrt(||X||_1 ||X||_inf)), and
    # lower bounds on the floor, ||Y||_2 >= max(||Y||_1, ||Y||_inf, ||Y||_F)
    # / sqrt(n), shrunk by _BOUND_MARGIN against rounding in the norms (and
    # not used once they overflow).  What passes them passes the exact gate;
    # the rest goes to the exact gate, so the decision and the message never
    # differ from the exact gate's.
    eps_n = n * np.finfo(float).eps
    resid_hi = min(np.linalg.norm(X, "fro"),
                   np.sqrt(np.linalg.norm(X, 1) * np.linalg.norm(X, np.inf)))
    floor_lo = eps_n * _norm2_lower(m) * _norm2_lower(inv)
    if (np.isfinite(floor_lo) and resid_hi
            <= _BOUND_MARGIN * max(_INV_RESIDUAL_TOL, 1e3 * floor_lo)):
        return inv
    resid = np.linalg.norm(X, 2)
    floor = eps_n * np.linalg.norm(m, 2) * np.linalg.norm(inv, 2)
    if resid > max(_INV_RESIDUAL_TOL, 1e3 * floor):
        raise NotInResolventSet(lam, f"inversion residual {resid:.3e}")
    return inv


def resolvent_at(p: MatrixPencil, lam: complex) -> ResolventSample:
    """Certified inverse of lam*E - A."""
    if not p.is_square:
        raise ValueError("resolvent_at requires a square pencil")
    m = lam * p.E - p.A
    return ResolventSample(lam=lam, inverse=_certified_inverse(m, lam))


def _shifted_inverse(p: MatrixPencil, lam: complex) -> np.ndarray:
    """(A - lam E)^-1, the building block of both pseudo-resolvents."""
    return _certified_inverse(p.A - lam * p.E, lam)


def left_resolvent(p: MatrixPencil, lam: complex) -> np.ndarray:
    """R_l(lam) = E (A - lam E)^-1."""
    return p.E @ _shifted_inverse(p, lam)


def right_resolvent(p: MatrixPencil, lam: complex) -> np.ndarray:
    """R_r(lam) = (A - lam E)^-1 E."""
    return _shifted_inverse(p, lam) @ p.E


def pseudo_resolvent(p: MatrixPencil, lam: complex, side: str) -> np.ndarray:
    if side == "left":
        return left_resolvent(p, lam)
    if side == "right":
        return right_resolvent(p, lam)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def pseudo_resolvent_residual(p: MatrixPencil, lam: complex, mu: complex,
                              side: str = "left") -> float:
    """Defect in the resolvent identity R(lam)-R(mu) = (lam-mu) R(lam)R(mu)."""
    if lam == mu:
        raise ValueError("lambda and mu must differ")
    rl = pseudo_resolvent(p, lam, side)
    rm = pseudo_resolvent(p, mu, side)
    defect = (rl - rm) / (lam - mu) - rl @ rm
    return float(np.linalg.norm(defect, 2))


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
    cum_x = np.zeros_like(x)
    cum_f = np.zeros_like(f)
    cum_x[:, 1:] = np.cumsum(0.5 * h * (x[:, 1:] + x[:, :-1]), axis=1)
    cum_f[:, 1:] = np.cumsum(0.5 * h * (f[:, 1:] + f[:, :-1]), axis=1)

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
