"""Degenerate semigroup generated on the stabilized range.

T_R(t) acts as expm(t A_R) on V_k and as zero on W_k = ker R(mu)^k, so
T_R(0) = Q Y is the projector onto V_k along W_k rather than the identity
(Q a basis of V_k, Y Q = I, Y W_k = 0).  Its Laplace transform is the
pseudo-resolvent on the dynamic part, in closed form:

    int_0^inf e^(-lam t) T_R(t) dt = Q (lam - A_R)^-1 Y = -R_side(lam) Q Y

for Re lam > s(A_R), the spectral abscissa of A_R; R_side is the
(A - lam E)^-1-based pseudo-resolvent used elsewhere, so the integral is
E (lam E - A)^-1 on V_k for the left side.  Pazy, Semigroups of Linear
Operators (1983), Thm 1.5.3; Favini & Yagi, Degenerate Differential
Equations in Banach Spaces (1999).
"""

import numpy as np
import scipy.linalg as spla

from .chains import RestrictedGenerator, build_chain, restricted_generator
from .numerics import Subspace, expm, norm2
from .pencil import MatrixPencil, pseudo_resolvent

__all__ = [
    "DegenerateSemigroup",
    "degenerate_semigroup",
    "evaluate",
    "laplace_consistency",
]


class DegenerateSemigroup:
    def __init__(self, gen: RestrictedGenerator, Wk: Subspace):
        self.gen = gen
        self.complement_dim = Wk.dim
        # Y with Y Q = I and Y W_k = 0: T_R(0) = Q Y is the projector onto
        # V_k along W_k, zero on W_k as in both solvers
        Q = gen.basis.basis
        self.coords = spla.inv(np.hstack([Q, Wk.basis]))[:gen.dim]
        self.proj_V = Q @ self.coords

    @property
    def dim_V(self) -> int:
        return self.gen.dim

    def __repr__(self):
        return (f"DegenerateSemigroup(dim_V={self.dim_V}, "
                f"complement_dim={self.complement_dim})")


def degenerate_semigroup(p: MatrixPencil, mu: complex,
                         side: str = "left") -> DegenerateSemigroup:
    """Build T_R from the Wong chain of R(mu)."""
    chain = build_chain(p, mu, side)
    gen = restricted_generator(p, chain)
    return DegenerateSemigroup(gen, chain.W[chain.stabilization_k])


def evaluate(tr: DegenerateSemigroup, t: float) -> np.ndarray:
    """T_R(t) in ambient coordinates; at t = 0 this is the projector onto V_k
    along W_k."""
    if t < 0:
        raise ValueError("degenerate semigroups are defined for t >= 0")
    Q = tr.gen.basis.basis
    if tr.dim_V == 0:
        n = Q.shape[0]
        return np.zeros((n, n), dtype=np.result_type(Q, tr.gen.matrix))
    return Q @ expm(t * tr.gen.matrix) @ tr.coords


def laplace_consistency(tr: DegenerateSemigroup, p: MatrixPencil,
                        lam: complex) -> float:
    """||Q (lam - A_R)^-1 Y + R_side(lam) Q Y||_2, the defect of the Laplace
    transform of T_R against the pseudo-resolvent on V_k.

    Raises ValueError for Re lam <= s(A_R), where the integral diverges;
    with V_k = {0} both terms vanish and every lam is accepted.
    """
    A_R = tr.gen.matrix
    if np.real(lam) <= np.real(np.linalg.eigvals(A_R)).max(initial=-np.inf):
        raise ValueError("the Laplace integral of T_R diverges for "
                         f"Re(lambda) = {np.real(lam)} <= s(A_R)")
    transform = np.linalg.solve(lam * np.eye(tr.dim_V) - A_R, tr.coords)
    return norm2(tr.gen.basis.basis @ transform
                 + pseudo_resolvent(p, lam, tr.gen.side) @ tr.proj_V)
