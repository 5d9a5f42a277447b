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

The semigroup is the staircase form of R(mu): Q and A_R are its restricted
generator, and Y = [I, K] U^* comes from its coupling K, as in both solvers.
"""

import numpy as np

from .chains import StaircaseForm, build_staircase
from .numerics import expm, norm2
from .pencil import MatrixPencil, pseudo_resolvent

__all__ = [
    "degenerate_semigroup",
    "evaluate",
    "laplace_consistency",
]


def degenerate_semigroup(p: MatrixPencil, mu: complex,
                         side: str = "left") -> StaircaseForm:
    """T_R as the staircase form of R(mu), with its generator checked."""
    tr = build_staircase(p, mu, side)
    tr.generator  # restricted_generator refuses here, not at first use
    return tr


def _along_Wk(tr: StaircaseForm) -> np.ndarray:
    """Y = [I, K] U^*: Y Q = I and Y W_k = 0."""
    U = tr.unitary
    return U[:, :tr.dim_V].conj().T + tr.K @ U[:, tr.dim_V:].conj().T


def evaluate(tr: StaircaseForm, t: float) -> np.ndarray:
    """T_R(t) in ambient coordinates; at t = 0 this is the projector onto V_k
    along W_k."""
    if t < 0:
        raise ValueError("degenerate semigroups are defined for t >= 0")
    gen = tr.generator
    return gen.basis.basis @ expm(t * gen.matrix) @ _along_Wk(tr)


def laplace_consistency(tr: StaircaseForm, p: MatrixPencil,
                        lam: complex) -> float:
    """||Q (lam - A_R)^-1 Y + R_side(lam) Q Y||_2, the defect of the Laplace
    transform of T_R against the pseudo-resolvent on V_k.

    Raises ValueError for Re lam <= s(A_R), where the integral diverges;
    with V_k = {0} both terms vanish and every lam is accepted.
    """
    gen = tr.generator
    A_R = gen.matrix
    if np.real(lam) <= np.real(np.linalg.eigvals(A_R)).max(initial=-np.inf):
        raise ValueError("the Laplace integral of T_R diverges for "
                         f"Re(lambda) = {np.real(lam)} <= s(A_R)")
    Q, Y = gen.basis.basis, _along_Wk(tr)
    transform = np.linalg.solve(lam * np.eye(tr.dim_V) - A_R, Y)
    return norm2(Q @ transform + pseudo_resolvent(p, lam, tr.side) @ (Q @ Y))
