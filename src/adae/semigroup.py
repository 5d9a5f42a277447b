"""Degenerate semigroup generated on the stabilized range.

T_R(t) acts as expm(t A_R) on V_k and as zero on W_k = ker R(mu)^k, so
T_R(0) is the projector onto V_k along W_k rather than the identity.  Its
Laplace transform recovers the pseudo-resolvent on the dynamic part:

    int_0^inf e^(-lam t) T_R(t) dt = (lam - A_R)^-1 = E (lam E - A)^-1 | V_k

(the positive resolvent orientation (lam E - A)^-1, i.e. the negative of the
(A - lam E)^-1-based pseudo-resolvent used elsewhere; norms agree).
"""

import numpy as np
import scipy.linalg as spla

from .chains import RestrictedGenerator, build_chain, restricted_generator
from .exceptions import HorizonTooShort
from .numerics import Subspace, expm, norm2
from .pencil import MatrixPencil, pseudo_resolvent

__all__ = [
    "DegenerateSemigroup",
    "degenerate_semigroup",
    "evaluate",
    "omega_stability_estimate",
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


def omega_stability_estimate(tr: DegenerateSemigroup):
    """Fit ||T_R(t)|| <= M e^(omega t) at 40 times in (0, 5]; returns
    (omega_hat, M_hat)."""
    ts = np.linspace(0.125, 5.0, 40)
    norms = np.array([norm2(evaluate(tr, t)) for t in ts])
    if np.all(norms < 1e-290):
        return -np.inf, 0.0
    coef = np.polyfit(ts, np.log(np.maximum(norms, 1e-300)), 1)
    return float(coef[0]), float(np.exp(coef[1]))


def laplace_consistency(tr: DegenerateSemigroup, p: MatrixPencil, lam: complex,
                        horizon: float | None = None) -> float:
    """Defect of int_0^horizon e^(-lam t) T_R(t) dt against the resolvent.

    64-point Gauss-Legendre quadrature; compared with E (lam E - A)^-1 (resp. the
    right-sided variant) composed with the projector onto V_k along W_k.
    """
    # positive orientation: E (lam E - A)^-1 = -E (A - lam E)^-1
    target = -pseudo_resolvent(p, lam, tr.gen.side) @ tr.proj_V
    omega_hat, M_hat = omega_stability_estimate(tr)
    if omega_hat == -np.inf:  # zero semigroup: both sides vanish on V_k
        return norm2(target)
    if horizon is None:
        decay = omega_hat - np.real(lam)
        if decay >= 0:
            raise HorizonTooShort("Re(lambda) must exceed omega_hat")
        horizon = np.log(1e-12) / decay
    trunc = M_hat * np.exp((omega_hat - np.real(lam)) * horizon)
    if trunc > 1e-10:
        raise HorizonTooShort(
            f"truncation bound {trunc:.3e} exceeds 1e-10 at horizon {horizon}")
    nodes, weights = np.polynomial.legendre.leggauss(64)
    ts = 0.5 * horizon * (nodes + 1.0)
    ws = 0.5 * horizon * weights
    n = tr.gen.basis.basis.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for t, w in zip(ts, ws):
        acc += w * np.exp(-lam * t) * evaluate(tr, t)
    return norm2(acc - target)
