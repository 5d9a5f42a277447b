"""Degenerate semigroup generated on the stabilized range.

T_R(t) acts as expm(t A_R) on V_k and as zero on a complement, so T_R(0) is
a projector rather than the identity.  Its Laplace transform recovers the
pseudo-resolvent on the dynamic part:

    int_0^inf e^(-lam t) T_R(t) dt = (lam - A_R)^-1 = E (lam E - A)^-1 | V_k

(the positive resolvent orientation (lam E - A)^-1, i.e. the negative of the
(A - lam E)^-1-based pseudo-resolvent used elsewhere; norms agree).
"""

import numpy as np

from .chains import RestrictedGenerator, build_chain, restricted_generator
from .exceptions import HorizonTooShort
from .numerics import expm, norm2
from .pencil import MatrixPencil, pseudo_resolvent

__all__ = [
    "DegenerateSemigroup",
    "degenerate_semigroup",
    "evaluate",
    "omega_stability_estimate",
    "laplace_consistency",
]


class DegenerateSemigroup:
    def __init__(self, gen: RestrictedGenerator, complement_dim: int):
        self.gen = gen
        self.complement_dim = complement_dim
        # orthogonal projector onto V_k, as in both solvers
        self.proj_V = gen.basis.projector()

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
    return DegenerateSemigroup(
        gen, complement_dim=chain.W[chain.stabilization_k].dim)


def evaluate(tr: DegenerateSemigroup, t: float) -> np.ndarray:
    """T_R(t) in ambient coordinates; at t = 0 this is the projector onto V_k."""
    if t < 0:
        raise ValueError("degenerate semigroups are defined for t >= 0")
    Q = tr.gen.basis.basis
    if tr.dim_V == 0:
        n = Q.shape[0]
        return np.zeros((n, n), dtype=np.result_type(Q, tr.gen.matrix))
    return Q @ expm(t * tr.gen.matrix) @ Q.conj().T


def omega_stability_estimate(tr: DegenerateSemigroup, horizon: float = 5.0,
                             samples: int = 40):
    """Fit ||T_R(t)|| <= M e^(omega t); returns (omega_hat, M_hat)."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    ts = np.linspace(horizon / samples, horizon, samples)
    norms = np.array([norm2(evaluate(tr, t)) for t in ts])
    if np.all(norms < 1e-290):
        return -np.inf, 0.0
    coef = np.polyfit(ts, np.log(np.maximum(norms, 1e-300)), 1)
    return float(coef[0]), float(np.exp(coef[1]))


def laplace_consistency(tr: DegenerateSemigroup, p: MatrixPencil, lam: complex,
                        horizon: float | None = None,
                        quad_points: int = 64) -> float:
    """Defect of int_0^horizon e^(-lam t) T_R(t) dt against the resolvent.

    Gauss-Legendre quadrature; compared with E (lam E - A)^-1 (resp. the
    right-sided variant) composed with the projector onto V_k.
    """
    omega_hat, M_hat = omega_stability_estimate(tr)
    if omega_hat == -np.inf:
        # zero semigroup: both sides vanish on V_k
        target = -pseudo_resolvent(p, lam, tr.gen.side) @ tr.proj_V
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
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    ts = 0.5 * horizon * (nodes + 1.0)
    ws = 0.5 * horizon * weights
    n = tr.gen.basis.basis.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for t, w in zip(ts, ws):
        acc += w * np.exp(-lam * t) * evaluate(tr, t)
    # positive orientation: E (lam E - A)^-1 = -E (A - lam E)^-1
    target = -pseudo_resolvent(p, lam, tr.gen.side) @ tr.proj_V
    return norm2(acc - target)
