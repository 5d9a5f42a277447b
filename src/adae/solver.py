"""Decoupled solution of d/dt E x = A x + f via the pseudo-resolvent form.

Pipeline: shift x_mu(t) = e^(-mu t) x(t) turns the DAE into

    d/dt R_r(mu) x_mu = x_mu + g_mu,   g_mu(t) = e^(-mu t) (A - mu E)^-1 f(t).

In staircase coordinates of R_r(mu) the W blocks solve algebraically from the
bottom row up (each step differentiates the forcing once), and the V_k block
is an ODE x' = B x + B h with B the inverse of the compressed R_r(mu).  For
piecewise-polynomial forcing everything stays inside the class
"e^(-mu s) times vector polynomial", so the only floating-point error is the
matrix exponential itself; sampled/callable forcing falls back to
finite-difference derivatives and per-step quadrature.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .chains import SubspaceChain, StaircaseForm, build_staircase
from .exceptions import (
    GridTooCoarse,
    InsufficientSmoothness,
    StepSingular,
)
from .forcing import ForcingSignal, PolynomialForcing
from .growth import _pick_mu
from .numerics import expm
from .pencil import MatrixPencil, pseudo_resolvent

__all__ = [
    "SolveReport",
    "split_forcing",
    "consistent_initialize",
    "solve_decoupled",
    "solve_homogeneous",
    "implicit_euler_reference",
    "residuals",
]


@dataclass
class SolveReport:
    times: np.ndarray
    trajectory: np.ndarray  # shape (n, len(times))
    consistent_x0: np.ndarray
    correction_norm: float
    classical_residual: float
    mild_residual: float
    mu_used: complex
    index_k: int
    block_sizes: list
    method: str


class _ExpPoly:
    """Vector signal e^(-mu s) * sum_j C[:, j] s^j on a local interval."""

    def __init__(self, mu, coeffs):
        self.mu = mu
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1

    def matmul(self, M):
        return _ExpPoly(self.mu, M @ self.coeffs)

    def add(self, other):
        a, b = self.coeffs, other.coeffs
        d = max(a.shape[1], b.shape[1])
        out = np.zeros((a.shape[0], d), dtype=complex)
        out[:, : a.shape[1]] += a
        out[:, : b.shape[1]] += b
        return _ExpPoly(self.mu, out)

    def differentiate(self):
        # d/ds [e^(-mu s) p(s)] = e^(-mu s) (p'(s) - mu p(s))
        c = self.coeffs
        out = -self.mu * c.copy()
        out[:, :-1] += c[:, 1:] * np.arange(1, c.shape[1])
        return _ExpPoly(self.mu, out)

    def eval(self, s):
        powers = s ** np.arange(self.coeffs.shape[1])
        return np.exp(-self.mu * s) * (self.coeffs @ powers)


def _oblique_projectors(chain: SubspaceChain):
    """(P_V, P_W): projections onto V_k along W_k and vice versa."""
    k = chain.stabilization_k
    Vk, Wk = chain.V[k], chain.W[k]
    n = chain.ambient_dim
    if Vk.dim == 0:
        return np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)
    if Wk.dim == 0:
        return np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
    T = np.hstack([Vk.basis, Wk.basis])
    D = np.zeros((n, n), dtype=complex)
    D[: Vk.dim, : Vk.dim] = np.eye(Vk.dim)
    Ti = spla.inv(T)
    P_V = T @ D @ Ti
    return P_V, np.eye(n) - P_V


class _ProjectedSignal(ForcingSignal):
    """P g_mu(t) with g_mu(t) = e^(-mu t) G f(t), P and G constant matrices."""

    kind = "callable"

    def __init__(self, P, G, f, mu):
        self.P = P
        self.G = G
        self.f = f
        self.mu = mu
        self.dim = P.shape[0]
        self.max_derivative_order = f.max_derivative_order

    def value(self, t):
        return np.exp(-self.mu * t) * (self.P @ (self.G @ self.f.value(t)))

    def derivative(self, t, order):
        if order == 0:
            return self.value(t)
        self.require_order(order)
        # product rule against the analytic factor e^(-mu t)
        acc = np.zeros(self.dim, dtype=complex)
        from math import comb
        for j in range(order + 1):
            acc += (comb(order, j) * (-self.mu) ** (order - j)
                    * (self.P @ (self.G @ self.f.derivative(t, j))))
        return np.exp(-self.mu * t) * acc


def split_forcing(stair: StaircaseForm, chain: SubspaceChain,
                  f: ForcingSignal, mu: complex):
    """Split g_mu = e^(-mu t)(A - mu E)^-1 f into its V_k and W_k parts.

    Returns (f_R, f_K) as signals with derivative accessors; the projections
    are oblique (along the complementary chain space).
    """
    from .exceptions import DecompositionUnavailable
    from .chains import check_decomposition

    p = stair.p
    holds, _ = check_decomposition(chain, p.pol)
    if not holds:
        raise DecompositionUnavailable("V_k (+) W_k does not span the space")
    P_V, P_W = _oblique_projectors(chain)
    G = spla.inv(p.A - mu * p.E)
    return (_ProjectedSignal(P_V, G, f, mu),
            _ProjectedSignal(P_W, G, f, mu))


def consistent_initialize(p: MatrixPencil, stair: StaircaseForm,
                          chain: SubspaceChain, x0, f: ForcingSignal,
                          mu: complex, mode: str = "classical"):
    """Consistent initial vector: V_k part of x0 plus the forced series.

    The W part is -sum_i R(mu)^i f_K^(i)(0) with i up to k-1 (classical) or
    k-2 (mild, where the top-order derivative need not exist).
    """
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    k = chain.stabilization_k
    P_V, P_W = _oblique_projectors(chain)
    if mode == "classical":
        top = k - 1
    elif mode == "mild":
        top = k - 2
    else:
        raise ValueError("mode must be 'classical' or 'mild'")
    if top >= 0 and f.max_derivative_order < top:
        raise InsufficientSmoothness(top, f.max_derivative_order)
    G = spla.inv(p.A - mu * p.E)
    R = pseudo_resolvent(p, mu, chain.side)
    series = np.zeros(p.n, dtype=complex)
    Rpow = np.eye(p.n, dtype=complex)
    fK = _ProjectedSignal(P_W, G, f, mu)
    for i in range(top + 1):
        series += Rpow @ fK.derivative(0.0, i)
        Rpow = Rpow @ R
    consistent = P_V @ x0 - series
    correction = float(np.linalg.norm(x0 - consistent))
    return consistent, correction


def _check_grid(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2:
        raise GridTooCoarse("time grid needs at least 2 points")
    h = np.diff(t)
    if not np.allclose(h, h[0], rtol=1e-9, atol=0) or h[0] <= 0:
        raise ValueError("time grid must be uniform and increasing")
    if abs(t[0]) > 1e-14:
        raise ValueError("time grid must start at 0")
    return t, float(h[0])


def _block_edges(sizes):
    return np.concatenate([[0], np.cumsum(sizes)]).astype(int)


def _solve_exact(p, stair, x0, f, t, h, mu):
    """Piecewise-polynomial path: closed under the exp-poly arithmetic."""
    n = p.n
    U = stair.unitary
    sizes = stair.block_sizes
    edges = _block_edges(sizes)
    k = stair.k
    nV = sizes[0]
    Rt = stair.transform(mu)
    G = spla.inv(p.A - mu * p.E)

    # breakpoints must sit on the grid so steps never straddle a piece
    for bp in f.breakpoints[1:-1]:
        if np.min(np.abs(t - bp)) > 1e-9 * max(t[-1], 1.0):
            raise ValueError("forcing breakpoints must lie on the time grid")

    xt = np.zeros((n, t.size), dtype=complex)  # staircase coordinates of x_mu
    xV = (U.conj().T @ np.asarray(x0, dtype=complex).reshape(-1))[:nV]

    B = None
    if nV:
        B = spla.inv(Rt[:nV, :nV])

    tol_t = 1e-9 * max(t[-1], 1.0)
    for ip in range(len(f.coeffs)):
        ta = f.breakpoints[ip]
        tb = min(f.breakpoints[ip + 1], t[-1])
        if ta > t[-1] + tol_t:
            break
        j0 = int(np.argmin(np.abs(t - ta)))
        j1 = int(np.argmin(np.abs(t - tb)))

        C = f.coeffs[ip]
        pref = np.exp(-mu * ta)
        F = _ExpPoly(mu, pref * (U.conj().T @ (G @ C)))

        # W blocks, bottom row (W_1, last position) upward
        blocks = [None] * (k + 1)
        for q in range(k, 0, -1):
            acc = _ExpPoly(mu, np.zeros((sizes[q], F.coeffs.shape[1])))
            for r in range(q + 1, k + 1):
                Rqr = Rt[edges[q]:edges[q + 1], edges[r]:edges[r + 1]]
                acc = acc.add(blocks[r].matmul(Rqr))
            xq = _ExpPoly(mu, -F.coeffs[edges[q]:edges[q + 1], :])
            blocks[q] = xq.add(acc.differentiate())

        old_w = xt[edges[1]:, j0].copy()
        for j in range(j0, j1 + 1):
            s = t[j] - ta
            for q in range(1, k + 1):
                xt[edges[q]:edges[q + 1], j] = blocks[q].eval(s)

        if nV and ip > 0:
            # forcing jump: R y stays continuous, so the V coordinate jumps
            # by -B R_{0,W} (w(ta+) - w(ta-))
            delta_w = xt[edges[1]:, j0] - old_w
            xV = xV - B @ (Rt[:nV, edges[1]:] @ delta_w)

        if nV:
            # h_sig = f_V - d/ds sum_r R[0,r] x_r ; ODE x' = B x + B h_sig
            acc = _ExpPoly(mu, np.zeros((nV, F.coeffs.shape[1])))
            for r in range(1, k + 1):
                R0r = Rt[:nV, edges[r]:edges[r + 1]]
                acc = acc.add(blocks[r].matmul(R0r))
            h_sig = _ExpPoly(mu, F.coeffs[:nV, :]).add(
                _ExpPoly(mu, -acc.differentiate().coeffs))
            Hc = B @ h_sig.coeffs
            d = Hc.shape[1] - 1
            # companion state z(s) = e^(-mu s) (1, s, ..., s^d)
            Mz = -mu * np.eye(d + 1, dtype=complex)
            Mz += np.diag(np.arange(1, d + 1), -1)
            Maug = np.zeros((nV + d + 1, nV + d + 1), dtype=complex)
            Maug[:nV, :nV] = B
            Maug[:nV, nV:] = Hc
            Maug[nV:, nV:] = Mz
            Phi = expm(h * Maug)
            w = np.zeros(nV + d + 1, dtype=complex)
            w[:nV] = xV
            w[nV] = 1.0
            xt[:nV, j0] = w[:nV]
            for j in range(j0 + 1, j1 + 1):
                w = Phi @ w
                xt[:nV, j] = w[:nV]
            xV = w[:nV]
        if j1 == t.size - 1:
            break

    traj = np.exp(mu * t)[None, :] * (U @ xt)
    return traj


def _solve_fd(p, stair, x0, f, t, h, mu):
    """Sampled/callable path: FD derivatives, per-step quadrature on V_k."""
    n = p.n
    U = stair.unitary
    sizes = stair.block_sizes
    edges = _block_edges(sizes)
    k = stair.k
    nV = sizes[0]
    Rt = stair.transform(mu)
    G = spla.inv(p.A - mu * p.E)
    Uh = U.conj().T

    needed = k  # W chain uses k-1 derivatives, the V forcing one more
    if f.max_derivative_order < needed:
        raise InsufficientSmoothness(needed, f.max_derivative_order)
    if f.kind == "sampled":
        warnings.warn("sampled forcing: derivatives via finite differences")

    def g_block(q, ti, order):
        from math import comb
        acc = np.zeros(n, dtype=complex)
        for j in range(order + 1):
            acc += (comb(order, j) * (-mu) ** (order - j)
                    * (G @ f.derivative(ti, j)))
        vec = np.exp(-mu * ti) * (Uh @ acc)
        return vec[edges[q]:edges[q + 1]]

    def x_block(q, ti, order):
        out = -g_block(q, ti, order)
        for r in range(q + 1, k + 1):
            Rqr = Rt[edges[q]:edges[q + 1], edges[r]:edges[r + 1]]
            out += Rqr @ x_block(r, ti, order + 1)
        return out

    xt = np.zeros((n, t.size), dtype=complex)
    for j, ti in enumerate(t):
        for q in range(1, k + 1):
            xt[edges[q]:edges[q + 1], j] = x_block(q, ti, 0)

    if nV:
        B = spla.inv(Rt[:nV, :nV])

        def h_sig(ti):
            out = g_block(0, ti, 0)
            for r in range(1, k + 1):
                R0r = Rt[:nV, edges[r]:edges[r + 1]]
                out -= R0r @ x_block(r, ti, 1)
            return B @ out

        nodes, weights = np.polynomial.legendre.leggauss(4)
        taus = 0.5 * h * (nodes + 1.0)
        ws = 0.5 * h * weights
        Phi = expm(h * B)
        prop = [expm((h - tq) * B) for tq in taus]
        xV = (Uh @ np.asarray(x0, dtype=complex).reshape(-1))[:nV]
        xt[:nV, 0] = xV
        for j in range(1, t.size):
            acc = Phi @ xV
            for q in range(4):
                acc += ws[q] * (prop[q] @ h_sig(t[j - 1] + taus[q]))
            xV = acc
            xt[:nV, j] = xV

    return np.exp(mu * t)[None, :] * (U @ xt)


def solve_decoupled(p: MatrixPencil, x0, f: ForcingSignal, t_grid,
                    mu: complex | None = None) -> SolveReport:
    """Solve the DAE by shift + staircase back-substitution + exact stepping."""
    if not p.is_square:
        raise ValueError("solver requires a square pencil")
    t, h = _check_grid(t_grid)
    if mu is None:
        mu = _pick_mu(p)
    x0 = np.zeros(p.n, dtype=complex) if x0 is None else \
        np.asarray(x0, dtype=complex).reshape(-1)

    stair = build_staircase(p, mu, side="right")
    k = stair.k
    if k > 0 and f.max_derivative_order < k:
        raise InsufficientSmoothness(k, f.max_derivative_order)

    if isinstance(f, PolynomialForcing):
        traj = _solve_exact(p, stair, x0, f, t, h, mu)
        method = "staircase-exact"
    else:
        traj = _solve_fd(p, stair, x0, f, t, h, mu)
        method = "staircase-fd"

    consistent_x0 = traj[:, 0].copy()
    correction = float(np.linalg.norm(x0 - consistent_x0))
    report = SolveReport(
        times=t, trajectory=traj, consistent_x0=consistent_x0,
        correction_norm=correction, classical_residual=np.nan,
        mild_residual=np.nan, mu_used=mu, index_k=k,
        block_sizes=list(stair.block_sizes), method=method)
    if t.size >= 5:
        cls_r, mild_r = residuals(p, report, f)
        report.classical_residual = cls_r
        report.mild_residual = mild_r
    return report


def solve_homogeneous(p: MatrixPencil, x0, t_grid,
                      mu: complex | None = None) -> SolveReport:
    """f = 0: project x0 onto V_k and evolve with the degenerate semigroup."""
    from .semigroup import degenerate_semigroup, evaluate

    if not p.is_square:
        raise ValueError("solver requires a square pencil")
    t, _ = _check_grid(t_grid)
    if mu is None:
        mu = _pick_mu(p)
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    tr = degenerate_semigroup(p, mu, side="right")
    x0p = tr.proj_V @ x0
    correction = float(np.linalg.norm(x0 - x0p))
    traj = np.zeros((p.n, t.size), dtype=complex)
    for j, ti in enumerate(t):
        traj[:, j] = evaluate(tr, ti) @ x0
    stair = build_staircase(p, mu, side="right")
    report = SolveReport(
        times=t, trajectory=traj, consistent_x0=x0p,
        correction_norm=correction, classical_residual=np.nan,
        mild_residual=np.nan, mu_used=mu, index_k=stair.k,
        block_sizes=list(stair.block_sizes), method="semigroup")
    if t.size >= 5:
        from .forcing import zero_forcing
        f0 = zero_forcing(p.n, float(t[-1]))
        cls_r, mild_r = residuals(p, report, f0)
        report.classical_residual = cls_r
        report.mild_residual = mild_r
    return report


def implicit_euler_reference(p: MatrixPencil, x0, f: ForcingSignal,
                             t_grid) -> SolveReport:
    """(E - h A) x_{n+1} = E x_n + h f(t_{n+1}); independent cross-check."""
    if not p.is_square:
        raise ValueError("solver requires a square pencil")
    t, h = _check_grid(t_grid)
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    for attempt in range(4):
        M = p.E - h * p.A
        s = spla.svdvals(M)
        if s[-1] > p.pol.rank_rel_tol * s[0] * p.n:
            break
        if attempt == 3:
            raise StepSingular(f"E - h A singular after retries (h={h})")
        h *= 1.01
        t = t[0] + h * np.arange(t.size)
    lu = spla.lu_factor(M)
    traj = np.zeros((p.n, t.size), dtype=complex)
    traj[:, 0] = x0
    x = x0
    for j in range(1, t.size):
        rhs = p.E @ x + h * f.value(t[j])
        x = spla.lu_solve(lu, rhs)
        traj[:, j] = x
    report = SolveReport(
        times=t, trajectory=traj, consistent_x0=x0, correction_norm=0.0,
        classical_residual=np.nan, mild_residual=np.nan, mu_used=0.0,
        index_k=-1, block_sizes=[], method="implicit-euler")
    return report


def residuals(p: MatrixPencil, report: SolveReport, f: ForcingSignal):
    """(classical, mild) residuals of a trajectory on its grid.

    Classical: 4th-order central differences of E x against A x + f at
    interior points.  Mild: trapezoidal form of the integrated equation.
    Both normalized by the data magnitudes.
    """
    t = report.times
    x = report.trajectory
    if t.size < 5:
        raise GridTooCoarse("residuals need at least 5 grid points")
    h = float(t[1] - t[0])
    fv = np.column_stack([f.value(ti) for ti in t])
    Ex = p.E @ x
    Ax = p.A @ x

    xinf = float(np.max(np.linalg.norm(x, axis=0)))
    finf = float(np.max(np.linalg.norm(fv, axis=0)))
    scale = (1.0 + np.linalg.norm(p.E, 2) * xinf
             + np.linalg.norm(p.A, 2) * xinf + finf)

    worst = 0.0
    for j in range(2, t.size - 2):
        d = (-Ex[:, j + 2] + 8 * Ex[:, j + 1]
             - 8 * Ex[:, j - 1] + Ex[:, j - 2]) / (12 * h)
        worst = max(worst, float(np.linalg.norm(d - Ax[:, j] - fv[:, j])))
    classical = worst / scale

    cum_x = np.zeros_like(x)
    cum_f = np.zeros_like(fv)
    cum_x[:, 1:] = np.cumsum(0.5 * h * (x[:, 1:] + x[:, :-1]), axis=1)
    cum_f[:, 1:] = np.cumsum(0.5 * h * (fv[:, 1:] + fv[:, :-1]), axis=1)
    defect = Ex - Ex[:, [0]] - p.A @ cum_x - cum_f
    mild = float(np.max(np.linalg.norm(defect, axis=0))) / scale
    return classical, mild
