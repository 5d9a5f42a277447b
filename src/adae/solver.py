"""Decoupled solution of d/dt E x = A x + f via the pseudo-resolvent form.

Pipeline: shift x_mu(t) = e^(-mu t) x(t) turns the DAE into

    d/dt R_r(mu) x_mu = x_mu + g_mu,   g_mu(t) = e^(-mu t) (A - mu E)^-1 f(t).

In staircase coordinates of R_r(mu) the W blocks solve algebraically from the
bottom row up (each step differentiates the forcing once), and the V_k block
is an ODE x' = B x + B h with B the inverse of the compressed R_r(mu).  For
piecewise-polynomial forcing everything stays inside the class
"e^(-mu s) times vector polynomial", so the only floating-point error is the
matrix exponential itself; sampled/callable forcing falls back to
finite-difference derivatives and per-step quadrature.  Both paths read
(A - mu E)^-1 and R_r(mu) from the Wong chain the staircase was derived
from, so a solve factors A - mu E once.
"""

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg as spla

from .chains import build_chain, restricted_generator, staircase_from_chain
from .exceptions import (
    GridTooCoarse,
    InsufficientSmoothness,
    StepSingular,
)
from .forcing import ForcingSignal, PolynomialForcing
from .growth import _pick_mu
from .numerics import expm
from .pencil import MatrixPencil

__all__ = [
    "SolveReport",
    "solve_decoupled",
    "solve_homogeneous",
    "implicit_euler_reference",
    "residuals",
]


_BLOCK = 256  # grid times per batched evaluation in _solve_fd


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
        """Values at the local times s, one column per entry of s."""
        s = np.asarray(s, dtype=float).reshape(-1)
        powers = s ** np.arange(self.coeffs.shape[1])[:, None]
        return np.exp(-self.mu * s) * (self.coeffs @ powers)


def _shifted_derivative(gf, mu, ts, order):
    """d^order/dt^order [e^(-mu t) g(t)] at the times ts by the product rule,
    from gf[j] = g^(j)(ts) for j <= order (one column per time)."""
    acc = np.zeros_like(gf[0])
    for j in range(order + 1):
        acc += comb(order, j) * (-mu) ** (order - j) * gf[j]
    return np.exp(-mu * np.asarray(ts, dtype=float)) * acc


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
    G = stair.chain.G

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
        if k:
            Wc = np.vstack([blocks[q].coeffs for q in range(1, k + 1)])
            xt[edges[1]:, j0:j1 + 1] = _ExpPoly(mu, Wc).eval(t[j0:j1 + 1] - ta)

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


def _fd_derivatives(UhG, N, nV, f, mu, ts, top):
    """Derivatives of orders 0..top at the times ts, one column per time.

    Returns (g, xW): g[o] is the o-th derivative of the staircase forcing
    g(t) = e^(-mu t) U^* G f(t), xW[o] that of the W coordinates.  Each W
    block solves x_q = -g_q + sum_{r>q} R_qr x_r', so with N the strictly
    upper block part of R on W, xW^(o) = N xW^(o+1) - g_W^(o), substituted
    from the top order down.  Cutting the series at top only spoils orders
    above a block's own need (x_q up to order q), which are never read.
    """
    gf = [UhG @ f.sample(ts, j) for j in range(top + 1)]
    g = [_shifted_derivative(gf, mu, ts, o) for o in range(top + 1)]
    xW = [None] * (top + 1)
    xW[top] = -g[top][nV:]
    for o in range(top - 1, -1, -1):
        xW[o] = N @ xW[o + 1] - g[o][nV:]
    return g, xW


def _solve_fd(p, stair, x0, f, t, h, mu):
    """Sampled/callable path: FD derivatives, per-step quadrature on V_k.

    The grid is processed in blocks of _BLOCK times, each evaluated with
    array products; only the V_k recurrence x_j = Phi x_{j-1} + c_j steps
    point by point.
    """
    n = p.n
    U = stair.unitary
    sizes = stair.block_sizes
    edges = _block_edges(sizes)
    k = stair.k
    nV = sizes[0]
    Rt = stair.transform(mu)
    Uh = U.conj().T
    UhG = Uh @ stair.chain.G

    needed = k  # W chain uses k-1 derivatives, the V forcing one more
    if f.max_derivative_order < needed:
        raise InsufficientSmoothness(needed, f.max_derivative_order)
    if f.kind == "sampled":
        warnings.warn("sampled forcing: derivatives via finite differences")

    N = np.zeros((n - nV, n - nV), dtype=complex)
    for q in range(1, k + 1):
        N[edges[q] - nV:edges[q + 1] - nV, edges[q + 1] - nV:] = \
            Rt[edges[q]:edges[q + 1], edges[q + 1]:]
    top = k if nV else k - 1

    xt = np.zeros((n, t.size), dtype=complex)
    if nV:
        B = spla.inv(Rt[:nV, :nV])
        nodes, weights = np.polynomial.legendre.leggauss(4)
        taus = 0.5 * h * (nodes + 1.0)
        ws = 0.5 * h * weights
        Phi = expm(h * B)
        prop = [expm((h - tq) * B) for tq in taus]
        xV = (Uh @ np.asarray(x0, dtype=complex).reshape(-1))[:nV]
        xt[:nV, 0] = xV

    for b0 in range(0, t.size, _BLOCK):
        tb = t[b0:b0 + _BLOCK]
        if k:
            _, xW = _fd_derivatives(UhG, N, nV, f, mu, tb, top)
            xt[nV:, b0:b0 + tb.size] = xW[0]
        if not nV:
            continue
        # steps [t_j, t_j + h] starting in this block; Gauss quadrature of
        # int e^((h - tau) B) B h_sig(t_j + tau) with h_sig = f_V - R_0W x_W'
        starts = tb[:t.size - 1 - b0]
        inc = np.zeros((nV, starts.size), dtype=complex)
        for q in range(4):
            g, xW = _fd_derivatives(UhG, N, nV, f, mu, starts + taus[q], top)
            h_sig = g[0][:nV]
            if k:
                h_sig = h_sig - Rt[:nV, nV:] @ xW[1]
            inc += ws[q] * (prop[q] @ (B @ h_sig))
        for i in range(starts.size):
            xV = Phi @ xV + inc[:, i]
            xt[:nV, b0 + i + 1] = xV

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

    stair = staircase_from_chain(p, build_chain(p, mu, side="right"))
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
    """f = 0: project x0 onto V_k and evolve with the degenerate semigroup.

    T_R(t) = Q e^(t A_R) Q^* on the orthonormal basis Q of V_k, so on the
    uniform grid z_{j+1} = e^(h A_R) z_j and x_j = Q z_j with z_0 = Q^* x0.
    The index and block sizes come from the same Wong chain of R(mu).
    """
    if not p.is_square:
        raise ValueError("solver requires a square pencil")
    t, h = _check_grid(t_grid)
    if mu is None:
        mu = _pick_mu(p)
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    chain = build_chain(p, mu, side="right")
    gen = restricted_generator(p, chain)
    k = chain.stabilization_k

    Q = gen.basis.basis
    z = np.empty((Q.shape[1], t.size), dtype=complex)
    z[:, 0] = Q.conj().T @ x0
    Phi = expm(h * gen.matrix)
    for j in range(1, t.size):
        z[:, j] = Phi @ z[:, j - 1]
    x0p = Q @ z[:, 0]
    correction = float(np.linalg.norm(x0 - x0p))
    report = SolveReport(
        times=t, trajectory=Q @ z, consistent_x0=x0p,
        correction_norm=correction, classical_residual=np.nan,
        mild_residual=np.nan, mu_used=mu, index_k=k,
        block_sizes=chain.block_sizes, method="semigroup")
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
    fv = f.sample(t)
    traj = np.zeros((p.n, t.size), dtype=complex)
    traj[:, 0] = x0
    x = x0
    for j in range(1, t.size):
        rhs = p.E @ x + h * fv[:, j]
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
    fv = f.sample(t)
    Ex = p.E @ x
    Ax = p.A @ x

    xinf = float(np.max(np.linalg.norm(x, axis=0)))
    finf = float(np.max(np.linalg.norm(fv, axis=0)))
    scale = (1.0 + np.linalg.norm(p.E, 2) * xinf
             + np.linalg.norm(p.A, 2) * xinf + finf)

    # one expression, so no n x N temporary outlives it
    classical = float(np.max(np.linalg.norm(
        (-Ex[:, 4:] + 8 * Ex[:, 3:-1] - 8 * Ex[:, 1:-3] + Ex[:, :-4]) / (12 * h)
        - Ax[:, 2:-2] - fv[:, 2:-2], axis=0))) / scale

    cum_x = np.zeros_like(x)
    cum_f = np.zeros_like(fv)
    cum_x[:, 1:] = np.cumsum(0.5 * h * (x[:, 1:] + x[:, :-1]), axis=1)
    cum_f[:, 1:] = np.cumsum(0.5 * h * (fv[:, 1:] + fv[:, :-1]), axis=1)
    defect = Ex - Ex[:, [0]] - p.A @ cum_x - cum_f
    mild = float(np.max(np.linalg.norm(defect, axis=0))) / scale
    return classical, mild
