"""Decoupled solution of d/dt E x = A x + f via the pseudo-resolvent form.

Pipeline: shift x_mu(t) = e^(-mu t) x(t) turns the DAE into

    d/dt R_r(mu) x_mu = x_mu + g_mu,   g_mu(t) = e^(-mu t) (A - mu E)^-1 f(t).

In staircase coordinates of R_r(mu) the W coordinates solve algebraically,
xW^(o) = N xW^(o+1) - g_W^(o) with N the strictly upper block part of R_r(mu)
on W (each order differentiates the forcing once), and the V_k block is an
ODE x' = B x + B h with B the inverse of the compressed R_r(mu).  Both paths
run that one recursion.  For piecewise-polynomial forcing it acts on
coefficient matrices, d/ds being C -> C @ D, so everything stays inside the
class "e^(-mu s) times vector polynomial" and the only floating-point error
is the matrix exponential itself.  Sampled forcing feeds it the
derivatives of the signal's local quartic, taken on its active rows only,
with per-step quadrature on V_k; orders >= 1 are formed on W only.
Both paths read (A - mu E)^-1 from the Wong chain the staircase was derived
from, and R_r(mu) in staircase coordinates, N, B and K from the staircase,
so a solve factors A - mu E once and inverts the compressed R_r(mu) once.
Each path works in the result type of the data it is given (the staircase
factors, x0, the forcing and mu), so a real pencil with real x0 and real
forcing is solved in float64 end to end, and anything complex in
complex128.
"""

from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg as spla

from .chains import _pick_mu, build_chain, staircase_from_chain
from .exceptions import (
    GridTooCoarse,
    InsufficientSmoothness,
    StepSingular,
)
from .forcing import ForcingSignal, PolynomialForcing
from .numerics import as_matrix, expm, svdvals
from .pencil import MatrixPencil

__all__ = [
    "SolveReport",
    "solve_decoupled",
    "solve_homogeneous",
    "implicit_euler_reference",
    "residuals",
]


_BLOCK = 256  # grid times per batched evaluation in _solve_fd and residuals


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


def _shifted_derivative(gf, mu, ts, order):
    """d^order/dt^order [e^(-mu t) g(t)] at the times ts by the product rule,
    from gf[j] = g^(j)(ts) for j <= order (one column per time)."""
    acc = sum(comb(order, j) * (-mu) ** (order - j) * gf[j]
              for j in range(order + 1))
    return np.exp(-mu * np.asarray(ts, dtype=float)) * acc


def _check_grid(p, t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2:
        raise GridTooCoarse("time grid needs at least 2 points")
    h = np.diff(t)
    if not np.allclose(h, h[0], rtol=1e-9, atol=0) or h[0] <= 0:
        raise ValueError("time grid must be uniform and increasing")
    if abs(t[0]) > 1e-14:
        raise ValueError("time grid must start at 0")
    return t, float(h[0])


def _check_forcing(f, t, n):
    """f must have the pencil's n components.  Polynomial breakpoints and
    sampled times must span [0, t_f], and interior breakpoints must sit on
    the grid so steps never straddle a piece."""
    if f.dim != n:
        raise ValueError(f"forcing has {f.dim} components, "
                         f"the pencil has n = {n}")
    tol = 1e-9 * max(t[-1], 1.0)
    poly = isinstance(f, PolynomialForcing)
    ends = f.breakpoints if poly else f.times
    if ends[0] > tol or ends[-1] < t[-1] - tol:
        raise ValueError(f"forcing covers [{ends[0]:g}, {ends[-1]:g}], "
                         f"not the time grid [0, {t[-1]:g}]")
    if poly and any(np.min(np.abs(t - bp)) > tol for bp in ends[1:-1]):
        raise ValueError("forcing breakpoints must lie on the time grid")


def _restart(K, v_old, w_old, w_new):
    """V_k coordinates after the W part jumps from w_old to w_new, at t = 0
    and at breakpoints: v + K w, the part along W_k, is continuous."""
    return v_old - K @ (w_new - w_old)


def _w_coordinates(N, gW):
    """W coordinates and their derivatives from gW[o], the o-th derivative of
    the W part of the staircase forcing, o = 0..top.

    Each W block solves x_q = -g_q + sum_{r>q} R_qr x_r', so with N the
    strictly upper block part of R on W, xW^(o) = N xW^(o+1) - g_W^(o),
    substituted from the top order down.  Cutting the series at top only
    spoils orders above a block's own need (x_q up to order q), which are
    never read.
    """
    xW = [-gW[-1]]
    for g in gW[-2::-1]:
        xW.insert(0, N @ xW[0] - g)
    return xW


def _solve_exact(p, stair, x0, f, t, h, mu):
    """Piecewise-polynomial path: closed under the exp-poly arithmetic.

    On a piece every signal is e^(-mu s) sum_j C[:, j] s^j in the local time
    s, stored as its coefficient matrix C, and d/ds maps C to C @ D with
    D = -mu I + diag(1..d, -1).  The same D generates the companion state
    z(s) = e^(-mu s) (1, s, ..., s^d), which the V_k stepping carries along.
    """
    U, nV, k = stair.unitary, stair.dim_V, stair.k
    UhG = U.conj().T @ stair.chain.G
    Rt, N, B = stair.R_mu, stair.N, stair.generator.S_inv
    top = k if nV else k - 1
    dtype = np.result_type(U, UhG, B, x0, mu, *f.coeffs)
    xt = np.zeros((p.n, t.size), dtype=dtype)  # staircase coords of x_mu
    xt[:, 0] = U.conj().T @ x0  # the W part is the w_old of the first piece
    xV = xt[:nV, 0]
    bps = f.breakpoints
    for ip, C in enumerate(f.coeffs):
        ta = bps[ip]
        j0 = int(np.argmin(np.abs(t - ta)))
        j1 = int(np.argmin(np.abs(t - min(bps[ip + 1], t[-1]))))
        d = C.shape[1] - 1
        D = -mu * np.eye(d + 1, dtype=dtype)
        D += np.diag(np.arange(1, d + 1), -1)
        F = np.exp(-mu * ta) * (UhG @ C)
        gW = [F[nV:]]
        for _ in range(top):
            gW.append(gW[-1] @ D)
        xW = _w_coordinates(N, gW)

        old_w = xt[nV:, j0].copy()
        s = t[j0:j1 + 1] - ta
        powers = s ** np.arange(d + 1)[:, None]
        xt[nV:, j0:j1 + 1] = np.exp(-mu * s) * (xW[0] @ powers)
        if nV:
            xV = _restart(stair.K, xV, old_w, xt[nV:, j0])
            # ODE x' = B x + B h_sig with h_sig = f_V - R_0W x_W'
            h_sig = F[:nV] - Rt[:nV, nV:] @ xW[1] if k else F[:nV]
            Maug = np.zeros((nV + d + 1, nV + d + 1), dtype=dtype)
            Maug[:nV, :nV] = B
            Maug[:nV, nV:] = B @ h_sig
            Maug[nV:, nV:] = D
            Phi = expm(h * Maug)
            # companion state z(s) at the piece's first grid time
            w = np.concatenate([xV, np.exp(-mu * s[0]) * powers[:, 0]])
            xt[:nV, j0] = xV
            for j in range(j0 + 1, j1 + 1):
                w = Phi @ w
                xt[:nV, j] = w[:nV]
            xV = w[:nV]
        if j1 == t.size - 1:
            break

    return _unshift(U @ xt, mu, t)


def _fd_derivatives(UhG, N, nV, f, mu, ts, top):
    """(gV, xW) at the times ts, one column per time: gV the V_k part of the
    staircase forcing g(t) = e^(-mu t) U^* G f(t), xW[o] the o-th derivative
    of the W coordinates, o = 0..top.  Only the W rows are differentiated.
    U^* G multiplies all n rows of each sample, inactive ones included: a
    product over the active columns or the W rows alone rounds differently."""
    gf = [UhG @ fj for fj in f._samples(ts, range(top + 1))]
    gfW = [gj[nV:] for gj in gf]
    gW = [_shifted_derivative(gfW, mu, ts, o) for o in range(top + 1)]
    return (_shifted_derivative([gf[0][:nV]], mu, ts, 0),
            _w_coordinates(N, gW))


def _solve_fd(p, stair, x0, f, t, h, mu):
    """Sampled path: signal derivatives, per-step quadrature on V_k.

    The grid is processed in blocks of _BLOCK times, each evaluated with
    array products; only the V_k recurrence x_j = Phi x_{j-1} + c_j steps
    point by point.
    """
    U, nV, k = stair.unitary, stair.dim_V, stair.k
    UhG = U.conj().T @ stair.chain.G
    Rt, N, B = stair.R_mu, stair.N, stair.generator.S_inv
    top = k if nV else k - 1

    dtype = np.result_type(U, UhG, B, x0, mu, f.values)
    xt = np.zeros((p.n, t.size), dtype=dtype)
    if nV:
        nodes, weights = np.polynomial.legendre.leggauss(4)
        taus = 0.5 * h * (nodes + 1.0)
        ws = 0.5 * h * weights
        Phi = expm(h * B)
        prop = [expm((h - tq) * B) for tq in taus]

    for b0 in range(0, t.size, _BLOCK):
        tb = t[b0:b0 + _BLOCK]
        if k:
            _, xW = _fd_derivatives(UhG, N, nV, f, mu, tb, top)
            xt[nV:, b0:b0 + tb.size] = xW[0]
        if not nV:
            continue
        if not b0:  # start on V_k along W_k
            y0 = U.conj().T @ x0
            xV = _restart(stair.K, y0[:nV], y0[nV:], xt[nV:, 0])
            xt[:nV, 0] = xV
        # steps [t_j, t_j + h] starting in this block; Gauss quadrature of
        # int e^((h - tau) B) B h_sig(t_j + tau) with h_sig = f_V - R_0W x_W'
        starts = tb[:t.size - 1 - b0]
        inc = 0
        for q in range(4):
            h_sig, xW = _fd_derivatives(UhG, N, nV, f, mu, starts + taus[q],
                                        top)
            if k:
                h_sig = h_sig - Rt[:nV, nV:] @ xW[1]
            inc = inc + ws[q] * (prop[q] @ (B @ h_sig))
        for i in range(starts.size):
            xV = Phi @ xV + inc[:, i]
            xt[:nV, b0 + i + 1] = xV

    return _unshift(U @ xt, mu, t)


def solve_decoupled(p: MatrixPencil, x0, f: ForcingSignal, t_grid,
                    mu: complex | None = None) -> SolveReport:
    """Solve the DAE by shift + staircase back-substitution + exact stepping."""
    t, h = _check_grid(p, t_grid)
    if mu is None:
        mu = _pick_mu(p)
    x0 = np.zeros(p.n) if x0 is None else as_matrix(x0).reshape(-1)
    if x0.size != p.n:
        raise ValueError(f"x0 has {x0.size} entries, the pencil has n = {p.n}")
    _check_forcing(f, t, p.n)

    stair = staircase_from_chain(p, build_chain(p, mu, side="right"))
    k, block_sizes = stair.k, list(stair.block_sizes)
    if k > 0 and f.max_derivative_order < k:
        raise InsufficientSmoothness(k, f.max_derivative_order)

    if isinstance(f, PolynomialForcing):
        traj = _solve_exact(p, stair, x0, f, t, h, mu)
        method = "staircase-exact"
    else:
        traj = _solve_fd(p, stair, x0, f, t, h, mu)
        method = "staircase-fd"
    del stair  # and its chain, before residuals allocates

    consistent_x0 = traj[:, 0].copy()
    correction = float(np.linalg.norm(x0 - consistent_x0))
    report = SolveReport(
        times=t, trajectory=traj, consistent_x0=consistent_x0,
        correction_norm=correction, classical_residual=np.nan,
        mild_residual=np.nan, mu_used=mu, index_k=k,
        block_sizes=block_sizes, method=method)
    if t.size >= 5:
        cls_r, mild_r = residuals(p, report, f)
        report.classical_residual = cls_r
        report.mild_residual = mild_r
    return report


def solve_homogeneous(p: MatrixPencil, x0, t_grid,
                      mu: complex | None = None) -> SolveReport:
    """f = 0: x(t) = T_R(t) x0, the decoupled solve with zero forcing.

    The forcing spans at least [0, 1], so solve_decoupled refuses a bad grid.
    """
    f = PolynomialForcing.zero(p.n, np.max(t_grid, initial=1.0))
    return solve_decoupled(p, x0, f, t_grid, mu)


def implicit_euler_reference(p: MatrixPencil, x0, f: ForcingSignal,
                             t_grid) -> SolveReport:
    """(E - h A) x_{n+1} = E x_n + h f(t_{n+1}); independent cross-check.

    E - h A is factored once and applied in two batched solves, P =
    (E - h A)^-1 E and Y = h (E - h A)^-1 [f(t_1), ..., f(t_N)], so the
    steps x_{n+1} = P x_n + Y_{n+1} are products only.
    """
    t, h = _check_grid(p, t_grid)
    x0 = as_matrix(x0).reshape(-1)
    for attempt in range(4):
        M = p.E - h * p.A
        s = svdvals(M)
        if s[-1] > p.pol.rank_rel_tol * s[0] * p.n:
            break
        if attempt == 3:
            raise StepSingular(f"E - h A singular after retries (h={h})")
        h *= 1.01
        t = t[0] + h * np.arange(t.size)
    lu = spla.lu_factor(M)
    Pt = spla.lu_solve(lu, p.E).T
    Y = spla.lu_solve(lu, h * f.sample(t[1:]))
    # one row per time, so each step reads and writes contiguous rows
    X = np.empty((t.size, p.n), dtype=np.result_type(Pt, Y, x0))
    X[0] = x0
    X[1:] = Y.T
    for j in range(1, t.size):
        X[j] += X[j - 1] @ Pt
    traj = X.T
    report = SolveReport(
        times=t, trajectory=traj, consistent_x0=x0, correction_norm=0.0,
        classical_residual=np.nan, mild_residual=np.nan, mu_used=0.0,
        index_k=-1, block_sizes=[], method="implicit-euler")
    return report


def _unshift(y, mu, t):
    """e^(mu t) y(t) for the columns y of the shifted solution, in y."""
    return np.multiply(np.exp(mu * t)[None, :], y, out=y)


def _cumulative_trapezoid(y, h, carry=None) -> np.ndarray:
    """Trapezoidal integrals of the columns of y with step h, formed in the
    one array returned.  The first column is 0, or carry, the integral up
    to y's first column when y is a later block of a grid; each step is
    added to the running sum in turn, so blocks add as np.cumsum over the
    whole grid does."""
    out = np.empty_like(y)
    out[:, 0] = 0 if carry is None else carry
    s = out[:, 1:]
    np.add(y[:, 1:], y[:, :-1], out=s)
    np.multiply(0.5 * h, s, out=s)
    if carry is not None:
        s = out
    np.cumsum(s, axis=1, out=s)
    return out


def _minus(a, b):
    """a - b, written over a when a's dtype holds the result."""
    return np.subtract(a, b, out=a if np.result_type(a, b) == a.dtype else None)


def _max_column_norm(a) -> float:
    """float(np.max(np.linalg.norm(a, axis=0))), rounded as numpy rounds it
    but with one temporary of a's size."""
    if np.iscomplexobj(a):
        sq = np.conjugate(a)
        np.multiply(sq, a, out=sq)
    else:
        sq = a * a
    return float(np.max(np.sqrt(np.add.reduce(sq.real, axis=0))))


def residuals(p: MatrixPencil, report: SolveReport, f: ForcingSignal):
    """(classical, mild) residuals of a trajectory on its grid.

    Classical: 4th-order central differences of E x against A x + f at
    interior points.  Mild: trapezoidal form of the integrated equation.
    Both normalized by the data magnitudes.  The three products with the
    whole trajectory, A cumtrap(x), E x and A x, are one GEMM each (column
    blocks of a product round differently); besides the trajectory, at
    most two arrays of its size are alive at once: cumtrap(x) and A times
    it, then A cumtrap(x) and E x for the mild residual, then E x and A x
    for the classical one.  Everything else (the forcing samples, the
    stencil, the trapezoid sums of the forcing and the column norms) is
    formed _BLOCK grid times at a time, the forcing sampled once per block
    of each pass.  Each value is formed by the operations, in the order,
    of the one-expression form shown in the comments, so it rounds as
    that form does.
    """
    t = report.times
    x = report.trajectory
    if t.size < 5:
        raise GridTooCoarse("residuals need at least 5 grid points")
    h = float(t[1] - t[0])

    # Ex - Ex[:, [0]] - A cumtrap(x) - cumtrap(fv), per block; the block's
    # forcing samples start one column early to carry the trapezoid sums
    Act = p.A @ _cumulative_trapezoid(x, h)
    Ex = p.E @ x
    ex0 = Ex[:, [0]]
    xinf, finf, mild = [], [], []
    carry = None
    for c0 in range(0, t.size, _BLOCK):
        c1 = min(c0 + _BLOCK, t.size)
        lo = max(c0 - 1, 0)
        fv = f.sample(t[lo:c1])
        cum = _cumulative_trapezoid(fv, h, carry)
        carry = cum[:, -1].copy()
        xinf.append(_max_column_norm(x[:, c0:c1]))
        finf.append(_max_column_norm(fv[:, c0 - lo:]))
        defect = np.subtract(Ex[:, c0:c1], ex0)
        defect = _minus(defect, Act[:, c0:c1])
        defect = _minus(defect, cum[:, c0 - lo:])
        mild.append(_max_column_norm(defect))
        del fv, cum, defect
    del Act
    xinf, finf = float(np.max(xinf)), float(np.max(finf))
    scale = 1.0 + p.norm_E * xinf + p.norm_A * xinf + finf

    # (-Ex[:, 4:] + 8 Ex[:, 3:-1] - 8 Ex[:, 1:-3] + Ex[:, :-4]) / (12 h)
    # - Ax[:, 2:-2] - fv[:, 2:-2] on the interior columns c0..c1 - 1 of a
    # block, one operation at a time, in r
    Ax = p.A @ x
    classical = []
    for c0 in range(2, t.size - 2, _BLOCK):
        c1 = min(c0 + _BLOCK, t.size - 2)
        e = Ex[:, c0 - 2:c1 + 2]
        r = np.negative(e[:, 4:])
        w = np.multiply(8, e[:, 3:-1])
        np.add(r, w, out=r)
        np.multiply(8, e[:, 1:-3], out=w)
        np.subtract(r, w, out=r)
        del w
        np.add(r, e[:, :-4], out=r)
        np.divide(r, 12 * h, out=r)
        r = _minus(r, Ax[:, c0:c1])
        r = _minus(r, f.sample(t[c0:c1]))
        classical.append(_max_column_norm(r))
        del r
    return float(np.max(classical)) / scale, float(np.max(mild)) / scale
