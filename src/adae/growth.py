"""Index conditions on resolvent growth, dissipativity certificates, and the
tractability projector chain.

Growth conditions along real lambda -> infinity:

    (G_k):  ||lambda^(2-k) R(lambda)||          bounded (pseudo-resolvent)
    (R_k):  ||lambda^(1-k) (lambda E - A)^-1||  bounded (resolvent)
    (D_k):  ||R(lambda) x|| <= M/(lambda-omega) ||x||  on ran R(omega)^(k-1)

Index estimates fit a log-log slope over the top two decades of a lambda
grid; they and check_Dk record the evidence grid and the smallest observed
M.  The D1/D2 certificates are decided from their sufficient conditions.
"""

import warnings
from contextvars import ContextVar
from dataclasses import dataclass, field
from math import ceil

import numpy as np
import scipy.linalg as spla

from .chains import _pick_mu, build_chain
from .exceptions import ChainStalled
from .numerics import (
    Subspace,
    _qz_regular,
    _take,
    as_matrix,
    norm2,
    null_basis,
    range_basis,
    rank_from_svals,
    svd,
    svdvals,
)
from .pencil import (
    MatrixPencil,
    _resolvents,
    _side_product,
    pseudo_resolvent,
)

__all__ = [
    "LambdaGrid",
    "GrowthCertificate",
    "TractabilityChain",
    "estimate_G_index",
    "estimate_R_index",
    "check_Dk",
    "check_left_dissipativity",
    "certify_D1",
    "certify_D1_from",
    "certify_D2",
    "tractability_chain",
    "index_comparison_report",
]


@dataclass(frozen=True)
class LambdaGrid:
    points: np.ndarray
    omega: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise ValueError("grid needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(pts <= self.omega):
            raise ValueError("all grid points must exceed omega")
        object.__setattr__(self, "points", pts)

    @classmethod
    def default(cls, omega: float = 0.0, n_points: int = 48,
                lam_min: float = 1.0, lam_max: float = 1e4) -> "LambdaGrid":
        # the default lam_max = 1e4 stays well below 1/eps^(1/3): the
        # resolvent of an index-k pencil has cond ~ lam^k, and beyond
        # eps*cond ~ 1 the computed norms carry no information
        if not (0 < lam_min < np.inf and 0 < lam_max < np.inf):
            raise ValueError("lambda bounds must be positive and finite")
        pts = np.logspace(np.log10(lam_min), np.log10(lam_max), n_points)
        if omega >= lam_min:
            pts = pts + omega
        return cls(points=pts, omega=omega)


@dataclass
class GrowthCertificate:
    kind: str  # G | R | Rw | D | dissip | D1-cert | D2-cert
    k: int
    omega: float
    M: float
    verdict: str  # holds | fails | inconclusive
    evidence: list = field(default_factory=list)  # (lambda, measured value)
    detail: str = ""

    def to_dict(self):
        return {
            "kind": self.kind,
            "k": self.k,
            "omega": self.omega,
            "M": self.M,
            "verdict": self.verdict,
            "detail": self.detail,
            "evidence": [{"lambda": float(l), "value": float(v)}
                         for l, v in self.evidence],
        }


# The sweep inverts blocks of lambda as one (L, n, n) stack of about
# _BLOCK_ELEMS entries: every lambda of an index-corpus pencil (n <= 12) in
# one block, 40 at n = 40, and one at n = 200 (heat-wave m = 50), where one
# lambda is already a BLAS-bound 40 000 entries and a stack would only
# raise the peak memory.
_BLOCK_ELEMS = 2 ** 16


class _Sweep:
    """Norms of (lam E - A)^-1 and of the pseudo-resolvents at the points of
    several lambda grids, from one certified inverse per distinct lambda.

    A norm is named "R" (of (lam E - A)^-1), "left" or "right" (of R_l(lam)
    or R_r(lam)), or (side, j) for R_side(lam) restricted to `bases[j]`.
    `run` computes the norms asked for in ascending order of lambda, one
    block of max(1, _BLOCK_ELEMS // n^2) lambda at a time: one stacked
    certified inverse per block, then per side one stacked pseudo-resolvent
    and per name one stacked norm, each slice bitwise as if its lambda were
    taken alone.  It keeps the norms, not the inverses.  A lambda outside
    the resolvent set is recorded in `failed`; on every grid it drops the
    points below it.  `at` holds R_side(omega) by (omega, side) for the
    restrictions, each computed once, and may be given some already known.
    """

    def __init__(self, p, at=None):
        self.p = p
        self.bases = []
        self.values = {}  # lambda -> {name: norm}
        self.failed = set()
        self.at = dict(at or {})
        self._restrictions = {}  # (k, omega, side) -> name or None

    def restriction(self, k, omega, side):
        """The name of the norm of R_side(lam) restricted to
        ran R(omega)^(k-1), or None when that space is trivial."""
        key = (k, omega, side)
        if key not in self._restrictions:
            Q = Subspace.full(self.p.n)
            if k > 1:
                if (omega, side) not in self.at:
                    self.at[omega, side] = pseudo_resolvent(self.p, omega,
                                                            side)
                Q = _ran_power(self.at[omega, side], k - 1, self.p.pol)
            if Q.dim == 0:
                name = None
            elif k == 1:  # the whole space
                name = side
            else:
                self.bases.append(Q.basis)
                name = side, len(self.bases) - 1
            self._restrictions[key] = name
        return self._restrictions[key]

    def run(self, wanted):
        """Compute every (lambda, name) in `wanted` that is not known yet."""
        todo = {}
        for lam, name in wanted:
            lam = float(lam)
            if lam not in self.failed and name not in self.values.get(lam, ()):
                todo.setdefault(lam, {})[name] = None
        lams = sorted(todo)
        size = max(1, _BLOCK_ELEMS // max(self.p.n ** 2, 1))
        for b0 in range(0, len(lams), size):
            self._run_block(lams[b0:b0 + size], todo)

    def _run_block(self, lams, todo):
        res, errors = _resolvents(self.p, lams)  # (lam E - A)^-1, stacked
        wants = {}  # name -> the slices it is asked for at
        for i, (lam, error) in enumerate(zip(lams, errors)):
            if error is not None:
                self.failed.add(lam)
                continue
            for name in todo[lam]:
                wants.setdefault(name, []).append(i)
        slices = {}  # side -> the slices any of its names is asked for at
        for name, idx in wants.items():
            if name != "R":
                side = name if isinstance(name, str) else name[0]
                slices.setdefault(side, set()).update(idx)
        neg = -res if slices else None  # as in pseudo_resolvent: (A - lam E)^-1
        sides = {}  # side -> (its slices, R_side at them)
        for side, idx in slices.items():
            idx = sorted(idx)
            sides[side] = idx, _side_product(self.p, _take(neg, idx), side)
        for name, idx in wants.items():
            if name == "R":
                m = _take(res, idx)
            else:
                side, j = (name, None) if isinstance(name, str) else name
                at, prod = sides[side]
                m = _take(prod, np.searchsorted(at, idx))
                if j is not None:
                    m = m @ self.bases[j]
            for i, v in zip(idx, norm2(m)):
                self.values.setdefault(lams[i], {})[name] = float(v)

    def kept(self, grid, name):
        """The points of `grid` above its highest failing lambda, their norms
        `name`, and that lambda (None if none failed)."""
        fails = [lam for lam in grid.points if float(lam) in self.failed]
        failed_at = fails[-1] if fails else None
        lams = [float(lam) for lam in grid.points
                if failed_at is None or lam > failed_at]
        return (np.array(lams),
                np.array([self.values[lam][name] for lam in lams], dtype=float),
                failed_at)


# The sweep that index_comparison_report shares with the estimators and
# certificates it calls: it computes every norm they will read before they
# run, so they find them there.  Outside a report each call sweeps alone.
_SHARED_SWEEP = ContextVar("adae_shared_sweep", default=None)


def _sweep_for(p):
    sweep = _SHARED_SWEEP.get()
    return sweep if sweep is not None and sweep.p is p else _Sweep(p)


def _on_grid(grid, *names):
    return [(lam, name) for lam in grid.points for name in names]


def _warn_shrunk(failed_at, kept):
    if failed_at is not None:
        warnings.warn(
            f"resolvent unavailable at lambda={failed_at:.3e}; "
            f"grid shrunk to {kept} points above it")


def _top_decades(lams):
    """Mask of the points of the ascending `lams` in its top two decades."""
    return lams >= lams[-1] / 100.0


def _slope_fit(lams, norms):
    """Log-log slope over the top two decades; returns (slope, max residual).

    Points with essentially zero norm are treated as an identically vanishing
    tail (slope -inf sentinel).
    """
    top = _top_decades(lams)
    ls, ns = lams[top], norms[top]
    tiny = 1e-300
    if np.all(ns < 1e-150):
        return -np.inf, 0.0
    lx = np.log10(ls)
    ly = np.log10(np.maximum(ns, tiny))
    coef = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(np.polyval(coef, lx) - ly)))
    return float(coef[0]), resid


def _index_estimate(p, grid, name):
    """Smallest k with lambda^(c-k) ||.|| bounded: c = 2 for G_k on the
    pseudo-resolvent `name` ("left"/"right"), c = 1 for R_k (name "R")."""
    if grid is None:
        grid = LambdaGrid.default()
    sweep = _sweep_for(p)
    sweep.run(_on_grid(grid, name))
    lams, norms, failed_at = sweep.kept(grid, name)
    _warn_shrunk(failed_at, lams.size)
    return _index_fit(lams, norms, grid.omega, name)


def _index_fit(lams, norms, omega, name):
    """_index_estimate's certificate from the kept points and their norms.
    Its k and verdict are those of the slope fit over the top two decades."""
    kind, c = ("R", 1) if name == "R" else ("G", 2)
    if lams.size < 4:
        return GrowthCertificate(kind, 0, omega, np.inf, "inconclusive",
                                 detail="too few usable grid points")
    slope, resid = _slope_fit(lams, norms)
    if slope == -np.inf:
        k = 0
        M = 0.0
    else:
        k = max(0, ceil(slope - 0.1) + c)
        M = float(np.max(lams ** (c - k) * norms))
    verdict = "holds" if resid < 0.2 else "inconclusive"
    shown = round(slope, 3) + 0.0  # a slope that rounds to -0.0 reads 0.000
    return GrowthCertificate(kind, k, omega, M, verdict,
                             evidence=list(zip(lams, norms)),
                             detail=f"slope {shown:.3f}, fit residual {resid:.3f}")


def estimate_G_index(p: MatrixPencil, grid: LambdaGrid | None = None,
                     side: str = "left") -> GrowthCertificate:
    """Smallest k with lambda^(2-k) ||R(lambda)|| bounded, from a slope fit."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _index_estimate(p, grid, side)


def estimate_R_index(p: MatrixPencil,
                     grid: LambdaGrid | None = None) -> GrowthCertificate:
    """Smallest k with lambda^(1-k) ||(lambda E - A)^-1|| bounded."""
    return _index_estimate(p, grid, "R")


def _ran_power(R, power, pol):
    """Orthonormal basis of ran R^power."""
    sub = Subspace.full(len(R))
    for _ in range(power):
        sub = range_basis(R @ sub.basis, pol)
    return sub


def _Dk_wanted(grid, name, side):
    """The norms (D_k) on `grid` reads from a sweep: the restricted norms
    `name`, and ||R_side(lam)|| at the lowest kept point, which scales the
    vanishing test (asked for at the lowest grid point, and computed late
    only when a failing lambda drops that point)."""
    return _on_grid(grid, name) + [(grid.points[0], side)]


def check_Dk(p: MatrixPencil, k: int, grid: LambdaGrid | None = None,
             side: str = "left") -> GrowthCertificate:
    """(D_k): (lambda-omega) ||R(lambda)|restricted|| bounded on ran R(w)^(k-1).

    The reported M is the grid supremum, hence a lower bound on the true
    supremum over the half line.  Verdict `holds` additionally requires the
    per-point values to be non-increasing over the top decade.
    """
    if k < 1:
        raise ValueError("check_Dk needs k >= 1")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if grid is None:
        grid = LambdaGrid.default()
    omega = grid.omega
    sweep = _sweep_for(p)
    name = sweep.restriction(k, omega, side)
    if name is None:
        return GrowthCertificate("D", k, omega, 0.0, "holds",
                                 detail="restriction subspace is trivial")
    sweep.run(_Dk_wanted(grid, name, side))
    lams, norms, failed_at = sweep.kept(grid, name)
    _warn_shrunk(failed_at, lams.size)
    if lams.size < 4:
        return GrowthCertificate("D", k, omega, np.inf, "inconclusive",
                                 detail="too few usable grid points")
    sweep.run([(lams[0], side)])
    scale = sweep.values[lams[0]][side]
    vals = (lams - omega) * norms
    M = float(np.max(vals))
    # restricted resolvent vanishing identically: vals are pure noise
    if M <= 1e-10 * max(scale, 1.0):
        return GrowthCertificate("D", k, omega, M, "holds",
                                 evidence=list(zip(lams, vals)),
                                 detail="restricted resolvent vanishes")
    # boundedness test: fit the log-log slope of the values over the top two
    # decades; saturation toward a finite supremum gives slope ~ 0, a failing
    # restriction grows like lambda (slope ~ 1)
    slope, _ = _slope_fit(lams, vals)
    if slope == -np.inf or slope < 0.1:
        verdict = "holds"
    elif slope > 0.5:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return GrowthCertificate("D", k, omega, M, verdict,
                             evidence=list(zip(lams, vals)),
                             detail="grid supremum; lower bound on true M")


def _herm(m):
    return 0.5 * (m + m.conj().T)


def check_left_dissipativity(p: MatrixPencil, omega: float = 0.0) -> GrowthCertificate:
    """omega-dissipativity as a quadratic-form sign condition.

    Holds iff the largest eigenvalue of Herm(E^H A) - omega E^H E is below
    residual_tol * scale, the Hilbert-space form of (lambda-omega)||Ex|| <=
    ||(lambda E - A)x||.
    """
    H = _herm(p.E.conj().T @ p.A) - omega * (p.E.conj().T @ p.E)
    lam_max = float(np.max(spla.eigvalsh(H))) if p.n else 0.0
    scale = p.norm_E * p.norm_A + p.norm_E ** 2 + 1.0
    ok = lam_max <= p.pol.residual_tol * scale
    return GrowthCertificate("dissip", 0, omega, 1.0,
                             "holds" if ok else "fails",
                             evidence=[(0.0, lam_max)],
                             detail=f"lambda_max(Herm(E^H A) - w E^H E) = {lam_max:.3e}")


# The D certificates' prerequisite is regularity (p.regular): a square
# pencil has a surjective lambda0 E - A for some lambda0 > omega exactly when
# det(lambda E - A) is not identically zero, and then ker E /\\ ker A = {0},
# as a common null vector makes det(lambda E - A) vanish for every lambda.
_NOT_REGULAR = "no full-rank probe lambda0 > omega found"


def certify_D1(p: MatrixPencil, omega: float = 0.0) -> GrowthCertificate:
    """Sufficient conditions for (D_1) with M = 1.

    Dissipativity and regularity (which gives a surjective lambda0 E - A
    and trivial ker E /\\ ker A) give ||E (A - lambda E)^-1|| <= 1/(lambda -
    omega).  The verdict comes from these hypotheses alone; check_Dk
    measures the constant on a grid.
    """
    return certify_D1_from(p, check_left_dissipativity(p, omega))


def certify_D1_from(p: MatrixPencil, diss: GrowthCertificate
                    ) -> GrowthCertificate:
    """certify_D1 at diss.omega, from the check_left_dissipativity result
    there, for a caller that has it already (no second eigensolve)."""
    if diss.verdict != "holds":
        failure = "dissipativity fails: " + diss.detail
    else:
        failure = None if p.regular else _NOT_REGULAR
    return GrowthCertificate("D1-cert", 1, diss.omega, 1.0,
                             "fails" if failure else "holds",
                             detail=failure or "")


def certify_D2(p: MatrixPencil, omega: float = 0.0) -> GrowthCertificate:
    """Sufficient conditions for (D_2) with M = M1/M2.

    E self-adjoint nonnegative with closed range, A - omega E dissipative,
    and a regular pencil (a surjective lambda0 E - A and trivial ker E /\\
    ker A); M1/M2 are the extreme nonzero singular values of E.  The
    verdict comes from these hypotheses alone; check_Dk measures the
    constant on a grid.
    """
    def fails(why):
        return GrowthCertificate("D2-cert", 2, omega, np.inf, "fails",
                                 detail=why)

    scale = p.norm_E + 1.0
    if norm2(p.E - p.E.conj().T) > p.pol.residual_tol * scale:
        return fails("E is not self-adjoint")
    eigE = spla.eigvalsh(_herm(p.E)) if p.n else np.array([])
    if eigE.size and eigE[0] < -p.pol.residual_tol * scale:
        return fails("E has a negative eigenvalue")
    HA = _herm(p.A - omega * p.E)
    lam_max = float(np.max(spla.eigvalsh(HA))) if p.n else 0.0
    if lam_max > p.pol.residual_tol * (p.norm_A + scale):
        return fails("A - omega E is not dissipative")
    if not p.regular:
        return fails(_NOT_REGULAR)
    svals = svdvals(p.E)
    r = rank_from_svals(svals, p.E.shape, p.pol)
    if r == 0:
        return fails("E vanishes")
    M1, M2 = float(svals[0]), float(svals[r - 1])
    return GrowthCertificate("D2-cert", 2, omega, M1 / M2, "holds",
                             detail=f"M1={M1:.6f}, M2={M2:.6f}")


@dataclass
class TractabilityChain:
    stages: list  # (E_i, A_i, Q_i, P_i)
    index: int | None


def _oblique_projector(onto: Subspace, must_contain: Subspace, pol):
    """Projector with range `onto`, kernel containing `must_contain`.

    The kernel is must_contain extended by orthogonal directions until it
    complements `onto` (oblique only where the data forces it): the
    trailing left singular vectors of [onto, must_contain], from one SVD.
    With T = [onto, kernel] it is onto inv(T)[:dim onto].
    """
    M = np.hstack([onto.basis, must_contain.basis])
    u, s, _ = svd(M)
    K = np.hstack([must_contain.basis, u[:, rank_from_svals(s, M.shape, pol):]])
    if onto.dim + K.shape[1] != onto.ambient_dim:
        raise ChainStalled(
            "kernel extension does not complement the projector range")
    return onto.basis @ spla.inv(np.hstack([onto.basis, K]))[:onto.dim]


def tractability_chain(p: MatrixPencil) -> TractabilityChain:
    """Projector chain E_{i+1} = E_i - A_i Q_i, A_{i+1} = A_i P_i, for at
    most n + 1 stages."""
    n = p.n
    E_i, A_i = p.E.copy(), p.A.copy()
    stages = []
    seen_kernels = []
    for i in range(n + 1):
        N_i = null_basis(E_i, p.pol)
        if N_i.dim == 0:
            return TractabilityChain(stages=stages, index=i)
        if seen_kernels:
            accum = range_basis(np.hstack([s.basis for s in seen_kernels]), p.pol)
        else:
            accum = Subspace.zero(n)
        Q_i = _oblique_projector(N_i, accum, p.pol)
        P_i = np.eye(n) - Q_i
        stages.append((E_i, A_i, Q_i, P_i))
        seen_kernels.append(N_i)
        E_i = E_i - A_i @ Q_i
        A_i = A_i @ P_i
    return TractabilityChain(stages=stages, index=None)


def index_comparison_report(p: MatrixPencil, grid: LambdaGrid | None = None):
    """Run every index notion on one pencil and flag implication violations.

    Checks the one-way implications between the growth conditions:
    G_k forces the weak resolvent condition at the same k, which in turn
    forces G_{k+1} and rules out G_{k-1}; in the bounded (matrix) setting
    R_k forces D_k on the appropriate subspace.

    The estimators share one sweep, which inverts each distinct lambda of
    its grids once, and takes R(mu) from the Wong chain.  The R-index fixes
    the D_check restriction, and its k and verdict come from the top two
    decades of the G/R grid alone, so those are swept first, then every
    other lambda.  (A G/R grid whose top decades reach into D_check's grid
    inverts the shared points twice.)
    """
    if grid is None:
        grid = LambdaGrid.default()
    # the oracles that need no sweep run first, so that their temporaries
    # are freed before the sweep's state is allocated (lower peak memory)
    chain_obj = tractability_chain(p)
    mu = _pick_mu(p)
    wong = build_chain(p, mu, side="left")
    # the QZ oracle reads the pencil's regularity probe, and takes its
    # matrices through as_matrix as qz_canonical does: their values, not
    # their array dtype, pick the real or the complex form
    eigs, qz_index = _qz_regular(as_matrix(p.E), as_matrix(p.A), p.regular)
    sweep = _Sweep(p, at={(mu, "left"): wong.R})
    token = _SHARED_SWEEP.set(sweep)
    try:
        top = LambdaGrid(grid.points[_top_decades(grid.points)], grid.omega)
        sweep.run(_on_grid(top, "left", "right", "R"))
        d_check_grid = LambdaGrid.default(omega=_safe_omega(eigs))
        r_top = _index_fit(*sweep.kept(top, "R")[:2], grid.omega, "R")
        d_wanted = []
        if r_top.verdict == "holds" and r_top.k >= 1:
            name = sweep.restriction(r_top.k, d_check_grid.omega, "left")
            if name is not None:
                d_wanted = _Dk_wanted(d_check_grid, name, "left")
        sweep.run(_on_grid(grid, "left", "right", "R") + d_wanted)
        g_left = estimate_G_index(p, grid, side="left")
        g_right = estimate_G_index(p, grid, side="right")
        r_cert = estimate_R_index(p, grid)

        violations = []
        # G_k => R_k^w: the R-estimate cannot exceed the G-estimate's k
        if g_left.verdict == "holds" and r_cert.verdict == "holds":
            if r_cert.k > g_left.k:
                violations.append(
                    f"G_{g_left.k} holds but weak R_{g_left.k} fails "
                    f"(R-index {r_cert.k})")
            # R_k^w => G_{k+1} and not G_{k-1}
            if g_left.k > r_cert.k + 1 or g_left.k < r_cert.k:
                violations.append(
                    f"R-index {r_cert.k} incompatible with G-index {g_left.k}")
        # bounded-A case: R_k => D_k
        d_cert = None
        if r_cert.verdict == "holds" and r_cert.k >= 1:
            d_cert = check_Dk(p, r_cert.k, d_check_grid, side="left")
            if d_cert.verdict == "fails":
                violations.append(
                    f"R_{r_cert.k} holds but D_{r_cert.k} fails at "
                    f"omega={d_cert.omega:.3f}")

        return {
            "G_index_left": g_left,
            "G_index_right": g_right,
            "R_index": r_cert,
            "Rw_index": r_cert.k if r_cert.verdict == "holds" else None,
            "D_check": d_cert,
            "tractability_index": chain_obj.index,
            "wong_stabilization": wong.stabilization_k,
            "wong_mu": mu,
            "wong_chain": wong,
            "qz_index": qz_index,
            "qz_eigenvalues": eigs,
            "violations": violations,
        }
    finally:
        _SHARED_SWEEP.reset(token)


def _safe_omega(eigs):
    """An omega with (omega, inf) inside the sampled resolvent set, from the
    QZ eigenvalues; here 0 unless the spectrum suggests shifting right."""
    finite = [e.real for e in eigs if e != np.inf]
    if not finite:
        return 0.0
    return max(0.0, max(finite) + 0.5)
