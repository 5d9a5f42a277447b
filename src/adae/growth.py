"""Index conditions on resolvent growth, dissipativity certificates, and the
tractability projector chain.

Growth conditions along real lambda -> infinity:

    (G_k):  ||lambda^(2-k) R(lambda)||          bounded (pseudo-resolvent)
    (R_k):  ||lambda^(1-k) (lambda E - A)^-1||  bounded (resolvent)
    (D_k):  ||R(lambda) x|| <= M/(lambda-omega) ||x||  on ran R(omega)^(k-1)

Index estimates fit a log-log slope over the top two decades of a lambda
grid; certificates record the evidence grid and the smallest observed M.
"""

import warnings
from dataclasses import dataclass, field
from math import ceil

import numpy as np
import scipy.linalg as spla

from .chains import build_chain
from .exceptions import ChainStalled, NotInResolventSet
from .numerics import (
    Subspace,
    null_basis,
    qz_canonical,
    range_basis,
    rank_with_tol,
    subspace_intersection,
)
from .pencil import MatrixPencil, pseudo_resolvent, resolvent_at

__all__ = [
    "LambdaGrid",
    "GrowthCertificate",
    "TractabilityChain",
    "estimate_G_index",
    "estimate_R_index",
    "check_Dk",
    "check_left_dissipativity",
    "certify_D1",
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
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(pts <= self.omega):
            raise ValueError("all grid points must exceed omega")
        object.__setattr__(self, "points", pts)

    @classmethod
    def default(cls, omega: float = 0.0, n_points: int = 48,
                lam_min: float = 1.0, lam_max: float = 1e4) -> "LambdaGrid":
        # lam_max is capped well below 1/eps^(1/3): the resolvent of an
        # index-k pencil has cond ~ lam^k, and beyond eps*cond ~ 1 the
        # computed norms carry no information
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


def _grid_sweep(grid, sample, width):
    """Evaluate sample(lam, first) over the grid, shrinking past failures.

    `sample` returns `width` norms at lam; `first` is True when no point
    below lam is kept.  A NotInResolventSet at lam drops every point below
    it.  Returns the kept points, an array with one row of norms per kept
    point, and the highest failing lambda (None if none failed).
    """
    lams, rows = [], []
    failed_at = None
    for lam in grid.points:
        try:
            rows.append(sample(lam, not lams))
            lams.append(float(lam))
        except NotInResolventSet:
            failed_at = lam
            lams, rows = [], []  # keep only points above the failure
    return np.array(lams), np.array(rows, dtype=float).reshape(-1, width), failed_at


def _warn_shrunk(failed_at, kept):
    if failed_at is not None:
        warnings.warn(
            f"resolvent unavailable at lambda={failed_at:.3e}; "
            f"grid shrunk to {kept} points above it")


def _slope_fit(lams, norms):
    """Log-log slope over the top two decades; returns (slope, max residual).

    Points with essentially zero norm are treated as an identically vanishing
    tail (slope -inf sentinel).
    """
    top = lams >= lams[-1] / 100.0
    ls, ns = lams[top], norms[top]
    tiny = 1e-300
    if np.all(ns < 1e-150):
        return -np.inf, 0.0
    lx = np.log10(ls)
    ly = np.log10(np.maximum(ns, tiny))
    coef = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(np.polyval(coef, lx) - ly)))
    return float(coef[0]), resid


def _index_certificate(kind, grid, lams, norms):
    """Smallest k with lambda^(c-k) ||.|| bounded (c = 2 for G, 1 for R)."""
    c = 2 if kind == "G" else 1
    if lams.size < 4:
        return GrowthCertificate(kind, 0, grid.omega, np.inf, "inconclusive",
                                 detail="too few usable grid points")
    slope, resid = _slope_fit(lams, norms)
    if slope == -np.inf:
        k = 0
        M = 0.0
    else:
        k = max(0, ceil(slope - 0.1) + c)
        M = float(np.max(lams ** (c - k) * norms))
    verdict = "holds" if resid < 0.2 else "inconclusive"
    return GrowthCertificate(kind, k, grid.omega, M, verdict,
                             evidence=list(zip(lams, norms)),
                             detail=f"slope {slope:.3f}, fit residual {resid:.3f}")


def _growth_certificates(p, grid, kinds):
    """G/R index estimates from one certified inverse per lambda.

    `kinds` holds "left"/"right" (G_k on that pseudo-resolvent) and "R"
    (R_k).  Each lambda inverts lam*E - A once and takes every requested
    norm from it; the inverse is dropped before the next lambda.
    """
    if grid is None:
        grid = LambdaGrid.default()

    def sample(lam, first):
        res = resolvent_at(p, lam).inverse  # (lam E - A)^-1
        # pivoted LU commutes with negation, so -res is bitwise the inverse
        # of A - lam E that the pseudo-resolvents are built from
        mats = {"R": lambda: res, "left": lambda: p.E @ (-res),
                "right": lambda: (-res) @ p.E}
        return [np.linalg.norm(mats[kind](), 2) for kind in kinds]

    lams, norms, failed_at = _grid_sweep(grid, sample, len(kinds))
    certs = []
    for j, kind in enumerate(kinds):
        _warn_shrunk(failed_at, lams.size)
        certs.append(_index_certificate("R" if kind == "R" else "G", grid,
                                        lams, norms[:, j]))
    return certs


def estimate_G_index(p: MatrixPencil, grid: LambdaGrid | None = None,
                     side: str = "left") -> GrowthCertificate:
    """Smallest k with lambda^(2-k) ||R(lambda)|| bounded, from a slope fit."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _growth_certificates(p, grid, (side,))[0]


def estimate_R_index(p: MatrixPencil,
                     grid: LambdaGrid | None = None) -> GrowthCertificate:
    """Smallest k with lambda^(1-k) ||(lambda E - A)^-1|| bounded."""
    return _growth_certificates(p, grid, ("R",))[0]


def _ran_R_power(p, omega, power, side):
    """Orthonormal basis of ran R(omega)^power."""
    n = p.E.shape[0] if side == "left" else p.n
    sub = Subspace.full(n)
    if power == 0:
        return sub
    R = pseudo_resolvent(p, omega, side)
    for _ in range(power):
        sub = range_basis(R @ sub.basis, p.pol)
    return sub


def check_Dk(p: MatrixPencil, k: int, grid: LambdaGrid | None = None,
             side: str = "left") -> GrowthCertificate:
    """(D_k): (lambda-omega) ||R(lambda)|restricted|| bounded on ran R(w)^(k-1).

    The reported M is the grid supremum, hence a lower bound on the true
    supremum over the half line.  Verdict `holds` additionally requires the
    per-point values to be non-increasing over the top decade.
    """
    if k < 1:
        raise ValueError("check_Dk needs k >= 1")
    if grid is None:
        grid = LambdaGrid.default()
    omega = grid.omega
    Q = _ran_R_power(p, omega, k - 1, side)
    if Q.dim == 0:
        return GrowthCertificate("D", k, omega, 0.0, "holds",
                                 detail="restriction subspace is trivial")

    def sample(lam, first):
        R = pseudo_resolvent(p, lam, side)
        # at k = 1 the restriction subspace is the whole space
        nrm = np.linalg.norm(R if k == 1 else R @ Q.basis, 2)
        # ||R(lam)|| at the lowest kept point scales the vanishing test
        if k == 1:
            return nrm, nrm
        return nrm, np.linalg.norm(R, 2) if first else np.nan

    lams, rows, failed_at = _grid_sweep(grid, sample, 2)
    _warn_shrunk(failed_at, lams.size)
    if lams.size < 4:
        return GrowthCertificate("D", k, omega, np.inf, "inconclusive",
                                 detail="too few usable grid points")
    norms, scale = rows[:, 0], rows[0, 1]
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
    if not p.is_square:
        raise ValueError("dissipativity check requires a square pencil")
    H = _herm(p.E.conj().T @ p.A) - omega * (p.E.conj().T @ p.E)
    lam_max = float(np.max(spla.eigvalsh(H))) if p.n else 0.0
    scale = (np.linalg.norm(p.E, 2) * np.linalg.norm(p.A, 2)
             + np.linalg.norm(p.E, 2) ** 2 + 1.0)
    ok = lam_max <= p.pol.residual_tol * scale
    return GrowthCertificate("dissip", 0, omega, 1.0,
                             "holds" if ok else "fails",
                             evidence=[(0.0, lam_max)],
                             detail=f"lambda_max(Herm(E^H A) - w E^H E) = {lam_max:.3e}")


def _prerequisite_failure(p, omega):
    """The first failing prerequisite shared by the D certificates, trivial
    ker E /\\ ker A and a full-rank probe lambda0 E - A, or None."""
    kerE = null_basis(p.E, p.pol)
    kerA = null_basis(p.A, p.pol)
    if (kerE.dim and kerA.dim
            and subspace_intersection(kerE, kerA, p.pol).dim):
        return "ker E and ker A intersect nontrivially"
    for lam0 in (omega + 1.0, omega + 3.7, omega + 11.3):
        if rank_with_tol(lam0 * p.E - p.A, p.pol) == p.n:
            return None
    return "no full-rank probe lambda0 > omega found"


def certify_D1(p: MatrixPencil, omega: float = 0.0) -> GrowthCertificate:
    """Sufficient conditions for (D_1) with M = 1.

    Dissipativity + trivial ker E /\\ ker A + a surjective lambda0 E - A give
    ||E (A - lambda E)^-1|| <= 1/(lambda - omega); the certificate also
    records the measured grid constant for cross-validation.
    """
    diss = check_left_dissipativity(p, omega)
    if diss.verdict != "holds":
        return GrowthCertificate("D1-cert", 1, omega, 1.0, "fails",
                                 detail="dissipativity fails: " + diss.detail)
    failure = _prerequisite_failure(p, omega)
    if failure:
        return GrowthCertificate("D1-cert", 1, omega, 1.0, "fails",
                                 detail=failure)
    grid = LambdaGrid.default(omega=omega)
    measured = check_Dk(p, 1, grid, side="left")
    return GrowthCertificate("D1-cert", 1, omega, 1.0, "holds",
                             evidence=measured.evidence,
                             detail=f"measured grid constant {measured.M:.6f}")


def certify_D2(p: MatrixPencil, omega: float = 0.0) -> GrowthCertificate:
    """Sufficient conditions for (D_2) with M = M1/M2.

    E self-adjoint nonnegative with closed range, A - omega E dissipative,
    trivial kernel intersection, and a surjective probe; M1/M2 are the
    extreme nonzero singular values of E.
    """
    scale = np.linalg.norm(p.E, 2) + 1.0
    if np.linalg.norm(p.E - p.E.conj().T, 2) > p.pol.residual_tol * scale:
        return GrowthCertificate("D2-cert", 2, omega, np.inf, "fails",
                                 detail="E is not self-adjoint")
    eigE = spla.eigvalsh(_herm(p.E)) if p.n else np.array([])
    if eigE.size and eigE[0] < -p.pol.residual_tol * scale:
        return GrowthCertificate("D2-cert", 2, omega, np.inf, "fails",
                                 detail="E has a negative eigenvalue")
    HA = _herm(p.A - omega * p.E)
    lam_max = float(np.max(spla.eigvalsh(HA))) if p.n else 0.0
    if lam_max > p.pol.residual_tol * (np.linalg.norm(p.A, 2) + scale):
        return GrowthCertificate("D2-cert", 2, omega, np.inf, "fails",
                                 detail="A - omega E is not dissipative")
    failure = _prerequisite_failure(p, omega)
    if failure:
        return GrowthCertificate("D2-cert", 2, omega, np.inf, "fails",
                                 detail=failure)
    svals = spla.svdvals(p.E)
    r = rank_with_tol(p.E, p.pol)
    if r == 0:
        return GrowthCertificate("D2-cert", 2, omega, np.inf, "fails",
                                 detail="E vanishes")
    M1 = float(svals[0])
    M2 = float(svals[r - 1])
    M = M1 / M2
    grid = LambdaGrid.default(omega=omega)
    measured = check_Dk(p, 2, grid, side="left")
    return GrowthCertificate("D2-cert", 2, omega, M, "holds",
                             evidence=measured.evidence,
                             detail=(f"M1={M1:.6f}, M2={M2:.6f}; "
                                     f"measured grid constant {measured.M:.6f}"))


@dataclass
class TractabilityChain:
    stages: list  # (E_i, A_i, Q_i, P_i)
    index: int | None


def _oblique_projector(onto: Subspace, must_contain: Subspace, pol):
    """Projector with range `onto`, kernel containing `must_contain`.

    The kernel is must_contain extended by orthogonal directions until it
    complements `onto` (oblique only where the data forces it).
    """
    n = onto.ambient_dim
    r = onto.dim
    if r == 0:
        return np.zeros((n, n), dtype=complex)
    # candidate kernel directions: the given ones, then the orthogonal
    # complement of (onto + must_contain)
    cand = [must_contain.basis] if must_contain.dim else []
    span = range_basis(np.hstack([onto.basis] + cand) if cand else onto.basis, pol)
    extra = null_basis(span.basis.conj().T, pol)  # orthogonal complement
    kernel_cols = ([must_contain.basis] if must_contain.dim else []) + \
        ([extra.basis] if extra.dim else [])
    K = np.hstack(kernel_cols) if kernel_cols else np.zeros((n, 0))
    K = range_basis(K, pol).basis
    if K.shape[1] != n - r:
        raise ChainStalled(
            "kernel extension does not complement the projector range")
    T = np.hstack([onto.basis, K])
    D = np.zeros((n, n), dtype=complex)
    D[:r, :r] = np.eye(r)
    return T @ D @ spla.inv(T)


def tractability_chain(p: MatrixPencil, max_stages: int | None = None) -> TractabilityChain:
    """Projector chain E_{i+1} = E_i - A_i Q_i, A_{i+1} = A_i P_i."""
    if not p.is_square:
        raise ValueError("tractability chain requires a square pencil")
    n = p.n
    if max_stages is None:
        max_stages = n + 1
    E_i, A_i = p.E.copy(), p.A.copy()
    stages = []
    seen_kernels = []
    for i in range(max_stages):
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
    """
    g_left, g_right, r_cert = _growth_certificates(
        p, grid, ("left", "right", "R"))
    chain_obj = tractability_chain(p)
    mu = _pick_mu(p)
    wong = build_chain(p, mu, side="left")
    eigs, qz_index = qz_canonical(p.E, p.A, p.pol)

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
    if r_cert.verdict == "holds" and r_cert.k >= 1:
        omega = _safe_omega(eigs)
        d_cert = check_Dk(p, r_cert.k, LambdaGrid.default(omega=omega),
                          side="left")
        if d_cert.verdict == "fails":
            violations.append(
                f"R_{r_cert.k} holds but D_{r_cert.k} fails at "
                f"omega={omega:.3f}")
    else:
        d_cert = None

    report = {
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
    return report


def _pick_mu(p, candidates=(0.0, 1.0, 2.37, 5.11, -1.3, 7.9)):
    """Best-conditioned probe mu among a few moderate real values."""
    best, best_s = None, -1.0
    for mu in candidates:
        m = p.A - mu * p.E
        s = spla.svdvals(m)
        if s.size == 0:
            return 0.0
        if s[-1] > best_s:
            best, best_s = mu, s[-1]
    scale = p.norm_scale()
    if best_s <= p.pol.rank_rel_tol * scale * p.n:
        raise NotInResolventSet(best, "no usable probe mu found")
    return best


def _safe_omega(eigs):
    """An omega with (omega, inf) inside the sampled resolvent set, from the
    QZ eigenvalues; here 0 unless the spectrum suggests shifting right."""
    finite = [e.real for e in eigs if e != np.inf]
    if not finite:
        return 0.0
    return max(0.0, max(finite) + 0.5)
