"""Kernel/range chains of pseudo-resolvent powers, staircase form, restricted
generator.

V_j = ran R(mu)^j and W_j = ker R(mu)^j are computed by iterated products
against orthonormal bases, never by explicit matrix powers.  Once both chains
stabilize at k, the state space splits as V_k (+) W_k; an orthonormal basis
ordered (V_k | W_k | ... | W_1) makes R(lam) upper block triangular with zero
diagonal blocks on the W part, and R(mu) compressed to V_k is invertible,
yielding the restricted generator A_R = mu I + S^-1.

`build_chain` is the one place that factors A - mu E for a (pencil, mu,
side): the chain keeps that certified inverse and R(mu).  The staircase form
is the one owner of the split V_k (+) W_k: it keeps the restricted generator,
R(mu) in staircase coordinates and the coupling K that places W_k, and the
degenerate semigroup and both solve paths read them from it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .exceptions import (
    ChainNotStabilized,
    NotInResolventSet,
    NotInjectiveOnVk,
    PatternViolation,
)
from .numerics import (
    DEFAULT_POLICY,
    Subspace,
    norm2,
    null_basis,
    orthonormal_complement,
    range_basis,
    rank_from_svals,
    rank_with_tol,
    subspace_distance,
    subspace_intersection,
    svd,
    svdvals,
)
from .pencil import (
    _BOUND_MARGIN,
    MatrixPencil,
    _norm2_bounds,
    _side_product,
    pseudo_resolvent,
    resolvent_at,
)

__all__ = [
    "SubspaceChain",
    "StaircaseForm",
    "RestrictedGenerator",
    "build_chain",
    "check_decomposition",
    "build_staircase",
    "staircase_from_chain",
    "restricted_generator",
    "y_impli_check",
]


@dataclass
class SubspaceChain:
    mu: complex
    side: str
    V: list = field(default_factory=list)
    W: list = field(default_factory=list)
    stabilization_k: int | None = None
    G: np.ndarray | None = None  # certified (A - mu E)^-1
    R: np.ndarray | None = None  # R(mu), the map the levels are built from

    @property
    def ambient_dim(self) -> int:
        return self.V[0].ambient_dim


def build_chain(p: MatrixPencil, mu: complex,
                side: str = "left") -> SubspaceChain:
    """Wong-style chains of R(mu) powers with stabilization metadata.

    Levels are built one at a time and the chain stops at the first k with
    V_k = V_{k+1} and W_k = W_{k+1}, so a stabilized chain holds
    V_0..V_{k+1} and W_0..W_{k+1}.  By rank-nullity dim V_j + dim W_j = n
    at every level; once a computed level breaks that, its rank decisions
    contradict each other, and the chain is never declared stable (a
    plateau there is not the splitting V_k (+) W_k).  A chain not
    stabilized by k = n holds all n + 2 levels and has stabilization_k None.
    """
    G = -resolvent_at(p, mu).inverse  # bitwise (A - mu E)^-1
    R = _side_product(p, G, side)
    n = R.shape[0]
    pol = p.pol
    tol = pol.subspace_tol

    chain = SubspaceChain(mu=mu, side=side, V=[Subspace.full(n)],
                          W=[Subspace.zero(n)], G=G, R=R)
    V, W = chain.V, chain.W
    consistent = True
    for j in range(n + 1):
        V.append(range_basis(R @ V[j].basis, pol))
        # ker R^{j+1} = preimage of ker R^j under R
        Wj = W[j].basis
        W.append(null_basis(R - Wj @ (Wj.conj().T @ R), pol))
        consistent = consistent and V[j + 1].dim + W[j + 1].dim == n
        if (consistent and subspace_distance(V[j], V[j + 1]) < tol
                and subspace_distance(W[j], W[j + 1]) < tol):
            chain.stabilization_k = j
            break
    return chain


_PROBE_MUS = (0.0, 1.0, 2.37, 5.11, -1.3, 7.9)


def _pick_mu(p: MatrixPencil) -> float:
    """Best-conditioned probe mu among a few moderate real values: the
    first of _PROBE_MUS with the largest sigma_min(A - mu E), all six
    taken from one stacked SVD."""
    if p.n == 0:
        return 0.0
    s = svdvals(p.A - np.array(_PROBE_MUS)[:, None, None] * p.E)[:, -1]
    best = int(np.argmax(s))
    if not s[best] > p.pol.rank_rel_tol * p.norm_scale() * p.n:
        raise NotInResolventSet(_PROBE_MUS[best], "no usable probe mu found")
    return _PROBE_MUS[best]


def check_decomposition(chain: SubspaceChain, pol=DEFAULT_POLICY):
    """Does V_k (+) W_k = whole space with a healthy angle between the parts?

    Returns (holds, gap) with gap the sine of the smallest principal angle
    (1 by convention when either space is trivial), taken directly as the
    smallest singular value of the part of W_k orthogonal to V_k: a sine
    from the largest cosine, sqrt(1 - cos^2), loses all digits below ~1e-8.
    """
    k = chain.stabilization_k
    if k is None:
        raise ChainNotStabilized("no stabilization index available")
    Vk, Wk = chain.V[k], chain.W[k]
    n = chain.ambient_dim
    if Vk.dim + Wk.dim != n:
        return False, 0.0
    if Vk.dim == 0 or Wk.dim == 0:
        return True, 1.0
    V, W = Vk.basis, Wk.basis
    gap = float(svdvals(W - V @ (V.conj().T @ W))[-1])
    return gap > pol.subspace_tol, gap


class StaircaseForm:
    """Unitary change of basis realizing the upper-triangular block pattern.

    Columns of `unitary` are ordered (V_k | W_k | ... | W_1); block_sizes
    lists the widths in the same order (the V_k block first, possibly 0).
    `chain` is the Wong chain of R(mu) the form was derived from.  The
    restricted generator, R(mu) in these coordinates, N and K are computed
    on first use, each once.
    """

    def __init__(self, p: MatrixPencil, chain: SubspaceChain,
                 unitary: np.ndarray, block_sizes: list[int]):
        self.p = p
        self.chain = chain
        self.mu = chain.mu
        self.side = chain.side
        self.unitary = unitary
        self.block_sizes = block_sizes

    @property
    def k(self) -> int:
        """Number of W blocks (the detected index)."""
        return len(self.block_sizes) - 1

    @property
    def dim_V(self) -> int:
        return self.block_sizes[0]

    @cached_property
    def generator(self) -> "RestrictedGenerator":
        return restricted_generator(self.p, self.chain)

    @cached_property
    def R_mu(self) -> np.ndarray:
        """R(mu) in staircase coordinates."""
        return self.transform(self.mu)

    @cached_property
    def N(self) -> np.ndarray:
        """The strictly upper block part of R(mu) on the W blocks."""
        nV = self.dim_V
        label = np.repeat(np.arange(self.k + 1), self.block_sizes)[nV:]
        return np.where(label[:, None] < label[None, :],
                        self.R_mu[nV:, nV:], 0)

    @cached_property
    def K(self) -> np.ndarray:
        """sum_{i<k} B^(i+1) R_0W N^i, B = S^-1: W_k = ker R(mu)^k is
        {(-K w, w)} in staircase coordinates, so (v, w) has V_k coordinates
        v + K w along W_k, and Q [I, K] U^* projects onto V_k along W_k."""
        B = self.generator.S_inv
        K = term = B @ self.R_mu[:self.dim_V, self.dim_V:]
        for _ in range(self.k - 1):
            term = B @ term @ self.N
            K = K + term
        return K

    def transform(self, lam: complex) -> np.ndarray:
        """R(lam) in staircase coordinates; at lam = mu the chain's R(mu)."""
        R = (self.chain.R if lam == self.mu
             else pseudo_resolvent(self.p, lam, self.side))
        return self.unitary.conj().T @ R @ self.unitary

    def _zero_blocks(self, T):
        """The blocks of T that the staircase pattern forces to zero:
        everything below the first block row, and the diagonal blocks of
        the W part."""
        edges = np.concatenate([[0], np.cumsum(self.block_sizes)])
        nb = len(self.block_sizes)
        # row i >= 1 is a W block; zero unless j strictly above it in the
        # ordering (i.e. j > i corresponds to W blocks with smaller chain
        # label, which are the permitted entries)
        blocks = [T[edges[i]:edges[i + 1], edges[j]:edges[j + 1]]
                  for i in range(1, nb) for j in range(i + 1)]
        return [blk for blk in blocks if blk.size]

    def pattern_residual(self, lam: complex) -> float:
        """Norm of the blocks that the staircase pattern forces to zero,
        normalized by ||R(lam)||."""
        return self._exact_residual(self.transform(lam))

    def _exact_residual(self, T):
        worst = max((norm2(blk) for blk in self._zero_blocks(T)),
                    default=0.0)
        return worst / max(norm2(T), 1.0)

    def _residual_bound(self, T):
        """An upper bound on pattern_residual that needs no eigensolve:
        Frobenius norms of the blocks over a lower bound on max(||T||_2, 1)."""
        worst = max((np.linalg.norm(blk, "fro")
                     for blk in self._zero_blocks(T)), default=0.0)
        return worst and worst / max(_norm2_bounds(np.abs(T))[0], 1.0)


def staircase_from_chain(p: MatrixPencil,
                         chain: SubspaceChain) -> StaircaseForm:
    """Orthogonal splitting of a stabilized Wong chain: V_k, then W_j as the
    orthonormal complement of V_j inside V_{j-1} for j = k..1 (Van Dooren's
    staircase), checked against the zero pattern at 3 random lambda."""
    k = chain.stabilization_k
    if k is None:
        raise ChainNotStabilized("range chain failed to stabilize")
    pol = p.pol
    V = chain.V
    W_blocks = [orthonormal_complement(V[j], V[j - 1], pol)
                for j in range(k, 0, -1)]
    unitary = np.hstack([V[k].basis] + [w.basis for w in W_blocks])
    block_sizes = [V[k].dim] + [w.dim for w in W_blocks]
    stair = StaircaseForm(p, chain, unitary, block_sizes)

    rng = np.random.default_rng(23)
    checked = 0
    attempts = 0
    while checked < 3 and attempts < 30:
        attempts += 1
        lam = chain.mu + 10 ** rng.uniform(0.3, 2.0) * np.exp(
            2j * np.pi * rng.random())
        try:
            T = stair.transform(lam)
        except NotInResolventSet:
            continue
        checked += 1
        # the bound is at least the exact residual: a lambda it accepts
        # passes the exact check, and the rest take the exact 2-norms
        if stair._residual_bound(T) <= _BOUND_MARGIN * pol.residual_tol:
            continue
        resid = stair._exact_residual(T)
        if resid > pol.residual_tol:
            raise PatternViolation(
                f"staircase zero-block residual {resid:.3e} at lambda={lam}")
    return stair


def build_staircase(p: MatrixPencil, mu: complex,
                    side: str = "left") -> StaircaseForm:
    """Staircase form from the Wong chain of R(mu)."""
    return staircase_from_chain(p, build_chain(p, mu, side))


@dataclass
class RestrictedGenerator:
    basis: Subspace
    matrix: np.ndarray  # A_R = mu I + S^-1
    S_inv: np.ndarray   # S^-1, S = R(mu) compressed to V_k
    mu_used: complex
    side: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def restricted_generator(p: MatrixPencil, chain: SubspaceChain) -> RestrictedGenerator:
    """A_R on V_k from the graph {(R(mu)x, x + mu R(mu)x) : x in V_k}:
    A_R = mu I + S^-1 for S = Q^* R(mu) Q, R(mu) compressed to V_k (basis
    Q), once V_k (+) W_k holds and R(mu) is injective on V_k."""
    holds, _ = check_decomposition(chain, p.pol)
    if not holds:
        raise ChainNotStabilized("range/kernel decomposition does not hold")
    R = chain.R
    Q = chain.V[chain.stabilization_k].basis
    S = Q.conj().T @ R @ Q
    svals = svdvals(S)  # empty when V_k = {0}
    if svals.size and svals[-1] <= (p.pol.rank_rel_tol
                                     * max(norm2(R), 1.0) * len(S)):
        raise NotInjectiveOnVk(
            f"compressed R(mu) has min singular value {svals[-1]:.3e}")
    S_inv = spla.inv(S)
    return RestrictedGenerator(basis=chain.V[chain.stabilization_k],
                               matrix=chain.mu * np.eye(len(S_inv)) + S_inv,
                               S_inv=S_inv, mu_used=chain.mu, side=chain.side)


def y_impli_check(p: MatrixPencil):
    """Is ker E intersected with the A-preimage of ran E trivial?

    Requires 0 in the resolvent set (checked via rank of A).  When true, the
    restriction of E A^-1 to ran E has an operator graph; reported alongside.
    ker E and the orthogonal complement of ran E come from one SVD of E.
    """
    if rank_with_tol(p.A, p.pol) < p.n:
        raise NotInResolventSet(0, "A is singular")
    u, s, vh = svd(p.E)
    r = rank_from_svals(s, p.E.shape, p.pol)
    if r == p.n:  # ker E = {0}
        return True
    kerE = Subspace(p.n, vh[r:].conj().T)
    # {y : A y in ran E} = preimage: the kernel of the complement's rows
    # against A (n - r > 0 of them, as E is square and r < n)
    pre = null_basis(u[:, r:].conj().T @ p.A, p.pol)
    return subspace_intersection(kerE, pre, p.pol).dim == 0
