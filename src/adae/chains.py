"""Kernel/range chains of pseudo-resolvent powers, staircase form, restricted
generator.

V_j = ran R(mu)^j and W_j = ker R(mu)^j are computed by iterated products
against orthonormal bases, never by explicit matrix powers.  Once both chains
stabilize at k, the state space splits as V_k (+) W_k; an orthonormal basis
ordered (V_k | W_k | ... | W_1) makes R(lam) upper block triangular with zero
diagonal blocks on the W part, and R(mu) compressed to V_k is invertible,
yielding the restricted generator A_R = mu I + S^-1.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla

from .exceptions import (
    ChainNotStabilized,
    NotInResolventSet,
    NotInjectiveOnVk,
    PatternViolation,
)
from .numerics import (
    Subspace,
    null_basis,
    orthonormal_complement,
    range_basis,
    subspace_distance,
)
from .pencil import MatrixPencil, pseudo_resolvent

__all__ = [
    "SubspaceChain",
    "StaircaseForm",
    "RestrictedGenerator",
    "build_chain",
    "check_decomposition",
    "build_staircase",
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

    @property
    def ambient_dim(self) -> int:
        return self.V[0].ambient_dim

    def stabilized(self) -> bool:
        return self.stabilization_k is not None


def build_chain(p: MatrixPencil, mu: complex, side: str = "left",
                max_k: int | None = None) -> SubspaceChain:
    """Wong-style chains of R(mu) powers with stabilization metadata.

    Levels are built one at a time and the chain stops at the first k with
    V_k = V_{k+1} and W_k = W_{k+1}, so a stabilized chain holds
    V_0..V_{k+1} and W_0..W_{k+1}.  By rank-nullity dim V_j + dim W_j = n
    at every level; once a computed level breaks that, its rank decisions
    contradict each other, and the chain is never declared stable (a
    plateau there is not the splitting V_k (+) W_k).  `max_k` (default n)
    is only an upper bound: a chain not stabilized by max_k holds all
    max_k + 2 levels and has stabilization_k None.
    """
    R = pseudo_resolvent(p, mu, side)
    n = R.shape[0]
    if max_k is None:
        max_k = n
    max_k = max(1, max_k)
    pol = p.pol
    tol = pol.subspace_tol

    chain = SubspaceChain(mu=mu, side=side,
                          V=[Subspace.full(n)], W=[Subspace.zero(n)])
    V, W = chain.V, chain.W
    consistent = True
    for j in range(max_k + 1):
        V.append(range_basis(R @ V[j].basis, pol))
        # ker R^{j+1} = preimage of ker R^j under R
        Pw = W[j].projector()
        W.append(null_basis((np.eye(n) - Pw) @ R, pol))
        consistent = consistent and V[j + 1].dim + W[j + 1].dim == n
        if (consistent and subspace_distance(V[j], V[j + 1]) < tol
                and subspace_distance(W[j], W[j + 1]) < tol):
            chain.stabilization_k = j
            break
    return chain


def check_decomposition(chain: SubspaceChain, pol=None):
    """Does V_k (+) W_k = whole space with a healthy angle between the parts?

    Returns (holds, gap) with gap the sine of the smallest principal angle
    (1 by convention when either space is trivial).
    """
    if not chain.stabilized():
        raise ChainNotStabilized("no stabilization index available")
    k = chain.stabilization_k
    Vk, Wk = chain.V[k], chain.W[k]
    n = chain.ambient_dim
    if Vk.dim + Wk.dim != n:
        return False, 0.0
    if Vk.dim == 0 or Wk.dim == 0:
        return True, 1.0
    cosines = spla.svdvals(Vk.basis.conj().T @ Wk.basis)
    cos_max = min(float(cosines[0]), 1.0)
    gap = float(np.sqrt(max(0.0, 1.0 - cos_max ** 2)))
    tol = 1e-8 if pol is None else pol.subspace_tol
    return gap > tol, gap


class StaircaseForm:
    """Unitary change of basis realizing the upper-triangular block pattern.

    Columns of `unitary` are ordered (V_k | W_k | ... | W_1); block_sizes
    lists the widths in the same order (the V_k block first, possibly 0).
    """

    def __init__(self, p: MatrixPencil, mu: complex, side: str,
                 unitary: np.ndarray, block_sizes: list[int]):
        self.p = p
        self.mu = mu
        self.side = side
        self.unitary = unitary
        self.block_sizes = block_sizes

    @property
    def k(self) -> int:
        """Number of W blocks (the detected index)."""
        return len(self.block_sizes) - 1

    @property
    def dim_V(self) -> int:
        return self.block_sizes[0]

    def transform(self, lam: complex) -> np.ndarray:
        """R(lam) in staircase coordinates."""
        R = pseudo_resolvent(self.p, lam, self.side)
        return self.unitary.conj().T @ R @ self.unitary

    def blocks_of(self, lam: complex) -> list[list[np.ndarray]]:
        """Transformed R(lam) cut into the block partition."""
        T = self.transform(lam)
        edges = np.concatenate([[0], np.cumsum(self.block_sizes)])
        out = []
        for i in range(len(self.block_sizes)):
            row = []
            for j in range(len(self.block_sizes)):
                row.append(T[edges[i]:edges[i + 1], edges[j]:edges[j + 1]])
            out.append(row)
        return out

    def pattern_residual(self, lam: complex) -> float:
        """Norm of the blocks that the staircase pattern forces to zero.

        Everything below the first block row must vanish, and so must the
        diagonal blocks of the W part; normalized by ||R(lam)||.
        """
        T = self.transform(lam)
        scale = max(np.linalg.norm(T, 2), 1.0)
        edges = np.concatenate([[0], np.cumsum(self.block_sizes)])
        worst = 0.0
        nb = len(self.block_sizes)
        for i in range(1, nb):
            for j in range(nb):
                blk = T[edges[i]:edges[i + 1], edges[j]:edges[j + 1]]
                if blk.size == 0:
                    continue
                # row i >= 1 is a W block; zero unless j strictly above it
                # in the ordering (i.e. j > i corresponds to W blocks with
                # smaller chain label, which are the permitted entries)
                if j > i:
                    continue
                worst = max(worst, float(np.linalg.norm(blk, 2)))
        return worst / scale


def build_staircase(p: MatrixPencil, mu: complex,
                    side: str = "left") -> StaircaseForm:
    """Orthogonal splitting V_1 = ran R, W_1 = ker R*, refined inside V_j."""
    R = pseudo_resolvent(p, mu, side)
    n = R.shape[0]
    pol = p.pol

    V_list = [Subspace.full(n)]
    while True:
        nxt = range_basis(R @ V_list[-1].basis, pol)
        if subspace_distance(nxt, V_list[-1]) < pol.subspace_tol:
            break
        V_list.append(nxt)
        if len(V_list) > n + 1:
            raise ChainNotStabilized("range chain failed to stabilize")

    k = len(V_list) - 1  # V_list = [V_0, ..., V_k] with V_k stable
    W_blocks = []  # W_k, W_{k-1}, ..., W_1 ordering
    for j in range(k, 0, -1):
        W_blocks.append(orthonormal_complement(V_list[j], V_list[j - 1], pol))

    cols = [V_list[k].basis] + [w.basis for w in W_blocks]
    unitary = np.hstack(cols) if cols else np.zeros((n, 0))
    block_sizes = [V_list[k].dim] + [w.dim for w in W_blocks]
    stair = StaircaseForm(p, mu, side, unitary, block_sizes)

    rng = np.random.default_rng(23)
    checked = 0
    attempts = 0
    while checked < 3 and attempts < 30:
        attempts += 1
        lam = mu + 10 ** rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.random())
        try:
            resid = stair.pattern_residual(lam)
        except NotInResolventSet:
            continue
        checked += 1
        if resid > pol.residual_tol:
            raise PatternViolation(
                f"staircase zero-block residual {resid:.3e} at lambda={lam}")
    return stair


@dataclass
class RestrictedGenerator:
    basis: Subspace
    matrix: np.ndarray
    mu_used: complex
    side: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def restricted_generator(p: MatrixPencil, chain: SubspaceChain) -> RestrictedGenerator:
    """A_R on V_k from the graph {(R(mu)x, x + mu R(mu)x) : x in V_k}."""
    holds, _ = check_decomposition(chain, p.pol)
    if not holds:
        raise ChainNotStabilized("range/kernel decomposition does not hold")
    k = chain.stabilization_k
    Vk = chain.V[k]
    if Vk.dim == 0:
        return RestrictedGenerator(
            basis=Vk, matrix=np.zeros((0, 0), dtype=complex),
            mu_used=chain.mu, side=chain.side)
    R = pseudo_resolvent(p, chain.mu, chain.side)
    Q = Vk.basis
    S = Q.conj().T @ R @ Q
    svals = spla.svdvals(S)
    scale = max(np.linalg.norm(R, 2), 1.0)
    if svals[-1] <= p.pol.rank_rel_tol * scale * Vk.dim:
        raise NotInjectiveOnVk(
            f"compressed R(mu) has min singular value {svals[-1]:.3e}")
    A_R = chain.mu * np.eye(Vk.dim) + spla.inv(S)
    return RestrictedGenerator(basis=Vk, matrix=A_R, mu_used=chain.mu,
                               side=chain.side)


def y_impli_check(p: MatrixPencil):
    """Is ker E intersected with the A-preimage of ran E trivial?

    Requires 0 in the resolvent set (checked via rank of A).  When true, the
    restriction of E A^-1 to ran E has an operator graph; reported alongside.
    """
    from .numerics import rank_with_tol, subspace_intersection
    from .exceptions import NotInResolventSet

    if rank_with_tol(p.A, p.pol) < p.n:
        raise NotInResolventSet(0, "A is singular")
    kerE = null_basis(p.E, p.pol)
    if kerE.dim == 0:
        return True
    ranE = range_basis(p.E, p.pol)
    # {y : A y in ran E} = preimage, computed from the complement of ran E
    comp = orthonormal_complement(ranE, pol=p.pol)
    if comp.dim == 0:
        pre = Subspace.full(p.n)
    else:
        pre = null_basis(comp.basis.conj().T @ p.A, p.pol)
    inter = subspace_intersection(kerE, pre, p.pol)
    return inter.dim == 0
