"""Model pencil generators.

Three families: a staggered-grid discretization of a wave equation on (-1,0)
coupled to a heat equation on (0,1); a spatially discretized RLC transmission
line on [0,1] with boundary rows; and random pencils assembled from a
prescribed Weierstrass canonical form, used as index oracles.

The staggered grids are chosen so that the discrete derivative pair is
exactly (D, -D^T): the continuous integration-by-parts identities then hold
to machine precision and become hard test assertions.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_POLICY, TolerancePolicy
from .pencil import MatrixPencil

__all__ = [
    "HeatWaveConfig",
    "RLCConfig",
    "WeierstrassSpec",
    "RLCModel",
    "heat_wave_pencil",
    "rlc_pencil",
    "weierstrass_pencil",
]


@dataclass(frozen=True)
class HeatWaveConfig:
    m: int = 50  # grid points per unit interval

    def __post_init__(self):
        if self.m < 4:
            raise ValueError("need m >= 4")


def heat_wave_pencil(cfg: HeatWaveConfig,
                     pol: TolerancePolicy = DEFAULT_POLICY) -> MatrixPencil:
    """Coupled wave/heat pencil on [-1, 1].

    x1 lives on the integer nodes xi_i = -1 + i/m (i = 0..2m-1, the Dirichlet
    value x1(1) = 0 eliminated), x2 on the half nodes xi_{i+1/2}; the value of
    x2 just left of -1 is taken as 0, realizing x2(-1) = 0 on the staggered
    grid.  Then

        A_h = [[0, D], [-D^T, -diag(chi_(0,1))]],
        E_h = diag(I, diag(chi_(-1,0))),

    with D the forward-difference matrix, so Herm(A_h) = diag(0, -chi-mass)
    is negative semidefinite exactly.
    """
    m = cfg.m
    N = 2 * m
    hstep = 1.0 / m
    # D maps x2 (half nodes) to d/dxi at the x1 nodes i = 0..N-1:
    # (D x2)_i = (x2_{i+1/2} - x2_{i-1/2}) / h with x2_{-1/2} = 0
    D = (np.eye(N) - np.eye(N, k=-1)) / hstep
    half_nodes = -1.0 + (np.arange(N) + 0.5) * hstep
    chi_heat = (half_nodes > 0).astype(float)   # (0,1): damping on x2
    chi_wave = (half_nodes < 0).astype(float)   # (-1,0): mass on x2
    A = np.block([[np.zeros((N, N)), D],
                  [-D.T, -np.diag(chi_heat)]])
    E = np.block([[np.eye(N), np.zeros((N, N))],
                  [np.zeros((N, N)), np.diag(chi_wave)]])
    return MatrixPencil(E, A, pol)


@dataclass(frozen=True)
class RLCConfig:
    m: int = 50  # interior cells
    L: np.ndarray | None = None  # per-cell inductance (current half nodes)
    C: np.ndarray | None = None  # per-node capacitance
    R: np.ndarray | None = None
    G: np.ndarray | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need m >= 1")

    def profile(self, name, default):
        arr = getattr(self, name)
        if arr is None:
            return np.full(self.m, float(default))
        arr = np.asarray(arr, dtype=float)
        if arr.size != self.m or np.any(arr < 0):
            raise ValueError(f"profile {name} must be length m, nonnegative")
        return arr


@dataclass
class RLCModel:
    """The RLC line as a square companion pencil with its boundary rows.

    State layout: (I_{1/2}, ..., I_{m-1/2}, V_0, ..., V_{m-1}, I_0, V_m);
    the two extra unknowns are the boundary current at 0 and the boundary
    voltage at 1, with zero mass.  The last two rows are the
    point-evaluation boundary conditions V(0) = u0 and -I(1) = i1.
    """
    companion: MatrixPencil  # (2m+2) x (2m+2), rows [interior; Gamma]
    m: int

    def boundary_forcing_indices(self):
        """(row for V(0) = u0, row for -I(1) = i1) in the companion."""
        return 2 * self.m, 2 * self.m + 1


def rlc_pencil(cfg: RLCConfig,
               pol: TolerancePolicy = DEFAULT_POLICY) -> RLCModel:
    """Staggered telegrapher discretization with boundary rows.

    Interior pair: L I' = -R I - dV, C V' = -dI - G V, with I on half nodes
    and V on integer nodes starting at 0, so both point evaluations V(0) and
    I(1) hit (or neighbor) genuine unknowns.
    """
    m = cfg.m
    h = 1.0 / m
    Lp = cfg.profile("L", 1.0)
    Cp = cfg.profile("C", 1.0)
    Rp = cfg.profile("R", 0.0)
    Gp = cfg.profile("G", 0.0)

    # Dv: voltage difference at the current half nodes; V_m handled separately
    Dv = (np.eye(m, k=1) - np.eye(m)) / h   # uses V_0..V_{m-1}; V_m extra
    # columns for the two extra unknowns (I_0, V_m)
    col_Vm = np.zeros((m, 1))
    col_Vm[m - 1, 0] = 1.0 / h
    col_I0 = np.zeros((m, 1))
    col_I0[0, 0] = 1.0 / h

    # interior equations
    #   L I' = -R I - (D_v V + col_Vm V_m)
    #   C V' = -(-Dv^T I - col_I0^T-style boundary flux) - G V
    A_int = np.block([
        [-np.diag(Rp), -Dv, np.zeros((m, 1)), -col_Vm],
        [Dv.T, -np.diag(Gp), col_I0, np.zeros((m, 1))],
    ])
    E_int = np.block([
        [np.diag(Lp), np.zeros((m, m + 2))],
        [np.zeros((m, m)), np.diag(Cp), np.zeros((m, 2))],
    ])
    # boundary rows: V(0) = V_0 and -I(1) = -I_{m-1/2}
    Gamma = np.zeros((2, 2 * m + 2))
    Gamma[0, m] = 1.0          # delta_0 on V
    Gamma[1, m - 1] = -1.0     # -delta_1 on I
    A_sq = np.vstack([A_int, Gamma])
    E_sq = np.vstack([E_int, np.zeros((2, 2 * m + 2))])
    return RLCModel(companion=MatrixPencil(E_sq, A_sq, pol), m=m)


@dataclass(frozen=True)
class WeierstrassSpec:
    ode_eigenvalues: tuple = ()
    nilpotent_block_sizes: tuple = ()
    transform_seed: int = 0

    def __post_init__(self):
        if any(b < 1 for b in self.nilpotent_block_sizes):
            raise ValueError("nilpotent block sizes must be >= 1")
        if not self.ode_eigenvalues and not self.nilpotent_block_sizes:
            raise ValueError("spec must produce a nonempty pencil")

    @property
    def true_index(self) -> int:
        return max(self.nilpotent_block_sizes, default=0)

    @property
    def dim(self) -> int:
        return len(self.ode_eigenvalues) + sum(self.nilpotent_block_sizes)


def _well_conditioned_transform(rng, n):
    """Product of Householder reflectors and a mild diagonal scaling."""
    if n == 0:
        return np.zeros((0, 0))
    T = np.eye(n, dtype=complex)
    for _ in range(2):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        T = T - 2.0 * np.outer(v, v.conj()) @ T
    # singular values in [1/sqrt(10), sqrt(10)]: condition <= 10
    d = np.exp(rng.uniform(-0.5 * np.log(10), 0.5 * np.log(10), n))
    return T * d[None, :]


def weierstrass_pencil(spec: WeierstrassSpec,
                       pol: TolerancePolicy = DEFAULT_POLICY):
    """Random pencil with prescribed canonical form; returns (pencil, index)."""
    rng = np.random.default_rng(spec.transform_seed)
    p_dim = len(spec.ode_eigenvalues)
    n = spec.dim
    E = np.zeros((n, n), dtype=complex)
    A = np.zeros((n, n), dtype=complex)
    E[:p_dim, :p_dim] = np.eye(p_dim)
    A[:p_dim, :p_dim] = np.diag(np.asarray(spec.ode_eigenvalues, dtype=complex))
    pos = p_dim
    for b in spec.nilpotent_block_sizes:
        E[pos:pos + b, pos:pos + b] = np.eye(b, k=1)
        A[pos:pos + b, pos:pos + b] = np.eye(b)
        pos += b
    W = _well_conditioned_transform(rng, n)
    T = _well_conditioned_transform(rng, n)
    pencil = MatrixPencil(W @ E @ T, W @ A @ T, pol)
    return pencil, spec.true_index
