import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
import scipy.linalg as spla

from conftest import random_index_pencil
from adae import chains, solver
from adae.chains import build_staircase
from adae.cli import main
from adae.exceptions import GridTooCoarse, InsufficientSmoothness
from adae.forcing import PolynomialForcing, SampledForcing
from adae.growth import _pick_mu
from adae.io import read_trajectory_csv
from adae.models import (
    HeatWaveConfig,
    RLCConfig,
    WeierstrassSpec,
    heat_wave_pencil,
    rlc_pencil,
    weierstrass_pencil,
)
from adae.pencil import MatrixPencil
from adae.semigroup import degenerate_semigroup, evaluate
from adae.solver import (
    implicit_euler_reference,
    residuals,
    solve_decoupled,
    solve_homogeneous,
)


def ramp_forcing(t_f):
    # f(t) = (0, t)
    return PolynomialForcing.from_coeffs(
        np.array([[0.0, 0.0], [0.0, 1.0]]), t_f)


def _on_grid(poly, t):
    """poly sampled on the solve grid t, which takes the FD path; the
    quartic window reproduces any polynomial of degree <= 4."""
    return SampledForcing(t, poly.sample(t))


def test_decoupled_ramp_diagonal(diag_pencil):
    # (A - mu E)^-1 f = (-f1, f2) = (0, t): the V part of the forcing
    # vanishes and the W part is (0, t) with derivative (0, 1), so x2 = -t
    # and x1 = x1(0) e^-t, on the exact and the finite-difference path
    t = np.linspace(0.0, 2.0, 101)
    for f, method in ((ramp_forcing(2.0), "staircase-exact"),
                      (_on_grid(ramp_forcing(2.0), t), "staircase-fd")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = solve_decoupled(diag_pencil, [3.0, -4.0], f, t, mu=0.0)
        assert rep.method == method and rep.block_sizes == [1, 1]
        assert np.max(np.abs(rep.trajectory[1] + t)) < 1e-12
        assert np.max(np.abs(rep.trajectory[0] - 3.0 * np.exp(-t))) < 1e-12


def test_decoupled_consistent_x0_semidissipative(semidiss_pencil):
    # V_k = {0} at mu = 1: x(0) = (0, 1) whatever x0 was asked for
    t = np.linspace(0.0, 2.0, 101)
    rep = solve_decoupled(semidiss_pencil, [3.0, -4.0], ramp_forcing(2.0), t,
                          mu=1.0)
    assert rep.index_k == 2 and rep.block_sizes[0] == 0
    assert np.allclose(rep.consistent_x0, [0.0, 1.0], atol=1e-10)
    assert abs(rep.correction_norm - np.hypot(3.0, 5.0)) < 1e-10


def test_correction_norm_diagonal(diag_pencil):
    t = np.linspace(0.0, 1.0, 101)
    rep = solve_homogeneous(diag_pencil, [1.0, 5.0], t)
    assert abs(rep.correction_norm - 5.0) < 1e-10
    assert np.allclose(rep.trajectory[0], np.exp(-t), atol=1e-12)
    assert np.allclose(rep.trajectory[1], 0.0, atol=1e-12)


def test_homogeneous_bad_inputs():
    p = MatrixPencil(np.eye(2), -np.eye(2))
    with pytest.raises(ValueError,
                       match="x0 has 1 entries, the pencil has n = 2"):
        solve_homogeneous(p, [1.0], np.linspace(0.0, 1.0, 11))
    # the grid, not the zero forcing built from it, is refused
    with pytest.raises(GridTooCoarse):
        solve_homogeneous(p, [1.0, 0.0], [0.0])
    with pytest.raises(ValueError, match="uniform and increasing"):
        solve_homogeneous(p, [1.0, 0.0], [0.0, -1.0])


@pytest.mark.parametrize("kind", ["polynomial", "sampled"])
def test_forcing_must_have_n_components(kind):
    p = MatrixPencil(np.eye(3), -np.eye(3))
    t = np.linspace(0.0, 1.0, 11)
    f = {"polynomial": PolynomialForcing.constant([1.0, 2.0], 1.0),
         "sampled": SampledForcing(t, np.ones((2, 11)))}[kind]
    with pytest.raises(ValueError, match="forcing has 2 components, "
                                         "the pencil has n = 3"):
        solve_decoupled(p, None, f, t)


def test_homogeneous_is_decoupled_with_zero_forcing(diag_pencil):
    t = np.linspace(0.0, 2.0, 41)
    rep = solve_homogeneous(diag_pencil, [1.0, 5.0], t)
    ref = solve_decoupled(diag_pencil, [1.0, 5.0],
                          PolynomialForcing.zero(2, 2.0), t)
    assert rep.method == "staircase-exact"
    assert rep.trajectory.tobytes() == ref.trajectory.tobytes()


def test_nilpotent_closed_form(n2_pencil):
    t = np.linspace(0.0, 2.0, 201)
    rep = solve_decoupled(n2_pencil, [-1.0, 0.0], ramp_forcing(2.0), t)
    assert rep.index_k == 2
    assert np.max(np.abs(rep.trajectory[0] + 1.0)) < 1e-10
    assert np.max(np.abs(rep.trajectory[1] + t)) < 1e-10
    assert rep.classical_residual < 1e-8


def test_semidissipative_closed_form(semidiss_pencil):
    t = np.linspace(0.0, 2.0, 201)
    rep = solve_decoupled(semidiss_pencil, [0.0, 1.0], ramp_forcing(2.0), t)
    assert np.max(np.abs(rep.trajectory[0] + t)) < 1e-10
    assert np.max(np.abs(rep.trajectory[1] - 1.0)) < 1e-10


def test_euler_scalar_geometric():
    p = MatrixPencil(np.eye(1), -np.eye(1))
    t = np.linspace(0.0, 1.0, 101)
    rep = implicit_euler_reference(p, [1.0], PolynomialForcing.zero(1, 1.0), t)
    h = 0.01
    assert abs(rep.trajectory[0, -1] - (1 + h) ** -100) < 1e-13


def test_residual_detects_corruption(ode_pencil):
    t = np.linspace(0.0, 1.0, 201)
    f = PolynomialForcing.zero(2, 1.0)
    rep = solve_decoupled(ode_pencil, [1.0, 1.0], f, t)
    assert rep.classical_residual < 1e-9
    rep.trajectory = rep.trajectory + 0.01 * np.sin(40 * t)[None, :]
    cls_r, mild_r = residuals(ode_pencil, rep, f)
    assert cls_r > 1e-4 and mild_r > 1e-5


def test_smoothness_gate_sampled_index3():
    p = random_index_pencil(33, 3)
    t = np.linspace(0.0, 1.0, 101)
    f = SampledForcing(t, np.vstack([np.sin(t)] * p.n))
    with pytest.raises(InsufficientSmoothness):
        solve_decoupled(p, np.zeros(p.n), f, t)


def test_breakpoints_must_sit_on_grid(n2_pencil):
    f = PolynomialForcing([0.0, 0.37, 1.0],
                          [np.zeros((2, 1)), np.ones((2, 1))])
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        solve_decoupled(n2_pencil, [0.0, 0.0], f, t)


def test_forcing_must_cover_grid(ode_pencil):
    # each of these once returned a trajectory: zero after t = 1, x(0) = 0,
    # or extrapolated samples
    t = np.linspace(0.0, 2.0, 41)
    ts = np.linspace(0.0, 1.0, 21)
    for f in (PolynomialForcing.zero(2, 1.0),
              PolynomialForcing([0.5, 2.0], [np.ones((2, 1))]),
              SampledForcing(ts, np.vstack([np.sin(3 * ts), np.cos(3 * ts)]))):
        with pytest.raises(ValueError, match="forcing covers"):
            solve_decoupled(ode_pencil, [1.0, 1.0], f, t)


def test_piece_starting_before_grid(ode_pencil):
    # f = t + 2 written in s = t + 1: x1 = t + 1 and x2 = t/2 + 3/4 + e^-2t/4
    t = np.linspace(0.0, 2.0, 41)
    f = PolynomialForcing([-1.0, 2.0], [np.ones((2, 2))])
    rep = solve_decoupled(ode_pencil, [1.0, 1.0], f, t)
    assert np.max(np.abs(rep.trajectory[0] - (t + 1))) < 1e-12
    assert np.max(np.abs(rep.trajectory[1]
                         - (t / 2 + 0.75 + np.exp(-2 * t) / 4))) < 1e-12


def test_multipiece_matches_fine_euler():
    p = random_index_pencil(34, 1, n_ode=3)
    n = p.n
    rng = np.random.default_rng(34)
    c1 = rng.standard_normal((n, 2))
    c2 = rng.standard_normal((n, 2))
    f = PolynomialForcing([0.0, 0.5, 1.0], [c1, c2])
    t = np.linspace(0.0, 1.0, 101)
    rep = solve_decoupled(p, rng.standard_normal(n), f, t)

    tf = np.linspace(0.0, 1.0, 20001)
    ref = implicit_euler_reference(p, rep.consistent_x0, f, tf)
    dev = np.linalg.norm(rep.trajectory[:, -1] - ref.trajectory[:, -1])
    scale = 1.0 + np.linalg.norm(ref.trajectory[:, -1])
    assert dev < 1e-3 * scale


# -- real and complex arithmetic, batched Euler steps -------------------------

def _euler_per_step(p, x0, f, t):
    """Implicit Euler with one lu_solve per step."""
    h = float(t[1] - t[0])
    lu = spla.lu_factor(p.E - h * p.A)
    fv = f.sample(t)
    x = np.asarray(x0, dtype=complex)
    out = [x]
    for j in range(1, t.size):
        x = spla.lu_solve(lu, p.E @ x + h * fv[:, j])
        out.append(x)
    return np.column_stack(out)


@pytest.mark.parametrize("name, dtype", [("rlc-8", np.float64),
                                         ("weierstrass-2", np.complex128)])
def test_euler_matches_per_step_solves(name, dtype):
    p = rlc_pencil(RLCConfig(m=8)).companion if name == "rlc-8" else \
        weierstrass_pencil(WeierstrassSpec((-1.0, -2.0), (2,), 3))[0]
    assert p.E.dtype == dtype
    rng = np.random.default_rng(8)
    f = PolynomialForcing([0.0, 0.5, 1.0], [rng.standard_normal((p.n, 2)),
                                            rng.standard_normal((p.n, 3))])
    x0 = rng.standard_normal(p.n)
    rep = implicit_euler_reference(p, x0, f, np.linspace(0.0, 1.0, 201))
    assert rep.trajectory.dtype == dtype
    want = _euler_per_step(p, x0, f, rep.times)
    # the two recurrences round differently, and (E - h A)^-1 amplifies
    # that by up to the condition number of E - h A: about 2e5 at index 2
    h = rep.times[1] - rep.times[0]
    bound = max(1e-12, np.finfo(float).eps * np.linalg.cond(p.E - h * p.A))
    assert _rel_dev(rep.trajectory, want) < bound


@pytest.mark.parametrize("path", ["staircase-exact", "staircase-fd"])
def test_real_pencil_solve_is_linear_across_dtypes(path):
    # real pencil, real x0: real forcing is solved in float64, complex
    # forcing in complex128, and the complex solve splits into the two
    # real ones
    p = rlc_pencil(RLCConfig(m=8)).companion
    t = np.linspace(0.0, 1.0, 301)
    rng = np.random.default_rng(11)
    cr, ci = rng.standard_normal((2, p.n, 3))
    x0 = rng.standard_normal(p.n)

    def solve(x, c):
        poly = PolynomialForcing.from_coeffs(c, 1.0)
        f = poly if path == "staircase-exact" else _on_grid(poly, t)
        rep = solve_decoupled(p, x, f, t)
        assert rep.method == path
        return rep.trajectory

    re, im = solve(x0, cr), solve(np.zeros(p.n), ci)
    assert re.dtype == im.dtype == np.float64
    both = solve(x0, cr + 1j * ci)
    assert both.dtype == np.complex128
    assert _rel_dev(both, re + 1j * im) < 1e-12


def test_sampled_forcing_solve_index1():
    p = MatrixPencil(np.diag([1.0, 0.0]), np.diag([-1.0, 1.0]))
    t = np.linspace(0.0, 1.0, 401)
    f = SampledForcing(t, np.vstack([np.zeros_like(t), t]))
    rep = solve_decoupled(p, [1.0, 0.0], f, t)
    assert rep.method == "staircase-fd"
    # exact: x1 = e^{-t}, x2 = -t
    assert np.max(np.abs(rep.trajectory[0] - np.exp(-t))) < 1e-6
    assert np.max(np.abs(rep.trajectory[1] + t)) < 1e-6


def test_solver_rejects_bad_grids(ode_pencil):
    f = PolynomialForcing.zero(2, 1.0)
    with pytest.raises(ValueError):
        solve_decoupled(ode_pencil, [1.0, 0.0], f, np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValueError):
        solve_decoupled(ode_pencil, [1.0, 0.0], f, np.array([1.0, 2.0]))


# -- batched grid evaluation against the per-point formulas -------------------

BLOCK = solver._BLOCK
# fewer points than one block, one block + 1, and no multiple of the block
GRID_POINTS = (40, BLOCK + 1, 2 * BLOCK + 91)

PENCILS = {
    "rlc-10": lambda: rlc_pencil(RLCConfig(m=10)).companion,
    "heat-wave-5": lambda: heat_wave_pencil(HeatWaveConfig(m=5)),
    "weierstrass-0": lambda: random_index_pencil(41, 0, n_ode=3),
    "weierstrass-1": lambda: random_index_pencil(42, 1, n_ode=3),
    "weierstrass-2": lambda: random_index_pencil(43, 2, n_ode=3),
    "nilpotent-2": lambda: MatrixPencil(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                        np.eye(2)),
}
# index 3 couples W blocks that are not adjacent in the staircase; sampled
# forcing exposes too few derivatives for it, so only the exact path runs it
EXACT_PENCILS = dict(PENCILS, **{
    "weierstrass-3": lambda: random_index_pencil(44, 3, n_ode=3)})


def _rel_dev(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def _smooth_forcing(n, tf, seed):
    """Sampled forcing a sin(w t) + b cos(w t) on C^n."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n)
    w = rng.uniform(1.0, 3.0)
    ts = np.linspace(0.0, tf, 733)
    return SampledForcing(ts, np.column_stack(
        [a * np.sin(w * s) + b * np.cos(w * s) for s in ts]))


def _along_Wk(stair):
    """Y with Y x the coordinates in V_k's basis of x's component along
    W_k = ker R^k, taken from the chain's W_k."""
    nV = stair.dim_V
    Wk = stair.chain.W[stair.k].basis
    return spla.inv(np.hstack([stair.unitary[:, :nV], Wk]))[:nV]


def _fd_reference(p, stair, x0, f, t, h, mu):
    """Per-point finite-difference solve: recursive back-substitution of the
    W blocks at every time, one quadrature sum per step.  V_k starts from
    the component of x0 along W_k, less that of the W part at t = 0."""
    U = stair.unitary
    sizes = stair.block_sizes
    edges = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    k = stair.k
    nV = sizes[0]
    Rt = stair.transform(mu)
    G = spla.inv(p.A - mu * p.E)
    Uh = U.conj().T

    def g_block(q, ti, order):
        acc = np.zeros(p.n, dtype=complex)
        for j in range(order + 1):
            acc += (comb(order, j) * (-mu) ** (order - j)
                    * (G @ f.sample([ti], j)[:, 0]))
        return (np.exp(-mu * ti) * (Uh @ acc))[edges[q]:edges[q + 1]]

    def x_block(q, ti, order):
        out = -g_block(q, ti, order)
        for r in range(q + 1, k + 1):
            out += (Rt[edges[q]:edges[q + 1], edges[r]:edges[r + 1]]
                    @ x_block(r, ti, order + 1))
        return out

    xt = np.zeros((p.n, t.size), dtype=complex)
    for j, ti in enumerate(t):
        for q in range(1, k + 1):
            xt[edges[q]:edges[q + 1], j] = x_block(q, ti, 0)
    if nV:
        B = spla.inv(Rt[:nV, :nV])

        def h_sig(ti):
            out = g_block(0, ti, 0)
            for r in range(1, k + 1):
                out -= Rt[:nV, edges[r]:edges[r + 1]] @ x_block(r, ti, 1)
            return B @ out

        nodes, weights = np.polynomial.legendre.leggauss(4)
        taus = 0.5 * h * (nodes + 1.0)
        ws = 0.5 * h * weights
        Phi = spla.expm(h * B)
        prop = [spla.expm((h - tq) * B) for tq in taus]
        xV = _along_Wk(stair) @ (x0 - U[:, nV:] @ xt[nV:, 0])
        xt[:nV, 0] = xV
        for j in range(1, t.size):
            acc = Phi @ xV
            for q in range(4):
                acc += ws[q] * (prop[q] @ h_sig(t[j - 1] + taus[q]))
            xV = acc
            xt[:nV, j] = xV
    return np.exp(mu * t)[None, :] * (U @ xt)


def _residuals_reference(p, report, f):
    """Classical residual with one stencil and one norm per grid point."""
    t, x = report.times, report.trajectory
    h = float(t[1] - t[0])
    fv = np.column_stack([f.sample([ti])[:, 0] for ti in t])
    Ex, Ax = p.E @ x, p.A @ x
    scale = (1.0 + np.linalg.norm(p.E, 2) * np.max(np.linalg.norm(x, axis=0))
             + np.linalg.norm(p.A, 2) * np.max(np.linalg.norm(x, axis=0))
             + np.max(np.linalg.norm(fv, axis=0)))
    worst = 0.0
    for j in range(2, t.size - 2):
        d = (-Ex[:, j + 2] + 8 * Ex[:, j + 1]
             - 8 * Ex[:, j - 1] + Ex[:, j - 2]) / (12 * h)
        worst = max(worst, float(np.linalg.norm(d - Ax[:, j] - fv[:, j])))
    return worst / scale


def _setup(name, n_points, tf=1.5):
    p = EXACT_PENCILS[name]()
    mu = _pick_mu(p)
    stair = build_staircase(p, mu, side="right")
    t = np.linspace(0.0, tf, n_points)
    x0 = np.random.default_rng(n_points).standard_normal(p.n).astype(complex)
    return p, mu, stair, t, float(t[1] - t[0]), x0


@pytest.mark.parametrize("name", sorted(PENCILS),
                         ids=[f"{name}-sampled" for name in sorted(PENCILS)])
def test_fd_blocks_match_per_point(name):
    # each grid length meets two pencils
    n_points = GRID_POINTS[sorted(PENCILS).index(name) % len(GRID_POINTS)]
    p, mu, stair, t, h, x0 = _setup(name, n_points)
    f = _smooth_forcing(p.n, t[-1], 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got = solver._solve_fd(p, stair, x0, f, t, h, mu)
    assert _rel_dev(got, _fd_reference(p, stair, x0, f, t, h, mu)) < 1e-12


def _port_forcing(tf, seed):
    """Sampled forcing of RLC m = 10 through its two boundary rows only, the
    port input f = B u(t) of the line."""
    model = rlc_pencil(RLCConfig(m=10))
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, tf, 733)
    values = np.zeros((model.companion.n, ts.size))
    for row in model.boundary_forcing_indices():
        a, w, phi = rng.uniform(0.2, 1.0, 3) * [1.0, 4.0, 6.0]
        values[row] = a * np.sin(w * ts + phi)
    return SampledForcing(ts, values)


def test_fd_port_forcing_matches_per_point():
    p, mu, stair, t, h, x0 = _setup("rlc-10", 2 * BLOCK + 91)
    f = _port_forcing(t[-1], 3)
    assert f.sample([0.3]).nonzero()[0].size == 2
    got = solver._solve_fd(p, stair, x0, f, t, h, mu)
    assert _rel_dev(got, _fd_reference(p, stair, x0, f, t, h, mu)) < 1e-12


def test_fd_derivatives_shapes_and_active_rows():
    # order 0 is read on V_k only and orders >= 1 on W only; the stencil
    # reads the forcing's two active rows and no other
    p, mu, stair, t, h, x0 = _setup("rlc-10", 40)
    f = _port_forcing(t[-1], 3)
    reads = []

    class Spy(np.ndarray):
        def __getitem__(self, key):
            reads.append(key)
            return np.ndarray.__getitem__(self.view(np.ndarray), key)

    f.values = f.values.view(Spy)
    nV, k = stair.dim_V, stair.k
    UhG = stair.unitary.conj().T @ stair.chain.G
    gV, xW = solver._fd_derivatives(UhG, stair.N, nV, f, mu, t[:7], k)
    assert k == 2 and 0 < nV < p.n
    assert gV.shape == (nV, 7)
    assert [x.shape for x in xW] == [(p.n - nV, 7)] * (k + 1)
    active = sorted(rlc_pencil(RLCConfig(m=10)).boundary_forcing_indices())
    assert len(reads) == 5  # each of the 5 taps once, for every order
    for key in reads:
        assert np.ravel(key[0]).tolist() == active


def test_all_zero_csv_matches_homogeneous(tmp_path):
    # no active row: the sampled solve is the homogeneous one
    p = rlc_pencil(RLCConfig(m=10)).companion
    t = np.linspace(0.0, 1.0, 101)
    x0 = np.random.default_rng(4).standard_normal(p.n)
    csv = tmp_path / "zero.csv"
    csv.write_text("t" + ", f" * p.n + "\n" + "".join(
        f"{j / 50!r}" + ", 0.0" * p.n + "\n" for j in range(51)))
    assert main(["solve", "--model", "rlc", "--m", "10", "--forcing-csv",
                 str(csv), "--x0", repr(x0.tolist()),
                 "--out", str(tmp_path)]) == 0
    got_t, got = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert np.array_equal(got_t, t)
    assert _rel_dev(got, solve_homogeneous(p, x0, t).trajectory) < 1e-11


def _exact_reference(p, stair, x0, f, t, h, mu):
    """Per-point exact solve: on each forcing piece the W blocks come from the
    block-by-block exp-poly recursion, bottom row up, and are evaluated one
    time at a time; V_k steps with the augmented propagator.  The component
    along W_k is continuous at t = 0 and at each breakpoint."""
    U = stair.unitary
    sizes = stair.block_sizes
    edges = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    k = stair.k
    nV = sizes[0]
    Rt = stair.transform(mu)
    G = spla.inv(p.A - mu * p.E)
    Uh = U.conj().T

    def differentiate(c):
        # d/ds [e^(-mu s) sum_j c_j s^j] = e^(-mu s) sum_j (c_j' - mu c_j) s^j
        out = -mu * c
        out[:, :-1] += c[:, 1:] * np.arange(1, c.shape[1])
        return out

    xt = np.zeros((p.n, t.size), dtype=complex)
    xt[:, 0] = Uh @ x0
    xV = xt[:nV, 0]
    B = spla.inv(Rt[:nV, :nV]) if nV else None
    # the V coordinate of a W part w along W_k
    K = _along_Wk(stair) @ U[:, nV:] if nV else None
    for ip, C in enumerate(f.coeffs):
        ta, tb = f.breakpoints[ip], f.breakpoints[ip + 1]
        j0 = int(np.argmin(np.abs(t - ta)))
        j1 = int(np.argmin(np.abs(t - tb)))
        F = np.exp(-mu * ta) * (Uh @ (G @ C))
        blocks = {}
        for q in range(k, 0, -1):
            acc = np.zeros((sizes[q], F.shape[1]), dtype=complex)
            for r in range(q + 1, k + 1):
                acc += (Rt[edges[q]:edges[q + 1], edges[r]:edges[r + 1]]
                        @ blocks[r])
            blocks[q] = -F[edges[q]:edges[q + 1]] + differentiate(acc)
        W = np.vstack([blocks[q] for q in range(1, k + 1)] +
                      [np.zeros((0, F.shape[1]))])
        old_w = xt[nV:, j0].copy()
        for j in range(j0, j1 + 1):
            s = t[j] - ta
            xt[nV:, j] = np.exp(-mu * s) * sum(W[:, i] * s ** i
                                               for i in range(W.shape[1]))
        if not nV:
            continue
        xV = xV - K @ (xt[nV:, j0] - old_w)
        Hc = B @ (F[:nV] - differentiate(Rt[:nV, nV:] @ W))
        d = Hc.shape[1]
        Maug = np.zeros((nV + d, nV + d), dtype=complex)
        Maug[:nV, :nV] = B
        Maug[:nV, nV:] = Hc
        for i in range(d):
            Maug[nV + i, nV + i] = -mu
            if i:
                Maug[nV + i, nV + i - 1] = i
        Phi = spla.expm(h * Maug)
        w = np.concatenate([xV, [1.0], np.zeros(d - 1)])
        xt[:nV, j0] = xV
        for j in range(j0 + 1, j1 + 1):
            w = Phi @ w
            xt[:nV, j] = w[:nV]
        xV = w[:nV]
    return np.exp(mu * t)[None, :] * (U @ xt)


@pytest.mark.parametrize("n_points", GRID_POINTS)
@pytest.mark.parametrize("name", sorted(EXACT_PENCILS))
def test_exact_blocks_match_per_point(name, n_points):
    p, mu, stair, t, h, x0 = _setup(name, n_points)
    rng = np.random.default_rng(3)
    bps = [0.0, t[n_points // 3], t[2 * n_points // 3], t[-1]]
    f = PolynomialForcing(bps, [rng.standard_normal((p.n, 3)) for _ in range(3)])
    got = solver._solve_exact(p, stair, x0, f, t, h, mu)
    want = _exact_reference(p, stair, x0, f, t, h, mu)
    assert _rel_dev(got, want) < 1e-12
    rep = solve_decoupled(p, x0, f, t, mu=mu)
    cls_r, _ = residuals(p, rep, f)
    assert abs(cls_r - _residuals_reference(p, rep, f)) <= 1e-12 * cls_r


# 40 points leave heat-wave's quadrature error near 1e-6, so the larger grids
@pytest.mark.parametrize("n_points", GRID_POINTS[1:])
@pytest.mark.parametrize("name", sorted(PENCILS))
def test_fd_path_matches_exact_path(name, n_points):
    # the same polynomial sampled on the grid, whose quartics reproduce it:
    # the two paths differ only in the V_k quadrature
    p, mu, stair, t, h, x0 = _setup(name, n_points)
    poly = PolynomialForcing.from_coeffs(
        np.random.default_rng(5).standard_normal((p.n, 3)), t[-1])
    f = _on_grid(poly, t)
    exact = solve_decoupled(p, x0, poly, t, mu=mu)
    fd = solve_decoupled(p, x0, f, t, mu=mu)
    assert (exact.method, fd.method) == ("staircase-exact", "staircase-fd")
    assert _rel_dev(fd.trajectory, exact.trajectory) < 1e-11


HOMOGENEOUS = dict(PENCILS, **{
    "heat-wave-10": lambda: heat_wave_pencil(HeatWaveConfig(m=10)),
    "heat-wave-25": lambda: heat_wave_pencil(HeatWaveConfig(m=25)),
    "diag": lambda: MatrixPencil(np.diag([1.0, 0.0]), np.diag([-1.0, 1.0])),
    "semidiss": lambda: MatrixPencil(np.diag([1.0, 0.0]),
                                     np.array([[0.0, -1.0], [1.0, 0.0]])),
    "ode": lambda: MatrixPencil(np.eye(2), np.diag([-1.0, -2.0])),
    # nilpotent blocks of sizes 3 and 1: W block sizes 1, 1, 2 differ
    "weierstrass-3-1": lambda: weierstrass_pencil(
        WeierstrassSpec((-1.0, -2.5), (3, 1), 44))[0],
    "index-2-61": lambda: random_index_pencil(61, 2),
    "index-3-62": lambda: random_index_pencil(62, 3),
})


@pytest.mark.parametrize("name", sorted(HOMOGENEOUS))
def test_homogeneous_stepping_matches_semigroup(name):
    p = HOMOGENEOUS[name]()
    # the per-point reference costs one n x n expm per time
    n_points = 40 if p.n > 50 else \
        GRID_POINTS[sorted(HOMOGENEOUS).index(name) % len(GRID_POINTS)]
    t = np.linspace(0.0, 2.0, n_points)
    x0 = np.random.default_rng(1).standard_normal(p.n)
    rep = solve_homogeneous(p, x0, t)
    stair = build_staircase(p, rep.mu_used, side="right")
    assert rep.index_k == stair.k
    assert rep.block_sizes == stair.block_sizes
    tr = degenerate_semigroup(p, rep.mu_used, side="right")
    want = np.column_stack([evaluate(tr, ti) @ x0 for ti in t])
    if np.any(want):
        assert _rel_dev(rep.trajectory, want) < 1e-12
    else:
        assert not np.any(rep.trajectory)
    assert np.allclose(rep.consistent_x0, evaluate(tr, 0.0) @ x0, atol=1e-13)


def _real_index2():
    """A real index-2 4 x 4 pencil: eigenvalues -1, -2 and a nilpotent
    block of size 2, under real Gaussian transforms."""
    rng = np.random.default_rng(3)
    E, A = np.zeros((4, 4)), np.eye(4)
    E[0, 0] = E[1, 1] = E[2, 3] = 1.0
    A[0, 0], A[1, 1] = -1.0, -2.0
    W, T = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    return MatrixPencil(W @ E @ T, W @ A @ T)


ONE_BY_HALF = np.array([[-1.0, 1.0], [0.5, -1.0]])  # with E = diag(1, 0)
EIGEN_PENCILS = {
    "2x2": lambda: MatrixPencil(np.diag([1.0, 0.0]), ONE_BY_HALF),
    "rlc-12-lossy": lambda: rlc_pencil(RLCConfig(
        m=12, R=np.full(12, 0.3), G=np.full(12, 0.2))).companion,
    "rlc-12-lossless": lambda: rlc_pencil(RLCConfig(m=12)).companion,
    "heat-wave-6": lambda: heat_wave_pencil(HeatWaveConfig(m=6)),
    "real-index-2": _real_index2,
}


def _eigen_expansion(p, x0, t):
    """x(t) = sum_i v_i e^(lam_i t) w_i^H E x0 / (w_i^H E v_i) over the
    finite eigenvalues, from the left and right eigenvectors."""
    (a, b), vl, vr = spla.eig(p.A, p.E, left=True, right=True,
                              homogeneous_eigvals=True)
    fin = np.abs(b) > 1e-8 * np.abs(a)
    V, L = vr[:, fin], vl[:, fin]
    c = (L.conj().T @ (p.E @ x0)) / np.einsum("ij,ij->j", L.conj(), p.E @ V)
    return V @ (c[:, None] * np.exp(np.outer(a[fin] / b[fin], t)))


@pytest.mark.parametrize("name", sorted(EIGEN_PENCILS))
def test_solutions_match_the_eigen_expansion(name):
    # both solve paths and T_R(t) x0 against the eigenvector expansion; the
    # solution starts on V_k along W_k = ker R(mu)^k, so x0 and x0 + z with
    # z in W_k have one trajectory
    p = EIGEN_PENCILS[name]()
    t = np.linspace(0.0, 1.0, 21)
    rng = np.random.default_rng(1)
    x0 = (np.array([1.0, 7.0]) if name == "2x2"
          else rng.standard_normal(p.n))
    want = _eigen_expansion(p, x0, t)
    exact = solve_homogeneous(p, x0, t)
    zero = _on_grid(PolynomialForcing.zero(p.n, 1.0), t)
    fd = solve_decoupled(p, x0, zero, t)
    assert (exact.method, fd.method) == ("staircase-exact", "staircase-fd")
    tr = degenerate_semigroup(p, exact.mu_used, side="right")
    semigroup = np.column_stack([evaluate(tr, ti) @ x0 for ti in t])
    for got in (exact.trajectory, fd.trajectory, semigroup):
        assert _rel_dev(got, want) <= 1e-12
    Wk = build_staircase(p, exact.mu_used, side="right").chain.W[exact.index_k]
    assert Wk.dim == p.n - len(tr.generator.matrix) > 0
    z = Wk.basis @ rng.standard_normal(Wk.dim)
    z *= 5.0 * np.linalg.norm(x0) / np.linalg.norm(z)
    for path in (lambda y: solve_homogeneous(p, y, t),
                 lambda y: solve_decoupled(p, y, zero, t)):
        assert _rel_dev(path(x0 + z).trajectory, want) <= 1e-12


def test_forced_start_matches_the_closed_form():
    # E = diag(1, 0), A = [[-1, 1], [0.5, -1]], f = (0, 1), x0 = 0:
    # x2 = x1/2 + 1, x1' = -x1/2 + 1, so x1 = 2 (1 - e^(-t/2)) and
    # x(0+) = (0, 1)
    p = MatrixPencil(np.diag([1.0, 0.0]), ONE_BY_HALF)
    t = np.linspace(0.0, 2.0, 41)
    x1 = 2.0 * (1.0 - np.exp(-t / 2))
    want = np.vstack([x1, x1 / 2 + 1.0])
    const = PolynomialForcing.constant([0.0, 1.0], 2.0)
    for f in (const, _on_grid(const, t)):
        rep = solve_decoupled(p, np.zeros(2), f, t)
        assert _rel_dev(rep.trajectory, want) <= 1e-12
        assert np.allclose(rep.consistent_x0, [0.0, 1.0], rtol=0, atol=1e-14)


def test_fd_memory_flat_in_steps():
    """Transient memory beyond the output arrays does not grow with the grid."""
    p = rlc_pencil(RLCConfig(m=10)).companion
    mu = _pick_mu(p)
    stair = build_staircase(p, mu, side="right")

    def peak(n_points):
        t = np.linspace(0.0, 1.0, n_points)
        f = _smooth_forcing(p.n, 1.0, 2)
        x0 = np.ones(p.n, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tracemalloc.start()
            try:
                solver._solve_fd(p, stair, x0, f, t, t[1] - t[0], mu)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    small, large = 4 * BLOCK, 16 * BLOCK
    growth = peak(large) - peak(small)
    # the staircase trajectory and U @ it, shifted in place: n x N each
    outputs = 2 * p.n * (large - small) * 16
    assert growth < 1.1 * outputs


def _residuals_one_expression(p, report, f):
    """residuals as one expression per residual, each array a temporary."""
    t, x = report.times, report.trajectory
    h = float(t[1] - t[0])
    fv = f.sample(t)
    Ex = p.E @ x
    Ax = p.A @ x
    xinf = float(np.max(np.linalg.norm(x, axis=0)))
    finf = float(np.max(np.linalg.norm(fv, axis=0)))
    scale = 1.0 + p.norm_E * xinf + p.norm_A * xinf + finf
    classical = float(np.max(np.linalg.norm(
        (-Ex[:, 4:] + 8 * Ex[:, 3:-1] - 8 * Ex[:, 1:-3] + Ex[:, :-4]) / (12 * h)
        - Ax[:, 2:-2] - fv[:, 2:-2], axis=0))) / scale

    def cumtrap(y):
        out = np.zeros_like(y)
        out[:, 1:] = np.cumsum(0.5 * h * (y[:, 1:] + y[:, :-1]), axis=1)
        return out
    defect = Ex - Ex[:, [0]] - p.A @ cumtrap(x) - cumtrap(fv)
    return classical, float(np.max(np.linalg.norm(defect, axis=0))) / scale


def _residual_cases():
    """(pencil, report, forcing): RLC m = 10 on both paths, a complex
    Weierstrass index-2 solve, and an implicit Euler trajectory, whose
    columns are not contiguous."""
    p = rlc_pencil(RLCConfig(m=10)).companion
    t = np.linspace(0.0, 1.0, 301)
    poly = PolynomialForcing(
        [0.0, 0.5, 1.0],
        [np.random.default_rng(s).standard_normal((p.n, 3)) for s in (1, 2)])
    x0 = np.random.default_rng(3).standard_normal(p.n)
    for f in (poly, SampledForcing(t, poly.sample(t))):
        yield p, solve_decoupled(p, x0, f, t), f
    q = random_index_pencil(43, 2, n_ode=3)
    g = _smooth_forcing(q.n, 1.0, 5)
    yield q, solve_decoupled(q, np.ones(q.n), g, t), g
    yield p, implicit_euler_reference(p, x0, poly, t), poly


def _assert_residuals_bitwise(cases):
    for p, rep, f in cases:
        got = residuals(p, rep, f)
        want = _residuals_one_expression(p, rep, f)
        assert np.array(got).tobytes() == np.array(want).tobytes(), rep.method


def test_residuals_match_one_expression_bitwise():
    cases = list(_residual_cases())
    assert [c[1].method for c in cases] == [
        "staircase-exact", "staircase-fd", "staircase-fd", "implicit-euler"]
    assert np.iscomplexobj(cases[2][1].trajectory)
    _assert_residuals_bitwise(cases)


def test_residuals_match_one_expression_in_uneven_blocks(monkeypatch):
    # 301 grid times, 297 interior ones: 37 divides neither
    cases = list(_residual_cases())
    monkeypatch.setattr(solver, "_BLOCK", 37)
    _assert_residuals_bitwise(cases)


def _straddle_cases(t):
    """Real RLC m = 4 and complex Weierstrass index-2 trajectories on t, each
    solved with a two-piece polynomial forcing and with its samples."""
    rng = np.random.default_rng(9)
    for p, phase in ((rlc_pencil(RLCConfig(m=4)).companion, 1.0),
                     (random_index_pencil(43, 2, n_ode=3), np.exp(0.3j))):
        poly = PolynomialForcing(
            [0.0, t[t.size // 2], 1.0],
            [phase * rng.standard_normal((p.n, 3)) for _ in range(2)])
        for f in (poly, SampledForcing(t, poly.sample(t))):
            yield p, solve_decoupled(p, rng.standard_normal(p.n), f, t), f


@pytest.mark.parametrize("interior", (BLOCK - 1, BLOCK, BLOCK + 1))
def test_residuals_across_a_block_edge_match_one_expression(interior):
    """T - 4 interior points one fewer than a block, one block and one more:
    the classical pass ends one point short of a block edge, on it and one
    point past it, and the mild pass carries its trapezoid sums into a
    short second block."""
    t = np.linspace(0.0, 1.0, interior + 4)
    cases = list(_straddle_cases(t))
    assert [c[1].method for c in cases] == ["staircase-exact",
                                            "staircase-fd"] * 2
    assert [c[1].trajectory.dtype for c in cases] == [np.float64] * 2 + [
        np.complex128] * 2
    _assert_residuals_bitwise(cases)


def test_residuals_memory_in_trajectories():
    """Besides the trajectory, residuals holds at most two arrays of its
    size at once, plus the temporaries of one block of grid times: at most
    six arrays of n x BLOCK floats, numpy's 64 KB ufunc buffer included
    (the one-expression form held seven arrays of the trajectory's size)."""
    p = rlc_pencil(RLCConfig(m=10)).companion
    t = np.linspace(0.0, 1.0, 4001)
    f = PolynomialForcing.from_coeffs(
        np.random.default_rng(6).standard_normal((p.n, 2)), 1.0)
    rep = solve_decoupled(p, np.ones(p.n), f, t)
    tracemalloc.start()
    try:
        residuals(p, rep, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trajectory.dtype == np.float64
    assert peak <= 2 * rep.trajectory.nbytes + 6 * p.n * BLOCK * 8


def test_solve_takes_one_compressed_inverse(tmp_path, monkeypatch):
    # each path reads R(mu) in staircase coordinates, N, B = S^-1 and K from
    # the staircase, which forms R(mu)'s transform and the compressed
    # inverse once each; analyze forms neither
    p = random_index_pencil(43, 2, n_ode=3)
    t = np.linspace(0.0, 1.0, 41)
    counts = {}
    generator = chains.restricted_generator
    transform = chains.StaircaseForm.transform

    def counted_generator(*args):
        counts["generator"] = counts.get("generator", 0) + 1
        return generator(*args)

    def counted_transform(self, lam):
        if lam == self.mu:
            counts["R_mu"] = counts.get("R_mu", 0) + 1
        return transform(self, lam)
    monkeypatch.setattr(chains, "restricted_generator", counted_generator)
    monkeypatch.setattr(chains.StaircaseForm, "transform", counted_transform)
    poly = PolynomialForcing.from_coeffs(
        np.random.default_rng(5).standard_normal((p.n, 3)), t[-1])
    for f in (poly, _on_grid(poly, t)):
        counts.clear()
        solve_decoupled(p, np.ones(p.n), f, t)
        assert counts == {"generator": 1, "R_mu": 1}
    counts.clear()
    assert main(["analyze", "--model", "weierstrass", "--index", "2",
                 "--out", str(tmp_path)]) == 0
    assert counts == {}
