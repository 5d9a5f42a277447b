"""Manufactured solutions: pick x(t), set f = E x' - A x, and solve for x.

Set-up: Weierstrass pencils with ODE part {-1, -2} and transform seed 0,
solved on [0, 1] from the exact x(0).  Smooth x gives a convergence order
in the number of forcing samples for the finite-difference path; a
polynomial x is an exact oracle for the piecewise-polynomial path.
"""

import functools
import warnings

import numpy as np
import pytest

from adae.forcing import PolynomialForcing, SampledForcing
from adae.models import WeierstrassSpec, weierstrass_pencil
from adae.solver import solve_decoupled

SAMPLES = (50, 100, 200, 400)
STEPS = (20, 100, 400)


def _pencil(blocks):
    return weierstrass_pencil(WeierstrassSpec((-1.0, -2.0), blocks, 0))[0]


def _smooth_x(n, t, order=0):
    """The order-th derivative of x_i(t) = sin((i+1) t + i/3), (n, len(t))."""
    i = np.arange(n)[:, None]
    return (i + 1) ** order * np.sin((i + 1) * t[None, :] + i / 3
                                     + order * np.pi / 2)


def _rel_err(report, x):
    return np.max(np.abs(report.trajectory - x)) / np.max(np.abs(x))


@functools.cache
def _fd_errors(blocks):
    """Relative max error of the sampled-forcing solve, indexed
    [samples N, steps T]."""
    p = _pencil(blocks)
    errs = np.empty((len(SAMPLES), len(STEPS)))
    for a, N in enumerate(SAMPLES):
        ts = np.linspace(0.0, 1.0, N + 1)
        f = SampledForcing(ts, p.E @ _smooth_x(p.n, ts, 1)
                           - p.A @ _smooth_x(p.n, ts))
        for b, T in enumerate(STEPS):
            t = np.linspace(0.0, 1.0, T + 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                rep = solve_decoupled(p, _smooth_x(p.n, t[:1])[:, 0], f, t)
            errs[a, b] = _rel_err(rep, _smooth_x(p.n, t))
    return errs


FD_BLOCKS = pytest.mark.parametrize("blocks", [(1,), (2,), (2, 1)], ids=str)


@FD_BLOCKS
def test_fd_path_converges_at_third_order_or_better(blocks):
    errs = _fd_errors(blocks)
    for b in range(len(STEPS)):
        order = -np.polyfit(np.log(SAMPLES), np.log(errs[:, b]), 1)[0]
        assert order >= 3.0, (STEPS[b], order)


@FD_BLOCKS
def test_fd_path_finer_output_grid_never_much_worse(blocks):
    # the derivatives are taken at the output times, off the sample grid
    errs = _fd_errors(blocks)
    assert np.all(errs[:, -1] <= 2.0 * errs[:, 0])


def test_fd_path_index2_off_grid_accuracy():
    errs = _fd_errors((2,))
    assert errs[SAMPLES.index(200), STEPS.index(400)] <= 1e-5


@pytest.mark.parametrize("blocks", [(), (1,), (2,), (2, 1)], ids=str)
def test_polynomial_path_is_exact(blocks):
    p = _pencil(blocks)
    rng = np.random.default_rng(3)
    c = rng.standard_normal((p.n, 4))        # x(t) = sum_j c[:, j] t^j
    dc = c[:, 1:] * np.arange(1, 4)
    f = PolynomialForcing.from_coeffs(
        np.hstack([p.E @ dc, np.zeros((p.n, 1))]) - p.A @ c, 1.0)
    t = np.linspace(0.0, 1.0, 101)
    x = c @ np.vander(t, 4, increasing=True).T
    rep = solve_decoupled(p, c[:, 0], f, t)
    assert _rel_err(rep, x) <= 1e-12
