"""Forcing signals for the DAE solver.

Two kinds: piecewise polynomial (exact derivatives, the preferred path) and
sampled on a uniform grid (derivative orders 0-2 of the quartic through the
5 samples nearest t, the window shifted inward at the edges; no
nearest-sample rule), evaluated only on the rows that hold a nonzero sample:
few for a port input f = B u(t).  Coefficients and samples go through
``numerics.as_matrix``: float64 when they have no imaginary part, complex128
otherwise, and NaN/Inf refused.
"""

import math

import numpy as np

from .exceptions import InsufficientSmoothness
from .numerics import as_matrix

__all__ = [
    "ForcingSignal",
    "PolynomialForcing",
    "SampledForcing",
]

# 24 l_a(s) for the Lagrange basis on the nodes s = 0..4: row a holds the
# (integer) coefficients of s^0..s^4
_LAGRANGE24 = np.rint(
    24 * np.linalg.inv(np.vander(np.arange(5.0), increasing=True))).T


class ForcingSignal:
    """Common interface: sample(ts, order) and max_derivative_order."""

    dim = 0
    max_derivative_order = 0

    def sample(self, ts, order=0):
        """The order-th derivative at every time of ts, as (dim, len(ts)),
        float64 when the signal's data are real and complex128 otherwise."""
        raise NotImplementedError


class PolynomialForcing(ForcingSignal):
    """Piecewise polynomial with exact derivatives.

    breakpoints t_0 < ... < t_m delimit the pieces; coeffs[i] is an
    (n, d_i+1) array of vector coefficients in the local variable s = t - t_i:
    f(t) = sum_j coeffs[i][:, j] s^j.
    """

    max_derivative_order = 10 ** 6  # effectively unlimited

    def __init__(self, breakpoints, coeffs):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        if self.breakpoints.size < 2 or np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing, >= 2")
        if len(coeffs) != self.breakpoints.size - 1:
            raise ValueError("need one coefficient block per piece")
        self.coeffs = [as_matrix(c) for c in coeffs]
        dims = {c.shape[0] for c in self.coeffs}
        if len(dims) != 1:
            raise ValueError("pieces must share the vector dimension")
        self.dim = dims.pop()

    @classmethod
    def from_coeffs(cls, coeffs, t_f):
        """Single-piece polynomial on [0, t_f]."""
        return cls([0.0, t_f], [coeffs])

    @classmethod
    def constant(cls, vec, t_f):
        return cls.from_coeffs(np.reshape(vec, (-1, 1)), t_f)

    @classmethod
    def zero(cls, dim, t_f):
        return cls.constant(np.zeros(dim), t_f)

    def sample(self, ts, order=0):
        ts = np.asarray(ts, dtype=float).reshape(-1)
        pieces = np.clip(np.searchsorted(self.breakpoints, ts, side="right") - 1,
                         0, len(self.coeffs) - 1)
        out = np.zeros((self.dim, ts.size), dtype=np.result_type(*self.coeffs))
        for i in np.unique(pieces):
            cols = np.flatnonzero(pieces == i)
            s = ts[cols] - self.breakpoints[i]
            c = self.coeffs[i]
            for j in range(order, c.shape[1]):
                fac = 1.0
                for q in range(j, j - order, -1):
                    fac *= q
                # float_power rounds like the scalar s ** p (array ** p may not)
                out[:, cols] += ((fac * c[:, j])[:, None]
                                 * np.float_power(s, j - order))
        return out


class SampledForcing(ForcingSignal):
    """Values on a uniform time grid; derivatives of orders 0-2 from one
    local quartic.

    The order-th derivative at t is that of the quartic through the 5
    samples nearest t: the window is centred on the nearest sample and
    shifted inward at the two edges, so one rule serves every order and
    every t, with error O(h^(5 - order)) for smooth data.  Orders above 2
    are refused, so solves of index >= 3 are refused upstream.  The samples
    are fixed once constructed: the active rows, those holding a nonzero
    sample, are found then, and every other row samples as +0.0.
    """

    max_derivative_order = 2

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = as_matrix(values)
        if self.values.shape[1] != self.times.size:
            raise ValueError("values must have one column per sample time")
        # the window needs 5 samples; 6 is the documented input contract
        # (README, tests/test_cli.py::test_solve_five_sample_csv_exits_one)
        if self.times.size < 6:
            raise ValueError("need at least 6 samples")
        h = np.diff(self.times)
        if not np.allclose(h, h[0], rtol=1e-9, atol=0) or h[0] <= 0:
            raise ValueError("sample grid must be uniform and increasing")
        self.h = float(h[0])
        self.dim = self.values.shape[0]
        rows = np.flatnonzero(np.any(self.values, axis=1))
        self._rows = None if rows.size == self.dim else rows  # None: all

    def sample(self, ts, order=0):
        """Derivatives of the quartic through the 5 nearest samples, with
        weights evaluated per time by Horner's rule in s = (t - t_lo) / h."""
        if order > self.max_derivative_order:
            raise InsufficientSmoothness(order, self.max_derivative_order)
        return next(self._samples(ts, [order]))

    def _samples(self, ts, orders):
        """sample(ts, o) for each o in orders, from one window and one read
        of the 5 taps on the active rows."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        lo = np.clip(np.rint((ts - self.times[0]) / self.h).astype(int) - 2,
                     0, self.times.size - 5)
        s = (ts - self.times[lo]) / self.h
        take = slice(None) if self._rows is None else self._rows[:, None]
        taps = [self.values[take, lo + a] for a in range(5)]
        for o in orders:  # weights: the o-th derivatives of the 24 l_a
            c = _LAGRANGE24[:, o:] * [math.perm(j, o) for j in range(o, 5)]
            w = np.zeros((5, ts.size))
            for j in range(4 - o, -1, -1):
                w *= s
                w += c[:, j, None]
            out = np.zeros(taps[0].shape, dtype=self.values.dtype)
            for a in range(5):
                out += w[a] * taps[a]
            out /= 24 * self.h ** o
            if self._rows is not None:  # the inactive rows stay +0.0
                full = np.zeros((self.dim, ts.size), dtype=out.dtype)
                full[self._rows], out = out, full
            yield out
