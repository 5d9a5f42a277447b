"""Forcing signals for the DAE solver.

Three kinds: piecewise polynomial (exact derivatives, the preferred path),
sampled on a uniform grid (finite-difference derivatives at the nearest
sample, limited smoothness), and callable (user-supplied derivative functions).
Coefficients, samples and callable values go through ``numerics.as_matrix``:
float64 when they have no imaginary part, complex128 otherwise, and NaN/Inf
refused.
"""

import numpy as np

from .exceptions import InsufficientSmoothness
from .numerics import as_matrix

__all__ = [
    "ForcingSignal",
    "PolynomialForcing",
    "SampledForcing",
    "CallableForcing",
]


class ForcingSignal:
    """Common interface: sample(ts, order), max_derivative_order, and
    value(t)/derivative(t, order) as one-column samples."""

    kind = "abstract"
    dim = 0
    max_derivative_order = 0

    def sample(self, ts, order=0):
        """The order-th derivative at every time of ts, as (dim, len(ts)),
        float64 when the signal's data are real and complex128 otherwise."""
        raise NotImplementedError

    def value(self, t):
        return self.sample([t])[:, 0]

    def derivative(self, t, order):
        return self.sample([t], order)[:, 0]

    def require_order(self, order):
        if order > self.max_derivative_order:
            raise InsufficientSmoothness(order, self.max_derivative_order)


class PolynomialForcing(ForcingSignal):
    """Piecewise polynomial with exact derivatives.

    breakpoints t_0 < ... < t_m delimit the pieces; coeffs[i] is an
    (n, d_i+1) array of vector coefficients in the local variable s = t - t_i:
    f(t) = sum_j coeffs[i][:, j] s^j.
    """

    kind = "piecewise-polynomial"
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

    def piece_index(self, t):
        i = int(np.searchsorted(self.breakpoints, t, side="right") - 1)
        return min(max(i, 0), len(self.coeffs) - 1)

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

    def left_multiplied(self, M):
        """The signal M f(t) for a constant matrix M."""
        return PolynomialForcing(self.breakpoints,
                                 [M @ c for c in self.coeffs])


class SampledForcing(ForcingSignal):
    """Values on a uniform time grid; derivatives by finite differences.

    A derivative is the stencil's value at the sample nearest to t, so off
    the grid it is off by O(h).  The stencils are 4th order, except the
    one-sided second-derivative stencil (2, -5, 4, -1)/h^2 at the two
    edges, which is 2nd order.  Only first and second derivatives are
    trusted, so solves needing higher orders (index >= 3) are refused
    upstream.
    """

    kind = "sampled"
    max_derivative_order = 2

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = as_matrix(values)
        if self.values.shape[1] != self.times.size:
            raise ValueError("values must have one column per sample time")
        # the one-sided 5-point stencils need 6 samples to stay in bounds
        if self.times.size < 6:
            raise ValueError("need at least 6 samples for the stencils")
        h = np.diff(self.times)
        if not np.allclose(h, h[0], rtol=1e-9, atol=0):
            raise ValueError("sample grid must be uniform")
        self.h = float(h[0])
        self.dim = self.values.shape[0]

    def sample(self, ts, order=0):
        """Cubic interpolation through the 4 nearest samples (order 0), or a
        finite-difference stencil at the nearest sample (orders 1 and 2;
        see the class docstring for their orders of accuracy)."""
        self.require_order(order)
        ts = np.asarray(ts, dtype=float).reshape(-1)
        n = self.times.size
        h = self.h
        v = self.values
        i = np.clip(np.rint((ts - self.times[0]) / h).astype(int), 0, n - 1)
        out = np.zeros((self.dim, ts.size), dtype=v.dtype)
        if order == 0:
            lo = np.clip(i - 1, 0, n - 4)
            for a in range(4):
                w = 1.0
                for b in range(4):
                    if b != a:
                        w = w * ((ts - self.times[lo + b])
                                 / (self.times[lo + a] - self.times[lo + b]))
                out += w * v[:, lo + a]
            return out
        mid = (2 <= i) & (i <= n - 3)
        left = i < 2
        right = ~mid & ~left
        j = i[mid]
        if order == 1:
            out[:, mid] = (-v[:, j + 2] + 8 * v[:, j + 1]
                           - 8 * v[:, j - 1] + v[:, j - 2]) / (12 * h)
            # one-sided 4th-order stencils at the edges
            j = i[left]
            out[:, left] = (-25 * v[:, j] + 48 * v[:, j + 1] - 36 * v[:, j + 2]
                            + 16 * v[:, j + 3] - 3 * v[:, j + 4]) / (12 * h)
            j = i[right]
            out[:, right] = (25 * v[:, j] - 48 * v[:, j - 1] + 36 * v[:, j - 2]
                             - 16 * v[:, j - 3] + 3 * v[:, j - 4]) / (12 * h)
            return out
        out[:, mid] = (-v[:, j + 2] + 16 * v[:, j + 1] - 30 * v[:, j]
                       + 16 * v[:, j - 1] - v[:, j - 2]) / (12 * h * h)
        # one-sided 2nd-order stencils at the edges
        j = np.minimum(i[left], n - 4)
        out[:, left] = (2 * v[:, j] - 5 * v[:, j + 1] + 4 * v[:, j + 2]
                        - v[:, j + 3]) / (h * h)
        j = i[right]
        out[:, right] = (2 * v[:, j] - 5 * v[:, j - 1] + 4 * v[:, j - 2]
                         - v[:, j - 3]) / (h * h)
        return out


class CallableForcing(ForcingSignal):
    """f given as a function of t, optionally with derivative functions."""

    kind = "callable"

    def __init__(self, dim, fn, derivatives=()):
        self.dim = dim
        self.fn = fn
        self.derivs = list(derivatives)
        self.max_derivative_order = len(self.derivs)

    def sample(self, ts, order=0):
        self.require_order(order)
        fn = self.derivs[order - 1] if order else self.fn
        ts = np.asarray(ts, dtype=float).reshape(-1)
        out = np.empty((self.dim, ts.size), dtype=complex)
        for j, t in enumerate(ts):
            out[:, j] = np.asarray(fn(t), dtype=complex).reshape(-1)
        return as_matrix(out)
