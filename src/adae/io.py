"""File formats: pencil JSON, trajectory CSV, atomic writes.

Floats are serialized with Python's shortest round-trip repr, so a
write -> read -> write cycle is byte-identical for IEEE-754 doubles.

CSV tables write every value v exactly as repr(float(v)) does: the
shortest digits that read back as v, the closest of those to v with ties
to even, in repr's layout.  A numpy kernel formats the finite |v| in
[1e-4, 1e16), where repr is positional, and the zeros; repr itself formats
the rest (NaN, infinities, nonzero |v| < 1e-4 and |v| >= 1e16).
"""

import json
import os
import tempfile
from itertools import chain

import numpy as np

from .numerics import DEFAULT_POLICY
from .pencil import MatrixPencil

__all__ = [
    "pencil_to_dict",
    "pencil_from_dict",
    "write_pencil_json",
    "read_pencil_json",
    "write_csv_table",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "atomic_write_text",
    "write_json",
]


def atomic_write_text(path, text):
    """Write text via a temp file in the same directory plus rename."""
    _atomic_write(path, [text])


def _atomic_write(path, pieces):
    """Write the strings of pieces, in order, to a temp file in the same
    directory, then rename it over path.  The file gets the mode a plain
    open would give it, 0o666 less the umask.  If anything fails, path is
    left as it was and the temp file is removed."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for piece in pieces:
                fh.write(piece)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def pencil_to_dict(p: MatrixPencil) -> dict:
    rows, cols = p.shape
    return {
        "rows": rows,
        "cols": cols,
        "E_re": [float(v) for v in p.E.real.ravel()],
        "E_im": [float(v) for v in p.E.imag.ravel()],
        "A_re": [float(v) for v in p.A.real.ravel()],
        "A_im": [float(v) for v in p.A.imag.ravel()],
    }


def pencil_from_dict(d: dict, pol=DEFAULT_POLICY) -> MatrixPencil:
    rows, cols = int(d["rows"]), int(d["cols"])
    shape = (rows, cols)
    E = (np.asarray(d["E_re"], dtype=float)
         + 1j * np.asarray(d["E_im"], dtype=float)).reshape(shape)
    A = (np.asarray(d["A_re"], dtype=float)
         + 1j * np.asarray(d["A_im"], dtype=float)).reshape(shape)
    return MatrixPencil(E, A, pol)


def write_pencil_json(path, p: MatrixPencil):
    atomic_write_text(path, json.dumps(pencil_to_dict(p)) + "\n")


def read_pencil_json(path, pol=DEFAULT_POLICY) -> MatrixPencil:
    with open(path) as fh:
        return pencil_from_dict(json.load(fh), pol)


def write_csv_table(path, header, table):
    """Header line of names, then one line per row of a 2-d real array.

    Values are written as repr(float(v)) writes them and separated by
    ", ", exactly as Python's list repr does.  The text is formed and
    written _CSV_BLOCK values at a time, so the temporaries do not grow
    with the rows; only a table that is not float64 is first copied whole.
    """
    table = np.asarray(table, dtype=float)
    _write_csv(path, header, table.shape, lambda i, j: table[i:j])


def _write_csv(path, header, shape, rows):
    """Stream a CSV table of the given (rows, columns) shape to path.

    rows(i, j) returns rows i..j-1 as a float64 array.  Each block of
    _CSV_BLOCK values is formed, formatted and written before the next, so
    no temporary grows with the number of rows.
    """
    n_rows, n_cols = shape
    step = max(1, _CSV_BLOCK // max(n_cols, 1))
    blocks = (_format_rows(rows(i, min(i + step, n_rows)))
              for i in range(0, n_rows, step))
    _atomic_write(path, chain([", ".join(header) + "\n"], blocks))


# -- the CSV kernel -----------------------------------------------------------
# A finite x with |x| in [1e-4, 1e16) scales to X = |x| 10^s in [1e16, 1e17),
# s in [1, 20].  10^s is exact there, and X is exactly P + e (Dekker's
# product): P is an even integer double (P > 2^53), e a small remainder.
# Every decimal with 17 significant digits is C 10^-s for an integer C, and
# repr writes the one with the most trailing zeros among those inside x's
# rounding interval, X +- h with h half an ulp of x times 10^s (an exact
# double, below 11.2), and of those the nearest to X, then the even one.
# For s <= 20, e + h, e - h and (n - P) + e for an integer n near P are
# exact too: multiples of 2^-47 or coarser below 32.
#
# Three of repr's rules never decide a value in this range, and are left
# out (the tests check every power of two and ten in it with neighbours):
# - The ends of the interval.  For |x| < 2^52 they are 18-digit or longer
#   decimals, never a C; above, they are X +- 5 or X +- 10 with X itself a
#   multiple of 10, so the nearest multiple of 10 is X.
# - The lower side below a power of two 2^E, a quarter ulp.  X is then an
#   integer, and every integer with more trailing zeros is 20 or more
#   away from it.
# - A round-up to a power of ten 10^m (C = 10^17): it needs the double
#   nearest 10^m to lie below it, and for m in [-3, 16] none does.

_CSV_BLOCK = 2 ** 15  # values formatted per block by write_csv_table
_CHARS = 24  # the longest repr of a float, sign included
_ZERO, _POINT = ord("0"), ord(".")
_POW10 = np.array([float(10 ** k) for k in range(22)])


def _split(a):
    """Veltkamp's split: a = hi + lo, each with at most 26 bits."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _quad_table():
    """The 4 ASCII digits of k, as one uint32, at [k] and, with trailing
    zeros as NUL, at [10000 + k]."""
    digits = np.frombuffer(b"0123456789", np.uint8)
    d = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    d[0, ..., 0] = digits[:, None, None, None]
    d[0, ..., 1] = digits[:, None, None]
    d[0, ..., 2] = digits[:, None]
    d[0, ..., 3] = digits
    d[1] = d[0]
    q = d.reshape(2, 10000, 4)
    tail = np.logical_and.accumulate(q[0, :, ::-1] == _ZERO, axis=1)
    q[1][tail[:, ::-1]] = 0
    return d.view(np.uint32).ravel()


_QUADS = _quad_table()
# each value's slot in a line: sign, _CHARS characters, separator; the
# characters of 0.0 until others are written
_SLOT = np.void(b"\0" + b"0.0".ljust(_CHARS, b"\0") + b", ")


def _scaled(a, s):
    """(P, e) with P + e = a 10^s exactly and P = fl(a 10^s)."""
    p = a * _POW10[s]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _shortest(a):
    """(C, s): repr's digits of each a in [1e-4, 1e16) are those of the
    int64 C in [1e16, 1e17), its value C 10^-s."""
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    p, e = _scaled(a, s)
    # log10 may land on the wrong side of a power of ten
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    if low.any() or high.any():
        s += low
        s -= high
        p, e = _scaled(a, s)
    h = np.spacing(a) * _POW10[s] * 0.5
    P = p.astype(np.int64)
    # [cmin, cmax]: the integers C with C 10^-s inside the rounding interval
    cmax = P + np.floor(e + h).astype(np.int64)
    cmin = P + np.ceil(e - h).astype(np.int64)
    # the nearest integer to X, ties to even (P is even); h > 1/2, so it is
    # inside
    C = P + np.rint(e).astype(np.int64)
    # else the multiple of 10 nearest X inside: B, or B - 10 when X is
    # nearer to it (then h > 5, and B - 10 is inside)
    B = cmax // 10 * 10
    y = (P - B).astype(float) + e  # X - B, in (-h, 10)
    down = (y < -5) | ((y == -5) & (B % 20 == 10))
    C = np.where(B >= cmin, B - 10 * down, C)
    # else the one multiple of 100 inside (the interval is narrower than
    # 23): it has the most trailing zeros
    H = cmax // 100 * 100
    return np.where(H >= cmin, H, C), s


def _digit_chars(C):
    """(N, 17) uint8: the ASCII digits of each C in [1e16, 1e17), its
    trailing zeros as NUL."""
    hi = (C // 10 ** 8).astype(np.int32)
    lo = (C - hi * np.int64(10 ** 8)).astype(np.int32)
    c0 = hi // 10 ** 8
    hi -= c0 * 10 ** 8
    c1 = hi // 10 ** 4
    c2 = hi - c1 * 10 ** 4
    c3 = lo // 10 ** 4
    c4 = lo - c3 * 10 ** 4
    quads = np.empty((C.size, 5), np.uint32)
    quads[:, 0] = _QUADS[c0]  # "000d"
    tail = c4 == 0
    quads[:, 4] = _QUADS[c4 + 10000]
    quads[:, 3] = _QUADS[c3 + 10000 * tail]
    tail &= c3 == 0
    quads[:, 2] = _QUADS[c2 + 10000 * tail]
    tail &= c2 == 0
    quads[:, 1] = _QUADS[c1 + 10000 * tail]
    return quads.view(np.uint8)[:, 3:]


def _positional(a):
    """repr's characters of each a in [1e-4, 1e16), NUL-padded to _CHARS,
    for the values a[order]."""
    C, s = _shortest(a)
    decpt = (17 - s).astype(np.int8)  # the value is 0.d1d2... 10^decpt
    order = np.argsort(decpt, kind="stable")
    decpt = decpt[order]
    D = _digit_chars(C[order])
    out = np.zeros((a.size, _CHARS), np.uint8)
    ends = np.searchsorted(decpt, np.arange(-3, 18))  # decpt in [-3, 16]
    for d, lo, hi in zip(range(-3, 17), ends[:-1], ends[1:]):
        if lo == hi:
            continue
        r, Dd = out[lo:hi], D[lo:hi]
        if d <= 0:  # "0.", -d zeros, the digits
            r[:, :2 - d] = _ZERO
            r[:, 1] = _POINT
            r[:, 2 - d:19 - d] = Dd
        else:  # d integer digits, ".", the rest or "0"
            np.maximum(Dd[:, :d], _ZERO, out=r[:, :d])
            r[:, d] = _POINT
            r[:, d + 1:18] = Dd[:, d:]
            np.maximum(Dd[:, d], _ZERO, out=r[:, d + 1])
    return out, order


def _format_rows(table):
    """The CSV lines of the rows of table, as repr writes each value."""
    rows, cols = table.shape
    if not cols:
        return "\n" * rows
    x = table.ravel()
    buf = np.empty((x.size, _SLOT.dtype.itemsize), np.uint8)
    buf.view(_SLOT.dtype).fill(_SLOT)
    buf.reshape(rows, cols, -1)[:, -1, -2:] = (ord("\n"), 0)  # ends a row
    buf[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    a = np.abs(x)
    kernel = (a >= 1e-4) & (a < 1e16)
    idx = np.flatnonzero(kernel)
    chars, order = _positional(a[idx])
    buf[idx[order], 1:_CHARS + 1] = chars
    rest = np.flatnonzero(~kernel & (a != 0))
    if rest.size:
        text = "".join(repr(v).ljust(_CHARS, "\0") for v in x[rest].tolist())
        buf[rest, 0] = 0  # repr writes the sign, and none for NaN
        buf[rest, 1:_CHARS + 1] = np.frombuffer(
            text.encode("ascii"), np.uint8).reshape(-1, _CHARS)
    return buf[buf != 0].tobytes().decode("ascii")


def write_trajectory_csv(path, times, trajectory):
    """Header "t, re_x1, im_x1, ...", one row per grid point.

    The rows of each block are gathered from the trajectory as they are
    written, so no table of the whole trajectory is formed.
    """
    x = np.atleast_2d(np.asarray(trajectory))
    t = np.asarray(times, dtype=float)
    n = x.shape[0]
    if t.shape != (x.shape[1],):
        raise ValueError(f"trajectory has {x.shape[1]} columns but "
                         f"{t.size} times were given")
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"re_x{i}", f"im_x{i}"]

    def rows(i, j):
        block = np.empty((j - i, 1 + 2 * n))
        block[:, 0] = t[i:j]
        block[:, 1::2] = x[:, i:j].real.T
        block[:, 2::2] = x[:, i:j].imag.T if np.iscomplexobj(x) else 0.0
        return block

    _write_csv(path, header, (t.size, 1 + 2 * n), rows)


def read_trajectory_csv(path):
    with open(path) as fh:
        header = fh.readline()
        n = (len(header.split(",")) - 1) // 2
        times, rows = [], []
        for line in fh:
            parts = [float(v) for v in line.split(",")]
            times.append(parts[0])
            re = parts[1::2]
            im = parts[2::2]
            rows.append(np.array(re) + 1j * np.array(im))
    return np.asarray(times), np.asarray(rows).T.reshape(n, -1)
