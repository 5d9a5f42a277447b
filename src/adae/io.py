"""File formats: pencil JSON, trajectory CSV, atomic writes.

Floats are serialized with Python's shortest round-trip repr, so a
write -> read -> write cycle is byte-identical for IEEE-754 doubles.
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
    """Write via a temp file in the same directory plus rename."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
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

    Values are written in the shortest round-trip repr and separated by
    ", ", exactly as Python's list repr does; rows are converted one at a
    time, so no Python float outlives its row.
    """
    lines = (repr(row.tolist())[1:-1] + "\n" for row in table)
    atomic_write_text(path, "".join(chain([", ".join(header) + "\n"], lines)))


def write_trajectory_csv(path, times, trajectory):
    """Header "t, re_x1, im_x1, ...", one row per grid point."""
    x = np.atleast_2d(np.asarray(trajectory))
    t = np.asarray(times, dtype=float)
    n = x.shape[0]
    if t.shape != (x.shape[1],):
        raise ValueError(f"trajectory has {x.shape[1]} columns but "
                         f"{t.size} times were given")
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"re_x{i}", f"im_x{i}"]
    table = np.empty((t.size, 1 + 2 * n))
    table[:, 0] = t
    table[:, 1::2] = x.real.T
    table[:, 2::2] = x.imag.T if np.iscomplexobj(x) else 0.0
    write_csv_table(path, header, table)


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
