import json

import numpy as np
import pytest

from adae.io import (
    atomic_write_text,
    write_csv_table,
    pencil_from_dict,
    pencil_to_dict,
    read_pencil_json,
    read_trajectory_csv,
    write_pencil_json,
    write_trajectory_csv,
)
from adae.pencil import MatrixPencil


def test_pencil_json_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(2)
    E = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = rng.standard_normal((3, 3))
    p = MatrixPencil(E, A)
    f1 = tmp_path / "p1.json"
    f2 = tmp_path / "p2.json"
    write_pencil_json(f1, p)
    q = read_pencil_json(f1)
    assert np.array_equal(q.E, p.E) and np.array_equal(q.A, p.A)
    write_pencil_json(f2, q)
    assert f1.read_bytes() == f2.read_bytes()


def test_pencil_dict_rectangular():
    p = MatrixPencil(np.zeros((3, 2)), np.ones((3, 2)))
    q = pencil_from_dict(pencil_to_dict(p))
    assert q.shape == (3, 2)
    assert np.array_equal(q.A.real, p.A.real)


def test_trajectory_csv_roundtrip(tmp_path):
    t = np.linspace(0.0, 1.0, 7)
    x = np.vstack([np.exp(-t) + 1j * t, np.cos(t)])
    f = tmp_path / "traj.csv"
    write_trajectory_csv(f, t, x)
    header = f.read_text().splitlines()[0]
    assert header == "t, re_x1, im_x1, re_x2, im_x2"
    t2, x2 = read_trajectory_csv(f)
    assert np.array_equal(t2, t)
    assert np.array_equal(x2, x)


def _per_element_csv(times, x):
    """Trajectory CSV text formatted value by value with repr(float(.))."""
    cols = []
    for i in range(1, x.shape[0] + 1):
        cols += [f"re_x{i}", f"im_x{i}"]
    lines = ["t, " + ", ".join(cols)]
    for j, t in enumerate(times):
        vals = [repr(float(t))]
        for i in range(x.shape[0]):
            vals.append(repr(float(x[i, j].real)))
            vals.append(repr(float(x[i, j].imag)))
        lines.append(", ".join(vals))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_bytes_match_per_element_format(tmp_path):
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                        1e300, -1e300, 0.1, 1.0 / 3.0, 123456789.0, 1e-5, 1e16])
    m = special.size
    x = np.empty((3, m), dtype=complex)
    x.real = np.vstack([special, special[::-1], np.roll(special, 3)])
    x.imag = np.vstack([special[::-1], special, np.roll(special, 5)])
    t = np.roll(special, 1)
    f = tmp_path / "traj.csv"
    write_trajectory_csv(f, t, x)
    assert f.read_text() == _per_element_csv(t, x)
    e = tmp_path / "energy.csv"
    write_csv_table(e, ["t", "energy"], np.column_stack([t, special]))
    want = "".join(f"{float(a)!r}, {float(b)!r}\n" for a, b in zip(t, special))
    assert e.read_text() == "t, energy\n" + want


def test_real_trajectory_csv_matches_complex_typed(tmp_path):
    # a float64 trajectory is written as it is, with 0.0 imaginary columns,
    # not copied into complex128 first; the bytes are the same
    t = np.linspace(0.0, 1.0, 9)
    x = np.vstack([np.exp(-t), -np.cos(3 * t), np.zeros_like(t)])
    write_trajectory_csv(tmp_path / "real.csv", t, x)
    write_trajectory_csv(tmp_path / "complex.csv", t, x.astype(complex))
    got = (tmp_path / "real.csv").read_bytes()
    assert got == (tmp_path / "complex.csv").read_bytes()
    assert got.decode() == _per_element_csv(t, x.astype(complex))


@pytest.mark.parametrize("n_times", [4, 6])
def test_trajectory_csv_rejects_mismatched_lengths(tmp_path, n_times):
    x = np.ones((2, 5), dtype=complex)
    with pytest.raises(ValueError, match=f"5 columns.*{n_times} times"):
        write_trajectory_csv(tmp_path / "traj.csv", np.arange(n_times), x)
    assert not (tmp_path / "traj.csv").exists()


def test_atomic_write_no_partial_files(tmp_path):
    target = tmp_path / "sub" / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(target, "world\n")
    assert target.read_text() == "world\n"
    leftovers = [q for q in target.parent.iterdir() if q.suffix == ".tmp"]
    assert leftovers == []


def test_malformed_pencil_json_raises(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"rows": 2, "cols": 2, "E_re": [1.0]}))
    with pytest.raises((KeyError, ValueError)):
        read_pencil_json(f)
    f.write_text("not json at all")
    with pytest.raises(json.JSONDecodeError):
        read_pencil_json(f)
