import json
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adae import io
from adae.io import (
    _CSV_BLOCK,
    atomic_write_text,
    write_csv_table,
    pencil_from_dict,
    read_pencil_json,
    read_trajectory_csv,
    write_json,
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


def test_pencil_dict_rectangular(tmp_path):
    # a tall pencil is refused on load, from a dict or from JSON
    d = {"rows": 3, "cols": 2, "E_re": [0.0] * 6, "E_im": [0.0] * 6,
         "A_re": [1.0] * 6, "A_im": [0.0] * 6}
    with pytest.raises(ValueError, match="square"):
        pencil_from_dict(d)
    f = tmp_path / "tall.json"
    f.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="square"):
        read_pencil_json(f)


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


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002],
                         ids=["022", "077", "002"])
def test_atomic_write_mode_matches_plain_open(tmp_path, umask):
    # every output gets the mode a plain open gives a new file, also when
    # it replaces a file with another mode
    old = os.umask(umask)
    try:
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x\n")
        target = tmp_path / "out.json"
        write_json(target, {"a": 1})
        modes = [stat.S_IMODE(target.stat().st_mode)]
        target.chmod(0o600)
        write_trajectory_csv(target, np.arange(3.0), np.ones((1, 3)))
        modes.append(stat.S_IMODE(target.stat().st_mode))
    finally:
        os.umask(old)
    want = stat.S_IMODE(plain.stat().st_mode)
    assert want == 0o666 & ~umask
    assert modes == [want, want]


def test_failed_csv_write_leaves_target_unchanged(tmp_path, monkeypatch):
    target = tmp_path / "traj.csv"
    target.write_text("old contents\n")
    before = target.read_bytes()
    format_rows = io._format_rows
    calls = []

    def fail_on_second_block(table):
        calls.append(len(table))
        if len(calls) == 2:
            raise RuntimeError("disk went away")
        return format_rows(table)
    monkeypatch.setattr(io, "_format_rows", fail_on_second_block)
    step = _CSV_BLOCK // 5
    with pytest.raises(RuntimeError, match="disk went away"):
        write_trajectory_csv(target, np.arange(3.0 * step),
                             np.ones((2, 3 * step)))
    assert calls == [step, step]
    assert target.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["traj.csv"]


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("dtype", [float, complex])
def test_trajectory_csv_block_edges(tmp_path, dtype, extra):
    # row counts around one block of rows, real and complex trajectories
    n = 3
    rows = _CSV_BLOCK // (2 * n + 1) + extra
    rng = np.random.default_rng(rows)
    x = (rng.standard_normal((n, rows))
         * 10.0 ** rng.integers(-6, 18, (n, rows))).astype(dtype)
    if dtype is complex:
        x.imag = rng.standard_normal((n, rows))
    x[:, ::101] = 0.0
    x[0, 3::89] = -0.0
    x[1, 7::53] = np.nan
    x[2, 11::97] = -np.inf
    t = np.linspace(0.0, 1.0, rows)
    f = tmp_path / "traj.csv"
    write_trajectory_csv(f, t, x)
    assert f.read_bytes() == _per_element_csv(t, x).encode()


def test_trajectory_csv_memory_flat_in_rows(tmp_path):
    """The CSV is written block by block: no temporary grows with the rows."""
    n = 3
    rng = np.random.default_rng(29)

    def peak(rows):
        x = rng.standard_normal((n, rows)) + 1j * rng.standard_normal((n, rows))
        t = np.linspace(0.0, 1.0, rows)
        tracemalloc.start()
        try:
            write_trajectory_csv(tmp_path / "traj.csv", t, x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40_000) <= 1.2 * peak(10_000)


def test_malformed_pencil_json_raises(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"rows": 2, "cols": 2, "E_re": [1.0]}))
    with pytest.raises((KeyError, ValueError)):
        read_pencil_json(f)
    f.write_text("not json at all")
    with pytest.raises(json.JSONDecodeError):
        read_pencil_json(f)


# -- the CSV kernel against repr, value by value ------------------------------

def _repr_rows(table):
    """The lines write_csv_table must write for table: repr(float(v)) of
    every value, ", " between them."""
    return "".join(", ".join(repr(float(v)) for v in row) + "\n"
                   for row in table)


def _assert_table_matches_repr(tmp_path, table):
    f = tmp_path / "table.csv"
    write_csv_table(f, ["a"] * table.shape[1], table)
    got = f.read_text().split("\n", 1)[1]
    want = _repr_rows(table)
    if got != want:  # name the first value written differently
        for g, w, row in zip(got.splitlines(), want.splitlines(), table):
            assert g == w, [v for v in row
                            if repr(float(v)) not in g.split(", ")]
    assert got == want


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               max_side=12),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_csv_values_match_repr(tmp_path_factory, table):
    _assert_table_matches_repr(tmp_path_factory.mktemp("csv"), table)


def _neighbours(x, k):
    """x and its k nearest doubles on each side (no sign change)."""
    bits = np.abs(np.asarray(x, dtype=float)).view(np.int64)
    near = (bits[:, None] + np.arange(-k, k + 1)).ravel()
    return near[near > 0].view(np.float64)


_POWERS = np.concatenate([2.0 ** np.arange(-1074, 1024),
                          [float(f"1e{k}") for k in range(-323, 309)]])
_FAMILIES = {
    "random bit patterns": lambda rng, n: rng.integers(
        0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
    "powers of 2 and 10, 20 neighbours each": lambda rng, n: _neighbours(
        _POWERS, 20),
    "1e-4 and 1e16, 25 000 neighbours each": lambda rng, n: _neighbours(
        [1e-4, 1e16], 25_000),
    "odd m / 2^k": lambda rng, n: (rng.integers(0, 2 ** 19, n) * 2 + 1
                                   ) / 2.0 ** rng.integers(1, 64, n),
    "short decimals": lambda rng, n: (rng.integers(-10 ** 6, 10 ** 6, n)
                                      / 10.0 ** rng.integers(0, 12, n)),
    "integers up to 2^53": lambda rng, n: rng.integers(
        0, 2 ** 53, n, endpoint=True).astype(float),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_csv_value_families_match_repr(tmp_path, family):
    rng = np.random.default_rng(23)
    values = _FAMILIES[family](rng, 100_000)
    assert values.size >= 100_000
    # a random sign on each value, set on its bits
    negative = rng.random(values.size) < 0.5
    sign = negative.astype(np.uint64) << np.uint64(63)
    values = (values.view(np.uint64) | sign).view(np.float64)
    cols = 7
    m = values.size // cols * cols
    _assert_table_matches_repr(tmp_path, values[:m].reshape(-1, cols))


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_csv_block_edges_match_repr(tmp_path, cols, extra):
    # row counts around the block size, one- and three-column tables
    rows = _CSV_BLOCK // cols + extra
    rng = np.random.default_rng(cols + extra)
    table = (rng.standard_normal((rows, cols))
             * 10.0 ** rng.integers(-6, 18, (rows, cols)))
    table[::97] = 0.0
    _assert_table_matches_repr(tmp_path, table)


def test_csv_empty_and_columnless_tables(tmp_path):
    f = tmp_path / "t.csv"
    write_csv_table(f, ["t", "energy"], np.empty((0, 2)))
    assert f.read_text() == "t, energy\n"
    write_csv_table(f, [], np.empty((3, 0)))
    assert f.read_text() == "\n\n\n\n"
