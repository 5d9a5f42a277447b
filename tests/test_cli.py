import json

import numpy as np
import pytest
import scipy.linalg as spla

import adae.chains
import adae.growth
from adae.cli import main
from adae.io import read_trajectory_csv, write_pencil_json
from adae.pencil import MatrixPencil


def write_pencil(path, E, A):
    write_pencil_json(path, MatrixPencil(np.asarray(E, dtype=float),
                                         np.asarray(A, dtype=float)))


def test_analyze_nilpotent(tmp_path, capsys):
    f = tmp_path / "pencil.json"
    write_pencil(f, [[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    code = main(["analyze", "--input", str(f), "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["shape"] == [2, 2]
    assert rep["qz_index"] == 2
    assert rep["wong_stabilization"] == 2
    assert rep["tractability_index"] == 2
    assert rep["R_index"]["k"] == 2
    assert rep["staircase_block_sizes"] == [0, 1, 1]
    assert rep["qz_eigenvalues"] == [None, None]
    assert rep["violations"] == []
    assert "done in" in capsys.readouterr().out


def test_analyze_factors_once(tmp_path, monkeypatch):
    # one QZ, one probe-mu search and one Wong chain per analyze command:
    # the report's mu and chain are reused for report.json
    counts = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(spla, "ordqz")
    count(adae.growth, "_pick_mu")
    count(adae.chains, "build_chain")
    code = main(["analyze", "--model", "weierstrass", "--index", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    assert counts == {"ordqz": 1, "_pick_mu": 1, "build_chain": 1}
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["wong_stabilization"] == len(rep["wong_V_dims"]) - 2 == 1


def test_analyze_singular_exits_one(tmp_path, capsys):
    f = tmp_path / "pencil.json"
    write_pencil(f, np.zeros((2, 2)), np.zeros((2, 2)))
    code = main(["analyze", "--input", str(f), "--out", str(tmp_path)])
    assert code == 1
    assert "not regular" in capsys.readouterr().err


def test_analyze_missing_file_exits_one(tmp_path, capsys):
    code = main(["analyze", "--input", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 1


def test_solve_polynomial_forcing(tmp_path):
    f = tmp_path / "pencil.json"
    write_pencil(f, [[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    # f(t) = (0, t) as a single piece on [0, 2]
    forcing = {
        "breakpoints": [0.0, 2.0],
        "pieces": [{"rows": 2, "cols": 2,
                    "re": [0.0, 0.0, 0.0, 1.0],
                    "im": [0.0, 0.0, 0.0, 0.0]}],
    }
    g = tmp_path / "forcing.json"
    g.write_text(json.dumps(forcing))
    code = main(["solve", "--input", str(f), "--forcing", str(g),
                 "--x0", "[-1.0, 0.0]", "--tf", "2.0", "--steps", "100",
                 "--cross-check", "--out", str(tmp_path)])
    assert code == 0
    t, x = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert np.max(np.abs(x[0] + 1.0)) < 1e-9
    assert np.max(np.abs(x[1] + t)) < 1e-9
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["index_k"] == 2
    assert rep["classical_residual"] < 1e-8
    assert rep["euler_max_deviation"] < 0.2


def test_solve_sampled_index3_exits_three(tmp_path, capsys):
    t = np.linspace(0.0, 1.0, 51)
    rows = ["t, f1, f2, f3, f4, f5"]
    for ti in t:
        rows.append(", ".join(repr(float(v)) for v in
                              [ti, np.sin(ti), 0.0, 0.0, 0.0, 0.0]))
    csv = tmp_path / "forcing.csv"
    csv.write_text("\n".join(rows) + "\n")
    code = main(["solve", "--model", "weierstrass", "--index", "3",
                 "--forcing-csv", str(csv), "--tf", "1.0",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_demo_weierstrass_indices_agree(tmp_path):
    code = main(["demo", "weierstrass", "--index", "3", "--seed", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    for key in ("true_index", "qz_index", "wong_stabilization",
                "tractability_index", "R_index", "G_index"):
        assert rep[key] == 3
    assert rep["violations"] == []


def test_demo_heat_wave_energy_nonincreasing(tmp_path):
    code = main(["demo", "heat-wave", "--m", "6", "--tf", "2.0",
                 "--steps", "50", "--out", str(tmp_path)])
    assert code == 0
    data = np.loadtxt(tmp_path / "energy.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 1]) <= 1e-10)
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["y_impli"] is True
    assert rep["D2"]["verdict"] == "holds"


def test_demo_rlc_lossless(tmp_path):
    code = main(["demo", "rlc", "--m", "6", "--lossless", "--tf", "2.0",
                 "--steps", "50", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["min_singular_A"] > 0
    assert rep["energy_drift"] < 1e-6


def test_generate_roundtrip(tmp_path):
    code = main(["generate", "--model", "weierstrass", "--index", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    d = json.loads((tmp_path / "pencil.json").read_text())
    assert d["rows"] == 4 and d["cols"] == 4


def test_input_and_model_conflict(tmp_path, capsys):
    f = tmp_path / "pencil.json"
    write_pencil(f, np.eye(2), -np.eye(2))
    code = main(["analyze", "--input", str(f), "--model", "rlc",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "not both" in capsys.readouterr().err
