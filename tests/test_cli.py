import json
import warnings

import numpy as np
import pytest
import scipy.linalg as spla

import adae.chains
import adae.growth
import adae.numerics
import adae.pencil
import adae.solver
from adae.cli import _build_parser, main
from adae.io import read_trajectory_csv, write_pencil_json
from adae.models import HeatWaveConfig, RLCConfig, heat_wave_pencil, rlc_pencil
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


def _count(monkeypatch, counts, name, *owners):
    """Count the calls of `name`, rebound in every owner module given."""
    fn = getattr(owners[0], name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    for owner in owners:
        monkeypatch.setattr(owner, name, counted)


def _count_inverses(monkeypatch, counts, shifted):
    """Count the matrices scipy.linalg.inv inverts, each slice of a stack
    for one, and those equal to `shifted`."""
    inv = spla.inv

    def counted(m, *args, **kwargs):
        for x in np.reshape(m, (-1, *np.shape(m)[-2:])):
            counts["inv"] = counts.get("inv", 0) + 1
            if np.array_equal(x, shifted):
                counts["inv(mu E - A)"] = counts.get("inv(mu E - A)", 0) + 1
        return inv(m, *args, **kwargs)
    monkeypatch.setattr(spla, "inv", counted)


def test_analyze_factors_once(tmp_path, monkeypatch):
    # one QZ, one probe-mu search and one Wong chain per analyze command:
    # the report's mu and chain are reused for report.json
    counts = {}
    _count(monkeypatch, counts, "ordqz", spla)
    _count(monkeypatch, counts, "_pick_mu", adae.growth)
    _count(monkeypatch, counts, "build_chain", adae.chains, adae.growth)
    code = main(["analyze", "--model", "weierstrass", "--index", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    assert counts == {"ordqz": 1, "_pick_mu": 1, "build_chain": 1}
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["wong_stabilization"] == len(rep["wong_V_dims"]) - 2 == 1


def test_analyze_heat_wave_inverts_once_per_lambda(tmp_path, monkeypatch):
    # one report sweep: 72 distinct lambda on the G/R and D grids (24 of the
    # D points lie on the G/R grid), the Wong chain at mu and the
    # staircase's 3 pattern checks; the certificates invert nothing.  The
    # sweep inverts blocks of lambda in one call, so slices are counted
    inverted = []
    certified_inverse = adae.pencil._certified_inverse

    def counted(m, lams):
        inverted.extend(lams)
        return certified_inverse(m, lams)
    monkeypatch.setattr(adae.pencil, "_certified_inverse", counted)
    code = main(["analyze", "--model", "heat-wave", "--m", "10",
                 "--out", str(tmp_path)])
    assert code == 0
    assert len(inverted) == 76


def test_analyze_heat_wave_solves_dissipativity_once(tmp_path, monkeypatch):
    # Herm(E^H A) - omega E^H E is solved once and serves the dissipativity
    # key and the D1 certificate; certify_D2 solves for E and A - omega E
    counts = {}
    _count(monkeypatch, counts, "eigvalsh", spla)
    code = main(["analyze", "--model", "heat-wave", "--m", "10",
                 "--out", str(tmp_path)])
    assert code == 0
    assert counts == {"eigvalsh": 3}
    rep = json.loads((tmp_path / "report.json").read_text())
    diss, d1 = rep["dissipativity"], rep["D1_certificate"]
    assert diss["verdict"] == d1["verdict"] == "fails"
    assert d1["detail"] == "dissipativity fails: " + diss["detail"]


def test_analyze_index3_warns_nothing(tmp_path):
    # lam E - A of an index-3 pencil is ill-conditioned at large lam; the
    # residual gate accepts those inverses, and scipy's rcond warning is not
    # passed on (18 LinAlgWarnings per command before)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        code = main(["analyze", "--model", "weierstrass", "--index", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    assert not [w for w in rec if issubclass(w.category, spla.LinAlgWarning)]
    rep = json.loads((tmp_path / "report.json").read_text())
    assert (rep["qz_index"], rep["wong_stabilization"],
            rep["tractability_index"]) == (3, 3, 3)
    assert rep["staircase_block_sizes"] == [2, 1, 1, 1]
    assert rep["violations"] == []


def test_parser_built_once_parses_each_command_alone(tmp_path):
    ap = _build_parser()
    assert _build_parser() is ap
    a = ap.parse_args(["analyze", "--omega", "2", "--m", "7"])
    b = ap.parse_args(["solve", "--steps", "5"])
    c = ap.parse_args(["analyze"])
    assert (a.omega, a.m) == (2.0, 7)
    assert (b.steps, b.m, b.tf) == (5, 50, 1.0) and not hasattr(b, "omega")
    assert (c.omega, c.m) == (0.0, 50)
    small, default = tmp_path / "small", tmp_path / "default"
    assert main(["generate", "--model", "rlc", "--m", "3",
                 "--out", str(small)]) == 0
    assert main(["generate", "--model", "rlc", "--out", str(default)]) == 0
    rows = [json.loads((d / "pencil.json").read_text())["rows"]
            for d in (small, default)]
    assert rows == [8, 102]


def test_solve_factors_once(tmp_path, monkeypatch):
    # one probe-mu search, one Wong chain and one inverse of mu E - A per
    # solve: the staircase, G and R(mu) all come from that chain.  The other
    # inverses are the staircase's 3 pattern checks and the compressed
    # R(mu) on V_k.
    p = rlc_pencil(RLCConfig(m=10)).companion
    shifted = adae.growth._pick_mu(p) * p.E - p.A
    counts = {}
    _count(monkeypatch, counts, "_pick_mu", adae.growth, adae.solver)
    _count(monkeypatch, counts, "build_chain", adae.chains, adae.solver)
    _count_inverses(monkeypatch, counts, shifted)
    code = main(["solve", "--model", "rlc", "--m", "10",
                 "--out", str(tmp_path)])
    assert code == 0
    assert counts == {"_pick_mu": 1, "build_chain": 1, "inv": 5,
                      "inv(mu E - A)": 1}


def test_solve_and_generate_probe_no_regularity(tmp_path, monkeypatch):
    # neither command reads MatrixPencil.regular, so neither probes it;
    # analyze does, once, and its QZ oracle reads the probe's result
    counts = {}
    _count(monkeypatch, counts, "probe_regularity", adae.pencil,
           adae.numerics)
    f = tmp_path / "pencil.json"
    write_pencil_json(f, rlc_pencil(RLCConfig(m=6)).companion)
    for argv in (["solve", "--input", str(f), "--cross-check"],
                 ["solve", "--model", "weierstrass", "--index", "1"],
                 ["generate", "--model", "heat-wave", "--m", "6"]):
        assert main(argv + ["--out", str(tmp_path)]) == 0
    assert counts == {}
    assert main(["analyze", "--input", str(f), "--out", str(tmp_path)]) == 0
    assert counts == {"probe_regularity": 1}


def test_demo_heat_wave_factors_once(tmp_path, monkeypatch):
    # the restricted generator takes R(mu) from the chain, not a new inverse,
    # and the D2 certificate inverts nothing: the chain's inverse, the
    # staircase's 3 pattern checks and the compressed R(mu) on V_k
    p = heat_wave_pencil(HeatWaveConfig(m=5))
    counts = {}
    _count_inverses(monkeypatch, counts,
                    adae.growth._pick_mu(p) * p.E - p.A)
    code = main(["demo", "heat-wave", "--m", "5", "--out", str(tmp_path)])
    assert code == 0
    assert counts == {"inv": 5, "inv(mu E - A)": 1}


def test_solve_refuses_false_plateau(tmp_path, capsys):
    # RLC line without inductance: nilpotent of QZ index 2, but a range
    # chain without the rank-nullity guard plateaus; solve must not report
    # a staircase for it
    f = tmp_path / "pencil.json"
    write_pencil_json(f, rlc_pencil(RLCConfig(m=12, L=np.zeros(12))).companion)
    code = main(["solve", "--input", str(f), "--out", str(tmp_path)])
    assert code == 1
    assert "range chain failed to stabilize" in capsys.readouterr().err
    assert not (tmp_path / "solve.json").exists()


def test_analyze_singular_exits_one(tmp_path, capsys):
    f = tmp_path / "pencil.json"
    write_pencil(f, np.zeros((2, 2)), np.zeros((2, 2)))
    code = main(["analyze", "--input", str(f), "--out", str(tmp_path)])
    assert code == 1
    assert "not regular" in capsys.readouterr().err


def test_tol_zero_is_refused(tmp_path, capsys):
    code = main(["analyze", "--model", "rlc", "--m", "3", "--tol", "0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error: rank_rel_tol must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flags", [
    ["--lambda-min", "0"],
    ["--lambda-max", "0.5"],
    ["--lambda-points", "0"],
    ["--lambda-max", "inf"],
    ["--omega", "nan"],
])
def test_analyze_bad_sweep_flags_exit_one(tmp_path, capsys, flags):
    code = main(["analyze", "--model", "rlc", "--m", "3", *flags,
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "report.json").exists()


def test_analyze_missing_file_exits_one(tmp_path, capsys):
    code = main(["analyze", "--input", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("command", ["analyze", "solve", "generate"])
def test_tall_pencil_input_exits_one(tmp_path, capsys, command):
    f = tmp_path / "tall.json"
    f.write_text(json.dumps({"rows": 3, "cols": 2, "E_re": [0.0] * 6,
                             "E_im": [0.0] * 6, "A_re": [1.0] * 6,
                             "A_im": [0.0] * 6}))
    out = tmp_path / "out"
    code = main([command, "--input", str(f), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: E and A must be square matrices of one size, "
        "got (3, 2) and (3, 2)\n")
    assert list(out.iterdir()) == []


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


def test_solve_forcing_csv_warns_of_nothing(tmp_path, capsys):
    # sampled forcing takes its derivatives from local quartics, and a
    # solve with it prints no warning
    rows = ["t, f1, f2, f3"] + [f"{ti!r}, {np.sin(ti).item()!r}, 0.0, 0.0"
                                for ti in np.linspace(0.0, 1.0, 51).tolist()]
    csv = tmp_path / "forcing.csv"
    csv.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        code = main(["solve", "--model", "weierstrass", "--index", "1",
                     "--forcing-csv", str(csv), "--tf", "1.0",
                     "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_solve_five_sample_csv_exits_one(tmp_path, capsys):
    rows = ["t, f1, f2"] + [f"{ti!r}, 0.0, {ti * ti!r}"
                            for ti in np.linspace(0.0, 1.0, 5).tolist()]
    csv = tmp_path / "forcing.csv"
    csv.write_text("\n".join(rows) + "\n")
    code = main(["solve", "--model", "weierstrass", "--index", "0",
                 "--forcing-csv", str(csv), "--out", str(tmp_path)])
    assert code == 1
    assert "6 samples" in capsys.readouterr().err


def test_solve_x0_length_exits_one(tmp_path, capsys):
    f = tmp_path / "pencil.json"
    write_pencil(f, np.eye(4), -np.eye(4))
    code = main(["solve", "--input", str(f), "--x0", "[1.0, 2.0]",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error: x0 has 2 entries, the pencil has n = 4" in \
        capsys.readouterr().err


def _nan_input(tmp_path, which):
    """solve arguments with one NaN in x0, the forcing JSON or the CSV."""
    if which == "x0":
        return ["--x0", "[NaN, 0.0]"]
    if which == "forcing":
        g = tmp_path / "forcing.json"
        g.write_text(json.dumps({"breakpoints": [0.0, 1.0], "pieces": [
            {"rows": 2, "cols": 1, "re": [1.0, float("nan")]}]}))
        return ["--forcing", str(g)]
    rows = ["t, f1, f2"] + [f"{ti!r}, {ti!r}, {'nan' if j == 3 else 0.0}"
                            for j, ti in enumerate(np.linspace(0, 1, 11).tolist())]
    csv = tmp_path / "forcing.csv"
    csv.write_text("\n".join(rows) + "\n")
    return ["--forcing-csv", str(csv)]


@pytest.mark.parametrize("which", ["x0", "forcing", "forcing-csv"])
def test_solve_non_finite_input_exits_one(tmp_path, capsys, which):
    # a NaN used to run through to an all-nan trajectory and a solve.json
    # with bare NaN residuals, exit code 0
    f = tmp_path / "pencil.json"
    write_pencil(f, np.eye(2), -np.eye(2))
    code = main(["solve", "--input", str(f), *_nan_input(tmp_path, which),
                 "--tf", "1.0", "--steps", "10", "--out", str(tmp_path)])
    assert code == 1
    assert "error: matrix contains NaN/Inf entries" in capsys.readouterr().err
    assert not (tmp_path / "solve.json").exists()
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("breakpoints, message", [
    ([0.0, 0.37, 1.0], "forcing breakpoints must lie on the time grid"),
    ([0.0, 0.5, 0.75], "forcing covers [0, 0.75], not the time grid [0, 1]"),
])
def test_solve_bad_breakpoints_exit_one(tmp_path, capsys, breakpoints,
                                        message):
    f = tmp_path / "pencil.json"
    write_pencil(f, np.eye(2), -np.eye(2))
    forcing = {"breakpoints": breakpoints, "pieces": [
        {"rows": 2, "cols": 1, "re": [1.0, 0.0]}] * 2}
    g = tmp_path / "forcing.json"
    g.write_text(json.dumps(forcing))
    code = main(["solve", "--input", str(f), "--forcing", str(g),
                 "--tf", "1.0", "--steps", "10", "--out", str(tmp_path)])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "solve.json").exists()


def _csv_rows(header, row):
    return [header] + [row(ti) for ti in np.linspace(0.0, 1.0, 11).tolist()]


@pytest.mark.parametrize("flag, rows, message", [
    # one data row: the CSV must still load as 2-D rows
    ("--forcing-csv", ["t, f1, f2, f3", "0.0, 1.0, 0.0, 0.0"],
     "need at least 6 samples"),
    ("--forcing-csv", _csv_rows("t", repr),
     "forcing has 0 components, the pencil has n = 3"),
    ("--forcing-csv", _csv_rows("t, f1, f2", lambda ti: f"{ti!r}, 1.0, 0.0"),
     "forcing has 2 components, the pencil has n = 3"),
    ("--forcing", [{"rows": 2, "cols": 1, "re": [1.0, 0.0]}],
     "forcing has 2 components, the pencil has n = 3"),
    # a t column of equal times: every sample would read NaN
    ("--forcing-csv", _csv_rows("t, f1, f2, f3", lambda ti: "0.0, 1, 0, 0"),
     "sample grid must be uniform and increasing"),
])
def test_solve_bad_forcing_shape_exits_one(tmp_path, capsys, flag, rows,
                                           message):
    f = tmp_path / "pencil.json"
    write_pencil(f, np.eye(3), -np.eye(3))
    g = tmp_path / "forcing"
    if flag == "--forcing-csv":
        g.write_text("\n".join(rows) + "\n")
    else:
        g.write_text(json.dumps({"breakpoints": [0.0, 1.0], "pieces": rows}))
    code = main(["solve", "--input", str(f), flag, str(g), "--tf", "1.0",
                 "--steps", "10", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "solve.json").exists()


def test_demo_weierstrass_indices_agree(tmp_path):
    code = main(["demo", "weierstrass", "--index", "3", "--seed", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    for key in ("true_index", "qz_index", "wong_stabilization",
                "tractability_index", "R_index", "G_index"):
        assert rep[key] == 3
    assert rep["violations"] == []


@pytest.mark.parametrize("argv, message", [
    (["heat-wave", "--m", "0"], "need m >= 4"),
    (["weierstrass", "--index", "-1"], "nilpotent block sizes must be >= 1"),
])
def test_demo_bad_model_config_exits_one(tmp_path, capsys, argv, message):
    code = main(["demo", *argv, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("m", ["0", "-1"])
@pytest.mark.parametrize("argv", [["analyze", "--model", "rlc"],
                                  ["generate", "--model", "rlc"],
                                  ["demo", "rlc"]])
def test_rlc_nonpositive_m_exits_one(tmp_path, capsys, argv, m):
    code = main([*argv, "--m", m, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: need m >= 1\n"
    assert not any(tmp_path.iterdir())


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


def test_bad_tol_exits_one(tmp_path, capsys):
    code = main(["analyze", "--model", "rlc", "--m", "4", "--tol", "2",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error: rank_rel_tol must lie in (0, 1)" in capsys.readouterr().err
