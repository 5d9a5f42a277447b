"""Command-line front end: analyze pencils, run solves, package demos.

Exit codes: 0 success, 1 I/O or input error, 2 internal implication
violation in an analysis report, 3 insufficient forcing smoothness.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from .chains import build_staircase, y_impli_check
from .exceptions import AdaeError, InsufficientSmoothness
from .forcing import PolynomialForcing, SampledForcing
from .growth import (
    LambdaGrid,
    certify_D1,
    certify_D2,
    check_left_dissipativity,
    index_comparison_report,
)
from .io import (
    read_pencil_json,
    write_json,
    write_pencil_json,
    write_trajectory_csv,
    atomic_write_text,
)
from .models import (
    HeatWaveConfig,
    RLCConfig,
    WeierstrassSpec,
    heat_wave_pencil,
    rlc_pencil,
    weierstrass_pencil,
)
from .numerics import TolerancePolicy
from .solver import implicit_euler_reference, solve_decoupled, solve_homogeneous


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="adae",
        description="Analyze and solve linear DAEs d/dt Ex = Ax + f "
                    "at the matrix-pencil level.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", help="pencil JSON file")
        sp.add_argument("--model", choices=["heat-wave", "rlc", "weierstrass"])
        sp.add_argument("--m", type=int, default=50, help="model grid size")
        sp.add_argument("--index", type=int, default=2,
                        help="target index for weierstrass model")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=None,
                        help="override rank_rel_tol")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("analyze", help="index/certificate report")
    common(sp)
    sp.add_argument("--lambda-min", type=float, default=1.0)
    sp.add_argument("--lambda-max", type=float, default=1e8)
    sp.add_argument("--lambda-points", type=int, default=48)
    sp.add_argument("--omega", type=float, default=0.0)

    sp = sub.add_parser("solve", help="decoupled solve with artifacts")
    common(sp)
    sp.add_argument("--forcing", help="forcing JSON (piecewise polynomial)")
    sp.add_argument("--forcing-csv", help="sampled forcing CSV (t, values)")
    sp.add_argument("--x0", help="JSON list of initial values", default=None)
    sp.add_argument("--tf", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--cross-check", action="store_true")

    sp = sub.add_parser("demo", help="run a packaged demonstration")
    sp.add_argument("name", choices=["heat-wave", "rlc", "weierstrass"])
    sp.add_argument("--m", type=int, default=25)
    sp.add_argument("--index", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--lossless", action="store_true")
    sp.add_argument("--tf", type=float, default=5.0)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--out", default=".")

    sp = sub.add_parser("generate", help="write a model pencil to JSON")
    common(sp)
    return ap


def _policy(args):
    if getattr(args, "tol", None):
        return TolerancePolicy(rank_rel_tol=args.tol)
    return TolerancePolicy()


def _load_pencil(args, pol):
    if args.input and args.model:
        raise ValueError("give either --input or --model, not both")
    if args.input:
        return read_pencil_json(args.input, pol)
    if args.model == "heat-wave":
        return heat_wave_pencil(HeatWaveConfig(m=args.m), pol)
    if args.model == "rlc":
        return rlc_pencil(RLCConfig(m=args.m), pol).companion
    if args.model == "weierstrass":
        spec = _weierstrass_spec(args.index, args.seed)
        return weierstrass_pencil(spec, pol)[0]
    raise ValueError("no input source: give --input or --model")


def _weierstrass_spec(index, seed):
    if index == 0:
        return WeierstrassSpec(ode_eigenvalues=(-1.0, -2.0),
                               transform_seed=seed)
    return WeierstrassSpec(ode_eigenvalues=(-1.0, -2.0),
                           nilpotent_block_sizes=(index,),
                           transform_seed=seed)


def _cert_dict(c):
    return None if c is None else c.to_dict()


def cmd_analyze(args):
    pol = _policy(args)
    try:
        p = _load_pencil(args, pol)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not p.is_square:
        print("error: analyze requires a square pencil", file=sys.stderr)
        return 1
    if not p.regular:
        print("error: pencil not regular", file=sys.stderr)
        return 1
    grid = LambdaGrid(
        points=np.logspace(np.log10(args.lambda_min),
                           np.log10(args.lambda_max), args.lambda_points),
        omega=0.0)
    rep = index_comparison_report(p, grid)
    mu, chain = rep["wong_mu"], rep["wong_chain"]
    stair = build_staircase(p, mu, side="left")
    try:
        yimp = y_impli_check(p)
    except AdaeError:
        yimp = None
    out = {
        "shape": list(p.shape),
        "regular": bool(p.regular),
        "mu_probe": mu,
        "wong_V_dims": [v.dim for v in chain.V],
        "wong_W_dims": [w.dim for w in chain.W],
        "wong_stabilization": rep["wong_stabilization"],
        "staircase_block_sizes": stair.block_sizes,
        "G_index_left": _cert_dict(rep["G_index_left"]),
        "G_index_right": _cert_dict(rep["G_index_right"]),
        "R_index": _cert_dict(rep["R_index"]),
        "Rw_index": rep["Rw_index"],
        "D_check": _cert_dict(rep["D_check"]),
        "tractability_index": rep["tractability_index"],
        "qz_index": rep["qz_index"],
        "qz_eigenvalues": [
            None if e == np.inf else [e.real, e.imag]
            for e in rep["qz_eigenvalues"]],
        "dissipativity": check_left_dissipativity(p, args.omega).to_dict(),
        "D1_certificate": certify_D1(p, args.omega).to_dict(),
        "D2_certificate": certify_D2(p, args.omega).to_dict(),
        "y_impli": yimp,
        "violations": rep["violations"],
    }
    write_json(os.path.join(args.out, "report.json"), out)
    if rep["violations"]:
        print("implication violations detected", file=sys.stderr)
        return 2
    return 0


def _load_forcing(args, n, tf):
    if args.forcing and args.forcing_csv:
        raise ValueError("give one forcing source only")
    if args.forcing:
        with open(args.forcing) as fh:
            d = json.load(fh)
        pieces = []
        for piece in d["pieces"]:
            re = np.asarray(piece["re"], dtype=float)
            im = np.asarray(piece.get("im", np.zeros_like(re)), dtype=float)
            c = (re + 1j * im).reshape(piece["rows"], piece["cols"])
            pieces.append(c)
        return PolynomialForcing(d["breakpoints"], pieces)
    if args.forcing_csv:
        data = np.loadtxt(args.forcing_csv, delimiter=",", skiprows=1)
        return SampledForcing(data[:, 0], data[:, 1:].T)
    return PolynomialForcing.zero(n, tf)


def cmd_solve(args):
    pol = _policy(args)
    try:
        p = _load_pencil(args, pol)
        f = _load_forcing(args, p.n, args.tf)
        if args.x0:
            x0 = np.asarray(json.loads(args.x0), dtype=complex)
        else:
            x0 = np.zeros(p.n, dtype=complex)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t_grid = np.linspace(0.0, args.tf, args.steps + 1)
    try:
        report = solve_decoupled(p, x0, f, t_grid, mu=args.mu)
    except InsufficientSmoothness as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AdaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                         report.times, report.trajectory)
    out = {
        "mu_used": [report.mu_used.real, report.mu_used.imag]
        if isinstance(report.mu_used, complex) else report.mu_used,
        "index_k": report.index_k,
        "block_sizes": report.block_sizes,
        "correction_norm": report.correction_norm,
        "classical_residual": report.classical_residual,
        "mild_residual": report.mild_residual,
        "method": report.method,
    }
    if args.cross_check:
        ref = implicit_euler_reference(p, report.consistent_x0, f, t_grid)
        dev = float(np.max(np.abs(report.trajectory - ref.trajectory)))
        out["euler_max_deviation"] = dev
    write_json(os.path.join(args.out, "solve.json"), out)
    return 0


def _demo_heat_wave(args):
    p = heat_wave_pencil(HeatWaveConfig(m=args.m))
    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(p.n)
    t_grid = np.linspace(0.0, args.tf, args.steps + 1)
    rep = solve_homogeneous(p, x0, t_grid)
    energy = np.real(np.einsum("ij,ij->j", rep.trajectory.conj(),
                               p.E @ rep.trajectory))
    lines = ["t, energy"]
    for t, e in zip(rep.times, energy):
        lines.append(f"{float(t)!r}, {float(e)!r}")
    atomic_write_text(os.path.join(args.out, "energy.csv"),
                      "\n".join(lines) + "\n")
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                         rep.times, rep.trajectory)
    summary = {
        "model": "heat-wave",
        "m": args.m,
        "y_impli": y_impli_check(p),
        "D2": certify_D2(p, 0.0).to_dict(),
        "max_energy_increase_per_step": float(np.max(np.diff(energy),
                                                     initial=0.0)),
        "correction_norm": rep.correction_norm,
    }
    write_json(os.path.join(args.out, "report.json"), summary)
    return 0


def _demo_rlc(args):
    model = rlc_pencil(RLCConfig(m=args.m))
    p = model.companion
    t_grid = np.linspace(0.0, args.tf, args.steps + 1)
    if args.lossless:
        rng = np.random.default_rng(args.seed)
        x0 = rng.standard_normal(p.n)
        rep = solve_decoupled(p, x0, PolynomialForcing.zero(p.n, args.tf),
                              t_grid)
    else:
        # unit step voltage at the left port: boundary row reads 0 = V(0) + f
        row_v, _ = model.boundary_forcing_indices()
        fvec = np.zeros(p.n, dtype=complex)
        fvec[row_v] = -1.0
        rep = solve_decoupled(p, np.zeros(p.n),
                              PolynomialForcing.constant(fvec, args.tf), t_grid)
    energy = np.real(np.einsum("ij,ij->j", rep.trajectory.conj(),
                               p.E @ rep.trajectory))
    lines = ["t, energy"]
    for t, e in zip(rep.times, energy):
        lines.append(f"{float(t)!r}, {float(e)!r}")
    atomic_write_text(os.path.join(args.out, "energy.csv"),
                      "\n".join(lines) + "\n")
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                         rep.times, rep.trajectory)
    import scipy.linalg as spla
    summary = {
        "model": "rlc",
        "m": args.m,
        "lossless": bool(args.lossless),
        "min_singular_A": float(spla.svdvals(p.A)[-1]),
        "energy_drift": float(np.max(np.abs(energy - energy[0])))
        if args.lossless else None,
        "correction_norm": rep.correction_norm,
        "classical_residual": rep.classical_residual,
    }
    write_json(os.path.join(args.out, "report.json"), summary)
    return 0


def _demo_weierstrass(args):
    spec = _weierstrass_spec(args.index, args.seed)
    p, true_index = weierstrass_pencil(spec)
    rep = index_comparison_report(p)
    g_k = rep["G_index_left"].k
    out = {
        "model": "weierstrass",
        "true_index": true_index,
        "qz_index": rep["qz_index"],
        "wong_stabilization": rep["wong_stabilization"],
        "tractability_index": rep["tractability_index"],
        "R_index": rep["R_index"].k,
        "G_index": g_k,
        "violations": rep["violations"],
    }
    write_json(os.path.join(args.out, "report.json"), out)
    return 2 if rep["violations"] else 0


def cmd_demo(args):
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.name == "heat-wave":
            return _demo_heat_wave(args)
        if args.name == "rlc":
            return _demo_rlc(args)
        if args.name == "weierstrass":
            return _demo_weierstrass(args)
    except InsufficientSmoothness as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AdaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"error: unknown demo {args.name}", file=sys.stderr)
    return 1


def cmd_generate(args):
    pol = _policy(args)
    try:
        p = _load_pencil(args, pol)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    write_pencil_json(os.path.join(args.out, "pencil.json"), p)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    if args.command == "analyze":
        code = cmd_analyze(args)
    elif args.command == "solve":
        code = cmd_solve(args)
    elif args.command == "demo":
        code = cmd_demo(args)
    elif args.command == "generate":
        code = cmd_generate(args)
    else:  # pragma: no cover
        code = 1
    if code == 0:
        print(f"done in {time.time() - t0:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
