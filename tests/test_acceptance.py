"""End-to-end acceptance checks, one test per contract item.

Each test states its tolerance and (where applicable) its time budget
explicitly, so a verbose run reads as a pass/fail line per item.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg as spla

from conftest import random_index_pencil, random_regular_pencil
from adae.chains import (
    build_chain,
    build_staircase,
    check_decomposition,
    restricted_generator,
    y_impli_check,
)
from adae.cli import main as cli_main
from adae.exceptions import InsufficientSmoothness, NotInResolventSet
from adae.forcing import PolynomialForcing, SampledForcing
from adae.growth import (
    certify_D1,
    certify_D2,
    check_Dk,
    estimate_G_index,
    estimate_R_index,
    tractability_chain,
    _pick_mu,
)
from adae.io import read_trajectory_csv, write_pencil_json
from adae.models import (
    HeatWaveConfig,
    RLCConfig,
    heat_wave_pencil,
    rlc_pencil,
)
from adae.numerics import qz_canonical, subspace_distance
from adae.pencil import (
    MatrixPencil,
    pseudo_resolvent,
    pseudo_resolvent_residual,
    resolvent_at,
)
from adae.semigroup import degenerate_semigroup, laplace_consistency
from adae.solver import implicit_euler_reference, solve_decoupled, solve_homogeneous

RNG_POOL = 10  # lambda samples cached per pencil in the identity sweep


def _sample_lambda(rng):
    return complex(rng.standard_normal() + 1j * rng.standard_normal())


def test_criterion_01_resolvent_identity_sweep():
    # 100 random regular pencils (n <= 12), 50 (lam, mu) pairs each, both
    # sides: residual <= 1e-9 (1 + ||R(lam)|| ||R(mu)||).  Budget 10 s.
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 13))
        p = random_regular_pencil(rng, n)
        for side in ("left", "right"):
            lams, Rs, norms = [], [], []
            while len(lams) < RNG_POOL:
                lam = _sample_lambda(rng)
                try:
                    R = pseudo_resolvent(p, lam, side)
                except NotInResolventSet:
                    continue
                lams.append(lam)
                Rs.append(R)
                norms.append(np.linalg.norm(R, 2))
            pairs = 0
            first = True
            while pairs < 50:
                i, j = rng.integers(0, RNG_POOL, 2)
                if i == j:
                    continue
                pairs += 1
                if first:
                    # exercise the public entry point once per pencil/side
                    res = pseudo_resolvent_residual(p, lams[i], lams[j], side)
                    first = False
                else:
                    diff = (Rs[i] - Rs[j]) / (lams[i] - lams[j])
                    res = np.linalg.norm(diff - Rs[i] @ Rs[j], 2)
                assert res <= 1e-9 * (1.0 + norms[i] * norms[j])
    assert time.perf_counter() - t0 <= 10.0


def test_criterion_02_index_method_agreement():
    # 100 pencils with prescribed index k in {0,1,2,3}: QZ, Wong
    # stabilization, tractability and the R-growth estimate agree exactly;
    # the G-growth estimate reports max(k, 1) with at most 2 inconclusive
    # verdicts.  Budget 60 s.
    t0 = time.perf_counter()
    inconclusive = 0
    for i in range(100):
        k = i % 4
        p = random_index_pencil(1000 + i, k)
        _, qz_k = qz_canonical(p.E, p.A, p.pol)
        assert qz_k == k
        mu = _pick_mu(p)
        assert build_chain(p, mu, side="left").stabilization_k == k
        assert tractability_chain(p).index == k
        assert estimate_R_index(p).k == k
        g = estimate_G_index(p)
        if g.verdict == "inconclusive":
            inconclusive += 1
        else:
            assert g.k == max(k, 1)
    assert inconclusive <= 2
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_03_restricted_growth_consequences():
    # whenever the restricted growth check holds at k: chains are stabilized
    # to 1e-8, the range/kernel decomposition gap is >= 1e-6, and the
    # restricted generator reproduces the pseudo-resolvent on V_k to
    # 1e-8 (1 + ||R||) at 5 sampled lambda.
    cases = [
        (MatrixPencil(np.diag([1.0, 0.0]),
                      np.array([[0.0, -1.0], [1.0, 0.0]])), 2),
        (MatrixPencil(np.diag([1.0, 0.0]), np.diag([-1.0, 1.0])), 1),
        (MatrixPencil(np.eye(2), -np.eye(2)), 1),
        (heat_wave_pencil(HeatWaveConfig(m=6)), 2),
    ]
    exercised = 0
    for p, k in cases:
        cert = check_Dk(p, k)
        if cert.verdict != "holds":
            continue
        exercised += 1
        mu = _pick_mu(p)
        chain = build_chain(p, mu, side="left")
        kk = chain.stabilization_k
        assert subspace_distance(chain.V[kk], chain.V[kk + 1]) < 1e-8
        assert subspace_distance(chain.W[kk], chain.W[kk + 1]) < 1e-8
        holds, gap = check_decomposition(chain, p.pol)
        assert holds and gap >= 1e-6
        rg = restricted_generator(p, chain)
        if rg.dim == 0:
            continue
        Q = rg.basis.basis
        for lam in (1.5, 3.0, 7.0, 20.0, 55.0):
            R = pseudo_resolvent(p, lam, "left")
            got = Q.conj().T @ R @ Q
            want = spla.inv(rg.matrix - lam * np.eye(rg.dim))
            err = np.linalg.norm(got - want, 2)
            assert err < 1e-8 * (1.0 + np.linalg.norm(R, 2))
    assert exercised >= 3


def test_criterion_04_staircase_pattern_on_corpus():
    # zero-pattern residual < 1e-10 at 3 random lambda, random + model pencils
    rng = np.random.default_rng(44)
    corpus = [random_regular_pencil(rng, int(rng.integers(2, 9)))
              for _ in range(8)]
    corpus += [random_index_pencil(4400 + k, k) for k in range(4)]
    corpus.append(heat_wave_pencil(HeatWaveConfig(m=6)))
    corpus.append(rlc_pencil(RLCConfig(m=6)).companion)
    for p in corpus:
        mu = _pick_mu(p)
        stair = build_staircase(p, mu, side="left")
        checked = 0
        while checked < 3:
            lam = mu + 10 ** rng.uniform(0.3, 1.5) * np.exp(
                2j * np.pi * rng.random())
            try:
                resid = stair.pattern_residual(lam)
            except NotInResolventSet:
                continue
            checked += 1
            assert resid < 1e-10


def test_criterion_05_dissipativity_certificates():
    # certified bounds dominate measured growth constants: a first-kind
    # certificate forces (lam - omega) ||R_l|| <= 1 + 1e-8 over the grid,
    # a second-kind certificate forces the measured restricted constant
    # <= M (1 + 1e-6).  Exercised on the 2x2 semi-dissipative pencil and
    # both discretized models, plus two pencils where the first kind holds.
    semidiss = MatrixPencil(np.diag([1.0, 0.0]),
                            np.array([[0.0, -1.0], [1.0, 0.0]]))
    corpus = [
        semidiss,
        heat_wave_pencil(HeatWaveConfig(m=10)),
        rlc_pencil(RLCConfig(m=8)).companion,
        MatrixPencil(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])),
        MatrixPencil(np.diag([1.0, 0.0]), -np.eye(2)),
    ]
    d1_live = d2_live = 0
    for p in corpus:
        c1 = certify_D1(p)
        if c1.verdict == "holds":
            d1_live += 1
            assert check_Dk(p, 1).M <= 1.0 + 1e-8
        c2 = certify_D2(p)
        if c2.verdict == "holds":
            d2_live += 1
            assert check_Dk(p, 2).M <= c2.M * (1.0 + 1e-6)
    assert certify_D2(semidiss).verdict == "holds"
    assert certify_D2(corpus[1]).verdict == "holds"
    assert d1_live >= 2 and d2_live >= 2


def test_criterion_06_solver_closed_forms():
    # three hand solutions reproduced to 1e-10 / 1e-9 / 1e-10
    ramp = PolynomialForcing.from_coeffs(
        np.array([[0.0, 0.0], [0.0, 1.0]]), 5.0)

    p1 = MatrixPencil(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    t = np.linspace(0.0, 2.0, 201)
    rep = solve_decoupled(p1, [-1.0, 0.0], ramp, t)
    err1 = max(np.max(np.abs(rep.trajectory[0] + 1.0)),
               np.max(np.abs(rep.trajectory[1] + t)))
    assert err1 <= 1e-10

    p2 = MatrixPencil(np.diag([1.0, 0.0]), np.diag([-1.0, 1.0]))
    t = np.linspace(0.0, 5.0, 501)
    rep = solve_homogeneous(p2, [1.0, 0.0], t)
    err2 = max(np.max(np.abs(rep.trajectory[0] - np.exp(-t))),
               np.max(np.abs(rep.trajectory[1])))
    assert err2 <= 1e-9

    p3 = MatrixPencil(np.diag([1.0, 0.0]),
                      np.array([[0.0, -1.0], [1.0, 0.0]]))
    t = np.linspace(0.0, 2.0, 201)
    rep = solve_decoupled(p3, [0.0, 1.0], ramp, t)
    err3 = max(np.max(np.abs(rep.trajectory[0] + t)),
               np.max(np.abs(rep.trajectory[1] - 1.0)))
    assert err3 <= 1e-10


def test_criterion_07_euler_cross_check_convergence():
    # deviation against the implicit Euler reference halves with the step
    # (ratio in [0.4, 0.6]) and is below 1e-2 scale at h = 1e-3
    for i in range(50):
        k = i % 3
        p = random_index_pencil(7000 + i, k)
        rng = np.random.default_rng(7000 + i)
        f = PolynomialForcing.from_coeffs(rng.standard_normal((p.n, 3)), 1.0)
        x0 = rng.standard_normal(p.n)

        devs = []
        scale = 1.0
        for steps in (500, 1000):
            t = np.linspace(0.0, 1.0, steps + 1)
            rep = solve_decoupled(p, x0, f, t)
            ref = implicit_euler_reference(p, rep.consistent_x0, f, t)
            devs.append(np.linalg.norm(
                rep.trajectory[:, -1] - ref.trajectory[:, -1]))
            scale = 1.0 + float(np.max(np.abs(rep.trajectory)))
        ratio = devs[1] / devs[0]
        assert 0.4 <= ratio <= 0.6
        assert devs[1] < 1e-2 * scale


def test_criterion_08_shift_invariance_and_superposition():
    # same trajectory for two shift parameters (to 1e-8); linearity of the
    # solve in (x0, f) to 1e-9
    t = np.linspace(0.0, 1.0, 101)
    for i, k in enumerate((0, 1, 2)):
        p = random_index_pencil(8800 + i, k)
        rng = np.random.default_rng(8800 + i)
        f = PolynomialForcing.from_coeffs(rng.standard_normal((p.n, 2)), 1.0)
        x0 = rng.standard_normal(p.n)

        rep_a = solve_decoupled(p, x0, f, t, mu=0.23)
        rep_b = solve_decoupled(p, x0, f, t, mu=1.91)
        assert np.max(np.abs(rep_a.trajectory - rep_b.trajectory)) < 1e-8

        zero = PolynomialForcing.zero(p.n, 1.0)
        rep_h = solve_decoupled(p, x0, zero, t, mu=0.23)
        rep_f = solve_decoupled(p, np.zeros(p.n), f, t, mu=0.23)
        combined = rep_h.trajectory + rep_f.trajectory
        assert np.max(np.abs(rep_a.trajectory - combined)) < 1e-9


def test_criterion_09_heat_wave_model():
    # exact semidefiniteness of Herm(A), operator-graph condition, stable
    # second-kind constant across refinements, nonincreasing discrete energy.
    # Budget 30 s including the m = 100 pass.
    t0 = time.perf_counter()
    Ms = []
    for m in (25, 50, 100):
        p = heat_wave_pencil(HeatWaveConfig(m=m))
        H = 0.5 * (p.A + p.A.conj().T)
        assert float(np.max(np.linalg.eigvalsh(H))) <= 1e-12
        assert y_impli_check(p) is True
        c = certify_D2(p, 0.0)
        assert c.verdict == "holds"
        Ms.append(c.M)
    assert max(Ms) / min(Ms) - 1.0 < 0.10

    p = heat_wave_pencil(HeatWaveConfig(m=25))
    rng = np.random.default_rng(9)
    t = np.linspace(0.0, 5.0, 101)
    rep = solve_homogeneous(p, rng.standard_normal(p.n), t)
    energy = np.real(np.einsum("ij,ij->j", rep.trajectory.conj(),
                               p.E @ rep.trajectory))
    assert np.max(np.diff(energy)) <= 1e-10 * max(1.0, energy[0])
    assert time.perf_counter() - t0 <= 30.0


def test_criterion_10_rlc_model():
    # invertible A with the minimum singular value reported; lossless energy
    # conservation to 1e-6 over horizon 5; index 2 under degenerate L
    model = rlc_pencil(RLCConfig(m=12))
    p = model.companion
    r = resolvent_at(p, 0.0)
    assert r.min_singular > 0.0

    rng = np.random.default_rng(10)
    t = np.linspace(0.0, 5.0, 201)
    rep = solve_decoupled(p, rng.standard_normal(p.n),
                          PolynomialForcing.zero(p.n, 5.0), t)
    energy = np.real(np.einsum("ij,ij->j", rep.trajectory.conj(),
                               p.E @ rep.trajectory))
    drift = float(np.max(np.abs(energy - energy[0])))
    assert drift <= 1e-6 * max(1.0, energy[0])

    degenerate = rlc_pencil(RLCConfig(m=12, L=np.zeros(12)))
    assert estimate_R_index(degenerate.companion).k == 2


def test_criterion_11_laplace_consistency():
    # the transformed semigroup, in closed form, matches the resolvent on V_k
    # within 1e-7 ||R(lam)|| for 3 pencils x 3 lambda
    pencils = [
        MatrixPencil(np.eye(1), -np.eye(1)),
        MatrixPencil(np.eye(2), np.diag([-1.0, -2.0])),
        random_index_pencil(1100, 2),
    ]
    for p in pencils:
        mu = _pick_mu(p)
        tr = degenerate_semigroup(p, mu, side="left")
        for lam in (1.0, 2.5, 4.0):
            nrm = np.linalg.norm(pseudo_resolvent(p, lam, "left"), 2)
            assert laplace_consistency(tr, p, lam) <= 1e-7 * nrm


def test_criterion_12_cli_contract(tmp_path):
    # schema-valid artifacts, documented exit codes, demo suite under 2 min
    N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    pj = tmp_path / "pencil.json"
    write_pencil_json(pj, MatrixPencil(N2, np.eye(2)))

    out_a = tmp_path / "analyze"
    assert cli_main(["analyze", "--input", str(pj), "--out", str(out_a)]) == 0
    rep = json.loads((out_a / "report.json").read_text())
    for key in ("shape", "qz_index", "wong_stabilization",
                "tractability_index", "R_index", "violations"):
        assert key in rep
    assert rep["violations"] == []

    forcing = {"breakpoints": [0.0, 1.0],
               "pieces": [{"rows": 2, "cols": 2,
                           "re": [0.0, 0.0, 0.0, 1.0],
                           "im": [0.0, 0.0, 0.0, 0.0]}]}
    fj = tmp_path / "forcing.json"
    fj.write_text(json.dumps(forcing))
    out_s = tmp_path / "solve"
    assert cli_main(["solve", "--input", str(pj), "--forcing", str(fj),
                     "--x0", "[-1.0, 0.0]", "--tf", "1.0",
                     "--out", str(out_s)]) == 0
    t, x = read_trajectory_csv(out_s / "trajectory.csv")
    assert t.size == 101 and x.shape == (2, 101)
    solve_rep = json.loads((out_s / "solve.json").read_text())
    assert solve_rep["index_k"] == 2

    # exit 1: singular input
    bad = tmp_path / "singular.json"
    write_pencil_json(bad, MatrixPencil(np.zeros((2, 2)), np.zeros((2, 2))))
    assert cli_main(["analyze", "--input", str(bad),
                     "--out", str(tmp_path)]) == 1

    # exit 3: sampled forcing cannot feed an index-3 solve
    tt = np.linspace(0.0, 1.0, 51)
    rows = ["t, " + ", ".join(f"f{i}" for i in range(1, 6))]
    for ti in tt:
        rows.append(", ".join(repr(float(v)) for v in
                              [ti, np.sin(ti), 0.0, 0.0, 0.0, 0.0]))
    csv = tmp_path / "forcing.csv"
    csv.write_text("\n".join(rows) + "\n")
    assert cli_main(["solve", "--model", "weierstrass", "--index", "3",
                     "--forcing-csv", str(csv), "--tf", "1.0",
                     "--out", str(tmp_path)]) == 3

    t0 = time.perf_counter()
    for args in (["demo", "heat-wave"], ["demo", "rlc", "--lossless"],
                 ["demo", "rlc"], ["demo", "weierstrass", "--index", "3"]):
        out_d = tmp_path / ("_".join(args[1:]) or "demo")
        assert cli_main(args + ["--out", str(out_d)]) == 0
        assert (out_d / "report.json").exists()
    assert time.perf_counter() - t0 <= 120.0
