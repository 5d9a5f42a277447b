import warnings

import numpy as np
import pytest
import scipy.linalg as spla

import adae.chains
import adae.growth
import adae.pencil
from conftest import N2, random_index_pencil
from adae.exceptions import NotInResolventSet
from adae.growth import (
    LambdaGrid,
    certify_D1,
    certify_D2,
    check_Dk,
    check_left_dissipativity,
    estimate_G_index,
    estimate_R_index,
    index_comparison_report,
    tractability_chain,
    _index_fit,
    _oblique_projector,
    _pick_mu,
    _safe_omega,
)
from adae.models import (
    HeatWaveConfig,
    RLCConfig,
    WeierstrassSpec,
    heat_wave_pencil,
    rlc_pencil,
    weierstrass_pencil,
)
from adae.numerics import Subspace, norm2, null_basis, range_basis
from adae.pencil import MatrixPencil, pseudo_resolvent, resolvent_at

N3 = np.eye(3, k=1)
SKEW = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_lambda_grid_validation():
    with pytest.raises(ValueError):
        LambdaGrid(points=np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        LambdaGrid(points=np.array([1.0, 2.0]), omega=1.5)
    for bad in ([], [1.0, np.inf], [np.nan, 2.0]):
        with pytest.raises(ValueError):
            LambdaGrid(points=np.array(bad))
    with pytest.raises(ValueError):
        LambdaGrid.default(lam_min=0.0)
    g = LambdaGrid.default(omega=2.0)
    assert np.all(g.points > 2.0)


def test_G_index_nilpotent(n2_pencil):
    # ||R_l|| constant = 1, slope 0 -> k = 2 with M = 1
    cert = estimate_G_index(n2_pencil)
    assert cert.k == 2 and cert.verdict == "holds"
    assert abs(cert.M - 1.0) < 1e-8


def test_G_index_diagonal(diag_pencil):
    # ||R_l(lam)|| = 1/(1+lam), slope -1 -> k = 1
    cert = estimate_G_index(diag_pencil)
    assert cert.k == 1 and cert.verdict == "holds"


def test_G_index_three_block():
    p = MatrixPencil(N3, np.eye(3))
    cert = estimate_G_index(p)
    assert cert.k == 3 and cert.verdict == "holds"


def test_R_index_examples(ode_pencil, n2_pencil, diag_pencil):
    assert estimate_R_index(ode_pencil).k == 0
    assert estimate_R_index(n2_pencil).k == 2
    assert estimate_R_index(diag_pencil).k == 1


def test_Dk_restricted_vanishing(semidiss_pencil):
    cert = check_Dk(semidiss_pencil, 2)
    assert cert.verdict == "holds"
    assert cert.M < 1e-10


def test_Dk_contraction():
    p = MatrixPencil(np.eye(2), -np.eye(2))
    cert = check_Dk(p, 1)
    assert cert.verdict == "holds"
    assert cert.M <= 1.0 + 1e-10


def test_Dk_fails_for_nilpotent(n2_pencil):
    cert = check_Dk(n2_pencil, 1)
    assert cert.verdict == "fails"
    with pytest.raises(ValueError):
        check_Dk(n2_pencil, 0)


def test_dissipativity_examples(diag_pencil):
    assert check_left_dissipativity(MatrixPencil(np.eye(2), SKEW)).verdict == "holds"
    assert check_left_dissipativity(diag_pencil).verdict == "holds"
    p = MatrixPencil(np.eye(2), np.eye(2))
    assert check_left_dissipativity(p, 0.0).verdict == "fails"
    assert check_left_dissipativity(p, 1.0).verdict == "holds"


def test_certify_D1_examples():
    c = certify_D1(MatrixPencil(np.eye(2), SKEW))
    assert c.verdict == "holds" and c.M == 1.0
    c = certify_D1(MatrixPencil(np.diag([1.0, 0.0]), -np.eye(2)))
    assert c.verdict == "holds"
    c = certify_D1(MatrixPencil(np.zeros((2, 2)), np.zeros((2, 2))))
    assert c.verdict == "fails"


def test_index_fit_prints_no_negative_zero_slope():
    # a constant norm, rounded along the grid, fits a slope of a tiny
    # negative number; it reads 0.000, not -0.000
    lams = np.logspace(0, 8, 48)
    norms = 2.0 * (1.0 - 1e-13 * np.arange(48))
    cert = _index_fit(lams, norms, 0.0, "R")
    assert cert.k == 1 and cert.verdict == "holds"
    assert cert.detail.startswith("slope 0.000,"), cert.detail


def test_certify_D2_takes_singular_values_of_E_once(monkeypatch):
    p = heat_wave_pencil(HeatWaveConfig(m=10))
    calls = _count_calls(monkeypatch, spla, "svdvals")
    cert = certify_D2(p)
    assert cert.verdict == "holds"
    assert sum(np.array_equal(args[0], p.E) for args in calls) == 1


def test_certificates_fail_on_a_common_null_vector():
    # a square pencil with ker E /\ ker A != {0} is singular, so the D
    # certificates fail on regularity, their one prerequisite
    rng = np.random.default_rng(3)
    v = np.array([1.0, -2.0, 0.5])
    E = np.eye(3) - np.outer(v, v) / (v @ v)  # orthogonal projector, E v = 0
    A = -E - E @ np.diag(rng.uniform(1.0, 2.0, 3)) @ E  # dissipative, A v = 0
    p = MatrixPencil(E, A)
    assert np.allclose(E @ v, 0) and np.allclose(A @ v, 0)
    assert p.regular is False
    for certify in (certify_D1, certify_D2):
        c = certify(p)
        assert c.verdict == "fails"
        assert c.detail == "no full-rank probe lambda0 > omega found"


def test_certificates_invert_nothing(monkeypatch, semidiss_pencil):
    # D1 and D2 are decided by their hypotheses alone: where they hold, no
    # lambda is inverted and no evidence is recorded
    inv = _count_calls(monkeypatch, adae.pencil, "_certified_inverse")
    for certify, p in ((certify_D1, MatrixPencil(np.eye(2), SKEW)),
                       (certify_D2, semidiss_pencil),
                       (certify_D2, heat_wave_pencil(HeatWaveConfig(m=10)))):
        c = certify(p)
        assert c.verdict == "holds" and c.evidence == []
    assert inv == []


def _is_shifted_pencil(M, p):
    """Is M = lam E - A for some scalar lam?"""
    if M.shape != p.E.shape:
        return False
    lam = np.vdot(p.E, M + p.A) / max(np.vdot(p.E, p.E).real, 1e-300)
    return np.allclose(M, lam * p.E - p.A, rtol=0, atol=1e-12 * (1 + abs(lam)))


def test_certificates_factor_no_shifted_pencil(monkeypatch, semidiss_pencil):
    # the prerequisite is p.regular, probed once per pencil: certify_D1
    # takes no SVD, certify_D2 only the singular values of E, and neither
    # takes an SVD of lambda0 E - A or a further probe
    pencils = ((certify_D1, MatrixPencil(np.eye(2), SKEW)),
               (certify_D1, MatrixPencil(np.diag([1.0, 0.0]), -np.eye(2))),
               (certify_D2, semidiss_pencil),
               (certify_D2, heat_wave_pencil(HeatWaveConfig(m=10))))
    for _, p in pencils:
        assert p.regular
    svd = _count_calls(monkeypatch, spla, "svd")
    svdvals = _count_calls(monkeypatch, spla, "svdvals")
    probes = _count_calls(monkeypatch, adae.pencil, "probe_regularity")
    for certify, p in pencils:
        del svd[:], svdvals[:]
        assert certify(p).verdict == "holds"
        assert svd == []
        args = [a[0] for a in svdvals]
        if certify is certify_D1:
            assert args == []
        else:
            assert len(args) == 1 and np.array_equal(args[0], p.E)
    assert probes == []
    # the test sees such an SVD
    p = pencils[0][1]
    assert _is_shifted_pencil(3.7 * p.E - p.A, p)
    assert not _is_shifted_pencil(p.E, p)


def test_certify_D2_examples(semidiss_pencil, n2_pencil):
    c = certify_D2(semidiss_pencil)
    assert c.verdict == "holds" and abs(c.M - 1.0) < 1e-10
    c = certify_D2(MatrixPencil(np.diag([2.0, 1.0, 0.0]), -np.eye(3)))
    assert c.verdict == "holds" and abs(c.M - 2.0) < 1e-10
    c = certify_D2(n2_pencil)
    assert c.verdict == "fails" and "self-adjoint" in c.detail


def test_certificate_to_dict(n2_pencil):
    d = estimate_G_index(n2_pencil).to_dict()
    assert d["kind"] == "G" and d["k"] == 2
    assert isinstance(d["evidence"], list) and d["evidence"]


def test_tractability_examples(diag_pencil, semidiss_pencil):
    assert tractability_chain(MatrixPencil(np.eye(3), np.diag([1.0, 2, 3]))).index == 0
    assert tractability_chain(diag_pencil).index == 1
    ch = tractability_chain(semidiss_pencil)
    assert ch.index == 2
    # hand-computed stage matrices
    E0, A0, Q0, P0 = ch.stages[0]
    assert np.allclose(Q0, np.diag([0.0, 1.0]), atol=1e-12)
    E1, A1, Q1, P1 = ch.stages[1]
    assert np.allclose(E1, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(Q1, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-10)
    E2 = E1 - A1 @ Q1
    assert np.allclose(E2, [[1.0, 1.0], [-1.0, 0.0]], atol=1e-10)


def test_oblique_projector_on_the_acceptance_corpus():
    # every tractability stage of criterion 02's 100 pencils (150 stages):
    # Q_i is a projector onto N_i = ker E_i whose kernel holds N_0, ...,
    # N_{i-1}
    stages = 0
    for i in range(100):
        p = random_index_pencil(1000 + i, i % 4)
        seen = []
        for E_i, _, Q_i, _ in tractability_chain(p).stages:
            onto = null_basis(E_i, p.pol)
            must = (range_basis(np.hstack(seen), p.pol) if seen
                    else Subspace.zero(p.n))
            P = _oblique_projector(onto, must, p.pol)
            assert np.array_equal(P, Q_i)
            tol = 1e-12 * norm2(P)
            assert norm2(P @ P - P) <= tol * norm2(P)
            assert norm2(P @ onto.basis - onto.basis) <= tol
            assert norm2(P - onto.basis @ (onto.basis.conj().T @ P)) <= tol
            assert norm2(P @ must.basis) <= tol
            seen.append(onto.basis)
            stages += 1
    assert stages == 150


def test_tractability_matches_oracle():
    for k in range(4):
        p = random_index_pencil(800 + k, k)
        assert tractability_chain(p).index == k


def test_index_comparison_nilpotent(n2_pencil):
    rep = index_comparison_report(n2_pencil)
    assert rep["qz_index"] == 2
    assert rep["wong_stabilization"] == 2
    assert rep["tractability_index"] == 2
    assert rep["R_index"].k == 2
    assert rep["G_index_left"].k == 2
    assert rep["violations"] == []


def test_index_comparison_ode():
    p = MatrixPencil(np.eye(2), np.diag([-1.0, -2.0]))
    rep = index_comparison_report(p)
    assert rep["R_index"].k == 0
    assert rep["G_index_left"].k == 1
    assert rep["tractability_index"] == 0
    assert rep["wong_stabilization"] == 0
    assert rep["violations"] == []


def test_index_comparison_semidissipative(semidiss_pencil):
    rep = index_comparison_report(semidiss_pencil)
    for key in ("qz_index", "wong_stabilization", "tractability_index"):
        assert rep[key] == 2
    assert rep["R_index"].k == 2
    assert rep["violations"] == []


def test_pick_mu_avoids_spectrum(diag_pencil):
    mu = _pick_mu(diag_pencil)
    assert abs(mu + 1.0) > 0.1  # not the eigenvalue
    with pytest.raises(NotInResolventSet):
        _pick_mu(MatrixPencil(np.zeros((2, 2)), np.zeros((2, 2))))


def _shrink_pencil(grid):
    # eigenvalue exactly on the 20th grid point: the sweep fails there and
    # keeps the 28 points above it
    lam0 = grid.points[19]
    return MatrixPencil(np.diag([1.0, 0.0, 1.0]), np.diag([lam0, 1.0, -2.0]))


def _growth_corpus(grid):
    pencils = [random_index_pencil(1000 + 5 * k + s, k)
               for k in range(5) for s in range(3)]
    pencils += [_shrink_pencil(grid), heat_wave_pencil(HeatWaveConfig(m=10))]
    return pencils


def _growth_warnings(record):
    return [str(w.message) for w in record
            if "resolvent unavailable" in str(w.message)]


def _sweep_reference(p, grid, kind):
    """Evidence norms as the unfused definition computes them, point by point."""
    out = []
    for lam in grid.points:
        try:
            m = (resolvent_at(p, lam).inverse if kind == "R"
                 else pseudo_resolvent(p, lam, kind))
        except NotInResolventSet:
            out = []
            continue
        out.append(norm2(m))
    return out


@pytest.mark.parametrize("lam_max", [1e4, 1e8])
def test_report_matches_separate_estimates(lam_max):
    # the fused sweep of index_comparison_report gives, field for field
    # and bitwise, the certificates and grid-shrink warnings of separate
    # estimate_G_index / estimate_R_index / check_Dk calls; its evidence
    # norms are, bitwise, those of the pseudo-resolvents and (lam E - A)^-1
    # each inverted on its own, in the pencil's own dtype (float64 for the
    # real ones)
    grid = LambdaGrid.default(lam_max=lam_max)
    shrunk = 0
    for p in _growth_corpus(grid):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            rep = index_comparison_report(p, grid)
        got_warn = _growth_warnings(rec)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            want = {"G_index_left": estimate_G_index(p, grid, side="left"),
                    "G_index_right": estimate_G_index(p, grid, side="right"),
                    "R_index": estimate_R_index(p, grid)}
            r = want["R_index"]
            if r.verdict == "holds" and r.k >= 1:
                omega = _safe_omega(rep["qz_eigenvalues"])
                want["D_check"] = check_Dk(
                    p, r.k, LambdaGrid.default(omega=omega), side="left")
            else:
                want["D_check"] = None
        assert got_warn == _growth_warnings(rec)
        shrunk += bool(got_warn)
        for key, cert in want.items():
            if cert is None:
                assert rep[key] is None
                continue
            assert rep[key].to_dict() == cert.to_dict()
        for key, kind in (("G_index_left", "left"), ("G_index_right", "right"),
                          ("R_index", "R")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = _sweep_reference(p, grid, kind)
            if len(ref) >= 4:
                assert [v for _, v in rep[key].evidence] == ref
    assert shrunk >= 1


def test_Dk_first_order_uses_sweep_norms():
    # at k = 1 the restricted resolvent is R(lam) itself: evidence and the
    # vanishing-test scale come from the sweep (both pencils are real, so
    # in float64)
    grid = LambdaGrid.default(omega=0.5)
    for p in (_shrink_pencil(grid), heat_wave_pencil(HeatWaveConfig(m=10))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cert = check_Dk(p, 1, grid)
        ref = [(lam - 0.5) * np.linalg.norm(pseudo_resolvent(p, lam, "left"), 2)
               for lam, _ in cert.evidence]
        assert np.allclose([v for _, v in cert.evidence], ref,
                           rtol=1e-12, atol=0.0)


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_report_factorization_counts(monkeypatch):
    # one QZ per report, and one certified inverse per distinct lambda of
    # every grid of the report together: the G/R grid and the D_check grid
    # (which share their points), plus the Wong chain's at mu.  An inverse
    # is a slice of a stacked call, so the lambda of every call are counted
    p = random_index_pencil(1001, 1)
    grid = LambdaGrid.default(lam_max=1e8)
    want_mu = _pick_mu(p)
    qz = _count_calls(monkeypatch, spla, "ordqz")
    inv = _count_calls(monkeypatch, adae.pencil, "_certified_inverse")
    mu = _count_calls(monkeypatch, adae.growth, "_pick_mu")
    chain = _count_calls(monkeypatch, adae.growth, "build_chain")
    rep = index_comparison_report(p, grid)
    assert rep["D_check"] is not None  # R_1 holds: check_Dk ran too
    assert len(qz) == 1
    lams = [float(lam) for args in inv for lam in args[1]]
    assert len(lams) == len(set(lams))
    d_grid = LambdaGrid.default(omega=rep["D_check"].omega).points
    assert set(lams) == set(grid.points) | set(d_grid) | {want_mu}
    assert len(lams) == 72 + 1
    assert len(mu) == 1 and len(chain) == 1
    assert rep["wong_mu"] == want_mu
    assert rep["wong_chain"].stabilization_k == rep["wong_stabilization"]


def test_report_inverts_each_lambda_once_at_k_ge_2(monkeypatch):
    # the CLI's --model weierstrass --index 2 pencil on the CLI grid: the
    # R-index is fitted on the top two decades first, so D_check's
    # restricted norms at k = 2 are taken with the other norms, from one
    # inverse (one slice of a stacked call) per distinct lambda (R(0) for
    # the restriction is the chain's)
    p = weierstrass_pencil(WeierstrassSpec((-1.0, -2.0), (2,), 0))[0]
    grid = LambdaGrid.default(lam_max=1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inv = _count_calls(monkeypatch, adae.pencil, "_certified_inverse")
        rep = index_comparison_report(p, grid)
        monkeypatch.undo()
        r = estimate_R_index(p, grid)
        d_grid = LambdaGrid.default(omega=_safe_omega(rep["qz_eigenvalues"]))
        want = {"G_index_left": estimate_G_index(p, grid, side="left"),
                "G_index_right": estimate_G_index(p, grid, side="right"),
                "R_index": r,
                "D_check": check_Dk(p, r.k, d_grid, side="left")}
    assert rep["D_check"].k == 2
    lams = [complex(lam) for args in inv for lam in args[1]]
    assert len(lams) == len(set(lams))
    assert set(lams) == set(grid.points) | set(d_grid.points) | {rep["wong_mu"]}
    for key, cert in want.items():
        assert rep[key].to_dict() == cert.to_dict()


def _rlc12():
    return rlc_pencil(RLCConfig(m=12)).companion


def _random_real_pencil():
    rng = np.random.default_rng(11)
    return MatrixPencil(rng.standard_normal((9, 9)), rng.standard_normal((9, 9)))


def _report_floats(rep):
    """The certificates and integers of a report, as plain data."""
    out = {}
    for key, val in rep.items():
        if isinstance(val, adae.growth.GrowthCertificate):
            out[key] = val.to_dict()
        elif val is None or isinstance(val, (int, list)):
            out[key] = val
    return out


def _assert_close(got, want, rtol, path="report"):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], rtol, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for j, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, rtol, f"{path}[{j}]")
    elif isinstance(want, float):
        assert type(got) is float, path
        assert got == want or abs(got - want) <= rtol * max(abs(got), abs(want)), \
            f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, path


CLI_GRID = LambdaGrid(points=np.logspace(0, 8, 48))


@pytest.mark.parametrize("make", [
    lambda: heat_wave_pencil(HeatWaveConfig(m=10)),
    lambda: heat_wave_pencil(HeatWaveConfig(m=25)),
    _rlc12,
    _random_real_pencil,
    lambda: _shrink_pencil(CLI_GRID),
], ids=["heat-wave-10", "heat-wave-25", "rlc-12", "random-real", "shrink"])
def test_real_sweep_matches_complex_path(make):
    # real pencils are held, and swept, in float64; a copy whose E and A
    # are complex-typed (the same values in complex128 arithmetic) gets no
    # other k, verdict or violation, and every M and evidence value within
    # 1e-12 relative, in the report and in the dissipativity, D1 and D2
    # certificates
    grid = CLI_GRID
    p = make()
    assert p.E.dtype == p.A.dtype == float
    q = MatrixPencil(p.E, p.A, p.pol)
    q.E, q.A = p.E.astype(complex), p.A.astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        real = _report_floats(index_comparison_report(p, grid))
        cplx = _report_floats(index_comparison_report(q, grid))
    _assert_close(real, cplx, 1e-12)
    for certify in (check_left_dissipativity, certify_D1, certify_D2):
        _assert_close(certify(p, 0.0).to_dict(), certify(q, 0.0).to_dict(),
                      1e-12)


def test_sweep_dispatch():
    # every pencil is swept through the certified inverse of resolvent_at,
    # in the pencil's own dtype: float64 for a real pencil, complex128 for a
    # complex one, and the sweep's stacked norms are those of
    # resolvent_at's inverse, bitwise
    real = heat_wave_pencil(HeatWaveConfig(m=4))
    cplx = random_index_pencil(1001, 1)
    assert real.E.dtype == real.A.dtype == float
    assert cplx.E.dtype == cplx.A.dtype == complex
    assert resolvent_at(real, 2.5).inverse.dtype == float
    assert resolvent_at(cplx, 2.5).inverse.dtype == complex
    grid = LambdaGrid.default()
    for p in (real, cplx):
        cert = estimate_R_index(p, grid)
        assert [v for _, v in cert.evidence] == [
            norm2(resolvent_at(p, lam).inverse) for lam in grid.points]


@pytest.mark.parametrize("make", [
    lambda: heat_wave_pencil(HeatWaveConfig(m=10)),
    lambda: random_index_pencil(1001, 1),
], ids=["heat-wave-10", "complex-index-1"])
def test_D1_norm_is_G_left_norm_at_shared_lambda(make):
    # the D_1 check takes ||R_l(lam)|| from the G-left sweep where the two
    # grids share a lambda: the values agree bitwise there
    grid = LambdaGrid(points=np.logspace(0, 8, 48))
    rep = index_comparison_report(make(), grid)
    left = dict(rep["G_index_left"].evidence)
    d = rep["D_check"]
    assert d.k == 1
    shared = [(lam, v) for lam, v in d.evidence if lam in left]
    assert len(shared) == 24
    assert all(v == (lam - d.omega) * left[lam] for lam, v in shared)
