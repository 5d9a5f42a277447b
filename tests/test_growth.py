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
    _pick_mu,
    _safe_omega,
)
from adae.models import HeatWaveConfig, heat_wave_pencil
from adae.pencil import MatrixPencil, pseudo_resolvent, resolvent_at

N3 = np.eye(3, k=1)
SKEW = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_lambda_grid_validation():
    with pytest.raises(ValueError):
        LambdaGrid(points=np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        LambdaGrid(points=np.array([1.0, 2.0]), omega=1.5)
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
        out.append(np.linalg.norm(m, 2))
    return out


@pytest.mark.parametrize("lam_max", [1e4, 1e8])
def test_report_matches_separate_estimates(lam_max):
    # the fused G/R sweep of index_comparison_report gives, field for field
    # and bitwise, the certificates and grid-shrink warnings of separate
    # estimate_G_index / estimate_R_index / check_Dk calls; its evidence
    # norms are those of the pseudo-resolvents and (lam E - A)^-1 each
    # inverted on its own
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
    # vanishing-test scale come from the sweep, bitwise
    grid = LambdaGrid.default(omega=0.5)
    for p in (_shrink_pencil(grid), heat_wave_pencil(HeatWaveConfig(m=10))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cert = check_Dk(p, 1, grid)
        ref = [(lam - 0.5) * np.linalg.norm(pseudo_resolvent(p, lam, "left"), 2)
               for lam, _ in cert.evidence]
        assert [v for _, v in cert.evidence] == ref


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_report_factorization_counts(monkeypatch):
    # one QZ per report, and one certified inverse per grid point for the
    # G-left, G-right and R estimates together
    p = random_index_pencil(1001, 1)
    grid = LambdaGrid.default()
    want_mu = _pick_mu(p)
    qz = _count_calls(monkeypatch, spla, "ordqz")
    inv = _count_calls(monkeypatch, adae.pencil, "_certified_inverse")
    sweep = _count_calls(monkeypatch, adae.growth, "resolvent_at")
    mu = _count_calls(monkeypatch, adae.growth, "_pick_mu")
    chain = _count_calls(monkeypatch, adae.chains, "build_chain")
    rep = index_comparison_report(p, grid)
    assert rep["D_check"] is not None  # R_1 holds: check_Dk ran too
    assert len(qz) == 1
    assert len(sweep) == len(grid.points)
    # sweep + D_1 check (a grid of the same length) + Wong chain at mu
    assert len(inv) <= 2 * len(grid.points) + 1
    assert len(mu) == 1 and len(chain) == 1
    assert rep["wong_mu"] == want_mu
    assert rep["wong_chain"].stabilization_k == rep["wong_stabilization"]
