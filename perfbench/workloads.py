"""Seeded inputs, command mixes and output checks for the three workloads.

Every workload drives the public CLI entry point ``adae.cli.main(argv)``.
Set-up writes the pencil JSON and forcing JSON/CSV files from the workload
seed; the program receives only those files.  A workload is a list of rounds,
each round a list of commands; the measurement loop runs whole rounds, so a
run always ends on a complete copy of the fixed mix.  The index corpus also
has a probe: its commands whose kind and inputs a known defect applies to
(``KNOWN_DEFECTS``).  They run once per run, outside the measured loop, so
that the number of failed commands a run reports does not depend on how many
rounds fit in its time.

Checks use only documented contracts: exit codes (README: 0 success), no
``violations`` in an analysis report, agreement of the QZ, Wong and
tractability indices with the generated true index, growth estimates whose
verdict is ``holds`` matching their expected k, a non-increasing heat-wave
energy (tolerance 1e-10, as in acceptance criterion 09) and trajectory CSVs
of the right shape.
"""

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("analyze-heatwave", "index-corpus", "solve-transient")

# acceptance criterion 09: discrete energy non-increasing to 1e-10 max(1, E0)
ENERGY_TOL = 1e-10


@dataclass
class Command:
    kind: str            # analyze | solve | solve_csv | demo
    argv: list
    out: str             # output directory given to --out
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Result of one command: its exit status and the verdict of its checks."""
    kind: str
    wall_s: float
    cpu_s: float
    code: object         # exit code, or None when an exception escaped
    cause: str | None    # None when every check passed
    silent: bool         # True when the command reported success but was wrong
    known: str | None    # the known defect the failure matches, if any


def build(workload, seed, workdir):
    """Write the seeded inputs under ``workdir``; return (warm-up, rounds, probe)."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "analyze-heatwave":
        return _heatwave(seed, workdir)
    if workload == "index-corpus":
        return _corpus(seed, workdir)
    if workload == "solve-transient":
        return _transient(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# -- analyze-heatwave --------------------------------------------------------
# Why: the index/certificate report on the heat-wave pencil at m = 50
# (n = 200) with the CLI's default lambda grid.  BLAS-bound: lambda sweeps in
# growth, certified inverses in pencil, SVDs and 2-norms in numerics, and
# build_chain.  solver, semigroup and forcing do no work here.  At the parent
# commit the report carries "R_1 holds but D_1 fails" and exits 2; the
# benchmark counts that as a failure.  The model has no random parameters,
# so the seed does not change the input.

HEATWAVE_M = 50
HEATWAVE_INDEX = 1   # the coupled heat/wave pencil has Kronecker index 1


def _heatwave(seed, d):
    from adae import HeatWaveConfig, heat_wave_pencil, write_pencil_json

    big = os.path.join(d, "heatwave.json")
    small = os.path.join(d, "heatwave-small.json")
    write_pencil_json(big, heat_wave_pencil(HeatWaveConfig(m=HEATWAVE_M)))
    write_pencil_json(small, heat_wave_pencil(HeatWaveConfig(m=4)))
    expect = {"index": HEATWAVE_INDEX, "model": "heat-wave"}
    warm = _analyze(small, os.path.join(d, "warm"), expect)
    return warm, [[_analyze(big, os.path.join(d, "out"), expect)]], []


def _analyze(pencil, out, expect):
    return Command("analyze", ["analyze", "--input", pencil, "--out", out],
                   out, dict(expect))


# -- index-corpus ------------------------------------------------------------
# Why: about a hundred small Weierstrass-canonical pencils (n = 2-12, index
# 0-4, mixed nilpotent block sizes), each analysed, solved with polynomial
# forcing and cross-checked against implicit Euler, and for index <= 2 solved
# again from sampled forcing.  Commands take tens of milliseconds, so per-call
# Python overhead in cli, growth, chains and solver dominates, not LAPACK.
# It yields enough samples for tail percentiles and exercises the five-way
# index agreement.  Sizes and ODE/nilpotent splits follow a fixed schedule
# and each round holds one pencil of each index, so every seed and every
# prefix of a run has the same mix; the seed draws the nilpotent block sizes,
# spectra, transforms and forcing.  The commands a known defect applies to
# (analyze at index >= 2 and on E = 0, solves of purely nilpotent pencils of
# index >= 2, cross-checked solves at index 4) leave the rounds for the probe.

CORPUS_PER_INDEX = 20
CORPUS_MAX_INDEX = 4
CORPUS_MAX_N = 12
CORPUS_TF = 1.0
CORPUS_STEPS = 200
CSV_MAX_INDEX = 2    # sampled forcing exposes two derivatives


def _corpus_shapes(k):
    """Fixed (n, ODE part) schedule for the 20 pencils of index k.

    n spans max(2, k)..12.  One slot in four has no ODE part (a purely
    nilpotent pencil); the others take 1/3, 2/3 or all of the room the
    index-k block leaves, at least one eigenvalue.  So every seed holds the
    same number of pencils of each kind.
    """
    lo = max(2, k)
    span = CORPUS_MAX_N - lo + 1
    shapes = []
    for j in range(CORPUS_PER_INDEX):
        n = lo + (j * span) // CORPUS_PER_INDEX
        if k == 0:
            n_ode = n
        elif j % 4 == 0 or n == k:
            n_ode = 0
        else:
            n_ode = max(1, ((j % 4) * (n - k)) // 3)
        shapes.append((n, n_ode))
    # interleave small and large pencils so that each round mixes sizes
    return [shapes[(7 * j) % CORPUS_PER_INDEX] for j in range(CORPUS_PER_INDEX)]


def _corpus_spec(rng, k, n, n_ode):
    """Random split of the nilpotent part into blocks of size <= k, one of size k."""
    from adae import WeierstrassSpec

    blocks = [k] if k else []
    rest = n - n_ode - sum(blocks)
    while rest > 0:
        b = int(rng.integers(1, min(k, rest) + 1))
        blocks.append(b)
        rest -= b
    eigs = tuple(float(v) for v in -rng.uniform(0.5, 4.0, n_ode))
    return WeierstrassSpec(eigs, tuple(blocks), int(rng.integers(0, 2 ** 31)))


def _corpus(seed, d):
    from adae import weierstrass_pencil, write_pencil_json

    rng = np.random.default_rng(seed)
    shapes = {k: _corpus_shapes(k) for k in range(CORPUS_MAX_INDEX + 1)}
    rounds, probe = [], []
    for j in range(CORPUS_PER_INDEX):
        rnd = []
        for k in range(CORPUS_MAX_INDEX + 1):
            n, n_ode = shapes[k][j]
            spec = _corpus_spec(rng, k, n, n_ode)
            pencil, true_index = weierstrass_pencil(spec)
            base = os.path.join(d, f"p{j:02d}-{k}")
            os.makedirs(base, exist_ok=True)
            pj = os.path.join(base, "pencil.json")
            write_pencil_json(pj, pencil)
            fj = os.path.join(base, "forcing.json")
            coeffs = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
            _write_poly_forcing(fj, [0.0, CORPUS_TF], [coeffs])
            expect = {"index": true_index, "n": n, "n_ode": n_ode,
                      "rows": CORPUS_STEPS + 1}
            rnd.append(_analyze(pj, os.path.join(base, "analyze"), expect))
            grid = ["--tf", repr(CORPUS_TF), "--steps", str(CORPUS_STEPS)]
            out = os.path.join(base, "solve")
            rnd.append(Command("solve", ["solve", "--input", pj, "--forcing", fj,
                                         *grid, "--cross-check", "--out", out],
                               out, dict(expect)))
            if true_index <= CSV_MAX_INDEX:
                fc = os.path.join(base, "forcing.csv")
                t = np.linspace(0.0, CORPUS_TF, CORPUS_STEPS + 1)
                amp = rng.standard_normal(n)
                freq = rng.uniform(0.5, 3.0, n)
                _write_csv_forcing(fc, t, amp[:, None] * np.sin(freq[:, None] * t))
                out = os.path.join(base, "solve-csv")
                rnd.append(Command("solve_csv", ["solve", "--input", pj,
                                                 "--forcing-csv", fc, *grid,
                                                 "--out", out],
                                   out, dict(expect)))
        rounds.append([c for c in rnd if not defect_input(c)])
        probe += [c for c in rnd if defect_input(c)]
    first = rounds[0][0]
    warm = _analyze(first.argv[2], os.path.join(d, "warm"), first.expect)
    return warm, rounds, probe


# -- solve-transient ---------------------------------------------------------
# Why: long-grid solves on mid-size models.  On the RLC companion at m = 50
# (n = 102) over 2000 steps: solve --cross-check with continuous
# piecewise-linear forcing (the exact path) and solve --forcing-csv (the
# finite-difference path); plus demo heat-wave --m 25 (the semigroup path).
# Time goes to solver, semigroup, forcing, numerics.expm and io
# trajectory-CSV writes of several MB, which stand beside the pencil-JSON
# reads of analyze-heatwave.

RLC_M = 50
TRANSIENT_TF = 2.0
TRANSIENT_STEPS = 2000
TRANSIENT_PIECES = 8
DEMO_M = 25
DEMO_STEPS = 200     # the demo's default grid


def _transient(seed, d):
    from adae import RLCConfig, rlc_pencil, write_pencil_json

    rng = np.random.default_rng(seed)
    model = rlc_pencil(RLCConfig(m=RLC_M))
    p = model.companion
    n = p.n
    row_v, row_i = model.boundary_forcing_indices()
    pj = os.path.join(d, "rlc.json")
    write_pencil_json(pj, p)

    # continuous piecewise-linear port voltage; breakpoints on the time grid
    bps = np.linspace(0.0, TRANSIENT_TF, TRANSIENT_PIECES + 1)
    knots = rng.uniform(-1.0, 1.0, TRANSIENT_PIECES + 1)
    pieces = []
    for i in range(TRANSIENT_PIECES):
        c = np.zeros((n, 2), dtype=complex)
        c[row_v, 0] = -knots[i]
        c[row_v, 1] = -(knots[i + 1] - knots[i]) / (bps[i + 1] - bps[i])
        pieces.append(c)
    fj = os.path.join(d, "forcing.json")
    _write_poly_forcing(fj, bps, pieces)

    # smooth sampled forcing on both boundary rows
    t = np.linspace(0.0, TRANSIENT_TF, TRANSIENT_STEPS + 1)
    vals = np.zeros((n, t.size))
    for row in (row_v, row_i):
        a, w, phi = rng.uniform(0.2, 1.0), rng.uniform(1.0, 4.0), rng.uniform(0, 2 * math.pi)
        vals[row] = -a * np.sin(w * t + phi)
    fc = os.path.join(d, "forcing.csv")
    _write_csv_forcing(fc, t, vals)

    x0 = json.dumps([float(v) for v in rng.standard_normal(n)])
    grid = ["--tf", repr(TRANSIENT_TF), "--steps", str(TRANSIENT_STEPS)]
    expect = {"n": n, "rows": TRANSIENT_STEPS + 1}
    out_s = os.path.join(d, "solve")
    out_c = os.path.join(d, "solve-csv")
    out_d = os.path.join(d, "demo")
    mix = [
        Command("solve", ["solve", "--input", pj, "--forcing", fj, "--x0", x0,
                          *grid, "--cross-check", "--out", out_s], out_s, dict(expect)),
        Command("solve_csv", ["solve", "--input", pj, "--forcing-csv", fc,
                              "--x0", x0, *grid, "--out", out_c], out_c, dict(expect)),
        Command("demo", ["demo", "heat-wave", "--m", str(DEMO_M),
                         "--seed", str(seed), "--out", out_d], out_d,
                {"n": 4 * DEMO_M, "rows": DEMO_STEPS + 1}),
    ]
    out_w = os.path.join(d, "warm")
    warm = Command("solve", ["solve", "--input", pj, "--forcing", fj,
                             "--tf", repr(TRANSIENT_TF), "--steps", "16",
                             "--out", out_w], out_w, {"n": n, "rows": 17})
    return warm, [mix], []


def _write_poly_forcing(path, breakpoints, pieces):
    doc = {"breakpoints": [float(b) for b in breakpoints], "pieces": [
        {"rows": c.shape[0], "cols": c.shape[1],
         "re": [float(v) for v in c.real.ravel()],
         "im": [float(v) for v in c.imag.ravel()]} for c in pieces]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _write_csv_forcing(path, t, values):
    lines = ["t, " + ", ".join(f"f{i}" for i in range(1, values.shape[0] + 1))]
    for j, tj in enumerate(t):
        lines.append(", ".join(repr(float(v)) for v in (tj, *values[:, j])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- known defects -----------------------------------------------------------
# Failures the program shows at the commit that defined this benchmark.  A
# failure that matches none of them makes the run incorrect.  On the heat-wave
# workload the measured command is itself a known defect and counts as failed
# in every run; on the index corpus the commands a defect applies to form the
# probe, which runs once per run and prints its failures.  Each entry: the
# defect's name, for each command kind it hits the regular expression its
# failure cause matches in full, and the inputs it occurs on.  Each expression
# names the defect's own exception or violation text, so another failure on
# the same inputs is unexpected.

_CHAIN = "range chain failed to stabilize"


KNOWN_DEFECTS = (
    # analyze on heat-wave m >= 45 exits 2: "R_1 holds but D_1 fails" at the
    # shifted omega = 0.5
    ("heat-wave R_1/D_1 violation",
     {"analyze": r"exit 2: R_1 holds but D_1 fails at omega=0\.500"},
     lambda e: e.get("model") == "heat-wave"),
    # implicit Euler's E - h A is rank deficient under rank_rel_tol at
    # h = 1/200 for index 4; the CLI lets StepSingular escape
    ("index-4 cross-check",
     {"solve": r"raised StepSingular: E - h A singular after retries \(h=[0-9.e+-]+\)"},
     lambda e: e.get("index") == 4 and e.get("n_ode", 0) > 0),
    # purely nilpotent pencils (no ODE part) of index >= 2: the staircase
    # range chain is reported as not stabilizing; analyze lets
    # ChainNotStabilized escape, solve reports it and exits 1
    ("nilpotent range chain",
     {"analyze": rf"raised ChainNotStabilized: {_CHAIN}",
      "solve": rf"exit 1: error: {_CHAIN}",
      "solve_csv": rf"exit 1: error: {_CHAIN}"},
     lambda e: e.get("n_ode") == 0 and e["index"] >= 2),
    # index 4: QZ's magnitude cutoff between finite and infinite eigenvalues
    # (documented as reliable up to k ~ 4) can misjudge the nilpotency index
    # while the Wong and tractability indices are right
    ("QZ index at index 4",
     {"analyze": r"index mismatch: qz/wong/tractability \(\d+, 4, 4\), true 4"},
     lambda e: e.get("index") == 4),
    # E = 0 (index 1, no ODE part): the G estimate reads 0 and R reads 1
    ("E = 0 growth estimates",
     {"analyze": r"exit 2: G_0 holds but weak R_0 fails \(R-index 1\); "
                 r"R-index 1 incompatible with G-index 0"},
     lambda e: e.get("index") == 1 and e.get("n_ode") == 0),
    # index >= 2 with an ODE part: over the CLI's default grid up to
    # lambda = 1e8 a G estimate can settle on a wrong k with verdict "holds"
    # (exit 0), or the estimates contradict each other in one of two ways
    # (exit 2)
    ("growth estimates at index >= 2",
     {"analyze": r"estimate mismatch: G_index_(left|right) holds at k=\d+, expected \d+"
                 r"|exit 2: R_(\d+) holds but D_\2 fails at omega=0\.000"
                 r"|exit 2: G_(\d+) holds but weak R_\3 fails \(R-index (\d+)\); "
                 r"R-index \4 incompatible with G-index \3"},
     lambda e: e.get("n_ode", 0) > 0 and e["index"] >= 2),
)


def defect_input(cmd):
    """True when a known defect applies to the command's kind and inputs."""
    return any(cmd.kind in causes and applies(cmd.expect)
               for _, causes, applies in KNOWN_DEFECTS)


def known_defect(cmd, cause):
    """Name of the known defect a failure matches, or None."""
    for name, causes, applies in KNOWN_DEFECTS:
        pattern = causes.get(cmd.kind)
        if pattern and re.fullmatch(pattern, cause) and applies(cmd.expect):
            return name
    return None


# -- output checks -----------------------------------------------------------

def check(cmd, code, exc, stderr_text=""):
    """Return (cause, silent): cause is None when every check passed.

    ``silent`` marks a wrong result from a command that exited 0.
    """
    if exc is not None:
        return f"raised {type(exc).__name__}: {_summary_line(str(exc))}", False
    if code != 0:
        detail = _summary_line(stderr_text)
        if cmd.kind == "analyze" and code == 2:
            try:
                viol = _read_json(os.path.join(cmd.out, "report.json"))["violations"]
                detail = "; ".join(viol) or detail
            except (OSError, ValueError, KeyError):
                pass
        return f"exit {code}: {detail}", False
    try:
        cause = _CHECKS[cmd.kind](cmd)
    except (OSError, ValueError, KeyError, TypeError) as err:
        cause = f"unreadable output: {type(err).__name__}: {_summary_line(str(err))}"
    return cause, cause is not None


def check_report(report, expect):
    """Checks on an analysis report.json against the generated true index."""
    if report.get("violations"):
        return "violation: " + "; ".join(report["violations"])
    k = expect["index"]
    got = (report["qz_index"], report["wong_stabilization"],
           report["tractability_index"])
    if got != (k, k, k):
        return f"index mismatch: qz/wong/tractability {got}, true {k}"
    for key, want in (("G_index_left", max(k, 1)), ("G_index_right", max(k, 1)),
                      ("R_index", k)):
        cert = report.get(key)
        if cert and cert["verdict"] == "holds" and cert["k"] != want:
            return f"estimate mismatch: {key} holds at k={cert['k']}, expected {want}"
    return None


def check_trajectory(path, n, rows):
    """Header 't, re_x1, im_x1, ...', ``rows`` rows of 1 + 2n finite values."""
    width = 1 + 2 * n
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        if len(header) != width or header[0] != "t":
            return f"trajectory shape: header has {len(header)} columns, expected {width}"
        count = 0
        for line in fh:
            vals = line.split(",")
            if len(vals) != width:
                return f"trajectory shape: row {count} has {len(vals)} values, expected {width}"
            if not all(math.isfinite(float(v)) for v in vals):
                return f"trajectory shape: row {count} holds a non-finite value"
            count += 1
    if count != rows:
        return f"trajectory shape: {count} rows, expected {rows}"
    return None


def check_energy(path):
    """Energy column of energy.csv non-increasing within ENERGY_TOL."""
    with open(path) as fh:
        fh.readline()
        energy = [float(line.split(",")[1]) for line in fh if line.strip()]
    if not energy:
        return "energy: no samples"
    rise = max((b - a for a, b in zip(energy, energy[1:])), default=0.0)
    if rise > ENERGY_TOL * max(1.0, energy[0]):
        return f"energy increase: {rise:.3e} in one step"
    return None


def _check_analyze(cmd):
    return check_report(_read_json(os.path.join(cmd.out, "report.json")), cmd.expect)


def _check_solve(cmd):
    _read_json(os.path.join(cmd.out, "solve.json"))
    return check_trajectory(os.path.join(cmd.out, "trajectory.csv"),
                            cmd.expect["n"], cmd.expect["rows"])


def _check_demo(cmd):
    _read_json(os.path.join(cmd.out, "report.json"))
    cause = check_trajectory(os.path.join(cmd.out, "trajectory.csv"),
                             cmd.expect["n"], cmd.expect["rows"])
    return cause or check_energy(os.path.join(cmd.out, "energy.csv"))


_CHECKS = {"analyze": _check_analyze, "solve": _check_solve,
           "solve_csv": _check_solve, "demo": _check_demo}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _summary_line(text):
    """The CLI's "error: ..." line if there is one, else the last line."""
    lines = [s.strip() for s in text.splitlines() if s.strip()]
    errors = [s for s in lines if s.startswith("error:")]
    return (errors or lines or [""])[-1][:200]
