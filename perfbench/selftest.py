"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

They check that the tracer restores every binding it replaced, that spans
nest, that self times add up to the traced command time, that every output
check fires on a deliberately corrupted artifact, and that BENCHMARK.json
names exactly the metrics the harness prints.
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy  # noqa: E402
import scipy.linalg  # noqa: E402

import adae  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import LINALG, Tracer, is_traced  # noqa: E402

# the traced command time and the sum of self times may differ by the
# wrapper's own entry/exit cost: 1 ms per command plus 1 %
SELF_SUM_ABS_S = 1e-3
SELF_SUM_REL = 0.01


def _bindings():
    """Every attribute of the adae modules and classes and linalg entry points."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "adae" or name.startswith("adae."):
            for attr, obj in list(vars(mod).items()):
                snap[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for cattr, cobj in list(vars(obj).items()):
                        snap[(name, obj.__name__, cattr)] = cobj
    for modname, entries in LINALG.items():
        mod = sys.modules[modname]
        for attr in entries:
            snap[(modname, attr)] = vars(mod).get(attr)
    return snap


def _lookup(key):
    mod = sys.modules[key[0]]
    if len(key) == 2:
        return vars(mod).get(key[1])
    return vars(getattr(mod, key[1])).get(key[2])


@pytest.fixture
def small_commands(tmp_path):
    pencil, k = adae.weierstrass_pencil(
        adae.WeierstrassSpec((-1.0, -2.0), (2,), transform_seed=5))
    pj = str(tmp_path / "pencil.json")
    adae.write_pencil_json(pj, pencil)
    fj = str(tmp_path / "forcing.json")
    workloads._write_poly_forcing(fj, [0.0, 1.0], [numpy.ones((pencil.n, 2))])
    expect = {"index": k, "n": pencil.n, "rows": 41}
    a_out, s_out, d_out = (str(tmp_path / d) for d in ("a", "s", "d"))
    return [
        workloads.Command("analyze", ["analyze", "--input", pj, "--out", a_out],
                          a_out, dict(expect)),
        workloads.Command("solve", ["solve", "--input", pj, "--forcing", fj, "--tf",
                                    "1.0", "--steps", "40", "--cross-check", "--out",
                                    s_out], s_out, dict(expect)),
        workloads.Command("demo", ["demo", "heat-wave", "--m", "4", "--steps", "20",
                                   "--out", d_out], d_out,
                          {"n": 16, "rows": 21}),
    ]


def _traced(commands):
    tr = Tracer()
    tr.install()
    try:
        outcomes = [worker.run_command(c, tr, i) for i, c in enumerate(commands)]
    finally:
        tr.uninstall()
    return tr, outcomes


def test_tracer_restores_every_binding(small_commands):
    before = _bindings()
    tr = Tracer()
    tr.install()
    try:
        replaced = tr.saved_bindings()
        assert replaced, "the tracer wrapped nothing"
        assert is_traced(adae.chains.range_basis)
        assert adae.chains.range_basis is adae.numerics.range_basis
        assert is_traced(scipy.linalg.svd) and is_traced(numpy.linalg.norm)
        worker.run_command(small_commands[0], tr, 0)
    finally:
        tr.uninstall()
    after = _bindings()
    # running a command may add attributes (a __warningregistry__, say)
    changed = [k for k in before if after.get(k, k) is not before[k]]
    assert changed == []
    assert not any(is_traced(_lookup(k)) for k in after)
    assert tr.saved_bindings() == []


def test_spans_nest_and_self_times_add_up(small_commands):
    tr, outcomes = _traced(small_commands)
    assert all(o.cause is None for o in outcomes), [o.cause for o in outcomes]
    n = len(tr.start)
    assert n > 100
    for i in range(n):
        assert tr.start[i] <= tr.stop[i]
        p = tr.parent[i]
        if p < 0:
            assert tr.names[tr.name[i]] == "cli.main"
        else:
            assert p < i
            assert tr.start[p] <= tr.start[i] and tr.stop[i] <= tr.stop[p]
            assert tr.command[p] == tr.command[i]
    assert sorted(set(tr.command)) == list(range(len(small_commands)))

    dur, self_t = tr.self_times()
    assert min(self_t) >= -1e-9
    roots = sum(d for d, p in zip(dur, tr.parent) if p < 0)
    assert sum(self_t) == pytest.approx(roots, rel=1e-9)
    wall = sum(o.wall_s for o in outcomes)
    assert abs(sum(self_t) - wall) <= SELF_SUM_ABS_S * len(outcomes) + SELF_SUM_REL * wall
    summ = tr.summary()
    assert summ["calls"]["cli.main"] == len(small_commands)
    cnt = summ["counters"]
    assert cnt["lapack.svd.calls"] > 0 and cnt["lapack.norm2.calls"] > 0
    assert 0 < cnt["chain.levels_useful"] <= cnt["chain.levels_built"]
    assert 0 < cnt["growth.grid_kept"] <= cnt["growth.grid_points"]
    assert cnt["resolvent.calls"] > 0
    assert cnt["euler.calls"] == 1 and cnt["euler.grid_stretched"] == 0
    assert cnt["io.bytes_written"] > 0


def test_linalg_calls_outside_commands_are_not_counted():
    tr = Tracer()
    tr.install()
    try:
        scipy.linalg.svdvals(numpy.eye(3))
        numpy.linalg.norm(numpy.eye(3), 2)
    finally:
        tr.uninstall()
    assert len(tr.start) == 0 and not tr.counters


def _run_ok(cmd):
    out = worker.run_command(cmd)
    assert out.cause is None, out.cause
    return out


def _copy(cmd, tmp_path, name):
    dst = str(tmp_path / name)
    shutil.copytree(cmd.out, dst)
    return workloads.Command(cmd.kind, cmd.argv, dst, dict(cmd.expect))


def _edit_json(path, fn):
    with open(path) as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _edit_lines(path, fn):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(fn(lines)) + "\n")


def test_analyze_checks_fire_on_corrupted_report(small_commands, tmp_path):
    cmd = small_commands[0]
    _run_ok(cmd)
    corruptions = {
        "violation": lambda d: d.update(violations=["R_2 holds but D_2 fails"]),
        "index mismatch": lambda d: d.update(qz_index=d["qz_index"] + 1),
        "estimate mismatch": lambda d: d["R_index"].update(k=7, verdict="holds"),
    }
    for want, corrupt in corruptions.items():
        bad = _copy(cmd, tmp_path, want.replace(" ", "-"))
        _edit_json(os.path.join(bad.out, "report.json"), corrupt)
        cause, silent = workloads.check(bad, 0, None)
        assert cause is not None and cause.startswith(want) and silent, cause
    # an inconclusive estimate is not held to its expected k
    bad = _copy(cmd, tmp_path, "inconclusive")
    _edit_json(os.path.join(bad.out, "report.json"),
               lambda d: d["R_index"].update(k=7, verdict="inconclusive"))
    assert workloads.check(bad, 0, None) == (None, False)


def test_exit_codes_and_exceptions_fail(small_commands):
    cmd = small_commands[0]
    _run_ok(cmd)
    assert workloads.check(cmd, 1, None, "error: pencil not regular") == (
        "exit 1: error: pencil not regular", False)
    cause, silent = workloads.check(cmd, None, adae.StepSingular("E - h A singular"))
    assert cause == "raised StepSingular: E - h A singular" and not silent


def test_trajectory_checks_fire_on_corrupted_csv(small_commands, tmp_path):
    cmd = small_commands[1]
    _run_ok(cmd)
    corruptions = {
        "drop-row": lambda ls: ls[:-1],
        "extra-row": lambda ls: ls + [ls[-1]],
        "short-row": lambda ls: ls[:5] + [ls[5].rsplit(",", 1)[0]] + ls[6:],
        "nan": lambda ls: ls[:3] + [ls[3].replace(ls[3].split(",")[1], " nan", 1)] + ls[4:],
        "header": lambda ls: [ls[0].rsplit(",", 2)[0]] + ls[1:],
    }
    for name, corrupt in corruptions.items():
        bad = _copy(cmd, tmp_path, name)
        _edit_lines(os.path.join(bad.out, "trajectory.csv"), corrupt)
        cause, silent = workloads.check(bad, 0, None)
        assert cause is not None and cause.startswith("trajectory shape") and silent, name
    bad = _copy(cmd, tmp_path, "missing")
    os.remove(os.path.join(bad.out, "trajectory.csv"))
    cause, _ = workloads.check(bad, 0, None)
    assert cause.startswith("unreadable output")


def test_energy_check_fires_on_rising_energy(small_commands, tmp_path):
    cmd = small_commands[2]
    _run_ok(cmd)
    bad = _copy(cmd, tmp_path, "rising")

    def rise(lines):
        t, e = lines[5].split(",")
        return lines[:5] + [f"{t}, {2.0 * float(e) + 1.0!r}"] + lines[6:]
    _edit_lines(os.path.join(bad.out, "energy.csv"), rise)
    cause, silent = workloads.check(bad, 0, None)
    assert cause.startswith("energy increase") and silent


def test_known_defects_are_named_and_others_are_not():
    heat = workloads.Command("analyze", [], "", {"index": 1, "model": "heat-wave"})
    cause = "exit 2: R_1 holds but D_1 fails at omega=0.500"
    assert workloads.known_defect(heat, cause) == "heat-wave R_1/D_1 violation"
    # the same failure on another input, or another failure, is unexpected
    index1 = workloads.Command("analyze", [], "", {"index": 1, "n_ode": 2})
    assert workloads.known_defect(index1, cause) is None
    assert workloads.known_defect(heat, "index mismatch: qz/wong/tractability (1, 1, 2), true 1") is None
    assert workloads.known_defect(heat, "raised ValueError: bad input") is None
    assert workloads.known_defect(heat, "exit 2: R_2 holds but D_2 fails at omega=0.500") is None


def test_corpus_probe_holds_exactly_the_known_defect_inputs(tmp_path):
    _, rounds, probe = workloads.build("index-corpus", 3, str(tmp_path))
    measured = [c for rnd in rounds for c in rnd]
    assert measured and probe
    assert not any(workloads.defect_input(c) for c in measured)
    assert all(workloads.defect_input(c) for c in probe)
    # the index-4 cross-check and analyze at index >= 2 stay in the probe
    assert any(c.kind == "solve" and c.expect["index"] == 4 for c in probe)
    assert {c.expect["index"] for c in probe if c.kind == "analyze"} >= {2, 3, 4}
    assert {c.expect["index"] for c in measured} == {0, 1, 2, 3}


# Failures seen on the corpus at the commit that defined the benchmark, and
# another failure on the same inputs that must not pass as known.
SEEN_AND_OTHER = [
    ("solve", {"index": 4, "n_ode": 2},
     "raised StepSingular: E - h A singular after retries (h=0.005151505)",
     "raised TypeError: unsupported operand type(s)"),
    ("analyze", {"index": 3, "n_ode": 0},
     "raised ChainNotStabilized: range chain failed to stabilize",
     "raised ValueError: array must not contain infs or NaNs"),
    ("solve", {"index": 2, "n_ode": 0},
     "exit 1: error: range chain failed to stabilize",
     "exit 1: error: pencil is not regular"),
    ("solve_csv", {"index": 2, "n_ode": 0},
     "exit 1: error: range chain failed to stabilize",
     "raised ChainNotStabilized: range chain failed to stabilize"),
    ("analyze", {"index": 1, "n_ode": 0},
     "exit 2: G_0 holds but weak R_0 fails (R-index 1); "
     "R-index 1 incompatible with G-index 0",
     "exit 2: R_1 holds but D_1 fails at omega=0.000"),
    ("analyze", {"index": 2, "n_ode": 3},
     "exit 2: G_2 holds but weak R_2 fails (R-index 3); "
     "R-index 3 incompatible with G-index 2",
     "exit 2: D_2 fails at omega=0.000"),
    ("analyze", {"index": 4, "n_ode": 5},
     "exit 2: R_1 holds but D_1 fails at omega=0.000",
     "raised StepSingular: E - h A singular after retries (h=0.005)"),
    ("analyze", {"index": 4, "n_ode": 2},
     "index mismatch: qz/wong/tractability (7, 4, 4), true 4",
     "index mismatch: qz/wong/tractability (4, 5, 4), true 4"),
    ("analyze", {"index": 3, "n_ode": 4},
     "estimate mismatch: G_index_left holds at k=0, expected 3",
     "estimate mismatch: R_index holds at k=0, expected 3"),
]


@pytest.mark.parametrize("kind,expect,seen,other", SEEN_AND_OTHER)
def test_other_failure_on_known_defect_input_is_unexpected(kind, expect, seen, other):
    cmd = workloads.Command(kind, [], "", dict(expect))
    assert workloads.known_defect(cmd, seen) is not None
    assert workloads.known_defect(cmd, other) is None
    outcomes = [{"kind": kind, "wall_s": 0.1, "cause": c, "silent": False,
                 "known": workloads.known_defect(cmd, c)} for c in (seen, other)]
    e2e = run.end_to_end(outcomes, [], 1, [1.0], 50.0)
    assert [k for k in e2e["failures"] if k.endswith("[UNEXPECTED]")] == [
        f"{kind}: {other} [UNEXPECTED]"]


def test_tail_needs_ten_samples_beyond():
    assert run.latency([1.0] * 19)["tail"] is None
    s = run.latency([float(i) for i in range(1, 101)])
    assert (s["tail_pct"], s["tail"], s["n"]) == (90.0, 90.0, 100)
    assert run.latency([float(i) for i in range(1, 41)])["tail_pct"] == 75.0


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    fake = {"summary": {"calls": {}, "self_s": {}, "layer_calls": {},
                        "layer_self_s": {}, "counters": {}, "spans": 0,
                        "root_s": 0.0, "self_sum_s": 0.0},
            "outcomes": [{"wall_s": 1.0, "cpu_s": 1.0}]}
    layer, _ = run.per_layer({"traced": fake, "untraced": fake, "probe": [],
                              "round_len": 1},
                             {"finished": True, "outcomes": fake["outcomes"]})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: u for k, (_, u) in layer.items()}
