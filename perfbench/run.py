"""adae benchmark: one command for every end-to-end and per-layer metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``workloads.py`` for why each was chosen):

  analyze-heatwave  adae analyze on the heat-wave pencil at m = 50 (n = 200)
  index-corpus      analyze / solve / solve --forcing-csv on 100 small
                    Weierstrass pencils of index 0-4
  solve-transient   2000-step solves on the RLC line at m = 50, demo heat-wave

Each workload runs in its own process ("workload process") with BLAS pinned
to one thread (OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1): with OpenBLAS's
default of one thread per core, small dense kernels spend their time in the
thread scheduler, not in the program.  The process is a closed loop with one
caller: it runs whole rounds of the workload's fixed command mix through
``adae.cli.main(argv)``, the next command starting when the previous one
returns, as many rounds as fit in ``--seconds`` (at least one).  Every
command's outputs are checked and every failure is counted with its cause.
The index corpus's probe (the commands a known defect applies to, see
``workloads.py``) then runs once, outside the measured loop.

--trace 0 prints the end-to-end metrics:
  setup_s      median over SETUP_REPEATS fresh workload processes, before and
               after the measured one, of the time from process start to
               ready: import adae, write the seeded inputs, run one warm-up
               command on a small input
  ops_per_s    commands completed (failed ones included) per second of
               command time over whole rounds of the fixed mix
  peak_rss_mb  peak resident memory of the workload process
and, for information, fail_ratio (failed over attempted commands, the
measured loop's and the probe's together) and each command kind's p50 and tail
latency (the highest of p50/p75/p90/p95/p99 with at least ten samples
beyond it, with the sample count).

--trace 1 runs the same commands untraced and then traced (``tracer.py``),
and prints the per-layer metrics: calls and self time per module and hot
function, linear-algebra kernel counts with computed operation estimates,
waste ratios, bytes written, the tracing overhead (traced minus untraced
command time), and one traced round at the default BLAS thread count, with
wall and CPU time per command.  Spans are written to
``perfbench/results/spans-<workload>-<seed>.json.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the commands of the measured loop; a command fails when it
raised, exited with a code other than 0 or failed an output check.
``correct`` is false when a failure, in the loop or in the probe, matches
none of the program's known defects (``workloads.KNOWN_DEFECTS``).  Failures
that match one are printed with the defect's name.  The probe's failures do
not count in ``failed``; on analyze-heatwave, whose measured command is itself
a known defect, every command counts as failed.
Everything printed is also written to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracer import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPEATS = 5
DEFAULT_THREADS_CAP_S = 45.0  # an m = 50 report takes > 90 s at two threads
# The whole run, every workload process included, is killed after a fixed
# margin plus a multiple of --seconds: the measured loop runs whole rounds
# (at least one, else about --seconds), and --trace 1 replays the same
# commands traced after it.
# At --seconds 25 this stops a traced run within 170 s.
RUN_LIMIT_MARGIN_S = 100.0
RUN_LIMIT_PER_SECOND = {0: 1.5, 1: 2.8}  # by --trace
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}  # name: unit
LAYER_FUNCTIONS = (
    "numerics.range_basis", "numerics.null_basis", "numerics.rank_with_tol",
    "numerics.expm", "numerics.qz_canonical", "pencil.resolvent_at",
    "pencil.pseudo_resolvent", "chains.build_chain", "chains.build_staircase",
    "growth.estimate_G_index", "growth.estimate_R_index", "growth.check_Dk",
    "growth.certify_D2", "growth.tractability_chain", "semigroup.evaluate",
    "solver.solve_decoupled", "solver.solve_homogeneous",
    "solver.implicit_euler_reference", "solver.residuals",
    "io.read_pencil_json", "io.write_trajectory_csv",
)
KERNELS = ("svd", "norm2", "inv", "lu", "expm", "qz", "eigh")


class RunFailed(Exception):
    pass


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "adae", "cli.py")):
        print(f"error: no adae sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 1
    try:
        report = run(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report.pop("lines"):
        print(line)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report["result"]))
    return 0


def run(args):
    deadline = (time.monotonic() + RUN_LIMIT_MARGIN_S
                + RUN_LIMIT_PER_SECOND[args.trace] * args.seconds)
    work = os.path.join(HERE, ".work")
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    mode = "trace" if args.trace else "run"
    spans = os.path.join(HERE, "results", f"spans-{args.workload}-{args.seed}.json.gz")
    if args.trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    pinned = dict(os.environ, **PINNED)

    def setup(i):
        return must(spawn(args, "setup", os.path.join(work, f"{tag}-s{i}"), pinned,
                          deadline - time.monotonic()))[0]

    try:
        # half the set-up samples before the main process and half after it,
        # so that their median spans the whole run, not one moment of it
        setups = [setup(i) for i in range(SETUP_REPEATS // 2)]
        ready, main_res = must(spawn(args, mode, os.path.join(work, f"{tag}-main"), pinned,
                                     deadline - time.monotonic(), spans if args.trace else None))
        setups.append(ready)
        setups += [setup(i) for i in range(SETUP_REPEATS // 2, SETUP_REPEATS - 1)]
        default = None
        if args.trace:
            default = default_threads(args, os.path.join(work, f"{tag}-dt"),
                                      min(DEFAULT_THREADS_CAP_S,
                                          deadline - time.monotonic() - 5.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes, probe = main_res["untraced"]["outcomes"], main_res["probe"]
    e2e = end_to_end(outcomes, probe, main_res["untraced"]["rounds"], setups,
                     main_res["peak_rss_mb"])
    lines = [f"workload {args.workload}  seed {args.seed}  --seconds {args.seconds:g}"
             f"  closed loop, one caller, {len(outcomes)} commands",
             "machine " + json.dumps(main_res["machine"])]
    lines += describe_e2e(e2e, setups)
    result = {"correct": all(o["cause"] is None or o["known"] for o in outcomes + probe),
              "attempted": len(outcomes),
              "failed": sum(o["cause"] is not None for o in outcomes)}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": main_res["machine"], "end_to_end": e2e,
              "outcomes": outcomes, "probe": probe}
    if args.trace:
        layer, info = per_layer(main_res, default)
        lines += describe_layers(layer, info)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report.update(per_layer=layer, trace_info=info, spans_file=os.path.relpath(spans, ROOT))
    else:
        result["metrics"] = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    report["result"] = result
    report["lines"] = lines
    return report


# -- workload processes ------------------------------------------------------

def worker_cmd(args, mode, workdir, spans=None):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--mode", mode,
           "--workdir", workdir]
    return cmd + (["--spans", spans] if spans else [])


def spawn(args, mode, workdir, env, limit_s, spans=None):
    """Run a workload process, killed after ``limit_s`` seconds.

    Returns (seconds until READY, seconds until exit, result); the result is
    None when the process failed or was killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, mode, workdir, spans), cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, limit_s), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    total = time.perf_counter() - t0
    if first.strip() != "READY" or code != 0:
        return ready, total, None
    return ready, total, (json.loads(rest.strip().splitlines()[-1]) if rest.strip() else {})


def must(spawned):
    ready, _, result = spawned
    if result is None:
        raise RunFailed("a workload process failed or ran out of time")
    return ready, result


def default_threads(args, workdir, cap):
    """One traced round with the BLAS thread variables unset, capped in time."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    ready, total, res = spawn(args, "default-threads", workdir, env, cap)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"finished": res is not None, "cap_s": cap,
            "round_wall_s": total - ready,  # a lower bound when not finished
            "process_cpu_s": (after.ru_utime - before.ru_utime)
            + (after.ru_stime - before.ru_stime),
            "outcomes": res and res["traced"]["outcomes"],
            "thread_env": res and res["machine"]["thread_env"]}


# -- end-to-end metrics ------------------------------------------------------

def percentile(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(p * len(sorted_vals) / 100.0) - 1)]


def latency(values):
    vals = sorted(values)
    out = {"n": len(vals), "p50": statistics.median(vals), "tail": None,
           "tail_pct": None}
    for p in TAIL_LADDER:
        if len(vals) - math.ceil(p * len(vals) / 100.0) >= 10:
            out["tail"], out["tail_pct"] = percentile(vals, p), p
            break
    return out


def failure_causes(outcomes):
    """{"<kind>: <cause> [<known defect or UNEXPECTED>]": count} of the failures."""
    causes = {}
    for o in outcomes:
        if o["cause"] is not None:
            tag = f'known defect "{o["known"]}"' if o["known"] else "UNEXPECTED"
            if o["silent"]:
                tag += ", exit 0"
            key = f'{o["kind"]}: {o["cause"]} [{tag}]'
            causes[key] = causes.get(key, 0) + 1
    return causes


def end_to_end(outcomes, probe, n_rounds, setups, peak_rss_mb):
    kinds = {}
    for o in outcomes:
        kinds.setdefault(o["kind"], []).append(o["wall_s"])
    lat = {k: latency(v) for k, v in kinds.items()}
    every = outcomes + probe
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(outcomes) / sum(o["wall_s"] for o in outcomes),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": sum(o["cause"] is not None for o in every) / len(every),
        "latency_s": lat,
        "failures": failure_causes(outcomes),
        "probe_failures": failure_causes(probe),
        "probe_n": len(probe),
        "rounds": n_rounds,
    }


def describe_e2e(e2e, setups):
    lines = [
        f"setup_s      {e2e['setup_s']:.4f} s   (median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"ops_per_s    {e2e['ops_per_s']:.4f} 1/s   ({e2e['rounds']} rounds)",
        f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB",
    ]
    failed = sum(e2e["failures"].values())
    total = sum(v["n"] for v in e2e["latency_s"].values())
    p_failed, p_total = sum(e2e["probe_failures"].values()), e2e["probe_n"]
    lines.append(f"fail_ratio   {e2e['fail_ratio']:.4f}   ({failed + p_failed} of "
                 f"{total + p_total} commands: {failed} of {total} in the measured loop,"
                 f" {p_failed} of {p_total} in the probe, run once)")
    for label, causes in (("", e2e["failures"]), ("probe ", e2e["probe_failures"])):
        for cause, n in sorted(causes.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {label}failed x{n}: {cause}")
    for kind, s in sorted(e2e["latency_s"].items()):
        tail = (f"{s['tail']:.4f} s at p{s['tail_pct']:g}" if s["tail"] is not None
                else "n/a (fewer than 20 samples)")
        lines.append(f"{kind}_s.p50 {s['p50']:.4f} s   {kind}_s.tail {tail}   (n={s['n']})")
    return lines


# -- per-layer metrics -------------------------------------------------------

def per_layer(main_res, default):
    """Metrics of the traced pass; returns ({name: (value, unit)}, details)."""
    traced = main_res["traced"]
    summ = traced["summary"]
    calls, self_s = summ["calls"], summ["self_s"]
    lc, ls, cnt = summ["layer_calls"], summ["layer_self_s"], summ["counters"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (lc.get(layer, 0), "count")
        m[f"{layer}.self_s"] = (ls.get(layer, 0.0), "s")
    for fn in LAYER_FUNCTIONS:
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
        m[f"{fn}.self_s"] = (self_s.get(fn, 0.0), "s")
    for k in KERNELS:
        m[f"lapack.{k}.calls"] = (cnt.get(f"lapack.{k}.calls", 0), "count")
    m["lapack.self_s"] = (ls.get("lapack", 0.0), "s")
    m["lapack.svd.n3"] = (cnt.get("lapack.svd.n3", 0), "flop-est")
    m["lapack.inv.n3"] = (cnt.get("lapack.inv.n3", 0), "flop-est")
    m["chains.build_chain.useful_level_ratio"] = (
        _ratio(cnt, "chain.levels_useful", "chain.levels_built"), "ratio")
    m["growth.grid_kept_ratio"] = (
        _ratio(cnt, "growth.grid_kept", "growth.grid_points"), "ratio")
    m["pencil.inverse_reject_ratio"] = (
        _ratio(cnt, "resolvent.rejected", "resolvent.calls", empty=0.0), "ratio")
    m["solver.euler_grid_stretched"] = (cnt.get("euler.grid_stretched", 0), "count")
    n_cmd = len(traced["outcomes"])
    m["io.bytes_written"] = (cnt.get("io.bytes_written", 0) / n_cmd, "B/cmd")
    untraced_s = sum(o["wall_s"] for o in main_res["untraced"]["outcomes"]
                     + main_res["probe"])
    traced_s = sum(o["wall_s"] for o in traced["outcomes"])
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")

    one = sum(o["wall_s"] for o in traced["outcomes"][:main_res["round_len"]])
    if default["finished"]:
        wall = sum(o["wall_s"] for o in default["outcomes"])
        cpu = sum(o["cpu_s"] for o in default["outcomes"])
    else:  # killed at the cap: lower bounds, the CPU time includes set-up
        wall, cpu = default["round_wall_s"], default["process_cpu_s"]
    m["default_threads.wall_s"] = (wall, "s")
    m["default_threads.cpu_s"] = (cpu, "s")
    m["default_threads.slowdown"] = (wall / one, "ratio")
    info = {"counters": cnt, "spans": summ["spans"], "root_s": summ["root_s"],
            "self_sum_s": summ["self_sum_s"], "untraced_cmd_s": untraced_s,
            "traced_cmd_s": traced_s, "all_calls": calls, "all_self_s": self_s,
            "layer_calls": lc, "layer_self_s": ls,
            "default_threads": default, "one_thread_round_s": one}
    return m, info


def _ratio(cnt, num, den, empty=1.0):
    d = cnt.get(den, 0)
    return cnt.get(num, 0) / d if d else empty


def describe_layers(m, info):
    cnt = info["counters"]
    lines = [f"traced: {info['spans']} spans; self times sum to {info['self_sum_s']:.4f} s,"
             f" root spans {info['root_s']:.4f} s; command time traced "
             f"{info['traced_cmd_s']:.4f} s vs untraced {info['untraced_cmd_s']:.4f} s"]
    for name, (v, unit) in m.items():
        lines.append(f"  {name:45s} {v:.6g} {unit}")
    lines.append("bases: build_chain levels useful/built "
                 f"{cnt.get('chain.levels_useful', 0)}/{cnt.get('chain.levels_built', 0)};"
                 f" grid points kept/swept {cnt.get('growth.grid_kept', 0)}/"
                 f"{cnt.get('growth.grid_points', 0)}; resolvent rejected/calls "
                 f"{cnt.get('resolvent.rejected', 0)}/{cnt.get('resolvent.calls', 0)};"
                 f" euler stretched/calls {cnt.get('euler.grid_stretched', 0)}/"
                 f"{cnt.get('euler.calls', 0)}; norm2 computed n3 "
                 f"{cnt.get('lapack.norm2.n3', 0)} (n3 figures are computed m*n*min(m,n)"
                 " sums, not measured)")
    lines.append("every layer (calls, self s):")
    for layer in LAYERS + ("lapack",):
        lines.append(f"  {layer:45s} {info['layer_calls'].get(layer, 0):8d} "
                     f"{info['layer_self_s'].get(layer, 0.0):.6f}")
    lines.append("every traced function (calls, self s):")
    for name in sorted(info["all_calls"], key=lambda k: -info["all_self_s"][k]):
        lines.append(f"  {name:45s} {info['all_calls'][name]:8d} "
                     f"{info['all_self_s'][name]:.6f}")
    d = info["default_threads"]
    if d["finished"]:
        per = ", ".join(f"{o['kind']} {o['wall_s']:.3f}/{o['cpu_s']:.3f}"
                        for o in d["outcomes"])
        lines.append(f"default BLAS threads ({d['thread_env']}): wall/cpu s per "
                     f"command: {per}")
    else:
        lines.append(f"default BLAS threads: the round did not finish within "
                     f"{d['cap_s']:.0f} s ({d['round_wall_s']:.3f} s after set-up, "
                     f"process cpu {d['process_cpu_s']:.3f} s)")
    lines.append(f"one BLAS thread, traced: the same round took "
                 f"{info['one_thread_round_s']:.3f} s")
    return lines


if __name__ == "__main__":
    sys.exit(main())
