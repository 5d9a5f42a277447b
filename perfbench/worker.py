"""Workload process: set up one workload, then run its command mix.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout: a
line ``READY`` once set-up (import, seeded inputs, one warm-up command) is
done, then one JSON line with the results.  The CLI's own stdout and stderr
are captured per command, so nothing else reaches this process's stdout.

Modes:
  setup            set up, report READY and exit (a set-up time sample)
  run              closed loop over whole rounds within --seconds, untraced,
                   then each probe command once
  trace            the same as run, then the same commands traced
  default-threads  one traced round, wall and CPU time per command
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=["setup", "run", "trace", "default-threads"])
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file for the traced spans (gzip JSON)")
    args = ap.parse_args(argv)

    proto = sys.stdout
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import adae.cli  # noqa: F401
    import workloads

    try:
        warm, rounds, probe = workloads.build(args.workload, args.seed, args.workdir)
        run_command(warm)
        print("READY", file=proto, flush=True)
        if args.mode == "setup":
            return 0
        result = {"machine": machine_record(), "round_len": len(rounds[0])}
        if args.mode == "default-threads":
            result["traced"] = traced_pass(rounds[0], None)
        else:
            done, loop_s, n_rounds = closed_loop(rounds, args.seconds)
            result["untraced"] = {"outcomes": [vars(o) for _, o in done],
                                  "loop_s": loop_s, "rounds": n_rounds}
            result["probe"] = [vars(run_command(c)) for c in probe]
            if args.mode == "trace":
                result["traced"] = traced_pass([c for c, _ in done] + probe,
                                               args.spans)
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), file=proto, flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def run_command(cmd, tracer=None, cmd_id=0):
    """Run one CLI command in this process; time it and check its outputs."""
    import adae.cli
    import workloads

    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    if tracer is not None:
        tracer.begin(cmd_id)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = adae.cli.main(list(cmd.argv))
    except Exception as e:  # an escaped exception is a failed command
        exc = e
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if tracer is not None:
        tracer.end()
    cause, silent = workloads.check(cmd, code, exc, err.getvalue())
    known = workloads.known_defect(cmd, cause) if cause else None
    return workloads.Outcome(cmd.kind, wall, cpu, code, cause, silent, known)


def closed_loop(rounds, seconds):
    """Run whole rounds, one command after another, within ``seconds``.

    The first round always runs; each further one only if, at the mean round
    time so far, it should end within ``seconds``.  So the number of rounds
    changes only when the round time crosses seconds / k, not with the drift
    of a round that takes about ``seconds`` (one heat-wave report does).
    """
    done = []
    t0 = time.perf_counter()
    i = 0
    while True:
        for cmd in rounds[i % len(rounds)]:
            done.append((cmd, run_command(cmd)))
        i += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (i + 1) / i > seconds:
            return done, elapsed, i


def traced_pass(commands, spans_path):
    """Run ``commands`` once with the tracer installed; summarise the spans."""
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        outcomes = [run_command(c, tr, i) for i, c in enumerate(commands)]
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    if spans_path:
        tr.dump(spans_path, [c.kind for c in commands])
    return {"outcomes": [vars(o) for o in outcomes], "loop_s": wall,
            "summary": tr.summary()}


def machine_record():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if not idx.startswith("index"):
            continue
        vals = []
        for f in ("level", "type", "size"):
            try:
                with open(os.path.join(base, idx, f)) as fh:
                    vals.append(fh.read().strip())
            except OSError:
                vals.append("?")
        caches.append("L{} {} {}".format(*vals))
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
