"""Print the exit code and output hashes of a fixed set of CLI commands.

    OPENBLAS_NUM_THREADS=1 python tools/output_hashes.py [ROOT]

ROOT is a source checkout (default: the one holding this script); the
program is imported from ROOT/src and the workloads from ROOT/perfbench.
For each benchmark workload at seed 1 the script writes the inputs with
``workloads.build`` in a temporary directory, runs the warm-up, the first
round and the probe commands through ``adae.cli.main``.  Then it runs
``adae demo heat-wave``, ``adae demo rlc`` and ``adae demo rlc --lossless``
at their defaults, ``adae analyze`` on heat-wave at m = 10/25/50/100 and on
RLC at m = 5/12/25/50, ``adae analyze``, ``adae demo weierstrass`` and
``adae solve --cross-check`` on Weierstrass pencils of index 1-4 at seeds
0-4, and one ``adae solve --forcing-csv`` on RLC m = 8 whose 51 samples are
not the 100-step solve grid.  It prints one line per command: its output
directory (under the workload's name, or ``demo``/``extra``), its kind, its
exit code (or the class of the exception that escaped), and the sha256 of
each .json/.csv file there.

Two checkouts produce the same outputs when their printed lines are
equal, for example a worktree of the parent commit against the change:

    git worktree add ../parent HEAD~1
    python tools/output_hashes.py ../parent > parent.txt
    python tools/output_hashes.py . > change.txt
    diff parent.txt change.txt
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import contextlib
import hashlib
import io
import math
import sys
import tempfile

DEMOS = (["heat-wave"], ["rlc"], ["rlc", "--lossless"])
WEIERSTRASS = (["analyze", "--model", "weierstrass"], ["demo", "weierstrass"],
               ["solve", "--model", "weierstrass", "--cross-check"])
EXTRA = ([["analyze", "--model", "heat-wave", "--m", str(m)]
          for m in (10, 25, 50, 100)]
         + [["analyze", "--model", "rlc", "--m", str(m)]
            for m in (5, 12, 25, 50)]
         + [[*cmd, "--index", str(k), "--seed", str(seed)]
            for k in range(1, 5) for seed in range(5) for cmd in WEIERSTRASS])


def dirname(argv):
    return "-".join(a.lstrip("-") for a in argv)


def write_forcing_csv(path):
    """51 samples on [0, 1] of the 18 components sin(i t), i = 1..18."""
    with open(path, "w") as fh:
        fh.write("t" + "".join(f", f{i}" for i in range(1, 19)) + "\n")
        for t in (j / 50 for j in range(51)):
            fh.write(repr(t) + "".join(f", {math.sin(i * t)!r}"
                                       for i in range(1, 19)) + "\n")


def run(main, kind, argv, out, tmp):
    """Run one command and print its line."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            status = str(main(argv))
        except (Exception, SystemExit) as exc:
            status = type(exc).__name__
    hashes = []
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        if name.endswith((".json", ".csv")):
            with open(os.path.join(out, name), "rb") as fh:
                hashes.append(f"{name}={hashlib.sha256(fh.read()).hexdigest()}")
    print(os.path.relpath(out, tmp), kind, status, *hashes)


def main(root):
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from adae.cli import main as adae_main

    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            warm, rounds, probe = workloads.build(name, 1, os.path.join(tmp, name))
            for cmd in [warm, *rounds[0], *probe]:
                run(adae_main, cmd.kind, cmd.argv, cmd.out, tmp)
        for demo in DEMOS:
            out = os.path.join(tmp, "demo", dirname(demo))
            run(adae_main, "demo", ["demo", *demo, "--out", out], out, tmp)
        for argv in EXTRA:
            out = os.path.join(tmp, "extra", dirname(argv))
            run(adae_main, argv[0], [*argv, "--out", out], out, tmp)
        # the sampled path between samples: RLC m = 8 has 18 unknowns, and
        # its 100-step grid on [0, 1] is not the forcing's 51-sample grid
        csv = os.path.join(tmp, "forcing.csv")
        write_forcing_csv(csv)
        out = os.path.join(tmp, "extra", "solve-rlc-8-forcing-csv-51")
        run(adae_main, "solve", ["solve", "--model", "rlc", "--m", "8",
                                 "--forcing-csv", csv, "--out", out], out, tmp)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
