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
0-4, the solves with a nonzero ``--x0`` and a cubic ``--forcing``.  Then
``adae solve --forcing-csv`` with 51 samples, which are not the 100-step
solve grid: on RLC m = 8 with every component nonzero, with only its two
boundary components nonzero and with every component zero, and with
``--cross-check`` and a nonzero ``--x0`` on Weierstrass pencils of index 1-2
at seeds 0-4, component ``seed % n`` zero.  Last, on RLC m = 8 with a
nonzero ``--x0``, ``adae solve`` with the cubic ``--forcing`` and with the
51-sample ``--forcing-csv`` on grids of 255, 256 and 257 interior points
(``--steps`` 258-260), one fewer than a residual block of 256 grid times,
one block and one more.  It prints one line per command:
its output directory (under the workload's name, or ``demo``/``extra``), its
kind, its exit code (or the class of the exception that escaped), and the
sha256 of each .json/.csv file there.

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
import json
import math
import sys
import tempfile

RESIDUAL_BLOCK = 256  # grid times per block of solver.residuals
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


def write_forcing_csv(path, n, rows):
    """51 samples on [0, 1] of n components, component i (from 1) sin(i t)
    when i - 1 is in rows and 0.0 otherwise."""
    with open(path, "w") as fh:
        fh.write("t" + "".join(f", f{i}" for i in range(1, n + 1)) + "\n")
        for t in (j / 50 for j in range(51)):
            fh.write(repr(t) + "".join(
                f", {math.sin(i * t) if i - 1 in rows else 0.0!r}"
                for i in range(1, n + 1)) + "\n")


def write_forcing_json(path, n):
    """The cubic f_i(t) = sum_j (-1)^(i+j) (i+1) / (j+1) t^j on [0, 1]."""
    re = [(-1) ** (i + j) * (i + 1) / (j + 1)
          for i in range(n) for j in range(4)]
    with open(path, "w") as fh:
        json.dump({"breakpoints": [0.0, 1.0], "pieces": [
            {"rows": n, "cols": 4, "re": re, "im": [0.0] * len(re)}]}, fh)


def x0_arg(n):
    """--x0 of n nonzero values, 1, -1/2, 1/3, ..."""
    return json.dumps([(-1) ** i / (i + 1) for i in range(n)])


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
    from adae.models import RLCConfig, rlc_pencil

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
            if argv[0] == "solve":  # Weierstrass n = 2 + index
                n = 2 + int(argv[argv.index("--index") + 1])
                fj = os.path.join(tmp, f"forcing-{n}.json")
                write_forcing_json(fj, n)
                argv = [*argv, "--x0", x0_arg(n), "--forcing", fj]
            run(adae_main, argv[0], [*argv, "--out", out], out, tmp)
        # the sampled path between samples: RLC m = 8 has 18 unknowns, and
        # its 100-step grid on [0, 1] is not the forcing's 51-sample grid
        csv = os.path.join(tmp, "forcing.csv")
        ports = set(rlc_pencil(RLCConfig(m=8)).boundary_forcing_indices())
        for name, rows in (("", range(18)), ("-ports", ports),
                           ("-zero", ())):
            write_forcing_csv(csv, 18, rows)
            out = os.path.join(tmp, "extra",
                               f"solve-rlc-8-forcing-csv-51{name}")
            run(adae_main, "solve", ["solve", "--model", "rlc", "--m", "8",
                                     "--forcing-csv", csv, "--out", out],
                out, tmp)
        for k in (1, 2):
            for seed in range(5):
                n = 2 + k
                write_forcing_csv(csv, n, set(range(n)) - {seed % n})
                argv = ["solve", "--model", "weierstrass", "--index", str(k),
                        "--seed", str(seed), "--cross-check"]
                out = os.path.join(tmp, "extra",
                                   dirname(argv) + "-forcing-csv")
                run(adae_main, "solve", [*argv, "--x0", x0_arg(n),
                                         "--forcing-csv", csv, "--out", out],
                    out, tmp)
        # residuals over grids whose T - 4 interior points straddle one
        # block of RESIDUAL_BLOCK grid times
        fj = os.path.join(tmp, "forcing-18.json")
        write_forcing_json(fj, 18)
        write_forcing_csv(csv, 18, range(18))
        for steps in range(RESIDUAL_BLOCK + 2, RESIDUAL_BLOCK + 5):
            for flag, path in (("--forcing", fj), ("--forcing-csv", csv)):
                argv = ["solve", "--model", "rlc", "--m", "8",
                        "--steps", str(steps), flag, path]
                out = os.path.join(tmp, "extra", dirname(argv[:-1]))
                run(adae_main, "solve", [*argv, "--x0", x0_arg(18),
                                         "--out", out], out, tmp)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
