"""Run a fixed set of CLI commands and keep all that each one leaves behind:
the files it writes, its stdout, its stderr and its exit code.

Each command runs in a fresh interpreter, in its own directory
OUT_DIR/<name>, and a command that writes files gets a relative --out-dir,
so the paths it prints are the same wherever OUT_DIR is. The package is
imported from PYTHONPATH, so a check that a change keeps every output byte
is two runs and a diff:

    git archive PARENT | tar -x -C PARENT_TREE
    PYTHONPATH=PARENT_TREE/src python tools/cli_outputs.py PARENT_OUT
    PYTHONPATH=src python tools/cli_outputs.py CHANGE_OUT
    diff -r PARENT_OUT CHANGE_OUT

usage: python tools/cli_outputs.py OUT_DIR
"""

import os
import subprocess
import sys
from pathlib import Path

# name -> CLI arguments, without --out-dir. alpha with a valid tolerance
# is left out: it prints its solve time.
COMMANDS = {
    # the cases at their defaults, with a snapshot at t = 0, one that is
    # not on the time grid, and one past example2's extinction
    "solve_example1": ["solve", "--case", "example1",
                       "--snapshots", "0,0.00049,5"],
    "solve_example2": ["solve", "--case", "example2",
                       "--snapshots", "0,1.5"],
    "solve_example3": ["solve", "--case", "example3",
                       "--snapshots", "0,0.5"],
    # the size of the benchmark's 2D workload
    "solve_example3_n48": ["solve", "--case", "example3", "--n", "48"],
    "energy": ["energy"],
    "sweep_h_1d": ["sweep-h", "--case", "example1", "--k", "1",
                   "--n-list", "4,8,16", "--delta", "0.01", "--t-end", "1"],
    "sweep_h_2d": ["sweep-h", "--case", "example3", "--k", "1",
                   "--n-list", "2,4,8", "--delta", "0.05", "--t-end", "0.5"],
    "sweep_dt": ["sweep-dt", "--case", "example1", "--k", "2", "--n", "16",
                 "--delta-list", "0.04,0.02,0.01", "--t-end", "1"],
    # every row trips the guard at extinction, so the sweep exits 3 and
    # writes its rows without errors
    "sweep_failed_rows": ["sweep-h", "--case", "example2", "--k", "1",
                          "--n-list", "2,4", "--delta", "0.05",
                          "--t-end", "1.2", "--guard-policy", "abort"],
    # the same ladder under the default warn policy: each row freezes at
    # extinction, its message names the step and the reason, and the sweep
    # succeeds
    "sweep_frozen_rows": ["sweep-h", "--case", "example2", "--k", "1",
                          "--n-list", "2,4", "--delta", "0.05",
                          "--t-end", "1.2"],
    # the guard trip aborts the solve before it writes anything
    "solve_aborted": ["solve", "--case", "example2", "--guard-policy",
                      "abort"],
    "verify_example1": ["verify", "example1"],
    "verify_example2": ["verify", "example2"],
    "verify_example3": ["verify", "example3"],
    # configuration errors: each exits 2 and writes nothing
    "alpha_bad_tolerance": ["alpha", "example2", "--tolerance", "0"],
    "energy_unknown_case": ["energy", "--cases", "example2,foo"],
}

# the subcommands that write files, and so take --out-dir
WRITERS = ("solve", "sweep-h", "sweep-dt", "energy")


def full_argv(argv):
    """The CLI arguments of a command as it is run: a writer's get
    --out-dir out."""
    return [*argv, "--out-dir", "out"] if argv[0] in WRITERS else list(argv)


def run_all(out_dir: Path):
    # the commands run elsewhere, so a relative PYTHONPATH is made absolute
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(Path(entry).resolve())
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry))
    for name, argv in COMMANDS.items():
        cwd = out_dir / name
        cwd.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, "-m", "nonlocfem.cli", *full_argv(argv)],
            cwd=cwd, env=env, capture_output=True, text=True)
        (cwd / "stdout").write_text(done.stdout)
        (cwd / "stderr").write_text(done.stderr)
        (cwd / "exit_code").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.rsplit("usage: ", 1)[1].strip(), file=sys.stderr)
        return 2
    run_all(Path(sys.argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
