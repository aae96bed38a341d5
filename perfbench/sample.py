"""One benchmark sample, run in a fresh interpreter, as a CLI user runs the solver.

    python3 -B perfbench/sample.py WORKLOAD --snapshots T1,T2 [--trace]
        [--describe] [--spans-out PATH]

Imports the package from the checkout's src/ only, times one solve from
config to verified result, and prints one JSON record as the last line of
standard output. run.py starts one such process per sample.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import csv
import ctypes
import io
import json
import os
import resource
import shutil
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calibrate import HostSampler  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CLI, WORKLOADS  # noqa: E402


class SampleFailure(Exception):
    """The solver ran but its result failed a correctness check."""


def import_package() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import nonlocfem
    from nonlocfem import assembly, cli, harness, stepper
    home = Path(nonlocfem.__file__).resolve().parent
    if home != ROOT / "src" / "nonlocfem":
        raise ImportError(f"nonlocfem imported from {home}, not from this checkout")
    return {"assembly": assembly, "cli": cli, "harness": harness, "stepper": stepper}


def run_solve_sample(modules, workload, snapshots, space_of) -> float:
    harness = modules["harness"]
    config = harness.RunConfig(**workload.settings, snapshots=tuple(snapshots))
    return harness.run_solve(config).final_error


def _read_csv(path, header, n_rows):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != header or len(rows) != n_rows + 1:
        raise SampleFailure(f"{os.path.basename(path)}: header {rows[0]} and "
                            f"{len(rows) - 1} rows, expected {header} and {n_rows}")
    return rows[1:]


def cli_sample(modules, workload, snapshots, space_of) -> float:
    """cli.main solve into a scratch directory; the outputs must parse."""
    out_dir = tempfile.mkdtemp(prefix="cli-", dir=BENCH / "results")
    try:
        argv = ["solve", "--case", workload.settings["case"], "--out-dir", out_dir,
                "--snapshots", ",".join(f"{t:g}" for t in snapshots)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = modules["cli"].main(argv)
        if code != 0:
            raise SampleFailure(f"cli exit code {code}: {captured.getvalue()[-400:]}")
        space, steps = space_of()
        base = os.path.join(out_dir, f"run_{workload.settings['case']}_k{space.degree}")
        try:
            for row in _read_csv(base + ".csv", ["case", "t", "energy", "log_energy"],
                                 steps + 1):
                [float(v) for v in row[1:]]
            meta = {}
            with open(base + ".meta.txt") as fh:
                for line in fh:
                    key, sep, value = line.rstrip("\n").partition(" = ")
                    if not sep:
                        raise SampleFailure(f"meta line {line!r} is not 'key = value'")
                    meta[key] = value
            for t in snapshots:
                for row in _read_csv(f"{base}_snapshot_t{t:g}.csv", ["x", "u"],
                                     space.n_nodes):
                    [float(v) for v in row]
            return float(meta["final_error_l2"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            raise SampleFailure(f"emitted outputs do not parse: {exc!r}") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS will use, as configured, not overridden."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def describe(modules, space) -> dict:
    """Problem size and library environment, gathered after the timed region."""
    import numpy
    import scipy
    assembly = modules["assembly"]
    free = space.free_node_indices
    A = (assembly.assemble_mass(space).restrict(free)
         + assembly.assemble_stiffness(space).restrict(free))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "unknowns": int(len(free)),
        "nnz": int(A.nnz),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                "OMP_NUM_THREADS") if k in os.environ},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--snapshots", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    snapshots = [float(t) for t in args.snapshots.split(",")]

    t_import = time.perf_counter()
    modules = import_package()
    import_s = time.perf_counter() - t_import
    sampler = HostSampler()

    tracer = Tracer(modules, traced=args.trace)
    marks = tracer.marks

    def space_of():
        return marks["space"], tracer.counters["steps"]

    sample = run_solve_sample if workload.entry != CLI else cli_sample
    record = {"workload": workload.name, "traced": args.trace, "ok": True,
              "import_s": import_s}
    tracer.install()
    try:
        if not args.trace:  # a traced sample's self times must add up to its wall time
            sampler.start()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        tracer.open_root(t0)
        try:
            error = sample(modules, workload, snapshots, space_of)
            lo, hi = workload.error_band
            if not lo <= error <= hi:
                raise SampleFailure(f"error_l2 {error:.6e} outside [{lo:.6e}, {hi:.6e}]")
            record["error_l2"] = error
        except SampleFailure as exc:
            record.update(ok=False, reason=str(exc))
        except Exception:  # the solver raised: a failed sample, not a crashed run
            record.update(ok=False, reason=traceback.format_exc(limit=4))
        t1 = time.perf_counter()
        tracer.close_root(t1)
        cpu_s = time.process_time() - cpu0
    finally:
        if not args.trace:
            sampler.stop()
        tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if record["ok"]:
        steps = tracer.counters["steps"]
        first, end, spent = marks["first_step"], marks["run_end"], sampler.spent
        record.update(
            wall_s=t1 - t0 - spent(t0, t1), cpu_s=cpu_s - spent(t0, t1),
            peak_rss_mb=peak_kb / 1024.0,
            setup_s=first - t0 - spent(t0, first), steps=steps,
            step_us=(end - first - spent(first, end)) / steps * 1e6,
            host_scale=sampler.scale(), probes=len(sampler.probes))
        if args.trace:
            layers = tracer.aggregate()
            record.update(layers=layers, counters=tracer.counters,
                          absent=tracer.absent,
                          self_sum_s=sum(entry[1] for entry in layers.values()))
            if args.spans_out:
                tracer.dump_spans(args.spans_out, t0)
        if args.describe:
            try:
                record["describe"] = describe(modules, marks["space"])
            except Exception as exc:  # sizes are context; a refactor must not sink the run
                record["describe_error"] = repr(exc)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
