"""Command-line interface.

Subcommands: solve, sweep-h, sweep-dt, alpha, energy, verify.
Exit codes: 0 success, 2 configuration error, 3 numerical failure
(running out of memory included), 4 output/IO error. A reader that closes
stdout early (``... | head``) is not an error: the lines it read are
complete, so the exit code is 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from dataclasses import replace

from .harness import (_CONFIG_KEYS, _SWEEP_KINDS, ConfigError, RunConfig,
                      SweepError, config_from_sources, emit_outputs,
                      energy_study, parse_config_file, run_solve, sweep)
from .linalg import NotSPDError, SolverConvergenceError
from .manufactured import (ALPHA_TOLERANCE, CASE_IDS, AlphaSolveError,
                           fixed_point_map, make_case, solve_alpha,
                           verify_case)
from .stepper import ABORT, WARN, GuardTripError, SteppingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _add_common(parser):
    """Flags every run-based command honours."""
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--solver-tol", dest="solver_tol", type=float)
    parser.add_argument("--guard-floor", dest="guard_floor", type=float)
    parser.add_argument("--guard-ceiling", dest="guard_ceiling", type=float)
    parser.add_argument("--guard-policy", dest="guard_policy",
                        choices=[WARN, ABORT])
    parser.add_argument("--out-dir", dest="out_dir")


def _add_case(parser, swept=None):
    """Flags choosing one case and its discretization; a sweep has no flag
    for the key it varies (swept), so that key is refused, not ignored."""
    _add_common(parser)
    parser.add_argument("--case", choices=CASE_IDS)
    parser.add_argument("--k", type=int, help="polynomial degree (1, 2 or 3)")
    for key, conv, text in (("n", int, "elements (1D) or cells per side (2D)"),
                            ("delta", float, "time step")):
        if key != swept:
            parser.add_argument(f"--{key}", type=conv, help=text)
    parser.add_argument("--t-end", dest="t_end", type=float)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nonlocfem",
        description="Finite element experiments for a parabolic equation "
                    "with an L2-norm nonlocal diffusion coefficient.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one case and report the error")
    _add_case(p_solve)
    p_solve.add_argument("--snapshots", help="comma-separated snapshot times")
    p_solve.set_defaults(handler=_cmd_solve)

    # no prefix matching, or --n would be taken for --n-list
    p_sh = sub.add_parser("sweep-h", help="mesh-refinement convergence study",
                          allow_abbrev=False)
    _add_case(p_sh, swept="n")
    p_sh.add_argument("--n-list", dest="ladder", metavar="N_LIST",
                      required=True,
                      help="comma-separated mesh resolutions, e.g. 8,16,32,64")
    p_sh.set_defaults(handler=_cmd_sweep, kind="h")

    p_sd = sub.add_parser("sweep-dt", help="time-step convergence study",
                          allow_abbrev=False)
    _add_case(p_sd, swept="delta")
    p_sd.add_argument("--delta-list", dest="ladder", metavar="DELTA_LIST",
                      required=True,
                      help="comma-separated time steps, e.g. 0.1,0.05,0.025")
    p_sd.set_defaults(handler=_cmd_sweep, kind="delta")

    p_alpha = sub.add_parser("alpha", help="solve the profile fixed point")
    p_alpha.add_argument("case", choices=CASE_IDS)
    p_alpha.add_argument("--tolerance", type=float, default=ALPHA_TOLERANCE)
    p_alpha.set_defaults(handler=_cmd_alpha)

    p_energy = sub.add_parser("energy", help="energy time series for all cases")
    _add_common(p_energy)
    p_energy.add_argument("--cases", default=",".join(CASE_IDS),
                          help="comma-separated case ids")
    p_energy.set_defaults(handler=_cmd_energy)

    p_verify = sub.add_parser("verify", help="residual report for one case")
    p_verify.add_argument("case", choices=CASE_IDS)
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def _config_from_args(args) -> RunConfig:
    """Config file values overridden by flags. A command honours exactly the
    keys it has a flag for, so a file key without one is refused rather than
    silently ignored."""
    file_values = parse_config_file(args.config) if args.config else {}
    unused = [key for key in file_values if not hasattr(args, key)]
    if unused:
        raise ConfigError(f"{args.config}: {args.command} does not use "
                          f"{', '.join(unused)}")
    overrides = {key: getattr(args, key) for key in _CONFIG_KEYS
                 if hasattr(args, key)}
    return config_from_sources(file_values, overrides)


def _parse_list(raw, conv):
    """The comma-separated values of a list flag; an empty list is a
    ConfigError, so nothing runs and nothing is written."""
    try:
        values = [conv(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad list value: {exc}") from exc
    if not values:
        raise ConfigError(f"empty list {raw!r}")
    return values


def _print_guard_summary(report):
    counts = Counter(status.value for status in report.guard_status)
    print("guard log: " + ", ".join(f"{status}: {n}"
                                    for status, n in sorted(counts.items())))
    if report.first_guard_trip is not None:
        step, t, status = report.first_guard_trip
        print(f"first guard trip: {status.value} at step {step}, t = {t:.6g}")


def _cmd_solve(args) -> int:
    config = _config_from_args(args)
    report = run_solve(config)
    cfg = report.config
    print(f"case {cfg.case}: k={cfg.k} n={cfg.n} "
          f"h={report.final.space.mesh.h:.6g} "
          f"delta={report.metadata['delta']:.6g} t_end={cfg.t_end:g}")
    print(f"L2 error at t_end: {report.final_error:.12e}")
    print(f"final energy: {report.energy[-1]:.12e}")
    _print_guard_summary(report)
    paths = emit_outputs(report, cfg.out_dir)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    _, conv, axis, _, _ = _SWEEP_KINDS[args.kind]
    failure = None
    try:
        result = sweep(config, args.kind, _parse_list(args.ladder, conv))
    except SweepError as exc:
        # keep the rows that did run; report the failure after writing them
        result = exc.partial
        failure = exc
    paths = emit_outputs(result, config.out_dir)
    for row in result.rows:
        err = "failed" if row.error_l2 is None else f"{row.error_l2:.6e}"
        rate = "" if row.pairwise_rate is None else f"  rate {row.pairwise_rate:.3f}"
        print(f"{axis}={getattr(row, axis):.6g}  error {err}{rate}")
    if result.fitted_slope is None:
        print("fitted slope: undefined (needs at least two nonzero errors)")
    else:
        print(f"fitted slope: {result.fitted_slope:.4f}")
    for path in paths:
        print(f"wrote {path}")
    if failure is not None:
        print(f"numerical failure: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_alpha(args) -> int:
    if not args.tolerance > 0:
        raise ConfigError("--tolerance: tolerance must be positive, "
                          f"got {args.tolerance}")
    G, bracket = fixed_point_map(args.case)
    t0 = time.perf_counter()
    alpha = solve_alpha(G, bracket, args.tolerance)
    elapsed = time.perf_counter() - t0
    print(f"alpha({args.case}) = {alpha:.15f}")
    print(f"fixed-point residual: {abs(alpha - G(alpha)):.3e}")
    print(f"bracket: [{bracket[0]:g}, {bracket[1]:g}], "
          f"solve time: {elapsed * 1e3:.2f} ms")
    return EXIT_OK


def _cmd_energy(args) -> int:
    cases = _parse_list(args.cases, str)
    base = _config_from_args(args)
    study = energy_study([replace(base, case=case) for case in cases])
    paths = emit_outputs(study, base.out_dir)
    for case in cases:
        energy = study.reports[case].energy
        print(f"{case}: {len(energy)} samples, final energy "
              f"{energy[-1]:.6e}")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    case = make_case(args.case)
    report = verify_case(case)
    print(f"case {args.case} (gamma={case.gamma:g}, alpha={case.alpha:.15f})")
    print(f"max strong-form residual: {report.max_pde_residual:.3e}")
    print(f"fixed-point residual:     {report.fixed_point_residual:.3e}")
    print(f"boundary trace max:       {report.boundary_max:.3e}")
    print(f"initial mass:             {report.initial_mass:.6f}")
    print(f"coefficient consistency:  {report.coefficient_consistency:.3e}")
    return EXIT_OK


def _stdout_to_devnull():
    """Point stdout at os.devnull, so the flush at interpreter exit cannot
    raise on the closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        sys.stdout = open(os.devnull, "w")
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GuardTripError, SteppingError, NotSPDError, MemoryError,
            SolverConvergenceError, AlphaSolveError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_OK
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
