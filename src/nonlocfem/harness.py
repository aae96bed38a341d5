"""Experiment harness: single solves, h- and delta-sweeps, energy studies.

Configuration is a flat key=value text file plus command-line overrides
(flags win). Results are written as CSV tables with fixed schemas and
self-contained SVG line charts; identical configurations produce
byte-identical files. A .meta.txt sidecar records the ladder and
quadrature choices behind each table.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import assembly_degree, error_degree, l2_error
from .coefficient import DEFAULT_CEILING, DEFAULT_FLOOR, NonlocalCoefficient
from .linalg import method_for_dim
from .manufactured import CASE_IDS, make_case
from .mesh import build_lagrange_space, uniform_interval_mesh, uniform_square_mesh
from .stepper import (ABORT, DEFAULT_SOLVER_TOL, WARN, TimeGrid,
                      TrajectorySummary, run)

logger = logging.getLogger(__name__)

SWEEP_HEADER = "case,k,h,delta,t_end,error_l2,pairwise_rate"
ENERGY_HEADER = "case,t,energy,log_energy"

def _snapshot_times(raw) -> tuple:
    """Snapshot times from a comma- or semicolon-separated string or a sequence."""
    if isinstance(raw, str):
        raw = [p for p in raw.replace(";", ",").split(",") if p.strip()]
    return tuple(float(v) for v in raw)


def _snapshot_tag(t) -> str:
    """The tag of a requested snapshot time: its file names
    run_..._snapshot_<tag>.csv, and its grid time is the .meta.txt line
    snapshot_<tag> = <t>."""
    return f"t{t:g}"


# every config key, in RunConfig field order, with the converter from its
# file text or flag value
_CONFIG_KEYS = {
    "case": str, "k": int, "n": int, "delta": float, "t_end": float,
    "solver_tol": float, "guard_floor": float, "guard_ceiling": float,
    "guard_policy": str, "out_dir": str, "snapshots": _snapshot_times,
}


# each sweep kind: the RunConfig key its ladder sets and that key's
# converter, the SweepRow field on its x axis, its file tag, and the key it
# keeps fixed
_SWEEP_KINDS = {"h": ("n", int, "h", "h", "delta"),
                "delta": ("delta", float, "delta", "dt", "n")}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class SweepError(RuntimeError):
    """One or more sweep rows failed; partial results are attached."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


@dataclass
class RunConfig:
    """One solve: discretization, guards, solver, and output settings.

    The case fixes the dimension, and the dimension fixes the solver backend.
    """

    case: str = "example1"
    k: int | None = None
    n: int | None = None
    delta: float | None = None
    t_end: float | None = None
    solver_tol: float = DEFAULT_SOLVER_TOL
    guard_floor: float = DEFAULT_FLOOR
    guard_ceiling: float = DEFAULT_CEILING
    guard_policy: str = WARN
    out_dir: str = "out"
    snapshots: tuple = ()

    def resolved(self) -> "RunConfig":
        """Fill unset fields from the case defaults and validate."""
        if self.case not in CASE_IDS:
            raise ConfigError(f"unknown case {self.case!r}; expected one of "
                              f"{', '.join(CASE_IDS)}")
        case = make_case(self.case)
        cfg = replace(
            self,
            k=case.default_k if self.k is None else self.k,
            n=case.default_n if self.n is None else self.n,
            delta=case.default_delta if self.delta is None else self.delta,
            t_end=case.default_t_end if self.t_end is None else self.t_end,
        )
        # k and n are integers; a NumPy integer is one, and 2.0 is not, nor
        # is a bool, an int to Python that would run True as degree 1
        k_int, n_int = (isinstance(v, (int, np.integer))
                        and not isinstance(v, bool) for v in (cfg.k, cfg.n))
        if not (k_int and cfg.k in (1, 2, 3)):
            raise ConfigError(f"polynomial degree must be 1, 2 or 3, got {cfg.k}")
        if not n_int:
            raise ConfigError(f"n must be an integer, got {cfg.n!r}")
        for name in ("n", "delta", "t_end", "solver_tol", "guard_floor",
                     "guard_ceiling"):
            value = getattr(cfg, name)
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
            if name in ("delta", "t_end") and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        # the step count is an array length: t_end / delta, before rounding,
        # must lie below the largest one (an infinite quotient does not)
        steps, largest = cfg.t_end / cfg.delta, np.iinfo(np.intp).max
        if not steps < largest:
            raise ConfigError(f"t_end / delta = {steps:g} steps, not below "
                              f"the largest array length {largest}")
        # at a bound of 1 or more, x = 0 passes the verify of every solve
        if not cfg.solver_tol < 1:
            raise ConfigError(f"solver_tol must be below 1, got {cfg.solver_tol}")
        if not cfg.guard_ceiling > cfg.guard_floor:
            raise ConfigError(f"guard_ceiling must exceed guard_floor, got "
                              f"{cfg.guard_ceiling:g} <= {cfg.guard_floor:g}")
        if cfg.guard_policy not in (WARN, ABORT):
            raise ConfigError(f"guard_policy must be {WARN} or {ABORT}, "
                              f"got {cfg.guard_policy!r}")
        tags = {}
        for t in cfg.snapshots:
            if not 0.0 <= t <= cfg.t_end:
                raise ConfigError(f"snapshot time {t:g} lies outside "
                                  f"[0, t_end={cfg.t_end:g}]")
            # the tag names the snapshot file, so equal tags would overwrite
            tag = _snapshot_tag(t)
            if tag in tags:
                raise ConfigError(f"snapshot times {tags[tag]!r} and {t!r} "
                                  f"share the file tag {tag}")
            tags[tag] = t
        return cfg


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                                  f"got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values


def config_from_sources(file_values: dict | None = None,
                        overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from file values and CLI overrides (overrides win)."""
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is not None:
                merged[key] = value
    try:
        kwargs = {key: conv(merged[key]) for key, conv in _CONFIG_KEYS.items()
                  if key in merged}
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return RunConfig(**kwargs)


@dataclass
class RunReport(TrajectorySummary):
    """Outcome of one solve against a manufactured case: its trajectory,
    the resolved config and the final L2 error; the mesh size is
    final.space.mesh.h."""

    config: RunConfig
    final_error: float
    metadata: dict


@dataclass
class SweepRow:
    h: float
    delta: float
    error_l2: float | None
    pairwise_rate: float | None


@dataclass
class SweepResult:
    case: str
    kind: str            # a key of _SWEEP_KINDS
    k: int
    rows: list
    fitted_slope: float | None
    metadata: dict = field(default_factory=dict)


@dataclass
class EnergyStudy:
    reports: dict        # case -> RunReport, in the order the cases ran


def _build_mesh(config: RunConfig, dim: int):
    if dim == 1:
        return uniform_interval_mesh(config.n)
    return uniform_square_mesh(config.n)


def _time_grid(config: RunConfig) -> TimeGrid:
    """The steps of a run: delta rounded so that it divides t_end."""
    return TimeGrid(t_end=config.t_end,
                    n_steps=max(1, round(config.t_end / config.delta)))


def _metadata(config: RunConfig, dim: int) -> dict:
    """The .meta.txt entries of every run and sweep: the case, k, t_end and
    the quadrature and solver choices."""
    return {
        "case": config.case,
        "k": config.k,
        "t_end": config.t_end,
        "assembly_quadrature_degree": assembly_degree(config.k),
        "error_quadrature_degree": error_degree(dim, config.k),
        "solver_method": method_for_dim(dim),
        "solver_tol": config.solver_tol,
    }


def run_solve(config: RunConfig) -> RunReport:
    """Run one case to t_end and measure the final L2 error."""
    config = config.resolved()
    case = make_case(config.case)
    space = build_lagrange_space(_build_mesh(config, case.dim), config.k)
    grid = _time_grid(config)
    if abs(grid.delta - config.delta) > 1e-9 * config.delta:
        logger.warning("delta %g does not divide t_end %g; stepping with "
                       "delta %r", config.delta, config.t_end, grid.delta)
    coeff = NonlocalCoefficient(gamma=case.gamma, floor_m=config.guard_floor,
                                ceil_M=config.guard_ceiling)
    traj = run(space, case.u0, case.f, coeff, grid,
               solver_tol=config.solver_tol,
               guard_policy=config.guard_policy,
               snapshot_times=config.snapshots)
    final_error = l2_error(traj.final, case.u, grid.t_end)
    shared = _metadata(config, case.dim)
    # energy_study's .meta.txt prints this dict whole, so n and delta keep
    # their place after case and k
    metadata = dict(case=shared.pop("case"), k=shared.pop("k"), n=config.n,
                    delta=grid.delta, **shared,
                    guard_floor=config.guard_floor,
                    guard_ceiling=config.guard_ceiling,
                    guard_policy=config.guard_policy)
    metadata.update((f"snapshot_{_snapshot_tag(t_req)}", t)
                    for t_req, (t, _) in traj.snapshots.items())
    return RunReport(**vars(traj), config=config, final_error=final_error,
                     metadata=metadata)


def _fit_slope(xs, errors) -> float | None:
    pts = [(x, e) for x, e in zip(xs, errors) if e is not None and e > 0.0]
    if len(pts) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    le = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, le, 1)[0])


def _pairwise_rates(errors):
    rates = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev is None or cur is None or prev <= 0.0 or cur <= 0.0:
            rates.append(None)
        else:
            rates.append(math.log2(prev / cur))
    return rates


def sweep(config: RunConfig, kind: str, values) -> SweepResult:
    """Errors at t_end over a ladder of one kind of _SWEEP_KINDS: "h" sets
    n (n ascending = h descending), "delta" sets the time step.

    A row whose run fails keeps its h and delta with no error; after the
    last row, SweepError names every failed row by its ladder value and
    carries the result."""
    values = list(values)
    if not values:
        raise ConfigError(f"empty {kind} ladder: a sweep needs at least one row")
    key, conv, axis, _, fixed = _SWEEP_KINDS[kind]
    config = config.resolved()
    dim = make_case(config.case).dim
    # every row is resolved before any runs, so a bad ladder value is a
    # ConfigError; each row's h and delta come from the mesh and time grid
    # that run_solve builds, whether or not its run succeeds
    row_cfgs = [replace(config, **{key: conv(value)}).resolved()
                for value in values]
    rows = []
    failures = []
    for row_cfg in row_cfgs:
        h, delta = _build_mesh(row_cfg, dim).h, _time_grid(row_cfg).delta
        try:
            err: float | None = run_solve(row_cfg).final_error
        except Exception as exc:  # keep remaining rows; re-raise at the end
            err = None
            failures.append(f"{key}={getattr(row_cfg, key)}: {exc}")
        rows.append(SweepRow(h=h, delta=delta, error_l2=err,
                             pairwise_rate=None))
    errors = [row.error_l2 for row in rows]
    for row, rate in zip(rows, _pairwise_rates(errors)):
        row.pairwise_rate = rate
    meta = dict(_metadata(config, dim), sweep=kind, ladder=list(values))
    meta[f"fixed_{fixed}"] = getattr(config, fixed)
    slope = _fit_slope([getattr(row, axis) for row in rows], errors)
    result = SweepResult(case=config.case, kind=kind, k=config.k, rows=rows,
                         fitted_slope=slope, metadata=meta)
    if failures:
        raise SweepError(f"{len(failures)} of {len(values)} sweep rows "
                         f"failed: {'; '.join(failures)}", result)
    return result


def energy_study(configs) -> EnergyStudy:
    """Per-step energy time series for several cases in one table; no
    configs, a case that appears twice or any invalid config raises
    ConfigError before any case runs."""
    configs = list(configs)
    if not configs:
        raise ConfigError("empty energy study: it needs at least one case")
    cases = [config.case for config in configs]
    if len(set(cases)) < len(cases):
        # the metadata and the chart keep one entry per case
        raise ConfigError(f"energy study repeats a case: {', '.join(cases)}")
    configs = [config.resolved() for config in configs]
    return EnergyStudy(reports={config.case: run_solve(config)
                                for config in configs})


# ---------------------------------------------------------------------------
# output emission


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _write_text(path: str, text: str):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def sweep_csv(result: SweepResult) -> str:
    lines = [SWEEP_HEADER]
    for row in result.rows:
        err = "" if row.error_l2 is None else _fmt(row.error_l2)
        rate = "" if row.pairwise_rate is None else _fmt(row.pairwise_rate)
        lines.append(",".join([result.case, str(result.k), _fmt(row.h),
                               _fmt(row.delta), _fmt(result.metadata["t_end"]),
                               err, rate]))
    return "\n".join(lines) + "\n"


def energy_csv(runs: dict) -> str:
    """The energy table of runs keyed by case: a row per time level of
    each, its time from the run's grid."""
    lines = [ENERGY_HEADER]
    for case, traj in runs.items():
        for n, energy in enumerate(traj.energy.tolist()):
            log_e = "-inf" if energy <= 0.0 else _fmt(math.log(energy))
            lines.append(",".join([case, _fmt(traj.grid.time(n)),
                                   _fmt(energy), log_e]))
    return "\n".join(lines) + "\n"


def meta_text(metadata: dict) -> str:
    lines = [f"{key} = {metadata[key]}" for key in sorted(metadata)]
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def svg_chart(title: str, xlabel: str, ylabel: str, series) -> str:
    """Self-contained SVG line chart; both axes carry log10-transformed data.

    series: list of (label, points) with the (x, y) points already
    log10-scaled; points that are not finite are left out.
    Deterministic output: fixed canvas, palette, and float formatting.
    """
    width, height = 640, 480
    ml, mr, mt, mb = 72, 24, 36, 56
    series = [(label, [(x, y) for x, y in points
                       if math.isfinite(x) and math.isfinite(y)])
              for label, points in series]
    finite = [p for _, points in series for p in points]
    if finite:
        x0 = min(x for x, _ in finite)
        x1 = max(x for x, _ in finite)
        y0 = min(y for _, y in finite)
        y1 = max(y for _, y in finite)
    else:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f'{xlabel}</text>',
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})">'
        f'{ylabel}</text>',
    ]
    for tick in range(math.ceil(x0 - 1e-9), math.floor(x1 + 1e-9) + 1):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" '
                     f'y2="{height - mb + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - mb + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{tick}</text>')
    for tick in range(math.ceil(y0 - 1e-9), math.floor(y1 + 1e-9) + 1):
        y = py(tick)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick}</text>')
    for i, (label, points) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(px(x), py(y)) for x, y in points]
        if pts:
            d = "M " + " L ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(f'<path d="{d}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
            for x, y in pts:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                             f'fill="{color}"/>')
        ly = mt + 16 + 16 * i
        parts.append(f'<line x1="{width - mr - 130}" y1="{ly - 4}" '
                     f'x2="{width - mr - 110}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr - 104}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _sweep_files(result: SweepResult) -> list:
    _, _, axis, tag, _ = _SWEEP_KINDS[result.kind]
    base = f"sweep_{tag}_{result.case}_k{result.k}"
    meta = dict(result.metadata)
    if result.fitted_slope is not None:
        meta["fitted_slope"] = result.fitted_slope
    points = [(math.log10(getattr(row, axis)), math.log10(row.error_l2))
              for row in result.rows
              if row.error_l2 is not None and row.error_l2 > 0.0]
    chart = svg_chart(f"{result.case} {tag}-sweep, k={result.k}",
                      f"log10({axis})", "log10(L2 error)",
                      [(f"k={result.k}", points)])
    return [(base + ".csv", sweep_csv(result)),
            (base + ".meta.txt", meta_text(meta)), (base + ".svg", chart)]


def _energy_files(study: EnergyStudy) -> list:
    reports = study.reports
    files = [("energy_study.csv", energy_csv(reports)),
             ("energy_study.meta.txt", meta_text(
                 {case: report.metadata for case, report in reports.items()}))]
    series = [(case, [(reports[case].grid.time(n),
                       math.log10(e) if e > 0 else math.nan)
                      for n, e in enumerate(reports[case].energy.tolist())])
              for case in sorted(reports)]
    files.append(("energy_study.svg", svg_chart(
        "energy vs time", "t", "log10(energy)", series)))
    return files


def _snapshot_csv(field_vec) -> str:
    """x,u (or x,y,u) rows of a field, its nodes in lexicographic order."""
    coords = field_vec.space.nodes
    lines = ["x,u" if coords.shape[1] == 1 else "x,y,u"]
    for idx in np.lexsort(coords.T[::-1]):
        lines.append(",".join([*map(_fmt, coords[idx]),
                               _fmt(field_vec.coefficients[idx])]))
    return "\n".join(lines) + "\n"


def _run_files(report: RunReport) -> list:
    case = report.config.case
    base = f"run_{case}_k{report.config.k}"
    meta = dict(report.metadata, final_error_l2=report.final_error)
    if report.first_guard_trip is not None:
        step, t, status = report.first_guard_trip
        meta["first_guard_trip"] = f"step {step} t={t:.6g} {status.value}"
    return [(base + ".csv", energy_csv({case: report})),
            (base + ".meta.txt", meta_text(meta)),
            *((f"{base}_snapshot_{_snapshot_tag(t_req)}.csv", _snapshot_csv(u))
              for t_req, (_, u) in sorted(report.snapshots.items()))]


# the (file name, text) pairs written for each result type
_FILES = {SweepResult: _sweep_files, EnergyStudy: _energy_files,
          RunReport: _run_files}


def emit_outputs(result, out_dir: str) -> list[str]:
    """Write the CSV, SVG and metadata files of one result; returns paths."""
    if type(result) not in _FILES:
        raise TypeError(f"cannot emit {type(result).__name__}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in _FILES[type(result)](result):
        path = os.path.join(out_dir, name)
        _write_text(path, text)
        written.append(path)
    return written
