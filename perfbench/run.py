"""Solver benchmark: end-to-end and per-layer metrics of nonlocfem.

    python3 perfbench/run.py --workload ex1_banded_1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 90 --trace 0

Closed loop, one sample at a time: each sample is a fresh interpreter running
perfbench/sample.py, so every sample pays case construction (make_case is
cached per process) exactly as a CLI invocation does, and its peak RSS is
its own. BLAS threading is left at the library default.

The end-to-end times are scaled to a reference host speed: an untraced
sample runs a fixed probe kernel from a timer signal every 50 ms, takes the
probes' time out of its timings and scales them by the reference probe time
over its mean probe time (calibrate.py). The raw times are reported beside
them.

With --trace 0 the samples run untraced and the last line carries the
end-to-end metrics. With --trace 1 traced and untraced samples alternate in
seeded order; the last line carries the per-layer metrics, the tracing
overhead and the check that the layers' self times add up to the traced
wall time. --workload all interleaves the three workloads in seeded order
and prefixes each metric with its workload.

Every sample is checked for correctness (final L2 error against the
committed reference, and for the CLI workload the exit code and the emitted
files). Failed samples count in "failed" and do not stop the run. The full
record, environment included, is also written to perfbench/results/.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

from spans import LAYER_METRICS, TRACE_METRICS, layer_values  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "step_us": "us",
              "peak_rss_mb": "MB", "error_l2": "1"}
HOST_SCALED = ("wall_s", "setup_s", "step_us")   # times reported at the probe's reference speed
RUN_LIMIT_S = 165          # no sample starts or runs past this; a run must end within 180 s
TAIL_PERCENTILES = (99, 95, 90, 75)
SELF_SUM_TOLERANCE_S = 1e-6
PER_LAYER = {m: spec[0] for m, spec in LAYER_METRICS.items()} | TRACE_METRICS


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= RUN_LIMIT_S - 30:
        parser.error(f"--seconds must be between 1 and {RUN_LIMIT_S - 30}")
    return args


def check_declared_metrics():
    """BENCHMARK.json and this script must name the same metrics and workloads."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    declared = {
        "workloads": {w["name"] for w in spec["workloads"]},
        "end_to_end": {m["name"] for m in spec["end_to_end"]},
        "per_layer": {m["name"] for m in spec["per_layer"]},
    }
    produced = {
        "workloads": set(WORKLOADS),
        "end_to_end": set(END_TO_END),
        "per_layer": set(PER_LAYER),
    }
    for key in declared:
        if declared[key] != produced[key]:
            raise SystemExit(f"BENCHMARK.json {key} differ from perfbench: "
                             f"{sorted(declared[key] ^ produced[key])}")


def schedule(names, trace, rng):
    """Endless seeded interleaving of (workload, traced) pairs, in rounds."""
    kinds = (False, True) if trace else (False,)
    while True:
        batch = [(name, traced) for name in names for traced in kinds]
        rng.shuffle(batch)
        yield from batch


def run_sample(name, traced, snapshots, describe, spans_out, timeout):
    cmd = [sys.executable, "-B", str(BENCH / "sample.py"), name,
           "--snapshots", ",".join(repr(t) for t in snapshots)]
    if traced:
        cmd.append("--trace")
    if describe:
        cmd.append("--describe")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    failed = {"workload": name, "traced": traced, "ok": False}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return dict(failed, reason=f"sample timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return dict(failed, reason=f"exit {proc.returncode}, no record: "
                                   f"{proc.stderr.strip()[-600:]}")


def wall_tail(walls):
    """Highest listed percentile (nearest rank) with at least ten samples beyond it."""
    ordered, n = sorted(walls), len(walls)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return {"percentile": p, "value_s": ordered[rank - 1],
                    "beyond": n - rank, "samples": n}
    return {"percentile": None, "samples": n,
            "note": "fewer than ten samples beyond every listed percentile"}


def summarize(records, describe):
    """End-to-end and per-layer metrics of one workload's samples."""
    ok = [r for r in records if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    out = {"attempted": len(records), "failed": len(records) - len(ok),
           "fail_ratio": (len(records) - len(ok)) / len(records),
           "failures": [r["reason"] for r in records if not r["ok"]][:5],
           "describe": describe, "end_to_end": {}, "per_layer": {},
           "trace_valid": True}
    if plain:
        out["end_to_end"] = {
            m: statistics.median(r[m] * (r["host_scale"] if m in HOST_SCALED else 1.0)
                                 for r in plain)
            for m in END_TO_END}
        out["raw"] = {m: statistics.median(r[m] for r in plain) for m in HOST_SCALED}
        out["host_scale"] = statistics.median(r["host_scale"] for r in plain)
        out["steps"] = plain[0]["steps"]
        out["wall_tail"] = wall_tail([r["wall_s"] * r["host_scale"] for r in plain])
        out["cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        out["import_s"] = statistics.median(r["import_s"] for r in plain)
    if traced:
        per_sample = [layer_values(r["layers"], r["counters"], describe, r["absent"])
                      for r in traced]
        for metric in LAYER_METRICS:
            values = [v[metric] for v in per_sample if metric in v]
            if len(values) == len(per_sample):
                out["per_layer"][metric] = statistics.median(values)
        out["absent"] = {k: v for r in traced for k, v in r["absent"].items()}
        trace_wall = statistics.median(r["wall_s"] for r in traced)
        out["trace_valid"] = all(abs(r["self_sum_s"] - r["wall_s"]) <= SELF_SUM_TOLERANCE_S
                                 for r in traced)
        trace = {
            "trace.wall_s": trace_wall,
            "trace.self_sum_s": statistics.median(r["self_sum_s"] for r in traced),
            "trace.attributed_share": statistics.median(
                1.0 - r["layers"]["sample"][1] / r["wall_s"] for r in traced),
            "trace.samples": len(traced),
        }
        if plain:
            untraced_wall = out["raw"]["wall_s"]
            trace["trace.untraced_wall_s"] = untraced_wall
            trace["trace.overhead_s"] = trace_wall - untraced_wall
        out["per_layer"].update(trace)
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest():
    """SHA-256 over the package sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(describes):
    library = next((d for d in describes.values() if d), {})
    return {
        "python": platform.python_version(),
        "numpy": library.get("numpy"),
        "scipy": library.get("scipy"),
        "blas": library.get("blas"),
        "blas_threads": library.get("blas_threads"),
        "blas_env": library.get("blas_env"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def print_report(name, s):
    d = s["describe"] or {}
    print(f"{name}: {s['attempted']} samples, {s['failed']} failed "
          f"(fail_ratio {s['fail_ratio']:.3g}); unknowns {d.get('unknowns')}, "
          f"nnz {d.get('nnz')}, steps {s.get('steps')}")
    for metric, unit in END_TO_END.items():
        if metric in s["end_to_end"]:
            print(f"  {metric:<28} {s['end_to_end'][metric]:.6g} {unit}")
    for metric, value in s.get("raw", {}).items():
        print(f"  {metric + ' (raw)':<28} {value:.6g} {END_TO_END[metric]}")
    if "host_scale" in s:
        print(f"  {'host_scale':<28} {s['host_scale']:.6g}")
    tail = s.get("wall_tail")
    if tail and tail["percentile"] is not None:
        print(f"  wall_s p{tail['percentile']:<25} {tail['value_s']:.6g} s "
              f"({tail['beyond']} samples beyond, n={tail['samples']})")
    elif tail:
        print(f"  wall_s tail: {tail['note']} (n={tail['samples']})")
    for metric, value in s["per_layer"].items():
        print(f"  {metric:<28} {value:.6g} {PER_LAYER[metric]}")
    for key, why in s.get("absent", {}).items():
        print(f"  absent: {key}: {why}")
    if not s["trace_valid"]:
        print("  trace invalid: layer self times do not add up to the traced wall time")
    for reason in s["failures"]:
        print(f"  failure: {reason.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nonlocfem" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'nonlocfem'}", file=sys.stderr)
        return 2
    check_declared_metrics()
    RESULTS.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)

    start = time.monotonic()
    records = {name: [] for name in names}
    describes = {name: None for name in names}
    needed = {(name, traced) for name in names
              for traced in ((False, True) if args.trace else (False,))}
    took = {}      # (workload, traced) -> process durations of its samples so far
    for name, traced in schedule(names, args.trace, rng):
        elapsed = time.monotonic() - start
        # start a sample only if a typical one ends inside the run
        typical = statistics.median(took.get((name, traced), [0.0]))
        if elapsed + typical > RUN_LIMIT_S - 15:
            break
        if elapsed + typical > args.seconds and needed <= took.keys():
            break
        spans_out = None
        if traced and not any(r["traced"] for r in records[name]):
            spans_out = RESULTS / f"spans_{name}_seed{args.seed}.json"
        record = run_sample(name, traced, WORKLOADS[name].snapshot_times(rng),
                            describe=describes[name] is None, spans_out=spans_out,
                            timeout=RUN_LIMIT_S - elapsed)
        describes[name] = describes[name] or record.get("describe")
        records[name].append(record)
        took.setdefault((name, traced), []).append(time.monotonic() - start - elapsed)

    summaries = {name: summarize(records[name], describes[name]) for name in names}
    for name in names:
        print_report(name, summaries[name])

    metrics = {}
    for name, s in summaries.items():
        prefix = "" if args.workload != "all" else name + "."
        if args.trace:
            chosen = {m: (v, PER_LAYER[m]) for m, v in s["per_layer"].items()}
        else:
            chosen = {m: (s["end_to_end"][m], END_TO_END[m]) for m in s["end_to_end"]}
        metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in chosen.items()})
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    expected = set(PER_LAYER if args.trace else END_TO_END)
    complete = all(expected <= set(s["per_layer"] if args.trace else s["end_to_end"])
                   for s in summaries.values())

    env = environment(describes)
    result = {"correct": failed == 0 and all(s["trace_valid"] for s in summaries.values()),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "elapsed_s": time.monotonic() - start, "env": env,
            "summaries": summaries, "samples": records, "result": result}
    (RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, default=str))
    print(json.dumps({"env": env, "workloads": {
        name: {"unknowns": (s["describe"] or {}).get("unknowns"),
               "nnz": (s["describe"] or {}).get("nnz"),
               **{k: s.get(k) for k in ("steps", "attempted", "failed", "fail_ratio",
                                        "wall_tail", "raw", "host_scale", "cpu_s", "import_s",
                                        "absent")}}
        for name, s in summaries.items()}}))
    if not metrics:
        print("no sample succeeded; no metrics to report", file=sys.stderr)
        return 1
    if not complete:
        print("some metrics could not be measured (see 'absent' above)", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
