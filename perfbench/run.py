#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build
when it is unset, then runs the workload and prints, as the last line of
standard output, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics.

A traced run first repeats the untraced run on the same seed, so it can
report tracing overhead (traced minus untraced end-to-end numbers). It
writes the Chrome trace-event file (Perfetto opens it) and the per-layer
table to bench_out/.

Exit status: 0 when every output checked out, 1 on a correctness
mismatch, 2 when the build fails or a run aborts (no result is printed).
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", "4"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            sys.exit(2)
    return build_dir / "perfbench"


def run_once(binary, args, trace_file=None):
    """Runs the binary; echoes its report and returns its JSON result."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        sys.exit(2)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"perfbench: run aborted (exit {done.returncode})")
        sys.exit(2)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def metrics_of(values, specs):
    """Picks the metrics `specs` names from `values`; all must be finite."""
    out = {}
    for spec in specs:
        v = values.get(spec["name"])
        if v is None or not math.isfinite(v):
            log(f"perfbench: metric {spec['name']} was not measured")
            sys.exit(2)
        out[spec["name"]] = {"value": v, "unit": spec["unit"]}
    return out


def layer_table(args, untraced, traced, bench):
    """The per-layer table: every per-layer metric, each span name's self
    time, and the tracing overhead on every end-to-end metric."""
    rows = [f"# perfbench per-layer table: {args.workload} seed {args.seed} "
            f"seconds {args.seconds}", "", "## per-layer metrics (traced run)"]
    for spec in bench["per_layer"]:
        rows.append(f"{spec['name']:34s} {traced['layers'][spec['name']]:14.6g} "
                    f"{spec['unit']}")
    rows += ["", "## self time by span (sampled epochs of the traced run)",
             f"{'span':22s} {'count':>9s} {'total_ms':>12s} {'self_ms':>12s}"]
    for name, row in sorted(traced["self_ms"].items()):
        rows.append(f"{name:22s} {row['count']:9d} {row['total_ms']:12.3f} "
                    f"{row['self_ms']:12.3f}")
    rows += ["", "## tracing overhead: traced minus untraced",
             f"{'metric':16s} {'untraced':>14s} {'traced':>14s} {'delta':>14s}"]
    for spec in bench["end_to_end"]:
        u = untraced["e2e"][spec["name"]]
        t = traced["e2e"][spec["name"]]
        rows.append(f"{spec['name']:16s} {u:14.6g} {t:14.6g} {t - u:+14.6g} "
                    f"{spec['unit']}")
    return "\n".join(rows) + "\n"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        log(f"perfbench: unknown workload {args.workload}")
        sys.exit(2)
    binary = build()

    result = run_once(binary, args)
    if args.trace:
        out_dir = ROOT / "bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        untraced = result
        result = run_once(binary, args, out_dir / f"trace-{stem}.json")
        result["correct"] = result["correct"] and untraced["correct"]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        metrics = metrics_of(result["layers"], bench["per_layer"])
        table = layer_table(args, untraced, result, bench)
        (out_dir / f"layers-{stem}.txt").write_text(table)
        print(table, end="")
        print(f"trace: bench_out/trace-{stem}.json  "
              f"table: bench_out/layers-{stem}.txt")
    else:
        metrics = metrics_of(result["e2e"], bench["end_to_end"])

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
