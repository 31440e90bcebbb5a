#!/usr/bin/env python3
"""Perf ledger runner.

Builds perfbench_ledger from this checkout, generates the workload's input
from --seed (once per seed, outside everything measured), then starts one
fresh `perfbench_ledger run` process after another for --seconds. Each
process loads the input and runs the first scan of its life, so setup_s,
scan_s and peak_rss_mib are what a CLI user pays; the run reports their
medians. With --trace 1 it also runs one traced process and reports the
per-layer metrics instead.

Run from the repository root:

    python3 perfbench/run.py --workload fig13_50seq --seed 1 --seconds 30 --trace 0

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CHILDREN = 3
# A run must end within 180 s; stop starting children well before that.
CHILD_DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 150.0
# Seeded inputs are tens of MiB; keep this many per workload.
KEEP_INPUTS = 2


def say(message):
    print(f"perfbench: {message}", flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def child_env(build):
    env = dict(os.environ)
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # compilers and children write only here
    return env


def build_ledger(build):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: libomega sources (src/) not found beside perfbench/")
    env = child_env(build)
    if not (build / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build), "--target", "perfbench_ledger", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)
    return build / "perfbench_ledger"


def child_json(command, env):
    """Runs one ledger process and returns its last stdout line as JSON."""
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, check=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output from {command[1]}")
    return json.loads(lines[-1])


def ensure_input(ledger, build, env, workload, seed):
    inputs = build / "inputs"
    target = inputs / f"{workload}-seed{seed}"
    if not (target / "ready.json").is_file():
        staging = inputs / f"{workload}-seed{seed}.tmp"
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(target, ignore_errors=True)
        started = time.monotonic()
        info = child_json([str(ledger), "gen", "--workload", workload,
                           "--seed", str(seed), "--dir", str(staging)], env)
        (staging / "ready.json").write_text(json.dumps(info))
        staging.rename(target)
        say(f"generated {workload} seed {seed} in {time.monotonic() - started:.1f} s: "
            f"{info['sites']} sites x {info['haplotypes']} haplotypes, "
            f"{info['input_bytes'] / 2**20:.1f} MiB, "
            f"{info['reference_positions']} reference positions")
    target.touch()
    others = sorted((d for d in inputs.glob(f"{workload}-seed*") if d != target),
                    key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in others[KEEP_INPUTS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(values, unit):
    low, high = quartiles(values)
    return (f"median {statistics.median(values):.6g} {unit} "
            f"(quartiles {low:.6g}..{high:.6g}, n={len(values)})")


def run_children(ledger, env, workload, input_dir, seconds):
    runs = []
    started = time.monotonic()
    while len(runs) < MIN_CHILDREN or time.monotonic() - started < seconds:
        if time.monotonic() - started > CHILD_DEADLINE_S:
            break
        result = child_json([str(ledger), "run", "--workload", workload,
                             "--dir", str(input_dir)], env)
        runs.append(result)
        say(f"run {len(runs)}: ld={result['ld_engine']}/{result['ld_isa']} "
            f"kernel={result['cpu_kernel']} workers={result['workers']} "
            f"setup_s={result['setup_s']:.6f} s scan_s={result['scan_s']:.6f} s "
            f"peak_rss_mib={result['peak_rss_mib']:.2f} MiB "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"digest={result['digest']}")
        for problem in result["problems"]:
            say(f"  problem: {problem}")
    return runs


def consistency_problems(results):
    """Every scan of one input must give bitwise-identical scores and run on
    the same resolved defaults."""
    problems = []
    for key in ("digest", "ld_engine", "ld_isa", "cpu_kernel", "workers"):
        seen = sorted({str(result[key]) for result in results})
        if len(seen) > 1:
            problems.append(f"{key} differs between runs: {', '.join(seen)}")
    return problems


def per_layer_table(metrics, traced):
    calls = traced["omega_calls"]
    notes = {
        "omega.call_p50_us": f"p{calls['p50_pct']:.4g} of n={calls['samples']} calls",
        "omega.call_tail_us": (f"p{calls['tail_pct']:.4g} of n={calls['samples']} "
                               f"calls, {calls['tail_beyond']} beyond"),
    }
    say(f"{'metric':<28} {'value':>16}  unit")
    for name, entry in metrics.items():
        say(f"{name:<28} {entry['value']:>16.6g}  {entry['unit']:<6} {notes.get(name, '')}")


def traced_run(bench, ledger, env, build, args, input_dir, untraced_scan_s):
    """One traced process; returns its output and the per-layer metrics."""
    trace_out = build / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    traced = child_json([str(ledger), "trace", "--workload", args.workload,
                         "--dir", str(input_dir), "--trace-out", str(trace_out)], env)
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced["scan_s"] / untraced_scan_s - 1.0
    metrics = {}
    for entry in bench["per_layer"]:
        if entry["name"] not in layers:
            sys.exit(f"perfbench: traced run did not report {entry['name']}")
        metrics[entry["name"]] = {"value": layers[entry["name"]], "unit": entry["unit"]}

    say(f"traced run: {traced['spans']} spans written to {trace_out}")
    say(f"traced run: scan_s {traced['scan_s']:.6f} s against untraced median "
        f"{untraced_scan_s:.6f} s, trace.overhead {layers['trace.overhead']:+.4f}")
    for name, baseline in traced["baselines"].items():
        say(f"baseline {name}: scan_s {baseline['scan_s']:.6f} s, "
            f"r2_fetched {baseline['r2_fetched']}, digest {baseline['digest']}")
    for problem in traced["problems"]:
        say(f"  problem: {problem}")
    per_layer_table(metrics, traced)
    scan = traced["scan_s"]
    say(f"shares of traced scan_s {scan:.4f} s: omega {layers['omega.busy_s'] / scan:.1%}, "
        f"dp self + ld {(layers['dp.self_s'] + layers['ld.busy_s']) / scan:.1%} "
        f"(CPU-seconds summed over workers); "
        f"r2 fetch amplification {layers['ld.fetch_amplification']:.6f}")
    return traced, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload} (expected {names})")

    build = build_dir()
    ledger = build_ledger(build)
    env = child_env(build)
    input_dir = ensure_input(ledger, build, env, args.workload, args.seed)

    say(f"workload {args.workload} seed {args.seed}: measuring for {args.seconds:g} s")
    runs = run_children(ledger, env, args.workload, input_dir, args.seconds)
    results = list(runs)
    scan_values = [r["scan_s"] for r in runs]
    e2e = {
        "setup_s": [r["setup_s"] for r in runs],
        "scan_s": scan_values,
        "peak_rss_mib": [r["peak_rss_mib"] for r in runs],
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, values in e2e.items():
        say(f"{name}: {describe(values, units[name])}")

    if args.trace:
        traced, metrics = traced_run(bench, ledger, env, build, args, input_dir,
                                     statistics.median(scan_values))
        results.append(traced)
    else:
        metrics = {name: {"value": statistics.median(values), "unit": units[name]}
                   for name, values in e2e.items()}

    problems = consistency_problems(results)
    for problem in problems:
        say(f"problem: {problem}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    say(f"positions attempted {attempted}, failed {failed}; "
        f"score digest {results[0]['digest']}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def _terminate(signum, _frame):
    # Raising unwinds through subprocess.run, which kills and reaps the child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
