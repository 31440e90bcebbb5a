#!/usr/bin/env python3
"""List the src/ functions that no shipped program reaches.

"Shipped" means the omegaplus_scan CLI, the eight examples, the benches and
omega_metrics_diff; the unit tests are deliberately left out, so a function
this prints is reached by tests alone (or by nothing). The recipe:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Coverage \\
        "-DCMAKE_CXX_FLAGS=-O2 -fno-inline --coverage" -DOMEGA_BUILD_TESTS=OFF
    cmake --build build-cov -j4
    python3 tools/coverage_unreached.py build-cov

-fno-inline keeps every call a call, so a function's gcov entry count is its
real call count (an inlined copy would count in its caller instead).

The script runs every program of the recipe in a scratch directory under the
build tree, then calls `gcov --json-format --stdout` on every object file
(an object no binary linked has no .gcda and reads as never called), sums
each function's execution_count over all objects, and prints the src/
functions whose sum is zero. Functions named in the "Kept unreached
functions" table of DESIGN.md (shell-style patterns over the qualified name,
without the parameter list) are listed separately. Exit status 1 when a
zero-call function is not in that table, else 0.

    python3 tools/coverage_unreached.py build-cov --no-run   # query only
"""

import argparse
import collections
import fnmatch
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

# omegaplus_scan invocations: every backend, thread counts, streaming,
# checkpoint/resume under a deadline, fault injection, each input format and
# the observability outputs. {ms}/{vcf}/{fasta} are the generated inputs.
SIM = ["--simulate-snps", "1200", "--simulate-samples", "40", "--grid", "60"]
STREAM = ["--stream", "--chunk-sites", "300"]
FAULTS = ["--fault-mode", "mixed", "--fault-rate", "0.2", "--fault-seed", "7"]
SCANS = [
    (["--name", "cpu"] + SIM, 0),
    (["--name", "mt", "--threads", "3"] + SIM, 0),
    (["--name", "auto", "--threads", "0", "--cpu-kernel", "scalar"] + SIM, 0),
    (["--name", "portable", "--cpu-kernel", "portable", "--ld-engine", "naive"]
     + SIM, 0),
    (["--name", "gpu", "--backend", "gpu"] + SIM + FAULTS, 0),
    (["--name", "fpga", "--backend", "fpga"] + SIM + FAULTS, 0),
    (["--name", "lost", "--backend", "gpu", "--fault-mode", "device-lost",
      "--device-lost-after", "5"] + SIM, 0),
    (["--name", "dead", "--backend", "fpga", "--fault-mode", "timeout",
      "--fault-rate", "1.0", "--cpu-fallback", "false", "--max-retries", "1",
      "--modeled-timeout", "0.5", "--flight-recorder"] + SIM, 0),
    (["--name", "hetero", "--backend", "hetero", "--threads", "3"] + SIM, 0),
    # Every accelerator launch times out, so recovery gives up and the spans
    # go back to the CPU; with no CPU segment the CPU worker returns before
    # the first remainder is pushed, and the mop-up wave drains them.
    (["--name", "hetero_timeout", "--backend", "hetero", "--threads", "3",
      "--hetero-split", "0:1:1", "--modeled-timeout", "1e-12"] + SIM, 0),
    (["--name", "hetero_stream", "--backend", "hetero", "--threads", "3",
      "--hetero-split", "1:1:1"] + SIM + STREAM + FAULTS, 0),
    (["--name", "stream"] + SIM + STREAM, 0),
    (["--name", "stream_mt", "--threads", "3"] + SIM + STREAM, 0),
    (["--name", "ckpt", "--checkpoint", "--deadline-seconds", "0.000001"]
     + SIM + STREAM, 11),
    (["--name", "ckpt", "--checkpoint", "--resume"] + SIM + STREAM, 0),
    (["--name", "observed", "--metrics-json", "observed.json", "--trace-out",
      "observed.trace.json", "--metrics-text", "observed.prom",
      "--progress=0", "--perf-counters", "--flight-recorder"] + SIM, 0),
    (["--name", "planted", "--plant-sweep", "--maf", "0.05", "--snp-windows",
      "--minwin", "20", "--maxwin", "200", "--side-cap", "80"] + SIM, 0),
    (["--name", "structured", "--structured-sweep", "--simulate-samples",
      "30", "--grid", "40"], 0),
    (["--name", "ms", "--input", "{ms}", "--length", "1000000",
      "--grid", "60"], 0),
    (["--name", "ms_stream", "--input", "{ms}", "--length", "1000000",
      "--grid", "60"] + STREAM, 0),
    (["--name", "vcf", "--input", "{vcf}", "--grid", "60"], 0),
    (["--name", "vcf_stream", "--input", "{vcf}", "--grid", "60",
      "--threads", "2", "--checkpoint"] + STREAM, 0),
    # Resuming a finished checkpoint loads every score and the telemetry.
    (["--name", "vcf_stream", "--input", "{vcf}", "--grid", "60",
      "--threads", "2", "--checkpoint", "--resume"] + STREAM, 0),
    (["--name", "fasta", "--input", "{fasta}", "--grid", "20",
      "--minwin", "100", "--maxwin", "2000", "--length", "5000"], 0),
    (["--help"], 0),
    (["--name", "bad", "--no-such-flag", "1"], 2),
    (["--name", "bad", "--threads", "-3"], 2),
    (["--name", "bad", "--ld-engine", "bogus"], 2),
]

EXAMPLES = [
    ["quickstart"],
    ["sweep_scan"],
    ["accelerator_compare"],
    ["covid_like_scan", "--samples", "120"],
    ["signatures_tour"],
    ["ld_scan_tool"],
    ["convert_tool", "--simulate-snps", "600", "--output", "sim.ms"],
    ["convert_tool", "--input", "sim.ms", "--length", "1000000",
     "--output", "sim.vcf"],
    ["convert_tool", "--input", "sim.vcf", "--output", "roundtrip.ms",
     "--haploid"],
    ["convert_tool", "--input", "sim.fa", "--output", "fasta.vcf"],
]

# Every bench with its default arguments; bench_stream_scan at a smaller
# shape. A bench exits 1 when one of its speed gates fails, which does not
# matter here.
BENCHES = [
    ["bench_table1_fpga_resources"],
    ["bench_fig10_fpga_zcu102"],
    ["bench_fig11_fpga_alveo"],
    ["bench_fig12_gpu_kernels"],
    ["bench_fig13_gpu_complete"],
    ["bench_fig14_workloads"],
    ["bench_table4_multithreaded"],
    ["bench_mt_scaling"],
    ["bench_profile_breakdown"],
    ["bench_scan_hotpath"],
    ["bench_ablation_design"],
    ["bench_micro_kernels", "--benchmark_min_time=0.01"],
    ["bench_power_detection"],
    ["bench_integer_baseline"],
    ["bench_stream_scan", "6000", "30", "1000"],
    ["bench_ld_engines"],
    ["bench_hetero_split"],
    ["bench_perf_overhead"],
]


def write_fasta(path):
    """A small deterministic alignment: 24 sequences x 5,000 bp."""
    state = 12345
    bases = "ACGT"
    reference = []
    for _ in range(5000):
        state = (state * 1103515245 + 12345) % 2**31
        reference.append(bases[state % 4])
    with open(path, "w") as out:
        for s in range(24):
            sequence = list(reference)
            for site in range(0, 5000, 37):
                state = (state * 1103515245 + 12345) % 2**31
                if state % 3 == 0:
                    sequence[site] = bases[(bases.index(sequence[site]) + 1) % 4]
            out.write(f">seq{s}\n{''.join(sequence)}\n")


def run(command, work, expect=(0,)):
    """Runs one program; True when it exits with a status in `expect`."""
    expect = (expect,) if isinstance(expect, int) else expect
    done = subprocess.run(command, cwd=work, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    ok = done.returncode in expect
    print(f"  [{'ok' if ok else 'UNEXPECTED'} exit {done.returncode}] "
          f"{' '.join(command)}", flush=True)
    if not ok:
        print(done.stderr[-2000:], file=sys.stderr)
    return ok


def slowed_copy(source, target):
    """`source` with every "*seconds*" number ten times larger."""
    def slow(node, key=""):
        if isinstance(node, dict):
            return {k: slow(v, k) for k, v in node.items()}
        if isinstance(node, list):
            return [slow(v, key) for v in node]
        if isinstance(node, (int, float)) and not isinstance(node, bool) \
                and "seconds" in key:
            return node * 10
        return node
    with open(source) as handle:
        doc = json.load(handle)
    with open(target, "w") as handle:
        json.dump(slow(doc), handle)


def run_programs(build):
    work = build / "coverage_runs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    ok = True
    examples = build / "examples"
    write_fasta(work / "sim.fa")
    print("examples:", flush=True)
    for args in EXAMPLES:
        ok &= run([str(examples / args[0])] + args[1:], work)
    inputs = {"ms": "sim.ms", "vcf": "sim.vcf", "fasta": "sim.fa"}
    print("omegaplus_scan:", flush=True)
    for args, expect in SCANS:
        args = [a.format(**inputs) for a in args]
        ok &= run([str(examples / "omegaplus_scan")] + args, work, expect)
    print("benches:", flush=True)
    for args in BENCHES:
        binary = build / "bench" / args[0]
        if binary.exists():
            ok &= run([str(binary)] + args[1:], work, expect=(0, 1))
        else:
            print(f"  [missing] {args[0]}", flush=True)
    print("tools:", flush=True)
    diff = str(build / "tools" / "omega_metrics_diff")
    slowed_copy(work / "BENCH_SCAN.json", work / "BENCH_SCAN_slow.json")
    (work / "bad.json").write_text("{")
    ok &= run([diff, "BENCH_LD.json", "BENCH_LD.json"], work)
    ok &= run([diff, "--json", "--allow-schema-drift", "BENCH_SCAN.json",
               "BENCH_SCAN.json"], work)
    ok &= run([diff, "BENCH_SCAN.json", "BENCH_SCAN_slow.json"], work, 1)
    ok &= run([diff, "--json", "--all", "--watch", "seconds",
               "BENCH_SCAN.json", "BENCH_SCAN_slow.json"], work, 1)
    ok &= run([diff, "BENCH_LD.json"], work, expect=2)
    ok &= run([diff, "bad.json", "BENCH_LD.json"], work, expect=2)
    return ok


def source_root(build):
    cache = (build / "CMakeCache.txt").read_text()
    match = re.search(r"^CMAKE_HOME_DIRECTORY:INTERNAL=(.*)$", cache, re.M)
    return Path(match.group(1)).resolve()


def call_counts(build, root):
    """Summed gcov execution_count per (src-relative file, qualified name)."""
    counts = collections.Counter()
    names = {}
    notes = sorted(build.rglob("*.gcno"))
    for note in notes:
        done = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory",
             str(note.parent), str(note)],
            cwd=note.parent, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        for line in done.stdout.decode().splitlines():
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            cwd = Path(doc.get("current_working_directory", note.parent))
            for entry in doc["files"]:
                path = (cwd / entry["file"]).resolve()
                try:
                    rel = path.relative_to(root / "src")
                except ValueError:
                    continue
                for function in entry["functions"]:
                    demangled = function["demangled_name"]
                    key = (str(rel), function["start_line"], demangled)
                    counts[key] += function["execution_count"]
                    names[key] = qualified_name(demangled)
    return counts, names, len(notes)


def qualified_name(demangled):
    """The demangled name without parameter list, return type or ABI tag."""
    name = demangled.replace("(anonymous namespace)", "{anonymous}")
    name = re.sub(r"\[abi:[^]]*\]", "", name)
    depth = 0
    for i, char in enumerate(name):
        if char == "<":
            depth += 1
        elif char == ">":
            depth -= 1
        elif char == "(" and depth == 0:
            name = name[:i]
            break
    return name.split(" ")[-1]


def kept_patterns(root):
    """Backticked first-column entries of DESIGN.md's kept-functions table."""
    text = (root / "DESIGN.md").read_text()
    section = re.search(r"^#+ Kept unreached functions\n(.*?)(?=^#|\Z)",
                        text, re.M | re.S)
    if section is None:
        return []
    return re.findall(r"^\|\s*`([^`]+)`", section.group(1), re.M)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build", type=Path, help="coverage build directory")
    parser.add_argument("--no-run", action="store_true",
                        help="query the existing .gcda files only")
    args = parser.parse_args()
    build = args.build.resolve()
    root = source_root(build)
    if not args.no_run:
        for stale in build.rglob("*.gcda"):
            stale.unlink()
        if not run_programs(build):
            print("warning: a program exited with an unexpected status",
                  file=sys.stderr)
    counts, names, objects = call_counts(build, root)
    patterns = kept_patterns(root)
    zero = sorted(key for key, total in counts.items() if total == 0)
    kept = [k for k in zero
            if any(fnmatch.fnmatchcase(names[k], p) for p in patterns)]
    unexpected = [k for k in zero if k not in kept]
    print(f"{objects} object files, {len(counts)} src/ functions, "
          f"{len(zero)} never called ({len(kept)} kept by DESIGN.md)")
    for label, keys in (("kept", kept), ("unreached", unexpected)):
        for file, line, demangled in keys:
            print(f"{label}\tsrc/{file}:{line}\t{demangled}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
