#!/usr/bin/env python3
"""End-to-end simulator benchmark: build it, then run one workload.

Builds the benchmark binary from the checkout's sources (CMake,
Release) and runs one workload:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The build tree is
$CARGO_TARGET_DIR (default .bench_build) under the checkout root;
traced runs write their spans to <build tree>/traces.

    python3 perfbench/run.py --self-check

runs every workload briefly in both modes and checks each result
against BENCHMARK.json: every metric present with its unit, and
nothing failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure (once) and build the benchmark; the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return None
    tree = build_dir() / "perfbench"
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(tree), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return tree / "perfbench"


def run_binary(binary, workload, seed, seconds, trace):
    """Run one workload; (returncode, stdout lines, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden", str(BENCH_DIR / "golden.txt"),
           "--trace-dir", str(build_dir() / "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {BINARY_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def self_check(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{wl['name']} --trace {trace}"
            rc, _, res = run_binary(binary, wl["name"], 1, 2, trace)
            if res is None:
                problems.append(f"{name}: exit {rc}, no result")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(res)}")
            if not res.get("correct") or res.get("failed") != 0 \
                    or res.get("attempted", 0) < 1:
                problems.append(f"{name}: correct={res.get('correct')} "
                                f"attempted={res.get('attempted')} "
                                f"failed={res.get('failed')}")
            got = res.get("metrics", {})
            for m in spec[key]:
                if m["name"] not in got:
                    problems.append(f"{name}: missing {m['name']}")
                elif got[m["name"]].get("unit") != m["unit"]:
                    problems.append(f"{name}: {m['name']} unit "
                                    f"{got[m['name']].get('unit')} != "
                                    f"{m['unit']}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{name}: unlisted metrics {sorted(extra)}")
            log(f"self-check {name}: done")
    for p in problems:
        log("self-check FAIL " + p)
    log("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.self_check:
        return self_check(binary)
    if not args.workload:
        ap.error("--workload is required")
    rc, lines, result = run_binary(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        log(f"no result (exit {rc})")
        return rc or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
