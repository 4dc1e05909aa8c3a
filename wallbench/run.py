#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark (see wallbench/README.md).

From the repository root:

  python3 wallbench/run.py --workload offline_wide --seed 1 --seconds 35 --trace 0
  python3 wallbench/run.py --selftest

The first call configures and builds wallbench/ (a CMake package that
compiles the library from src/) in .bench_build/wallbench with
CMAKE_BUILD_TYPE=Release; later calls only re-check the build.  The
benchmark's last stdout line is its result object; this script passes the
binary's output and exit code through unchanged.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wallbench")
# A run measures for --seconds; the traced pass can overrun that by one
# pair of instances and the layer pass.  Past this, the run is stopped.
TIMEOUT_FACTOR, TIMEOUT_MARGIN_S = 2, 60
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg, code=2):
    print(f"wallbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found next to wallbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
               "--target", *targets])


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_binary(args, seconds):
    timeout = TIMEOUT_FACTOR * seconds + TIMEOUT_MARGIN_S
    try:
        return subprocess.run([os.path.join(BUILD_DIR, "wallbench"), *args],
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout} s and was stopped", code=1)


def check_benchmark_json(listed):
    """BENCHMARK.json names exactly the metrics the binary prints, well formed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for section in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in bench[section]]
        if declared != listed[section]:
            problems.append(f"{section} differs from `wallbench --list-metrics`")
        for name, unit in declared:
            if not NAME_RE.match(name) or not UNIT_RE.match(unit):
                problems.append(f"malformed metric {name!r} / unit {unit!r}")
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25 or m["better"] not in ("lower", "higher"):
            problems.append(f"bad bound or direction on {m['name']}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"]):
        problems.append("setup_s (s, lower) missing")
    return problems


def selftest():
    build(["wallbench", "wallbench_selftest"])
    code = subprocess.run([os.path.join(BUILD_DIR, "wallbench_selftest")]).returncode
    proc = subprocess.run([os.path.join(BUILD_DIR, "wallbench"), "--list-metrics"],
                          stdout=subprocess.PIPE, text=True, check=True)
    listed = {"end_to_end": [], "per_layer": []}
    for line in proc.stdout.splitlines():
        section, name, unit = line.split()
        listed[section].append((name, unit))
    problems = check_benchmark_json(listed)
    for p in problems:
        print(f"FAIL {p}")
    print(f"{'ok  ' if not problems else 'FAIL'} BENCHMARK.json matches the metric catalogue")
    return 0 if code == 0 and not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds")
    ap.add_argument("--trace")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.seconds.isdigit():
        ap.error("--seconds must be a whole number")
    build(["wallbench"])
    sys.exit(run_binary(["--workload", args.workload, "--seed", args.seed, "--seconds",
                         args.seconds, "--trace", args.trace, "--commit", commit_id()],
                        int(args.seconds)))


if __name__ == "__main__":
    main()
