#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
perfbench executable against ../src into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; every metric name and unit is
checked against BENCHMARK.json before it is printed. Any failure exits
non-zero without printing a result.
"""
import argparse
import json
import math
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the perfbench executable; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found: expected src/ beside perfbench/")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            raise BenchError(f"build step {' '.join(cmd)} failed: {e}")
    exe = os.path.join(bdir, "perfbench")
    if not os.access(exe, os.X_OK):
        raise BenchError(f"build produced no executable at {exe}")
    return exe


def check_names(spec):
    """Metric and workload names follow the grammar and are used once."""
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            name = entry["name"]
            if not NAME_RE.match(name):
                raise BenchError(f"{group} name {name!r} breaks the name grammar")
            if name in seen:
                raise BenchError(f"name {name!r} is used twice")
            seen.add(name)
            if "unit" in entry and not UNIT_RE.match(entry["unit"]):
                raise BenchError(f"unit {entry['unit']!r} of {name} breaks the unit grammar")


def validate_result(spec, result, trace):
    """The result object carries exactly the metrics BENCHMARK.json lists."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        raise BenchError("the run reports incorrect output")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError(f"{key} must be a non-negative whole number")
    if result["attempted"] < 1 or result["failed"] > result["attempted"]:
        raise BenchError("attempted must be >= 1 and >= failed")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise BenchError(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in got.items():
        if not NAME_RE.match(name):
            raise BenchError(f"metric name {name!r} breaks the name grammar")
        if m.get("unit") != expected[name]:
            raise BenchError(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {expected[name]!r}")
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{name}: value {value!r} is not a finite number")


def run_workload(spec, exe, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; echoes its human-readable lines (metric, unit,
    sample count) and returns the validated result object."""
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"{workload}: {e}")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: last output line is not a JSON object")
    validate_result(spec, result, trace)
    for line in lines[:-1]:
        print(line)
    return result


PREDICTION_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*(.+?)\s*\|\s*(.+?)\s*\|")


def check_predictions(spec):
    """Every per-layer metric names, in NOTES.md's prediction table, the
    end-to-end metrics it should move and the workloads it moves them on."""
    with open(os.path.join(HERE, "NOTES.md")) as f:
        rows = {}
        for line in f:
            m = PREDICTION_ROW.match(line)
            if m:
                rows[m.group(1)] = (re.findall(r"`([^`]+)`", m.group(2)),
                                    re.findall(r"`([^`]+)`", m.group(3)))
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for metric in (m["name"] for m in spec["per_layer"]):
        if metric not in rows:
            raise BenchError(f"NOTES.md predicts nothing for per-layer metric {metric}")
        moves, on = rows[metric]
        if not moves or not set(moves) <= e2e:
            raise BenchError(f"{metric}: predicted end-to-end metrics {moves} not all in BENCHMARK.json")
        if not on or not set(on) <= workloads:
            raise BenchError(f"{metric}: predicted workloads {on} not all in BENCHMARK.json")


def self_test():
    spec = load_spec()
    check_names(spec)
    check_predictions(spec)
    exe = build()
    for w in spec["workloads"]:
        for trace in (False, True):
            run_workload(spec, exe, w["name"], seed=1, seconds=0.1, trace=trace, tiny=True)
            log(f"self-test: {w['name']} tiny trace={int(trace)} passed")
    print("perfbench self-test passed")


def main():
    # On SIGTERM, exit through subprocess.run so it kills and reaps the
    # running build or benchmark process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            self_test()
            return 0
        if not args.workload:
            raise BenchError("--workload is required")
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        exe = build()
        result = run_workload(spec, exe, args.workload, args.seed, seconds,
                              bool(args.trace), args.tiny)
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
