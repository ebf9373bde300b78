#!/usr/bin/env python3
"""Runs one workload of the tecopt benchmark and prints its metrics.

    python3 perfbench/run.py --workload <table1|explore|transient|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark crate in this
directory (release, offline) into $CARGO_TARGET_DIR (default
.bench_build), runs the workload, prints every metric it reports by name
with its unit, and ends with one JSON line: `correct`, `attempted`,
`failed`, and the metrics BENCHMARK.json declares for the mode
(`end_to_end` untraced, `per_layer` traced). Exits non-zero, printing no
result, when the build, the run or its output is broken.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def declared(spec, trace):
    """The metrics the result line carries for this mode: name -> unit."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def parse_result(line, wanted):
    """Parses and checks the program's result line against `wanted`
    (name -> unit); returns the result with exactly those metrics."""
    try:
        raw = json.loads(line)
    except ValueError as e:
        raise BenchError(f"result line is not JSON: {e}") from e
    if not isinstance(raw, dict) or set(raw) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result line does not have exactly the four result keys")
    if not isinstance(raw["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(raw[key], int) or isinstance(raw[key], bool) or raw[key] < 0:
            raise BenchError(f"{key} is not a whole number")
    if raw["attempted"] < 1 or raw["failed"] > raw["attempted"]:
        raise BenchError("attempted must be at least 1 and at least failed")
    metrics = {}
    for name, m in raw["metrics"].items():
        if not NAME.match(name) or not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise BenchError(f"malformed metric {name!r}")
        value, unit = m["value"], m["unit"]
        if not isinstance(unit, str) or not UNIT.match(unit):
            raise BenchError(f"malformed unit {unit!r} of {name}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise BenchError(f"metric {name} is not a finite number")
        metrics[name] = {"value": value, "unit": unit}
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise BenchError(f"the run did not report {', '.join(missing)}")
    for name, unit in wanted.items():
        if metrics[name]["unit"] != unit:
            raise BenchError(f"{name} is in {metrics[name]['unit']}, declared {unit}")
    return {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }, metrics


def format_result(result):
    """The result line as printed last."""
    return json.dumps(result)


def build(target_dir):
    """Builds the benchmark binary and returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr, stderr=sys.stderr, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release", "tecopt-perfbench")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1", "explore", "transient", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
        binary = build(target_dir)
        workdir = os.path.join(target_dir, "perfbench-work")
        os.makedirs(workdir, exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace, "--workdir", workdir]
        try:
            done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"run failed: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"run failed with exit code {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError("the run printed no result")
        result, everything = parse_result(lines[-1], declared(spec, args.trace == "1"))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    mode = "traced (per layer)" if args.trace == "1" else "untraced (end to end)"
    print(f"{args.workload} seed {args.seed}, {mode}: "
          f"{result['attempted']} checked, {result['failed']} failed, correct {result['correct']}")
    for name, m in everything.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(format_result(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
