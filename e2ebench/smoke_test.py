#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/smoke_test.py

Runs every workload at its smallest size (--smoke), untraced and traced,
with every output check, and checks that each run succeeds and reports
exactly the metrics BENCHMARK.json names, with their units. Then checks
that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 1 on any failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mix-dcn8x8", "serve-fleet2", "cold-dcn16x16", "warm-dcn12x8"]


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_run(workload, trace, expected):
    label = f"{workload} --trace {trace}"
    proc = run([os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace),
                "--smoke"])
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: output checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result.get('attempted')}")
    reported = {name: metric["unit"]
                for name, metric in result.get("metrics", {}).items()}
    if reported != expected:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(reported) ^ set(expected))}")
    if not problems:
        print(f"ok {label}: {result['attempted']} attempted")
    return problems


def check_bare_directory():
    """Without the repository sources the benchmark must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([os.path.join("e2ebench", "run.py"), "--workload",
                    WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: expected a non-zero exit and no result"]
    print("ok bare directory: refused")
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_run(workload, trace, expected[trace])
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("e2ebench smoke: OK")


if __name__ == "__main__":
    main()
