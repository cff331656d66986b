#!/usr/bin/env python3
"""End-to-end incident-repair benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds the harness and the repository's libraries from source (into
$CARGO_TARGET_DIR, default .bench_build, at the repository root), then runs
one workload. The harness prints a host fingerprint, one line per metric
and, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when a
build step fails, the repository sources are missing, or an output check
fails. See e2ebench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "acr_e2ebench"
# A run must end within 180 s; leave room for the no-op build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git revision, or a content hash of the sources outside git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:12]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", BINARY,
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at its smallest size")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"repository sources not found ({needed} is missing)")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    scratch = os.path.join(ROOT, ".bench_work")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    # Repairs are compared across runs of the same binary only.
    with open(binary, "rb") as handle:
        build_id = hashlib.sha1(handle.read()).hexdigest()[:16]
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", work,
               "--digests", os.path.join(scratch, "digests", build_id),
               "--rev", source_rev()]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
