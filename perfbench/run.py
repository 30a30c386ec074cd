#!/usr/bin/env python3
"""Builds the FPPN chain benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run it from the root of a checkout. The build tree lives in
$CARGO_TARGET_DIR (default .bench_build); the first run configures and
builds it, later runs only check that it is up to date. The last line of
standard output is the benchmark's JSON result; every run is also appended
as one JSON line to --record (default .bench_build/perfbench-results.jsonl),
which perfbench/compare.py reads.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id(root):
    """The commit when the checkout is a git work tree, else a digest of src/."""
    if (root / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def build(root, build_dir):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed")
    return cmake_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--record", help="JSON-lines file every run is appended to")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "engine" / "engine.hpp").exists():
        fail(f"no FPPN sources under {root / 'src'}")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)
    work_dir = build_dir / "runs"
    work_dir.mkdir(parents=True, exist_ok=True)
    commit = source_id(root)

    # Relative work directory: it keeps the serving socket path short.
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.relpath(work_dir, root), "--commit", commit]
    try:
        run = subprocess.run(command, cwd=root, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"{args.workload} exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    result = json.loads(lines[-1])

    record = Path(args.record) if args.record else build_dir / "perfbench-results.jsonl"
    record.parent.mkdir(parents=True, exist_ok=True)
    with open(record, "a") as out:
        out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": int(args.trace),
                              "info": lines[:-1], "result": result}) + "\n")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
