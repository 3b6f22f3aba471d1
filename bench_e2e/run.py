#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from a source checkout.

    python3 bench_e2e/run.py --workload e1_analyze --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first call configures and builds
bench_e2e (with ../src) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls rebuild incrementally.  Corpora and outputs live
under .bench_work/ and are removed when the run ends.  The benchmark's
stdout is passed through; its last line is the JSON result.  Exit status
is non-zero, and no result is printed, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("e1_analyze", "rm_heavy", "fleet_skewed", "follow_replay")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"bench_e2e/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else Path.cwd() / path


def build(out_dir):
    cache = out_dir / "CMakeCache.txt"
    if cache.exists():
        # A cache made for another source tree cannot be reused.
        home = next((line.split("=", 1)[1].strip()
                     for line in cache.read_text(errors="replace").splitlines()
                     if line.startswith("CMAKE_HOME_DIRECTORY:")), None)
        if home is None or Path(home).resolve() != HERE:
            shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "bench_build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir)])
    steps.append(["cmake", "--build", str(out_dir), "--target", "bench_e2e",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    binary = out_dir / "bench_e2e"
    if not binary.exists():
        fail("build produced no bench_e2e binary")
    return binary


def run(binary, args):
    work = Path.cwd() / ".bench_work" / f"run.{os.getpid()}"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work)]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (Path.cwd() / ".bench_work").rmdir()
        except OSError:
            pass
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(stdout)
        fail(f"benchmark exited {proc.returncode} without a result", code=3)
    sys.stdout.write(stdout)
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, for the self-test")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    run(build(build_dir()), args)


if __name__ == "__main__":
    main()
