#!/usr/bin/env python3
"""Builds the end-to-end Spinner benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cold-partition --seed 1 \
        --seconds 10 --trace 0 [--shape tiny]

Run it from the root of a checkout. The library and the `spinbench` binary
are built with CMake into $CARGO_TARGET_DIR (default `.bench_build`); inputs
are generated into a scratch directory there and removed afterwards. The
last line of standard output is the JSON result. See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, env):
    """Configures once, then rebuilds `spinbench` if anything changed."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                          str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "spinbench", "-j", jobs])
        for step in steps:
            # Build output goes to stderr: stdout carries only results.
            if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
                fail("build failed: " + " ".join(step))
    return build_dir / "spinbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no Spinner sources under {root}; run from a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    # Compiler and program temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(root, build_dir, env)

    work_dir = build_dir / f"work-{os.getpid()}"
    work_dir.mkdir()
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--shape={args.shape}",
               f"--work-dir={work_dir}"]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command.append(
            f"--trace-file={traces / f'{args.workload}-seed{args.seed}.json'}")
    # A process group, so a timeout also stops forked shard workers.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write(out)
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("spinbench printed no result line")
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
