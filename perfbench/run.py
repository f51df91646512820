#!/usr/bin/env python3
"""Campaign benchmark entry point: builds `perfbench` and runs one workload.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is built from source with
cargo (into $CARGO_TARGET_DIR, default `.bench_build`), then runs in a fresh
process and a fresh scratch directory under the target directory, in a
session of its own. The last line of stdout is the benchmark's JSON result.
Exits non-zero when the build fails, the run fails, the run exceeds its
deadline, or any process of the run outlives it.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["stored-test", "serve-sliced", "isolate-test", "dist-test"]
RUN_DEADLINE_S = 170
REAP_GRACE_S = 5


def session_members(sid):
    """Pids of live processes in session `sid` (field 6 of /proc/<pid>/stat)."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # fields[0] is the state; a zombie has already ended.
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(name))
    return pids


def reap_session(sid):
    """Kills what is left of the session; returns the pids that were left."""
    left = session_members(sid)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + REAP_GRACE_S
    while session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return left


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: building the benchmark failed (exit {build.returncode})", file=sys.stderr)
        return 1

    scratch = os.path.join(target, "perfbench-run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    proc = subprocess.Popen(cmd, cwd=scratch, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        reap_session(proc.pid)
        proc.wait()
        print(f"run.py: {args.workload} exceeded {RUN_DEADLINE_S} s", file=sys.stderr)
        return 1
    left = reap_session(proc.pid)
    shutil.rmtree(scratch, ignore_errors=True)
    if left:
        print(f"run.py: processes {left} outlived the {args.workload} run", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
