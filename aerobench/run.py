#!/usr/bin/env python3
"""Build and run the AeroPack benchmark.

    python3 aerobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 aerobench/run.py --self-test

Builds aerobench/ (which compiles the aeropack libraries from src/) into
$CARGO_TARGET_DIR/aerobench, default .bench_build/aerobench, under the
checkout root, then runs the benchmark binary. Its last stdout line is the
JSON result; every line before it is a readable report. Build logs go to
stderr. Exits non-zero, printing no result, when the build or run fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELF_TEST_TIMEOUT_S = 170


def run_timeout_s(seconds):
    # A --trace 1 run spends up to 2 x seconds timing and replaying, plus
    # the set-ups, the cold re-run and the 48^3 parallel-efficiency solves.
    return 70 + 4 * seconds


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "aerobench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"aerobench: command failed: {' '.join(cmd)}")


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "aerobench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target", *targets])
    return out


def commit_id():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-1 over the paths and contents of src/ and aerobench/ (sorted)."""
    h = hashlib.sha1()
    for top in ("src", "aerobench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def run_checked(cmd, timeout_s):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"aerobench: run exceeded {timeout_s} s")
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own unit tests")
    a = p.parse_args()

    if a.self_test:
        out = build(["aerobench_tests"])
        return run_checked([os.path.join(out, "aerobench_tests")], SELF_TEST_TIMEOUT_S)

    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    out = build(["aerobench"])
    cmd = [os.path.join(out, "aerobench"), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace, "--commit", commit_id(),
           "--source-digest", source_digest()]
    if a.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{a.workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    return run_checked(cmd, run_timeout_s(a.seconds))


if __name__ == "__main__":
    sys.exit(main())
