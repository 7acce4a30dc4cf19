#!/usr/bin/env python3
"""Build the system benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout. The benchmark is built with CMake into
`.bench_build/` at the checkout root (perfbench/CMakeLists.txt compiles the
libraries under src/ and links the benchmark binary against them); traces and spill
shards go to `.bench_out/`. The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics of BENCHMARK.json when untraced and its per-layer metrics when traced.
The line before it is the host block. Exits non-zero, printing no result,
when the build fails, the sources are missing or the output does not match
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    """Environment for the build and the benchmark binary: temporary files stay in the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(targets):
    """Configure (once) and build; returns False on any failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no sources to build under {ROOT} (need CMakeLists.txt and src/)")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=child_env(),
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--parallel", jobs, "--target", *targets]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=child_env(),
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def source_digest():
    """SHA-256 over the build inputs, a revision id that needs no git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_rev():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's own helpers")
    args = ap.parse_args()

    if args.selftest:
        if not build(["perfbench_helpers_test"]):
            return 1
        return subprocess.run([str(BUILD / "perfbench_helpers_test")], env=child_env(),
                              timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        ap.error("--workload is required")

    if not build(["perfbench"]):
        log("build failed")
        return 1
    want = expected_metrics(bool(args.trace))
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(OUT),
           "--git-rev", git_rev(), "--src-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    host, result = json.loads(lines[-2]), json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        log(f"result does not match BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"unexpected {sorted(set(got) - set(want))}")
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **host, "result": result}
    (OUT / f"result-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(lines[-2])
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
