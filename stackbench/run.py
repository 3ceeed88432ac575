#!/usr/bin/env python3
"""Build the delivery-stack benchmark from source and run one workload.

    python3 stackbench/run.py --workload cosim-eval --seed 1 --seconds 10 --trace 0
    python3 stackbench/run.py --self-test

Configures stackbench/ (a CMake project that compiles the repository's
src/ libraries next to the benchmark) into .bench_build/stackbench, builds
it, and runs one workload. The benchmark's header and metric table pass
through; the last line printed is the result JSON, holding the end-to-end
metrics BENCHMARK.json names (--trace 0) or its per-layer metrics
(--trace 1). A traced run also writes its spans as Chrome trace JSON to
.bench_build/stackbench/trace-<workload>-seed<n>.json.

Exits non-zero without a result line when the build, the run, or the
check of its output against BENCHMARK.json fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "stackbench")
# A run must end within 180 s, or 900 s when it also builds from scratch.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 890


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def build(target):
    """Configures (once) and builds `target`; returns True if it configured."""
    fresh = not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
    if fresh:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return fresh


def revision():
    """The git commit when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "stackbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = f"src:{digest.hexdigest()[:16]}"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = f"git:{git.stdout.strip()[:12]} {rev}"
    return rev


def manifest_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return manifest["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    start = time.monotonic()

    try:
        if args.self_test:
            build("stackbench_test")
            test = os.path.join(BUILD, "stackbench_test")
            sys.exit(subprocess.run([test], cwd=ROOT).returncode)
        if not args.workload:
            fail("--workload is required")
        wanted = manifest_metrics(args.trace)
        limit = FIRST_RUN_LIMIT_S if build("stackbench") else RUN_LIMIT_S
        cmd = [os.path.join(BUILD, "stackbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--revision", revision()]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                BUILD, f"trace-{args.workload}-seed{args.seed}.json")]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, limit - (time.monotonic() - start)))
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        fail(f"{type(e).__name__}: {e}")
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the result")
        metrics[m["name"]] = got
    print("\n".join(lines[:-1]), flush=True)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
