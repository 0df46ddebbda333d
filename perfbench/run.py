#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload in
its own process, check its outputs and print every metric.

    python3 perfbench/run.py --workload sedov_bsp_4k --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. The build goes to .bench_build/perfbench
(incremental after the first run). --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones from a separate
traced run. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/README.md describes the
workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the perfbench binary; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    steps = []
    if not configured:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(BUILD_DIR, "perfbench")
    return exe if os.path.exists(exe) else None


def source_revision():
    """git revision when the tree is a git checkout, else a source digest."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def failure(attempted, failed, reason):
    log("perfbench: " + reason)
    print(json.dumps({"correct": False, "attempted": max(1, attempted),
                      "failed": max(1, failed), "metrics": {}}))
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's report texts as expected")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("perfbench: unknown workload " + args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    exe = build()
    if exe is None:
        return 1

    work_dir = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected-dir", os.path.join(BENCH_DIR, "expected"),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    if args.record:
        cmd.append("--record")
    started = time.monotonic()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return failure(1, 1, "timed out after %d s" % CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wall = time.monotonic() - started
    lines = res.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if res.returncode < 0:
        return failure(1, 1, "killed by signal %d" % -res.returncode)
    if res.returncode != 0:
        return failure(1, 1, "exit code %d" % res.returncode)
    child = json.loads(lines[-1])
    attempted, failed = child["attempted"], child["failed"]
    got = child["metrics"]
    if not args.trace:
        got["ok_frac"] = {"value": (attempted - failed) / attempted,
                          "unit": "frac", "note": "failed_frac = %d/%d = %.6f"
                          % (failed, attempted, failed / attempted)}

    env = child["env"]
    print("environment:")
    print("  nproc            %d" % (os.cpu_count() or 0))
    print("  hardware_threads %s" % env["hardware_threads"])
    print("  build_type       %s" % env["build_type"])
    print("  compiler         %s" % env["compiler"])
    print("  revision         %s" % source_revision())
    print("  platform         %s" % platform.platform())
    print("  workload         %s" % args.workload)
    print("  seed             %d" % args.seed)
    print("  run_wall_s       %.1f" % wall)
    print("metrics:")
    metrics = {}
    missing = []
    for m in wanted:
        name = m["name"]
        entry = got.get(name)
        if entry is None or not math.isfinite(entry["value"]):
            missing.append(name)
            continue
        metrics[name] = {"value": entry["value"], "unit": m["unit"]}
        print("  %-28s %14.6g %-6s %s" % (name, entry["value"], m["unit"],
                                          entry.get("note", "")))
    if not args.trace:
        print("  %-28s %14.6g %-6s" % ("failed_frac", failed / attempted,
                                       "frac"))
    # End-to-end metrics are never 0; a 0 means the run measured nothing.
    empty = [n for n in metrics if not args.trace and metrics[n]["value"] <= 0]
    if missing or empty:
        log("perfbench: missing metrics %s, zero metrics %s"
            % (missing, empty))
    correct = failed == 0 and not missing and not empty
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
