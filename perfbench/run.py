#!/usr/bin/env python3
"""Whole-step PIC benchmark: build, run one workload, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload lpi_1t --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke        # every workload at toy size

The script builds perfbench/stepbench (CMake, Release, into .bench_build/),
pins the autotuner cache under .bench_build/perfbench-work (one untimed cold
pass per run set), runs the workload on one OpenMP thread in a child
process and checks its result. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. perfbench/README.md defines every metric and workload.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "stepbench")

# Every workload runs on one OpenMP thread (README.md, "Why one thread").
WORKLOADS = ("lpi_1t", "reconnection_1t", "weibel_ckpt_1t")
THREADS = 1
# One malloc arena. With glibc's per-thread arenas, which arena served the
# checkpoint path's large buffers varied from run to run, and so did the
# peak resident set (122 to 153 MiB on the Weibel deck at 4 threads).
MALLOC_ARENA_MAX = "1"
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def host_threads():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, n)


def build():
    """Configure once, then build stepbench incrementally (stderr only)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("engine sources (CMakeLists.txt, src/) not found next to perfbench/")
    jobs = str(min(4, host_threads()))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "stepbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def child_env():
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(THREADS)
    env["MALLOC_ARENA_MAX"] = MALLOC_ARENA_MAX
    env.pop("VPIC_PROF", None)
    return env


def cpu_times():
    """Aggregate CPU times from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:]] if fields and fields[0] == "cpu" else None


def steal_share(before, after):
    """Share of all CPU time the hypervisor gave to other guests in between."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else None


def run_child(args):
    """Run stepbench; return its last stdout line parsed as JSON."""
    try:
        proc = subprocess.run(
            [BINARY] + args,
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("stepbench %s timed out" % " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("stepbench %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def tune_cache():
    """The pinned tuner cache for this thread count, built on first use."""
    path = os.path.join(WORK, "tune-t%d.json" % THREADS)
    if not os.path.isfile(path):
        os.makedirs(WORK, exist_ok=True)
        cold = run_child(["--tune-only", "--tune-cache", path])
        log("perfbench: cold tuner pass, %d thread(s), %.3f s" % (THREADS, cold["seconds"]))
    return path


def source_identity():
    """Commit when run inside a git checkout, plus a digest of the sources."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            ).stdout.strip() or "unknown"
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(metrics, expected):
    """Problems with the metric set: names, units, finite values."""
    problems = []
    for name in sorted(set(expected) - set(metrics)):
        problems.append("missing metric " + name)
    for name in sorted(set(metrics) - set(expected)):
        problems.append("unexpected metric " + name)
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append("unit of %s is %r, want %r" % (name, m.get("unit"), expected[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("non-finite value for " + name)
    return problems


def run_workload(workload, seed, seconds, trace, smoke):
    args = [
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if trace else "0", "--work", WORK,
        "--tune-cache", tune_cache(),
    ]
    if smoke:
        args.append("--smoke")
    before = cpu_times()
    out = run_child(args)
    out["shape"]["host_steal_frac"] = steal_share(before, cpu_times())
    problems = validate(out["metrics"], expected_metrics(trace))
    return out, problems


def report(out, problems, identity):
    shape = dict(out["shape"])
    shape["commit"], shape["source_digest"] = identity
    shape["malloc_arena_max"] = MALLOC_ARENA_MAX
    print("shape: " + json.dumps(shape, sort_keys=True))
    attempted, failed = int(out["attempted"]), int(out["failed"])
    if "error_rate" not in out["metrics"]:
        print("  %-28s %14.6g %s" % ("error_rate", failed / max(1, attempted), "fraction"))
    for name, m in out["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    for f in out["failures"]:
        print("  FAILED: " + f)
    for p in problems:
        print("  INVALID: " + p)
    return {
        "correct": failed == 0 and not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": out["metrics"],
    }


def smoke():
    """Every workload at toy size, both trace modes; names and units checked."""
    ok = True
    attempted = failed = 0
    identity = source_identity()
    for workload in WORKLOADS:
        for trace in (False, True):
            out, problems = run_workload(workload, 7, 0.2, trace, smoke=True)
            print("== %s trace=%d" % (workload, trace))
            result = report(out, problems, identity)
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size and validate names/units")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required (or --smoke)")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root")
    t0 = time.monotonic()
    build()
    log("perfbench: build check %.1f s" % (time.monotonic() - t0))
    if a.smoke:
        return smoke()
    out, problems = run_workload(a.workload, a.seed, a.seconds, bool(a.trace), smoke=False)
    result = report(out, problems, source_identity())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
