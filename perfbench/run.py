#!/usr/bin/env python3
"""End-to-end benchmark of coal over the real Unix-domain-socket parcelport.

Run from the repository root:

    python3 perfbench/run.py --workload toy --seed 1 --seconds 30 --trace 0

Builds the library and the harness (perfbench/coal_bench.cpp) from source
into .bench_build/, runs one workload, checks its outputs, prints every
metric by name with its unit (ratios with their numerator and
denominator) and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics.  See perfbench/README.md for what each one measures.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
# Relative to ROOT (the working directory of the run): Unix socket paths are
# limited to 108 bytes, and the checkout may sit under a long path.
SOCKET_DIR = os.path.join(".bench_build", "sock")
WORKLOADS = ("toy", "bulk", "rpc")
RUN_TIMEOUT_CAP_S = 160


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def build():
    """Configure (once) and build the benchmark package; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "coal", "runtime",
                                       "runtime.hpp")):
        fail("coal sources (src/coal) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail("cmake configure failed (see .bench_build/build.log)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", BUILD_DIR, "--target", "coal_bench",
                   "-j", jobs], log) != 0:
        fail("build failed (see .bench_build/build.log)")
    return os.path.join(BUILD_DIR, "coal_bench")


def cpu_info():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    wanted = [("sse4_2", "sse4_2"), ("pclmul", "pclmulqdq"), ("avx2", "avx2")]
    return model, [name for name, flag in wanted if flag in flags]


def compiler_info():
    compiler, build_type = "unknown", "unknown"
    for path in glob.glob(os.path.join(BUILD_DIR, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            compiler = cid.group(1) + " " + ver.group(1)
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
            if m:
                build_type = m.group(1)
    except OSError:
        pass
    return compiler, build_type


def source_revision():
    """The git commit when ROOT is a git checkout, else a source digest."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
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
    return "sources-sha256:" + digest.hexdigest()[:16]


def cpu_times():
    """(steal, total) jiffies summed over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values)


def steal_pct(before, after):
    """Share of all CPU time the hypervisor gave to other guests."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def host_record():
    model, flags = cpu_info()
    compiler, build_type = compiler_info()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": model,
        "cpu_flags": flags,
        "compiler": compiler,
        "build_type": build_type,
        "transport": "uds (kernel Unix-domain-socket loopback)",
        "commit": source_revision(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def fmt(value):
    return "%.6g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    wanted = expected_metrics(args.trace)
    binary = build()
    os.makedirs(os.path.join(ROOT, SOCKET_DIR), exist_ok=True)

    cmd = [binary, args.workload, str(args.seed), repr(args.seconds),
           str(args.trace), SOCKET_DIR]
    timeout = min(RUN_TIMEOUT_CAP_S, 3 * args.seconds + 60)
    started = time.monotonic()
    cpu_before = cpu_times()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("run exceeded %.0f s and was stopped" % timeout)
    steal = steal_pct(cpu_before, cpu_times())
    if proc.returncode != 0:
        fail("coal_bench exited with code %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        fail("coal_bench printed no result")
    res = json.loads(lines[-1])

    metrics = res["metrics"]
    if set(metrics) != set(wanted):
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(wanted) - set(metrics)),
                sorted(set(metrics) - set(wanted))))
    for name, unit in wanted.items():
        if metrics[name]["unit"] != unit:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], unit))

    checks_ok = all(c["ok"] for c in res["checks"])
    correct = checks_ok and res["failed"] == 0
    attempted = max(1, int(res["attempted"]))

    print("host " + json.dumps(host_record(), sort_keys=True))
    # Steal: CPU time the VM's vCPUs wanted but the host gave elsewhere.
    # Throughput and latency figures fall as it rises (see README.md).
    print("run workload=%s seed=%d seconds=%s trace=%d wall_s=%.2f "
          "host_steal_pct=%.2f"
          % (args.workload, args.seed, fmt(args.seconds), args.trace,
             time.monotonic() - started, steal))
    for c in res["checks"]:
        print("check %-28s %s  %s" % (c["name"], "ok" if c["ok"] else "FAIL",
                                      c["detail"]))
    print("failed_frac = %s  (%d failed / %d attempted calls)"
          % (fmt(res["failed"] / attempted), res["failed"], attempted))
    for name in sorted(metrics):
        m = metrics[name]
        line = "%-42s = %s %s" % (name, fmt(m["value"]), m["unit"])
        base = res["bases"].get(name)
        if base:
            line += "  (%s %s / %s %s)" % (fmt(base["num"]), base["num_label"],
                                           fmt(base["den"]), base["den_label"])
        print(line)
    for key in sorted(res["info"]):
        print("info %-37s = %s" % (key, fmt(res["info"][key])))
    if not correct:
        print("OUTPUT CHECK FAILED: the metrics above are not valid results")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": int(res["failed"]),
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]}
                    for name in sorted(metrics)},
    }))


if __name__ == "__main__":
    main()
