#!/usr/bin/env python3
"""lsmcol end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and with it the
library from this checkout's src/) in Release mode under .bench_build/
(or $CARGO_TARGET_DIR), runs the self-tests of the benchmark's statistics
code, runs the workload in a fresh lsmbench process, and prints a
human-readable report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones derived from the run's spans. Exits non-zero,
without a result line, when the build, the self-tests or the run fail.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest_update", "scan_analytics", "lookup_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configures once, then builds incrementally (a no-op when current)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("lsmcol sources not found next to perfbench/; nothing to build")
        return None
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(out), "--target", "lsmbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = out / "lsmbench"
    return binary if binary.is_file() else None


def self_tests_pass():
    sys.path.insert(0, str(HERE))
    import test_stats  # noqa: E402  (lives next to this file)
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_stats)
    result = unittest.TextTestRunner(stream=io.StringIO(), verbosity=0).run(suite)
    if not result.wasSuccessful():
        for _, trace in result.failures + result.errors:
            log(trace)
    return result.wasSuccessful()


def probe_host(binary):
    """Host-drift diagnostic (see ProbeHost in lsmbench.cc); {} on error."""
    proc = subprocess.run([str(binary), "--probe"], capture_output=True,
                          text=True, timeout=60)
    try:
        probe = json.loads(proc.stdout)
        return {k: probe[k] for k in ("cpu_loop_s", "mem_loop_s")}
    except (ValueError, KeyError):
        return {}


def fs_type(path):
    """Filesystem type of the mount holding `path` (from mountinfo)."""
    best, best_type = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, best_type = mount, fstype
    except (OSError, ValueError, IndexError):
        pass
    return best_type


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import stats  # noqa: E402
    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 1
    if not self_tests_pass():
        log("statistics self-tests failed")
        return 1

    probes = [probe_host(binary)]
    work = out / "runs" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(work / "out"), "--store", str(work / "store")]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("lsmbench did not finish within %d s" % RUN_TIMEOUT_S)
            return 1
        if proc.returncode != 0:
            log("lsmbench exited with %d" % proc.returncode)
            return 1
        probes.append(probe_host(binary))
        with open(work / "out" / "run.json") as f:
            run = json.load(f)
        if args.trace:
            t0 = time.monotonic()
            spans = stats.load_spans(run["spans_file"], run["span_names"],
                                     run["counter_names"])
            metrics, self_summary = stats.summarize_trace(run, spans)
            detail = {"spans": len(spans), "summarize_s": time.monotonic() - t0,
                      "self_time_by_span": self_summary}
        else:
            metrics, per_type = stats.end_to_end(run)
            detail = {"per_op_type": per_type}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = dict(run["env"])
    env["checkout_fs"] = fs_type(ROOT)
    report = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "setup_s_runs": run["setup_s_runs"],
        "timed_wall_s": run["timed_wall_s"],
        "window_ops": run["window_ops"], "window_end": run["window_end"],
        "window_counters": run["window"],
        "host_probe_s": {"before": probes[0], "after": probes[1]},
        "first_failure": run["first_failure"],
    }
    report.update(detail)
    print(json.dumps(report, indent=1, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6g %s" % (name, value, unit))
    attempted, failed = run["attempted"], run["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
