#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <table1|saturate|serve> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The harness (perfbench/CMakeLists.txt) compiles the library under src/
itself into .bench_build/perfbench, so the first run of a fresh checkout
builds for about half a minute; later runs only re-check the build. Build
output goes to stderr; the harness's last stdout line is the JSON result.
Traced runs write their spans to .bench_build/trace/<workload>-<seed>.json
unless --trace-out is given.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tensat_perfbench")


def build():
    """Configures (once) and builds the harness; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "optimizer", "optimizer.h")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--trace" in args and "--trace-out" not in args:
        opts = dict(zip(args[::2], args[1::2]))
        if opts.get("--trace") == "1":
            trace_dir = os.path.join(ROOT, ".bench_build", "trace")
            os.makedirs(trace_dir, exist_ok=True)
            name = "%s-%s.json" % (opts.get("--workload", "run"), opts.get("--seed", "0"))
            args += ["--trace-out", os.path.join(trace_dir, name)]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
