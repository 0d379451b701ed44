#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the benchmark program (and the trustrate library it links) from
source in Release mode under .bench_build/ at the repository root, then
runs it:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test   # checks of the benchmark itself

Build output goes to stderr, so the last line of stdout is the program's
JSON result. Exits non-zero when the build fails, the program fails, or the
outputs do not match the reference.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def sh(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not sh(configure):
        # A cache from another source tree cannot be reused: start over once.
        shutil.rmtree(BUILD, ignore_errors=True)
        if not sh(configure):
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return sh(["cmake", "--build", BUILD, "-j", jobs,
               "--target", "perfbench", "perfbench_selftest"])


def self_test():
    """Unit checks, then one short run against a corrupted reference digest,
    which the correctness gate must reject."""
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode != 0:
        return 1
    os.makedirs(WORK, exist_ok=True)
    run = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", "durable_ckpt", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--workdir", WORK, "--corrupt-reference"],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    rejected = run.returncode == 1 and lines and json.loads(lines[-1])["correct"] is False
    print("%s gate rejects a run against a wrong reference digest"
          % ("ok  " if rejected else "FAIL"))
    return 0 if rejected else 1


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if argv == ["--self-test"]:
        return self_test()
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), *argv, "--workdir", WORK]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
