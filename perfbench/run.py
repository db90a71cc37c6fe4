#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, against the library sources in src/)
into .bench_build/perfbench; later calls only rebuild what changed.  The
benchmark binary's report is passed through; its last line is one JSON
object {"correct", "attempted", "failed", "metrics"}, checked here against
the metric lists in BENCHMARK.json.  Exits non-zero, printing no result, if
the build fails, a correctness check fails or the report is malformed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
             / "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def step(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        fail(f"{what} failed (exit {proc.returncode})", 2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found; run from a full checkout", 2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"], "configure")
    step(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
          "-j", "4"], "build")
    return BUILD_DIR / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail(f"benchmark exited {proc.returncode}")

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys")
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(want.items())}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result reports an incorrect run")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
