#!/usr/bin/env python3
"""Builds polysse_bench (Release) from this checkout and runs it.

One workload; the last line of stdout is the result object:

  python3 bench/e2e/run.py --workload lookup-local --seed 1 --seconds 20 \
      --trace 0

Every workload of BENCHMARK.json, each in its own process (so rss_mb is
per workload), for one or more seeds; prints `workload metric value unit`
lines and writes every result to one merged JSON file:

  python3 bench/e2e/run.py --seeds 1,2,3 [--seconds 20] [--trace 0|1]
                           [--out .bench_build/results.json]

compare.py reads two such files. The build lives in .bench_build/ at the
checkout root; traces land in .bench_build/work/trace/.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "polysse_bench"
WORK = BUILD / "work"
# The benchmark's own limit is 180 s per run; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no polysse source tree at {ROOT}")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        # Only polysse_bench is built, so the repository's own tests,
        # examples and benches are left out of the configure step.
        configure = [
            "cmake", "-S", str(ROOT), "-B", str(CMAKE_DIR),
            "-DCMAKE_BUILD_TYPE=Release",
            "-DPOLYSSE_BUILD_TESTS=OFF",
            "-DPOLYSSE_BUILD_EXAMPLES=OFF",
            "-DPOLYSSE_BUILD_BENCHES=OFF",
            f"-DCMAKE_PROJECT_polysse_INCLUDE={HERE / 'CMakeLists.txt'}",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(CMAKE_DIR), "--target",
                   "polysse_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(WORK)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        got = list(result.get("metrics", {}))
        want = expected_metrics(trace)
        if got != want:
            fail(f"{workload}: metrics {got} do not match "
                 f"BENCHMARK.json {want}")
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BUILD / "results.json"))
    args = parser.parse_args()

    build()
    WORK.mkdir(parents=True, exist_ok=True)

    if args.workload is not None:
        code, lines, result = run_one(args.workload, args.seed, args.seconds,
                                      args.trace == 1)
        if result is None:
            fail(f"{args.workload} printed no result (exit {code})")
        print("\n".join(lines), flush=True)
        return code

    runs = []
    status = 0
    for seed in [int(s) for s in args.seeds.split(",") if s]:
        for workload in workloads():
            code, _, result = run_one(workload, seed, args.seconds,
                                      args.trace == 1)
            if result is None:
                fail(f"{workload} seed {seed} printed no result (exit {code})")
            status = status or code
            runs.append({"workload": workload, "seed": seed,
                         "trace": args.trace, "result": result})
            for name, m in result["metrics"].items():
                print(f"{workload} {name} {m['value']} {m['unit']}")
            print(f"{workload} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
