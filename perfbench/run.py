#!/usr/bin/env python3
"""Build the mpath benchmark program from source and run one workload.

    python3 perfbench/run.py --workload p2p_churn --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; the first run configures and compiles
(about a minute on 4 cores), later runs only check that the build is
current. With --trace 1 the span trace is written to <build>/traces/.
Build output goes to stderr; stdout ends with mpath_perfbench's result line.
Exits non-zero when the build or a correctness check fails; a failed build
prints no result, a failed check prints one with "correct": false.
"""
import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("p2p_churn", "collective_loop", "openloop_sched")
HERE = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir: pathlib.Path) -> pathlib.Path:
    # Configure unless an earlier configure finished (it writes the build
    # file last, so a failed one is retried).
    if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "mpath_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "mpath_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    try:
        binary = build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: mpath_perfbench timed out", file=sys.stderr)
        return 1
    # A failed correctness check still prints its result ("correct": false)
    # and exits non-zero.
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"run.py: mpath_perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
