#!/usr/bin/env python3
"""Benchmark entry point: builds the runner from source, runs one workload
and prints the result object as the last line of standard output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any checkout of it).  The runner and the
library layers it measures are compiled in Release into .bench_build/
(or $CARGO_TARGET_DIR).  Generated inputs go to a per-run directory
under .bench_work/ that is removed at exit; a traced run leaves its
spans in .bench_work/spans-<workload>.jsonl.  See perfbench/README.md
for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BUILD_TYPE = "Release"  # the only build type the runner reports from
RUN_TIMEOUT_S = 170
# A --trace 0 run splits --seconds over this many runner processes and
# reports each metric's median, so one process that lands in a slow
# spell of a shared host does not set the run's figure.
PROCESSES_PER_RUN = 3
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd) -> None:
    """Runs a build step with its output on stderr (stdout stays for the result)."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(build_dir), "--target", "perfbench_runner", "-j", jobs])
    return build_dir / "perfbench_runner"


def source_id() -> str:
    """git SHA when the checkout is a git work tree, plus a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return f"git:{sha or 'unknown'},src-sha256:{digest.hexdigest()[:16]}"


def expected_metrics(trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def run_runner(runner: Path, args, source: str, seconds: float, deadline: float) -> dict:
    """Runs one runner process; echoes its info lines, returns its result object."""
    work_dir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [str(runner), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace),
             "--expect-build-type", BUILD_TYPE, "--work-dir", str(work_dir),
             "--source-id", source, "--reference-scale", str(args.reference_scale),
             "--spans", str(ROOT / ".bench_work" / f"spans-{args.workload}.jsonl")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded the {RUN_TIMEOUT_S} s run limit")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner exited with {proc.returncode}", proc.returncode or 1)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def combine(results: list) -> dict:
    """Sums op counts; takes each metric's median over the runner processes
    (peak_rss_mb: the largest)."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = max(values) if name == "peak_rss_mb" else statistics.median(values)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference-scale", type=float, default=1.0,
                    help="multiply every output-check reference (self-test only)")
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    runner = build()
    processes = PROCESSES_PER_RUN if args.trace == 0 else 1
    source = source_id()
    result = combine([run_runner(runner, args, source, args.seconds / processes, deadline)
                      for _ in range(processes)])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        fail("runner metrics do not match BENCHMARK.json", 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
