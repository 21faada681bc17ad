#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload must emit exactly
the metric names and units of BENCHMARK.json with all checks passing, a traced
run's layer self-times plus its unattributed share must add up to the op
wall, and a deliberately wrong reference value must make ops fail.

    python3 perfbench/selftest.py [--seconds 1]

Exits 0 when every case passes, 1 otherwise.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WRONG_REFERENCE_SCALE = 3.0
# Per-layer seconds-per-op metrics that partition each workload's traced
# op wall (with unattributed_frac); see README.md.
PARTITION = {
    "yield_array": ["device.sample_s", "sense.yield_solve_s", "sim.yield_other_s"],
    "tail_rare": ["stats.design_point_s", "stats.gauss_fill_s", "sense.tail_kernel_s",
                  "stats.is_other_s"],
    "traffic_mix": ["engine.controller_s", "engine.poisson_gen_s", "engine.bank_sim_s",
                    "engine.trace_parse_s", "engine.trace_sim_s"],
    "transient_read": ["sim.nondestructive_read_s", "sim.destructive_read_s",
                       "spice.transient_s"],
}


def run(workload: str, trace: int, seconds: float, scale: float = 1.0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace),
         "--reference-scale", str(scale)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def case(name: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip(), flush=True)
        if not ok:
            failures.append(name)

    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            r = run(w, trace, args.seconds)
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            case(f"{w} trace={trace} metric names and units", units == expected[trace])
            case(f"{w} trace={trace} checks pass",
                 r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                 f"({r['failed']}/{r['attempted']} failed)")
            if trace == 1:
                m = {k: v["value"] for k, v in r["metrics"].items()}
                wall = m["traced_op_s"]
                covered = sum(m[k] for k in PARTITION[w]) + m["unattributed_frac"] * wall
                case(f"{w} layer self-times + unattributed cover the op wall",
                     abs(covered - wall) <= 1e-6 * wall, f"({covered:.6g} vs {wall:.6g} s)")
        r = run(w, 0, args.seconds, WRONG_REFERENCE_SCALE)
        case(f"{w} wrong reference raises the failed share",
             r["failed"] > 0 and not r["correct"],
             f"({r['failed']}/{r['attempted']} failed)")
    print(f"{len(failures)} failing case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
