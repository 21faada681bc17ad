#!/usr/bin/env python3
"""Alternating perfbench pairs: the working tree against a parent revision.

    python3 tools/perf_pairs.py <parent-rev> <workload> [--pairs N] [--seconds S]

Checks <parent-rev> out into a temporary git worktree, then runs N pairs
of `python3 perfbench/run.py --workload W --seed k --seconds S --trace 0`
(seed k = 1..N), one in each checkout, alternating which side runs first
so host drift does not favour one side.  Prints, for every end-to-end
metric of BENCHMARK.json: each side's median and quartiles, how many
pairs the change won, and both sides' failed ops.  The worktree is
removed on exit.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run failed in {checkout} (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_rev")
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        parent = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(parent),
                        args.parent_rev], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        try:
            results = {"parent": [], "change": []}
            for k in range(args.pairs):
                order = [("parent", parent), ("change", ROOT)]
                if k % 2 == 1:
                    order.reverse()
                for side, checkout in order:
                    results[side].append(
                        run_side(checkout, args.workload, k + 1, args.seconds))
                    print(f"pair {k + 1}/{args.pairs} {side}: " + ", ".join(
                        f"{n}={results[side][-1]['metrics'][n]['value']:.4g}"
                        for n in metrics), file=sys.stderr)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent)],
                           cwd=ROOT, check=False)

    print(f"{args.workload}: {args.parent_rev} (parent) vs working tree (change), "
          f"{args.pairs} pairs x {args.seconds:g} s, seeds 1..{args.pairs}")
    print(f"{'metric':<16} {'better':<7} {'parent q1 / median / q3':<34} "
          f"{'change q1 / median / q3':<34} {'change':>7} wins")
    for name, better in metrics.items():
        p = [r["metrics"][name]["value"] for r in results["parent"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum((b > a) if better == "higher" else (b < a) for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        delta = (cq[1] - pq[1]) / pq[1] * 100.0 if pq[1] else float("nan")
        print(f"{name:<16} {better:<7} {' / '.join(f'{v:.4g}' for v in pq):<34} "
              f"{' / '.join(f'{v:.4g}' for v in cq):<34} {delta:+6.1f}% "
              f"{wins}/{args.pairs}")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"failed ops, {side}: {failed} of {attempted}")


if __name__ == "__main__":
    main()
