#!/usr/bin/env python3
"""Steadiness report: run workloads back to back and show the spread.

    python3 perfbench/steady.py [--runs N] [--first-seed S] [--workloads a,b]
                                [--seconds S]

Run from the repository root. Each run uses the next seed. For every
end-to-end metric of BENCHMARK.json it prints the median, quartiles,
min and max over the runs, and the spread: the distance between the
quartiles (as statistics.quantiles(values, n=4) gives them) as a share
of the median. A metric whose spread exceeds its bound is marked OVER;
one above a third of its bound is marked WIDE. The raw results are
written to .bench_out/steady-<workload>.json, each run's standard error
to .bench_out/steady-<workload>-seed<n>.err.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            started = time.monotonic()
            with open(out_dir / f"steady-{workload}-seed{seed}.err", "wb") as err:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"steady.py: {workload} seed {seed} failed (exit {proc.returncode})")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"steady.py: {workload} seed {seed} was not correct: {lines[-1]}")
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: done in {time.monotonic() - started:.1f} s",
                  file=sys.stderr)
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(runs, indent=1))
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            mark = "OVER" if spread > m["bound"] else "WIDE" if spread > m["bound"] / 3 else ""
            worst = max(worst, spread / m["bound"])
            print(f"{m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {min(values):>12.6g} "
                  f"{max(values):>12.6g} {spread:>8.4f} {m['bound']:>6} {mark}")
    print(f"\nlargest spread as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()
