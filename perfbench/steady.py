"""Steadiness check: is the benchmark steady on this host?

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Runs ``perfbench/run.py --trace 0`` ``--runs`` times on every workload of
``BENCHMARK.json``, each time with another seed, for its ``run_seconds``.
For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile
spread as a share of the median, against the metric's bound.  A spread
above a third of the bound is flagged ``wide``, above the bound
``UNSTEADY``.  The ungated "also" figures are listed the same way
without a bound.  Exits 1 when a run fails, a spread exceeds its bound, or the
failed share differs between runs of one workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run exited {proc.returncode}")
    also = next(json.loads(x[5:]) for x in lines if x.startswith("also "))
    host = next(json.loads(x[5:]) for x in lines if x.startswith("host "))
    return json.loads(lines[-1]), also, host


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="Steadiness check of the DR-BW benchmark.")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    if args.runs < 2:
        p.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for i in range(args.runs):
            result, also, host = run_once(workload, args.first_seed + i, seconds)
            results.append((result, also))
            print(f"{workload} seed {args.first_seed + i}: " + "  ".join(
                f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()
            ) + f"  (steal {host.get('steal_pct', float('nan')):.2f}%)", flush=True)
        shares = {r["failed"] / r["attempted"] for r, _ in results}
        correct = all(r["correct"] for r, _ in results)
        ok &= correct and len(shares) == 1
        print(f"\n{workload}: {args.runs} runs of {seconds} s, all correct: "
              f"{correct}, failed shares: {sorted(shares)}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        rows = {}
        for name, bound in bounds.items():
            med, q1, q3, s = spread([r["metrics"][name]["value"] for r, _ in results])
            flag = "ok"
            if s > bound:
                flag = "UNSTEADY"
                ok = False
            elif s > bound / 3:
                flag = "wide"
            print(f"  {name:18s} {med:12.4f} {q1:12.4f} {q3:12.4f} {s:8.4f} "
                  f"{bound:6.3f}  {flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": s}
        for name in sorted(set().union(*(a for _, a in results))):
            values = [a[name] for _, a in results if name in a]
            if len(values) == len(results):
                med, q1, q3, s = spread(values)
                print(f"  {name:18s} {med:12.4f} {q1:12.4f} {q3:12.4f} {s:8.4f} "
                      f"{'-':>6s}  also")
                rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": s}
        summary[workload] = rows
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
