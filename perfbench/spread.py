"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads verify_wide gen_batch --runs 10

Runs the benchmark once per seed on each workload, one run at a time, and
prints each end-to-end metric's median and its quartile spread
(Q3 - Q1) / median next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    """One run's end-to-end metric values and its elapsed seconds."""
    start = perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed\n{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}, perf_counter() - start


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        runs, elapsed = zip(*(run_once(workload, args.first_seed + i, args.seconds)
                              for i in range(args.runs)))
        print(f"{workload} ({args.runs} runs, {max(elapsed):.0f} s the longest)")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {name:20s} median {med:12.5g}  spread {spread:7.2%}  "
                  f"bound {bound:.0%}  {flag}  {' '.join(f'{v:.5g}' for v in values)}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
