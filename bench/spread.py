"""Run each workload with several seeds and print the spread of every metric.

    python3 bench/spread.py                      # 10 seeds per workload
    python3 bench/spread.py --workloads cli --seeds 5 --first-seed 11

The spread of a metric is the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a share
of their median.  Each is printed beside the metric's bound from
``BENCHMARK.json``: a spread under a third of the bound is ``steady``, one
under the bound is ``noisy`` and a larger one is ``WIDE``.  The share of
failed items must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, clean = {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares, wrong = set(), 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(argv, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            wrong += not result["correct"]
            shares.add(Fraction(result["failed"], result["attempted"]))
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {entry['value']:.5g}" for name, entry in sorted(result["metrics"].items())),
                flush=True)
        print(f"\n{workload}: {args.seeds} runs, {wrong} incorrect, failed share "
              f"{' / '.join(str(s) for s in sorted(shares))}")
        clean &= wrong == 0 and len(shares) == 1
        rows = {}
        for name, vals in sorted(values.items()):
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            bound = bounds.get(name)
            verdict = ("steady" if spread < bound / 3 else "noisy" if spread <= bound else "WIDE")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"   {name:<14} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.4f}  bound {bound:5.2f}  {verdict}")
        summary[workload] = rows
        print(flush=True)
    print(json.dumps(summary))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
