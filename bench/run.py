"""tracelang benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload frontend --seed 1 --seconds 33 --trace 0
    python3 bench/run.py --seed 1              # every workload, one after another

Each workload runs in a fresh process (``worker.py``), started several
times to time set-up; the one in the middle also runs the timed rounds.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run, whose spans are written to
``bench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frontend", "eval", "cli")
SETUPS = 7  # set-up is timed this many times per run; the median is reported
DEADLINE = 170.0  # seconds a whole run may take


def missing_sources() -> list[str]:
    needed = (ROOT / "src" / "tracelang" / "__init__.py", ROOT / "conformance" / "corpus.jsonl")
    return [str(path) for path in needed if not path.is_file()]


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a workload process and wait until it is ready; returns it with its set-up time."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args.workload} worker failed during set-up")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker's remaining output; a worker past its time is killed."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out


def time_setups(args, count: int) -> list[float]:
    """Set-up times of ``count`` workers that exit once ready."""
    setups = []
    for _ in range(count):
        proc, setup = start_worker(args, setup_only=True)
        finish(proc, 30)
        setups.append(setup)
    return setups


def run_workload(args) -> dict:
    """One timed worker, with set-up-only workers before and after it when
    untraced, so that the set-up times are taken at both ends of the run."""
    deadline = time.monotonic() + DEADLINE
    before = SETUPS // 2 if not args.trace else 0
    setups = time_setups(args, before)
    proc, setup = start_worker(args, setup_only=False)
    setups.append(setup)
    out = finish(proc, deadline - time.monotonic())
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with status {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setups += time_setups(args, SETUPS - 1 - before)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def report(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for problem in result.get("problems", []):
        print(f"   problem: {problem}")
    for metric, entry in sorted(result["metrics"].items()):
        print(f"   {metric:<32} {entry['value']:>14.6g} {entry['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = missing_sources()
    if missing:
        print(f"error: the benchmark needs the tracelang sources: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        report(name, results[name])
    if len(names) == 1:
        result = results[names[0]]
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps({name: {key: r[key] for key in ("correct", "attempted", "failed", "metrics")}
                          for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
