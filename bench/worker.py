"""One workload process: set up, report readiness, run timed rounds, check.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready``
once the first timed item can start, then (unless ``--setup-only``) one JSON
line with the run's counts and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_ITEMS = 100  # items per round, so that ten lie beyond its 90th percentile
PROBES = 5  # fresh interpreters per start-up reference figure

perf_counter = time.perf_counter


def import_package():
    sys.path.insert(0, str(SRC))
    import tracelang
    if not Path(tracelang.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tracelang was imported from {tracelang.__file__}, not {SRC}")
    return tracelang


class Outcome:
    """Items attempted and failed over a run, and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def run_round(workload, call, outcome: Outcome) -> tuple[float, list[float]]:
    """Run every item once, then check the outputs.

    Returns the round's busy time and the time of each item."""
    items, outputs, times = workload.items, [], []
    start = perf_counter()
    for item in items:
        t0 = perf_counter()
        try:
            out = workload.run(item, call)
        except Exception as error:  # counted as failed below
            out = error
        times.append(perf_counter() - t0)
        outputs.append(out)
    busy = perf_counter() - start
    outcome.attempted += len(items)
    for item, out in zip(items, outputs):
        if isinstance(out, RecursionError):
            outcome.failed += 1
            if item.kind != "deep":
                outcome.problems.append(f"RecursionError on a {item.kind} item")
            continue
        if isinstance(out, Exception):
            outcome.failed += 1
            outcome.problems.append(f"{item.kind}: {type(out).__name__}: {out}")
            continue
        problem = workload.check(item, out)
        if problem:
            outcome.problems.append(problem)
    return busy, times


def end_to_end(workload, seconds: float) -> tuple[Outcome, dict]:
    """Timed rounds until ``seconds`` have passed.

    Every item runs once per round, and its best time over the rounds is the
    one reported: on a shared machine, other tenants only ever slow an item
    down, often for seconds at a time, so an item's best time is the figure
    that repeats from run to run.  Throughput is the item count over the sum
    of the best times.
    """
    from spans import plain_call
    outcome, best = Outcome(), None
    start = perf_counter()
    while best is None or perf_counter() - start < seconds:
        _, times = run_round(workload, plain_call, outcome)
        best = times if best is None else list(map(min, best, times))
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "items_per_s": (len(best) / sum(best), "1/s"),
        "item_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "item_ms_p90": (statistics.quantiles(best, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return outcome, metrics


# ------------------------------------------------------------- traced run


def process_ms(code: str, env: dict) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    walls = []
    for _ in range(PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        walls.append(perf_counter() - t0)
    return statistics.median(walls) * 1e3


def traced(workload, tl, seconds: float, spans_path: Path) -> tuple[Outcome, dict]:
    """Alternate untraced and traced rounds; per-layer figures come from the
    traced ones, the difference between the two kinds is the overhead."""
    from spans import Tracer, plain_call

    def nodes(tree) -> int:
        count, stack = 0, [tree]
        while stack:
            count += 1
            stack.extend(tl.children(stack.pop()))
        return count

    tracer = Tracer({"lexer.tokenize": len, "parser.parse": nodes, "printer.format": len,
                     "semantics.regex_reach": len})
    semantics = sys.modules["tracelang.semantics"]
    original_reach = semantics.regex_reach
    outcome, plain_rounds, traced_rounds = Outcome(), [], []
    start = perf_counter()
    try:
        while not traced_rounds or perf_counter() - start < seconds:
            semantics.regex_reach = original_reach
            plain_rounds.append(run_round(workload, plain_call, Outcome())[0])
            semantics.regex_reach = tracer.wrap("semantics.regex_reach", original_reach)
            traced_rounds.append(run_round(workload, tracer.call, outcome)[0])
    finally:
        semantics.regex_reach = original_reach
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)

    rounds = len(traced_rounds)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    floor = process_ms("pass", env)
    metrics = layer_metrics(tracer, rounds)
    metrics["cli.floor_ms"] = (floor, "ms")
    metrics["cli.import_ms"] = (process_ms("import tracelang", env) - floor, "ms")
    metrics["bench.trace_overhead_s"] = (sum(traced_rounds) - sum(plain_rounds), "s")
    return outcome, metrics


def layer_metrics(tracer, rounds: int) -> dict:
    """Per-round sums, self times and per-command medians from the spans.

    A parse span contains the package's own tokenising, so the parser's self
    time is each parse span minus the tokenize span the item recorded just
    before it on the same text.
    """
    own = tracer.self_times()
    total: dict[str, float] = {}
    whole: dict[str, float] = {}
    count: dict[str, int] = {}
    size: dict[str, int] = {}
    commands: dict[str, list[float]] = {}
    last_lex = 0.0
    for index, (name, start, end, _, work, outcome) in enumerate(tracer.spans):
        seconds = own[index]
        if name == "lexer.tokenize":
            last_lex = end - start
        elif name == "parser.parse":
            seconds -= last_lex
            last_lex = 0.0
            if outcome not in ("ok", "RecursionError"):
                name = "parser.reject"
        elif name.startswith("cli.") and name != "cli.formula_to_dict":
            commands.setdefault(name, []).append(end - start)
        total[name] = total.get(name, 0.0) + seconds
        whole[name] = whole.get(name, 0.0) + end - start
        count[name] = count.get(name, 0) + 1
        size[name] = size.get(name, 0) + work

    def per_round(table: dict, name: str) -> float:
        return table.get(name, 0) / rounds

    def rate(name: str) -> float:
        busy = total.get(name, 0.0)
        return size.get(name, 0) / busy if busy > 0 else 0.0

    metrics = {
        "lexer.tokens": (per_round(size, "lexer.tokenize"), "count"),
        "lexer.self_s": (per_round(total, "lexer.tokenize"), "s"),
        "lexer.tokens_per_s": (rate("lexer.tokenize"), "1/s"),
        "parser.nodes": (per_round(size, "parser.parse"), "count"),
        "parser.self_s": (per_round(total, "parser.parse") + per_round(total, "parser.reject"), "s"),
        "parser.nodes_per_s": (rate("parser.parse"), "1/s"),
        "parser.rejects": (per_round(count, "parser.reject"), "count"),
        "parser.reject_s": (per_round(total, "parser.reject"), "s"),
        "printer.chars": (per_round(size, "printer.format"), "count"),
        "printer.self_s": (per_round(total, "printer.format"), "s"),
        "printer.chars_per_s": (rate("printer.format"), "1/s"),
        "cli.to_dict_s": (per_round(total, "cli.formula_to_dict"), "s"),
    }
    for command in ("check", "fmt", "ast", "eval", "conformance"):
        walls = commands.get(f"cli.{command}")
        metrics[f"cli.{command}_ms"] = (statistics.median(walls) * 1e3 if walls else 0.0, "ms")
    for logic in ("ltlf", "pltlf", "monitor", "ldlf", "pldlf"):
        # whole evaluation calls, including the regex_reach calls inside them
        metrics[f"semantics.{logic}_s"] = (per_round(whole, f"semantics.{logic}"), "s")
    metrics["semantics.regex_reach_calls"] = (per_round(count, "semantics.regex_reach"), "count")
    metrics["semantics.regex_reach_self_s"] = (per_round(total, "semantics.regex_reach"), "s")
    metrics["semantics.reach_pairs"] = (per_round(size, "semantics.regex_reach"), "count")
    return metrics


# ------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tl = import_package()
    from workloads import WORKLOADS
    from reference import self_check
    workload = WORKLOADS[args.workload](tl, args.seed, ROOT)
    try:
        problems = self_check() + workload.setup()
        if len(workload.items) < MIN_ITEMS:
            problems.append(f"a round has {len(workload.items)} items, fewer than {MIN_ITEMS}")
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            spans_path = ROOT / "bench" / "out" / f"spans-{args.workload}.jsonl"
            outcome, metrics = traced(workload, tl, args.seconds, spans_path)
        else:
            outcome, metrics = end_to_end(workload, args.seconds)
    finally:
        workload.close()
    problems += outcome.problems
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "problems": problems[:10],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
