#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics of two checkouts in alternating pairs.

Runs ``perfbench/run.py --workload W --seed S`` under PARENT_SRC and under
CHANGE_SRC, one after the other, ``--pairs`` times; the first pair runs the
parent first, the next the change first, and so on, so that a slow spell of
a shared machine does not always land on the same side. Each run's last
stdout line is its result. For every end-to-end metric in BENCHMARK.json it
prints the parent's median and quartiles, the change's, the ratio of the
medians (change over parent) and in how many pairs the change was better
(ties count for neither side), then a verdict line (``verdict``).

Exits 1, naming the run, if a run exits non-zero, prints no result or
reports ``"correct": false``. Each checkout runs its own ``perfbench/`` on
its own ``src/`` (a ``git archive`` of a commit will do). One pair of the
default 36-second runs takes about two minutes.

    python3 scripts/ab_bench.py /path/to/parent /path/to/change --workload deep-search --pairs 10
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def end_to_end_metrics() -> list[dict]:
    """The ``end_to_end`` entries of BENCHMARK.json: name, unit, better, bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def parse_result(stdout: str) -> dict:
    """The result of a run: the JSON object on its last stdout line.

    Raises ValueError when there is none, or when the run reports itself
    incorrect.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ValueError("printed no result line") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("printed no result line")
    if result.get("correct") is not True:
        failures = [line for line in lines if line.startswith("failure ")]
        raise ValueError(f"reported correct: {result.get('correct')} ({'; '.join(failures)})")
    return result


def _values(results: list[dict], name: str) -> np.ndarray:
    return np.array([r["metrics"][name]["value"] for r in results], dtype=np.float64)


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """One line per metric from the pairs ``zip(parent, change)`` of results."""
    lines = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        a, b = _values(parent, name), _values(change, name)
        qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        wins = int(np.sum(sign * (a - b) > 0))
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        lines.append(
            f"{name} [{metric['unit']}]: parent {qa[1]:.4g} ({qa[0]:.4g}-{qa[2]:.4g}), "
            f"change {qb[1]:.4g} ({qb[0]:.4g}-{qb[2]:.4g}), ratio {ratio:.3f}, "
            f"change better in {wins} of {len(a)}"
        )
    return lines


def verdict(a, b, metric: dict) -> str:
    """The verdict on one metric's pairs ``zip(a, b)`` (parent, change).

    ``metric`` carries ``better`` and ``bound`` as in BENCHMARK.json; the
    bound is a fraction of the parent's median. In order:

    - ``gain``: the change is better in at least 9 of 10 pairs, ties
      counting for neither side, and its median is better than the
      parent's by more than the parent's interquartile range;
    - ``regression``: the change's median is worse than the parent's by
      more than the bound;
    - ``unresolved``: the parent's interquartile range is more than the
      bound, so the runs spread too widely to call the metric unchanged;
    - ``no change``: none of these.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    low, median, high = np.percentile(a, [25, 50, 75])
    gap = sign * (median - np.median(b))  # how much better the change's median is
    if 10 * int(np.sum(sign * (a - b) > 0)) >= 9 * len(a) and gap > high - low:
        return "gain"
    if -gap > metric["bound"] * abs(median):
        return "regression"
    if high - low > metric["bound"] * abs(median):
        return "unresolved"
    return "no change"


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One benchmark run under ``tree``; raises ValueError if it failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise ValueError(f"exited {proc.returncode} ({tail[0]})")
    return parse_result(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_SRC", help="checkout the change is compared against")
    ap.add_argument("change", metavar="CHANGE_SRC", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error(f"{tree} holds no perfbench/run.py")
    results = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                results[side].append(run_once(trees[side], args.workload, args.seed))
            except ValueError as err:
                print(f"pair {pair + 1}, {side} run under {trees[side]}: {err}")
                return 1
        print(f"pair {pair + 1} of {args.pairs} done ({order[0]} first)", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs")
    metrics = end_to_end_metrics()
    for metric, line in zip(metrics, summarize(results["parent"], results["change"], metrics)):
        print(line)
        a, b = (_values(results[side], metric["name"]) for side in ("parent", "change"))
        print(f"  verdict: {verdict(a, b, metric)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
