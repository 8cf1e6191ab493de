#!/usr/bin/env python3
"""Compare the serve latency of two checkouts on one set of artifacts, in interleaved blocks.

Builds the artifacts of workload W at seed S (``perfbench/workloads.py`` of
this repository) once, with PARENT_SRC's CLI, one ``python -m spikecal``
per stage. Then it starts one long-lived child per checkout. Each child
imports ``spikecal`` from its own ``src/`` and nothing else, loads the
calibrated model, the full configs and the exit policy, and serves the eval
set as the benchmark's ``Server`` does: one ``early_exit.infer_adaptive``
call per input, walking the inputs in order, each call timed alone. The two
children get alternating blocks of ``BLOCK`` requests, and the side that
goes first swaps every block, so a slow spell of a shared machine lands on
both sides alike. One untimed block per side warms each child up first.

Prints each side's request count with its p50, p90 and p99 latency, and
the ratio of the p90s (change over parent). Exits 1 if any request's
``exit_t``, ``predicted`` or ``scores`` bytes differ between the sides, or
if a stage or a child fails. Both sides run with one BLAS thread. With
6000 requests a side a run takes 10-15 s on a 2-vCPU machine, build
included, where ``scripts/ab_bench.py`` takes about two minutes per pair
of full runs.

    python3 scripts/serve_ab.py /path/to/parent /path/to/change --workload demo-mlp --seed 7
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import TINY, WORKLOADS, make_config  # noqa: E402

STAGES = ("train", "convert", "search-phi", "search-rho", "fit-exit", "eval", "ablate", "report")
BLOCK = 20  # requests a side serves before the other side's turn
SIDES = ("parent", "change")

# ``python -c`` program of a child: argv is [src, config]. It prints "ready
# N" for N eval inputs, then answers each stdin line holding a request count
# with one JSON line: [seconds, exit_t, predicted, scores hex] per request.
_CHILD = """\
import json, os, sys, time
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
import spikecal
from spikecal import cli, early_exit, engine, store
if os.path.dirname(os.path.abspath(spikecal.__file__)) != os.path.join(src, "spikecal"):
    raise SystemExit(f"spikecal imported from {spikecal.__file__}, not {src}")
cfg = cli.load_config(sys.argv[2])
out = cfg.out_dir
model = store.load_model(os.path.join(out, "model_calibrated.snnc"))
configs, _ = engine.load_configs(os.path.join(out, "snn_configs_full.txt"))
policy = early_exit.load_policy(os.path.join(out, "exit_policy.txt"))
images = cli._flatten_if_needed(model, cli._load_dataset(cfg, "eval").images)
sent = 0
print("ready", len(images), flush=True)
for line in sys.stdin:
    rows = []
    for _ in range(int(line)):
        i = sent % len(images)
        sent += 1
        x = images[i : i + 1]
        t0 = time.perf_counter()
        trace = early_exit.infer_adaptive(
            model, configs, policy, x, membrane_init=cfg.membrane_init
        )
        seconds = time.perf_counter() - t0
        scores = trace.scores.tobytes().hex()
        rows.append([seconds, int(trace.exit_t[0]), int(trace.predicted[0]), scores])
    print(json.dumps(rows), flush=True)
"""


class Failed(Exception):
    """A stage or a child failed; the message names it."""


def _env(src: str | None) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    if src is not None:
        env["PYTHONPATH"] = src
    return env


def build(tree: str, config: str) -> None:
    """Run the eight stages of ``config`` under ``tree``'s CLI."""
    for stage in STAGES:
        proc = subprocess.run(
            [sys.executable, "-m", "spikecal", stage, "--config", config],
            env=_env(os.path.join(tree, "src")), capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            raise Failed(f"stage {stage} under {tree} exited {proc.returncode} ({tail[0]})")


class Child:
    """A serving process of one checkout, answering blocks of requests."""

    def __init__(self, tree: str, config: str):
        self.name = tree
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, os.path.join(tree, "src"), config],
            env=_env(None), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            words = self._line().split()
            if words[:1] != ["ready"]:
                raise Failed(f"the child under {tree} printed {' '.join(words)!r}, not 'ready'")
        except Failed:
            self.close()
            raise
        self.inputs = int(words[1])

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise Failed(f"the child under {self.name} exited {self.proc.wait()}")
        return line

    def serve(self, requests: int) -> list[list]:
        self.proc.stdin.write(f"{requests}\n")
        self.proc.stdin.flush()
        return json.loads(self._line())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def compare(trees: dict[str, str], config: str, requests: int) -> tuple[dict[str, list], list[str]]:
    """Each side's latencies, in seconds, and one line per request whose
    answers differ between the sides."""
    children = {}
    try:
        for side in SIDES:
            children[side] = Child(trees[side], config)
        for child in children.values():
            child.serve(BLOCK)  # untimed warm-up
        rows = {side: [] for side in SIDES}
        for block in range((requests + BLOCK - 1) // BLOCK):
            size = min(BLOCK, requests - block * BLOCK)
            for side in SIDES if block % 2 == 0 else SIDES[::-1]:
                rows[side] += children[side].serve(size)
    finally:
        for child in children.values():
            child.close()
    differ = [
        f"request {k} (input {k % children['parent'].inputs}): parent exit/class {a[1:3]}, "
        f"change {b[1:3]}" + ("" if a[3] == b[3] else ", scores differ")
        for k, (a, b) in enumerate(zip(rows["parent"], rows["change"]))
        if a[1:] != b[1:]
    ]
    return {side: [r[0] for r in rows[side]] for side in SIDES}, differ


def summarize(latencies: dict[str, list]) -> list[str]:
    """One line per side with its percentiles in ms, then the ratio of the p90s."""
    lines, p90 = [], {}
    for side in SIDES:
        p50, p90[side], p99 = 1e3 * np.percentile(latencies[side], [50, 90, 99])
        lines.append(
            f"{side}: {len(latencies[side])} requests, p50 {p50:.4f} ms, "
            f"p90 {p90[side]:.4f} ms, p99 {p99:.4f} ms"
        )
    lines.append(f"p90 ratio (change over parent): {p90['change'] / p90['parent']:.3f}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_SRC", help="checkout the change is compared against")
    ap.add_argument("change", metavar="CHANGE_SRC", help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--requests", type=int, default=6000, help="timed requests a side")
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken workload, for the smoke test only")
    args = ap.parse_args()
    if args.requests < 1:
        ap.error("--requests must be at least 1")
    trees = {side: os.path.abspath(t) for side, t in zip(SIDES, (args.parent, args.change))}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "src", "spikecal", "cli.py")):
            ap.error(f"{tree} holds no src/spikecal")
    with tempfile.TemporaryDirectory(prefix="serve_ab-") as work:
        config = os.path.join(work, "config.json")
        overrides = TINY[args.workload] if args.tiny else None
        raw = make_config(args.workload, args.seed, os.path.join(work, "out"), overrides)
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        try:
            build(trees["parent"], config)
            latencies, differ = compare(trees, config, args.requests)
        except Failed as err:
            print(f"serve_ab: {err}")
            return 1
    print(f"{args.workload}, seed {args.seed}: {args.requests} requests a side "
          f"in alternating blocks of {BLOCK}")
    for line in summarize(latencies):
        print(line)
    if differ:
        print(f"traces: {len(differ)} of {args.requests} requests differ")
        for line in differ[:10]:
            print(f"  {line}")
        return 1
    print(f"traces: {args.requests} requests identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
