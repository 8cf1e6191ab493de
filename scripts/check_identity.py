#!/usr/bin/env python3
"""Check that two checkouts write byte-identical artifacts, stdout and serve traces.

For each of three configs, runs all eight CLI stages under one checkout and
then under the other, into the same output directory, and compares every
file the runs left there and everything they printed, byte for byte:

- ``demo``: ``scripts/run_demo.py --seed 7`` of each checkout;
- ``deep-search`` and ``cnn-exit``: those configs of
  ``perfbench/workloads.py`` at seed 7, one ``python -m spikecal`` per stage.

Each then runs ``eval --trace`` once more, which also writes
``spike_trace.csv``: eval's run on the trace path, where the one-input
trace run follows the eval-set run.

After its stages, each checkout also serves every eval input from its own
artifacts, one ``early_exit.infer_adaptive`` call per input as the
benchmark's serve phase does, and the two traces are compared field by field
(``exit_t``, ``confidence``, ``predicted``, ``scores``, ``spikes_per_input``:
dtype, shape and bytes). The benchmark itself checks only the exit step and
the class.

Exits 1 on any difference, a failed stage included, and names what
differs. PARENT_SRC and CHANGE_SRC are checkouts of this repository, each
holding ``src/`` and ``scripts/`` (a ``git archive`` of a commit will do).
Both run with one BLAS thread. A full check takes about a minute on a
2-vCPU machine.

    python3 scripts/check_identity.py /path/to/parent /path/to/change
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import make_config  # noqa: E402

STAGES = ("train", "convert", "search-phi", "search-rho", "fit-exit", "eval", "ablate", "report")
CONFIGS = ("demo", "deep-search", "cnn-exit")
STDOUT = "<stdout>"
SERVE = "<serve>"
SEED = 7

# Run under a checkout with the run's config path as argv[1]: serves each
# eval input alone and prints one line per request.
SERVE_CODE = """
import os, sys
from spikecal import cli, early_exit, engine, store
cfg = cli.load_config(sys.argv[1])
model = store.load_model(os.path.join(cfg.out_dir, "model_calibrated.snnc"))
configs, _ = engine.load_configs(os.path.join(cfg.out_dir, "snn_configs_full.txt"))
policy = early_exit.load_policy(os.path.join(cfg.out_dir, "exit_policy.txt"))
images, _ = cli._model_inputs(cfg, model, "eval")
for i in range(len(images)):
    trace = early_exit.infer_adaptive(
        model, configs, policy, images[i : i + 1], membrane_init=cfg.membrane_init
    )
    fields = (trace.exit_t, trace.confidence, trace.predicted, trace.scores,
              trace.spikes_per_input)
    print(" ".join(f"{f.dtype.str}{f.shape}:{f.tobytes().hex()}" for f in fields))
"""


def run(tree: str, name: str, out: str) -> dict[str, bytes]:
    """Every file a run of ``name`` under ``tree`` leaves in ``out``, its
    stdout (with each command's exit code) under the key ``STDOUT``, and,
    when every stage succeeded, its serve trace under ``SERVE``."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if name == "demo":
        script = os.path.join(tree, "scripts", "run_demo.py")
        commands = [[sys.executable, script, "--out", out, "--seed", str(SEED)]]
        config = os.path.join(out, "demo_config.json")
    else:
        config = os.path.join(out, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(make_config(name, SEED, out), fh, indent=2)
        commands = [[sys.executable, "-m", "spikecal", s, "--config", config] for s in STAGES]
    commands.append([sys.executable, "-m", "spikecal", "eval", "--trace", "--config", config])
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    printed = []
    for command in commands:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, check=False)
        printed.append(proc.stdout + f"[exit {proc.returncode}]\n".encode())
    found = {STDOUT: b"".join(printed)}
    for base, _, files in os.walk(out):
        for file in files:
            path = os.path.join(base, file)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = fh.read()
    if found[STDOUT].count(b"[exit 0]") == len(commands):
        serve = [sys.executable, "-c", SERVE_CODE, config]
        found[SERVE] = subprocess.run(serve, env=env, stdout=subprocess.PIPE, check=True).stdout
    return found


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """What differs between two runs' outputs, one line per file."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in change:
            lines.append(f"{key}: only under PARENT_SRC")
        elif key not in parent:
            lines.append(f"{key}: only under CHANGE_SRC")
        elif parent[key] != change[key]:
            lines.append(f"{key}: differs")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_SRC", help="checkout the change is compared against")
    ap.add_argument("change", metavar="CHANGE_SRC", help="checkout of the change")
    args = ap.parse_args()
    trees = [os.path.abspath(t) for t in (args.parent, args.change)]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "spikecal", "cli.py")):
            ap.error(f"{tree} holds no src/spikecal")
    failed = False
    with tempfile.TemporaryDirectory(prefix="check_identity-") as work:
        for name in CONFIGS:
            out = os.path.join(work, name)
            parent, change = (run(tree, name, out) for tree in trees)
            served = [r.pop(SERVE, b"").splitlines() for r in (parent, change)]
            diff = differences(parent, change)
            if diff:
                print(f"{name}: {len(diff)} of {len(parent | change)} outputs differ")
                for line in diff:
                    print(f"  {line}")
            else:
                print(f"{name}: {len(parent) - 1} files and stdout identical")
            errors = parent[STDOUT].count(b"[exit ") - parent[STDOUT].count(b"[exit 0]")
            if errors:
                print(f"  {errors} command(s) exited non-zero under PARENT_SRC")
            requests = max(len(served[0]), len(served[1]))
            differ = requests - sum(a == b for a, b in zip(*served))
            if differ or not requests:
                print(f"  serve: {differ} of {requests} requests differ")
            else:
                print(f"  serve: {requests} requests identical")
            failed |= bool(diff or errors or differ or not requests)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
