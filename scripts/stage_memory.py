#!/usr/bin/env python3
"""Wall time and peak memory of each CLI stage, each stage in a fresh process.

Writes the run config of workload W at seed S (``perfbench/workloads.py``
of this repository, so two checkouts run the same config) into a temporary
run directory, then runs the eight stages in order, each as ``python -m
spikecal STAGE --config ...`` with CHECKOUT's ``src/`` on the path and one
BLAS thread. For every stage it prints the wall time and the child's peak
resident set size (``ru_maxrss`` from ``os.wait4``), so a stage's memory is
its own and not the highest of the stages before it, as in a one-process
run. Then it runs the stage again in a second child under ``tracemalloc``,
started once ``spikecal.cli`` is imported, and prints that child's traced
peak (``traced_mb``): Python objects and numpy arrays the stage allocates.
maxrss moves from run to run with how the heap reuses freed pages. Every
child runs with ``PYTHONHASHSEED=0`` and, on Linux, with address-space
randomization off for itself alone (``setarch -R``'s personality flag), so
sets and dicts keyed by object ids order alike and the traced peak repeats
to the byte: a memory change can be given as a count. The first child's
wall time is not traced. A rerun stage writes the same bytes, as every
stage does. With ``--repeat N`` each stage runs N times untraced, each in a
fresh process that pays start-up as a CLI user does, and the median wall
time and median maxrss of those runs are printed; the traced peak, which
repeats to the byte, is still taken once. Exits 1, naming the stage and its
last stderr line, if a stage fails.

    python3 scripts/stage_memory.py /path/to/checkout --workload demo-mlp --seed 7 --repeat 5
"""

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, make_config  # noqa: E402

STAGES = ("train", "convert", "search-phi", "search-rho", "fit-exit", "eval", "ablate", "report")

# ``python -c`` program of the traced child: argv is [peak file, stage, flags...]
_TRACED = """\
import sys, tracemalloc
from spikecal import cli
tracemalloc.start()
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(str(tracemalloc.get_traced_memory()[1]))
sys.exit(code)
"""


class StageFailed(Exception):
    """A stage exited non-zero; the message names it."""


_ADDR_NO_RANDOMIZE = 0x0040000  # linux/personality.h


def _fixed_layout():
    """Turn address-space randomization off for the calling process and what
    it execs (``setarch -R``), where the C library has ``personality``."""
    personality = getattr(ctypes.CDLL(None), "personality", None)
    if personality is not None:
        personality(_ADDR_NO_RANDOMIZE)


def _run_child(tree: str, stage: str, args: list[str]):
    """Run ``python *args`` under ``tree``'s ``src/`` with one BLAS thread, a
    fixed hash seed and a fixed memory layout.

    Returns its wall seconds and ``os.wait4`` resource usage; raises
    StageFailed, naming ``stage``, if it exits non-zero.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0"
    )
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, stdout=subprocess.DEVNULL, stderr=err,
            preexec_fn=_fixed_layout,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode(errors="replace").strip().splitlines()[-1:] or ["no stderr"]
            raise StageFailed(f"stage {stage} exited {proc.returncode} ({tail[0]})")
    return seconds, usage


def run_stage(tree: str, stage: str, config: str) -> tuple[float, float]:
    """Wall seconds and peak RSS in MiB of one ``python -m spikecal`` stage."""
    seconds, usage = _run_child(tree, stage, ["-m", "spikecal", stage, "--config", config])
    return seconds, usage.ru_maxrss / 1024.0  # Linux reports KiB


def traced_peak(tree: str, stage: str, config: str) -> int:
    """Bytes at the ``tracemalloc`` peak of one run of ``stage``, traced
    from just after ``spikecal.cli`` is imported to the stage's end."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "peak")
        _run_child(tree, stage, ["-c", _TRACED, path, stage, "--config", config])
        with open(path, encoding="utf-8") as fh:
            return int(fh.read())


def run_stages(tree: str, config: dict, repeat: int = 1) -> list[tuple[str, float, float, float]]:
    """``(stage, wall_s, maxrss_mb, traced_mb)`` of every stage of ``config``
    under ``tree``; each stage runs ``repeat`` times untraced (wall time and
    maxrss are the medians), then once traced, before the next."""
    path = os.path.join(config["out_dir"], "config.json")
    os.makedirs(config["out_dir"], exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    rows = []
    for stage in STAGES:
        seconds, maxrss = zip(*(run_stage(tree, stage, path) for _ in range(repeat)))
        rows.append((stage, statistics.median(seconds), statistics.median(maxrss),
                     traced_peak(tree, stage, path) / 2**20))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", metavar="CHECKOUT", help="checkout holding src/spikecal")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeat", type=int, default=1, metavar="N",
                    help="untraced runs of each stage; prints the medians")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error(f"--repeat must be at least 1, got {args.repeat}")
    tree = os.path.abspath(args.checkout)
    if not os.path.isfile(os.path.join(tree, "src", "spikecal", "cli.py")):
        ap.error(f"{tree} holds no src/spikecal")
    with tempfile.TemporaryDirectory(prefix="stage_memory-") as work:
        try:
            rows = run_stages(tree, make_config(args.workload, args.seed, work), args.repeat)
        except StageFailed as err:
            print(f"{args.workload}, seed {args.seed}: {err}")
            return 1
    runs = "" if args.repeat == 1 else f", medians of {args.repeat} runs"
    print(f"{args.workload}, seed {args.seed}, one BLAS thread, one process per stage{runs}")
    print(f"{'stage':<12}{'wall_s':>8}{'maxrss_mb':>11}{'traced_mb':>11}")
    for stage, seconds, mb, traced in rows:
        print(f"{stage:<12}{seconds:>8.3f}{mb:>11.1f}{traced:>11.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
