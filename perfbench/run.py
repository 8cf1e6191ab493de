#!/usr/bin/env python3
"""Benchmark of the spikecal pipeline: per-stage CLI wall time and serve latency.

    python3 perfbench/run.py --workload demo-mlp --seed 7 --seconds 36 --trace 0

Run from the repository root; the program is imported from ``src/``. The
workload (``workloads.py``) is a run config made from ``--seed``. One run:

1. set-up: times a fresh interpreter that imports ``spikecal`` and loads the
   config, several times, and keeps the median;
2. warm-up: one untimed pass of the eight CLI stages on a shrunken config;
3. pipeline: runs the eight stages in process through ``spikecal.cli.main``,
   each pass into a fresh artifact directory, until ``--seconds`` of stage
   time and at least two passes. Each stage time is the median over the
   passes. Every pass after the first must write the same bytes as the first;
4. serve: after each pass, answers the eval set one input per
   ``early_exit.infer_adaptive`` call from the calibrated model, best configs
   and exit policy of the first pass. One client, closed loop, at least 1000
   requests and ten seconds of serving over the run. Every answer's exit step
   and class must match the batched ``exit_trace.csv``. The result carries
   the 90th percentile latency; the run details carry p50, p95 and p99.
   A shared VM alternates between fast and slow spells of a few seconds,
   each with its own tight latency band, so the median flips between the two
   bands with the share of fast spells a run happens to get; p90 stays in the
   slow band and is the steadiest percentile. p99 follows the host's stalls.

Operations are stage calls, per-artifact byte comparisons and serve
requests; ``failed`` counts those that went wrong. With ``--trace 0`` the
last stdout line carries the end-to-end metrics. With ``--trace 1`` a pass and a
walk over the eval set run with every layer module wrapped (``spans.py``),
between two untraced ones; the last line carries the per-layer metrics,
corrected for the tracer's cost per span, and the tracing overhead; the spans
are written under
``.bench_build/perfbench/``. The lines before the result give the
environment, the sample counts and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

STAGES = ("train", "convert", "search-phi", "search-rho", "fit-exit", "eval", "ablate", "report")
SETUP_REPEATS = 15  # about 0.25 s each
MIN_PASSES = 2  # the second checks the first's artifacts byte for byte
MIN_SERVE_REQUESTS = 1000  # the reported p99 then has ten samples beyond it
SERVE_S = 10.0  # fast workloads serve more requests, for this long at least
CHANCE_MULTIPLE = 2.0  # fixed-T accuracy under twice chance means broken numerics

def _single_thread_blas() -> None:
    """Run BLAS on one thread; must happen before numpy is imported.

    The matrices here are small, so a second BLAS thread buys little, and on a
    shared machine a stalled helper thread stalls every call; one thread gives
    steadier timings.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program() -> SimpleNamespace:
    """Import spikecal from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "spikecal", "cli.py")):
        raise SystemExit(f"perfbench: no program to measure: {SRC}/spikecal is missing")
    sys.path.insert(0, SRC)
    import spikecal
    from spikecal import cli, early_exit, engine, store

    if os.path.dirname(os.path.abspath(spikecal.__file__)) != os.path.join(SRC, "spikecal"):
        raise SystemExit(f"perfbench: spikecal imported from {spikecal.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, early_exit=early_exit, engine=engine, store=store)


class Counts:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


# ---------------------------------------------------------------------------
# phases

def measure_setup(cfg_path: str, repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing spikecal and loading the config."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); from spikecal import cli; cli.load_config(sys.argv[2])"
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, SRC, cfg_path], check=True)
        out.append(time.perf_counter() - t0)
    return out


def _digests(directory: str) -> dict[str, str]:
    found = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def run_stage(cli, stage: str, cfg_path: str, counts: Counts, tracer=None) -> float:
    """One ``cli.main`` call, with its output captured; returns its wall time."""
    gc.collect()
    if tracer is not None:
        tracer.request = stage
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = time.perf_counter()
        rc = cli.main([stage, "--config", cfg_path])
        elapsed = time.perf_counter() - t0
    counts.record(rc == 0, f"stage {stage} exited {rc}: {captured.getvalue().strip()[-300:]}")
    return elapsed


def run_pass(cli, cfg_path: str, out_dir: str, counts: Counts, tracer=None) -> dict[str, float]:
    """Run every stage into a fresh ``out_dir``; returns wall time per stage."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    return {stage: run_stage(cli, stage, cfg_path, counts, tracer) for stage in STAGES}


def check_artifacts(first: dict[str, str], again: dict[str, str], counts: Counts, label: str) -> None:
    for name in sorted(set(first) | set(again)):
        same = first.get(name) is not None and first.get(name) == again.get(name)
        counts.record(same, f"{label}: artifact {name} differs from the first pass")


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Server:
    """The pipeline's final model, configs and policy, serving one input per call."""

    def __init__(self, program: SimpleNamespace, cfg_path: str):
        self.early_exit = early_exit = program.early_exit
        cli = program.cli
        cfg = cli.load_config(cfg_path)
        out = cfg.out_dir
        self.membrane_init = cfg.membrane_init
        self.model = program.store.load_model(os.path.join(out, "model_calibrated.snnc"))
        self.configs, _ = program.engine.load_configs(os.path.join(out, "snn_configs_full.txt"))
        self.policy = early_exit.load_policy(os.path.join(out, "exit_policy.txt"))
        # the eval split as the eval stage draws and shapes it
        self.images = images = cli._flatten_if_needed(self.model, cli._load_dataset(cfg, "eval").images)
        self.sent = 0
        rows = _read_csv(os.path.join(out, "exit_trace.csv"))
        self.expected = [(int(r["exit_t"]), int(r["predicted"])) for r in rows]
        if len(self.expected) != len(images):
            raise SystemExit(f"perfbench: exit_trace.csv has {len(rows)} rows for {len(images)} inputs")

    def serve(self, requests: int, counts: Counts, tracer=None) -> list[float]:
        """Closed loop, one client: each request is sent when the last returns.

        Requests walk the eval set in order, carrying on where the last call
        stopped.
        """
        latencies = []
        for _ in range(requests):
            k = self.sent
            self.sent += 1
            i = k % len(self.images)
            x = self.images[i : i + 1]
            if tracer is not None:
                tracer.request = f"serve-{k}"
            t0 = time.perf_counter()
            trace = self.early_exit.infer_adaptive(
                self.model, self.configs, self.policy, x, membrane_init=self.membrane_init
            )
            latencies.append(time.perf_counter() - t0)
            got = (int(trace.exit_t[0]), int(trace.predicted[0]))
            counts.record(
                got == self.expected[i],
                f"serve request {k} (input {i}): exit/class {got}, batched eval gave {self.expected[i]}",
            )
        return latencies


# ---------------------------------------------------------------------------
# environment

def _git_revision() -> str:
    """HEAD of the checkout read from .git, or 'none' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "spikecal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - best effort; older numpy has no dict mode
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# runs

def prepare(workload: str, seed: int, trace: bool, overrides: dict | None = None) -> tuple[str, str, str]:
    from workloads import make_config

    size = "-tiny" if overrides else ""
    run_dir = os.path.join(WORK, f"{workload}{size}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    out_dir = os.path.join(run_dir, "out")
    cfg_path = os.path.join(run_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(make_config(workload, seed, out_dir, overrides), fh, indent=2)
    return run_dir, out_dir, cfg_path


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def warm_up(cli, workload: str, seed: int, run_dir: str, counts: Counts) -> None:
    """One untimed pass of the shrunken workload.

    It runs every code path the full pass runs (imports, lazy numpy set-up,
    the allocator's first growth), which makes the first full pass as fast as
    the ones after it, for a tenth of a cold full pass's cost.
    """
    from workloads import TINY, make_config

    out_dir = os.path.join(run_dir, "warmup")
    cfg_path = os.path.join(run_dir, "warmup.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(make_config(workload, seed, out_dir, TINY[workload]), fh)
    run_pass(cli, cfg_path, out_dir, counts)
    shutil.rmtree(out_dir, ignore_errors=True)


def measure(program, workload: str, seed: int, seconds: float, *, overrides=None,
            setup_repeats: int = SETUP_REPEATS, min_requests: int = MIN_SERVE_REQUESTS,
            serve_s: float = SERVE_S) -> tuple[dict, Counts, dict]:
    """The untraced run: end-to-end metrics, failure counts and run details."""
    t_run = time.perf_counter()
    cli = program.cli
    counts = Counts()
    run_dir, out_dir, cfg_path = prepare(workload, seed, False, overrides)
    setup = measure_setup(cfg_path, setup_repeats)
    warm_up(cli, workload, seed, run_dir, counts)

    samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
    latencies: list[float] = []
    pipeline_s = 0.0
    passes = 0
    while passes < MIN_PASSES or pipeline_s < seconds:
        times = run_pass(cli, cfg_path, out_dir, counts)
        pipeline_s += sum(times.values())
        passes += 1
        for stage, dt in times.items():
            samples[stage].append(dt)
        if passes == 1:
            first = _digests(out_dir)
            eval_rows = {r["mode"]: r for r in _read_csv(os.path.join(out_dir, "eval.csv"))}
            server = Server(program, cfg_path)
            server.serve(min(20, len(server.images)), Counts())  # untimed warm-up
        else:
            check_artifacts(first, _digests(out_dir), counts, f"pass {passes}")
        # Serving follows every pass, for a share of SERVE_S in proportion to
        # the pass's stage time, so that it samples the machine over the
        # whole run as the stage times do.
        goal = serve_s * min(1.0, pipeline_s / seconds) if seconds else serve_s
        while sum(latencies) < goal:
            latencies += server.serve(20, counts)
    latencies += server.serve(max(0, min_requests - len(latencies)), counts)

    fixed = eval_rows["fixed"]
    metrics = {
        "setup_s": statistics.median(setup),
        **{f"stage.{stage}_s": statistics.median(v) for stage, v in samples.items()},
        "serve.p90_ms": 1e3 * _percentile(latencies, 90),
        "accuracy_fixed": float(fixed["accuracy"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": (counts.attempted - counts.failed) / counts.attempted,
    }
    floor = CHANCE_MULTIPLE / cli.load_config(cfg_path).dataset.classes
    if metrics["accuracy_fixed"] < floor:
        counts.reasons.append(f"fixed-T accuracy {metrics['accuracy_fixed']} < {floor}")
    details = {
        "run_s": time.perf_counter() - t_run,
        "passes": passes,
        "setup_samples": len(setup),
        "serve_requests": len(latencies),
        "serve_ms": {f"p{q}": 1e3 * _percentile(latencies, q) for q in (50, 90, 95, 99)},
        "eval_csv": eval_rows,
        "stage_samples_s": samples,
    }
    shutil.rmtree(out_dir, ignore_errors=True)
    return metrics, counts, details


def measure_traced(program, workload: str, seed: int, *, overrides=None) -> tuple[dict, Counts, dict]:
    """The traced run: per-layer metrics of one pass plus one walk over the eval set.

    The traced pass and walk sit between two untraced ones; the tracing
    overhead is the traced time minus the mean of the untraced times.
    """
    from spans import Tracer, layer_metrics, span_cost

    cli = program.cli
    counts = Counts()
    run_dir, out_dir, cfg_path = prepare(workload, seed, True, overrides)
    warm_up(cli, workload, seed, run_dir, counts)
    run_pass(cli, cfg_path, out_dir, counts)
    server = Server(program, cfg_path)
    n = len(server.images)
    server.serve(min(20, n), Counts())
    tracer = Tracer()

    def once(traced: bool) -> tuple[float, float]:
        """Seconds of one pass's stages, and median ms of one walk's requests."""
        if traced:
            tracer.install()
        try:
            times = run_pass(cli, cfg_path, out_dir, counts, tracer if traced else None)
            latencies = server.serve(n, counts, tracer if traced else None)
        finally:
            tracer.uninstall()
        return sum(times.values()), 1e3 * statistics.median(latencies)

    cost = span_cost()
    before, traced, after = once(False), once(True), once(False)
    metrics = layer_metrics(tracer.spans, cost)
    metrics["trace.span_cost_us"] = 1e6 * cost
    metrics["trace.pipeline_overhead_s"] = traced[0] - (before[0] + after[0]) / 2
    metrics["trace.serve_overhead_ms"] = traced[1] - (before[1] + after[1]) / 2
    spans_path = os.path.join(run_dir, "spans.csv.gz")
    tracer.write(spans_path)
    listed = metric_units("per_layer")
    details = {
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        # every graph layer's split, and the conv metrics of cnn-exit
        "unlisted": {k: v for k, v in metrics.items() if k not in listed},
    }
    shutil.rmtree(out_dir, ignore_errors=True)
    return metrics, counts, details


def metric_units(kind: str) -> dict[str, str]:
    """Name and unit of each ``end_to_end`` or ``per_layer`` metric in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=36.0, help="stage time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken workload, for the smoke test only")
    args = ap.parse_args(argv)

    _single_thread_blas()
    program = _import_program()
    sys.path.insert(0, HERE)
    from workloads import TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(args.workload, args.seed)
    overrides = TINY[args.workload] if args.tiny else None
    if args.trace:
        metrics, counts, details = measure_traced(program, args.workload, args.seed, overrides=overrides)
        units = metric_units("per_layer")
    else:
        small = {"setup_repeats": 1, "min_requests": 1, "serve_s": 0.0} if args.tiny else {}
        metrics, counts, details = measure(
            program, args.workload, args.seed, args.seconds, overrides=overrides, **small
        )
        units = metric_units("end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")

    print("env " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for reason in counts.reasons:
        print("failure " + reason)
    result = {
        "correct": not counts.reasons,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
