"""``scripts/stage_memory.py`` on the smoke-test size of the deep-search workload."""

import importlib.util
import os
import subprocess
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_PATH = os.path.join(_ROOT, "scripts", "stage_memory.py")
_SPEC = importlib.util.spec_from_file_location("stage_memory", _PATH)
stage_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stage_memory)

sys.path.insert(0, os.path.join(_ROOT, "perfbench"))
from workloads import TINY, make_config  # noqa: E402


def _tiny_config(out_dir, **overrides):
    return make_config("deep-search", 7, str(out_dir), {**TINY["deep-search"], **overrides})


def test_every_stage_gets_a_time_and_its_own_peak(tmp_path):
    """Each stage gets a wall time, a maxrss and a traced peak; the traced
    peak of a stage run again on the same inputs is the same, to the byte."""
    config = _tiny_config(tmp_path / "run")
    rows = stage_memory.run_stages(_ROOT, config)
    assert [stage for stage, _, _, _ in rows] == list(stage_memory.STAGES)
    for stage, seconds, mb, traced in rows:
        assert seconds > 0 and mb > 1.0 and 0 < traced < mb, (stage, seconds, mb, traced)
    assert os.path.exists(tmp_path / "run" / "report" / "exit_histogram.csv")
    path = os.path.join(config["out_dir"], "config.json")
    eval_row = rows[stage_memory.STAGES.index("eval")]
    assert stage_memory.traced_peak(_ROOT, "eval", path) == eval_row[3] * 2**20


def test_repeat_prints_the_medians(monkeypatch, capsys):
    """``--repeat 3`` runs each stage three times untraced and once traced,
    and prints the median wall time and maxrss next to the traced peak; the
    header says so. Without it each stage runs once and the header has no
    such note."""
    for argv, header, wall, rss in (
        (["--repeat", "3"], ", medians of 3 runs", 2.0, 60.0),
        ([], "", 3.0, 60.0),
    ):
        runs = {stage: iter([(3.0, 60.0), (1.0, 50.0), (2.0, 70.0)])
                for stage in stage_memory.STAGES}
        traced = []
        monkeypatch.setattr(stage_memory, "run_stage",
                            lambda tree, stage, path, runs=runs: next(runs[stage]))
        monkeypatch.setattr(stage_memory, "traced_peak",
                            lambda tree, stage, path, traced=traced: traced.append(stage) or 2**20)
        monkeypatch.setattr(sys, "argv", ["stage_memory.py", _ROOT, "--workload", "deep-search",
                                          *argv])
        assert stage_memory.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"deep-search, seed 7, one BLAS thread, one process per stage{header}"
        assert lines[2:] == [f"{stage:<12}{wall:>8.3f}{rss:>11.1f}{1.0:>11.3f}"
                             for stage in stage_memory.STAGES]
        assert traced == list(stage_memory.STAGES)
        left = 0 if argv else 2
        assert all(len(list(rest)) == left for rest in runs.values())


def test_repeat_below_one_is_refused():
    proc = subprocess.run(
        [sys.executable, _PATH, _ROOT, "--workload", "deep-search", "--repeat", "0"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 2 and "--repeat must be at least 1, got 0" in proc.stderr


def test_a_failed_traced_run_is_named(tmp_path):
    """A checkout whose package imports but has no ``cli.main``: the traced
    child fails and its stage is named."""
    package = tmp_path / "src" / "spikecal"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("")
    with pytest.raises(stage_memory.StageFailed, match=r"^stage eval exited 1 \(AttributeError: "):
        stage_memory.traced_peak(str(tmp_path), "eval", str(tmp_path / "config.json"))


def test_a_failed_stage_is_named(tmp_path):
    config = _tiny_config(tmp_path / "run", train={"epochs": 8, "lr": -1.0})
    with pytest.raises(stage_memory.StageFailed, match=r"^stage train exited 1 \(error: "):
        stage_memory.run_stages(_ROOT, config)


def test_script_exits_1_naming_the_stage(tmp_path):
    """A checkout whose ``python -m spikecal`` fails: the first stage is named."""
    package = tmp_path / "src" / "spikecal"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("")
    (package / "__main__.py").write_text("import sys\nsys.exit('error: broken')\n")
    proc = subprocess.run(
        [sys.executable, _PATH, str(tmp_path), "--workload", "deep-search"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 1
    assert proc.stdout == "deep-search, seed 7: stage train exited 1 (error: broken)\n"
