"""``scripts/serve_ab.py`` on the smoke-test size of the demo-mlp workload."""

import os
import shutil
import subprocess
import sys

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
_SCRIPT = os.path.join(_ROOT, "scripts", "serve_ab.py")


def _serve_ab(parent, change, requests=50):
    return subprocess.run(
        [sys.executable, _SCRIPT, parent, change, "--workload", "demo-mlp", "--tiny",
         "--requests", str(requests)],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_one_checkout_on_both_sides_serves_identical_traces():
    done = _serve_ab(_ROOT, _ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "demo-mlp, seed 7: 50 requests a side in alternating blocks of 20"
    for side, line in zip(("parent", "change"), lines[1:3]):
        assert line.startswith(f"{side}: 50 requests, p50 ") and " p90 " in line and " p99 " in line
    assert lines[3].startswith("p90 ratio (change over parent): ")
    assert lines[4:] == ["traces: 50 requests identical"]


def test_differing_scores_exit_1(tmp_path):
    """A change whose served scores are off by one, exit steps and classes
    unchanged: every request is named as differing."""
    shutil.copytree(os.path.join(_ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "spikecal" / "early_exit.py"
    text = module.read_text()
    assert text.count("        scores=scores,\n") == 1
    module.write_text(text.replace("        scores=scores,\n", "        scores=scores + 1.0,\n"))
    done = _serve_ab(_ROOT, str(tmp_path), requests=30)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "traces: 30 of 30 requests differ" in done.stdout
    assert "scores differ" in done.stdout
