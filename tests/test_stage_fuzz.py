"""Stage-level fuzz: damaged artifacts of a finished run, fed to every stage
that reads them through ``cli.main``.

A tiny run (blobs, an 8-6-5-3 MLP, T = 4) is made once. Each trial copies
it, damages one artifact with byte flips, truncation, dropped or repeated
lines, or a numeric token replaced by an extreme value, and runs each stage
that reads that artifact. A stage may accept the damage (exit 0) or reject
it as a user error (exit 1) whose message names the damaged file, a missing
artifact, or both digests of a cache built for another model; it must never
exit 2. The trials are seeded; the budget is about 10 s.
"""

import json
import re
import shutil
import struct

import numpy as np
import pytest

from spikecal import cli

STAGES = ["train", "convert", "search-phi", "search-rho", "fit-exit", "eval", "ablate", "report"]

# artifact -> the stages that read it
READERS = {
    "model.snnc": ["convert"],
    "model_calibrated.snnc": ["search-phi", "search-rho", "fit-exit", "eval", "ablate", "report"],
    "calibration_cache.snnx": ["search-phi", "search-rho", "fit-exit", "ablate"],
    "snn_configs_base.txt": ["search-phi", "ablate"],
    "snn_configs_phi.txt": ["search-rho", "ablate"],
    "snn_configs_full.txt": ["fit-exit", "eval", "ablate", "report"],
    "plan_phi.txt": ["report"],
    "plan_rho.txt": ["report"],
    "exit_policy.txt": ["eval", "report"],
    "exit_trace.csv": ["report"],
}

TRIALS_PER_ARTIFACT = 30
EXTREMES = [b"0", b"-1", b"inf", b"nan", b"1e308", b"5e-324", b"999999999999999999"]
NUMBER = re.compile(rb"-?[0-9][0-9.e+-]*|-?inf")
MISMATCH = re.compile(r"cache was built for model [0-9a-f]{12}\.\.\., got [0-9a-f]{12}\.\.\.")


def _damage_text(rng, data: bytes) -> bytes:
    """One to three of: a byte flip, a truncation, a dropped or repeated
    line, or a numeric token replaced by an extreme value."""
    for _ in range(int(rng.integers(1, 4))):
        op = rng.choice(["flip", "truncate", "drop", "repeat", "number"])
        lines = data.split(b"\n")
        i = int(rng.integers(0, len(lines)))
        if op == "flip" and data:
            k = int(rng.integers(0, len(data)))
            data = data[:k] + bytes([data[k] ^ 1 << int(rng.integers(0, 8))]) + data[k + 1:]
        elif op == "truncate":
            data = data[: int(rng.integers(0, len(data) + 1))]
        elif op == "drop":
            data = b"\n".join(lines[:i] + lines[i + 1:])
        elif op == "repeat":
            data = b"\n".join(lines[: i + 1] + lines[i:])
        elif op == "number":
            spans = [m.span() for m in NUMBER.finditer(data)]
            if spans:
                a, b = spans[int(rng.integers(0, len(spans)))]
                data = data[:a] + EXTREMES[int(rng.integers(0, len(EXTREMES)))] + data[b:]
    return data


def _damage(rng, name: str, data: bytes) -> bytes:
    """Damaged bytes; half the time an envelope's text header alone,
    repacked with its new length, so the header parser is reached."""
    if name.endswith((".snnc", ".snnx")) and rng.random() < 0.5:
        (size,) = struct.unpack("<I", data[6:10])
        header = _damage_text(rng, data[10 : 10 + size])
        return data[:6] + struct.pack("<I", len(header)) + header + data[10 + size:]
    return _damage_text(rng, data)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A finished run's directory and its config."""
    root = tmp_path_factory.mktemp("stage-fuzz")
    cfg = {
        "out_dir": str(root / "run"), "seed": 3, "timesteps": 4, "t_max": 4, "calib_samples": 24,
        "dataset": {"kind": "blobs", "n": 60, "eval_n": 30, "dim": [8], "classes": 3},
        "model": {"hidden": [6, 5]}, "train": {"epochs": 10, "lr": 0.05},
    }
    config = root / "cfg.json"
    config.write_text(json.dumps(cfg))
    for stage in STAGES:
        assert cli.main([stage, "--config", str(config)]) == 0, stage
    return root, config


def test_damaged_artifacts_never_reach_exit_2(tiny_run, capsys):
    root, config = tiny_run
    finished, work = root / "run", root / "work"
    with open(config) as fh:
        cfg = json.load(fh)
    cfg["out_dir"] = str(work)
    work_config = root / "work.json"
    work_config.write_text(json.dumps(cfg))
    rng = np.random.default_rng(20)
    outcomes = {0: 0, 1: 0}
    for name, stages in READERS.items():
        original = (finished / name).read_bytes()
        for trial in range(TRIALS_PER_ARTIFACT):
            damaged = _damage(rng, name, original)
            for stage in stages:
                shutil.rmtree(work, ignore_errors=True)
                shutil.copytree(finished, work)
                (work / name).write_bytes(damaged)
                capsys.readouterr()
                code = cli.main([stage, "--config", str(work_config)])
                err = capsys.readouterr().err
                context = f"{stage} on {name} (trial {trial}): exit {code}: {err}"
                assert code in (0, 1), context
                if code == 1:
                    assert name in err or "missing" in err or MISMATCH.search(err), context
                outcomes[code] += 1
    # both outcomes happen, so the damage is neither always caught nor always harmless
    assert outcomes[0] and outcomes[1], outcomes
