"""Damaged artifacts: every loader either succeeds or raises StoreError.

Each real artifact is written once, then damaged by hypothesis with
truncations, dropped, duplicated or swapped lines, replaced tokens and
replaced bytes. For the binary envelopes the text header is also damaged on
its own and repacked with a correct length, so the header parser is reached.
"""

import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spikecal import calibrate, early_exit, engine, search, store

T_MAX = 4

LOADERS = {
    "configs.txt": engine.load_configs,
    "plan.txt": search.load_plan,
    "policy.txt": early_exit.load_policy,
    "exits.csv": lambda path: early_exit.load_exit_steps(path, T_MAX),
    "model.snnc": store.load_model,
    "cache.snnx": store.load_cache,
}

TOKENS = [
    "", "0", "1", "7", "-1", "0.5", "-2.5", "1e999", "inf", "nan", "x", "true",
    "layer", "t", "99999999999999999999", "tap_9", "é",
]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, trained_mlp, calibration):
    out = tmp_path_factory.mktemp("artifacts")
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, T_MAX)
    configs = calibrate.configs_from_fits(fits)
    table = search.build_table(trained_mlp, configs, calibration, T_MAX, "phi", candidates=[1, 2])
    plan = search.pareto_search(table, search.SearchBudget("energy_cap", np.inf))
    policy = early_exit.fit_exit_policy(trained_mlp, configs, calibration, t_max=T_MAX)
    trace = early_exit.infer_adaptive(
        trained_mlp, configs, policy, calibration.inputs[:20], calibration.labels[:20]
    )
    engine.save_configs(configs, engine.spiking_layer_indices(trained_mlp), out / "configs.txt")
    search.save_plan(plan, out / "plan.txt")
    early_exit.save_policy(policy, out / "policy.txt")
    early_exit.write_exit_trace(out / "exits.csv", trace)
    store.save_model(trained_mlp, out / "model.snnc")
    store.save_cache(calibration, out / "cache.snnx")
    return out


@st.composite
def damaged_text(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "byte", "drop", "duplicate", "swap", "token"]))
        if op == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
            continue
        if op == "byte":
            if data:
                i = draw(st.integers(0, len(data) - 1))
                data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
            continue
        lines = data.split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            sep = b"," if b"," in lines[i] else b" "
            tokens = lines[i].split(sep)
            donor = draw(st.sampled_from(lines)).split(sep)
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(st.one_of(
                st.sampled_from(TOKENS).map(lambda t: t.encode("utf-8")),
                st.sampled_from(donor),
            ))
            lines[i] = sep.join(tokens)
        data = b"\n".join(lines)
    return data


@st.composite
def damaged_file(draw, data: bytes, envelope: bool) -> bytes:
    if envelope and draw(st.booleans()):
        (header_len,) = struct.unpack("<I", data[6:10])
        header = draw(damaged_text(data[10 : 10 + header_len]))
        return data[:6] + struct.pack("<I", len(header)) + header + data[10 + header_len :]
    return draw(damaged_text(data))


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_damaged_artifact_loads_or_raises_store_error(artifacts, name):
    load = LOADERS[name]
    original = (artifacts / name).read_bytes()
    load(artifacts / name)
    target = artifacts / f"damaged-{name}"

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        target.write_bytes(data.draw(damaged_file(original, name.endswith((".snnc", ".snnx")))))
        try:
            load(target)
        except store.StoreError:
            pass

    check()


def test_error_names_file_and_line(artifacts):
    path = artifacts / "bad-configs.txt"
    text = (artifacts / "configs.txt").read_text()
    path.write_text(text.replace(" rho ", " rho x ", 1))
    with pytest.raises(store.StoreError, match=r"bad-configs\.txt:2: "):
        engine.load_configs(path)


def test_decode_error_names_its_line(artifacts):
    path = artifacts / "bad-policy.txt"
    raw = (artifacts / "policy.txt").read_bytes().split(b"\n")
    raw[3] = b"delta \xff"
    path.write_bytes(b"\n".join(raw))
    with pytest.raises(store.StoreError, match=r"bad-policy\.txt:4: not UTF-8"):
        early_exit.load_policy(path)


def test_write_atomic_leaves_no_temp_files(tmp_path):
    path = tmp_path / "sub" / "a.txt"
    store.write_atomic(path, ["x", "y"])
    store.write_atomic(path, b"z")
    assert path.read_bytes() == b"z"
    assert [p.name for p in (tmp_path / "sub").iterdir()] == ["a.txt"]


def test_write_atomic_mode_follows_umask(tmp_path):
    path = tmp_path / "a.txt"
    saved = os.umask(0o022)
    try:
        store.write_atomic(path, ["x"])
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        os.umask(0o027)
        store.write_atomic(path, b"y")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
    finally:
        os.umask(saved)
    assert path.read_bytes() == b"y"
