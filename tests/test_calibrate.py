import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spikecal import calibrate, cli, engine, nn, store
from spikecal.calibrate import clip_floor


# ---------------------------------------------------------------------------
# the quantize-and-clip transfer function


def test_clip_floor_hand_values():
    assert clip_floor(np.array(1.3), 4, 2.0, 1) == pytest.approx(1.0)
    assert clip_floor(np.array(3.0), 2, 1.0, 2) == pytest.approx(2.0)  # cap binds
    assert clip_floor(np.array(10.0), 8, 1.0, 1) == pytest.approx(1.0)
    assert clip_floor(np.array(-5.0), 8, 1.0, 1) == pytest.approx(0.0)
    assert clip_floor(np.array(0.999), 1, 1.0, 1) == pytest.approx(0.0)


def test_clip_floor_matches_scalar_oracle(rng):
    xs = rng.uniform(-2, 6, size=300)
    for timesteps in (1, 4, 16):
        for v_th in (0.5, 1.0, 2.5):
            for phi in (1, 2, 3):
                got = clip_floor(xs, timesteps, v_th, phi)
                want = [oracles.clip_floor_scalar(x, timesteps, v_th, phi) for x in xs]
                np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 8), st.floats(-3, 8), st.integers(1, 32), st.floats(0.1, 4), st.integers(1, 4))
def test_clip_floor_monotone(a, b, timesteps, v_th, phi):
    lo, hi = min(a, b), max(a, b)
    assert clip_floor(np.array(lo), timesteps, v_th, phi) <= clip_floor(
        np.array(hi), timesteps, v_th, phi
    )


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 4), st.integers(1, 64), st.floats(0.1, 4), st.integers(1, 4))
def test_clip_floor_error_bound_inside_range(x, timesteps, v_th, phi):
    """Below the cap, quantization undershoots by less than one grid step."""
    y = float(clip_floor(np.array(x), timesteps, v_th, phi))
    if x < phi * v_th:
        assert 0.0 <= x - y or abs(x - y) < 1e-9
        assert x - y < v_th / timesteps + 1e-9


def test_clip_floor_identity_on_grid():
    # values already on the emission grid pass through exactly
    timesteps, v_th = 8, 2.0
    xs = np.arange(0, timesteps + 1) * (v_th / timesteps)
    np.testing.assert_allclose(clip_floor(xs, timesteps, v_th, 1), xs, atol=1e-12)


def test_clip_floor_validates_arguments():
    with pytest.raises(ValueError):
        clip_floor(np.array(1.0), 0, 1.0, 1)
    with pytest.raises(ValueError):
        clip_floor(np.array(1.0), 4, 0.0, 1)
    with pytest.raises(ValueError):
        clip_floor(np.array(1.0), 4, 1.0, 0)


# ---------------------------------------------------------------------------
# threshold fitting


def test_fit_threshold_prefers_true_scale(rng):
    acts = rng.uniform(0, 1.0, size=4000).astype(np.float32)
    fit = calibrate.fit_threshold(acts, timesteps=32)
    # activations fill [0, 1): best clip level sits near the top of the range
    assert 0.8 <= fit.v_th <= 1.05
    assert not fit.degenerate


def test_fit_threshold_explicit_grid_finds_global_min(rng):
    acts = rng.uniform(0, 2.0, size=2000)
    fit = calibrate.fit_threshold(acts, timesteps=16, grid_size=200)
    assert len(fit.grid) == 200
    mses = [
        float(np.mean((clip_floor(acts, 16, g, 1) - acts) ** 2)) for g in fit.grid
    ]
    assert fit.mse == pytest.approx(min(mses), rel=1e-9)
    assert fit.v_th == pytest.approx(fit.grid[int(np.argmin(mses))])


def test_fit_threshold_tie_takes_smallest():
    acts = np.zeros(64)  # every fallback candidate scores 0; pick the smallest
    fit = calibrate.fit_threshold(acts, timesteps=8, grid_size=3)
    assert fit.degenerate and not fit.grid_mse.any()
    assert fit.v_th == fit.grid[0] == fit.grid.min()


def test_fit_threshold_degenerate_all_zero():
    fit = calibrate.fit_threshold(np.zeros(100, dtype=np.float32), timesteps=8)
    assert fit.degenerate
    assert fit.v_th > 0


@st.composite
def _fit_cases(draw):
    """Taps with exact zeros, negatives and values on multiples of c / T,
    or all zero; and a grid size."""
    timesteps = draw(st.integers(1, 64))
    c = draw(st.floats(0.05, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    taps = rng.standard_normal(n) * c
    taps[rng.random(n) < 0.2] = 0.0
    on_grid = rng.random(n) < 0.3
    taps[on_grid] = rng.integers(-2, timesteps + 3, on_grid.sum()) * (c / timesteps)
    if draw(st.booleans()):
        taps = taps.astype(np.float32)  # as the calibration cache keeps them
    if draw(st.integers(0, 4)) == 0:
        taps = np.zeros_like(taps)
    return taps, timesteps, draw(st.integers(1, 24))


@settings(max_examples=150, deadline=None)
@given(_fit_cases())
def test_fit_threshold_equals_per_candidate_formula(case):
    """The one-buffer fit scores every candidate as ``clip_floor(a) - a``,
    squared and averaged, bit for bit; ``clip_floor`` is the old expression."""
    taps, timesteps, grid_size = case
    fit = calibrate.fit_threshold(taps, timesteps, grid_size)
    a = np.asarray(taps, dtype=np.float64)
    hi, tiny = float(np.percentile(a, 99.9)), float(np.finfo(np.float32).tiny)
    lo, hi = (1e-3, 1.0) if hi < tiny else (max(float(np.percentile(a, 50.0)), hi * 1e-3), hi)
    np.testing.assert_array_equal(fit.grid, np.geomspace(lo, hi, grid_size))
    mse = np.empty(len(fit.grid))
    for i, cand in enumerate(fit.grid):
        floored = clip_floor(a, timesteps, float(cand), 1)
        q = np.floor(a * timesteps / cand)
        old = (cand / timesteps) * np.clip(q, 0.0, float(timesteps))
        assert floored.dtype == old.dtype and floored.tobytes() == old.tobytes()
        err = floored - a
        mse[i] = float(np.mean(err * err))
    assert fit.grid_mse.dtype == mse.dtype and fit.grid_mse.tobytes() == mse.tobytes()
    best = int(np.argmin(mse))
    assert fit.v_th == float(fit.grid[best]) and fit.mse == float(mse[best])
    assert fit.degenerate == (float(np.percentile(a, 99.9)) < tiny)


@pytest.mark.parametrize("scale", [1e-45, 1e-40, 1.1754942e-38, 1.1754943508222875e-38,
                                   1.1754944e-38, 3e-38, 1e-36])
@pytest.mark.parametrize("spread", [False, True])
def test_fit_threshold_stays_at_or_above_the_smallest_config_threshold(scale, spread):
    """Taps near the smallest normal float32, the least v_th a config takes:
    a 99.9th percentile below it falls back to the degenerate grid, and no
    grid point of any other fit lies below it, though ``np.geomspace``
    between two close bounds rounds some steps down."""
    tiny = float(np.finfo(np.float32).tiny)
    taps = np.full(300, scale)
    if spread:
        taps *= np.random.default_rng(0).random(300)
    fit = calibrate.fit_threshold(taps, timesteps=8)
    assert fit.degenerate == (float(np.percentile(taps, 99.9)) < tiny)
    if fit.degenerate:
        np.testing.assert_array_equal(fit.grid, np.geomspace(1e-3, 1.0, 64))
    assert fit.grid.min() >= tiny
    assert engine.LayerSnnConfig(v_th=fit.v_th).v_th == fit.v_th


def test_clip_floor_keeps_scalar_results_scalar():
    got = clip_floor(np.array(1.3), 4, 2.0, 1)
    assert type(got) is np.float64 and got == 1.0
    assert clip_floor([[1.3, -1.0]], 4, 2.0, 1).shape == (1, 2)


def test_fit_all_thresholds_covers_spiking_layers(trained_mlp, calibration):
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    assert [f.layer for f in fits] == engine.spiking_layer_indices(trained_mlp)
    for f in fits:
        assert f.v_th > 0
    configs = calibrate.configs_from_fits(fits)
    assert all(c.rho == 1 and c.phi == 1 for c in configs)


def test_fit_threshold_deterministic(rng):
    acts = rng.uniform(0, 3, size=500)
    a = calibrate.fit_threshold(acts, timesteps=16)
    b = calibrate.fit_threshold(acts, timesteps=16)
    assert a.v_th == b.v_th and a.mse == b.mse


# ---------------------------------------------------------------------------
# bias calibration


def _walked(model, cache, timesteps, grid_size=64):
    """``convert``'s composition: ``calibrate_biases`` pulling each layer's
    config from ``walk_thresholds`` as it reaches the layer."""
    fits = []

    def configs():
        for fit in calibrate.walk_thresholds(model, cache, timesteps, grid_size):
            fits.append(fit)
            yield engine.LayerSnnConfig(v_th=fit.v_th)

    calibrated, trains = calibrate.calibrate_biases(model, configs(), cache, timesteps)
    return fits, calibrated, trains


def _one_layer_net():
    model = nn.build_mlp(5, [4], 3, seed=3)
    images = np.random.default_rng(3).standard_normal((20, 5)).astype(np.float32)
    data = store.DatasetHandle(images=images, labels=np.zeros(20, dtype=np.int64))
    return model, store.build_calibration_cache(model, data, 20, seed=3)


def _zero_tap_net():
    """An MLP whose first spiking layer sees only zeros: a degenerate fit."""
    model = nn.build_mlp(5, [4, 6], 3, seed=4)
    model.layers[0].weight[:] = 0.0
    model.layers[0].bias[:] = -1.0
    images = np.random.default_rng(4).standard_normal((20, 5)).astype(np.float32)
    data = store.DatasetHandle(images=images, labels=np.zeros(20, dtype=np.int64))
    return model, store.build_calibration_cache(model, data, 20, seed=4)


@pytest.mark.parametrize("net", ["trained-mlp", "cnn", "one-layer", "zero-tap"])
@pytest.mark.parametrize("timesteps", [1, 8])
def test_walk_equals_the_serial_composition(request, random_net, net, timesteps):
    """Fits scored on the walk's helper thread while bias calibration runs,
    and the biases and trains that follow, equal ``fit_all_thresholds`` +
    ``configs_from_fits`` + ``calibrate_biases`` bit for bit."""
    if net == "trained-mlp":
        model, cache = request.getfixturevalue("trained_mlp"), request.getfixturevalue("calibration")
    elif net == "cnn":
        model, cache, _ = random_net("cnn", 5, n=12, widths=[3, 2])
    else:
        model, cache = _one_layer_net() if net == "one-layer" else _zero_tap_net()
    fits, calibrated, trains = _walked(model, cache, timesteps, grid_size=24)
    serial = calibrate.fit_all_thresholds(model, cache, timesteps, grid_size=24)
    want, want_trains = calibrate.calibrate_biases(
        model, calibrate.configs_from_fits(serial), cache, timesteps
    )
    assert [f.layer for f in fits] == [f.layer for f in serial] == list(want_trains)
    for got, fit in zip(fits, serial):
        assert got.grid.tobytes() == fit.grid.tobytes()
        assert got.grid_mse.tobytes() == fit.grid_mse.tobytes()
        assert (got.v_th, got.mse, got.degenerate) == (fit.v_th, fit.mse, fit.degenerate)
    assert any(f.degenerate for f in fits) == (net == "zero-tap")
    for a, b in zip(calibrated.layers, want.layers):
        if a.parameterized:
            assert a.bias.tobytes() == b.bias.tobytes()
    assert list(trains) == list(want_trains)
    for idx, train in trains.items():
        assert train.counts.tobytes() == want_trains[idx].counts.tobytes()
        assert train.threshold == want_trains[idx].threshold


def test_walk_under_constant_thread_switching_equals_the_serial_fits():
    """Seven spiking layers walked while the interpreter switches threads
    every microsecond: the helper's fits, handed over at each join, are
    still the serial ones bit for bit, and the helper is gone after."""
    model = nn.build_mlp(6, [9, 7, 8, 5, 6, 4, 7], 3, seed=8)
    images = np.random.default_rng(8).standard_normal((30, 6)).astype(np.float32)
    data = store.DatasetHandle(images=images, labels=np.zeros(30, dtype=np.int64))
    cache = store.build_calibration_cache(model, data, 30, seed=8)
    serial = calibrate.fit_all_thresholds(model, cache, 4, grid_size=40)
    threads, interval = threading.enumerate(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fits, _, _ = _walked(model, cache, 4, grid_size=40)
            assert [f.grid_mse.tobytes() for f in fits] == [f.grid_mse.tobytes() for f in serial]
            assert [f.v_th for f in fits] == [f.v_th for f in serial]
    finally:
        sys.setswitchinterval(interval)
    assert threading.enumerate() == threads


def test_bias_calibration_checks_configs_given_one_at_a_time(trained_mlp, calibration):
    """A list of the wrong length is rejected before bias work; an iterator
    when it runs short or holds one config too many."""
    configs = calibrate.configs_from_fits(calibrate.fit_all_thresholds(trained_mlp, calibration, 8))
    pulled = []

    def lazily(items):
        for item in items:
            pulled.append(item)
            yield item

    for given_configs, message in (
        (configs[:1], "model has 2 spiking layers, got 1 configs"),
        (lazily(configs[:1]), "model has 2 spiking layers, got 1 configs"),
        (lazily(configs * 2), "model has 2 spiking layers, got more than 2 configs"),
    ):
        with pytest.raises(engine.ConfigMismatchError, match=f"^{message}$"):
            calibrate.calibrate_biases(trained_mlp, given_configs, calibration, 8)
    assert len(pulled) == 1 + 3  # the iterators are read up to the mismatch


def test_convert_calls_every_public_function_on_the_main_thread(tmp_path, thread_log):
    """The walk's helper thread runs only the private scoring loop: every
    public ``calibrate``, ``engine`` and ``nn`` function that ``convert``
    calls runs on the main thread, and every fit but the first is scored on
    the helper."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "out_dir": str(tmp_path / "run"), "timesteps": 3, "calib_samples": 16,
        "dataset": {"kind": "blobs", "n": 40, "eval_n": 20, "dim": [8], "classes": 3},
        "model": {"hidden": [6, 5, 4]}, "train": {"epochs": 1},
    }))
    assert cli.main(["train", "--config", str(config)]) == 0
    calls = thread_log((calibrate, engine, nn), [calibrate._score_grid])
    assert cli.main(["convert", "--config", str(config)]) == 0
    main = threading.get_ident()
    public = {name for name, ident in calls if name != "calibrate._score_grid"}
    assert {"calibrate.walk_thresholds", "calibrate.calibrate_biases", "nn.apply_layer",
            "engine.step_layer", "calibrate.measure_unevenness"} <= public
    assert all(ident == main for name, ident in calls if name != "calibrate._score_grid"), calls
    scored = [ident for name, ident in calls if name == "calibrate._score_grid"]
    assert len(scored) == 3 and scored[0] == main and main not in scored[1:]


def test_bias_calibration_reduces_rate_mismatch(trained_mlp, calibration):
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    configs = calibrate.configs_from_fits(fits)

    def mean_gap(model):
        gaps = []
        run = engine.run_snn(model, configs, calibration.inputs, 8, record_trains=True)
        for idx in engine.spiking_layer_indices(model):
            rates = run.trains[idx].rate()
            tap = calibration.taps[idx]
            axes = tuple(a for a in range(tap.ndim) if a != 1) if tap.ndim > 2 else (0,)
            gaps.append(np.abs(tap.mean(axis=axes) - rates.mean(axis=axes)).mean())
        return float(np.mean(gaps))

    before = mean_gap(trained_mlp)
    adjusted, _ = calibrate.calibrate_biases(trained_mlp, configs, calibration, timesteps=8)
    after = mean_gap(adjusted)
    assert after <= before + 1e-9


def _calibrate_reference(model, configs, cache, timesteps):
    """Bias calibration with one full run per layer, O(L^2) layer simulations."""
    corrected = model.clone()
    for idx in engine.spiking_layer_indices(corrected):
        run = engine.run_snn(corrected, configs, cache.inputs, timesteps, record_trains=True)
        rates = run.trains[idx].rate()
        tap = np.asarray(cache.taps[idx], dtype=np.float64)
        axes = (0,) if tap.ndim <= 2 else (0, *range(2, tap.ndim))
        correction = tap.mean(axis=axes) - rates.mean(axis=axes)
        feeder = corrected.layers[idx - 1]
        feeder.bias = (feeder.bias.astype(np.float64) + correction).astype(np.float32)
    return corrected


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
@pytest.mark.parametrize("timesteps", [1, 3, 8])
def test_bias_calibration_equals_full_run_loop(random_net, arch, timesteps):
    for seed in range(3):
        model, cache, configs = random_net(arch, 10 * timesteps + seed)
        fast, _ = calibrate.calibrate_biases(model, configs, cache, timesteps)
        slow = _calibrate_reference(model, configs, cache, timesteps)
        for a, b in zip(fast.layers, slow.layers):
            if a.bias is not None:
                np.testing.assert_array_equal(a.bias, b.bias)


def test_bias_calibration_is_contractive(trained_mlp, calibration):
    """Re-calibrating moves biases noticeably less than the first pass.

    The correction chases a staircase-valued rate, so one pass does not land
    exactly; it must still contract rather than oscillate or diverge.
    """
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    configs = calibrate.configs_from_fits(fits)
    once, _ = calibrate.calibrate_biases(trained_mlp, configs, calibration, timesteps=8)
    twice, _ = calibrate.calibrate_biases(once, configs, calibration, timesteps=8)

    def delta(a, b):
        return max(
            float(np.abs(la.bias - lb.bias).max())
            for la, lb in zip(a.layers, b.layers)
            if la.parameterized
        )

    first_move = delta(trained_mlp, once)
    second_move = delta(once, twice)
    assert second_move <= 0.8 * first_move + 1e-6


def test_bias_calibration_touches_only_biases(trained_mlp, calibration):
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    configs = calibrate.configs_from_fits(fits)
    adjusted, _ = calibrate.calibrate_biases(trained_mlp, configs, calibration, timesteps=8)
    for a, b in zip(trained_mlp.layers, adjusted.layers):
        if a.parameterized:
            np.testing.assert_array_equal(a.weight, b.weight)
    # cache stays valid because the digest ignores biases
    calibration.check_model(adjusted)


def test_bias_correction_cancels_injected_offset(trained_mlp, calibration):
    """An artificial constant offset on a feeding layer is pulled back out."""
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    configs = calibrate.configs_from_fits(fits)
    clean, _ = calibrate.calibrate_biases(trained_mlp, configs, calibration, timesteps=8)

    poisoned = trained_mlp.clone()
    poisoned.layers[0].bias[:] += np.float32(0.8)
    fixed, _ = calibrate.calibrate_biases(poisoned, configs, calibration, timesteps=8)
    # the corrected bias lands near the clean calibration, not near the poison
    gap_clean = float(np.abs(fixed.layers[0].bias - clean.layers[0].bias).mean())
    gap_poison = float(np.abs(fixed.layers[0].bias - poisoned.layers[0].bias).mean())
    assert gap_clean < gap_poison


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
@pytest.mark.parametrize("timesteps", [1, 4, 9])
@pytest.mark.parametrize("membrane_init", [0.0, 0.5, 0.9])
def test_calibration_trains_equal_a_fresh_run(random_net, arch, timesteps, membrane_init):
    """The trains ``calibrate_biases`` hands over are what a whole-net run of
    the calibrated model records, bit for bit, and so is the error breakdown
    made from them."""
    for seed in range(2):
        model, cache, configs = random_net(arch, 7 * timesteps + seed)
        calibrated, trains = calibrate.calibrate_biases(
            model, configs, cache, timesteps, membrane_init=membrane_init
        )
        run = engine.run_snn(
            calibrated, configs, cache.inputs, timesteps,
            membrane_init=membrane_init, record_trains=True,
        )
        assert list(trains) == list(run.trains) == engine.spiking_layer_indices(model)
        for idx, train in trains.items():
            fresh = run.trains[idx]
            assert train.equals(fresh) and train.counts.dtype == fresh.counts.dtype
            assert train.counts.tobytes() == fresh.counts.tobytes()
        got = calibrate.measure_unevenness(cache.taps, trains, configs, timesteps)
        assert got == calibrate.measure_unevenness(cache.taps, run.trains, configs, timesteps)


def test_breakdown_rejects_trains_that_do_not_fit_the_configs(trained_mlp, calibration):
    configs = calibrate.configs_from_fits(calibrate.fit_all_thresholds(trained_mlp, calibration, 8))
    trains = engine.run_snn(trained_mlp, configs, calibration.inputs, 8, record_trains=True).trains
    compressed = [engine.LayerSnnConfig(v_th=c.v_th, rho=2) for c in configs]
    for cfgs, timesteps in ((configs[:1], 8), (compressed, 8), (configs, 4)):
        with pytest.raises(engine.ConfigMismatchError):
            calibrate.measure_unevenness(calibration.taps, trains, cfgs, timesteps)


# ---------------------------------------------------------------------------
# error decomposition


def _rates(model, configs, cache, timesteps):
    """Each spiking layer's rate on the cached inputs, as ``measure_unevenness`` reads it."""
    run = engine.run_snn(model, configs, cache.inputs, timesteps, record_trains=True)
    return {idx: train.rate() for idx, train in run.trains.items()}


def _measure(model, configs, cache, timesteps):
    """``measure_unevenness`` on the trains of a fresh whole-net run of ``model``."""
    run = engine.run_snn(model, configs, cache.inputs, timesteps, record_trains=True)
    return calibrate.measure_unevenness(cache.taps, run.trains, configs, timesteps)


def test_error_decomposition_identity(trained_mlp, calibration):
    """total == clipping + quantization + unevenness, elementwise, on the
    arrays ``measure_unevenness`` forms (``_error_parts``) before it reduces them."""
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    configs = calibrate.configs_from_fits(fits)
    rates = _rates(trained_mlp, configs, calibration, 8)
    for pos, idx in enumerate(engine.spiking_layer_indices(trained_mlp)):
        x = np.asarray(calibration.taps[idx], dtype=np.float64)
        layer = calibrate._error_parts(x, rates[idx], configs[pos], 8)
        np.testing.assert_allclose(
            layer["total"],
            layer["clipping"] + layer["quantization"] + layer["unevenness"],
            atol=1e-9,
        )


def _array_breakdown(model, configs, cache, timesteps):
    """The conversion error as full arrays, per spiking layer: the reference
    formulation the summaries of ``measure_unevenness`` must reproduce."""
    rates = _rates(model, configs, cache, timesteps)
    out = []
    for pos, idx in enumerate(engine.spiking_layer_indices(model)):
        cfg = configs[pos]
        x = np.asarray(cache.taps[idx], dtype=np.float64)
        rate = rates[idx]
        cap = cfg.threshold * cfg.phi
        clipped = np.clip(x, 0.0, cap)
        floored = clip_floor(x, timesteps, cfg.threshold, cfg.phi)
        out.append((idx, {
            "total": rate - x,
            "clipping": clipped - x,
            "quantization": floored - clipped,
            "unevenness": rate - floored,
        }))
    return out


@pytest.mark.parametrize("arch, seed, timesteps", [
    ("mlp", 1, 4), ("mlp", 2, 8), ("cnn", 3, 4), ("cnn", 4, 16),
])
def test_error_summaries_equal_the_array_reference(random_net, arch, seed, timesteps):
    """Every mean, max and squared share equals the full-array formula's, bit for bit."""
    model, cache, configs = random_net(arch, seed, n=24)
    metrics = _measure(model, configs, cache, timesteps)
    reference = _array_breakdown(model, configs, cache, timesteps)
    assert [b.layer for b in metrics] == [idx for idx, _ in reference]
    for got, (_, parts) in zip(metrics, reference):
        for which, arr in parts.items():
            assert got.mean_abs(which) == float(np.mean(np.abs(arr))), which
            assert got.max_abs(which) == float(np.max(np.abs(arr))), which
        squares = {k: float(np.sum(parts[k] ** 2))
                   for k in ("clipping", "quantization", "unevenness")}
        denom = sum(squares.values())
        assert got.squared_shares() == {k: (v / denom if denom else 0.0)
                                        for k, v in squares.items()}


def test_error_summaries_hold_less_than_one_layers_arrays():
    """What ``measure_unevenness`` returns stays below one layer's four
    float64 error arrays (4 * N * width * 8 bytes), however many layers."""
    layers, width, n = 8, 128, 512
    model = nn.build_mlp(64, [width] * layers, 10, seed=0)
    images = np.random.default_rng(0).standard_normal((n, 64)).astype(np.float32)
    data = store.DatasetHandle(images=images, labels=np.zeros(n, dtype=np.int64))
    cache = store.build_calibration_cache(model, data, n, seed=0)
    configs = calibrate.configs_from_fits(calibrate.fit_all_thresholds(model, cache, 8))
    trains = engine.run_snn(model, configs, cache.inputs, 8, record_trains=True).trains
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        metrics = calibrate.measure_unevenness(cache.taps, trains, configs, 8)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(metrics) == layers
    assert held < 4 * n * width * 8, held


def test_unevenness_vanishes_at_long_horizon(trained_mlp, calibration):
    """Constant-current inputs make the first layer's unevenness die off."""
    timesteps = 4096
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=timesteps)
    configs = calibrate.configs_from_fits(fits)
    metrics = _measure(trained_mlp, configs, calibration, timesteps)
    first = metrics[0]
    assert first.mean_abs("unevenness") <= 1e-3


def test_unevenness_shrinks_with_horizon(trained_mlp, calibration):
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    configs = calibrate.configs_from_fits(fits)
    short = _measure(trained_mlp, configs, calibration, 8)
    fits_long = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=256)
    configs_long = calibrate.configs_from_fits(fits_long)
    long = _measure(trained_mlp, configs_long, calibration, 256)
    assert np.mean([b.mean_abs("total") for b in long]) < np.mean(
        [b.mean_abs("total") for b in short])


def test_report_file_lists_layers(tmp_path, trained_mlp, calibration):
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    configs = calibrate.configs_from_fits(fits)
    metrics = _measure(trained_mlp, configs, calibration, 8)
    path = tmp_path / "report.txt"
    calibrate.write_calibration_report(path, fits, metrics)
    text = path.read_text()
    for idx in engine.spiking_layer_indices(trained_mlp):
        assert f"layer {idx}" in text
    assert "unevenness" in text
