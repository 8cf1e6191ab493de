import dataclasses
import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from spikecal import calibrate, early_exit, engine, nn, store, train
from spikecal.calibrate import clip_floor


def single_neuron_model():
    """identity dense -> relu -> 2-way head so the engine will run it."""
    return nn.ModelGraph(
        layers=[
            nn.dense(1, 1, np.array([[1.0]], dtype=np.float32), np.zeros(1, dtype=np.float32)),
            nn.relu(),
            nn.dense(1, 2, np.ones((2, 1), dtype=np.float32), np.zeros(2, dtype=np.float32)),
        ],
        input_shape=(1,),
        class_count=2,
    )


def step_sequence(charges, v_th, phi, rho=1, v0=0.0):
    cfg = engine.LayerSnnConfig(v_th=v_th, rho=rho, phi=phi)
    state = engine.NeuronState(v=np.full(1, v0))
    emitted = []
    for c in charges:
        state, e = engine.step_layer(state, np.array([float(c)]), cfg)
        emitted.append(float(e[0]))
    return emitted, float(state.v[0])


# ---------------------------------------------------------------------------
# frozen single-neuron fixtures


def test_burst_cap_one_leaves_residual():
    emitted, residual = step_sequence([1.5, 1.5, 1.0], v_th=1.0, phi=1)
    assert emitted == [1.0, 1.0, 1.0]
    assert residual == 1.0


def test_burst_cap_two_flushes_backlog():
    emitted, residual = step_sequence([1.5, 1.5, 1.0], v_th=1.0, phi=2)
    assert emitted == [1.0, 2.0, 1.0]
    assert residual == 0.0


def test_subthreshold_input_accumulates():
    emitted, residual = step_sequence([0.6, 0.6, 0.6, 0.6], v_th=1.0, phi=1)
    assert emitted == [0.0, 1.0, 0.0, 1.0]
    assert residual == pytest.approx(0.4)


def test_negative_membrane_never_fires():
    emitted, residual = step_sequence([-2.0, 1.0, 0.5], v_th=1.0, phi=3)
    assert emitted == [0.0, 0.0, 0.0]
    assert residual == pytest.approx(-0.5)


def test_compressed_quantum_amplitude():
    # one step: v=0, input 5, v_th=1, rho=2 -> effective threshold 2
    cfg = engine.LayerSnnConfig(v_th=1.0, rho=2, phi=2)
    state = engine.NeuronState(v=np.zeros(1))
    state, emitted = engine.step_layer(state, np.array([5.0]), cfg)
    assert float(emitted[0]) == 4.0  # two quanta of amplitude 2
    assert float(state.v[0]) == 1.0


def test_step_matches_loop_oracle_fuzz(rng):
    for _ in range(200):
        t = int(rng.integers(1, 12))
        charges = rng.uniform(-1.5, 3.0, size=t)
        v_th = float(rng.uniform(0.3, 2.5))
        phi = int(rng.integers(1, 4))
        want_emit, want_v = oracles.if_neuron_trace(charges, v_th, phi)
        got_emit, got_v = step_sequence(charges, v_th, phi)
        np.testing.assert_allclose(got_emit, want_emit, atol=1e-9)
        assert got_v == pytest.approx(want_v, abs=1e-9)


def _clip_step(state, current, config):
    """``step_layer``'s update written with ``np.clip``: the reference for its clamp."""
    thr = config.threshold
    u = state.v + current
    emitted = np.clip(np.floor(u / thr), 0.0, float(config.phi)) * thr
    return u - emitted, emitted


@pytest.mark.parametrize("v_th, rho, phi", [(0.37, 1, 1), (1.0, 2, 3), (0.1, 4, 255), (3e10, 1, 2)])
def test_step_clamp_equals_np_clip(v_th, rho, phi):
    cfg = engine.LayerSnnConfig(v_th=v_th, rho=rho, phi=phi)
    thr = cfg.threshold
    multiples = np.arange(-3, phi + 4) * thr
    v = np.concatenate([
        multiples,
        np.nextafter(multiples, np.inf),
        np.nextafter(multiples, -np.inf),
        [0.0, -0.0, -1e-320, -5e-324, -thr / 2, -1e6, 1e6],
    ])
    for current in (0.0, -0.0, thr, -thr, 0.5 * thr):
        state = engine.NeuronState(v=v.copy())
        got_state, got = engine.step_layer(state, np.full_like(v, current), cfg)
        want_v, want = _clip_step(state, np.full_like(v, current), cfg)
        assert got.tobytes() == want.tobytes(), current
        assert got_state.v.tobytes() == want_v.tobytes(), current


_SIGNED_ZEROS_AND_EDGES = st.sampled_from([0.0, -0.0, -1e-320, -5e-324, 5e-324])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.floats(-1e6, 1e6), _SIGNED_ZEROS_AND_EDGES), min_size=1, max_size=12),
    st.data(),
    st.floats(1.2e-38, 1e10),
    st.integers(1, 300),
)
def test_fire_into_a_buffer_equals_the_allocating_call(v, data, threshold, phi):
    """``_fire(..., emitted=buf)`` writes the emissions into ``buf`` and
    leaves ``v`` and ``k`` as the allocating call does, bit for bit, ``-0.0``
    included, also when the current is ``k`` itself."""
    v = np.array(v)
    current = np.array(data.draw(st.lists(
        st.one_of(st.floats(-1e6, 1e6), _SIGNED_ZEROS_AND_EDGES), min_size=len(v), max_size=len(v),
    )))
    v_want, k_want = v.copy(), np.empty_like(v)
    want = engine._fire(v_want, current, k_want, threshold, float(phi))
    v_got, k_got, buf = v.copy(), np.empty_like(v), np.full_like(v, np.nan)
    got = engine._fire(v_got, current, k_got, threshold, float(phi), emitted=buf)
    assert got is buf
    assert buf.tobytes() == want.tobytes()
    assert v_got.tobytes() == v_want.tobytes()
    assert k_got.tobytes() == k_want.tobytes()
    v_got, k_got = v.copy(), current.copy()
    engine._fire(v_got, k_got, k_got, threshold, float(phi), emitted=buf)
    assert buf.tobytes() == want.tobytes()
    assert v_got.tobytes() == v_want.tobytes()
    assert k_got.tobytes() == k_want.tobytes()


@pytest.mark.parametrize("phi", [1, 3, 255, 256, 65535, 65536])
def test_owned_state_steps_equal_functional_reference(phi):
    """Stepping the state ``step_layer`` returned, in place, equals the
    allocating reference step after step in ``v``, emitted and counts, byte
    for byte, at the count dtypes' edges; what the caller passed stays as it was."""
    rng = np.random.default_rng(phi)
    cfg = engine.LayerSnnConfig(v_th=float(rng.uniform(0.05, 2.0)), rho=int(rng.integers(1, 4)), phi=phi)
    thr, shape, steps = cfg.threshold, (3, 17), 60
    v0 = rng.uniform(-2.0, 2.0, shape) * thr
    v0[0, :4] = [0.0, -0.0, thr, -thr]
    # up to one and a half caps a step, so the cap binds; some exact multiples
    currents = [rng.uniform(-0.5, 1.5 * phi, shape) * thr for _ in range(steps)]
    for current in currents[::7]:
        current[1, :5] = [0.0, -0.0, thr, phi * thr, -phi * thr]
    saved = [c.tobytes() for c in currents]
    first = engine.NeuronState(v=v0.copy())
    state, want_v, emitted, want_k = first, v0, [], []
    for t, current in enumerate(currents):
        k = np.clip(np.floor((want_v + current) / thr), 0.0, float(phi))
        want_v, want = _clip_step(engine.NeuronState(v=want_v), current, cfg)
        previous = state
        state, got = engine.step_layer(state, current, cfg)
        assert (state is previous) == (t > 0)  # the first step allocates, the rest write in place
        assert got.tobytes() == want.tobytes(), t
        assert state.v.tobytes() == want_v.tobytes(), t
        assert state.k.tobytes() == k.tobytes(), t
        emitted.append((got, want))
        want_k.append(k)
    assert max(k.max() for k in want_k) == phi
    for got, want in emitted:  # every step's emissions are its own array
        assert got.tobytes() == want.tobytes()
    assert [c.tobytes() for c in currents] == saved
    assert first.v.tobytes() == v0.tobytes() and first.k is None
    # the count train stores k in the smallest dtype that holds phi
    train, state = engine._run_layer(currents, cfg, steps, 0.0, engine.NeuronState(v=v0.copy()))
    dtype = np.min_scalar_type(phi)
    assert train.counts.dtype == dtype
    assert train.counts.tobytes() == np.stack(want_k).astype(dtype).tobytes()
    assert state.v.tobytes() == want_v.tobytes()
    assert [c.tobytes() for c in currents] == saved


def test_initial_state_is_owned_and_steps_as_a_callers_state():
    """``initial_state`` hands out a state the first step writes into; it
    steps bit for bit as a caller-built state of the same membranes, which
    stays as it was."""
    rng = np.random.default_rng(3)
    cfg = engine.LayerSnnConfig(v_th=0.37, rho=2, phi=3)
    shape = (4, 2, 3)
    state = engine.initial_state(cfg, shape, 0.5)
    assert state.v.flags.writeable and state.k is not None and state.v.shape == shape
    v0 = np.full(shape, 0.5 * cfg.threshold)
    caller = engine.NeuronState(v=v0.copy())
    theirs = caller
    for _ in range(5):
        current = rng.uniform(-1.0, 4.0, shape) * cfg.threshold
        got, emitted = engine.step_layer(state, current, cfg)
        assert got is state
        theirs, want = engine.step_layer(theirs, current, cfg)
        assert emitted.tobytes() == want.tobytes()
        assert state.v.tobytes() == theirs.v.tobytes() and state.k.tobytes() == theirs.k.tobytes()
    assert caller.v.tobytes() == v0.tobytes() and caller.k is None


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_run_layer_leaves_shared_currents_unchanged(random_net, arch):
    """Two runs on one list of feeder currents, as the sensitivity table makes
    them, leave the list as it was and give the trains of fresh runs."""
    timesteps = 5
    for seed in range(3):
        model, cache, configs = random_net(arch, seed)
        trunk = engine.run_snn(model, configs, cache.inputs, timesteps, record_trains=True)
        source, start = nn._check_batch(model, np.asarray(cache.inputs, dtype=np.float64)), 0
        for pos, layer in enumerate(engine.spiking_layer_indices(model)):
            feeders = model.layers[start:layer]
            currents = list(engine._currents(feeders, source, timesteps))
            saved = [c.tobytes() for c in currents]
            other = engine.LayerSnnConfig(configs[pos].v_th, configs[pos].rho + 1, configs[pos].phi + 1)
            for cfg in (configs[pos], other):
                got, _ = engine._run_layer(currents, cfg, timesteps, 0.5)
                fresh = engine._currents(feeders, source, timesteps)
                fresh, _ = engine._run_layer(fresh, cfg, timesteps, 0.5)
                assert got.threshold == fresh.threshold and got.counts.dtype == fresh.counts.dtype
                assert got.counts.tobytes() == fresh.counts.tobytes()
                assert [c.tobytes() for c in currents] == saved
                if cfg is configs[pos]:
                    assert got.counts.tobytes() == trunk.trains[layer].counts.tobytes()
            source, start = trunk.trains[layer], layer + 1


# ---------------------------------------------------------------------------
# whole-network runs


def test_charge_conservation_identity(trained_mlp, blob_dataset, injected_charge):
    """injected charge == emitted charge + residual, at every spiking layer."""
    configs = [engine.LayerSnnConfig(v_th=5.0), engine.LayerSnnConfig(v_th=5.0)]
    x = blob_dataset.images[:16]
    run = engine.run_snn(trained_mlp, configs, x, timesteps=12, record_trains=True)
    charge = injected_charge(trained_mlp, run, x, 12)
    for pos, layer_idx in enumerate(engine.spiking_layer_indices(trained_mlp)):
        train = run.trains[layer_idx]
        emitted = sum(train.amplitudes(t) for t in range(12))
        residual = run.v_last[layer_idx] - engine.DEFAULT_MEMBRANE_INIT * configs[pos].threshold
        np.testing.assert_allclose(charge[layer_idx], emitted + residual, atol=1e-6)


def test_constant_current_first_layer_closed_form(trained_mlp, blob_dataset):
    """With v0 = threshold/2, first-layer counts follow the clip-floor law."""
    v_th = 3.0
    timesteps = 16
    phi = 2
    configs = [engine.LayerSnnConfig(v_th=v_th, phi=phi), engine.LayerSnnConfig(v_th=v_th)]
    x = blob_dataset.images[:8]
    run = engine.run_snn(trained_mlp, configs, x, timesteps=timesteps, record_trains=True)
    first = engine.spiking_layer_indices(trained_mlp)[0]
    current = nn.apply_layer(trained_mlp.layers[0], x)  # constant per step
    counts = run.trains[first].counts.sum(axis=0)
    want = np.clip(
        np.floor((current * timesteps + v_th / 2.0) / v_th), 0, phi * timesteps
    )
    np.testing.assert_array_equal(counts, np.maximum(want, 0.0))


def test_output_head_accumulates_without_spiking(trained_mlp, blob_dataset):
    x = blob_dataset.images[:4]
    configs = [engine.LayerSnnConfig(v_th=4.0), engine.LayerSnnConfig(v_th=4.0)]
    run = engine.run_snn(trained_mlp, configs, x, timesteps=8, record_trains=True)
    assert run.scores.shape == (4, 4)
    head = len(trained_mlp.layers) - 1
    assert head not in run.trains


def test_rate_convergence_to_clip_floor(trained_mlp, blob_dataset):
    """First-layer rates land within threshold/T of the quantized target."""
    v_th = 3.0
    x = blob_dataset.images[:8]
    current = np.asarray(nn.apply_layer(trained_mlp.layers[0], x), dtype=np.float64)
    for timesteps in (8, 64):
        configs = [engine.LayerSnnConfig(v_th=v_th), engine.LayerSnnConfig(v_th=v_th)]
        run = engine.run_snn(trained_mlp, configs, x, timesteps=timesteps, record_trains=True)
        first = engine.spiking_layer_indices(trained_mlp)[0]
        rate = run.trains[first].rate()
        target = clip_floor(current, timesteps, v_th, 1)
        assert np.abs(rate - target).max() <= v_th / timesteps + 1e-9


def test_unit_spike_counting_weights_bursts(rng):
    model = single_neuron_model()
    x = np.array([[2.5]], dtype=np.float32)
    cfg1 = [engine.LayerSnnConfig(v_th=1.0, phi=1)]
    cfg3 = [engine.LayerSnnConfig(v_th=1.0, phi=3)]
    r1 = engine.run_snn(model, cfg1, x, timesteps=4, membrane_init=0.0)
    r3 = engine.run_snn(model, cfg3, x, timesteps=4, membrane_init=0.0)
    # 2.5 per step for 4 steps = 10 charge; phi=1 caps at 4 unit spikes
    assert r1.stats.total_spikes == 4
    assert r3.stats.total_spikes == 10  # floor(10/1) quanta all emitted
    # a compressed quantum (rho=2) counts once but carries amplitude 2
    cfg_rho = [engine.LayerSnnConfig(v_th=1.0, rho=2, phi=3)]
    rr = engine.run_snn(model, cfg_rho, x, timesteps=4, membrane_init=0.0)
    assert rr.stats.total_spikes == 5  # 10 charge / amplitude 2


def test_compression_preserves_rate_when_ratio_divides_horizon(trained_mlp, blob_dataset):
    """rho-fold compression with rho | T and a slack burst cap keeps the rate.

    Each compressed quantum carries rho times the charge, so its readout is
    quantized rho times as coarsely: tolerance (rho + 1) * v_th / T covers
    both rounding grids. The burst cap must not bind (phi generous) or the
    two runs clip at different levels.
    """
    x = blob_dataset.images[:6]
    timesteps = 16
    rho = 4
    base = [engine.LayerSnnConfig(v_th=3.0, phi=8), engine.LayerSnnConfig(v_th=3.0, phi=8)]
    comp = [engine.LayerSnnConfig(v_th=3.0, rho=rho, phi=8)] + base[1:]
    r_base = engine.run_snn(trained_mlp, base, x, timesteps=timesteps, record_trains=True)
    r_comp = engine.run_snn(trained_mlp, comp, x, timesteps=timesteps, record_trains=True)
    first = engine.spiking_layer_indices(trained_mlp)[0]
    np.testing.assert_allclose(
        r_comp.trains[first].rate(),
        r_base.trains[first].rate(),
        atol=(rho + 1) * 3.0 / timesteps + 1e-9,
    )
    # and it spends strictly fewer unit spikes when anything fires at all
    if r_base.stats.layer_spikes[first] > 0:
        assert r_comp.stats.layer_spikes[first] < r_base.stats.layer_spikes[first]


def _time_major_run(model, configs, x, timesteps, membrane_init=0.5):
    """The whole net once per step, input to head: the reference ordering.

    Returns scores, per-step scores, each spiking layer's per-step emissions
    and its final state.
    """
    x0 = np.asarray(x, dtype=np.float64)
    spiking = engine.spiking_layer_indices(model)
    states, trains = {}, {i: [] for i in spiking}
    acc, step_scores = None, []
    for t in range(timesteps):
        h = x0
        for i, layer in enumerate(model.layers):
            if layer.kind != "relu":
                h = nn.apply_layer(layer, h)
                continue
            cfg = configs[spiking.index(i)]
            if t == 0:
                states[i] = engine.initial_state(cfg, h.shape, membrane_init)
            states[i], h = engine.step_layer(states[i], h, cfg)
            trains[i].append(h)
        acc = h if acc is None else acc + h
        step_scores.append(acc / float(t + 1))
    return acc / float(timesteps), np.stack(step_scores), trains, states


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
@pytest.mark.parametrize("timesteps", [1, 3, 8])
def test_layer_major_run_equals_time_major_sweep(random_net, arch, timesteps):
    for seed in range(3):
        model, cache, configs = random_net(arch, 10 * timesteps + seed)
        run = engine.run_snn(model, configs, cache.inputs, timesteps, record_trains=True)
        scores, step_scores, trains, states = _time_major_run(
            model, configs, cache.inputs, timesteps
        )
        np.testing.assert_array_equal(run.scores, scores)
        np.testing.assert_array_equal(run.step_scores, step_scores)
        for pos, (i, steps) in enumerate(trains.items()):
            np.testing.assert_array_equal(run.v_last[i], states[i].v)
            emitted = np.zeros_like(steps[0])
            for t, want in enumerate(steps):
                np.testing.assert_array_equal(run.trains[i].amplitudes(t), want)
                k = np.rint(want / configs[pos].threshold).reshape(len(want), -1)
                np.testing.assert_array_equal(run.step_spikes[t, pos], k.sum(axis=1))
                emitted += want
            assert run.trains[i].rate().tobytes() == (emitted / float(timesteps)).tobytes()
        # a run of t steps is the first t steps of the long one
        for t in range(1, timesteps + 1):
            short = engine.run_snn(model, configs, cache.inputs, t)
            np.testing.assert_array_equal(short.scores, run.step_scores[t - 1])
            assert short.stats == engine.stats_at(model, run.step_spikes, t - 1)


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_walk_equals_layer_major_run(random_net, arch):
    """A run that ``stop`` ends after step ``last`` is a ``last + 1``-step
    run, bit for bit, and the time-major reference's: scores after each
    step, unit spikes per step, trains and final membranes, at one input,
    three and the whole batch. ``stop`` sees every recorded step's scores
    as they are made."""
    horizon = 7
    for seed in range(3):
        model, cache, configs = random_net(arch, seed)
        spiking = engine.spiking_layer_indices(model)
        plan = engine._prepare(model, configs)
        for n in (1, 3, cache.sample_count):
            x0 = nn._check_batch(model, np.asarray(cache.inputs[:n], dtype=np.float64))
            for last in (0, 3, horizon - 1, None):  # None: stop never says yes
                seen = []

                def stop(t, scores):
                    assert t == len(seen)
                    seen.append(scores.copy())
                    return t == last

                step_scores, step_spikes, v_last, trains = engine._simulate(
                    plan, 0, x0, horizon, 0.5, keep_trains=True, stop=stop
                )
                steps = horizon if last is None else last + 1
                want_scores, want_spikes, want_v, want_trains = engine._simulate(
                    plan, 0, x0, steps, 0.5, keep_trains=True
                )
                _, ref_scores, ref_trains, ref_states = _time_major_run(model, configs, x0, steps)
                ref_spikes = np.stack([
                    [np.rint(a / cfg.threshold).reshape(n, -1).sum(axis=1).astype(np.int64)
                     for a in ref_trains[i]] for i, cfg in zip(spiking, configs)
                ], axis=1)
                for got, ref in ((step_scores, want_scores), (step_spikes, want_spikes),
                                 (np.stack(seen), want_scores), (step_scores, ref_scores),
                                 (step_spikes, ref_spikes)):
                    assert got.dtype == ref.dtype and got.shape == ref.shape, (n, last)
                    assert got.tobytes() == ref.tobytes(), (n, last)
                assert list(v_last) == list(want_v) == list(trains) == spiking
                for i, v in v_last.items():
                    assert v.tobytes() == want_v[i].tobytes(), (n, last, i)
                    assert v.tobytes() == ref_states[i].v.tobytes(), (n, last, i)
                    assert trains[i].equals(want_trains[i]), (n, last, i)
                    for t, amplitudes in enumerate(ref_trains[i]):
                        assert trains[i].amplitudes(t).tobytes() == amplitudes.tobytes(), (i, t)


def test_run_without_trains_holds_less_than_every_count():
    """A run that keeps no trains never holds memory the size of every
    spiking layer's counts (L * T * N * width bytes, at a byte a count)."""
    layers, width, n, timesteps = 8, 128, 512, 32
    model = nn.build_mlp(64, [width] * layers, 10, seed=0)
    x = np.random.default_rng(0).standard_normal((n, 64))
    configs = [engine.LayerSnnConfig(v_th=1.0, phi=4)] * layers
    tracemalloc.start()
    try:
        engine.run_snn(model, configs, x, timesteps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < layers * timesteps * n * width, peak


def test_run_holds_one_quanta_buffer_and_an_integer_record():
    """The same run's peak stays within what it must hold: the L membranes,
    one quanta buffer shared by every layer, the score and int64 spike
    records, the float64 dense operands cast for the run, and an allowance
    of four [N, width] float64 arrays for a step's input, product and
    emissions and the first layer's constant product. A quanta array per
    layer and a float64 spike record besides the int64 one would not fit."""
    layers, width, n, timesteps, classes = 8, 128, 512, 32, 10
    model = nn.build_mlp(64, [width] * layers, classes, seed=0)
    x = np.random.default_rng(0).standard_normal((n, 64))
    configs = [engine.LayerSnnConfig(v_th=1.0, phi=4)] * layers
    row = n * width * 8
    operands = sum(8 * (ly.weight.size + ly.bias.size) for ly in model.layers if ly.parameterized)
    records = timesteps * n * (classes + layers) * 8
    bound = layers * row + row + records + operands + 4 * row
    tracemalloc.start()
    try:
        engine.run_snn(model, configs, x, timesteps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("arch, widths", [
    ("mlp", [6, 2, 9]),  # shrinks, then grows past the first
    ("mlp", [2, 7]),
    ("cnn", [3, 1]),  # 108 neurons, then 9
    ("cnn", [1, 6]),  # 36, then 54
])
def test_shared_quanta_buffer_equals_the_reference_sweep(random_net, arch, widths):
    """Spiking layers of shrinking and growing widths share one quanta
    buffer: a run from the input, with and without trains, a run resumed
    from each recorded train and a run that ``stop`` ends mid-horizon all
    equal the time-major reference bit for bit, with an int64 spike record,
    for one input and for a batch. A read-only model, as ``store.load_model``
    leaves it, keeps its run plan: every run after its first reads the kept
    plan, and the whole sweep runs twice on it."""
    horizon = 6
    for seed, n, frozen in itertools.product(range(2), (1, 6), (False, True)):
        model, cache, configs = random_net(arch, seed, widths=widths)
        if frozen:
            for layer in model.layers:
                if layer.parameterized:
                    layer.weight.flags.writeable = layer.bias.flags.writeable = False
        x0 = nn._check_batch(model, np.asarray(cache.inputs[:n], dtype=np.float64))
        spiking = engine.spiking_layer_indices(model)

        def simulate(*args, **kwargs):
            return engine._simulate(engine._prepare(model, configs), *args, **kwargs)

        def reference(steps):
            _, scores, trains, states = _time_major_run(model, configs, x0, steps)
            spikes = np.stack([
                [np.rint(a / cfg.threshold).reshape(n, -1).sum(axis=1).astype(np.int64)
                 for a in trains[i]] for i, cfg in zip(spiking, configs)
            ], axis=1)
            return scores, spikes, {i: s.v for i, s in states.items()}, trains

        def check(got, want, pos, steps, keep):
            scores, spikes, v_last, trains = got
            ref_scores, ref_spikes, ref_v, ref_trains = want
            assert spikes.dtype == np.int64 and spikes.shape == (steps, len(spiking) - pos, n)
            assert scores.dtype == ref_scores.dtype and scores.shape == ref_scores.shape
            assert scores.tobytes() == ref_scores.tobytes()
            assert spikes.tobytes() == np.ascontiguousarray(ref_spikes[:, pos:]).tobytes()
            assert list(v_last) == spiking[pos:]
            for i, v in v_last.items():
                assert v.tobytes() == ref_v[i].tobytes(), i
            if not keep:
                assert trains is None
                return
            assert list(trains) == spiking[pos:]
            for i, train in trains.items():
                assert len(train.counts) == steps, i
                for t, amplitudes in enumerate(ref_trains[i]):
                    assert train.amplitudes(t).tobytes() == amplitudes.tobytes(), (i, t)

        want = reference(horizon)
        plan = engine._prepare(model, configs)
        for _ in range(2 if frozen else 1):
            for keep in (True, False):
                check(simulate(0, x0, horizon, 0.5, keep_trains=keep), want, 0, horizon, keep)
            recorded = simulate(0, x0, horizon, 0.5, keep_trains=True)[3]
            for pos, i in enumerate(spiking):
                resumed = simulate(i + 1, recorded[i], horizon, 0.5, keep_trains=True)
                check(resumed, want, pos + 1, horizon, True)
            for last in (0, 2):
                stopped = simulate(
                    0, x0, horizon, 0.5, keep_trains=True, stop=lambda t, _, last=last: t == last
                )
                check(stopped, reference(last + 1), 0, last + 1, True)
        # every run of the read-only model read the plan its first run built
        assert model._run_plan is (plan if frozen else None)


def test_kept_plan_is_dropped_when_a_parameter_turns_writable(random_net):
    """A read-only model's kept plan is not read once one of its weights is
    made writable again and written in place: the run equals a fresh
    copy's, bit for bit, and the model keeps no plan."""
    model, cache, configs = random_net("mlp", 0)
    for layer in model.layers:
        if layer.parameterized:
            layer.weight.flags.writeable = layer.bias.flags.writeable = False
    engine.run_snn(model, configs, cache.inputs, 3)
    assert model._run_plan is not None
    weight = model.layers[0].weight
    weight.flags.writeable = True
    weight *= 2
    got = engine.run_snn(model, configs, cache.inputs, 3)
    want = engine.run_snn(model.clone(), configs, cache.inputs, 3)
    assert got.step_scores.tobytes() == want.step_scores.tobytes()
    assert model._run_plan is None


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_resumed_run_equals_one_pass(random_net, arch, chunk):
    """A run resumed from a spiking layer's recorded train (as
    ``search.build_table`` resumes one), or started from the input, gives one
    pass's record bit for bit: over its first ``chunk`` steps and over the
    whole horizon."""
    timesteps = 7
    for seed in range(3):
        model, cache, configs = random_net(arch, seed)
        x0 = nn._check_batch(model, np.asarray(cache.inputs, dtype=np.float64))
        spiking = engine.spiking_layer_indices(model)
        plan = engine._prepare(model, configs)
        whole = engine._simulate(plan, 0, x0, timesteps, 0.5, keep_trains=True)
        starts = [(0, 0, x0)]
        starts += [(i + 1, p + 1, whole[3][i]) for p, i in enumerate(spiking)]
        for steps in (chunk, timesteps):
            prefix = engine._simulate(plan, 0, x0, steps, 0.5)
            for start, pos, source in starts:
                scores, spikes, v_last, trains = engine._simulate(
                    plan, start, source, steps, 0.5, keep_trains=True
                )
                assert scores.tobytes() == whole[0][:steps].tobytes(), (start, steps)
                assert spikes.dtype == whole[1].dtype, (start, steps)
                assert spikes.tobytes() == whole[1][:steps, pos:].tobytes(), (start, steps)
                assert list(v_last) == list(trains) == spiking[pos:], (start, steps)
                for i, train in trains.items():
                    want = whole[3][i].counts[:steps]
                    assert train.counts.dtype == want.dtype, (start, steps, i)
                    assert train.counts.tobytes() == want.tobytes(), (start, steps, i)
                    assert v_last[i].tobytes() == prefix[2][i].tobytes(), (start, steps, i)


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    dim=st.integers(1, 8),
    classes=st.integers(2, 4),
    knobs=st.lists(st.tuples(st.integers(1, 255), st.integers(1, 4), st.floats(0.05, 2.0)),
                   min_size=4, max_size=4),
    timesteps=st.integers(1, 6),
    n=st.sampled_from([1, 7]),
    membrane_init=st.sampled_from([0.5, 0.0, -0.3, 0.9]),
    seed=st.integers(0, 2**16),
)
@example(widths=[9, 3, 11], dim=5, classes=3, knobs=[(2, 1, 0.3)] * 4, timesteps=4, n=7,
         membrane_init=0.5, seed=0)  # shrinks, then grows past the first
def test_layer_major_whole_run_equals_simulate(widths, dim, classes, knobs, timesteps, n,
                                               membrane_init, seed):
    """A whole run through the layer-major runner records ``_simulate``'s
    ``step_scores`` and ``step_spikes`` bit for bit, for every config list
    sharing one workspace, with the spike record or without it."""
    rng = np.random.default_rng(seed)
    model = nn.build_mlp(dim, widths, classes, seed=seed)
    x = rng.standard_normal((n, dim)) * 2.0
    config_lists = [
        [engine.LayerSnnConfig(v_th=v_th, rho=rho, phi=phi) for phi, rho, v_th in knobs[:len(widths)]],
        [engine.LayerSnnConfig(v_th=v_th, rho=1, phi=1) for _, _, v_th in knobs[:len(widths)]],
    ]
    plans = [engine._prepare(model, configs) for configs in config_lists]
    make, step_scores, step_spikes = engine._whole_runs(
        model, plans, x, timesteps, membrane_init, spikes=True
    )
    make_scores, scores_only, none = engine._whole_runs(
        model, plans, x, timesteps, membrane_init, spikes=False
    )
    make()
    make_scores()
    assert none is None and step_spikes.dtype == np.int64
    for i, plan in enumerate(plans):
        want_scores, want_spikes = engine._simulate(plan, 0, x, timesteps, membrane_init)[:2]
        assert step_scores[i].tobytes() == want_scores.tobytes(), i
        assert scores_only[i].tobytes() == want_scores.tobytes(), i
        assert step_spikes[i].shape == want_spikes.shape
        assert step_spikes[i].tobytes() == want_spikes.tobytes(), i
        run = engine._recorded(plan, step_scores[i], step_spikes[i])
        assert run.stats == engine.run_snn(model, config_lists[i], x, timesteps,
                                           membrane_init=membrane_init).stats


def test_whole_runs_allocate_nothing_once_set_up():
    """Whole runs in a prepared workspace, spikes recorded, allocate under
    4 KiB, the products large enough for numpy to buffer a careless call."""
    rng = np.random.default_rng(0)
    model = nn.build_mlp(64, [128, 96, 128], 10, seed=0)
    x = rng.standard_normal((512, 64))
    configs = [engine.LayerSnnConfig(v_th=0.2, rho=rho, phi=3) for rho in (1, 2, 1)]
    make, _, _ = engine._whole_runs(model, [engine._prepare(model, configs)], x, 6, 0.5,
                                    spikes=True)
    make()
    tracemalloc.start()
    try:
        make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    dim=st.integers(1, 8),
    classes=st.integers(2, 4),
    knobs=st.lists(st.tuples(st.sampled_from([1, 2, 3, 255, 256, 700]), st.integers(1, 4),
                             st.floats(0.05, 2.0)), min_size=4, max_size=4),
    timesteps=st.integers(1, 11),
    n=st.sampled_from([1, 7]),
    membrane_init=st.sampled_from([0.5, 0.0, -0.3, 0.9]),
    seed=st.integers(0, 2**16),
)
@example(widths=[9, 3, 11, 2], dim=5, classes=3, knobs=[(300, 1, 0.05)] * 4, timesteps=10, n=1,
         membrane_init=-0.3, seed=0)  # shrinks and grows, uint16 counts, T = 2C + 2
@example(widths=[4], dim=3, classes=2, knobs=[(2, 1, 0.3)] * 4, timesteps=3, n=7,
         membrane_init=0.5, seed=1)  # the head on lane 1, T < C
def test_two_lane_run_equals_run_snn(widths, dim, classes, knobs, timesteps, n, membrane_init,
                                     seed):
    """An MLP's two-lane run, ``_CHUNK`` steps at a time, and ``_eval_run``
    record ``run_snn``'s ``step_scores`` and ``step_spikes`` bit for bit: one to
    four spiking layers (so the head lands on either lane), widths that
    shrink and grow, ``phi`` past 255 (uint16 counts), T below, at and past
    ``_CHUNK`` and not a multiple of it, and a negative initial membrane."""
    rng = np.random.default_rng(seed)
    model = nn.build_mlp(dim, widths, classes, seed=seed)
    x = rng.standard_normal((n, dim)) * 2.0
    configs = [engine.LayerSnnConfig(v_th=v_th, rho=rho, phi=phi)
               for phi, rho, v_th in knobs[:len(widths)]]
    plan = engine._prepare(model, configs)
    lanes, scores, spikes = engine._two_lanes(plan, engine._prefix(model, plan, x), timesteps,
                                              membrane_init)
    with engine._on_helper(lanes[1], "test-lane"):
        lanes[0]()
    want = engine.run_snn(model, configs, x, timesteps, membrane_init=membrane_init)
    assert scores.tobytes() == want.step_scores.tobytes()
    assert spikes.dtype == want.step_spikes.dtype
    assert spikes.tobytes() == want.step_spikes.tobytes()
    got = engine._eval_run(model, configs, x, timesteps, membrane_init)()
    assert got.step_scores.tobytes() == want.step_scores.tobytes()
    assert got.step_spikes.tobytes() == want.step_spikes.tobytes() and got.stats == want.stats


@pytest.mark.parametrize("layers, lanes", [(1, False), (2, False), (3, True), (4, True)])
def test_eval_run_takes_two_lanes_from_three_spiking_layers(monkeypatch, layers, lanes):
    """An MLP of one or two spiking layers, whose lane 0 would hold no
    spiking layer's product, runs serially; from three layers on the run
    takes the two lanes."""
    model = nn.build_mlp(6, [5] * layers, 3, seed=0)
    configs = [engine.LayerSnnConfig(v_th=0.3, phi=2)] * layers
    x = np.random.default_rng(0).standard_normal((4, 6))
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (started.append(thread.name), start(thread)))
    got = engine._eval_run(model, configs, x, 6, 0.5)()
    assert started == (["spikecal-lane"] if lanes else [])
    want = engine.run_snn(model, configs, x, 6)
    assert got.step_scores.tobytes() == want.step_scores.tobytes()
    assert got.step_spikes.tobytes() == want.step_spikes.tobytes()


def test_two_lanes_allocate_nothing_once_set_up():
    """Once set up and the helper lane started, both lanes of a run
    together allocate under 4 KiB, over three chunks and a partial one."""
    rng = np.random.default_rng(0)
    model = nn.build_mlp(64, [128, 96, 128], 10, seed=0)
    x = rng.standard_normal((512, 64))
    configs = [engine.LayerSnnConfig(v_th=0.2, rho=rho, phi=3) for rho in (1, 2, 1)]
    plan = engine._prepare(model, configs)
    engine._eval_run(model, configs, x, 6, 0.5)()
    current = engine._prefix(model, plan, x)
    lanes, _, _ = engine._two_lanes(plan, current, 3 * engine._CHUNK + 2, 0.5)
    helper = threading.Thread(target=lanes[1])
    helper.start()
    # the helper's lane waits for lane 0's first step: trace from there on
    while sys._current_frames()[helper.ident].f_code.co_name != "wait":
        time.sleep(0.001)
    tracemalloc.start()
    try:
        lanes[0]()
        helper.join()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak


def test_two_lane_run_holds_its_buffers_and_the_records():
    """The 8x128, N = 512, T = 32 run's peak on two lanes stays within what
    it must hold: the L membranes, each lane's product and amplitude
    buffers, one pair of count buffers ``_CHUNK`` steps deep, the constant
    current, the score and int64 spike records and the float64 dense
    operands, plus 64 KiB. Count buffers T steps deep, or one more
    [N, width] float64 buffer, would not fit."""
    layers, width, n, timesteps, classes = 8, 128, 512, 32, 10
    model = nn.build_mlp(64, [width] * layers, classes, seed=0)
    x = np.random.default_rng(0).standard_normal((n, 64))
    configs = [engine.LayerSnnConfig(v_th=1.0, phi=4)] * layers
    row = n * width * 8
    operands = sum(8 * (ly.weight.size + ly.bias.size) for ly in model.layers if ly.parameterized)
    records = timesteps * n * (classes + layers) * 8
    counts = 2 * engine._CHUNK * n * width  # uint8
    bound = layers * row + 2 * 2 * row + counts + row + records + operands + 64 * 1024
    tracemalloc.start()
    try:
        engine._eval_run(model, configs, x, timesteps, 0.5)()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_stats_at_stops_each_input_at_its_step(random_net, arch):
    rng = np.random.default_rng(1)
    for seed in range(3):
        model, cache, configs = random_net(arch, seed)
        run = engine.run_snn(model, configs, cache.inputs, 5)
        last = rng.integers(0, 5, size=cache.sample_count)
        stats = engine.stats_at(model, run.step_spikes, last)
        for pos, i in enumerate(engine.spiking_layer_indices(model)):
            want = sum(int(run.step_spikes[: s + 1, pos, n].sum()) for n, s in enumerate(last))
            assert stats.layer_spikes[i] == want
            assert stats.layer_synops[i] == want * engine.layer_fanout(model, i)
        assert stats.total_spikes == sum(stats.layer_spikes.values())


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_zero_row_batch_runs_to_empty_results(random_net, arch):
    """A batch of no inputs goes through every path: empty outputs, taps,
    traces and trains of the right shapes, and no spikes."""
    model, cache, configs = random_net(arch, 0)
    empty = np.zeros((0, *model.input_shape))
    classes, spiking = model.class_count, engine.spiking_layer_indices(model)
    assert nn.forward(model, empty).shape == (0, classes)
    scores, taps = nn.forward_with_taps(model, empty)
    assert scores.shape == (0, classes) and sorted(taps) == spiking
    assert all(len(tap) == 0 for tap in taps.values())
    policy = early_exit.ExitPolicy(0.7, 0.2, 1.0, 4, np.ones(4))
    for record in (False, True):
        run = engine.run_snn(model, configs, empty, 4, record_trains=record)
        assert run.scores.shape == (0, classes) and run.step_scores.shape == (4, 0, classes)
        assert run.step_spikes.shape == (4, len(spiking), 0)
        assert run.stats.total_spikes == 0 and set(run.stats.layer_spikes.values()) == {0}
        if record:
            assert sorted(run.trains) == spiking
            assert all(t.counts.shape[:2] == (4, 0) for t in run.trains.values())
        for trace in (early_exit.apply_gate(model, run, policy),
                      early_exit.infer_adaptive(model, configs, policy, empty)):
            assert trace.exit_t.shape == trace.confidence.shape == trace.predicted.shape == (0,)
            assert trace.scores.shape == (0, classes) and trace.spikes_per_input.shape == (0,)
            assert trace.stats.total_spikes == 0


def _sparse_train(rng, n, shape, timesteps, phi=3, threshold=0.37):
    """A spike-like train: a fifth of the neurons fire 1..phi quanta, the rest are silent."""
    size = (timesteps, n, *shape)
    counts = rng.integers(1, phi + 1, size) * (rng.random(size) < 0.2)
    return engine.SpikeTrain(counts.astype(np.uint8), threshold)


def _read_only(layer):
    """A copy of a dense layer with read-only parameters, as ``store.load_model`` leaves them."""
    layer = nn.dense(layer.in_features, layer.out_features, layer.weight.copy(), layer.bias.copy())
    layer.weight.flags.writeable = layer.bias.flags.writeable = False
    return layer


@pytest.mark.parametrize("n", [1, 2, 3, 7, 256, 512, 1000])
def test_dense_cast_once_per_run_equals_per_call_product(n):
    """The engine's float64 dense operands give ``x @ W.T + b`` bit for bit,
    on a spike train and on a constant input (the prefix), whether cast per
    call (writable parameters) or kept on a read-only layer."""
    rng = np.random.default_rng(n)
    shapes = [(128, 128), (256, 784), (128, 256), (10, 128), (10, 64)]
    shapes += [tuple(int(d) for d in rng.integers(1, 300, 2)) for _ in range(4)]
    for out_f, in_f in shapes:
        layer = nn.dense(
            in_f, out_f, rng.standard_normal((out_f, in_f)), rng.standard_normal(out_f)
        )
        train = _sparse_train(rng, n, (in_f,), 3)
        x = rng.standard_normal((n, in_f))
        frozen = _read_only(layer)
        for lay in (layer, frozen):
            for t, got in enumerate(engine._currents([lay], train, 3)):
                want = train.amplitudes(t) @ layer.weight.T + layer.bias
                assert got.tobytes() == want.tobytes(), (out_f, in_f, t)
            (got,) = engine._currents([lay], x, 1)
            assert got.tobytes() == (x @ layer.weight.T + layer.bias).tobytes(), (out_f, in_f)
        assert layer.float64_operands is None
        assert engine._float64_operands(frozen)[0] is frozen.float64_operands[2]


def test_conv_layers_keep_their_per_call_path():
    """Conv and pool layers are not cast; a conv net's currents match uncast calls."""
    rng = np.random.default_rng(0)
    for _ in range(12):
        c_in, c_out, n = (int(d) for d in rng.integers(1, 5, 3))
        side = int(rng.choice([4, 6, 8]))
        conv = nn.conv2d(
            c_in, c_out, 3, padding=1,
            weight=rng.standard_normal((c_out, c_in, 3, 3)), bias=rng.standard_normal(c_out),
        )
        flat = c_out * (side // 4) ** 2
        head = nn.dense(flat, 10, rng.standard_normal((10, flat)), rng.standard_normal(10))
        layers = [nn.avgpool2d(2), conv, nn.avgpool2d(2), nn.flatten(), head]
        train = _sparse_train(rng, n, (c_in, side, side), 3)
        for t, got in enumerate(engine._currents(layers, train, 3)):
            want = train.amplitudes(t)
            for layer in layers:
                want = nn.apply_layer(layer, want)
            assert got.tobytes() == want.tobytes(), (c_in, c_out, n, side, t)


def _loaded(tmp_path, model):
    path = tmp_path / "model.snnc"
    store.save_model(model, path)
    return store.load_model(path)


def _fresh(model):
    """``model`` written and read back: its parameters as new, writable arrays."""
    return store.deserialize_model(store.serialize_model(model))


def _assert_same_run(got, want):
    for name in ("scores", "step_scores", "step_spikes"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.stats == want.stats


@pytest.fixture(scope="module")
def fitted_configs(trained_mlp, calibration):
    return calibrate.configs_from_fits(calibrate.fit_all_thresholds(trained_mlp, calibration, 8))


def test_reassigned_parameters_of_a_loaded_model_are_not_served_from_the_cache(
    tmp_path, trained_mlp, calibration, fitted_configs
):
    """A loaded layer given a new bias or weight, as ``calibrate_biases``
    gives its copy a new bias, runs as a model deserialized with that array,
    even when the new array is read-only too."""
    loaded, configs, x = _loaded(tmp_path, trained_mlp), fitted_configs, calibration.inputs
    last = engine.run_snn(loaded, configs, x, 4)  # casts and keeps the operands
    dense = [layer for layer in loaded.layers if layer.kind == "dense"]
    assert all(layer.float64_operands is not None for layer in dense)
    corrected, _ = calibrate.calibrate_biases(loaded, configs, calibration, 8)
    want, _ = calibrate.calibrate_biases(trained_mlp, configs, calibration, 8)
    assert store.serialize_model(corrected) == store.serialize_model(want)
    _assert_same_run(
        engine.run_snn(corrected, configs, x, 4), engine.run_snn(want, configs, x, 4)
    )
    rng = np.random.default_rng(0)
    for idx in (0, 2):  # the constant prefix's dense layer, and one fed spikes
        layer = loaded.layers[idx]
        for name in ("bias", "weight"):
            old = getattr(layer, name)
            new = (old + 0.5 * rng.standard_normal(old.shape)).astype(np.float32)
            new.flags.writeable = False
            setattr(layer, name, new)
            got = engine.run_snn(loaded, configs, x, 4)
            _assert_same_run(got, engine.run_snn(_fresh(loaded), configs, x, 4))
            assert got.step_scores.tobytes() != last.step_scores.tobytes(), (idx, name)
            last = got


def test_trained_clone_of_a_loaded_model_gets_its_own_operands(
    tmp_path, trained_mlp, blob_dataset, calibration, fitted_configs
):
    """A ``clone()`` starts without the cache and is writable, so training it
    in place and running it never reads the original's operands."""
    loaded, configs, x = _loaded(tmp_path, trained_mlp), fitted_configs, calibration.inputs
    before = engine.run_snn(loaded, configs, x, 4)
    copy = loaded.clone()
    assert all(layer.float64_operands is None for layer in copy.layers)
    _assert_same_run(engine.run_snn(copy, configs, x, 4), before)
    for layer in copy.layers:
        if layer.kind == "dense":
            layer.weight *= np.float32(1.5)
    scaled = engine.run_snn(copy, configs, x, 4)
    _assert_same_run(scaled, engine.run_snn(_fresh(copy), configs, x, 4))
    assert scaled.step_scores.tobytes() != before.step_scores.tobytes()
    trained = train.train_reference(loaded, blob_dataset, epochs=1, lr=0.05, seed=1)
    got = engine.run_snn(trained, configs, x, 4)
    _assert_same_run(got, engine.run_snn(_fresh(trained), configs, x, 4))
    assert got.step_scores.tobytes() != before.step_scores.tobytes()
    _assert_same_run(engine.run_snn(loaded, configs, x, 4), before)


def test_serving_a_loaded_model_one_input_at_a_time_equals_the_gate(
    tmp_path, trained_mlp, fitted_configs
):
    """One ``infer_adaptive`` call per eval input on a loaded model, its
    cached operands reused from call to call, equals ``apply_gate`` on a
    ``t_max``-step run of that input in every ``ExitTrace`` field, and exits
    and predicts as the batched run does (its scores may differ in the last
    bit: BLAS rounds a one-row product differently)."""
    loaded, configs, t_max = _loaded(tmp_path, trained_mlp), fitted_configs, 8
    data = store.make_synthetic("blobs", 200, seed=12, classes=4, dim=32, structure_seed=11)
    full = engine.run_snn(loaded, configs, data.images, t_max)
    conf = early_exit.confidence(full.step_scores, loaded.class_count)
    policy = early_exit.ExitPolicy(  # a flat boundary the median input clears
        alpha_base=float(np.median(conf)), beta=0.0, delta=1.0, t_max=t_max,
        mean_entropy=np.zeros(t_max),
    )
    batched = early_exit.apply_gate(loaded, full, policy, data.labels)
    assert len(set(batched.exit_t.tolist())) > 2
    kept = [layer.float64_operands for layer in loaded.layers]
    assert kept[0] is not None
    for i in range(len(data.labels)):
        x, y = data.images[i : i + 1], data.labels[i : i + 1]
        got = early_exit.infer_adaptive(loaded, configs, policy, x, y)
        want = early_exit.apply_gate(loaded, engine.run_snn(loaded, configs, x, t_max), policy, y)
        for f in dataclasses.fields(want):
            g, w = getattr(got, f.name), getattr(want, f.name)
            if f.name == "stats":
                assert g == w, i
            else:
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (i, f.name)
        assert (got.exit_t[0], got.predicted[0]) == (batched.exit_t[i], batched.predicted[i]), i
    assert all(a is layer.float64_operands for a, layer in zip(kept, loaded.layers))


def test_config_count_mismatch_raises(trained_mlp, blob_dataset):
    with pytest.raises(engine.ConfigMismatchError):
        engine.run_snn(
            trained_mlp,
            [engine.LayerSnnConfig(v_th=1.0)],
            blob_dataset.images[:2],
            timesteps=4,
        )


def test_config_validation():
    with pytest.raises(ValueError):
        engine.LayerSnnConfig(v_th=0.0)
    with pytest.raises(ValueError):
        engine.LayerSnnConfig(v_th=1.0, rho=0)
    with pytest.raises(ValueError):
        engine.LayerSnnConfig(v_th=1.0, phi=0)
    with pytest.raises(ValueError):
        engine.LayerSnnConfig(v_th=1.0, rho=1.5)


def test_config_rejects_a_threshold_below_the_smallest_normal_float32():
    """A membrane divided by a subnormal threshold can overflow float64."""
    tiny = float(np.finfo(np.float32).tiny)
    for v_th in (5e-324, 1e-40, np.nextafter(tiny, 0.0)):
        with pytest.raises(ValueError, match="at least 1.1754943508222875e-38"):
            engine.LayerSnnConfig(v_th=float(v_th))
    assert engine.LayerSnnConfig(v_th=tiny).threshold == tiny


def test_config_with_overflowing_threshold_rejected():
    """A finite v_th whose threshold rho * v_th overflows would turn every membrane into NaN."""
    with pytest.raises(ValueError, match="not finite"):
        engine.LayerSnnConfig(v_th=1e308, rho=2)
    assert engine.LayerSnnConfig(v_th=1e308, rho=1).threshold == 1e308
    assert np.isfinite(engine.LayerSnnConfig(v_th=8e307, rho=2).threshold)


def test_effective_threshold_property():
    cfg = engine.LayerSnnConfig(v_th=0.75, rho=4)
    assert cfg.threshold == pytest.approx(3.0)


def test_step_scores_prefix_means(trained_mlp, blob_dataset):
    x = blob_dataset.images[:3]
    configs = [engine.LayerSnnConfig(v_th=4.0), engine.LayerSnnConfig(v_th=4.0)]
    run = engine.run_snn(trained_mlp, configs, x, timesteps=6)
    assert run.step_scores.shape == (6, 3, 4)
    np.testing.assert_allclose(run.step_scores[-1], run.scores, atol=1e-9)
    # cumulative means scale as acc_t / t: recover acc and check t=2 readout
    acc1 = run.step_scores[0] * 1
    acc2 = run.step_scores[1] * 2
    assert not np.allclose(acc1, acc2)


def test_spike_trains_and_trace_dump(tmp_path, trained_mlp, blob_dataset):
    x = blob_dataset.images[:2]
    configs = [engine.LayerSnnConfig(v_th=4.0), engine.LayerSnnConfig(v_th=4.0)]
    run = engine.run_snn(trained_mlp, configs, x, timesteps=5, record_trains=True)
    path = tmp_path / "trace.csv"
    engine.dump_trace(run, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "layer,timestep,neuron_index,emitted_amplitude"
    for line in lines[1:]:
        layer, t, idx, amp = line.split(",")
        assert 1 <= int(t) <= 5  # timesteps are 1-based in traces
        assert float(amp) > 0


def test_trace_requires_recording(trained_mlp, blob_dataset):
    configs = [engine.LayerSnnConfig(v_th=4.0), engine.LayerSnnConfig(v_th=4.0)]
    run = engine.run_snn(trained_mlp, configs, blob_dataset.images[:1], timesteps=3)
    with pytest.raises(ValueError):
        engine.dump_trace(run, "/tmp/nope.csv")


def test_config_file_round_trip(tmp_path):
    configs = [
        engine.LayerSnnConfig(v_th=0.123456789, rho=2, phi=3),
        engine.LayerSnnConfig(v_th=7.5, rho=1, phi=1),
    ]
    path = tmp_path / "cfg.txt"
    engine.save_configs(configs, [1, 4], path)
    back, layers = engine.load_configs(path)
    assert layers == [1, 4]
    assert back[0].v_th == configs[0].v_th  # repr round-trip is exact
    assert back[0].rho == 2 and back[0].phi == 3
    assert back[1].v_th == 7.5


def test_synop_accounting_uses_fanout(trained_mlp, blob_dataset):
    x = blob_dataset.images[:4]
    configs = [engine.LayerSnnConfig(v_th=3.0), engine.LayerSnnConfig(v_th=3.0)]
    run = engine.run_snn(trained_mlp, configs, x, timesteps=8)
    for layer_idx, count in run.stats.layer_spikes.items():
        fanout = engine.layer_fanout(trained_mlp, layer_idx)
        assert run.stats.layer_synops[layer_idx] == pytest.approx(count * fanout)


# ---------------------------------------------------------------------------
# property-based checks


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=10),
    st.floats(0.2, 3.0),
    st.integers(1, 4),
)
def test_conservation_property(charges, v_th, phi):
    emitted, final_v = step_sequence(charges, v_th, phi)
    np.testing.assert_allclose(sum(charges), sum(emitted) + final_v, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=10),
    st.floats(0.2, 3.0),
    st.integers(1, 4),
)
def test_emissions_are_whole_quanta(charges, v_th, phi):
    emitted, _ = step_sequence(charges, v_th, phi)
    for e in emitted:
        k = e / v_th
        assert abs(k - round(k)) < 1e-9
        assert 0 <= round(k) <= phi


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(0.3, 2.0), st.integers(1, 24), st.integers(1, 3))
def test_constant_current_count_formula(current, v_th, timesteps, phi):
    """n(T) = clip(floor((cT + v0)/v_th), 0, phi*T) with v0 = v_th/2."""
    emitted, _ = step_sequence([current] * timesteps, v_th, phi, v0=v_th / 2.0)
    count = round(sum(emitted) / v_th)
    want = min(int(np.floor((current * timesteps + v_th / 2.0) / v_th)), phi * timesteps)
    assert count == max(want, 0)
