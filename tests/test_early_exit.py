import collections
import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from spikecal import calibrate, early_exit, engine, nn, search, store


@pytest.fixture(scope="module")
def snn(trained_mlp, calibration):
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    configs = calibrate.configs_from_fits(fits)
    model, _ = calibrate.calibrate_biases(trained_mlp, configs, calibration, timesteps=8)
    return model, configs


# ---------------------------------------------------------------------------
# entropy and confidence


def test_entropy_hand_values():
    one_hot = np.array([1.0, 0.0, 0.0])
    assert early_exit.entropy(one_hot) == pytest.approx(0.0, abs=1e-9)
    uniform = np.full(10, 0.1)
    assert early_exit.entropy(uniform) == pytest.approx(np.log(10.0), abs=1e-9)
    half = np.array([0.5, 0.5])
    assert early_exit.entropy(half) == pytest.approx(np.log(2.0), abs=1e-9)


def test_entropy_matches_oracle(rng):
    for _ in range(50):
        p = rng.uniform(0.01, 1, size=7)
        p /= p.sum()
        assert early_exit.entropy(p) == pytest.approx(oracles.entropy_scalar(p), abs=1e-9)


def test_entropy_rejects_empty():
    with pytest.raises(ValueError):
        early_exit.entropy(np.zeros((0,)))


def test_confidence_hand_value():
    # scores that softmax to (0.9, 0.1): log(9) apart
    scores = np.array([[np.log(9.0), 0.0]])
    c = early_exit.confidence(scores, class_count=2)
    h = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
    assert c[0] == pytest.approx(1.0 - h / np.log(2.0), abs=1e-6)
    assert c[0] == pytest.approx(0.5310, abs=1e-3)


def test_confidence_bounds(rng):
    scores = rng.standard_normal((50, 6)) * 10
    c = early_exit.confidence(scores, class_count=6)
    assert (c >= 0).all() and (c <= 1).all()
    # certain prediction -> 1, flat prediction -> 0
    sure = early_exit.confidence(np.array([[100.0, 0.0, 0.0]]), 3)
    flat = early_exit.confidence(np.array([[1.0, 1.0, 1.0]]), 3)
    assert sure[0] == pytest.approx(1.0, abs=1e-3)
    assert flat[0] == pytest.approx(0.0, abs=1e-9)


def test_confidence_requires_two_classes():
    with pytest.raises(ValueError):
        early_exit.confidence(np.zeros((1, 1)), class_count=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
def test_confidence_monotone_under_sharpening(classes, seed):
    g = np.random.default_rng(seed)
    scores = g.standard_normal((1, classes))
    c1 = early_exit.confidence(scores, classes)
    c2 = early_exit.confidence(scores * 3.0, classes)  # sharper distribution
    assert c2[0] >= c1[0] - 1e-9


def _reference_confidence(scores, class_count):
    """The exit confidence as softmax, then ``entropy``, then ``np.clip``:
    the formula ``confidence`` computes with bare ufuncs."""
    probs = nn.softmax(np.asarray(scores, dtype=np.float64), axis=-1)
    c = np.clip(1.0 - early_exit.entropy(probs) / np.log(class_count), 0.0, 1.0)
    return float(c) if np.ndim(c) == 0 else c


@settings(max_examples=300, deadline=None)
@example(classes=2, lead=[], scale=0.0, tied=True, seed=0)
@example(classes=2, lead=[3], scale=3.0, tied=False, seed=1)
@given(
    classes=st.integers(2, 12),
    lead=st.lists(st.integers(1, 4), max_size=2),  # 1-D, 2-D or 3-D scores
    scale=st.floats(-3.0, 3.0),  # scores of magnitude 1e-3 to 1e3
    tied=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_confidence_equals_reference_formula(classes, lead, scale, tied, seed):
    g = np.random.default_rng(seed)
    shape = (*lead, classes)
    draw = g.integers(0, 3, shape) if tied else g.standard_normal(shape)  # tied: 3 values
    scores = draw * 10.0 ** scale
    got, want = early_exit.confidence(scores, classes), _reference_confidence(scores, classes)
    assert type(got) is type(want) and type(got) is (float if not lead else np.ndarray)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("classes", [2, 10], ids=lambda c: f"{c}-entropy")
def test_confidence_of_step_block_equals_per_step_stack(rng, classes):
    """The gate scores all [T, N, classes] steps in one call, bit for bit as step by step."""
    scores = rng.standard_normal((8, 40, classes)) * 3.0
    scores[:, 0] = 1.5  # every class tied: flat softmax
    top = scores[:, 1].max(axis=1)
    scores[:, 1, :2] = top[:, None] + 1.0  # two classes tied at the top
    scores[:, 2] = 0.0
    scores[:, 2, 1] = 800.0  # saturated: softmax is exactly one-hot
    scores[:, 3] *= 1e3  # near saturation
    scores[:, 4] = -1e300  # tied and huge
    block = early_exit.confidence(scores, classes)
    steps = np.stack([early_exit.confidence(scores[t], classes) for t in range(8)])
    assert block.shape == (8, 40)
    assert block.tobytes() == steps.tobytes()
    assert (block[:, 2] > 0.999).all()  # the saturated input reads as sure


# ---------------------------------------------------------------------------
# boundary schedule


def test_boundary_formula_exact_values():
    policy = early_exit.ExitPolicy(
        alpha_base=0.6,
        beta=0.2,
        delta=1.0,
        t_max=3,
        mean_entropy=np.array([2.0, 1.5, 1.0]),
    )
    bounds = policy.boundaries()
    # at the minimum mean entropy the boundary peaks at base + beta
    assert bounds[2] == pytest.approx(0.8, abs=1e-12)
    assert bounds[1] == pytest.approx(0.6 + 0.2 * np.exp(-0.5), abs=1e-12)
    assert bounds[0] == pytest.approx(0.6 + 0.2 * np.exp(-1.0), abs=1e-12)


def test_boundary_with_unit_gap_hits_e_minus_one():
    policy = early_exit.ExitPolicy(
        alpha_base=0.5, beta=0.3, delta=1.0, t_max=2,
        mean_entropy=np.array([2.0, 1.0]),
    )
    bounds = policy.boundaries()
    assert bounds[0] == pytest.approx(0.5 + 0.3 * np.exp(-1.0), abs=1e-12)


def test_zero_beta_is_flat():
    policy = early_exit.ExitPolicy(
        alpha_base=0.7, beta=0.0, delta=2.0, t_max=4,
        mean_entropy=np.array([3.0, 2.0, 1.0, 0.5]),
    )
    np.testing.assert_allclose(policy.boundaries(), 0.7, atol=1e-15)


def test_tiny_delta_boundaries_are_the_formulas_limit():
    """A delta so small that every positive entropy gap over it would
    overflow: those steps get 0 for the exp, the formula's limit, without a
    warning,
    and the step at the minimum keeps alpha_base + beta. An ordinary delta
    gives the formula's value bit for bit."""
    ebar = np.array([2.0, 1.5, 1.0, 1.0 + 2.0**-40])
    for delta in (5e-324, 1e-310):
        policy = early_exit.ExitPolicy(0.6, 0.2, delta, 4, ebar)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bounds = policy.boundaries()
        assert bounds.tolist() == [0.6, 0.6, 0.6 + 0.2, 0.6], delta
    policy = early_exit.ExitPolicy(0.6, 0.2, 0.3, 4, ebar)
    formula = 0.6 + 0.2 * np.exp(-(ebar - ebar.min()) / 0.3)
    assert policy.boundaries().tobytes() == formula.tobytes()


def test_policy_cannot_change_in_place():
    """A policy is frozen: no field can be reassigned, its entropies are a
    read-only copy of what it was given, and the boundaries it computed
    once are read-only too, so every request reads the same ones."""
    ebar = np.array([2.0, 1.5, 1.0])
    policy = early_exit.ExitPolicy(0.6, 0.2, 1.0, 3, ebar)
    before = policy.boundaries().tobytes()
    for name, value in (("alpha_base", 0.1), ("beta", 0.0), ("delta", 2.0), ("t_max", 2),
                        ("mean_entropy", np.zeros(3))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(policy, name, value)
    for array in (policy.mean_entropy, policy.boundaries()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    ebar[:] = 0.0  # the caller's array is not the policy's
    assert policy.mean_entropy.tolist() == [2.0, 1.5, 1.0]
    assert policy.mean_entropy.dtype == np.float64
    assert policy.boundaries() is policy.boundaries()
    assert policy.boundaries().tobytes() == before


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-2.0, 2.0), st.floats(0.0, 1.0),
    st.one_of(st.floats(1e-3, 10.0), st.sampled_from([5e-324, 1e-310, 1e-300])),
    st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8),
)
def test_boundaries_are_the_formula(alpha_base, beta, delta, ebar):
    """The boundaries a policy keeps are ``alpha_base + beta * exp(-(Ebar_t -
    Ebar_min) / delta)`` bit for bit, where the formula, left to overflow
    under ``np.errstate``, gives what the tiny-delta cap gives without a
    warning."""
    ebar = np.asarray(ebar, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        policy = early_exit.ExitPolicy(alpha_base, beta, delta, len(ebar), ebar)
    with np.errstate(over="ignore"):
        formula = alpha_base + beta * np.exp(-(ebar - ebar.min()) / delta)
    assert policy.boundaries().dtype == np.float64
    assert policy.boundaries().tobytes() == formula.tobytes()


def test_fit_policy_records_calibration_entropies(snn, calibration):
    model, configs = snn
    policy = early_exit.fit_exit_policy(model, configs, calibration, t_max=6)
    assert policy.t_max == 6
    assert policy.mean_entropy.shape == (6,)
    assert (policy.mean_entropy >= 0).all()
    # later readouts should not be wildly less certain than the first
    assert policy.mean_entropy[-1] <= policy.mean_entropy.max() + 1e-9


def test_fit_policy_rejects_bad_delta(snn, calibration):
    model, configs = snn
    with pytest.raises(ValueError):
        early_exit.fit_exit_policy(model, configs, calibration, t_max=4, delta=0.0)


# ---------------------------------------------------------------------------
# adaptive inference


def test_adaptive_never_exits_later_than_t_max(snn, calibration):
    model, configs = snn
    policy = early_exit.fit_exit_policy(model, configs, calibration, t_max=8)
    trace = early_exit.infer_adaptive(
        model, configs, policy, calibration.inputs, calibration.labels
    )
    assert trace.exit_t.min() >= 1
    assert trace.exit_t.max() <= 8
    assert trace.mean_exit_t <= 8.0


def test_unreachable_boundary_runs_full_horizon(snn, calibration):
    model, configs = snn
    policy = early_exit.ExitPolicy(
        alpha_base=1.1, beta=0.0, delta=1.0, t_max=6,
        mean_entropy=np.zeros(6),
    )
    trace = early_exit.infer_adaptive(
        model, configs, policy, calibration.inputs, calibration.labels
    )
    assert (trace.exit_t == 6).all()


def test_zero_boundary_exits_immediately(snn, calibration):
    model, configs = snn
    policy = early_exit.ExitPolicy(
        alpha_base=0.0, beta=0.0, delta=1.0, t_max=6,
        mean_entropy=np.zeros(6),
    )
    trace = early_exit.infer_adaptive(
        model, configs, policy, calibration.inputs, calibration.labels
    )
    assert (trace.exit_t == 1).all()


def test_flat_boundary_equals_manual_thresholding(snn, calibration):
    """With beta = 0 the adaptive run must reproduce a hand-rolled sweep."""
    model, configs = snn
    alpha = 0.8
    policy = early_exit.ExitPolicy(
        alpha_base=alpha, beta=0.0, delta=1.0, t_max=8,
        mean_entropy=np.zeros(8),
    )
    trace = early_exit.infer_adaptive(
        model, configs, policy, calibration.inputs, calibration.labels
    )
    run = engine.run_snn(model, configs, calibration.inputs, 8)
    for i in range(calibration.sample_count):
        exit_t = 8
        for t in range(8):
            conf = early_exit.confidence(
                run.step_scores[t, i:i + 1], model.class_count
            )[0]
            if conf >= alpha:
                exit_t = t + 1
                break
        assert trace.exit_t[i] == exit_t
        np.testing.assert_allclose(
            trace.scores[i], run.step_scores[exit_t - 1, i], atol=1e-9
        )


def test_adaptive_matches_fixed_when_exits_disabled(snn, calibration):
    model, configs = snn
    policy = early_exit.ExitPolicy(
        alpha_base=1.1, beta=0.0, delta=1.0, t_max=8,
        mean_entropy=np.zeros(8),
    )
    trace = early_exit.infer_adaptive(
        model, configs, policy, calibration.inputs, calibration.labels
    )
    run = engine.run_snn(model, configs, calibration.inputs, 8)
    np.testing.assert_allclose(trace.scores, run.scores, atol=1e-9)
    assert trace.stats.total_spikes == run.stats.total_spikes


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_gate_on_longer_run_equals_adaptive_run(random_net, arch):
    """Gating the first t_max steps of a longer run is a t_max-step run's gate."""
    exits = set()
    for seed in range(3):
        model, cache, configs = random_net(arch, seed)
        run = engine.run_snn(model, configs, cache.inputs, 9)
        conf = early_exit.confidence(run.step_scores, model.class_count)
        for t_max in (1, 4, 8):
            # boundaries spread over the confidences seen, so exits spread too
            for alpha_base in np.quantile(conf, [0.25, 0.5, 0.75]):
                policy = early_exit.fit_exit_policy(
                    model, configs, cache, t_max, alpha_base=alpha_base, beta=0.05
                )
                got = early_exit.apply_gate(model, run, policy, cache.labels)
                want = early_exit.infer_adaptive(
                    model, configs, policy, cache.inputs, cache.labels
                )
                for f in dataclasses.fields(want):
                    if f.name == "stats":
                        assert got.stats == want.stats
                    else:
                        np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))
                exits.update((t_max, int(t)) for t in want.exit_t)
    assert {(8, 1), (8, 8)} <= exits and len(exits) > 6


def test_served_model_keeps_its_plan_while_it_holds(tmp_path, snn, calibration):
    """A loaded model keeps the run plan of its last config list. Served
    again with the same configs it reads that plan; another config list, a
    replaced config or a bias reassigned to a new read-only array gets a new
    one, and a writable clone keeps none. Every answer equals ``apply_gate``
    on a fresh ``run_snn`` of a copy that shares no plan, bit for bit."""
    trained, configs = snn
    store.save_model(trained, tmp_path / "model.snnc")
    model = store.load_model(tmp_path / "model.snnc")
    x, y, t_max = calibration.inputs[:32], calibration.labels[:32], 6
    conf = early_exit.confidence(engine.run_snn(model, configs, x, t_max).step_scores, 4)
    policy = _flat_policy(t_max, float(np.median(conf)))

    def served(model, configs):
        """The trace served from ``model``, and the plan it keeps after."""
        got = early_exit.infer_adaptive(model, configs, policy, x, y)
        fresh = model.clone()
        want = early_exit.apply_gate(fresh, engine.run_snn(fresh, configs, x, t_max), policy, y)
        for f in dataclasses.fields(want):
            g, w = getattr(got, f.name), getattr(want, f.name)
            assert g == w if f.name == "stats" else g.tobytes() == w.tobytes(), f.name
        return got, model._run_plan

    first, plan = served(model, configs)
    assert len(set(first.exit_t.tolist())) > 2, first.exit_t
    assert plan is not None and plan.configs == tuple(configs)
    assert served(model, configs)[1] is plan
    other = [dataclasses.replace(c, phi=c.phi + 1) for c in configs]
    for cfgs in (other, [dataclasses.replace(configs[0], rho=2), *configs[1:]], configs):
        kept = served(model, cfgs)[1]
        assert kept is not plan and kept.configs == tuple(cfgs)
        plan = kept
    assert served(model, other)[0].stats != first.stats
    plan = served(model, configs)[1]
    feeder = model.layers[0]
    bias = feeder.bias + np.float32(0.25)
    bias.flags.writeable = False
    feeder.bias = bias
    trace, kept = served(model, configs)
    assert kept is not plan and kept.configs == tuple(configs) and trace.stats != first.stats
    assert served(model, configs)[1] is kept
    clone = model.clone()
    for _ in range(2):
        assert served(clone, configs)[1] is None


def _count_steps(monkeypatch):
    """Record every neuron update (``engine._fire``) from now on, by the
    identity of the membrane array it steps: one per spiking layer."""
    calls = []
    fire = engine._fire

    def spy(v, current, k, threshold, phi):
        calls.append(id(v))
        return fire(v, current, k, threshold, phi)

    monkeypatch.setattr(engine, "_fire", spy)
    return calls


def _flat_policy(t_max, alpha):
    return early_exit.ExitPolicy(
        alpha_base=alpha, beta=0.0, delta=1.0, t_max=t_max, mean_entropy=np.zeros(t_max)
    )


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_adaptive_run_equals_gate_on_full_run(random_net, arch, monkeypatch):
    """``infer_adaptive`` is ``apply_gate`` on a ``t_max``-step run, bit for
    bit, and simulates up to the step of the last exit, no further."""
    t_max = 7
    mixed = set()
    for seed in range(3):
        model, cache, configs = random_net(arch, seed, 16)
        layers = len(configs)
        for n in (1, 3, cache.sample_count):
            x, y = cache.inputs[:n], cache.labels[:n]
            full = engine.run_snn(model, configs, x, t_max)
            conf = early_exit.confidence(full.step_scores, model.class_count)
            mix = early_exit.fit_exit_policy(
                model, configs, cache, t_max, alpha_base=float(np.median(conf)), beta=0.05
            )
            for name, policy in (
                ("first", _flat_policy(t_max, 0.0)),
                ("never", _flat_policy(t_max, 1.1)),
                ("mix", mix),
            ):
                want = early_exit.apply_gate(model, full, policy, y)
                calls = _count_steps(monkeypatch)
                got = early_exit.infer_adaptive(model, configs, policy, x, y)
                monkeypatch.undo()
                for f in dataclasses.fields(want):
                    if f.name == "stats":
                        assert got.stats == want.stats
                    else:
                        g, w = getattr(got, f.name), getattr(want, f.name)
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (name, f.name)
                last = int(want.exit_t.max())
                assert len(calls) == layers * last, name
                if name == "first":
                    assert (got.exit_t == 1).all()
                elif name == "never":
                    assert (got.exit_t == t_max).all()
                else:
                    mixed.update(int(t) for t in got.exit_t)
    assert len(mixed) > 2 and 1 < max(mixed), mixed


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_exits_at_first_step_simulate_one_chunk(random_net, arch, monkeypatch):
    """When every input exits at step 1, each spiking layer steps exactly
    once: the gate is checked after every step."""
    model, cache, configs = random_net(arch, 4)
    calls = _count_steps(monkeypatch)
    trace = early_exit.infer_adaptive(model, configs, _flat_policy(8, 0.0), cache.inputs)
    assert (trace.exit_t == 1).all()
    per_layer = collections.Counter(calls)
    assert len(per_layer) == len(configs)
    assert set(per_layer.values()) == {1}


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_no_exit_steps_each_layer_t_max_times(random_net, arch, monkeypatch):
    """When no input ever clears the boundary, each spiking layer steps
    exactly ``t_max`` times, and every input exits at ``t_max``."""
    model, cache, configs = random_net(arch, 4)
    calls = _count_steps(monkeypatch)
    trace = early_exit.infer_adaptive(model, configs, _flat_policy(8, 1.1), cache.inputs)
    assert (trace.exit_t == 8).all()
    per_layer = collections.Counter(calls)
    assert len(per_layer) == len(configs)
    assert set(per_layer.values()) == {8}


def test_gate_needs_t_max_steps(snn, calibration):
    model, configs = snn
    policy = early_exit.fit_exit_policy(model, configs, calibration, t_max=6)
    run = engine.run_snn(model, configs, calibration.inputs, 5)
    with pytest.raises(ValueError):
        early_exit.apply_gate(model, run, policy)


def test_early_exits_save_spikes(snn, calibration):
    model, configs = snn
    eager = early_exit.ExitPolicy(
        alpha_base=0.2, beta=0.0, delta=1.0, t_max=8,
        mean_entropy=np.zeros(8),
    )
    trace = early_exit.infer_adaptive(
        model, configs, eager, calibration.inputs, calibration.labels
    )
    full = engine.run_snn(model, configs, calibration.inputs, 8)
    assert trace.stats.total_spikes <= full.stats.total_spikes
    if (trace.exit_t < 8).any():
        assert trace.stats.total_spikes < full.stats.total_spikes
    # per-input spike spend is consistent with the exit step
    assert trace.spikes_per_input.shape == (calibration.sample_count,)
    assert (trace.spikes_per_input >= 0).all()


def test_accuracy_reported_when_labels_given(snn, calibration):
    model, configs = snn
    policy = early_exit.fit_exit_policy(model, configs, calibration, t_max=8)
    trace = early_exit.infer_adaptive(
        model, configs, policy, calibration.inputs, calibration.labels
    )
    manual = float(np.mean(trace.predicted == calibration.labels))
    assert trace.accuracy == pytest.approx(manual)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_labels_not_one_per_input_are_rejected(snn, calibration, count):
    """Both gate entry points take labels only as a [N] array: too few, too
    many or an extra axis is a ValueError naming both sizes, not a trace
    whose accuracy is read against the wrong labels."""
    model, configs = snn
    policy = early_exit.fit_exit_policy(model, configs, calibration, t_max=4)
    x, y = calibration.inputs[:5], calibration.labels
    run = engine.run_snn(model, configs, x, 4)
    for labels, shape in ((y[:count], f"({count},)"), (y[:10], "(10,)"), (y[:5, None], "(5, 1)")):
        pattern = rf"^5 inputs but labels of shape {re.escape(shape)}"
        with pytest.raises(ValueError, match=pattern):
            early_exit.apply_gate(model, run, policy, labels)
        with pytest.raises(ValueError, match=pattern):
            early_exit.infer_adaptive(model, configs, policy, x, labels)


def test_policy_file_round_trip(tmp_path, snn, calibration):
    model, configs = snn
    policy = early_exit.fit_exit_policy(
        model, configs, calibration, t_max=5, alpha_base=0.65, beta=0.25, delta=1.5
    )
    path = tmp_path / "policy.txt"
    early_exit.save_policy(policy, path)
    back = early_exit.load_policy(path)
    assert back.alpha_base == policy.alpha_base
    assert back.beta == policy.beta
    assert back.delta == policy.delta
    assert back.t_max == policy.t_max
    assert "\nconfidence_kind entropy\n" in path.read_text()
    np.testing.assert_array_equal(back.mean_entropy, policy.mean_entropy)
    np.testing.assert_allclose(back.boundaries(), policy.boundaries(), atol=0)


def test_policy_file_with_another_confidence_kind_rejected(tmp_path, snn, calibration):
    model, configs = snn
    policy = early_exit.fit_exit_policy(model, configs, calibration, t_max=3)
    path = tmp_path / "policy.txt"
    early_exit.save_policy(policy, path)
    path.write_text(path.read_text().replace("confidence_kind entropy", "confidence_kind max_prob"))
    with pytest.raises(store.StoreError, match=r"policy.txt:6: expected 'entropy'"):
        early_exit.load_policy(path)


def test_exit_trace_csv(tmp_path, snn, calibration):
    model, configs = snn
    policy = early_exit.fit_exit_policy(model, configs, calibration, t_max=4)
    trace = early_exit.infer_adaptive(
        model, configs, policy, calibration.inputs, calibration.labels
    )
    path = tmp_path / "exits.csv"
    early_exit.write_exit_trace(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "input_index,exit_t,confidence,predicted,label"
    assert len(lines) == 1 + calibration.sample_count
