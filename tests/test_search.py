import dataclasses
import itertools
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from spikecal import calibrate, cli, engine, nn, search, store, train


def make_table(layers, candidates, s, e, kind="phi"):
    return search.SensitivityTable(
        kind=kind,
        layers=list(layers),
        candidates=list(candidates),
        sample_count=1,
        s=dict(s),
        e=dict(e),
    )


def random_table(rng, n_layers, n_cands, kind="phi"):
    layers = list(range(1, 2 * n_layers, 2))
    candidates = sorted(rng.choice(np.arange(1, 9), size=n_cands, replace=False).tolist())
    s, e = {}, {}
    for layer in layers:
        for cand in candidates:
            s[(layer, cand)] = float(np.round(rng.uniform(0, 2), 6))
            e[(layer, cand)] = float(np.round(rng.uniform(0.1, 3), 6))
    return make_table(layers, candidates, s, e, kind)


def monotone_table(rng, n_layers, n_cands):
    """A burst-cap-like table: per layer, S falls and E rises with the candidate."""
    layers, candidates = list(range(1, 2 * n_layers, 2)), list(range(1, n_cands + 1))
    s, e = {}, {}
    for layer in layers:
        falling = sorted(rng.uniform(0, 2, n_cands), reverse=True)
        rising = sorted(rng.uniform(0.1, 3, n_cands))
        for cand, s_val, e_val in zip(candidates, falling, rising):
            s[(layer, cand)] = float(np.round(s_val, 6))
            e[(layer, cand)] = float(np.round(e_val, 6))
    return make_table(layers, candidates, s, e)


def median_uniform_sum(table, values):
    """The median total of ``values`` (``table.s`` or ``table.e``) over the
    plans that give every layer one candidate."""
    return float(np.median([sum(values[(l, c)] for l in table.layers) for c in table.candidates]))


# ---------------------------------------------------------------------------
# scalar pieces


def test_kl_divergence_hand_value():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert search.kl_divergence(p, q) == pytest.approx(np.log(2.0), abs=1e-6)


def test_kl_divergence_zero_on_identical(rng):
    p = rng.uniform(0.1, 1, size=8)
    p /= p.sum()
    assert search.kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


def test_kl_divergence_matches_oracle(rng):
    for _ in range(50):
        p = rng.uniform(0, 1, size=6)
        p /= p.sum()
        q = rng.uniform(0, 1, size=6)
        q /= q.sum()
        assert search.kl_divergence(p, q) == pytest.approx(
            oracles.kl_scalar(p, q), abs=1e-9
        )


def test_energy_hand_value():
    stats = engine.RunStats(
        total_spikes=1_000_000,
        layer_spikes={1: 1_000_000},
        layer_synops={1: 2_000_000},
    )
    em = search.EnergyModel(mu=1e-12, mode="spike_count")
    # 1e6 spikes in a 1 ms window at 1 pJ each -> 1 mW... expressed in W
    assert search.energy_of(stats, em) == pytest.approx(1e-3)
    em2 = search.EnergyModel(mu=1e-12, mode="synop")
    assert search.energy_of(stats, em2) == pytest.approx(2e-3)


def test_energy_model_rejects_unknown_mode():
    stats = engine.RunStats(total_spikes=1, layer_spikes={}, layer_synops={})
    with pytest.raises(ValueError):
        search.energy_of(stats, search.EnergyModel(mode="watts"))


# ---------------------------------------------------------------------------
# plan search against the brute-force references


def test_plan_search_worked_example():
    # two layers, two candidates; cheap plan violates the cap, dear plan fits
    s = {(0, 1): 1.0, (0, 2): 0.2, (2, 1): 0.5, (2, 2): 0.1}
    e = {(0, 1): 1.0, (0, 2): 2.0, (2, 1): 1.0, (2, 2): 3.0}
    table = make_table([0, 2], [1, 2], s, e)
    plan = search.pareto_search(table, search.SearchBudget("energy_cap", 3.0))
    assert plan.feasible
    assert plan.e_sum <= 3.0 + 1e-12
    # best feasible: layer0->2 (S .2, E 2) + layer2->1 (S .5, E 1) = S .7, E 3
    assert plan.choice == {0: 2, 2: 1}
    assert plan.s_sum == pytest.approx(0.7)


def test_plan_search_infeasible_budget_returns_cheapest():
    s = {(0, 1): 1.0, (0, 2): 0.2}
    e = {(0, 1): 1.0, (0, 2): 2.0}
    table = make_table([0], [1, 2], s, e)
    plan = search.pareto_search(table, search.SearchBudget("energy_cap", 0.5))
    assert not plan.feasible
    assert plan.choice == {0: 1}  # cheapest energy even though infeasible


def test_plan_search_sensitivity_cap_direction():
    s = {(0, 1): 0.1, (0, 2): 0.9}
    e = {(0, 1): 5.0, (0, 2): 1.0}
    table = make_table([0], [1, 2], s, e, kind="rho")
    plan = search.pareto_search(table, search.SearchBudget("sensitivity_cap", 0.5))
    assert plan.feasible
    assert plan.choice == {0: 1}  # only candidate under the sensitivity cap
    loose = search.pareto_search(table, search.SearchBudget("sensitivity_cap", 2.0))
    assert loose.choice == {0: 2}  # now the cheap one is allowed


def test_auto_matches_exhaustive_on_many_tables(rng):
    """The default method solves every instance exactly, per brute force."""
    for trial in range(50):
        n_layers = int(rng.integers(1, 4))
        n_cands = int(rng.integers(2, 5))
        kind = "phi" if trial % 2 == 0 else "rho"
        budget_kind = "energy_cap" if kind == "phi" else "sensitivity_cap"
        table = random_table(rng, n_layers, n_cands, kind)
        sums = [
            sum(table.e[(l, c)] for l in table.layers)
            for c in table.candidates
        ] if budget_kind == "energy_cap" else [
            sum(table.s[(l, c)] for l in table.layers)
            for c in table.candidates
        ]
        cap = float(rng.uniform(min(sums) * 0.8, max(sums) * 1.2))
        budget = search.SearchBudget(budget_kind, cap)
        fast = search.pareto_search(table, budget)
        (choice, s_sum, e_sum), feasible = oracles.best_plan_under_cap(
            table.layers, table.candidates, table.s, table.e, budget_kind, cap
        )
        assert fast.feasible == feasible
        if feasible:
            if budget_kind == "energy_cap":
                assert fast.s_sum == pytest.approx(s_sum, abs=1e-9)
                assert fast.e_sum <= cap + 1e-9
            else:
                assert fast.e_sum == pytest.approx(e_sum, abs=1e-9)
                assert fast.s_sum <= cap + 1e-9


def test_exhaustive_matches_loop_oracle(rng):
    for _ in range(20):
        table = random_table(rng, 2, 3)
        cap = float(rng.uniform(1.0, 5.0))
        plan = search.pareto_search(table, search.SearchBudget("energy_cap", cap))
        (choice, s_sum, e_sum), feasible = oracles.best_plan_under_cap(
            table.layers, table.candidates, table.s, table.e, "energy_cap", cap
        )
        assert plan.feasible == feasible
        if feasible:
            assert plan.s_sum == pytest.approx(s_sum, abs=1e-9)


def test_auto_method_picks_exhaustive_for_small_problems(rng):
    table = random_table(rng, 2, 3)
    budget = search.SearchBudget("energy_cap", 100.0)
    plan = search.pareto_search(table, budget)
    assert plan.choice == _pareto_reference(table, budget)[0]


def test_frontier_is_mutually_nondominated(rng):
    for _ in range(10):
        table = random_table(rng, 3, 4)
        plan = search.pareto_search(table, search.SearchBudget("energy_cap", 5.0))
        pts = plan.frontier
        for i, (s1, e1) in enumerate(pts):
            for j, (s2, e2) in enumerate(pts):
                if i == j:
                    continue
                dominates = s1 <= s2 and e1 <= e2 and (s1 < s2 or e1 < e2)
                assert not dominates, f"{(s1, e1)} dominates {(s2, e2)}"


def test_plan_sums_are_exact_table_sums(rng):
    table = random_table(rng, 3, 3)
    plan = search.pareto_search(table, search.SearchBudget("energy_cap", 4.0))
    s = sum(table.s[(l, plan.choice[l])] for l in table.layers)
    e = sum(table.e[(l, plan.choice[l])] for l in table.layers)
    assert plan.s_sum == s and plan.e_sum == e


def test_tie_breaks_toward_lower_energy():
    s = {(0, 1): 0.5, (0, 2): 0.5}
    e = {(0, 1): 2.0, (0, 2): 1.0}
    table = make_table([0], [1, 2], s, e)
    plan = search.pareto_search(table, search.SearchBudget("energy_cap", 10.0))
    assert plan.choice == {0: 2}


# ---------------------------------------------------------------------------
# applying plans


def test_apply_phi_plan_touches_only_phi():
    configs = [engine.LayerSnnConfig(v_th=1.5, rho=2, phi=1)]
    table = make_table([1], [1, 3], {(1, 1): 0.0, (1, 3): 0.0}, {(1, 1): 1.0, (1, 3): 1.0})
    plan = search.LayerPlan(
        kind="phi", layers=[1], choice={1: 3}, s_sum=0.0, e_sum=1.0,
        feasible=True, budget=search.SearchBudget("energy_cap", 2.0), frontier=[],
    )
    out = search.apply_plan(configs, plan)
    assert out[0].phi == 3 and out[0].rho == 2 and out[0].v_th == 1.5


def test_apply_rho_plan_touches_only_rho():
    configs = [engine.LayerSnnConfig(v_th=1.5, rho=1, phi=4)]
    plan = search.LayerPlan(
        kind="rho", layers=[1], choice={1: 2}, s_sum=0.0, e_sum=1.0,
        feasible=True, budget=search.SearchBudget("sensitivity_cap", 2.0), frontier=[],
    )
    out = search.apply_plan(configs, plan)
    assert out[0].rho == 2 and out[0].phi == 4 and out[0].v_th == 1.5


def test_apply_plan_checks_layer_agreement():
    configs = [engine.LayerSnnConfig(v_th=1.0)]
    plan = search.LayerPlan(
        kind="phi", layers=[1, 3], choice={1: 2, 3: 2}, s_sum=0.0, e_sum=0.0,
        feasible=True, budget=search.SearchBudget("energy_cap", 1.0), frontier=[],
    )
    with pytest.raises(ValueError):
        search.apply_plan(configs, plan)


# ---------------------------------------------------------------------------
# persistence


def test_table_csv_round_trip(tmp_path, rng):
    """One row per (layer, candidate) in product order; S and E read back exactly."""
    table = random_table(rng, 2, 3)
    path = tmp_path / "table.csv"
    search.table_to_csv(table, path)
    header, *rows = path.read_text().splitlines()
    assert header == "layer,candidate,kind,S,E,N"
    pairs = list(itertools.product(table.layers, table.candidates))
    assert len(rows) == len(pairs)
    for (layer, cand), row in zip(pairs, rows):
        got_layer, got_cand, kind, s_val, e_val, n = row.split(",")
        assert (int(got_layer), int(got_cand)) == (layer, cand)
        assert float(s_val) == table.s[(layer, cand)]
        assert float(e_val) == table.e[(layer, cand)]
        assert kind == table.kind and int(n) == table.sample_count


def test_plan_file_round_trip(tmp_path, rng):
    table = random_table(rng, 2, 3)
    plan = search.pareto_search(table, search.SearchBudget("energy_cap", 3.0))
    path = tmp_path / "plan.txt"
    search.save_plan(plan, path)
    back = search.load_plan(path)
    assert back.kind == plan.kind
    assert back.choice == plan.choice
    assert back.feasible == plan.feasible
    assert back.s_sum == plan.s_sum and back.e_sum == plan.e_sum
    assert sorted(back.frontier) == sorted(plan.frontier)
    assert back.budget.kind == plan.budget.kind and back.budget.cap == plan.budget.cap


# ---------------------------------------------------------------------------
# measured sensitivities on a live model


@pytest.fixture(scope="module")
def measured(trained_mlp, calibration):
    fits = calibrate.fit_all_thresholds(trained_mlp, calibration, timesteps=8)
    configs = calibrate.configs_from_fits(fits)
    model, _ = calibrate.calibrate_biases(trained_mlp, configs, calibration, timesteps=8)
    return model, configs


def test_build_table_is_complete_and_deterministic(measured, calibration):
    model, configs = measured
    em = search.EnergyModel()
    a = search.build_table(
        model, configs, calibration, 8, "phi", candidates=[1, 2], energy=em
    )
    b = search.build_table(
        model, configs, calibration, 8, "phi", candidates=[1, 2], energy=em
    )
    assert a.layers == engine.spiking_layer_indices(model)
    for layer in a.layers:
        for cand in (1, 2):
            assert (layer, cand) in a.s
            assert a.s[(layer, cand)] == b.s[(layer, cand)]
            assert a.e[(layer, cand)] >= 0.0


def test_sensitivity_falls_as_burst_cap_rises(measured, calibration):
    """At a short horizon, letting a layer burst can only help its fidelity."""
    model, configs = measured
    em = search.EnergyModel()
    table = search.build_table(
        model, configs, calibration, 4, "phi", candidates=[1, 2, 4], energy=em
    )
    for layer in table.layers:
        s1 = table.s[(layer, 1)]
        s4 = table.s[(layer, 4)]
        assert s4 <= s1 + 1e-6


def test_energy_rises_with_burst_cap(measured, calibration):
    model, configs = measured
    em = search.EnergyModel()
    table = search.build_table(
        model, configs, calibration, 4, "phi", candidates=[1, 4], energy=em
    )
    for layer in table.layers:
        assert table.e[(layer, 4)] >= table.e[(layer, 1)] - 1e-15


def test_compression_cuts_layer_energy(measured, calibration):
    model, configs = measured
    em = search.EnergyModel()
    table = search.build_table(
        model, configs, calibration, 8, "rho", candidates=[1, 2], energy=em
    )
    for layer in table.layers:
        assert table.e[(layer, 2)] <= table.e[(layer, 1)] + 1e-15


def test_early_layers_tolerate_bursts_better_than_the_head(calibration):
    """Sensitivity drop from extra burst room should rank early conv layers
    above the last hidden layer on a small image net."""
    images = store.make_synthetic("blobs", 300, seed=21, classes=3, dim=(1, 8, 8))
    model = nn.build_cnn((1, 8, 8), [3, 4], 3, seed=21)
    trained = train.train_reference(model, images, epochs=25, lr=0.05, seed=21)
    cache = store.build_calibration_cache(trained, images, 64, seed=2)
    fits = calibrate.fit_all_thresholds(trained, cache, timesteps=4)
    configs = calibrate.configs_from_fits(fits)
    snn, _ = calibrate.calibrate_biases(trained, configs, cache, timesteps=4)
    table = search.build_table(
        snn, configs, cache, 4, "phi", candidates=[1, 4], energy=search.EnergyModel()
    )
    drops = {l: table.s[(l, 1)] - table.s[(l, 4)] for l in table.layers}
    first, last = table.layers[0], table.layers[-1]
    assert drops[first] >= 0.0
    assert drops[last] >= 0.0


# ---------------------------------------------------------------------------
# fast paths against their slow references


def layer_sensitivity(model, configs, layer, candidate, kind, cache, timesteps, energy, *,
                      membrane_init):
    """(S, E) for one layer trying one candidate, others at baseline.

    Simulates the whole net from its input, sharing nothing with other
    pairs; it is the reference ``build_table`` matches bit for bit.
    """
    target = search._check_sensitivity_inputs(model, cache)
    pos = engine.spiking_layer_indices(model).index(layer)
    trial = search._with_candidate(configs, pos, kind, candidate)
    run = engine.run_snn(model, trial, cache.inputs, timesteps, membrane_init=membrane_init)
    return search._measure(
        model, layer, target, run.scores, run.stats.layer_spikes[layer], energy,
        cache.sample_count,
    )


def _table_equal_to_reference(model, cache, configs, timesteps, kind, candidates, em, init=0.5):
    """``build_table``'s table, each entry checked against ``layer_sensitivity``."""
    table = search.build_table(
        model, configs, cache, timesteps, kind, candidates, em, membrane_init=init
    )
    for layer in table.layers:
        for cand in candidates:
            want = layer_sensitivity(
                model, configs, layer, cand, kind, cache, timesteps, em, membrane_init=init,
            )
            assert (table.s[(layer, cand)], table.e[(layer, cand)]) == want
    return table


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
@pytest.mark.parametrize("timesteps", [1, 3, 8])
def test_build_table_equals_layer_sensitivity(random_net, arch, timesteps):
    """The prefix-sharing table gives each pair's full-run (S, E) bit for bit,
    with the baseline value in the candidate set or not."""
    for seed in range(3):
        model, cache, configs = random_net(arch, 10 * timesteps + seed)
        em = search.EnergyModel(mode="synop" if seed % 2 else "spike_count")
        init = 0.0 if seed == 2 else 0.5
        # baseline phi is 1..3 and rho 1..2: the first set of each holds it
        for kind, candidates in (("phi", [1, 2, 3]), ("phi", [4, 5]), ("rho", [1, 2]), ("rho", [3])):
            _table_equal_to_reference(model, cache, configs, timesteps, kind, candidates, em, init)


@pytest.fixture()
def downstream_starts(monkeypatch):
    """The start layer of every downstream run ``build_table`` makes: an
    MLP's through ``_trial``, on either lane, a CNN's through ``_simulate``."""
    starts = []

    def spied(real):
        def spy(plan, start, *args, **kwargs):
            starts.append(start)
            return real(plan, start, *args, **kwargs)
        return spy

    for name in ("_trial", "_simulate"):
        monkeypatch.setattr(search, name, spied(getattr(search, name)))
    return starts


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_build_table_simulates_equal_trains_downstream_once(random_net, arch, downstream_starts):
    """Burst caps far above any neuron's need (baseline phi is 1..3) give
    equal layer-p trains, which share one downstream run per layer."""
    for seed in range(4):
        model, cache, configs = random_net(arch, seed)
        em = search.EnergyModel(mode="synop" if seed % 2 else "spike_count")
        downstream_starts.clear()
        table = _table_equal_to_reference(model, cache, configs, 8, "phi", [100, 200, 300], em)
        assert len(downstream_starts) <= len(table.layers) < 3 * len(table.layers)


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_build_table_simulates_each_distinct_train_downstream(random_net, arch, downstream_starts):
    """Compression ratios off the baseline (1..2) never share a threshold, so
    each non-baseline candidate gets its own downstream run."""
    for seed in range(4):
        model, cache, configs = random_net(arch, seed)
        em = search.EnergyModel(mode="synop" if seed % 2 else "spike_count")
        downstream_starts.clear()
        table = _table_equal_to_reference(model, cache, configs, 8, "rho", [3, 4], em)
        assert sorted(downstream_starts) == sorted(2 * [layer + 1 for layer in table.layers])


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_build_table_groups_by_threshold_and_count_values(random_net, arch, downstream_starts):
    """phi 255 and 256 store counts as uint8 and uint16, but equal values
    share a run. A silent layer's zero trains under two compression ratios
    differ in threshold and are simulated apart; under two burst caps they
    equal the trunk's and take its scores."""
    for seed in range(2):
        model, cache, configs = random_net(arch, seed)
        em = search.EnergyModel(mode="synop" if seed % 2 else "spike_count")
        downstream_starts.clear()
        table = _table_equal_to_reference(model, cache, configs, 4, "phi", [255, 256], em)
        assert len(set(downstream_starts)) == len(downstream_starts) <= len(table.layers)
        silent = table.layers[0]
        model.layers[silent - 1].bias[:] = -1e6
        downstream_starts.clear()
        _table_equal_to_reference(model, cache, configs, 4, "rho", [3, 4], em)
        assert downstream_starts.count(silent + 1) == 2
        downstream_starts.clear()
        _table_equal_to_reference(model, cache, configs, 4, "phi", [255, 256], em)
        assert silent + 1 not in downstream_starts


# ---------------------------------------------------------------------------
# the trials' two lanes


def test_lanes_under_constant_thread_switching_equal_layer_sensitivity(random_net):
    """Mixed widths, trials shared by both lanes while the interpreter
    switches threads every microsecond: every pair still equals its
    whole-net run bit for bit, and no thread outlives ``build_table``."""
    threads, interval = threading.enumerate(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            model, cache, configs = random_net("mlp", seed, n=12, widths=[16, 40, 8])
            em = search.EnergyModel(mode="synop" if seed % 2 else "spike_count")
            for kind, candidates in (("rho", [3, 4, 5]), ("phi", [1, 2, 3, 4])):
                _table_equal_to_reference(model, cache, configs, 5, kind, candidates, em)
    finally:
        sys.setswitchinterval(interval)
    assert threading.enumerate() == threads


def test_layers_with_one_or_no_distinct_trial(random_net, downstream_starts):
    """A candidate set of the baseline alone makes no downstream run, and
    one more ratio makes one per layer; both tables equal the reference."""
    model, cache, configs = random_net("mlp", 4, n=10, widths=[16, 40, 8])
    configs = [dataclasses.replace(c, rho=1) for c in configs]
    threads, em = threading.enumerate(), search.EnergyModel()
    table = _table_equal_to_reference(model, cache, configs, 4, "rho", [1], em)
    assert downstream_starts == []
    _table_equal_to_reference(model, cache, configs, 4, "rho", [3, 1], em)
    assert downstream_starts == [layer + 1 for layer in table.layers]
    assert threading.enumerate() == threads


@pytest.fixture(scope="module")
def wide_net():
    """An untrained 8x128 MLP with fitted thresholds and 512 calibration
    inputs, for T = 8: products large enough for BLAS to thread them."""
    model = nn.build_mlp(64, [128] * 8, 10, seed=0)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((512, 64)).astype(np.float32)
    data = store.DatasetHandle(images=images, labels=rng.integers(0, 10, size=512))
    cache = store.build_calibration_cache(model, data, 512, seed=0)
    configs = calibrate.configs_from_fits(calibrate.fit_all_thresholds(model, cache, 8))
    return model, cache, configs


def test_wide_net_lanes_equal_layer_sensitivity(wide_net):
    """Under the default BLAS thread count, two lanes calling the same
    products at once still give every pair's whole-net (S, E) bit for bit."""
    model, cache, configs = wide_net
    threads = threading.enumerate()
    _table_equal_to_reference(model, cache, configs, 8, "rho", [1, 2, 4], search.EnergyModel())
    assert threading.enumerate() == threads


# tracemalloc peaks of the serial table on ``wide_net`` (candidates as the
# CLI's defaults), before the trials ran on two lanes
_SERIAL_PEAK = {"phi": 18_441_438, "rho": 17_582_484}


@pytest.mark.parametrize("kind, candidates", [("phi", [1, 2, 3, 4]), ("rho", [1, 2, 4])])
def test_two_lanes_hold_no_more_than_the_serial_table(wide_net, kind, candidates):
    """Dropping the feeder currents before the downstream runs pays for the
    second lane's workspace."""
    model, cache, configs = wide_net
    tracemalloc.start()
    try:
        search.build_table(model, configs, cache, 8, kind, candidates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _SERIAL_PEAK[kind], peak


def test_trial_loop_allocates_nothing_in_a_prepared_workspace(wide_net):
    """A downstream run through dense feeders writes ``_simulate``'s last
    scores into its slot bit for bit, allocating under 4 KiB."""
    model, cache, configs = wide_net
    run = engine.run_snn(model, configs, cache.inputs, 8, record_trains=True)
    plan = engine._prepare(model, configs)
    layers = engine.spiking_layer_indices(model)
    ws = search._Workspace.of([512 * 128] * 9 + [512 * 10], 8, np.uint8)
    out = np.empty((512, 10))
    for layer in layers:
        want = engine._simulate(plan, layer + 1, run.trains[layer], 8, 0.5)[0][-1]
        search._trial(plan, layer + 1, run.trains[layer], out, ws, 0.5)
        assert out.tobytes() == want.tobytes(), layer
    tracemalloc.start()
    try:
        search._trial(plan, layers[0] + 1, run.trains[layers[0]], out, ws, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak


def _fail_on_the_helper(monkeypatch):
    """Make the first trial the helper takes raise ``MemoryError``, with
    the calling thread's first trial held until the helper has taken one."""
    trial, taken = search._trial, threading.Event()

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            taken.set()
            raise MemoryError("Unable to allocate 8.00 EiB for an array")
        assert taken.wait(10)
        return trial(*args)

    monkeypatch.setattr(search, "_trial", failing)


def test_an_error_on_the_helper_comes_out_of_build_table(random_net, monkeypatch):
    model, cache, configs = random_net("mlp", 1, n=8, widths=[16, 40, 8])
    _fail_on_the_helper(monkeypatch)
    threads = threading.enumerate()
    with pytest.raises(MemoryError, match="8.00 EiB"):
        search.build_table(model, configs, cache, 3, "rho", [3, 4])
    assert threading.enumerate() == threads


@pytest.fixture(scope="module")
def searched_run(tmp_path_factory):
    """A converted 8-6-5-4 MLP and its config, burst plan searched."""
    tmp_path = tmp_path_factory.mktemp("search-run")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "out_dir": str(tmp_path / "run"), "timesteps": 3, "calib_samples": 16,
        "dataset": {"kind": "blobs", "n": 40, "eval_n": 20, "dim": [8], "classes": 3},
        "model": {"hidden": [6, 5, 4]}, "train": {"epochs": 1},
    }))
    for stage in ("train", "convert", "search-phi"):
        assert cli.main([stage, "--config", str(config)]) == 0
    return str(config)


def test_search_stages_call_every_public_function_on_the_main_thread(searched_run, thread_log,
                                                                     monkeypatch):
    """The trials' helper runs only ``_trial``: every public ``engine``,
    ``nn`` and ``search`` function that ``search-phi`` and ``search-rho``
    call runs on the main thread, and the helper takes trials."""
    calls = thread_log((engine, nn, search), [search._trial])
    trial, helped = search._trial, threading.Event()

    def waiting(*args):  # the main thread waits for the first helper to take a trial
        if threading.current_thread() is not threading.main_thread():
            helped.set()
        elif any(t.name == "spikecal-trials" for t in threading.enumerate()):
            assert helped.wait(10)
        return trial(*args)

    monkeypatch.setattr(search, "_trial", waiting)
    for stage in ("search-phi", "search-rho"):
        assert cli.main([stage, "--config", searched_run]) == 0
    main = threading.get_ident()
    public = {name for name, _ in calls if name != "search._trial"}
    assert {"search.build_table", "search.pareto_search", "engine.run_snn",
            "nn.apply_layer"} <= public
    assert all(ident == main for name, ident in calls if name != "search._trial"), calls
    assert helped.is_set()
    assert {ident for name, ident in calls if name == "search._trial"} - {main}


def test_search_stage_labels_an_error_on_the_helper(searched_run, capsys, monkeypatch):
    _fail_on_the_helper(monkeypatch)
    threads = threading.enumerate()
    capsys.readouterr()
    assert cli.main(["search-rho", "--config", searched_run]) == 1
    assert threading.enumerate() == threads
    err = capsys.readouterr().err
    assert err.startswith("error: [sensitivity-table] out of memory (Unable to allocate 8.00 EiB"), err


@pytest.mark.parametrize("candidates, message", [
    ([], "candidate set is empty"),
    ([2, 1, 2], "candidate 2 appears more than once"),
])
def test_build_table_rejects_empty_or_repeated_candidates(random_net, candidates, message):
    model, cache, configs = random_net("mlp", 0)
    with pytest.raises(ValueError, match=message):
        search.build_table(model, configs, cache, 3, "phi", candidates)


def _pareto_reference(table, budget):
    """Exhaustive search as a loop over dict plans: Python sums, the first
    strict minimum wins, frontier from the sorted set of points."""
    minimize_s = budget.kind == "energy_cap"
    best = cheapest = None
    points = []
    for combo in itertools.product(table.candidates, repeat=len(table.layers)):
        choice = dict(zip(table.layers, combo))
        s = float(sum(table.s[(i, choice[i])] for i in table.layers))
        e = float(sum(table.e[(i, choice[i])] for i in table.layers))
        points.append((s, e))
        objective, constrained = (s, e) if minimize_s else (e, s)
        if cheapest is None or (constrained, objective) < cheapest[0]:
            cheapest = ((constrained, objective), choice, s, e)
        if constrained <= budget.cap and (best is None or (objective, constrained) < best[0]):
            best = ((objective, constrained), choice, s, e)
    frontier, lowest = [], np.inf
    for s, e in sorted(set(points)):
        if e < lowest:
            frontier.append((s, e))
            lowest = e
    _, choice, s, e = best if best is not None else cheapest
    return choice, s, e, best is not None, frontier


def test_exhaustive_search_equals_dict_loop(rng):
    """The search picks the same plan, sums, feasibility and
    frontier as a plain loop, ties included (values on a coarse grid)."""
    for trial in range(40):
        table = random_table(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        for layer, cand in table.s:
            table.s[(layer, cand)] = float(rng.integers(0, 4)) * 0.1
            table.e[(layer, cand)] = float(rng.integers(1, 4)) * 0.3
        kind = "energy_cap" if trial % 2 else "sensitivity_cap"
        for cap in (0.0, float(rng.uniform(0.0, 3.0)), np.inf):
            budget = search.SearchBudget(kind, cap)
            plan = search.pareto_search(table, budget)
            choice, s, e, feasible, frontier = _pareto_reference(table, budget)
            assert plan.choice == choice and plan.feasible == feasible
            assert (plan.s_sum, plan.e_sum) == (s, e)
            assert plan.frontier == frontier
            assert all(type(v) is float for v in (plan.s_sum, plan.e_sum, *sum(plan.frontier, ())))


def _same_as_reference(table, budget):
    """The search's plan, sums, feasibility and frontier equal ``_pareto_reference``'s."""
    plan = search.pareto_search(table, budget)
    want = _pareto_reference(table, budget)
    assert (plan.choice, plan.s_sum, plan.e_sum, plan.feasible, plan.frontier) == want
    return plan


@pytest.mark.parametrize("n_layers, n_cands", [(9, 4), (4, 5)])
def test_search_is_exact_past_eight_layers_or_four_candidates(n_layers, n_cands):
    """Seeded tables on which a sweep, which reaches only plans on the lower
    convex hull, returns a plan of higher S than brute force under the cap."""
    table = monotone_table(np.random.default_rng(0), n_layers, n_cands)
    cap = median_uniform_sum(table, table.e)
    plan = search.pareto_search(table, search.SearchBudget("energy_cap", cap))
    (choice, s_sum, e_sum), feasible = oracles.best_plan_under_cap(
        table.layers, table.candidates, table.s, table.e, "energy_cap", cap
    )
    assert plan.feasible and feasible
    assert (plan.choice, plan.s_sum, plan.e_sum) == (choice, s_sum, e_sum)


def test_search_keeps_the_first_of_plans_tied_by_rounding():
    """Over layers 0-2, prefix (1, 1, 2) sums to (0.4, 1.8) and the later
    prefix (2, 1, 1) to (0.4, 1.7999999999999998); with layer 3 at candidate 2
    both round to (0.5, 2.4). Dropping the first prefix because the second
    dominates it would send the tie to the later plan; scoring every plan
    picks the first."""
    s = {(0, 1): 0.0, (0, 2): 0.30000000000000004, (1, 1): 0.1, (1, 2): 0.2,
         (2, 1): 0.0, (2, 2): 0.30000000000000004, (3, 1): 0.30000000000000004, (3, 2): 0.1}
    e = {(0, 1): 0.6, (0, 2): 0.3, (1, 1): 0.8999999999999999, (1, 2): 0.8999999999999999,
         (2, 1): 0.6, (2, 2): 0.3, (3, 1): 0.8999999999999999, (3, 2): 0.6}
    table = make_table([0, 1, 2, 3], [1, 2], s, e)
    plan = _same_as_reference(table, search.SearchBudget("energy_cap", 2.5284667736021755))
    assert plan.choice == {0: 1, 1: 1, 2: 2, 3: 2}
    assert (plan.s_sum, plan.e_sum, plan.feasible) == (0.5, 2.4, True)


def test_search_equals_brute_force_fuzz():
    """Seeded fuzz of the search against both references (budget about 5 s).

    Tables of 0-5 layers and 1-4 candidates, half with values on a coarse
    grid, where rounding turns prefix dominance into ties; caps of 0, a
    random value and inf under both budget kinds; every result equal to
    ``_pareto_reference`` bit for bit. Then sizes past 8 layers (9 x 3 and
    10 x 2) against ``oracles.best_plan_under_cap`` as well.
    """
    rng = np.random.default_rng(16)
    for trial in range(300):
        table = random_table(rng, int(rng.integers(0, 6)), int(rng.integers(1, 5)))
        if trial % 2:
            for key in table.s:
                table.s[key] = float(rng.integers(0, 4)) * 0.1
                table.e[key] = float(rng.integers(1, 4)) * 0.3
        for kind in ("energy_cap", "sensitivity_cap"):
            for cap in (0.0, float(rng.uniform(0.0, 2.0 * len(table.layers))), np.inf):
                _same_as_reference(table, search.SearchBudget(kind, cap))
    for n_layers, n_cands in ((9, 3), (10, 2)):
        for seed in range(2):
            table = monotone_table(np.random.default_rng(seed), n_layers, n_cands)
            for kind, cap in (("energy_cap", median_uniform_sum(table, table.e)),
                              ("sensitivity_cap", median_uniform_sum(table, table.s))):
                plan = _same_as_reference(table, search.SearchBudget(kind, cap))
                (choice, s_sum, e_sum), feasible = oracles.best_plan_under_cap(
                    table.layers, table.candidates, table.s, table.e, kind, cap
                )
                assert (plan.choice, plan.s_sum, plan.e_sum, plan.feasible) == (
                    choice, s_sum, e_sum, feasible
                )


def test_search_at_the_cap_boundaries():
    """A cap equal to a frontier point's E (energy cap) or S (sensitivity
    cap) admits that point, and it is the pick; caps of 0 and inf too. Every
    result equals ``_pareto_reference`` bit for bit and, on tables off the
    coarse grid, ``oracles.best_plan_under_cap``."""
    rng = np.random.default_rng(20)
    for trial in range(40):
        table = random_table(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        if trial % 2:
            for key in table.s:
                table.s[key] = float(rng.integers(0, 4)) * 0.1
                table.e[key] = float(rng.integers(0, 4)) * 0.3
        frontier = _pareto_reference(table, search.SearchBudget("energy_cap", np.inf))[4]
        for kind, axis in (("energy_cap", 1), ("sensitivity_cap", 0)):
            for cap in (0.0, np.inf):
                _same_as_reference(table, search.SearchBudget(kind, cap))
            for point in frontier:
                plan = _same_as_reference(table, search.SearchBudget(kind, point[axis]))
                assert plan.feasible and (plan.s_sum, plan.e_sum) == point
                if trial % 2 == 0:
                    (choice, s_sum, e_sum), feasible = oracles.best_plan_under_cap(
                        table.layers, table.candidates, table.s, table.e, kind, point[axis]
                    )
                    assert (plan.choice, plan.s_sum, plan.e_sum, plan.feasible) == (
                        choice, s_sum, e_sum, feasible
                    )


@pytest.mark.parametrize("kind", ["energy_cap", "sensitivity_cap"])
@pytest.mark.parametrize("cap", [0.0, 1.0, np.inf])
def test_search_over_no_layers_is_the_empty_plan(kind, cap):
    table = make_table([], [1, 2], {}, {})
    plan = _same_as_reference(table, search.SearchBudget(kind, cap))
    assert plan.choice == {} and plan.feasible
    assert plan.frontier == [(0.0, 0.0)]
