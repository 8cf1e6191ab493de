"""End-to-end acceptance gate.

Each test covers one numbered claim about the toolkit, prints a single
``ACCEPTANCE <n> <PASS|FAIL> <label>`` line (run with ``pytest -s`` to watch
them stream), and enforces its own runtime ceiling. The heavyweight claims
share one module-scoped pipeline fixture: well-separated 784-dimensional
blobs, an MLP trained past 99%, converted at T=4 where plain one-spike
neurons visibly degrade.
"""

import json
import os
import time

import numpy as np
import pytest

import oracles
from spikecal import calibrate, cli, early_exit, engine, nn, search, store, train
from spikecal.calibrate import clip_floor

SEED = 13
TIMESTEPS = 4
T_MAX = 8

# The documented default sweep of exit parameters: alpha_base trades latency
# against accuracy, beta adds the entropy-aware bump, delta is left at the
# scale of typical entropy gaps (nats).
DEFAULT_EXIT_GRID = tuple(
    (alpha_base, beta, 1.0)
    for alpha_base in (0.5, 0.6, 0.7, 0.8)
    for beta in (0.0, 0.1, 0.2)
)


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {status} {label}{suffix}")
    assert ok, f"acceptance {number} failed: {label}{suffix}"


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


@pytest.fixture(scope="module")
def pipeline():
    """Train, convert, and search once; criteria 6-9 read from this."""
    dataset = store.make_synthetic(
        "blobs", 2000, seed=SEED, classes=10, dim=784, separation=8.0
    )
    eval_set = store.make_synthetic(
        "blobs", 1000, seed=SEED + 1, classes=10, dim=784,
        separation=8.0, structure_seed=SEED,
    )
    model = nn.build_mlp(784, [256, 128], 10, seed=SEED)
    ann = train.train_reference(model, dataset, epochs=10, lr=0.05, seed=SEED)
    ann_acc = train.accuracy(ann, eval_set.images, eval_set.labels)
    assert ann_acc >= 0.99, f"fixture ANN accuracy {ann_acc}"

    cache = store.build_calibration_cache(ann, dataset, 256, seed=5)
    fits = calibrate.fit_all_thresholds(ann, cache, TIMESTEPS)
    base_configs = calibrate.configs_from_fits(fits)
    snn, _ = calibrate.calibrate_biases(ann, base_configs, cache, TIMESTEPS)
    energy_model = search.EnergyModel()

    # burst budget: the measured energy of running every layer at phi=2
    uniform2 = [engine.LayerSnnConfig(v_th=c.v_th, phi=2) for c in base_configs]
    budget_run = engine.run_snn(snn, uniform2, cache.inputs, TIMESTEPS)
    cap = search.energy_of(budget_run.stats, energy_model) / cache.sample_count
    phi_table = search.build_table(
        snn, base_configs, cache, TIMESTEPS, "phi",
        candidates=[1, 2, 3, 4], energy=energy_model,
    )
    phi_plan = search.pareto_search(phi_table, search.SearchBudget("energy_cap", cap))
    phi_configs = search.apply_plan(base_configs, phi_plan)

    rho_table = search.build_table(
        snn, phi_configs, cache, TIMESTEPS, "rho",
        candidates=[1, 2, 4], energy=energy_model,
    )
    s_cap = 2.0 * sum(rho_table.s[(layer, 1)] for layer in rho_table.layers)
    rho_plan = search.pareto_search(
        rho_table, search.SearchBudget("sensitivity_cap", s_cap)
    )
    full_configs = search.apply_plan(phi_configs, rho_plan)

    def evaluate(configs, timesteps):
        run = engine.run_snn(snn, configs, eval_set.images, timesteps)
        acc = float(np.mean(np.argmax(run.scores, axis=1) == eval_set.labels))
        energy = search.energy_of(run.stats, energy_model) / len(eval_set)
        return acc, run.stats.total_spikes, energy

    return {
        "dataset": dataset,
        "eval_set": eval_set,
        "snn": snn,
        "cache": cache,
        "base_configs": base_configs,
        "phi_plan": phi_plan,
        "phi_configs": phi_configs,
        "rho_plan": rho_plan,
        "full_configs": full_configs,
        "energy_model": energy_model,
        "evaluate": evaluate,
    }


# ---------------------------------------------------------------------------


def test_criterion_1_worked_burst_example():
    """The three-charge, three-step neuron: cap 1 strands one quantum."""
    with Timer() as t:
        charges = [1.5, 1.5, 1.0]
        e1, v1 = oracles.if_neuron_trace(charges, v_th=1.0, phi=1)
        got1 = _trace(charges, phi=1)
        got2 = _trace(charges, phi=2)
    ok = (
        got1 == (3.0, 1.0)
        and got2 == (4.0, 0.0)
        and (sum(e1), v1) == got1
        and t.elapsed < 1.0
    )
    report(1, "bounded burst on the worked three-step example", ok,
           f"phi=1 {got1}, phi=2 {got2}, {t.elapsed:.3f}s")


def _trace(charges, phi):
    cfg = engine.LayerSnnConfig(v_th=1.0, phi=phi)
    state = engine.NeuronState(v=np.zeros(1))
    total = 0.0
    for c in charges:
        state, emitted = engine.step_layer(state, np.array([c]), cfg)
        total += float(emitted[0])
    return total, float(state.v[0])


def test_criterion_2_formula_unit_suite():
    with Timer() as t:
        checks = []
        # quantize-and-clip transfer
        checks.append(abs(float(clip_floor(np.array(1.3), 4, 2.0, 1)) - 1.0) < 1e-6)
        checks.append(abs(float(clip_floor(np.array(3.0), 2, 1.0, 2)) - 2.0) < 1e-6)
        # energy: 1e6 unit spikes at 1 pJ in the 1 ms window -> 1 mW
        stats = engine.RunStats(total_spikes=10 ** 6, layer_spikes={}, layer_synops={})
        e = search.energy_of(stats, search.EnergyModel(mu=1e-12))
        checks.append(abs(e - 1e-3) < 1e-6)
        # entropy (negative-sum form, so a uniform pair gives +ln 2)
        checks.append(abs(early_exit.entropy(np.array([0.5, 0.5])) - np.log(2)) < 1e-6)
        checks.append(
            abs(search.kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) - np.log(2))
            < 1e-6
        )
        # confidence at p = (0.9, 0.1) over two classes
        conf = early_exit.confidence(np.array([[np.log(9.0), 0.0]]), 2)[0]
        h = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
        checks.append(abs(conf - (1.0 - h / np.log(2))) < 1e-6)
        # boundary schedule: a gap of exactly delta decays the bump by 1/e
        policy = early_exit.ExitPolicy(
            alpha_base=0.7, beta=0.2, delta=1.0, t_max=2,
            mean_entropy=np.array([2.0, 1.0]),
        )
        bounds = policy.boundaries()
        checks.append(abs(bounds[1] - 0.9) < 1e-6)
        checks.append(abs(bounds[0] - (0.7 + 0.2 * np.exp(-1.0))) < 1e-6)
    ok = all(checks) and t.elapsed < 1.0
    report(2, "closed-form unit values to 1e-6", ok,
           f"{sum(checks)}/{len(checks)} checks, {t.elapsed:.3f}s")


def test_criterion_3_rate_convergence():
    """Constant current + half-threshold start tracks the quantizer."""
    with Timer() as t:
        rng = np.random.default_rng(SEED)
        worst = 0.0
        ok = True
        for timesteps in (8, 64, 512):
            for _ in range(200):
                n_in = int(rng.integers(1, 9))
                n_out = int(rng.integers(1, 17))
                w = rng.standard_normal((n_out, n_in))
                x = rng.standard_normal(n_in)
                v_th = float(np.exp(rng.uniform(np.log(0.2), np.log(4.0))))
                current = w @ x
                cfg = engine.LayerSnnConfig(v_th=v_th)
                state = engine.NeuronState(v=np.full(n_out, v_th / 2.0))
                emitted = np.zeros(n_out)
                for _step in range(timesteps):
                    state, e = engine.step_layer(state, current, cfg)
                    emitted += e
                rate = emitted / timesteps
                target = clip_floor(current, timesteps, v_th, 1)
                gap = float(np.max(np.abs(rate - target)))
                worst = max(worst, gap / (v_th / timesteps))
                if gap > v_th / timesteps + 1e-9:
                    ok = False
    ok = ok and t.elapsed < 30.0
    report(3, "rate within one quantum of clip-floor across horizons", ok,
           f"worst gap {worst:.3f} quanta, {t.elapsed:.1f}s")


def test_criterion_4_charge_conservation_fuzz(injected_charge):
    with Timer() as t:
        rng = np.random.default_rng(SEED + 1)
        ok = True
        worst = 0.0
        for _ in range(200):
            dims = [int(rng.integers(3, 10)) for _ in range(int(rng.integers(1, 4)))]
            model = nn.build_mlp(int(rng.integers(3, 8)), dims, 3, seed=int(rng.integers(0, 10 ** 6)))
            configs = [
                engine.LayerSnnConfig(
                    v_th=float(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))),
                    rho=int(rng.choice([1, 1, 2])),
                    phi=int(rng.integers(1, 4)),
                )
                for _ in engine.spiking_layer_indices(model)
            ]
            batch = rng.standard_normal((int(rng.integers(1, 5)), model.input_shape[0])).astype(np.float32)
            timesteps = int(rng.integers(2, 12))
            membrane_init = float(rng.uniform(0.0, 1.0))
            run = engine.run_snn(
                model, configs, batch, timesteps=timesteps,
                membrane_init=membrane_init, record_trains=True,
            )
            charge = injected_charge(model, run, batch, timesteps)
            for pos, layer_idx in enumerate(engine.spiking_layer_indices(model)):
                train = run.trains[layer_idx]
                emitted = sum(train.amplitudes(t) for t in range(timesteps))
                v_first = membrane_init * configs[pos].threshold
                lhs = charge[layer_idx]
                rhs = emitted + run.v_last[layer_idx] - v_first
                gap = float(np.max(np.abs(lhs - rhs)))
                worst = max(worst, gap)
                if gap > 1e-4:
                    ok = False
    ok = ok and t.elapsed < 60.0
    report(4, "charge in == spikes out + membrane change (200 nets)", ok,
           f"worst gap {worst:.2e}, {t.elapsed:.1f}s")


def test_criterion_5_search_matches_oracle():
    """The plan search equals brute force on every table, optima off the
    lower convex hull included, and no plan dominates what it picks."""
    with Timer() as t:
        rng = np.random.default_rng(SEED + 2)
        ok = True
        feasible_count = hull_hits = 0
        for _ in range(50):
            n_layers = int(rng.integers(1, 4))
            n_cands = int(rng.integers(2, 5))
            layers = list(range(n_layers))
            candidates = list(range(1, n_cands + 1))
            s = {}
            e = {}
            for layer in layers:
                for cand in candidates:
                    s[(layer, cand)] = float(np.round(rng.uniform(0, 2), 6))
                    e[(layer, cand)] = float(np.round(rng.uniform(0.1, 3), 6))
            table = search.SensitivityTable(
                kind="phi", layers=layers, candidates=candidates,
                sample_count=1, s=s, e=e,
            )
            e_min = min(
                sum(e[(l, c)] for l in layers) for c in candidates
            )
            cap = float(rng.uniform(e_min * 0.9, e_min * 2.5))
            budget = search.SearchBudget("energy_cap", cap)
            fast = search.pareto_search(table, budget)
            (choice, s_opt, e_opt), feasible = oracles.best_plan_under_cap(
                layers, candidates, s, e, "energy_cap", cap
            )
            if (fast.choice, fast.s_sum, fast.e_sum, fast.feasible) != (
                choice, s_opt, e_opt, feasible
            ):
                ok = False
            if not feasible:
                continue
            feasible_count += 1
            reachable = oracles.sweep_reachable_plans(layers, candidates, s, e)
            hull_hits += any(
                abs(su - s_opt) < 1e-9 and abs(eu - e_opt) < 1e-9
                for _, su, eu in reachable
            )
            # never dominated, by any plan whatsoever
            for _, su, eu in oracles.brute_force_plans(layers, candidates, s, e):
                if su <= fast.s_sum - 1e-12 and eu <= fast.e_sum - 1e-12:
                    ok = False
    ok = ok and t.elapsed < 10.0
    report(5, "plan search equals brute force on every table", ok,
           f"{hull_hits}/{feasible_count} feasible optima hull-supported, "
           f"{feasible_count - hull_hits} off the hull, {t.elapsed:.1f}s")


def test_criterion_6_burst_search_pays_off(pipeline):
    with Timer() as t:
        evaluate = pipeline["evaluate"]
        base_acc, _, _ = evaluate(pipeline["base_configs"], TIMESTEPS)
        plan_acc, _, _ = evaluate(pipeline["phi_configs"], TIMESTEPS)
        accuracy_ok = plan_acc >= base_acc and pipeline["phi_plan"].feasible

        # output gap (rate minus source activation) at the longer horizon
        snn, cache = pipeline["snn"], pipeline["cache"]

        def measure(configs):
            run = engine.run_snn(snn, configs, cache.inputs, T_MAX, record_trains=True)
            return calibrate.measure_unevenness(cache.taps, run.trains, configs, T_MAX)

        m_base = measure(pipeline["base_configs"])
        m_plan = measure(pipeline["phi_configs"])
        gap_base = float(np.mean([b.mean_abs("total") for b in m_base]))
        gap_plan = float(np.mean([b.mean_abs("total") for b in m_plan]))
        reduction = 1.0 - gap_plan / gap_base
        gap_ok = reduction >= 0.30
    ok = accuracy_ok and gap_ok and t.elapsed < 600.0
    report(
        6, "searched burst caps beat uniform single-spike neurons", ok,
        f"acc {base_acc:.3f}->{plan_acc:.3f}, gap -{reduction * 100:.0f}%, {t.elapsed:.1f}s",
    )


def test_criterion_7_compression_saves_spikes(pipeline):
    with Timer() as t:
        evaluate = pipeline["evaluate"]
        phi_acc, phi_spikes, _ = evaluate(pipeline["phi_configs"], TIMESTEPS)
        full_acc, full_spikes, _ = evaluate(pipeline["full_configs"], TIMESTEPS)
        cut = 1.0 - full_spikes / phi_spikes
        drop = phi_acc - full_acc
        ok = cut >= 0.20 and drop <= 0.01 and pipeline["rho_plan"].feasible
    ok = ok and t.elapsed < 600.0
    report(
        7, "spike compression cuts 20% of spikes within a point", ok,
        f"spikes -{cut * 100:.1f}%, accuracy drop {drop * 100:.2f}pp, {t.elapsed:.1f}s",
    )


def test_criterion_8_adaptive_exit_latency(pipeline):
    with Timer() as t:
        snn = pipeline["snn"]
        configs = pipeline["full_configs"]
        cache = pipeline["cache"]
        eval_set = pipeline["eval_set"]
        fixed_acc, _, _ = pipeline["evaluate"](configs, T_MAX)

        best = None
        for alpha_base, beta, delta in DEFAULT_EXIT_GRID:
            policy = early_exit.fit_exit_policy(
                snn, configs, cache, T_MAX,
                alpha_base=alpha_base, beta=beta, delta=delta,
            )
            trace = early_exit.infer_adaptive(
                snn, configs, policy, eval_set.images, eval_set.labels
            )
            hits = (
                trace.mean_exit_t <= 0.75 * T_MAX
                and trace.accuracy >= fixed_acc - 0.01
            )
            if hits and (best is None or trace.mean_exit_t < best[0]):
                best = (trace.mean_exit_t, trace.accuracy, alpha_base, beta)
        grid_ok = best is not None

        # beta = 0 must reproduce a plain fixed-boundary sweep exactly
        flat = early_exit.ExitPolicy(
            alpha_base=0.7, beta=0.0, delta=1.0, t_max=T_MAX,
            mean_entropy=np.zeros(T_MAX),
        )
        trace = early_exit.infer_adaptive(
            snn, configs, flat, eval_set.images, eval_set.labels
        )
        run = engine.run_snn(snn, configs, eval_set.images, T_MAX)
        conf = np.stack([
            early_exit.confidence(run.step_scores[st], snn.class_count)
            for st in range(T_MAX)
        ])
        hit = conf >= 0.7
        manual_exit = np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, T_MAX)
        flat_ok = bool(np.array_equal(trace.exit_t, manual_exit))
    ok = grid_ok and flat_ok and t.elapsed < 300.0
    detail = "no grid setting qualified"
    if best is not None:
        detail = (
            f"mean exit {best[0]:.2f}/{T_MAX} at alpha={best[2]}, beta={best[3]}, "
            f"acc {best[1]:.3f} vs fixed {fixed_acc:.3f}"
        )
    report(8, "entropy gate exits early without losing a point", ok,
           f"{detail}; flat-boundary match {flat_ok}, {t.elapsed:.1f}s")


def test_criterion_9_ablation_signs(pipeline):
    with Timer() as t:
        snn = pipeline["snn"]
        cache = pipeline["cache"]
        eval_set = pipeline["eval_set"]
        energy_model = pipeline["energy_model"]
        evaluate = pipeline["evaluate"]

        def adaptive(configs):
            policy = early_exit.fit_exit_policy(
                snn, configs, cache, TIMESTEPS, alpha_base=0.7, beta=0.2, delta=1.0
            )
            trace = early_exit.infer_adaptive(
                snn, configs, policy, eval_set.images, eval_set.labels
            )
            energy = search.energy_of(trace.stats, energy_model) / len(eval_set)
            return trace.accuracy, energy

        base_acc, _, base_e = evaluate(pipeline["base_configs"], TIMESTEPS)
        burst_acc, _, burst_e = evaluate(pipeline["phi_configs"], TIMESTEPS)
        _, _, compress_e = evaluate(pipeline["full_configs"], TIMESTEPS)
        _, exit_e = adaptive(pipeline["phi_configs"])
        _, all_e = adaptive(pipeline["full_configs"])

        signs = {
            "burst raises accuracy": burst_acc > base_acc,
            "burst raises energy": burst_e > base_e,
            "compression lowers energy": compress_e < burst_e,
            "exit lowers energy": exit_e < burst_e,
            "all three beat baseline energy": all_e < base_e,
        }
        ok = all(signs.values())
        failed = [k for k, v in signs.items() if not v]
    ok = ok and t.elapsed < 600.0
    report(9, "five-row ablation reproduces every direction", ok,
           ("all five signs hold" if not failed else "; ".join(failed)) + f", {t.elapsed:.1f}s")


def test_criterion_10_byte_identical_reruns(tmp_path):
    with Timer() as t:
        config = {
            "seed": 3,
            "timesteps": 8,
            "t_max": 8,
            "calib_samples": 96,
            "dataset": {
                "kind": "blobs", "n": 300, "eval_n": 150, "dim": [32], "classes": 4,
            },
            "model": {"hidden": [24, 16]},
            "train": {"epochs": 12, "lr": 0.05},
        }
        stages = [
            "train", "convert", "search-phi", "search-rho", "fit-exit",
            "eval", "ablate", "report",
        ]
        outs = []
        for run_name in ("a", "b"):
            out = tmp_path / run_name
            cfg_path = tmp_path / f"{run_name}.json"
            cfg_path.write_text(json.dumps({**config, "out_dir": str(out)}))
            for stage in stages:
                assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
            outs.append(out)
        a_files = sorted(
            os.path.relpath(os.path.join(r, f), outs[0])
            for r, _, fs in os.walk(outs[0]) for f in fs
        )
        ok = bool(a_files)
        for rel in a_files:
            with open(outs[0] / rel, "rb") as fa, open(outs[1] / rel, "rb") as fb:
                if fa.read() != fb.read():
                    ok = False
    report(10, "same seed, same bytes, every artifact", ok,
           f"{len(a_files)} files compared, {t.elapsed:.1f}s")
