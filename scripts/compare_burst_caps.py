#!/usr/bin/env python3
"""Accuracy/energy table for uniform burst caps vs. the searched plan.

Small library-API experiment (no CLI, no artifacts): convert one trained
net, then row by row evaluate uniform phi = 1..4 and finally the plan the
exact per-layer search picks under the uniform-phi=2 energy budget. The
point the table makes: with the same nominal budget as a uniform phi=2
bump, a mixed per-layer plan recovers essentially all of the short-horizon
accuracy that uniform phi=2 leaves on the table.

Feasibility is judged on the calibration set through the additive per-layer
cost surrogate, so the plan's measured eval-set energy can land slightly
above the printed budget; that is the surrogate's approximation error, not a
search bug.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spikecal import calibrate, engine, nn, search, store, train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--timesteps", type=int, default=4)
    ap.add_argument("--dim", type=int, default=784)
    ap.add_argument("--classes", type=int, default=10)
    args = ap.parse_args()

    dataset = store.make_synthetic(
        "blobs", 2000, seed=args.seed, classes=args.classes, dim=args.dim
    )
    eval_set = store.make_synthetic(
        "blobs", 1000, seed=args.seed + 1, classes=args.classes, dim=args.dim,
        structure_seed=args.seed,
    )
    model = nn.build_mlp(args.dim, [256, 128], args.classes, seed=args.seed)
    ann = train.train_reference(model, dataset, epochs=10, lr=0.05, seed=args.seed)
    ann_acc = train.accuracy(ann, eval_set.images, eval_set.labels)
    print(f"ANN eval accuracy {ann_acc:.4f}  (T = {args.timesteps})")

    cache = store.build_calibration_cache(ann, dataset, 256, seed=5)
    fits = calibrate.fit_all_thresholds(ann, cache, args.timesteps)
    configs = calibrate.configs_from_fits(fits)
    snn, _ = calibrate.calibrate_biases(ann, configs, cache, args.timesteps)
    energy = search.EnergyModel()

    def measure(cfgs):
        run = engine.run_snn(snn, cfgs, eval_set.images, args.timesteps)
        acc = float(np.mean(np.argmax(run.scores, axis=1) == eval_set.labels))
        watts = search.energy_of(run.stats, energy) / len(eval_set)
        return acc, watts, run.stats.total_spikes

    print(f"{'config':>14s} {'accuracy':>9s} {'energy/sample':>14s} {'spikes':>10s}")
    rows = {}
    for phi in (1, 2, 3, 4):
        uniform = [engine.LayerSnnConfig(v_th=c.v_th, phi=phi) for c in configs]
        acc, watts, spikes = measure(uniform)
        rows[phi] = watts
        print(f"{'uniform phi=' + str(phi):>14s} {acc:9.4f} {watts:14.3e} {spikes:>10d}")

    table = search.build_table(
        snn, configs, cache, args.timesteps, "phi",
        candidates=[1, 2, 3, 4], energy=energy,
    )
    # budget: what uniform phi=2 costs on the calibration set
    uniform2 = [engine.LayerSnnConfig(v_th=c.v_th, phi=2) for c in configs]
    budget_run = engine.run_snn(snn, uniform2, cache.inputs, args.timesteps)
    cap = search.energy_of(budget_run.stats, energy) / cache.sample_count
    plan = search.pareto_search(table, search.SearchBudget("energy_cap", cap))
    acc, watts, spikes = measure(search.apply_plan(configs, plan))
    label = "plan " + ",".join(str(plan.choice[l]) for l in plan.layers)
    print(f"{label:>14s} {acc:9.4f} {watts:14.3e} {spikes:>10d}")
    print(f"\nsearched plan: {plan.choice}  feasible={plan.feasible}  "
          f"(budget {cap:.3e} W/sample)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
