"""Discrete-time integrate-and-fire simulation of converted nets.

Each relu in the source graph becomes a layer of spiking neurons with a
soft (subtractive) reset. At every timestep a neuron integrates its input
current, fires ``k = clip(floor(u / V_th), 0, phi)`` threshold quanta, and
keeps the remainder:

    u' = v + current
    emitted = k * V_th
    v' = u' - emitted

``V_th = rho * v_th`` is the effective threshold: raising ``rho`` compresses
a regular train into fewer, larger quanta, while ``phi`` caps how many quanta
may leave in a single step (burst firing). A quantum counts as one unit spike
regardless of amplitude, which is what the energy accounting uses.

The analog input batch is injected as a constant current every timestep, and
the dense head never spikes; its accumulated membrane divided by T is the
score vector. Membranes are carried in float64.

The net is feed-forward, so a layer's whole T-step train depends only on the
train entering it. Simulation is therefore layer-major: each spiking layer
runs all T steps before the next one starts, and what passes between layers
is a ``SpikeTrain`` of integer quanta counts, each layer's one record
besides its final membrane (rates come from ``SpikeTrain.rate()``).
Everything before the first relu sees a constant input and is computed once.
Every dense, conv or pool call is still one call per timestep over the
batch's N rows, the same products a time-major sweep makes, so results match
it bit for bit. A run can also start at any layer from a train recorded
earlier, which is how the sensitivity table and bias calibration reuse a
shared upstream prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import store
from .nn import ModelGraph, apply_layer

DEFAULT_MEMBRANE_INIT = 0.5


class ConfigMismatchError(ValueError):
    """Config list does not line up with the model's spiking layers."""


@dataclass(frozen=True)
class LayerSnnConfig:
    """Per-layer neuron parameters: base threshold, compression ratio, burst cap."""

    v_th: float
    rho: int = 1
    phi: int = 1

    def __post_init__(self):
        if not (0 < self.v_th < np.inf):
            raise ValueError(f"v_th must be positive and finite, got {self.v_th}")
        if not isinstance(self.rho, (int, np.integer)) or self.rho < 1:
            raise ValueError(f"rho must be an integer >= 1, got {self.rho!r}")
        if not isinstance(self.phi, (int, np.integer)) or self.phi < 1:
            raise ValueError(f"phi must be an integer >= 1, got {self.phi!r}")

    @property
    def threshold(self) -> float:
        """Effective firing threshold and quantum amplitude, rho * v_th."""
        return self.rho * self.v_th


@dataclass
class NeuronState:
    """Membrane potential ``v`` after the soft reset."""

    v: np.ndarray


@dataclass
class SpikeTrain:
    """One spiking layer's emissions at every step, as quanta counts.

    ``counts[t]`` holds at most ``phi`` per neuron in the smallest unsigned
    dtype that fits, so a train costs a byte per neuron and step rather than
    eight. ``amplitudes(t)`` rebuilds the float64 emissions bit for bit.
    """

    counts: np.ndarray  # [T, N, ...]
    threshold: float

    def amplitudes(self, t: int) -> np.ndarray:
        return self.counts[t] * self.threshold

    def equals(self, other: SpikeTrain) -> bool:
        """Same threshold and count values, whatever the count dtypes: the
        same amplitudes at every step, so the same input to any layer."""
        return self.threshold == other.threshold and np.array_equal(self.counts, other.counts)

    def rate(self) -> np.ndarray:
        """Mean amplitude per step: the steps summed in order in float64, over T."""
        total = np.zeros(self.counts.shape[1:])
        for t in range(len(self.counts)):
            total += self.amplitudes(t)
        return total / float(len(self.counts))


@dataclass
class RunStats:
    """Unit-spike counts of one simulation, per spiking layer and in total."""

    total_spikes: int
    layer_spikes: dict[int, int]
    layer_synops: dict[int, float]


@dataclass
class SnnRun:
    """What a simulation produced; ``trains`` is None unless asked for.

    ``step_scores[t]`` and ``step_spikes[:t + 1]`` are exactly what a run of
    t + 1 steps gives, so one run answers every shorter horizon. ``v_last``
    holds the final membranes; rates come from ``trains[i].rate()``.
    """

    scores: np.ndarray
    stats: RunStats
    v_last: dict[int, np.ndarray]
    step_scores: np.ndarray  # [T, N, classes] cumulative scores after each step
    step_spikes: np.ndarray  # [T, L, N] unit spikes per step, spiking layer and input
    trains: dict[int, SpikeTrain] | None = None


def spiking_layer_indices(model: ModelGraph) -> list[int]:
    return [i for i, layer in enumerate(model.layers) if layer.kind == "relu"]


def layer_fanout(model: ModelGraph, layer_index: int) -> float:
    """Outgoing synapses per emitted quantum at a spiking layer.

    Counted at the next parameterized layer downstream; pooling and flatten
    are treated as synapse-free routing.
    """
    for layer in model.layers[layer_index + 1 :]:
        if layer.kind == "dense":
            return float(layer.out_features)
        if layer.kind == "conv2d":
            kh, kw = layer.kernel
            sh, sw = layer.stride
            return float(layer.out_channels * kh * kw) / float(sh * sw)
    return 1.0


def step_layer(
    state: NeuronState, input_current: np.ndarray, config: LayerSnnConfig
) -> tuple[NeuronState, np.ndarray]:
    """Advance one spiking layer a single timestep.

    Returns the new state and the emitted amplitudes (integer multiples of the
    effective threshold, at most ``phi`` quanta per neuron).
    """
    current = np.asarray(input_current, dtype=np.float64)
    if current.shape != state.v.shape:
        raise ConfigMismatchError(
            f"input current shape {current.shape} does not match state {state.v.shape}"
        )
    thr = config.threshold
    u = state.v + current
    k = u / thr
    np.floor(k, out=k)
    # clip(k, 0, phi) without np.clip's wrapper; 0.0 goes first so a -0.0
    # quotient stays -0.0, as np.clip leaves it
    np.maximum(0.0, k, out=k)
    np.minimum(k, float(config.phi), out=k)
    emitted = k * thr
    return NeuronState(v=u - emitted), emitted


def initial_state(config: LayerSnnConfig, shape, membrane_init: float) -> NeuronState:
    """Every membrane at ``membrane_init`` thresholds: one value, broadcast read-only."""
    return NeuronState(v=np.broadcast_to(np.float64(membrane_init * config.threshold), shape))


def _check_run(model: ModelGraph, configs: list[LayerSnnConfig], timesteps: int) -> None:
    """Reject a horizon under one step, or configs that miss spiking layers."""
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    spiking = spiking_layer_indices(model)
    if len(configs) != len(spiking):
        raise ConfigMismatchError(
            f"model has {len(spiking)} spiking layers, got {len(configs)} configs"
        )


def _as_batch(model: ModelGraph, batch) -> np.ndarray:
    """The input batch as float64 with a leading batch axis, shape-checked."""
    x0 = np.asarray(batch, dtype=np.float64)
    if x0.ndim == len(model.input_shape):
        x0 = x0[None]
    if tuple(x0.shape[1:]) != model.input_shape:
        raise ConfigMismatchError(
            f"batch shape {tuple(x0.shape[1:])} does not match model input {model.input_shape}"
        )
    return x0


@dataclass
class _LayerRun:
    """One spiking layer simulated over every step."""

    train: SpikeTrain | None
    step_spikes: np.ndarray  # [T, N] unit spikes per step and input
    v_last: np.ndarray


@dataclass
class _Simulation:
    layers: dict[int, _LayerRun]
    step_scores: np.ndarray  # [T, N, classes]; the run's scores are the last row


def _float64_operands(layer):
    """A dense layer's ``(W.T, b)`` as float64, or None for any other layer.

    ``x @ W.T + b`` on float64 ``x`` builds this contiguous copy of the
    float32 ``W.T`` on every call; products with it match that bit for bit,
    where a transposed view of a float64 ``W`` does not at small batches.
    """
    if layer.kind != "dense":
        return None
    return np.ascontiguousarray(layer.weight.T, dtype=np.float64), layer.bias.astype(np.float64)


def _currents(layers, source: np.ndarray | SpikeTrain, timesteps: int):
    """The output of ``layers`` at each step, fed ``source``.

    A constant array goes through ``layers`` once; a spike train goes through
    them once per step, with dense parameters cast to float64 once per call
    (held only while the generator runs, since training and bias calibration
    change them between runs).
    """
    if isinstance(source, SpikeTrain):
        operands = [_float64_operands(layer) for layer in layers]
        for t in range(timesteps):
            x = source.amplitudes(t)
            for layer, ops in zip(layers, operands):
                x = apply_layer(layer, x, ops)
            yield x
        return
    for layer in layers:
        source = apply_layer(layer, source)
    for _ in range(timesteps):
        yield source


def _run_layer(
    currents, config: LayerSnnConfig, timesteps: int, membrane_init: float
) -> _LayerRun:
    """Run one spiking layer on ``currents``, its input current at each of
    ``timesteps`` steps (``_currents``' output, or a list of it)."""
    thr = config.threshold
    for t, current in enumerate(currents):
        if t == 0:
            state = initial_state(config, current.shape, membrane_init)
            counts = np.empty((timesteps, *current.shape), np.min_scalar_type(config.phi))
        state, emitted = step_layer(state, current, config)
        counts[t] = np.rint(emitted / thr)
    step_spikes = counts.reshape(timesteps, counts.shape[1], -1).sum(axis=2, dtype=np.int64)
    return _LayerRun(SpikeTrain(counts, thr), step_spikes, state.v)


def _simulate(
    model: ModelGraph,
    configs: list[LayerSnnConfig],
    start: int,
    source,
    timesteps: int,
    membrane_init: float,
    *,
    keep_trains: bool = False,
) -> _Simulation:
    """Run ``model.layers[start:]`` layer by layer, all steps of one layer
    before the next.

    ``source`` enters layer ``start``: the constant input batch, or the train
    of the spiking layer just before ``start``. ``configs`` covers every
    spiking layer of the model. Only the train being read and the one being
    written are held, unless ``keep_trains`` asks for all of them.
    """
    position = {idx: p for p, idx in enumerate(spiking_layer_indices(model))}
    runs: dict[int, _LayerRun] = {}
    begin = start
    for i in range(start, len(model.layers)):
        if model.layers[i].kind != "relu":
            continue
        currents = _currents(model.layers[begin:i], source, timesteps)
        run = _run_layer(currents, configs[position[i]], timesteps, membrane_init)
        source, begin = run.train, i + 1
        if not keep_trains:
            run.train = None
        runs[i] = run
    for t, y in enumerate(_currents(model.layers[begin:], source, timesteps)):
        if t == 0:
            acc = y
            step_scores = np.empty((timesteps, *y.shape), dtype=y.dtype)
        else:
            acc = acc + y
        step_scores[t] = acc / float(t + 1)
    return _Simulation(runs, step_scores)


def stats_at(model: ModelGraph, step_spikes: np.ndarray, last) -> RunStats:
    """Spike counts of a run that stops input n after step ``last[n]``.

    ``step_spikes`` is a run's [T, L, N] array and steps count from 0; a
    scalar ``last`` stops every input at the same step.
    """
    counted = np.arange(len(step_spikes))[:, None, None] <= np.asarray(last)  # [T, 1, N or 1]
    per_layer = (step_spikes * counted).sum(axis=(0, 2))
    counts = {idx: int(c) for idx, c in zip(spiking_layer_indices(model), per_layer)}
    return RunStats(
        total_spikes=sum(counts.values()),
        layer_spikes=counts,
        layer_synops={i: c * layer_fanout(model, i) for i, c in counts.items()},
    )


def run_snn(
    model: ModelGraph,
    configs: list[LayerSnnConfig],
    batch,
    timesteps: int,
    *,
    membrane_init: float = DEFAULT_MEMBRANE_INIT,
    record_trains: bool = False,
) -> SnnRun:
    """Simulate the converted net for ``timesteps`` steps of constant current.

    ``record_trains`` keeps every spiking layer's train, which is what firing
    rates are read from. The cumulative scores and per-layer unit spikes
    after every step are always recorded; they are what the early-exit gate
    and every shorter horizon read.
    """
    _check_run(model, configs, timesteps)
    x0 = _as_batch(model, batch)
    sim = _simulate(model, configs, 0, x0, timesteps, membrane_init, keep_trains=record_trains)
    runs = sim.layers
    step_spikes = np.zeros((timesteps, len(runs), x0.shape[0]), dtype=np.int64)
    for pos, r in enumerate(runs.values()):
        step_spikes[:, pos] = r.step_spikes
    return SnnRun(
        scores=sim.step_scores[-1],
        stats=stats_at(model, step_spikes, timesteps - 1),
        v_last={i: r.v_last for i, r in runs.items()},
        step_scores=sim.step_scores,
        step_spikes=step_spikes,
        trains={i: r.train for i, r in runs.items()} if record_trains else None,
    )


def save_configs(configs: list[LayerSnnConfig], layers: list[int], path) -> None:
    """Persist per-layer neuron configs, labeled by graph layer index."""
    if len(configs) != len(layers):
        raise ConfigMismatchError(
            f"{len(configs)} configs for {len(layers)} spiking layers"
        )
    lines = ["format snnc-configs"]
    for idx, cfg in zip(layers, configs):
        lines.append(f"layer {idx} v_th {cfg.v_th!r} rho {cfg.rho} phi {cfg.phi}")
    store.write_atomic(path, lines)


def load_configs(path) -> tuple[list[LayerSnnConfig], list[int]]:
    """Configs and the graph layer index each line is labeled with."""
    doc = store.read_lines(path, "format snnc-configs")
    configs: list[LayerSnnConfig] = []
    layers: list[int] = []
    while doc.peek():
        idx, v_th, rho, phi = doc.take("layer", int, "v_th", float, "rho", int, "phi", int)
        with doc.check():
            configs.append(LayerSnnConfig(v_th=v_th, rho=rho, phi=phi))
        layers.append(idx)
    return configs, layers


def dump_trace(run: SnnRun, path, input_index: int = 0) -> None:
    """Write nonzero emissions of one input as CSV rows.

    Columns: layer, timestep, neuron_index, emitted_amplitude. Requires the
    run to have been made with ``record_trains=True``.
    """
    if run.trains is None:
        raise ValueError("run was made without record_trains=True")
    lines = ["layer,timestep,neuron_index,emitted_amplitude"]
    for layer_idx in sorted(run.trains):
        train = run.trains[layer_idx]
        for t in range(len(train.counts)):
            flat = train.amplitudes(t)[input_index].reshape(-1)
            for neuron in np.nonzero(flat)[0]:
                lines.append(f"{layer_idx},{t + 1},{int(neuron)},{float(flat[neuron])!r}")
    store.write_atomic(path, lines)
