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

Runs go through one of two loops. ``_simulate`` is time-major: each step
runs every layer from the input (or from a recorded spike train) to the
head, so a run can stop after any step; ``run_snn``, fit-exit, serve, the
table's trunks and every CNN run use it. ``_layer_major`` runs an MLP layer
by layer in buffers its caller made and allocates nothing, so a helper
thread (``_on_helper``) may run it: serially, all T steps a layer, for the
sensitivity table's downstream trials and ``ablate``'s runs, which two
threads share out; and on two lanes for the eval-set run of ``eval`` and
``report`` (``_eval_run``) of an MLP of three spiking layers or more. There
spiking layer s runs on lane s % 2 and the head on lane L % 2, ``_CHUNK`` =
4 steps at a time through a pair of count buffers 4 steps deep, each layer
from its own membrane, and ``_Lanes`` lets layer s run step g once layer
s - 1 has finished it. The chunk bounds the count buffers: an unchunked
prototype on demo-mlp, its buffers T = 32 steps deep, took ``report``'s
traced peak from 19.43 to 32.96 MiB and ``peak_rss_mb`` up 18% (2-vCPU
VM). Every loop gives the same records bit for bit. The README's
"Simulation order" section says why and how.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from . import store
from .nn import ModelGraph, _check_batch, apply_layer

DEFAULT_MEMBRANE_INIT = 0.5
# the smallest v_th a config takes, the smallest normal float32: a membrane
# divided by anything smaller can overflow float64
_V_TH_MIN = float(np.finfo(np.float32).tiny)


class ConfigMismatchError(ValueError):
    """Config list does not line up with the model's spiking layers."""


@dataclass(frozen=True)
class LayerSnnConfig:
    """Per-layer neuron parameters: base threshold, compression ratio, burst cap."""

    v_th: float
    rho: int = 1
    phi: int = 1

    def __post_init__(self):
        if not (_V_TH_MIN <= self.v_th < np.inf):
            raise ValueError(
                f"v_th must be finite and at least {_V_TH_MIN!r} (the smallest normal float32), "
                f"got {self.v_th!r}"
            )
        if not isinstance(self.rho, (int, np.integer)) or self.rho < 1:
            raise ValueError(f"rho must be an integer >= 1, got {self.rho!r}")
        if not isinstance(self.phi, (int, np.integer)) or self.phi < 1:
            raise ValueError(f"phi must be an integer >= 1, got {self.phi!r}")
        if not np.isfinite(self.threshold):
            raise ValueError(f"threshold rho * v_th = {self.rho} * {self.v_th!r} is not finite")

    @property
    def threshold(self) -> float:
        """Effective firing threshold and quantum amplitude, rho * v_th."""
        return self.rho * self.v_th


@dataclass
class NeuronState:
    """Membrane potential ``v`` after the soft reset, and ``k``, the quanta
    counts (float64) the last step fired.

    A state with ``k`` is one ``step_layer`` or ``initial_state`` returned:
    it owns ``v`` and ``k``, and the next step writes into them in place. A
    state without ``k`` (one a caller built) is never written; stepping it
    allocates a new pair.
    """

    v: np.ndarray
    k: np.ndarray | None = None


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


def _fire(v: np.ndarray, current: np.ndarray, k: np.ndarray, threshold: float,
          phi: float, emitted: np.ndarray | None = None) -> np.ndarray:
    """The neuron update, in place on float64 arrays of one shape: ``v``
    takes ``current`` in, ``k`` gets the quanta fired and ``v`` keeps the
    remainder. Returns the emitted amplitudes, written into ``emitted``
    when given and a fresh array otherwise. ``current`` may be ``k``
    itself, as it is read before ``k`` is written; otherwise it is never
    written."""
    np.add(v, current, out=v)
    np.divide(v, threshold, out=k)
    np.floor(k, out=k)
    # clip(k, 0, phi) without np.clip's wrapper; 0.0 goes first so a -0.0
    # quotient stays -0.0, as np.clip leaves it
    np.maximum(0.0, k, out=k)
    np.minimum(k, phi, out=k)
    emitted = np.multiply(k, threshold, out=emitted)
    np.subtract(v, emitted, out=v)
    return emitted


def step_layer(
    state: NeuronState, input_current: np.ndarray, config: LayerSnnConfig
) -> tuple[NeuronState, np.ndarray]:
    """Advance one spiking layer a single timestep.

    Returns the new state and the emitted amplitudes (integer multiples of the
    effective threshold, at most ``phi`` quanta per neuron). The amplitudes
    are a fresh array the caller may keep. A state an earlier step returned
    is updated in place and returned; any other state, and
    ``input_current``, are left as they were (see ``NeuronState``).
    """
    current = np.asarray(input_current, dtype=np.float64)
    if current.shape != state.v.shape:
        raise ConfigMismatchError(
            f"input current shape {current.shape} does not match state {state.v.shape}"
        )
    if state.k is None:
        state = NeuronState(v=state.v.astype(np.float64), k=np.empty(current.shape))
    return state, _fire(state.v, current, state.k, config.threshold, float(config.phi))


def initial_state(config: LayerSnnConfig, shape, membrane_init: float) -> NeuronState:
    """Every membrane at ``membrane_init`` thresholds, in a state the first
    step writes into: ``v`` filled, ``k`` allocated but not yet set."""
    v = np.full(shape, membrane_init * config.threshold, np.float64)
    return NeuronState(v=v, k=np.empty(shape))


def _float64_operands(layer):
    """A dense layer's ``(W.T, b)`` as float64, or None for any other layer.

    ``x @ W.T + b`` on float64 ``x`` builds this contiguous copy of the
    float32 ``W.T`` on every call; products with it match that bit for bit,
    where a transposed view of a float64 ``W`` does not at small batches.
    When the weight and bias are both read-only, as ``store.load_model``
    leaves them, the pair is cast once and kept on the layer
    (``LayerSpec.float64_operands``), so it lives and dies with the model.
    The kept pair is served only while the layer still holds those very
    arrays: a reassigned weight or bias, such as a calibrated bias, is cast
    afresh, and writable arrays (a ``clone()`` being trained) always are.
    """
    if layer.kind != "dense":
        return None
    w, b = layer.weight, layer.bias
    frozen = not (w.flags.writeable or b.flags.writeable)
    kept = layer.float64_operands
    if not (frozen and kept is not None and kept[0] is w and kept[1] is b):
        kept = (w, b, np.ascontiguousarray(w.T, dtype=np.float64), b.astype(np.float64))
        layer.float64_operands = kept if frozen else None
    return kept[2:]


@dataclass(frozen=True)
class _RunPlan:
    """What every run of one model with one config list reads.

    ``spiking[p]`` is the p-th spiking layer's ``(graph index, config,
    threshold, float(phi))`` and ``fanout`` maps its graph index to
    ``layer_fanout``. ``feeds[p]`` pairs each layer before it, from graph
    index ``begins[p]`` on, with that layer's float64 dense operands
    (``_float64_operands``); ``feeds[-1]`` is the head's. ``configs``,
    ``layers`` and ``params`` (each parameterized layer with its weight and
    bias) are what it was built from.
    """

    configs: tuple
    layers: tuple
    params: tuple
    spiking: tuple
    feeds: tuple
    begins: tuple
    fanout: dict

    def serves(self, model: ModelGraph, configs) -> bool:
        """Whether a run of ``model`` with ``configs`` may read this plan: the
        very same config objects, layers and arrays, all still read-only."""
        return (
            len(configs) == len(self.configs)
            and all(map(operator.is_, configs, self.configs))
            and len(model.layers) == len(self.layers)
            and all(map(operator.is_, model.layers, self.layers))
            and all(
                layer.weight is w and layer.bias is b
                and not (w.flags.writeable or b.flags.writeable)
                for layer, w, b in self.params
            )
        )


def _prepare(model: ModelGraph, configs: list[LayerSnnConfig]) -> _RunPlan:
    """The run plan of ``model`` with ``configs``, which must line up with
    its spiking layers.

    A plan built while every weight and bias is read-only, as
    ``store.load_model`` leaves them, is kept on the model
    (``ModelGraph._run_plan``) and serves every later run while
    ``_RunPlan.serves`` holds, so a served model derives it once, not once
    per request. Any other model, such as a ``clone()`` being calibrated,
    gets a plan built for the run and keeps none.
    """
    kept = model._run_plan
    if kept is not None and kept.serves(model, configs):
        return kept
    indices = spiking_layer_indices(model)
    if len(configs) != len(indices):
        raise ConfigMismatchError(
            f"model has {len(indices)} spiking layers, got {len(configs)} configs"
        )
    operands = [(layer, _float64_operands(layer)) for layer in model.layers]
    begins = (0, *(i + 1 for i in indices))
    plan = _RunPlan(
        configs=tuple(configs),
        layers=tuple(model.layers),
        params=tuple((ly, ly.weight, ly.bias) for ly in model.layers if ly.parameterized),
        spiking=tuple((i, c, c.threshold, float(c.phi)) for i, c in zip(indices, configs)),
        feeds=tuple(tuple(operands[b:e]) for b, e in zip(begins, (*indices, len(model.layers)))),
        begins=begins,
        fanout=_fanouts(model),
    )
    frozen = not any(w.flags.writeable or b.flags.writeable for _, w, b in plan.params)
    model._run_plan = plan if frozen else None
    return plan


def _check_run(model: ModelGraph, configs: list[LayerSnnConfig], timesteps: int) -> _RunPlan:
    """Reject a horizon under one step, or configs that miss spiking layers;
    returns the run plan (``_prepare``)."""
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    return _prepare(model, configs)


def _currents(layers, source: np.ndarray | SpikeTrain, timesteps: int):
    """The output of ``layers`` at each step, fed ``source``.

    A constant array goes through ``layers`` once; a spike train goes through
    them once per step. Dense layers take their float64 operands from
    ``_float64_operands`` once per call.
    """
    operands = [_float64_operands(layer) for layer in layers]
    if isinstance(source, SpikeTrain):
        for t in range(timesteps):
            x = source.amplitudes(t)
            for layer, ops in zip(layers, operands):
                x = apply_layer(layer, x, ops)
            yield x
        return
    for layer, ops in zip(layers, operands):
        source = apply_layer(layer, source, ops)
    for _ in range(timesteps):
        yield source


def _run_layer(
    currents,
    config: LayerSnnConfig,
    timesteps: int,
    membrane_init: float,
    state: NeuronState | None = None,
) -> tuple[SpikeTrain, NeuronState]:
    """Run one spiking layer on ``currents``, its input current at each of
    ``timesteps`` steps (``_currents``' output, or a list of it), from
    ``state``, or from ``membrane_init`` thresholds when None. The counts
    are the steps' ``k``; ``currents`` is never written. Returns the
    layer's train and its state after the last step."""
    for t, current in enumerate(currents):
        if t == 0:
            if state is None:
                state = initial_state(config, current.shape, membrane_init)
            counts = np.empty((timesteps, *current.shape), np.min_scalar_type(config.phi))
        state, _ = step_layer(state, current, config)
        counts[t] = state.k
    return SpikeTrain(counts, config.threshold), state


def _simulate(
    plan: _RunPlan,
    start: int,
    source,
    timesteps: int,
    membrane_init: float,
    *,
    keep_trains: bool = False,
    stop=None,
):
    """Run the layers of ``plan``'s model from graph index ``start`` to the
    head, fed ``source``, for up to ``timesteps`` steps, every one of them at
    each step. ``source`` enters layer ``start``: the train of the spiking
    layer before it, or the constant input batch, which goes through the
    layers before the first spiking layer once. After step ``t`` (from 0),
    ``stop(t, scores)``, when given, sees its cumulative scores
    [N, classes] and ends the run by returning true.

    Each layer's emitted amplitudes feed the next layer directly; they are
    ``counts[t] * threshold`` bit for bit, so a run resumed from a recorded
    train equals one pass. Every spiking layer's ``k`` is a view of one
    quanta buffer, as wide as the widest layer: a step's ``k`` is used up
    (by the emissions, the unit-spike count and the train copy) before the
    next layer writes its own. Returns ``(step_scores, step_spikes, v_last,
    trains)`` of the steps run and the spiking layers from ``start`` on;
    ``step_spikes`` is int64 [T, L, N], and ``trains`` is None unless
    ``keep_trains``, and only then are counts kept.
    """
    first = bisect.bisect_right(plan.begins, start) - 1  # the spiking layers before start
    spiking = plan.spiking[first:]
    feeds = [plan.feeds[first][start - plan.begins[first]:], *plan.feeds[first + 1:]]
    from_train = isinstance(source, SpikeTrain)
    if not from_train:
        for layer, op in feeds[0]:
            source = apply_layer(layer, source, op)
        feeds[0] = ()
    n = source.counts.shape[1] if from_train else len(source)
    step_spikes = np.empty((timesteps, len(spiking), n), np.int64)
    count = np.empty((len(spiking), n))  # a step's unit spikes: whole numbers, exact in float64
    quanta = np.empty(0)  # every layer's k is a view of this one buffer
    # per spiking layer: membranes, k, k as [N, width], ones [width], counts
    vs, ks, rows, units, counts = [], [], [], [], []
    for t in range(timesteps):
        x = source.amplitudes(t) if from_train else source
        for pos, (feed, (_, config, threshold, phi)) in enumerate(zip(feeds, spiking)):
            for layer, op in feed:
                x = apply_layer(layer, x, op)
            if t == 0:
                if quanta.size < x.size:
                    quanta = np.empty(x.size)  # the layers before let go of the smaller buffer
                    ks = [quanta[: k.size].reshape(k.shape) for k in ks]
                    rows = [quanta[: r.size].reshape(r.shape) for r in rows]
                vs.append(np.full(x.shape, membrane_init * threshold, np.float64))
                ks.append(quanta[: x.size].reshape(x.shape))
                units.append(np.ones(x.shape[1:]).ravel())
                rows.append(quanta[: x.size].reshape(n, len(units[-1])))
                if keep_trains:
                    counts.append(np.empty((timesteps, *x.shape), np.min_scalar_type(config.phi)))
            x = _fire(vs[pos], x, ks[pos], threshold, phi)
            # whole counts add up exactly in a product with ones, 2-3x faster than np.add.reduce
            np.dot(rows[pos], units[pos], out=count[pos])
            if keep_trains:
                counts[pos][t] = ks[pos]
        step_spikes[t] = count
        for layer, op in feeds[-1]:
            x = apply_layer(layer, x, op)
        if t == 0:
            acc, step_scores = x, np.empty((timesteps, *x.shape), dtype=x.dtype)
        else:
            acc = acc + x
        step_scores[t] = acc / float(t + 1)  # the head's mean output so far
        if stop is not None and stop(t, step_scores[t]):
            break
    steps = t + 1
    v_last = {i: v for (i, *_), v in zip(spiking, vs)}
    trains = {i: SpikeTrain(c[:steps], thr) for (i, _, thr, _), c in zip(spiking, counts)}
    return step_scores[:steps], step_spikes[:steps], v_last, (trains if keep_trains else None)


@dataclass(frozen=True)
class _Workspace:
    """One lane's buffers for ``_layer_major``, each flat and as large as the
    largest array it holds: float64 for the membranes (``v``, one that the
    spiking layers take in turn, or one per spiking layer in a chunked run),
    ``k`` (which also takes each product) and the amplitudes (a step's
    input, then the bias broadcast to the product's shape, then the
    emissions, then the step's unit-spike count); up to two count buffers
    that the spiking layers of a run fill in turn, each as many steps deep
    as the run takes at a time and each step sized for the widest layer it
    takes; and the ones that count a step's unit spikes."""

    v: tuple
    k: np.ndarray
    amp: np.ndarray
    counts: tuple
    ones: np.ndarray

    @classmethod
    def of(cls, sizes: list[int], timesteps: int, count_dtype, units: int = 0) -> _Workspace:
        """Buffers for runs fed ``sizes[0]`` values a step, through spiking
        layers of ``sizes[1:-1]`` to a head of ``sizes[-1]``; ``units`` is
        the widest spiking layer's width when the runs record unit spikes."""
        return cls(
            v=(np.empty(max(sizes[1:-1], default=0)),),
            k=np.empty(max(sizes[1:])),
            amp=np.empty(max(sizes)),
            counts=_count_pair(sizes[1:-1], timesteps, count_dtype),
            ones=np.ones(units),
        )

    @classmethod
    def lanes(cls, sizes: list[int], count_dtype, units: int) -> tuple[_Workspace, _Workspace]:
        """The two lanes' buffers for one chunked run (``of``'s ``sizes``):
        both hold every spiking layer's membrane and one pair of count
        buffers ``_CHUNK`` steps deep, and each its own ``k`` and amplitude
        buffer, sized for the layers on that lane."""
        v = tuple(np.empty(size) for size in sizes[1:-1])
        counts = _count_pair(sizes[1:-1], _CHUNK, count_dtype)
        return tuple(
            cls(v=v, k=np.empty(max(sizes[1 + lane::2])), amp=np.empty(max(sizes[lane:])),
                counts=counts, ones=np.ones(units))
            for lane in (0, 1)
        )


def _count_pair(spiking: list[int], depth: int, count_dtype) -> tuple:
    """Up to two count buffers, ``depth`` steps deep: the even-numbered
    layers of ``spiking`` (sizes per step) fill the first, the others the
    second, and each step of a buffer is sized for the largest of its own."""
    return tuple(np.empty(depth * max(spiking[i::2]), count_dtype)
                 for i in range(min(2, len(spiking))))


def _view(buf: np.ndarray, shape) -> np.ndarray:
    """The front of a flat buffer as an array of ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


def _rows(buf: np.ndarray, depth: int, shape) -> np.ndarray:
    """A count buffer as ``depth`` steps of ``shape``, each step at the
    front of its own equal share of ``buf``."""
    return np.reshape(buf.reshape(depth, -1)[:, : math.prod(shape)], (depth, *shape), copy=False)


def _single_dense(feed) -> bool:
    """Whether ``feed``, a run plan's feeding layers, is one dense layer."""
    return len(feed) == 1 and feed[0][1] is not None


_CHUNK = 4  # the steps a layer of a two-lane run takes at a time (module docstring)
# the fewest spiking layers a run goes on two lanes with: the first takes the
# constant current and makes no product, so below three lane 0 holds no spiking
# layer's product, and demo-mlp's two layers read no gain (README)
_LANES_MIN_LAYERS = 3


class _Lanes:
    """The order of the two lanes of a chunked run of ``layers`` spiking
    layers and a head (``_layer_major``), over one condition.

    ``done[s]`` counts the steps layer s (the head is layer L) has
    finished. Layer s may run step t once layer s - 1, on the other lane,
    has finished it. The first writer of a count buffer, layer 0 or 1, may
    begin a chunk once the buffer's last reader has finished the chunk
    before. A lane that raises calls ``fail``; every wait then returns
    false, and the other lane stops.
    """

    def __init__(self, layers: int):
        self.cond = threading.Condition()
        self.done = [0] * (layers + 1)
        self.writers = min(2, layers)
        # the last reader of each count buffer: the head (layer L) reads buffer
        # (L - 1) % 2, and layer L - 1 the other
        self.readers = tuple(layers - (layers - 1 - b) % 2 for b in range(2))
        self.failed = False

    def _ready(self, s: int, t: int) -> bool:
        if s and self.done[s - 1] <= t:
            return False
        return s >= self.writers or t % _CHUNK or self.done[self.readers[s]] >= t

    def wait(self, s: int, t: int) -> bool:
        """Block until layer s may run step t; false once a lane failed."""
        with self.cond:
            self.cond.wait_for(lambda: self.failed or self._ready(s, t))
            return not self.failed

    def finish(self, s: int, t: int) -> None:
        with self.cond:
            self.done[s] = t + 1
            self.cond.notify_all()

    def fail(self) -> None:
        with self.cond:
            self.failed = True
            self.cond.notify_all()


def _layer_major(plan: _RunPlan, start: int, source, timesteps: int, ws: _Workspace,
                 membrane_init: float, scores: np.ndarray, spikes: np.ndarray | None = None,
                 lanes: tuple | None = None) -> None:
    """Run ``plan``'s model from ``source`` to the head for ``timesteps``
    steps, layer by layer in ``ws``: bit for bit what ``_simulate`` records.

    ``source`` is the train entering graph index ``start``, or, with
    ``start`` 0, the constant current entering the first spiking layer
    (the output of the layers before it). Every feeder after that must be
    one dense layer. ``scores`` takes the final scores [N, classes], or the
    cumulative scores after every step [T, N, classes]; ``spikes``, when
    given, takes each spiking layer's unit spikes per step [T, L, N].

    Serially (``lanes`` None), each spiking layer runs all T steps on the
    counts of the one before it (the train's, then a count buffer's),
    writing its own counts into the other count buffer, from one membrane
    that the layers take in turn, and the head adds its T outputs into the
    last row of ``scores``. ``lanes``, a ``(_Lanes, lane)`` pair, makes
    this one lane of a chunked run of a constant current: only layer s
    with s % 2 == lane runs here, ``_CHUNK`` steps at a time, each from its
    own membrane, through count buffers ``_CHUNK`` steps deep, and each
    step waits as ``_Lanes`` orders it.

    A layer's input at step t is ``counts[t] * threshold``, the emissions
    bit for bit. Its product goes into ``ws.k``, and the bias is added as
    ``nn.apply_layer`` adds it, from a copy broadcast into the amplitude
    buffer, which the product has freed: adding a broadcast bias would
    allocate numpy's iteration buffer on every call. ``_fire`` then reads
    ``ws.k`` as the current before writing the step's counts over it. The
    run allocates nothing and calls nothing public.
    """
    first = bisect.bisect_right(plan.begins, start) - 1
    layers = tuple(zip(plan.feeds[first:], (*plan.spiking[first:], None)))
    from_train = isinstance(source, SpikeTrain)
    n = source.counts.shape[1] if from_train else len(source)
    out = scores[-1] if scores.ndim == 3 else scores  # where the head's outputs add up
    order, lane = (None, 0) if lanes is None else lanes
    depth = timesteps if order is None else _CHUNK  # a count buffer's steps
    for t0 in range(0, timesteps, depth):
        for s in range(lane, len(layers), 1 if order is None else 2):
            feed, spiking = layers[s]
            if s or from_train:
                ((_, (w_t, b)),) = feed
                shape = (n, w_t.shape[1])
                amp = _view(ws.amp, (n, w_t.shape[0]))
                if s:
                    counts = _rows(ws.counts[(s - 1) % 2], depth, amp.shape)
                    threshold = layers[s - 1][1][2]
                else:  # only a serial run takes a train, all T steps deep
                    counts, threshold = source.counts, source.threshold
            else:
                shape = source.shape
            # the amplitude buffer's front holds the bias, then the emissions
            k, front = _view(ws.k, shape), _view(ws.amp, shape)
            if spiking is not None:
                _, _, layer_threshold, phi = spiking
                v = _view(ws.v[s % len(ws.v)], shape)
                if t0 == 0:
                    v.fill(membrane_init * layer_threshold)
                written = _rows(ws.counts[s % 2], depth, shape)
                ones, count = ws.ones[: shape[1]], ws.amp[:n]
            for t in range(t0, min(t0 + depth, timesteps)):
                if order is not None and not order.wait(s, t):
                    return  # the other lane failed, and raises
                if s or from_train:
                    # cast, then scale in place: a mixed-dtype multiply takes a cast buffer
                    np.copyto(amp, counts[t % depth])
                    np.multiply(amp, threshold, out=amp)
                    current = np.matmul(amp, w_t, out=k)
                    np.copyto(front, b)
                    current += front
                else:
                    current = source
                if spiking is not None:
                    _fire(v, current, k, layer_threshold, phi, emitted=front)
                    np.copyto(written[t % depth], k, casting="unsafe")
                    if spikes is not None:  # as ``_simulate`` counts them
                        np.dot(k, ones, out=count)
                        np.copyto(spikes[t, s], count, casting="unsafe")
                else:
                    if t == 0:
                        np.copyto(out, current)
                    else:
                        np.add(out, current, out=out)
                    if t + 1 == timesteps:
                        np.divide(out, float(timesteps), out=out)
                    elif out is not scores:
                        np.divide(out, float(t + 1), out=scores[t])
                if order is not None:
                    order.finish(s, t)


def _prefix(model: ModelGraph, plan: _RunPlan, batch) -> np.ndarray:
    """The constant current that a whole run of ``plan`` on ``batch`` feeds
    its first spiking layer."""
    x = _check_batch(model, np.asarray(batch, dtype=np.float64))
    for layer, op in plan.feeds[0]:
        x = apply_layer(layer, x, op)
    return x


def _widths(plan: _RunPlan, x: np.ndarray) -> list[int]:
    """The widths of every spiking layer and of the head in a run of
    ``plan`` (whose every feeder after the first is one dense layer) fed
    the constant current ``x``."""
    return [x.shape[1], *(ops[0].shape[1] for ((_, ops),) in plan.feeds[1:])]


def _whole_runs(model: ModelGraph, plans: list[_RunPlan], batch, timesteps: int,
                membrane_init: float, *, spikes: bool):
    """Whole runs of ``plans`` (config lists of ``model``, whose every
    feeder after the first is one dense layer) on ``batch``, set up here.

    The constant current entering the first spiking layer is computed once
    for all of them, and one workspace, sized for ``batch`` and the largest
    ``phi``, and every record are allocated. Returns ``(make, step_scores,
    step_spikes)``: ``make()`` runs the plans one after another through
    ``_layer_major`` into ``step_scores`` [R, T, N, classes] and, with
    ``spikes``, ``step_spikes`` [R, T, L, N] (None without). It allocates
    nothing and calls nothing public, so a helper thread may run it.
    """
    x = _prefix(model, plans[0], batch)
    n, widths = len(x), _widths(plans[0], x)
    phi = max(c.phi for plan in plans for _, c, *_ in plan.spiking)
    ws = _Workspace.of([n * w for w in (widths[0], *widths)], timesteps, np.min_scalar_type(phi),
                       units=max(widths[:-1]) if spikes else 0)
    step_scores = np.empty((len(plans), timesteps, n, widths[-1]))
    shape = (len(plans), timesteps, len(widths) - 1, n)
    step_spikes = np.empty(shape, np.int64) if spikes else None

    def make():
        for i, plan in enumerate(plans):
            _layer_major(plan, 0, x, timesteps, ws, membrane_init, step_scores[i],
                         None if step_spikes is None else step_spikes[i])

    return make, step_scores, step_spikes


def _recorded(plan: _RunPlan, step_scores: np.ndarray, step_spikes: np.ndarray) -> SnnRun:
    """The ``SnnRun`` of a whole run of ``plan`` that ``_layer_major``
    recorded; such a run keeps no membranes."""
    return SnnRun(scores=step_scores[-1], stats=_stats(plan.fanout, step_spikes), v_last={},
                  step_scores=step_scores, step_spikes=step_spikes)


def _two_lanes(plan: _RunPlan, x: np.ndarray, timesteps: int, membrane_init: float):
    """A whole run of ``plan`` (whose every feeder after the first is one
    dense layer) fed the constant current ``x``, on two lanes of
    ``_layer_major``, set up here: both lanes' workspaces
    (``_Workspace.lanes``) and the records. Returns ``(lanes, step_scores,
    step_spikes)``: ``lanes[i]()`` runs lane i, and the two must run at the
    same time, on two threads. A lane that raises stops the other, which
    then returns. Neither allocates an array or calls anything public.
    """
    n, widths = len(x), _widths(plan, x)
    phi = max(c.phi for _, c, *_ in plan.spiking)
    workspaces = _Workspace.lanes([n * w for w in (widths[0], *widths)],
                                  np.min_scalar_type(phi), max(widths[:-1]))
    step_scores = np.empty((timesteps, n, widths[-1]))
    step_spikes = np.empty((timesteps, len(widths) - 1, n), np.int64)
    order = _Lanes(len(widths) - 1)

    def lane(i):
        try:
            _layer_major(plan, 0, x, timesteps, workspaces[i], membrane_init, step_scores,
                         step_spikes, (order, i))
        except BaseException:
            order.fail()
            raise

    return (functools.partial(lane, 0), functools.partial(lane, 1)), step_scores, step_spikes


def _eval_run(model: ModelGraph, configs: list[LayerSnnConfig], batch, timesteps: int,
              membrane_init: float):
    """A whole run of ``configs`` on ``batch``, begun now and made later:
    returns ``go()``, which makes the run and returns its ``SnnRun``, whose
    records are ``run_snn``'s bit for bit; it keeps no membranes.

    A model whose every feeder after the first is one dense layer (an
    MLP) with at least ``_LANES_MIN_LAYERS`` spiking layers runs on two
    lanes (``_two_lanes``): spiking layer s on lane s % 2 and the head on
    lane L % 2, the calling thread being lane 0 and one helper thread
    lane 1. The constant current is computed here, so ``go``
    keeps no reference to ``batch`` and the caller may drop it first; ``go``
    then allocates the workspaces and records, on the calling thread,
    before the helper starts. What a lane raises, ``go`` raises, after both
    lanes have stopped. Any other model (every CNN, and an MLP of one or
    two spiking layers) is ``run_snn`` on ``batch``, in ``go``.
    """
    plan = _check_run(model, configs, timesteps)
    if not (len(plan.spiking) >= _LANES_MIN_LAYERS and all(map(_single_dense, plan.feeds[1:]))):
        return lambda: run_snn(model, configs, batch, timesteps, membrane_init=membrane_init)
    x = _prefix(model, plan, batch)

    def go() -> SnnRun:
        lanes, step_scores, step_spikes = _two_lanes(plan, x, timesteps, membrane_init)
        with _on_helper(lanes[1], "spikecal-lane"):
            lanes[0]()
        return _recorded(plan, step_scores, step_spikes)

    return go


@contextlib.contextmanager
def _on_helper(work, name: str):
    """Run ``work()`` on one helper thread, named ``name``, while the
    ``with`` block runs on the calling thread. Leaving the block, however
    it is left, joins the helper; then what ``work`` raised, whatever its
    kind, is raised again here, unless the block raised first."""
    errors = []

    def target():
        try:
            work()
        except BaseException as err:  # raised again on the calling thread
            errors.append(err)

    helper = threading.Thread(target=target, name=name)
    helper.start()
    try:
        yield
    finally:
        helper.join()
    if errors:
        raise errors[0]


def _counted(step_spikes: np.ndarray, last) -> np.ndarray:
    """A [T, L, N] unit-spike record with input n's steps after ``last[n]``
    zeroed; a scalar ``last`` stops every input at the same step."""
    return step_spikes * (np.arange(len(step_spikes))[:, None, None] <= np.asarray(last))


def _stats(fanout: dict[int, float], step_spikes: np.ndarray) -> RunStats:
    """The spike counts of a [T, L, N] unit-spike record, every entry
    counted; ``fanout`` maps each spiking layer's graph index, in layer
    order, to its ``layer_fanout``."""
    counts = {idx: int(c) for idx, c in zip(fanout, step_spikes.sum(axis=(0, 2)))}
    return RunStats(
        total_spikes=sum(counts.values()),
        layer_spikes=counts,
        layer_synops={i: c * fanout[i] for i, c in counts.items()},
    )


def _fanouts(model: ModelGraph) -> dict[int, float]:
    return {i: layer_fanout(model, i) for i in spiking_layer_indices(model)}


def stats_at(model: ModelGraph, step_spikes: np.ndarray, last) -> RunStats:
    """Spike counts of a run that stops input n after step ``last[n]``.

    ``step_spikes`` is a run's [T, L, N] array and steps count from 0; a
    scalar ``last`` stops every input at the same step.
    """
    return _stats(_fanouts(model), _counted(step_spikes, last))


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
    plan = _check_run(model, configs, timesteps)
    step_scores, step_spikes, v_last, trains = _simulate(
        plan, 0, _check_batch(model, np.asarray(batch, dtype=np.float64)), timesteps,
        membrane_init, keep_trains=record_trains,
    )
    return SnnRun(
        scores=step_scores[-1],
        stats=_stats(plan.fanout, step_spikes),
        v_last=v_last,
        step_scores=step_scores,
        step_spikes=step_spikes,
        trains=trains,
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


def dump_trace(run: SnnRun, path) -> None:
    """Write the nonzero emissions of the run's first input as CSV rows.

    Columns: layer, timestep, neuron_index, emitted_amplitude. Requires the
    run to have been made with ``record_trains=True``.
    """
    if run.trains is None:
        raise ValueError("run was made without record_trains=True")
    lines = ["layer,timestep,neuron_index,emitted_amplitude"]
    for layer_idx in sorted(run.trains):
        train = run.trains[layer_idx]
        for t in range(len(train.counts)):
            flat = train.amplitudes(t)[0].reshape(-1)
            for neuron in np.nonzero(flat)[0]:
                lines.append(f"{layer_idx},{t + 1},{int(neuron)},{float(flat[neuron])!r}")
    store.write_atomic(path, lines)
