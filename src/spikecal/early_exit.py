"""Confidence-gated adaptive timesteps for converted nets.

At each step the cumulative score vector (accumulated head membrane divided
by t) is turned into a confidence

    c = 1 - H(softmax(scores)) / ln(classes)

and the input exits at the first step where c clears a boundary. Boundaries
come from calibration-set entropy statistics:

    alpha_t = alpha_base + beta * exp(-(Ebar_t - Ebar_min) / delta)

so steps whose mean entropy is near the minimum demand the most confidence,
and the gate relaxes as entropy climbs away from it. ``beta = 0`` collapses to
a fixed boundary. Exits never change the dynamics, so the gate reads the
per-step record of any run at least ``t_max`` steps long (``apply_gate``).
``infer_adaptive`` gives the same trace while it simulates: it runs the
simulation loop every run uses (``engine._simulate``) with the gate as its
``stop``, gates each step as it comes, and stops after the step where the
last input exits, so an exit saves wall-clock time as well as spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import store
from .engine import (
    DEFAULT_MEMBRANE_INIT,
    LayerSnnConfig,
    RunStats,
    SnnRun,
    _check_run,
    _counted,
    _fanouts,
    _simulate,
    _stats,
    run_snn,
)
from .nn import ModelGraph, _check_batch, softmax
from .store import CalibrationCache

_EPS = 1e-12
# the most alpha_base and beta may be in magnitude: a boundary stays finite
_F32_MAX = float(np.finfo(np.float32).max)


def entropy(p) -> np.ndarray | float:
    """Shannon entropy in nats along the last axis; inputs are renormalized."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape[-1] == 0:
        raise ValueError("entropy of a zero-length distribution")
    arr = np.maximum(arr, _EPS)
    arr = arr / arr.sum(axis=-1, keepdims=True)
    h = -np.sum(arr * np.log(arr), axis=-1)
    return float(h) if h.ndim == 0 else h


def confidence(scores, class_count: int):
    """Exit confidence in [0, 1] from raw scores: 1 - H(softmax)/ln(classes)."""
    c = _confidence(np.asarray(scores, dtype=np.float64), _log_classes(class_count))
    return float(c) if c.ndim == 0 else c


def _log_classes(class_count: int):
    """``np.log(class_count)``, the entropy of a uniform guess, which
    ``confidence`` divides by; one class has none."""
    if class_count < 2:
        raise ValueError(f"confidence needs >= 2 classes, got {class_count}")
    return np.log(class_count)


def _confidence(s: np.ndarray, log_classes) -> np.ndarray:
    """``confidence`` of float64 scores, given ``np.log(class_count)``.

    softmax, entropy and np.clip, operation for operation, calling the
    ufuncs without their wrappers: the serve path gates after every step.
    """
    e = np.exp(s - np.maximum.reduce(s, axis=-1, keepdims=True))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    np.maximum(p, _EPS, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    h = -np.add.reduce(p * np.log(p), axis=-1)
    # 0.0 goes first so that a -0.0 stays -0.0, as np.clip leaves it
    return np.minimum(np.maximum(0.0, 1.0 - h / log_classes), 1.0)


@dataclass(frozen=True)
class ExitPolicy:
    """Per-step exit boundaries derived from calibration entropy.

    Frozen: ``mean_entropy`` is kept as a read-only float64 copy, so the
    boundaries are computed once, here, and ``boundaries()`` returns them
    (read-only too) to every request.
    """

    alpha_base: float
    beta: float
    delta: float
    t_max: int
    mean_entropy: np.ndarray
    _boundaries: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ebar = np.array(self.mean_entropy, dtype=np.float64)
        ebar.flags.writeable = False
        # exp(-q) is 0.0 for every q past 746, so capping the gap at 746
        # deltas changes no boundary, and a tiny delta cannot overflow q
        gap = np.minimum(ebar - ebar.min(), 746.0 * self.delta)
        bounds = self.alpha_base + self.beta * np.exp(-gap / self.delta)
        bounds.flags.writeable = False
        object.__setattr__(self, "mean_entropy", ebar)
        object.__setattr__(self, "_boundaries", bounds)

    def boundaries(self) -> np.ndarray:
        return self._boundaries


def fit_exit_policy(
    model: ModelGraph,
    configs: list[LayerSnnConfig],
    cache: CalibrationCache,
    t_max: int,
    alpha_base: float = 0.7,
    beta: float = 0.2,
    delta: float = 1.0,
    *,
    membrane_init: float = DEFAULT_MEMBRANE_INIT,
) -> ExitPolicy:
    """Record mean cumulative-score entropy per step on the calibration set."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    cache.check_model(model)
    run = run_snn(model, configs, cache.inputs, t_max, membrane_init=membrane_init)
    return _policy(run.step_scores, alpha_base, beta, delta)


def _policy(step_scores: np.ndarray, alpha_base: float, beta: float, delta: float) -> ExitPolicy:
    """The policy of a calibration run's [T, N, classes] cumulative scores:
    the mean entropy of each step's softmax, one boundary per step."""
    ebar = entropy(softmax(step_scores, axis=-1)).mean(axis=1)
    return ExitPolicy(
        alpha_base=float(alpha_base),
        beta=float(beta),
        delta=float(delta),
        t_max=len(step_scores),
        mean_entropy=np.asarray(ebar, dtype=np.float64),
    )


@dataclass
class ExitTrace:
    """Per-input exit decisions plus run aggregates."""

    exit_t: np.ndarray
    confidence: np.ndarray
    predicted: np.ndarray
    scores: np.ndarray
    spikes_per_input: np.ndarray
    stats: RunStats
    labels: np.ndarray | None = None

    @property
    def mean_exit_t(self) -> float:
        return float(np.mean(self.exit_t))

    @property
    def accuracy(self) -> float | None:
        if self.labels is None:
            return None
        return float(np.mean(self.predicted == self.labels))


def apply_gate(model: ModelGraph, run: SnnRun, policy: ExitPolicy, labels=None) -> ExitTrace:
    """Gate each input of ``run``; spike accounting stops at its exit.

    Only the first ``policy.t_max`` steps are read. They are what a
    ``t_max``-step run records, so a longer run gates the same way.
    """
    t_max = policy.t_max
    if len(run.step_scores) < t_max:
        raise ValueError(f"run has {len(run.step_scores)} steps, the policy needs {t_max}")
    step_scores = run.step_scores[:t_max]  # [T, N, Y]
    conf = confidence(step_scores, model.class_count)  # [T, N]
    hit = conf >= policy.boundaries()[:, None]
    return _trace(_fanouts(model), step_scores, run.step_spikes[:t_max], conf, hit, labels)


def _trace(fanout, step_scores, step_spikes, conf, hit, labels) -> ExitTrace:
    """The exit trace read from a run's first steps, their confidences and
    where those clear the boundary (``hit``); ``fanout`` is each spiking
    layer's ``layer_fanout`` (see ``engine._stats``).

    Input n exits at its first hit. An input without one exits at the last
    step given, which must then be step ``t_max``. ``labels``, when given,
    hold one label per input.
    """
    n = step_scores.shape[1]
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError(
                f"{n} inputs but labels of shape {labels.shape}: need one label per input"
            )
    exit_idx = np.where(hit.any(axis=0), hit.argmax(axis=0), len(hit) - 1)
    picker = (exit_idx, np.arange(n))
    scores = step_scores[picker]
    counted = _counted(step_spikes, exit_idx)
    return ExitTrace(
        exit_t=(exit_idx + 1).astype(np.int64),
        confidence=conf[picker],
        predicted=scores.argmax(axis=1).astype(np.int64),
        scores=scores,
        spikes_per_input=counted.sum(axis=(0, 1)),
        stats=_stats(fanout, counted),
        labels=labels,
    )


def infer_adaptive(
    model: ModelGraph,
    configs: list[LayerSnnConfig],
    policy: ExitPolicy,
    batch,
    labels=None,
    *,
    membrane_init: float = DEFAULT_MEMBRANE_INIT,
) -> ExitTrace:
    """Simulate and gate each input, stopping once every input has exited.

    This is ``run_snn``'s loop (``engine._simulate``) with the gate as its
    ``stop``: each step runs every layer for every input and is gated as
    soon as it is made; the run ends after the step where the last input
    exits, or at ``policy.t_max``, so an input that exits at step t costs t
    steps. No input is dropped from the batch, so every product is the one a
    full run makes, and the trace equals ``apply_gate`` on a ``t_max``-step
    ``run_snn`` in every field, bit for bit.
    """
    t_max = policy.t_max
    plan = _check_run(model, configs, t_max)
    x0 = _check_batch(model, np.asarray(batch, dtype=np.float64))
    log_classes = _log_classes(model.class_count)
    boundaries = policy.boundaries()
    conf = np.empty((t_max, len(x0)))
    hit = np.empty((t_max, len(x0)), dtype=bool)
    waiting = np.ones(len(x0), dtype=bool)

    def gate(t, scores):
        conf[t] = _confidence(scores, log_classes)
        np.greater_equal(conf[t], boundaries[t], out=hit[t])
        waiting[hit[t]] = False
        return not np.count_nonzero(waiting)

    step_scores, step_spikes = _simulate(plan, 0, x0, t_max, membrane_init, stop=gate)[:2]
    steps = len(step_scores)
    return _trace(plan.fanout, step_scores, step_spikes, conf[:steps], hit[:steps], labels)


# ---------------------------------------------------------------------------
# persistence

def save_policy(policy: ExitPolicy, path) -> None:
    lines = [
        "format snnc-exit-policy",
        f"alpha_base {policy.alpha_base!r}",
        f"beta {policy.beta!r}",
        f"delta {policy.delta!r}",
        f"t_max {policy.t_max}",
        "confidence_kind entropy",  # the only kind; the line stays part of the format
    ]
    for t, value in enumerate(policy.mean_entropy, start=1):
        lines.append(f"mean_entropy t {t} value {float(value)!r}")
    store.write_atomic(path, lines)


def load_policy(path) -> ExitPolicy:
    """Read a policy; every key is required and ``mean_entropy`` runs t = 1..t_max.

    Every value is finite, as ``fit_exit_policy`` makes them, each mean
    entropy is not negative, and ``alpha_base`` and ``beta`` are at most the
    largest float32 in magnitude, as the config demands, so a boundary
    cannot overflow.
    """
    doc = store.read_lines(path, "format snnc-exit-policy")

    def finite(*pattern, low=-math.inf, bound=math.inf):
        """The float ending the next line, which must be finite, at least
        ``low`` and at most ``bound`` in magnitude."""
        (value,) = doc.take(*pattern, float)
        if not (math.isfinite(value) and value >= low and abs(value) <= bound):
            rule = "finite and not negative" if low == 0 else "finite"
            if bound < math.inf:
                rule += f" and at most {bound!r} in magnitude (the largest float32)"
            raise doc.error(f"{pattern[0]} must be {rule}, got {value!r}")
        return value

    alpha_base, beta = finite("alpha_base", bound=_F32_MAX), finite("beta", bound=_F32_MAX)
    delta = finite("delta")
    if not delta > 0:
        raise doc.error(f"delta must be positive, got {delta!r}")
    (t_max,) = doc.take("t_max", int)
    if t_max < 1:
        raise doc.error("t_max must be at least 1")
    doc.take("confidence_kind", "entropy")
    entries = [finite("mean_entropy", "t", str(t), "value", low=0.0) for t in range(1, t_max + 1)]
    doc.end()
    return ExitPolicy(
        alpha_base=alpha_base,
        beta=beta,
        delta=delta,
        t_max=t_max,
        mean_entropy=np.asarray(entries, dtype=np.float64),
    )


_EXIT_TRACE_HEADER = "input_index,exit_t,confidence,predicted,label"


def write_exit_trace(path, trace: ExitTrace) -> None:
    lines = [_EXIT_TRACE_HEADER]
    labels = trace.labels
    for i in range(len(trace.exit_t)):
        label = "" if labels is None else int(labels[i])
        lines.append(
            f"{i},{int(trace.exit_t[i])},{float(trace.confidence[i])!r},"
            f"{int(trace.predicted[i])},{label}"
        )
    store.write_atomic(path, lines)


def load_exit_steps(path, t_max: int) -> np.ndarray:
    """The ``exit_t`` column of an exit trace; rows run 0, 1, ... and exit within t_max."""
    doc = store.read_lines(path, _EXIT_TRACE_HEADER, sep=",")
    exits: list[int] = []
    while doc.peek():
        index, exit_t, _, _, _ = doc.take(int, int, float, int, str)
        if index != len(exits):
            raise doc.error(f"expected input_index {len(exits)}, found {index}")
        if not 1 <= exit_t <= t_max:
            raise doc.error(f"exit_t {exit_t} outside 1..{t_max}")
        exits.append(exit_t)
    return np.asarray(exits, dtype=np.int64)
