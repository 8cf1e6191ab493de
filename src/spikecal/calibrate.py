"""Threshold fitting, bias correction, and conversion-error accounting.

The quantized stand-in for relu under rate coding is

    clip_floor(x, T, v_th, phi) = (v_th / T) * clip(floor(T * x / v_th), 0, T * phi)

With a well-chosen threshold the converted net's per-layer firing rate tracks
this curve to within one quantum, so thresholds are fitted by minimizing the
mean squared gap between ``clip_floor`` and the cached analog activations on
one geometric candidate grid between the 50th and 99.9th activation
percentiles (the 99.9th is the robust scale of Rueckauer et al., "Conversion
of Continuous-Valued Deep Networks to Efficient Event-Driven Networks",
2017). Bias calibration then removes per-channel mean offsets layer by
layer, in one walk over the calibration set whose final trains
``measure_unevenness`` reduces: it splits what is left into clipping,
quantization, and timing (unevenness) components without simulating again.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import store
from .engine import (
    DEFAULT_MEMBRANE_INIT,
    ConfigMismatchError,
    LayerSnnConfig,
    SpikeTrain,
    _V_TH_MIN,
    _currents,
    _on_helper,
    _run_layer,
    spiking_layer_indices,
)
from .nn import ModelGraph, _check_batch
from .store import CalibrationCache


def clip_floor(x, timesteps: int, v_th: float, phi: int = 1):
    """Rate-coded relu surrogate; saturates at ``v_th * phi``."""
    arr = np.asarray(x, dtype=np.float64)
    scaled = np.multiply(arr, timesteps, out=np.empty(arr.shape))
    # [()] hands a 0-d result back as a numpy scalar, as a ufunc would
    return _clip_floor_into(scaled, scaled, timesteps, v_th, phi)[()]


def _clip_floor_into(out, scaled, timesteps, v_th, phi):
    """``clip_floor(x, ...)`` from ``scaled = x * timesteps``, written into
    ``out`` (which may be ``scaled``), so a caller trying many thresholds on
    one ``x`` scales it once and reuses one buffer."""
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    if not v_th > 0:
        raise ValueError(f"v_th must be positive, got {v_th}")
    if phi < 1:
        raise ValueError(f"phi must be >= 1, got {phi}")
    np.divide(scaled, v_th, out=out)
    np.floor(out, out=out)
    np.clip(out, 0.0, float(timesteps) * phi, out=out)
    return np.multiply(v_th / timesteps, out, out=out)


@dataclass
class ThresholdFit:
    layer: int
    v_th: float
    grid: np.ndarray
    mse: float
    grid_mse: np.ndarray
    degenerate: bool = False


@dataclass
class _PendingFit:
    """One fit set up for its scoring loop (``_score_grid``): the float64
    activations ``a``, ``scaled = a * timesteps``, the error buffer ``err``
    and the candidate ``grid`` with its ``mse`` row, which the loop fills."""

    layer: int
    degenerate: bool
    timesteps: int
    a: np.ndarray
    scaled: np.ndarray
    err: np.ndarray
    grid: np.ndarray
    mse: np.ndarray

    def fit(self) -> ThresholdFit:
        """The fit, once ``_score_grid`` has run: each candidate's summed
        squared gap becomes its mean, as ``np.mean`` divides its sum."""
        np.divide(self.mse, self.a.size, out=self.mse)
        best = int(np.argmin(self.mse))  # argmin takes the first (smallest) on ties
        return ThresholdFit(
            layer=self.layer,
            v_th=float(self.grid[best]),
            grid=self.grid,
            mse=float(self.mse[best]),
            grid_mse=self.mse,
            degenerate=self.degenerate,
        )


def _fit_setup(activations, timesteps: int, grid_size: int, layer: int) -> _PendingFit:
    """Everything of ``fit_threshold`` before its candidate loop: the
    percentiles, the grid and every array the loop reads or writes."""
    a = np.asarray(activations, dtype=np.float64).reshape(-1)
    if a.size == 0:
        raise ValueError("cannot fit a threshold to zero activations")
    # one partition gives both order statistics, each as a call of its own would
    hi, median = (float(q) for q in np.percentile(a, [99.9, 50.0]))
    degenerate = hi < _V_TH_MIN
    if degenerate:
        lo, hi = 1e-3, 1.0
    else:
        lo = max(median, hi * 1e-3, _V_TH_MIN)
    candidates = np.geomspace(lo, hi, grid_size)
    # geomspace may round a step just below a lo of _V_TH_MIN
    np.maximum(candidates, _V_TH_MIN, out=candidates)
    mse = np.empty(len(candidates), dtype=np.float64)
    return _PendingFit(int(layer), degenerate, timesteps, a, a * timesteps,
                       np.empty_like(a), candidates, mse)


def _score_grid(fit: _PendingFit) -> None:
    """The candidate loop of a fit, in place: ``fit.mse[i]`` becomes the sum
    of ``(clip_floor(a) - a)**2`` at candidate i, the sum ``np.mean`` takes
    (``_PendingFit.fit`` divides). Every ufunc writes into the buffers
    ``_fit_setup`` made, so it makes no array beyond numpy's scalars; it
    makes no BLAS call and calls nothing public, so it may run on the
    helper thread of ``walk_thresholds`` (README, "Library surface")."""
    a, scaled, err, mse, timesteps = fit.a, fit.scaled, fit.err, fit.mse, fit.timesteps
    for i, cand in enumerate(fit.grid):
        # err = clip_floor(a, timesteps, cand) - a, squared, in one buffer
        _clip_floor_into(err, scaled, timesteps, float(cand), 1)
        np.subtract(err, a, out=err)
        np.multiply(err, err, out=err)
        mse[i] = np.add.reduce(err, axis=None)


def fit_threshold(
    activations, timesteps: int, grid_size: int = 64, layer: int = -1
) -> ThresholdFit:
    """Pick the grid candidate minimizing MSE(clip_floor(a), a) at ``phi = 1``.

    The grid is ``grid_size`` geometric steps between the 50th and 99.9th
    percentiles of the activations (the 50th raised to a thousandth of the
    99.9th if below it, and to the smallest threshold a config takes,
    ``engine._V_TH_MIN``); ties go to the smallest candidate. A 99.9th
    percentile below that smallest threshold, zero included, cannot anchor
    it: the fit then scores the fallback grid from 1e-3 to 1 and is flagged
    ``degenerate``.
    """
    pending = _fit_setup(activations, timesteps, grid_size, layer)
    _score_grid(pending)
    return pending.fit()


def fit_all_thresholds(
    model: ModelGraph, cache: CalibrationCache, timesteps: int, grid_size: int = 64
) -> list[ThresholdFit]:
    """One single-spike (``phi = 1``) threshold fit per spiking layer."""
    cache.check_model(model)
    return [
        fit_threshold(cache.taps[idx], timesteps, grid_size, layer=idx)
        for idx in spiking_layer_indices(model)
    ]


def walk_thresholds(
    model: ModelGraph, cache: CalibrationCache, timesteps: int, grid_size: int = 64
) -> Iterator[ThresholdFit]:
    """``fit_all_thresholds``' fits, one at a time, each next layer's scored
    on a helper thread while the caller works on the layer just yielded.

    The first layer is fitted on the calling thread. After that, each yield
    of layer p's fit leaves layer p+1's candidate loop (``_score_grid``)
    running on one helper thread, set up (``_fit_setup``) beforehand on the
    calling thread; the next ``next()`` joins it and raises what it raised.
    ``calibrate_biases`` pulls a config per layer, so layer p+1 is scored
    while layer p is calibrated. ``close()`` joins a helper still running;
    a walk not run to its end must be closed.
    """
    cache.check_model(model)
    return _walk(cache.taps, spiking_layer_indices(model), timesteps, grid_size)


def _walk(taps, indices: list[int], timesteps: int, grid_size: int):
    if not indices:
        return
    pending = _fit_setup(taps[indices[0]], timesteps, grid_size, indices[0])
    _score_grid(pending)
    for nxt in indices[1:]:
        # drop the scored fit's buffers before the next fit makes its own
        fit, pending = pending.fit(), None
        pending = _fit_setup(taps[nxt], timesteps, grid_size, nxt)
        with _on_helper(functools.partial(_score_grid, pending), "spikecal-fit"):
            yield fit
    fit, pending = pending.fit(), None  # and the last fit's before the last layer's work
    yield fit


def configs_from_fits(fits: list[ThresholdFit]) -> list[LayerSnnConfig]:
    return [LayerSnnConfig(v_th=f.v_th) for f in fits]


def _channel_axes(tap: np.ndarray) -> tuple[int, ...]:
    # dense taps are [S, F] (reduce samples); conv taps [S, C, H, W] (reduce
    # samples and space, keep channels)
    if tap.ndim <= 2:
        return (0,)
    return (0, *range(2, tap.ndim))


def calibrate_biases(
    model: ModelGraph,
    configs: Iterable[LayerSnnConfig],
    cache: CalibrationCache,
    timesteps: int,
    *,
    membrane_init: float = DEFAULT_MEMBRANE_INIT,
) -> tuple[ModelGraph, dict[int, SpikeTrain]]:
    """A copy of ``model`` with per-channel mean rate offsets folded into the
    biases feeding each spiking layer, and each spiking layer's train on the
    calibration inputs under those biases, keyed by graph layer index.

    Works input to output so each correction sees the layers before it
    already corrected. One walk over the layers: each spiking layer is
    simulated from the corrected train of the layer before it, once to
    measure its rates and once more, after its feeder's bias is corrected,
    to give its final train. That train feeds the next layer and is
    returned: the trains equal, bit for bit, what ``run_snn(corrected,
    configs, cache.inputs, timesteps, record_trains=True)`` records, so
    ``measure_unevenness`` reads them without another simulation.

    ``configs`` is read one layer at a time, as the walk reaches each
    spiking layer, so an iterator may make each config just in time (as
    ``convert`` does from ``walk_thresholds``). A sequence of the wrong
    length is rejected before any work; an iterator when it runs short or
    holds more configs than the model has spiking layers.
    """
    cache.check_model(model)
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    corrected = model.clone()
    indices = spiking_layer_indices(corrected)

    def mismatch(got):
        return ConfigMismatchError(f"model has {len(indices)} spiking layers, got {got} configs")

    if isinstance(configs, Sequence) and len(configs) != len(indices):
        raise mismatch(len(configs))
    configs = iter(configs)
    source = _check_batch(corrected, np.asarray(cache.inputs, dtype=np.float64))
    start, trains = 0, {}
    for pos, idx in enumerate(indices):
        config = next(configs, None)
        if config is None:
            raise mismatch(pos)
        segment = corrected.layers[start:idx]
        currents = _currents(segment, source, timesteps)
        rates = _run_layer(currents, config, timesteps, membrane_init)[0].rate()
        tap = np.asarray(cache.taps[idx], dtype=np.float64)
        axes = _channel_axes(tap)
        correction = tap.mean(axis=axes) - rates.mean(axis=axes)
        feeder = corrected.layers[idx - 1]
        feeder.bias = (feeder.bias.astype(np.float64) + correction).astype(np.float32)
        currents = _currents(segment, source, timesteps)
        source, _ = _run_layer(currents, config, timesteps, membrane_init)
        trains[idx], start = source, idx + 1
    if next(configs, None) is not None:
        raise mismatch(f"more than {len(indices)}")
    return corrected, trains


def _error_parts(x: np.ndarray, rate: np.ndarray, cfg: LayerSnnConfig,
                 timesteps: int) -> dict[str, np.ndarray]:
    """The gap between ``rate`` and the analog activations ``x``, split by cause.

    total = clipping + quantization + unevenness, elementwise:
      clipping      clip(x, 0, cap) - x          (capacity ceiling)
      quantization  clip_floor(x) - clip(x, 0, cap)   (rate granularity)
      unevenness    measured rate - clip_floor(x)     (arrival timing)
    """
    clipped = np.clip(x, 0.0, cfg.threshold * cfg.phi)
    floored = clip_floor(x, timesteps, cfg.threshold, cfg.phi)
    return {
        "total": rate - x,
        "clipping": clipped - x,
        "quantization": floored - clipped,
        "unevenness": rate - floored,
    }


@dataclass
class LayerErrorBreakdown:
    """One layer's conversion error (``_error_parts``), kept as summaries.

    For each part: the mean and the max of its absolute values and the sum
    of its squares, over every calibration sample and neuron.
    """

    layer: int
    means: dict[str, float]
    maxima: dict[str, float]
    squares: dict[str, float]

    @classmethod
    def of(cls, layer: int, parts: dict[str, np.ndarray]) -> LayerErrorBreakdown:
        means, maxima, squares = {}, {}, {}
        for k, a in parts.items():
            magnitude = np.abs(a)
            means[k] = float(np.mean(magnitude))
            maxima[k] = float(np.max(magnitude))
            # |a|**2 is a**2 bit for bit, so the buffer is squared in place
            squares[k] = float(np.sum(np.square(magnitude, out=magnitude)))
        return cls(layer=layer, means=means, maxima=maxima, squares=squares)

    def mean_abs(self, which: str = "total") -> float:
        return self.means[which]

    def max_abs(self, which: str = "total") -> float:
        return self.maxima[which]

    def squared_shares(self) -> dict[str, float]:
        parts = {k: self.squares[k] for k in ("clipping", "quantization", "unevenness")}
        denom = sum(parts.values())
        if denom == 0.0:
            return {k: 0.0 for k in parts}
        return {k: v / denom for k, v in parts.items()}


def measure_unevenness(
    taps: dict[int, np.ndarray],
    trains: dict[int, SpikeTrain],
    configs: list[LayerSnnConfig],
    timesteps: int,
) -> list[LayerErrorBreakdown]:
    """Three-way conversion error decomposition of each spiking layer, in
    layer order.

    ``trains`` are the spiking layers' ``timesteps``-step trains keyed by
    graph layer index, as ``calibrate_biases`` returns them or
    ``run_snn(..., record_trains=True).trains`` records them; ``configs``
    are theirs, in layer order, and ``taps`` the analog activations of the
    same inputs (``CalibrationCache.taps``). Rates come from trains of a
    whole-net walk, so later layers see real upstream spike traffic.
    Nothing is simulated here. Each layer's error arrays are reduced to
    their summaries as soon as they are formed, so at most one layer's are
    held at a time.
    """
    if len(trains) != len(configs):
        raise ConfigMismatchError(f"{len(trains)} trains for {len(configs)} configs")
    out = []
    for cfg, idx in zip(configs, sorted(trains)):
        train = trains[idx]
        if train.threshold != cfg.threshold or len(train.counts) != timesteps:
            raise ConfigMismatchError(
                f"layer {idx}: train of {len(train.counts)} steps at threshold "
                f"{train.threshold!r}, expected {timesteps} at {cfg.threshold!r}"
            )
        x = np.asarray(taps[idx], dtype=np.float64)
        out.append(LayerErrorBreakdown.of(idx, _error_parts(x, train.rate(), cfg, timesteps)))
    return out


def write_calibration_report(
    path, fits: list[ThresholdFit], breakdowns: list[LayerErrorBreakdown]
) -> None:
    """Human-readable conversion summary: fitted grids and error shares."""
    lines = ["format snnc-calibration-report"]
    for fit in fits:
        lines.append(
            f"threshold layer {fit.layer} v_th {fit.v_th!r} degenerate {str(fit.degenerate).lower()}"
        )
        for cand, m in zip(fit.grid, fit.grid_mse):
            lines.append(f"mse layer {fit.layer} candidate {float(cand)!r} value {float(m)!r}")
    for b in breakdowns:
        shares = b.squared_shares()
        lines.append(
            f"errors layer {b.layer} "
            f"mean_abs_total {b.mean_abs('total')!r} "
            f"mean_abs_clipping {b.mean_abs('clipping')!r} "
            f"mean_abs_quantization {b.mean_abs('quantization')!r} "
            f"mean_abs_unevenness {b.mean_abs('unevenness')!r} "
            f"max_abs_total {b.max_abs('total')!r} "
            f"share_clipping {shares['clipping']!r} "
            f"share_quantization {shares['quantization']!r} "
            f"share_unevenness {shares['unevenness']!r}"
        )
    store.write_atomic(path, lines)
