"""Minimal dense-tensor math and deterministic forward passes.

Everything is plain numpy with float32 parameters, row-major layout. Dense
weights are stored ``[out, in]``, conv weights ``[out_ch, in_ch, kh, kw]``.
The only nonlinearity is relu and a valid model always ends in a dense
classifier head, so converted runs can read the head as an accumulator.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

Tensor = np.ndarray

LAYER_KINDS = ("dense", "conv2d", "avgpool2d", "flatten", "relu")


class ShapeError(ValueError):
    """Shapes that do not compose, with the offending layer named."""


def as_tensor(values, shape=None) -> Tensor:
    """Return a validated float32, C-ordered array. Rejects NaN/Inf."""
    arr = np.ascontiguousarray(values, dtype=np.float32)
    if shape is not None:
        try:
            arr = arr.reshape(shape)
        except ValueError:
            raise ShapeError(f"cannot view {arr.shape} as {tuple(shape)}") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    return arr


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


@dataclass
class LayerSpec:
    """One layer of a feed-forward graph.

    Hyperparameters that do not apply to ``kind`` stay ``None``; ``weight``
    and ``bias`` are populated only for dense and conv2d layers.
    """

    kind: str
    in_features: int | None = None
    out_features: int | None = None
    in_channels: int | None = None
    out_channels: int | None = None
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    padding: tuple[int, int] | None = None
    weight: Tensor | None = None
    bias: Tensor | None = None
    # (weight, bias, float64 W.T, float64 b), filled by the engine for
    # read-only parameters (``engine._float64_operands``)
    float64_operands: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")

    def __getstate__(self):
        # a copy (``ModelGraph.clone``) starts without the engine's cache
        return {**self.__dict__, "float64_operands": None}

    @property
    def parameterized(self) -> bool:
        return self.kind in ("dense", "conv2d")


def dense(in_features: int, out_features: int, weight=None, bias=None) -> LayerSpec:
    if weight is None:
        weight = np.zeros((out_features, in_features), dtype=np.float32)
    if bias is None:
        bias = np.zeros((out_features,), dtype=np.float32)
    return LayerSpec(
        kind="dense",
        in_features=int(in_features),
        out_features=int(out_features),
        weight=as_tensor(weight, (out_features, in_features)),
        bias=as_tensor(bias, (out_features,)),
    )


def conv2d(in_channels, out_channels, kernel, stride=1, padding=0, weight=None, bias=None) -> LayerSpec:
    kh, kw = _pair(kernel)
    if weight is None:
        weight = np.zeros((out_channels, in_channels, kh, kw), dtype=np.float32)
    if bias is None:
        bias = np.zeros((out_channels,), dtype=np.float32)
    return LayerSpec(
        kind="conv2d",
        in_channels=int(in_channels),
        out_channels=int(out_channels),
        kernel=(kh, kw),
        stride=_pair(stride),
        padding=_pair(padding),
        weight=as_tensor(weight, (out_channels, in_channels, kh, kw)),
        bias=as_tensor(bias, (out_channels,)),
    )


def avgpool2d(kernel, stride=None) -> LayerSpec:
    k = _pair(kernel)
    s = k if stride is None else _pair(stride)
    return LayerSpec(kind="avgpool2d", kernel=k, stride=s)


def flatten() -> LayerSpec:
    return LayerSpec(kind="flatten")


def relu() -> LayerSpec:
    return LayerSpec(kind="relu")


def layer_output_shape(layer: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Feature shape (batch excluded) produced by ``layer`` on ``in_shape``."""
    kind = layer.kind
    if kind == "dense":
        if len(in_shape) != 1 or in_shape[0] != layer.in_features:
            raise ShapeError(f"dense expects ({layer.in_features},), got {in_shape}")
        return (layer.out_features,)
    if kind == "conv2d":
        if len(in_shape) != 3 or in_shape[0] != layer.in_channels:
            raise ShapeError(
                f"conv2d expects ({layer.in_channels}, H, W), got {in_shape}"
            )
        _, h, w = in_shape
        kh, kw = layer.kernel
        sh, sw = layer.stride
        ph, pw = layer.padding
        ho = (h + 2 * ph - kh) // sh + 1
        wo = (w + 2 * pw - kw) // sw + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"conv2d kernel {layer.kernel} too large for {in_shape}")
        return (layer.out_channels, ho, wo)
    if kind == "avgpool2d":
        if len(in_shape) != 3:
            raise ShapeError(f"avgpool2d expects (C, H, W), got {in_shape}")
        c, h, w = in_shape
        kh, kw = layer.kernel
        sh, sw = layer.stride
        ho = (h - kh) // sh + 1
        wo = (w - kw) // sw + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"avgpool2d kernel {layer.kernel} too large for {in_shape}")
        return (c, ho, wo)
    if kind == "flatten":
        return (int(np.prod(in_shape)),)
    if kind == "relu":
        return tuple(in_shape)
    raise ValueError(f"unknown layer kind {kind!r}")


@dataclass
class ModelGraph:
    """An ordered feed-forward net plus its input contract."""

    layers: list[LayerSpec]
    input_shape: tuple[int, ...]
    class_count: int
    # what a run with one config list reads, kept by the engine while the
    # parameters are read-only (``engine._prepare``)
    _run_plan: object | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)

    def __getstate__(self):
        # a copy (``clone``) starts without the engine's plan
        return {**self.__dict__, "_run_plan": None}

    def validate(self) -> None:
        if not self.layers:
            raise ShapeError("model has no layers")
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            if layer.kind == "relu":
                prev = self.layers[i - 1] if i > 0 else None
                if prev is None or not prev.parameterized:
                    raise ShapeError(f"layer {i} (relu) must follow dense or conv2d")
            if layer.kind == "conv2d":
                sh, sw = layer.stride
                ph, pw = layer.padding
                if sh < 1 or sw < 1 or ph < 0 or pw < 0:
                    raise ShapeError(f"layer {i} (conv2d): bad stride/padding")
            if layer.kind == "avgpool2d" and min(*layer.kernel, *layer.stride) < 1:
                raise ShapeError(f"layer {i} (avgpool2d): bad kernel/stride")
            try:
                shape = layer_output_shape(layer, shape)
            except ShapeError as err:
                raise ShapeError(f"layer {i} ({layer.kind}): {err}") from None
        last = self.layers[-1]
        if last.kind != "dense":
            raise ShapeError("last layer must be dense")
        if last.out_features != self.class_count:
            raise ShapeError(
                f"head emits {last.out_features} scores for {self.class_count} classes"
            )

    def clone(self) -> "ModelGraph":
        return copy.deepcopy(self)


def _im2col(x: Tensor, kernel, stride, padding):
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw]
    return cols.reshape(n, c * kh * kw, ho * wo), (ho, wo)


def _col2im(dcols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    dxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dcols.dtype)
    dcols = dcols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += dcols[:, :, i, j]
    if ph or pw:
        return dxp[:, :, ph : ph + h, pw : pw + w]
    return dxp


def _conv2d(layer: LayerSpec, x: Tensor) -> tuple[Tensor, Tensor]:
    """A conv layer's output on ``x``, and the ``_im2col`` columns of ``x``
    it was computed from, which the backward pass reuses."""
    cols, (ho, wo) = _im2col(x, layer.kernel, layer.stride, layer.padding)
    w2 = layer.weight.reshape(layer.out_channels, -1)
    y = np.einsum("oc,ncl->nol", w2, cols, optimize=True)
    y = y.reshape(x.shape[0], layer.out_channels, ho, wo)
    y += layer.bias.reshape(1, -1, 1, 1)
    return y, cols


def apply_layer(
    layer: LayerSpec, x: Tensor, operands: tuple[Tensor, Tensor] | None = None
) -> Tensor:
    """Apply one layer to a batch-first array. Works for any float dtype.

    ``operands``, for a dense layer only, is its ``(W.T, b)`` already cast to
    ``x``'s dtype, so a caller applying the layer at every step casts once.
    Bias and pooling divisor are applied in place on the fresh product or
    sum: the same float operations as ``x @ w_t + b``, without a second array.
    """
    kind = layer.kind
    if kind == "dense":
        w_t, b = operands or (layer.weight.T, layer.bias)
        y = x @ w_t
        y += b
        return y
    if kind == "conv2d":
        return _conv2d(layer, x)[0]
    if kind == "avgpool2d":
        kh, kw = layer.kernel
        sh, sw = layer.stride
        n, c, h, w = x.shape
        ho = (h - kh) // sh + 1
        wo = (w - kw) // sw + 1
        acc = np.zeros((n, c, ho, wo), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                acc += x[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw]
        acc /= kh * kw
        return acc
    if kind == "flatten":
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))
    if kind == "relu":
        return np.maximum(x, 0)
    raise ValueError(f"unknown layer kind {kind!r}")


def _check_batch(model: ModelGraph, batch) -> Tensor:
    """``batch`` as an array with a leading batch axis, shape-checked."""
    x = np.asarray(batch)
    if x.ndim == len(model.input_shape):
        x = x[None]
    if tuple(x.shape[1:]) != model.input_shape:
        raise ShapeError(
            f"batch shape {tuple(x.shape[1:])} does not match model input {model.input_shape}"
        )
    return x


def _forward(model: ModelGraph, batch, taps: dict[int, Tensor] | None) -> Tensor:
    """The net's raw class scores on ``batch``; a copy of each post-relu
    activation goes into ``taps``, keyed by layer index, unless it is None."""
    x = _check_batch(model, batch)
    shape = model.input_shape
    for i, layer in enumerate(model.layers):
        try:
            shape = layer_output_shape(layer, shape)
        except ShapeError as err:
            raise ShapeError(f"layer {i} ({layer.kind}): {err}") from None
        x = apply_layer(layer, x)
        if taps is not None and layer.kind == "relu":
            taps[i] = x.copy()
    return x


def forward(model: ModelGraph, batch) -> Tensor:
    """Run the net on a batch, returning raw class scores [N, classes]."""
    return _forward(model, batch, None)


def forward_with_taps(model: ModelGraph, batch) -> tuple[Tensor, dict[int, Tensor]]:
    """Forward pass that also returns post-relu activations keyed by layer index."""
    taps: dict[int, Tensor] = {}
    return _forward(model, batch, taps), taps


def _he_dense(rng: np.random.Generator, in_f: int, out_f: int) -> LayerSpec:
    w = rng.standard_normal((out_f, in_f)) * np.sqrt(2.0 / in_f)
    return dense(in_f, out_f, weight=w.astype(np.float32))


def _he_conv(rng: np.random.Generator, c_in: int, c_out: int) -> LayerSpec:
    """A 3x3 conv with padding 1, so it keeps the feature map's size."""
    w = rng.standard_normal((c_out, c_in, 3, 3)) * np.sqrt(2.0 / (c_in * 9))
    return conv2d(c_in, c_out, 3, stride=1, padding=1, weight=w.astype(np.float32))


def build_mlp(input_dim: int, hidden: list[int], classes: int, seed: int = 0) -> ModelGraph:
    """Fully connected relu net: input_dim -> hidden[0] -> ... -> classes."""
    if not hidden or min(hidden) < 1:
        raise ValueError(f"hidden must list one or more positive widths, got {list(hidden)}")
    rng = np.random.default_rng(seed)
    layers: list[LayerSpec] = []
    prev = int(input_dim)
    for width in hidden:
        layers.append(_he_dense(rng, prev, int(width)))
        layers.append(relu())
        prev = int(width)
    layers.append(_he_dense(rng, prev, int(classes)))
    model = ModelGraph(layers, (int(input_dim),), int(classes))
    model.validate()
    return model


def build_cnn(
    input_shape: tuple[int, int, int], channels: list[int], classes: int, seed: int = 0
) -> ModelGraph:
    """Blocks of 3x3 conv, relu and 2x2 average pooling, then a dense head."""
    if not channels or min(channels) < 1:
        raise ValueError(f"channels must list one or more positive widths, got {list(channels)}")
    rng = np.random.default_rng(seed)
    c, h, w = (int(d) for d in input_shape)
    layers: list[LayerSpec] = []
    for ch in channels:
        layers.append(_he_conv(rng, c, int(ch)))
        layers.append(relu())
        layers.append(avgpool2d(2))
        c = int(ch)
        h //= 2
        w //= 2
    if h < 1 or w < 1:
        raise ValueError(
            f"input shape {tuple(input_shape)} is too small for {len(channels)} "
            f"pool-2 blocks: it pools down to {h}x{w}"
        )
    layers.append(flatten())
    layers.append(_he_dense(rng, c * h * w, int(classes)))
    model = ModelGraph(layers, tuple(int(d) for d in input_shape), int(classes))
    model.validate()
    return model
