"""Plain SGD reference trainer.

Exists only to produce desk-scale source nets for conversion experiments:
softmax cross-entropy, hand-rolled backprop, no momentum, no augmentation.
Backprop forms parameter gradients only: its reverse loop stops at the first
parameterized layer, whose input gradient nothing reads. Fixed seeds give
bit-identical parameters on repeat runs.
"""

from __future__ import annotations

import numpy as np

from .nn import ModelGraph, Tensor, _col2im, _conv2d, apply_layer, softmax


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite."""


def cross_entropy(logits: Tensor, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(logz - picked))


def _forward_cached(model: ModelGraph, x: Tensor):
    """Logits, each layer's input, and each conv layer's input unfolded into
    columns (keyed by layer index): all the backward pass needs."""
    inputs, columns = [], {}
    for i, layer in enumerate(model.layers):
        inputs.append(x)
        if layer.kind == "conv2d":
            x, columns[i] = _conv2d(layer, x)
        else:
            x = apply_layer(layer, x)
    return x, inputs, columns


def _backward(model: ModelGraph, inputs, columns, dlogits: Tensor):
    """``{layer index: (dW, db)}`` for every parameterized layer, and nothing else,
    from ``_forward_cached``'s ``inputs`` and ``columns``.

    The reverse loop stops at the first parameterized layer: its ``(dW, db)``
    is formed, its input gradient is not, since no layer below reads it.
    """
    grads: dict[int, tuple[Tensor, Tensor]] = {}
    dy = dlogits
    layers = model.layers
    first = next((i for i, layer in enumerate(layers) if layer.parameterized), len(layers))
    for i in range(len(layers) - 1, first - 1, -1):
        layer = layers[i]
        x = inputs[i]
        if layer.kind == "dense":
            grads[i] = (dy.T @ x, dy.sum(axis=0))
            if i > first:
                dy = dy @ layer.weight
        elif layer.kind == "conv2d":
            dflat = dy.reshape(x.shape[0], layer.out_channels, -1)
            dw = np.einsum("nol,ncl->oc", dflat, columns[i], optimize=True)
            grads[i] = (dw.reshape(layer.weight.shape), dy.sum(axis=(0, 2, 3)))
            if i > first:
                w2 = layer.weight.reshape(layer.out_channels, -1)
                dcols = np.einsum("oc,nol->ncl", w2, dflat, optimize=True)
                dy = _col2im(dcols, x.shape, layer.kernel, layer.stride, layer.padding)
        elif layer.kind == "avgpool2d":
            kh, kw = layer.kernel
            sh, sw = layer.stride
            n, c, h, w = x.shape
            ho, wo = dy.shape[2], dy.shape[3]
            dx = np.zeros_like(x)
            spread = dy / (kh * kw)
            for a in range(kh):
                for b in range(kw):
                    dx[:, :, a : a + sh * ho : sh, b : b + sw * wo : sw] += spread
            dy = dx
        elif layer.kind == "flatten":
            dy = dy.reshape(x.shape)
        elif layer.kind == "relu":
            dy = dy * (x > 0)
    return grads


def accuracy(model: ModelGraph, images, labels) -> float:
    from .nn import forward

    logits = forward(model, images)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def train_reference(
    model: ModelGraph,
    dataset,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 32,
) -> ModelGraph:
    """Train a copy of ``model`` on ``dataset`` (needs .images and .labels).

    Plain mini-batch SGD with a per-epoch reshuffle drawn from ``seed``. A
    non-finite loss aborts with diagnostics rather than running to garbage;
    numpy's overflow and invalid-value warnings on the way there are silenced,
    since the abort says what went wrong.
    """
    model.validate()
    trained = model.clone()
    images = np.asarray(dataset.images, dtype=np.float32)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = len(labels)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(int(epochs)):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                pick = order[start : start + batch_size]
                xb, yb = images[pick], labels[pick]
                logits, inputs, columns = _forward_cached(trained, xb)
                loss = cross_entropy(logits, yb)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss {loss} at epoch {epoch}, batch offset {start}; the "
                        f"largest input magnitude is {float(np.abs(images).max())!r}: lower "
                        "dataset.separation (or rescale the inputs) or train.lr"
                    )
                probs = softmax(logits, axis=1)
                probs[np.arange(len(yb)), yb] -= 1.0
                dlogits = (probs / len(yb)).astype(np.float32)
                grads = _backward(trained, inputs, columns, dlogits)
                # in place on the fresh gradients: the same float32 values as
                # ``param -= lr * grad``, without two temporaries per parameter
                for idx, (dw, db) in grads.items():
                    layer = trained.layers[idx]
                    for param, grad in ((layer.weight, dw), (layer.bias, db)):
                        grad = grad.astype(np.float32, copy=False)
                        grad *= np.float32(lr)
                        param -= grad
    return trained
