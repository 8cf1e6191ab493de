import numpy as np
import pytest

from spikecal import nn, store, train


def finite_difference_grads(model, x, labels, layer_idx, eps=1e-3, param="weight"):
    """Central-difference loss gradients for a handful of ``param`` entries."""
    base = model.clone()
    layer = base.layers[layer_idx]
    flat = getattr(layer, param).reshape(-1)
    picks = np.linspace(0, flat.size - 1, num=min(6, flat.size), dtype=int)
    grads = []
    for p in picks:
        orig = flat[p]
        flat[p] = orig + eps
        up = train.cross_entropy(nn.forward(base, x), labels)
        flat[p] = orig - eps
        down = train.cross_entropy(nn.forward(base, x), labels)
        flat[p] = orig
        grads.append((up - down) / (2 * eps))
    return picks, np.array(grads)


def test_cross_entropy_matches_manual():
    logits = np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.float32)
    labels = np.array([0, 0])
    p0 = np.exp(2.0) / (np.exp(2.0) + 1.0)
    p1 = 1.0 / (np.exp(2.0) + 1.0)
    want = -(np.log(p0) + np.log(p1)) / 2
    assert train.cross_entropy(logits, labels) == pytest.approx(want, abs=1e-6)


def test_cross_entropy_stable_at_large_logits():
    logits = np.array([[1000.0, 0.0]], dtype=np.float32)
    assert np.isfinite(train.cross_entropy(logits, np.array([0])))
    assert train.cross_entropy(logits, np.array([0])) == pytest.approx(0.0, abs=1e-6)


def test_gradients_match_finite_differences(rng):
    """Every parameterized layer of a 1- and a 2-hidden-layer MLP, weights and
    biases; a middle layer's gradient goes through input gradients above it.

    Biases are moved off zero, so that an input whose hidden units are all
    silent does not sit on a relu's kink, where a central difference is half
    a slope.
    """
    x = rng.standard_normal((8, 5)).astype(np.float32)
    labels = rng.integers(0, 3, size=8)
    for hidden in ([4], [4, 4]):
        model = nn.build_mlp(5, hidden, 3, seed=2)
        for layer in model.layers:
            if layer.parameterized:
                layer.bias[:] = rng.uniform(0.05, 0.3, size=layer.bias.shape)
        logits, inputs, columns = train._forward_cached(model, x)
        p = nn.softmax(logits)
        dlogits = p.copy()
        dlogits[np.arange(len(labels)), labels] -= 1.0
        dlogits /= len(labels)
        grads = train._backward(model, inputs, columns, dlogits)
        parameterized = [i for i, layer in enumerate(model.layers) if layer.parameterized]
        assert sorted(grads) == parameterized == list(range(0, 2 * len(hidden) + 1, 2))
        for layer_idx in parameterized:
            for pos, param in enumerate(("weight", "bias")):
                picks, numeric = finite_difference_grads(model, x, labels, layer_idx, param=param)
                analytic = grads[layer_idx][pos].reshape(-1)[picks]
                np.testing.assert_allclose(analytic, numeric, atol=2e-3)


def test_conv_gradients_match_finite_differences(rng):
    model = nn.build_cnn((1, 6, 6), [2], 3, seed=3)
    x = rng.standard_normal((4, 1, 6, 6)).astype(np.float32)
    labels = rng.integers(0, 3, size=4)
    logits, inputs, columns = train._forward_cached(model, x)
    p = nn.softmax(logits)
    dlogits = p.copy()
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    grads = train._backward(model, inputs, columns, dlogits)
    conv_idx = next(i for i, l in enumerate(model.layers) if l.kind == "conv2d")
    picks, numeric = finite_difference_grads(model, x, labels, conv_idx)
    analytic = grads[conv_idx][0].reshape(-1)[picks]
    np.testing.assert_allclose(analytic, numeric, atol=2e-3)


def test_training_reaches_high_accuracy(trained_mlp, blob_dataset):
    acc = train.accuracy(trained_mlp, blob_dataset.images, blob_dataset.labels)
    assert acc >= 0.99


def test_zero_lr_keeps_weights_bitwise(blob_dataset):
    model = nn.build_mlp(32, [16], 4, seed=1)
    out = train.train_reference(model, blob_dataset, epochs=2, lr=0.0, seed=1)
    for before, after in zip(model.layers, out.layers):
        if before.parameterized:
            np.testing.assert_array_equal(before.weight, after.weight)
            np.testing.assert_array_equal(before.bias, after.bias)


def test_training_is_seed_deterministic(blob_dataset):
    model = nn.build_mlp(32, [16], 4, seed=1)
    a = train.train_reference(model, blob_dataset, epochs=3, lr=0.05, seed=9)
    b = train.train_reference(model, blob_dataset, epochs=3, lr=0.05, seed=9)
    for la, lb in zip(a.layers, b.layers):
        if la.parameterized:
            np.testing.assert_array_equal(la.weight, lb.weight)


def test_training_leaves_input_model_untouched(blob_dataset):
    model = nn.build_mlp(32, [16], 4, seed=1)
    snapshot = model.layers[0].weight.copy()
    train.train_reference(model, blob_dataset, epochs=1, lr=0.05, seed=1)
    np.testing.assert_array_equal(model.layers[0].weight, snapshot)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_context(blob_dataset):
    model = nn.build_mlp(32, [16], 4, seed=1)
    with pytest.raises(train.TrainingDivergedError, match="epoch"):
        train.train_reference(model, blob_dataset, epochs=3, lr=1e6, seed=1)


def test_rings_need_hidden_layers():
    rings = store.make_synthetic("rings", 600, seed=3, classes=3, dim=2)
    model = nn.build_mlp(2, [24, 24], 3, seed=3)
    out = train.train_reference(model, rings, epochs=60, lr=0.1, seed=3)
    acc = train.accuracy(out, rings.images, rings.labels)
    assert acc >= 0.9, f"rings accuracy {acc}"


# ---------------------------------------------------------------------------
# the training math against its old formulation, bit for bit


def _reference_backward(model, inputs, dlogits):
    """Backprop that forms every layer's input gradient, the first one's too."""
    grads = {}
    dy = dlogits
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        x = inputs[i]
        if layer.kind == "dense":
            grads[i] = (dy.T @ x, dy.sum(axis=0))
            dy = dy @ layer.weight
        elif layer.kind == "conv2d":
            cols, (ho, wo) = nn._im2col(x, layer.kernel, layer.stride, layer.padding)
            dflat = dy.reshape(x.shape[0], layer.out_channels, ho * wo)
            dw = np.einsum("nol,ncl->oc", dflat, cols, optimize=True)
            grads[i] = (dw.reshape(layer.weight.shape), dy.sum(axis=(0, 2, 3)))
            w2 = layer.weight.reshape(layer.out_channels, -1)
            dcols = np.einsum("oc,nol->ncl", w2, dflat, optimize=True)
            dy = nn._col2im(dcols, x.shape, layer.kernel, layer.stride, layer.padding)
        elif layer.kind == "avgpool2d":
            kh, kw = layer.kernel
            sh, sw = layer.stride
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


def _reference_train(model, dataset, epochs, lr, seed, batch_size):
    """SGD with ``_reference_backward`` and an out-of-place update."""
    trained = model.clone()
    images = np.asarray(dataset.images, dtype=np.float32)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(labels), batch_size):
            pick = order[start : start + batch_size]
            logits, inputs, _ = train._forward_cached(trained, images[pick])
            probs = nn.softmax(logits, axis=1)
            probs[np.arange(len(pick)), labels[pick]] -= 1.0
            dlogits = (probs / len(pick)).astype(np.float32)
            for idx, (dw, db) in _reference_backward(trained, inputs, dlogits).items():
                layer = trained.layers[idx]
                layer.weight -= np.float32(lr) * dw.astype(np.float32)
                layer.bias -= np.float32(lr) * db.astype(np.float32)
    return trained


def _bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _nets():
    """An MLP with two hidden layers, and a CNN whose first layer is conv,
    each with a dataset that a batch of 32 does not divide."""
    blobs = store.make_synthetic("blobs", 150, seed=4, classes=4, dim=24)
    mlp = nn.build_mlp(24, [16, 8], 4, seed=4)
    images = store.make_synthetic("blobs", 70, seed=5, classes=3, dim=(1, 8, 8))
    cnn = nn.build_cnn((1, 8, 8), [3, 4], 3, seed=5)
    assert cnn.layers[0].kind == "conv2d"
    return {"mlp": (mlp, blobs), "cnn": (cnn, images)}


@pytest.mark.parametrize("lr", [0.05, 0.0])
@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_train_reference_equals_old_formulation(arch, lr):
    """Stopping backprop at the first parameterized layer and updating in
    place change no trained parameter, bit for bit (3 epochs, short last batch)."""
    model, data = _nets()[arch]
    assert len(data.labels) % 32
    got = train.train_reference(model, data, epochs=3, lr=lr, seed=6, batch_size=32)
    want = _reference_train(model, data, epochs=3, lr=lr, seed=6, batch_size=32)
    for g, w, before in zip(got.layers, want.layers, model.layers):
        if g.parameterized:
            _bits_equal(g.weight, w.weight)
            _bits_equal(g.bias, w.bias)
            assert (lr == 0) == np.array_equal(g.weight, before.weight)


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_backward_gradients_equal_old_formulation(arch, rng):
    model, data = _nets()[arch]
    model = train.train_reference(model, data, epochs=1, lr=0.05, seed=1)
    x = np.asarray(data.images[:9], dtype=np.float32)
    logits, inputs, columns = train._forward_cached(model, x)
    dlogits = rng.standard_normal(logits.shape).astype(np.float32)
    got = train._backward(model, inputs, columns, dlogits)
    want = _reference_backward(model, inputs, dlogits)
    assert list(got) == list(want) == [
        i for i in reversed(range(len(model.layers))) if model.layers[i].parameterized
    ]
    for idx in want:
        for g, w in zip(got[idx], want[idx]):
            _bits_equal(g, w)


def test_training_unfolds_each_conv_input_once(monkeypatch):
    """The backward pass reads the columns the forward pass unfolded: one
    ``_im2col`` per conv layer and batch, none in ``_backward``."""
    calls = []
    unfold = nn._im2col

    def counted(x, *args):
        calls.append(x.shape)
        return unfold(x, *args)

    monkeypatch.setattr(nn, "_im2col", counted)
    model, data = _nets()["cnn"]  # two conv layers; 70 inputs are 3 batches of 32
    train.train_reference(model, data, epochs=2, lr=0.05, seed=6, batch_size=32)
    assert len(calls) == 2 * 3 * 2


def test_first_conv_layer_forms_no_input_gradient(monkeypatch):
    """``_col2im`` builds a conv layer's input gradient; a net whose only conv
    layer is first never needs one."""
    def refuse(*args, **kwargs):
        raise AssertionError("input gradient of the first layer formed")

    monkeypatch.setattr(train, "_col2im", refuse)
    data = store.make_synthetic("blobs", 40, seed=8, classes=3, dim=(1, 6, 6))
    model = nn.build_cnn((1, 6, 6), [2], 3, seed=8)
    assert [layer.kind for layer in model.layers if layer.parameterized] == ["conv2d", "dense"]
    out = train.train_reference(model, data, epochs=2, lr=0.05, seed=8, batch_size=16)
    assert not np.array_equal(out.layers[0].weight, model.layers[0].weight)
