import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spikecal import engine, nn


def random_dense_model(rng, in_dim=6, hidden=5, classes=3):
    w1 = rng.standard_normal((hidden, in_dim)).astype(np.float32)
    b1 = rng.standard_normal(hidden).astype(np.float32)
    w2 = rng.standard_normal((classes, hidden)).astype(np.float32)
    b2 = rng.standard_normal(classes).astype(np.float32)
    return nn.ModelGraph(
        layers=[nn.dense(in_dim, hidden, w1, b1), nn.relu(), nn.dense(hidden, classes, w2, b2)],
        input_shape=(in_dim,),
        class_count=classes,
    )


# ---------------------------------------------------------------------------
# forward correctness against loop oracles


def test_dense_matches_oracle_fuzz(rng):
    for _ in range(100):
        n, i, o = rng.integers(1, 7, size=3)
        x = rng.standard_normal((n, i)).astype(np.float32)
        w = rng.standard_normal((o, i)).astype(np.float32)
        b = rng.standard_normal(o).astype(np.float32)
        got = nn.apply_layer(nn.dense(int(i), int(o), w, b), x)
        want = oracles.dense_forward(x, w, b)
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_conv_matches_oracle_fuzz(rng):
    for _ in range(40):
        n = int(rng.integers(1, 3))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        weight = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
        bias = rng.standard_normal(c_out).astype(np.float32)
        layer = nn.conv2d(c_in, c_out, k, stride=stride, padding=pad, weight=weight, bias=bias)
        got = nn.apply_layer(layer, x)
        want = oracles.conv2d_forward(x, weight, bias, (stride, stride), (pad, pad))
        np.testing.assert_allclose(got, want, atol=1e-4)


def test_avgpool_matches_oracle_fuzz(rng):
    for _ in range(40):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h = int(rng.integers(4, 10))
        k = int(rng.integers(1, 4))
        x = rng.standard_normal((n, c, h, h)).astype(np.float32)
        got = nn.apply_layer(nn.avgpool2d(k), x)
        want = oracles.avgpool2d_forward(x, (k, k), (k, k))
        np.testing.assert_allclose(got, want, atol=1e-5)


def _assert_same_array(got, want):
    """Same dtype, shape, bytes, and memory layout (strides of the axes longer than 1)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    layout = [tuple(s for s, d in zip(a.strides, a.shape) if d > 1) for a in (got, want)]
    assert layout[0] == layout[1]
    assert got.tobytes() == want.tobytes()


# the dense widths of the benchmark workloads: deep-search 64-128-...-10, demo 784-256-128-10
DENSE_SHAPES = ((64, 128), (128, 128), (128, 10), (784, 256), (256, 128))


@pytest.mark.parametrize("n", [1, 2, 7, 512])
@pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("float64_operands", [False, True])
def test_dense_bias_in_place_equals_sum_expression(n, x_dtype, float64_operands):
    """The in-place bias add gives ``x @ w_t + b`` bit for bit, float64
    whenever the input or the operands are."""
    rng = np.random.default_rng(n)
    for i, o in DENSE_SHAPES:
        layer = nn.dense(i, o, rng.standard_normal((o, i)), rng.standard_normal(o))
        ops = engine._float64_operands(layer) if float64_operands else None
        x = rng.standard_normal((n, i))
        x[rng.random(x.shape) < 0.5] = 0.0  # sparse, as spike amplitudes are
        x = x.astype(x_dtype)
        w_t, b = ops or (layer.weight.T, layer.bias)
        want = x @ w_t + b
        got = nn.apply_layer(layer, x, ops)
        _assert_same_array(got, want)
        assert got.dtype == (np.float64 if float64_operands else x_dtype)


@pytest.mark.parametrize("n", [1, 2, 7, 512])
@pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
def test_conv_and_pool_in_place_equal_old_expressions(n, x_dtype):
    """cnn-exit's conv and avgpool layers: the in-place bias add and divide
    give the old out-of-place expressions bit for bit."""
    rng = np.random.default_rng(n)
    for c_in, c_out, hw in ((1, 8, 16), (8, 16, 8)):  # cnn-exit: 1x16x16 input, channels [8, 16]
        weight = rng.standard_normal((c_out, c_in, 3, 3))
        layer = nn.conv2d(c_in, c_out, 3, padding=1, weight=weight, bias=rng.standard_normal(c_out))
        x = rng.standard_normal((n, c_in, hw, hw)).astype(x_dtype)
        cols, (ho, wo) = nn._im2col(x, layer.kernel, layer.stride, layer.padding)
        w2 = layer.weight.reshape(layer.out_channels, -1)
        y = np.einsum("oc,ncl->nol", w2, cols, optimize=True)
        want = y.reshape(n, layer.out_channels, ho, wo) + layer.bias.reshape(1, -1, 1, 1)
        _assert_same_array(nn.apply_layer(layer, x), want)

        x = np.maximum(want, 0)  # the relu the pool follows
        for k in (2, 3):  # cnn-exit's pool, and a divisor that is not a power of two
            pool, ho = nn.avgpool2d(k), hw // k
            acc = np.zeros((n, c_out, ho, ho), dtype=x.dtype)
            for a in range(k):
                for b in range(k):
                    acc += x[:, :, a : a + k * ho : k, b : b + k * ho : k]
            _assert_same_array(nn.apply_layer(pool, x), acc / (k * k))


def test_softmax_matches_oracle(rng):
    x = rng.standard_normal((20, 7)).astype(np.float32) * 5
    np.testing.assert_allclose(nn.softmax(x), oracles.softmax_rows(x), atol=1e-6)
    sums = nn.softmax(x).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# batching and graph structure


def test_batch_independence(rng):
    model = random_dense_model(rng)
    batch = rng.standard_normal((10, 6)).astype(np.float32)
    full = nn.forward(model, batch)
    for i in range(10):
        single = nn.forward(model, batch[i:i + 1])
        np.testing.assert_allclose(full[i], single[0], atol=1e-6)


def test_taps_cover_relu_layers_and_match_manual(rng):
    model = random_dense_model(rng)
    batch = rng.standard_normal((4, 6)).astype(np.float32)
    logits, taps = nn.forward_with_taps(model, batch)
    assert sorted(taps) == [1]  # the single hidden relu
    x = batch
    for idx, layer in enumerate(model.layers):
        x = nn.apply_layer(layer, x)
        if idx in taps:
            np.testing.assert_allclose(taps[idx], x, atol=1e-6)
    np.testing.assert_allclose(logits, x, atol=1e-6)
    np.testing.assert_allclose(logits, nn.forward(model, batch), atol=0)


def test_forward_rejects_wrong_feature_count(rng):
    model = random_dense_model(rng)
    with pytest.raises(nn.ShapeError):
        nn.forward(model, np.zeros((2, 7), dtype=np.float32))


def test_validate_rejects_relu_head():
    w = np.ones((2, 3), dtype=np.float32)
    model = nn.ModelGraph(
        layers=[nn.dense(3, 2, w, np.zeros(2, dtype=np.float32)), nn.relu()],
        input_shape=(3,),
        class_count=2,
    )
    with pytest.raises(nn.ShapeError):
        model.validate()


def test_validate_rejects_class_count_mismatch():
    w = np.ones((2, 3), dtype=np.float32)
    model = nn.ModelGraph(
        layers=[nn.dense(3, 2, w, np.zeros(2, dtype=np.float32))],
        input_shape=(3,),
        class_count=5,
    )
    with pytest.raises(nn.ShapeError):
        model.validate()


def test_validate_rejects_relu_after_pool():
    model = nn.ModelGraph(
        layers=[
            nn.avgpool2d(2),
            nn.relu(),
            nn.flatten(),
            nn.dense(4, 2, np.ones((2, 4), dtype=np.float32), np.zeros(2, dtype=np.float32)),
        ],
        input_shape=(1, 4, 4),
        class_count=2,
    )
    with pytest.raises(nn.ShapeError):
        model.validate()


def test_output_shapes_compose(rng):
    # conv(3) relu pool conv(4) relu pool flatten dense(5): padded 3x3 convs
    # keep 8x8 and 4x4, each 2x2 pool halves it
    model = nn.build_cnn((1, 8, 8), [3, 4], 5, seed=0)
    batch = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
    logits, taps = nn.forward_with_taps(model, batch)
    assert logits.shape == (2, 5)
    assert {idx: tap.shape for idx, tap in taps.items()} == {1: (2, 3, 8, 8), 4: (2, 4, 4, 4)}


def test_as_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        nn.as_tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        nn.as_tensor([float("inf")])


def test_as_tensor_checks_shape():
    with pytest.raises(nn.ShapeError):
        nn.as_tensor([1.0, 2.0], shape=(3,))


def test_clone_is_deep(rng):
    model = random_dense_model(rng)
    copy = model.clone()
    copy.layers[0].weight[:] = 0
    assert not np.allclose(model.layers[0].weight, 0)


def test_builders_validate_and_are_seeded():
    a = nn.build_mlp(12, [8], 3, seed=4)
    b = nn.build_mlp(12, [8], 3, seed=4)
    c = nn.build_mlp(12, [8], 3, seed=5)
    np.testing.assert_array_equal(a.layers[0].weight, b.layers[0].weight)
    assert not np.array_equal(a.layers[0].weight, c.layers[0].weight)
    a.validate()
    nn.build_cnn((1, 8, 8), [2, 3], 4, seed=0).validate()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_relu_idempotent_and_nonnegative(n, d, seed):
    x = np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32)
    once = nn.apply_layer(nn.relu(), x)
    twice = nn.apply_layer(nn.relu(), once)
    assert (once >= 0).all()
    np.testing.assert_array_equal(once, twice)
