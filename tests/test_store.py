import re
import struct
import tracemalloc

import numpy as np
import pytest

from spikecal import nn, store


# ---------------------------------------------------------------------------
# model serialization


def test_model_round_trip_bytes_and_values(trained_mlp):
    blob = store.serialize_model(trained_mlp)
    back = store.deserialize_model(blob)
    assert back.input_shape == trained_mlp.input_shape
    assert back.class_count == trained_mlp.class_count
    for a, b in zip(trained_mlp.layers, back.layers):
        assert a.kind == b.kind
        if a.parameterized:
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
    # serializing the deserialized model reproduces the exact bytes
    assert store.serialize_model(back) == blob


def test_cnn_round_trip():
    model = nn.build_cnn((1, 8, 8), [3, 4], 5, seed=6)
    back = store.deserialize_model(store.serialize_model(model))
    x = np.random.default_rng(0).standard_normal((2, 1, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(nn.forward(model, x), nn.forward(back, x))


def test_save_load_file(tmp_path, trained_mlp):
    path = tmp_path / "m.snnc"
    store.save_model(trained_mlp, path)
    back = store.load_model(path)
    np.testing.assert_array_equal(back.layers[0].weight, trained_mlp.layers[0].weight)


def test_loaded_parameters_are_read_only_and_clones_writable(tmp_path, trained_mlp):
    """A write into a loaded model raises; its ``clone()`` may be edited."""
    path = tmp_path / "m.snnc"
    store.save_model(trained_mlp, path)
    loaded = store.load_model(path)
    copy = loaded.clone()
    for layer, twin in zip(loaded.layers, copy.layers):
        if not layer.parameterized:
            continue
        for name in ("weight", "bias"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(layer, name)[...] = 0.0
            getattr(twin, name)[...] += 1.0
        np.testing.assert_array_equal(layer.weight + 1.0, twin.weight)
    assert store.serialize_model(loaded) == store.serialize_model(trained_mlp)


def test_bad_magic_is_specific(trained_mlp):
    blob = bytearray(store.serialize_model(trained_mlp))
    blob[:4] = b"XXXX"
    with pytest.raises(store.BadMagicError):
        store.deserialize_model(bytes(blob))


def test_unsupported_version_is_specific(trained_mlp):
    blob = bytearray(store.serialize_model(trained_mlp))
    struct.pack_into("<H", blob, 4, 999)
    with pytest.raises(store.UnsupportedVersionError):
        store.deserialize_model(bytes(blob))


def test_truncated_blob_reports_sizes(trained_mlp):
    blob = store.serialize_model(trained_mlp)
    with pytest.raises(store.TruncatedBlobError, match=r"\d"):
        store.deserialize_model(blob[:-40])


def test_header_must_tile_blob_exactly(trained_mlp):
    blob = store.serialize_model(trained_mlp)
    # graft 4 extra bytes onto the value blob without touching the header
    with pytest.raises((store.OffsetError, store.TruncatedBlobError)):
        store.deserialize_model(blob + b"\x00\x00\x00\x00")


def test_garbage_header_is_header_error(trained_mlp):
    header = "not a real header line\n".encode("utf-8")
    blob = store.MODEL_MAGIC + struct.pack("<HI", store.FORMAT_VERSION, len(header)) + header
    with pytest.raises(store.HeaderError):
        store.deserialize_model(blob)


def test_digest_ignores_biases_tracks_weights(trained_mlp):
    base = store.model_digest(trained_mlp)
    bias_shift = trained_mlp.clone()
    bias_shift.layers[0].bias[:] += 1.0
    assert store.model_digest(bias_shift) == base
    weight_shift = trained_mlp.clone()
    weight_shift.layers[0].weight[0, 0] += 1.0
    assert store.model_digest(weight_shift) != base


# ---------------------------------------------------------------------------
# datasets


def _names(path) -> str:
    """A pattern for an error message that starts with ``path``."""
    return f"^{re.escape(str(path))}: "


def test_idx_round_trip_crafted_bytes(tmp_path):
    pixels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    img = struct.pack(">IIII", store.IDX_IMAGE_MAGIC, 2, 2, 2) + pixels.tobytes()
    lbl = struct.pack(">II", store.IDX_LABEL_MAGIC, 2) + bytes([1, 0])
    (tmp_path / "img").write_bytes(img)
    (tmp_path / "lbl").write_bytes(lbl)
    handle = store.load_idx(tmp_path / "img", tmp_path / "lbl")
    assert handle.images.shape == (2, 1, 2, 2)
    assert handle.images.dtype == np.float32
    np.testing.assert_allclose(
        handle.images.reshape(2, 2, 2), pixels.astype(np.float32) / 255.0
    )
    np.testing.assert_array_equal(handle.labels, [1, 0])


def test_loaders_scale_every_pixel_value_as_one_expression_would(tmp_path):
    """Pixels 0..255 come out as ``(p.astype(float32) / 255.0)`` (IDX) and
    ``(p * scale).astype(float32)`` (CSV), bit for bit, in writable arrays."""
    pixels = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
    (tmp_path / "img").write_bytes(
        struct.pack(">IIII", store.IDX_IMAGE_MAGIC, 4, 8, 8) + pixels.tobytes()
    )
    (tmp_path / "lbl").write_bytes(struct.pack(">II", store.IDX_LABEL_MAGIC, 4) + bytes(4))
    idx = store.load_idx(tmp_path / "img", tmp_path / "lbl")
    want = pixels.astype(np.float32) / 255.0
    assert idx.images.tobytes() == want.tobytes() and idx.images.flags.writeable
    table = np.hstack([np.zeros((4, 1)), pixels.reshape(4, 64).astype(np.float64)])
    path = tmp_path / "d.csv"
    path.write_text("".join(",".join(str(int(v)) for v in row) + "\n" for row in table))
    for scale in (1.0 / 255.0, 0.3):
        csv = store.load_csv(path, (1, 8, 8), scale=scale)
        want = (table[:, 1:] * scale).astype(np.float32)
        assert csv.images.tobytes() == want.tobytes() and csv.images.flags.writeable


def test_idx_magic_mismatch(tmp_path):
    bad = struct.pack(">IIII", 123, 1, 2, 2) + bytes(4)
    (tmp_path / "img").write_bytes(bad)
    lbl = struct.pack(">II", store.IDX_LABEL_MAGIC, 1) + bytes([0])
    (tmp_path / "lbl").write_bytes(lbl)
    with pytest.raises(store.BadMagicError, match=_names(tmp_path / "img") + "image file magic"):
        store.load_idx(tmp_path / "img", tmp_path / "lbl")
    (tmp_path / "img").write_bytes(struct.pack(">IIII", store.IDX_IMAGE_MAGIC, 1, 2, 2) + bytes(4))
    (tmp_path / "lbl").write_bytes(struct.pack(">II", 7, 1) + bytes([0]))
    with pytest.raises(store.BadMagicError, match=_names(tmp_path / "lbl") + "label file magic"):
        store.load_idx(tmp_path / "img", tmp_path / "lbl")


def test_idx_truncation(tmp_path):
    img = struct.pack(">IIII", store.IDX_IMAGE_MAGIC, 2, 2, 2) + bytes(5)
    (tmp_path / "img").write_bytes(img)
    lbl = struct.pack(">II", store.IDX_LABEL_MAGIC, 2) + bytes(2)
    (tmp_path / "lbl").write_bytes(lbl)
    with pytest.raises(store.TruncatedBlobError, match=_names(tmp_path / "img") + "image payload"):
        store.load_idx(tmp_path / "img", tmp_path / "lbl")
    (tmp_path / "img").write_bytes(img[:16] + bytes(8))
    (tmp_path / "lbl").write_bytes(lbl[:9])
    with pytest.raises(store.TruncatedBlobError, match=_names(tmp_path / "lbl") + "label payload"):
        store.load_idx(tmp_path / "img", tmp_path / "lbl")


@pytest.mark.parametrize("name, keep", [("img", 8), ("img", 0), ("lbl", 7), ("lbl", 0)])
def test_idx_short_header(tmp_path, name, keep):
    """A file cut inside its header is a truncated blob naming the file."""
    files = {
        "img": struct.pack(">IIII", store.IDX_IMAGE_MAGIC, 1, 2, 2) + bytes(4),
        "lbl": struct.pack(">II", store.IDX_LABEL_MAGIC, 1) + bytes(1),
    }
    files[name] = files[name][:keep]
    for file, data in files.items():
        (tmp_path / file).write_bytes(data)
    with pytest.raises(store.TruncatedBlobError, match=_names(tmp_path / name) + ".* header holds"):
        store.load_idx(tmp_path / "img", tmp_path / "lbl")


def test_idx_header_beyond_the_file(tmp_path):
    """Sizes far past the file's length are a truncated payload, not a huge read."""
    img = struct.pack(">IIII", store.IDX_IMAGE_MAGIC, 2**32 - 1, 2**32 - 1, 2**32 - 1)
    (tmp_path / "img").write_bytes(img + bytes(4))
    with pytest.raises(store.TruncatedBlobError, match="payload holds 4 bytes"):
        store.load_idx(tmp_path / "img", tmp_path / "lbl")


def test_idx_count_mismatch(tmp_path):
    img = struct.pack(">IIII", store.IDX_IMAGE_MAGIC, 2, 2, 2) + bytes(8)
    (tmp_path / "img").write_bytes(img)
    lbl = struct.pack(">II", store.IDX_LABEL_MAGIC, 3) + bytes(3)
    (tmp_path / "lbl").write_bytes(lbl)
    with pytest.raises(store.StoreError, match="count") as err:
        store.load_idx(tmp_path / "img", tmp_path / "lbl")
    assert str(tmp_path / "img") in str(err.value) and str(tmp_path / "lbl") in str(err.value)


def test_csv_loader(tmp_path):
    rows = ["1,0,0,255,255", "0,255,255,0,0"]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(rows) + "\n")
    handle = store.load_csv(path, (2, 2))
    assert handle.images.shape == (2, 2, 2)
    np.testing.assert_array_equal(handle.labels, [1, 0])
    assert handle.images.max() == pytest.approx(1.0)


@pytest.mark.parametrize("label", ["1.5", "nan", "inf"])
def test_csv_rejects_non_integer_label(tmp_path, label):
    path = tmp_path / "d.csv"
    path.write_text(f"1,0,0,255,255\n{label},255,255,0,0\n")
    with pytest.raises(store.HeaderError, match=_names(path) + "row 2: label .* is not an integer"):
        store.load_csv(path, (2, 2))


def test_synthetic_blobs_deterministic_balanced_separable():
    a = store.make_synthetic("blobs", 100, seed=4, classes=4, dim=16)
    b = store.make_synthetic("blobs", 100, seed=4, classes=4, dim=16)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=4)
    assert counts.max() - counts.min() <= 1
    # pairwise class-mean distances stay near the requested separation
    means = np.stack([a.images[a.labels == c].mean(axis=0) for c in range(4)])
    gaps = np.linalg.norm(means[:, None] - means[None, :], axis=2)
    gaps[np.diag_indices(4)] = np.inf
    assert gaps.min() > 4.0


def test_structure_seed_pins_geometry():
    train_split = store.make_synthetic("blobs", 200, seed=4, classes=4, dim=16)
    eval_split = store.make_synthetic(
        "blobs", 200, seed=5, classes=4, dim=16, structure_seed=4
    )
    for c in range(4):
        mu_train = train_split.images[train_split.labels == c].mean(axis=0)
        mu_eval = eval_split.images[eval_split.labels == c].mean(axis=0)
        assert np.linalg.norm(mu_train - mu_eval) < 1.5
    # different noise draws, though
    assert not np.array_equal(train_split.images[:10], eval_split.images[:10])


def _one_shot_blobs(n, seed, classes, dim, separation=8.0, structure_seed=None):
    """``make_synthetic("blobs", ...)`` with all the noise drawn in one call:
    the reference the block-wise draw must reproduce byte for byte."""
    rng = np.random.default_rng(seed)
    shape = tuple(dim) if isinstance(dim, tuple) else (dim,)
    d = int(np.prod(shape))
    center_rng = np.random.default_rng(seed if structure_seed is None else structure_seed)
    for _ in range(64):
        dirs = center_rng.standard_normal((classes, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        centers = dirs * (separation / np.sqrt(2.0))
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        gaps[np.diag_indices(classes)] = np.inf
        if gaps.min() >= 0.8 * separation:
            break
    labels = (np.arange(n, dtype=np.int64) % classes)[rng.permutation(n)]
    points = centers[labels] + rng.standard_normal((n, d))
    return points.astype(np.float32).reshape(n, *shape), labels


@pytest.mark.parametrize("seed", [7, 29])
@pytest.mark.parametrize("classes", [2, 10])
@pytest.mark.parametrize("dim", [64, 784, (1, 16, 16)])
def test_blockwise_blobs_equal_one_draw(dim, classes, seed):
    """Around each block edge and at the benchmark's 2000 rows, the blobs
    drawn a block of rows at a time are the one-draw reference's bytes."""
    block = max(1, store._BLOCK_VALUES // int(np.prod(dim)))
    for n in sorted({1, block - 1, block, block + 1, 2000} - {0}):
        got = store.make_synthetic("blobs", n, seed, classes=classes, dim=dim, structure_seed=3)
        images, labels = _one_shot_blobs(n, seed, classes, dim, structure_seed=3)
        assert got.images.dtype == images.dtype and got.images.shape == images.shape, n
        assert got.images.tobytes() == images.tobytes(), n
        assert got.labels.tobytes() == labels.tobytes(), n


def test_blobs_peak_memory_stays_near_the_result():
    """The 2000 x 784 split peaks below twice its float32 result, not at the
    three full-size float64 arrays of a one-shot draw."""
    tracemalloc.start()
    try:
        data = store.make_synthetic("blobs", 2000, seed=7, classes=10, dim=784)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * data.images.nbytes, (peak, data.images.nbytes)


def test_synthetic_blobs_image_shape():
    d = store.make_synthetic("blobs", 10, seed=0, classes=2, dim=(1, 4, 4))
    assert d.images.shape == (10, 1, 4, 4)


def test_synthetic_rings_radial_structure():
    d = store.make_synthetic("rings", 300, seed=1, classes=3, dim=2)
    radii = np.linalg.norm(d.images, axis=1)
    for c in range(3):
        r = radii[d.labels == c]
        assert abs(r.mean() - (1.0 + c)) < 0.15


def test_unknown_synthetic_kind():
    with pytest.raises(ValueError, match="kind"):
        store.make_synthetic("spirals", 10, seed=0)


def test_dataset_handle_length_check():
    with pytest.raises(ValueError):
        store.DatasetHandle(
            images=np.zeros((3, 2), dtype=np.float32), labels=np.zeros(2, dtype=np.int64)
        )


# ---------------------------------------------------------------------------
# calibration cache


def test_cache_round_trip(tmp_path, trained_mlp, calibration):
    path = tmp_path / "c.snnx"
    store.save_cache(calibration, path)
    back = store.load_cache(path)
    assert back.model_digest == calibration.model_digest
    assert back.seed == calibration.seed
    np.testing.assert_array_equal(back.indices, calibration.indices)
    np.testing.assert_array_equal(back.inputs, calibration.inputs)
    np.testing.assert_array_equal(back.logits, calibration.logits)
    assert sorted(back.taps) == sorted(calibration.taps)
    for k in calibration.taps:
        np.testing.assert_array_equal(back.taps[k], calibration.taps[k])
    # byte-stable writes
    store.save_cache(back, tmp_path / "c2.snnx")
    assert (tmp_path / "c.snnx").read_bytes() == (tmp_path / "c2.snnx").read_bytes()


def test_cache_matches_fresh_forward(trained_mlp, calibration):
    logits, taps = nn.forward_with_taps(trained_mlp, calibration.inputs)
    np.testing.assert_allclose(calibration.logits, logits, atol=1e-6)
    for k, tap in taps.items():
        np.testing.assert_allclose(calibration.taps[k], tap, atol=1e-6)


def test_cache_rejects_other_model(calibration):
    other = nn.build_mlp(32, [32, 16], 4, seed=99)
    with pytest.raises(store.CacheMismatchError):
        calibration.check_model(other)


def test_cache_accepts_bias_edits(trained_mlp, calibration):
    shifted = trained_mlp.clone()
    for layer in shifted.layers:
        if layer.parameterized:
            layer.bias[:] += 0.25
    calibration.check_model(shifted)


def test_cache_sampling_without_replacement(calibration):
    assert len(set(calibration.indices.tolist())) == len(calibration.indices)
    assert list(calibration.indices) == sorted(calibration.indices)


def test_cache_magic_checked(tmp_path, calibration):
    path = tmp_path / "c.snnx"
    store.save_cache(calibration, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"ZZZZ"
    path.write_bytes(bytes(raw))
    with pytest.raises(store.BadMagicError):
        store.load_cache(path)
