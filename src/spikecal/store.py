"""Model files, datasets, and the calibration cache.

Model file layout (all integers little-endian):

    bytes 0..3    magic ``SNNC``
    bytes 4..5    format version, u16 (currently 1)
    bytes 6..9    header length in bytes, u32
    then          UTF-8 header text (line oriented, see below)
    then          parameter blob, float32 little-endian

The header describes layers and where each parameter lives in the blob,
with offsets and sizes counted in float32 elements::

    format snnc-model
    input_shape 784
    classes 10
    layer 0 dense in_features 784 out_features 256
    param 0 weight shape 256 784 offset 0 size 200704
    param 0 bias shape 256 offset 200704 size 256
    layer 1 relu
    ...
    blob_size 235146

Parameter sections must tile the blob exactly, in header order. The
calibration cache uses the same envelope with magic ``SNNX`` and
byte-addressed, per-array dtypes, since it mixes float and int arrays.

Every text artifact of the pipeline (neuron configs, plans, exit policy,
CSV tables) and the envelope headers above are read through ``Lines``, which
checks each line's keywords, field count and value types and reports any
fault as a ``StoreError`` naming ``<file>:<line>``. Every artifact is written
through ``write_atomic``: a temp file in the target directory, then
``os.replace``, so a reader never sees a half-written file.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import re
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import LayerSpec, ModelGraph, Tensor

MODEL_MAGIC = b"SNNC"
CACHE_MAGIC = b"SNNX"
FORMAT_VERSION = 1

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class StoreError(Exception):
    """Base for every malformed-artifact error raised by this module."""


class BadMagicError(StoreError):
    pass


class UnsupportedVersionError(StoreError):
    pass


class TruncatedBlobError(StoreError):
    pass


class OffsetError(StoreError):
    pass


class HeaderError(StoreError):
    pass


class CacheMismatchError(StoreError):
    """A calibration cache reused against a model it was not built from."""


# ---------------------------------------------------------------------------
# artifact text and atomic writes

# Every integer in an artifact (indices, counts, sizes, seeds) is
# nonnegative and at most INT_MAX, so it fits int64; floats are Python
# reprs, never NaN.
INT_MAX = 10**18 - 1
_INT = re.compile(rf"[0-9]{{1,{len(str(INT_MAX))}}}")
_FLOAT = re.compile(r"[+-]?(?:inf|[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?)")


def write_atomic(path, content: bytes | list[str]) -> None:
    """Write bytes, or text lines each ended by a newline, to ``path``.

    The data goes to a temp file in the same directory, which then replaces
    ``path``; missing directories are created. The file gets the mode a plain
    ``open`` would give it (0666 less the umask), not the temp file's 0600.
    """
    if not isinstance(content, bytes):
        content = ("\n".join(content) + "\n").encode("utf-8")
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0o077)  # the umask is read by setting it; restored at once
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(content)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _split_text(where: str, data: bytes) -> list[str]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data[: err.start].count(b"\n") + 1
        raise HeaderError(f"{where}:{line}: not UTF-8 text") from None
    lines = text.split("\n")
    if lines.pop() != "":
        raise HeaderError(f"{where}:{len(lines) + 1}: line cut short (no final newline)")
    return lines


class Lines:
    """The lines of one text artifact, read front to back.

    The first line must equal ``first``: a ``format ...`` line or a CSV
    header. Fields within a line are separated by exactly one ``sep``.
    ``error`` builds a ``HeaderError`` at the line taken last, so checks made
    right after a ``take`` point at the offending line.
    """

    def __init__(self, where: str, lines: list[str], first: str, sep: str = " "):
        self.where = where
        self.number = 1
        self._lines = lines
        self._sep = sep
        if not lines or lines[0] != first:
            raise self.error(f"expected {first!r} as the first line")

    def error(self, message: str, kind: type[StoreError] | None = None) -> StoreError:
        return (kind or HeaderError)(f"{self.where}:{self.number}: {message}")

    @contextlib.contextmanager
    def check(self):
        """Report a ValueError raised while building a record at the current line."""
        try:
            yield
        except ValueError as err:
            raise self.error(str(err)) from None

    def peek(self) -> list[str]:
        """Fields of the next line; an empty list at the end of the file."""
        if self.number < len(self._lines):
            return self._lines[self.number].split(self._sep)
        return []

    def take(self, *pattern) -> list:
        """Values of the next line, which must match ``pattern`` exactly.

        A string in the pattern is a literal keyword; ``int``, ``float``,
        ``bool`` (``true``/``false``) and ``str`` each stand for one field of
        that type; ``(int,)`` stands for one or more ints running up to the
        next keyword.
        """
        tokens = self.peek()
        self.number += 1
        if not tokens:
            raise self.error(f"expected a {pattern[0]!r} line, found the end of the file")
        values, i = [], 0
        for k, want in enumerate(pattern):
            if isinstance(want, tuple):
                stop = pattern[k + 1] if k + 1 < len(pattern) else None
                j = i
                while j < len(tokens) and tokens[j] != stop:
                    j += 1
                if j == i:
                    raise self.error(f"expected at least one {want[0].__name__}")
                values.append(tuple(self._value(t, want[0]) for t in tokens[i:j]))
                i = j
            elif i >= len(tokens):
                raise self.error(f"too few fields ({len(tokens)})")
            elif isinstance(want, str):
                if tokens[i] != want:
                    raise self.error(f"expected {want!r}, found {tokens[i]!r}")
                i += 1
            else:
                values.append(self._value(tokens[i], want))
                i += 1
        if i != len(tokens):
            raise self.error(f"too many fields ({len(tokens)})")
        return values

    def end(self) -> None:
        """The file must hold no further lines."""
        if self.peek():
            self.number += 1
            raise self.error("unexpected line")

    def _value(self, token: str, kind: type):
        if kind is str:
            return token
        if kind is bool and token in ("true", "false"):
            return token == "true"
        if kind in (int, float) and (_INT if kind is int else _FLOAT).fullmatch(token):
            return kind(token)
        raise self.error(f"expected {kind.__name__}, found {token!r}")


def read_lines(path, first: str, sep: str = " ") -> Lines:
    """Open a text artifact for strict reading; see ``Lines``."""
    where = os.fspath(path)
    with open(path, "rb") as fh:
        return Lines(where, _split_text(where, fh.read()), first, sep)


def _pack_envelope(magic: bytes, header_lines: list[str], blob: bytes) -> bytes:
    header = ("\n".join(header_lines) + "\n").encode("utf-8")
    return magic + struct.pack("<HI", FORMAT_VERSION, len(header)) + header + blob


def _unpack_envelope(data: bytes, magic: bytes, where: str) -> tuple[list[str], bytes]:
    if len(data) < 10 or data[:4] != magic:
        raise BadMagicError(
            f"{where}:1: expected magic {magic!r}, found {data[:4]!r}"
        )
    version, header_len = struct.unpack("<HI", data[4:10])
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{where}:1: format version {version} not supported (expected {FORMAT_VERSION})"
        )
    if len(data) < 10 + header_len:
        raise TruncatedBlobError(
            f"{where}:1: header declares {header_len} bytes but only {len(data) - 10} remain"
        )
    return _split_text(where, data[10 : 10 + header_len]), data[10 + header_len :]


def _take_section(doc: Lines, blob: bytes, cursor: int, shape, offset: int, size: int,
                  dtype: str, unit: int) -> np.ndarray:
    """The blob section a param/array line declares, in ``unit``-byte offsets.

    Sections must follow one another with no gap (``cursor`` is where the
    last one ended) and hold exactly ``shape``'s values.
    """
    if offset != cursor:
        raise doc.error(
            f"section starts at {offset}, previous section ended at {cursor}", OffsetError
        )
    count = math.prod(shape)
    if count * np.dtype(dtype).itemsize != size * unit:
        raise doc.error(f"shape {shape} does not match size {size}")
    if (offset + size) * unit > len(blob):
        raise doc.error(
            f"section ends at byte {(offset + size) * unit}, blob holds {len(blob)}",
            TruncatedBlobError,
        )
    return np.frombuffer(blob, dtype=dtype, count=count, offset=offset * unit).reshape(shape)


# ---------------------------------------------------------------------------
# model serialization

# Fields after ``layer <i> <kind>``, per kind: keywords and int placeholders.
_LAYER_FIELDS = {
    "dense": ("in_features", int, "out_features", int),
    "conv2d": (
        "in_channels", int, "out_channels", int,
        "kernel", int, int, "stride", int, int, "padding", int, int,
    ),
    "avgpool2d": ("kernel", int, int, "stride", int, int),
    "flatten": (),
    "relu": (),
}


def _layer_dims(layer: LayerSpec) -> list[int]:
    """The ints a layer line carries, in ``_LAYER_FIELDS`` order."""
    if layer.kind == "dense":
        return [layer.in_features, layer.out_features]
    if layer.kind == "conv2d":
        return [layer.in_channels, layer.out_channels, *layer.kernel, *layer.stride, *layer.padding]
    if layer.kind == "avgpool2d":
        return [*layer.kernel, *layer.stride]
    return []


def _make_layer(kind: str, dims: list[int], params: dict[str, np.ndarray]) -> LayerSpec:
    """Inverse of ``_layer_dims``, given the layer's parameter arrays."""
    if kind == "dense":
        return nn.dense(*dims, **params)
    if kind == "conv2d":
        c_in, c_out, kh, kw, sh, sw, ph, pw = dims
        return nn.conv2d(c_in, c_out, (kh, kw), (sh, sw), (ph, pw), **params)
    if kind == "avgpool2d":
        return nn.avgpool2d(dims[:2], dims[2:])
    return nn.flatten() if kind == "flatten" else nn.relu()


def _layer_struct_line(i: int, layer: LayerSpec) -> str:
    dims = iter(_layer_dims(layer))
    fields = [f if isinstance(f, str) else str(next(dims)) for f in _LAYER_FIELDS[layer.kind]]
    return " ".join(["layer", str(i), layer.kind, *fields])


def serialize_model(model: ModelGraph) -> bytes:
    model.validate()
    lines = ["format snnc-model"]
    lines.append("input_shape " + " ".join(str(d) for d in model.input_shape))
    lines.append(f"classes {model.class_count}")
    blobs: list[bytes] = []
    offset = 0
    for i, layer in enumerate(model.layers):
        lines.append(_layer_struct_line(i, layer))
        if layer.parameterized:
            for name in ("weight", "bias"):
                arr = getattr(layer, name)
                flat = np.ascontiguousarray(arr, dtype="<f4")
                size = int(flat.size)
                shape = " ".join(str(d) for d in arr.shape)
                lines.append(f"param {i} {name} shape {shape} offset {offset} size {size}")
                blobs.append(flat.tobytes())
                offset += size
    lines.append(f"blob_size {offset}")
    return _pack_envelope(MODEL_MAGIC, lines, b"".join(blobs))


def save_model(model: ModelGraph, path) -> None:
    write_atomic(path, serialize_model(model))


def deserialize_model(data: bytes, where: str = "<model bytes>") -> ModelGraph:
    """Parse a model envelope; ``where`` names the source in error messages."""
    lines, blob = _unpack_envelope(data, MODEL_MAGIC, where)
    doc = Lines(where, lines, "format snnc-model")
    (input_shape,) = doc.take("input_shape", (int,))
    (classes,) = doc.take("classes", int)
    layers: list[LayerSpec] = []
    cursor = 0
    while doc.peek()[:1] == ["layer"]:
        kind = (doc.peek() + ["", ""])[2]
        idx, *dims = doc.take("layer", int, kind, *_LAYER_FIELDS.get(kind, ()))
        if kind not in _LAYER_FIELDS:
            raise doc.error(f"unknown layer kind {kind!r}")
        if idx != len(layers):
            raise doc.error(f"expected layer {len(layers)}, found layer {idx}")
        params = {}
        if kind in ("dense", "conv2d"):
            for name in ("weight", "bias"):
                pidx, shape, offset, size = doc.take(
                    "param", int, name, "shape", (int,), "offset", int, "size", int
                )
                if pidx != idx:
                    raise doc.error(f"param for layer {pidx} follows layer {idx}")
                section = _take_section(doc, blob, cursor, shape, offset, size, "<f4", 4)
                params[name] = section.astype(np.float32)
                cursor += size
        with doc.check():
            layer = _make_layer(kind, dims, params)
        for name, arr in params.items():
            if getattr(layer, name).shape != arr.shape:
                raise doc.error(f"{name} shape {arr.shape} does not fit layer {idx}")
        layers.append(layer)
    (blob_size,) = doc.take("blob_size", int)
    if blob_size != cursor:
        raise doc.error(f"param sections cover {cursor} values, blob declares {blob_size}",
                        OffsetError)
    if len(blob) != 4 * blob_size:
        raise doc.error(
            f"blob declares {blob_size} float32 values ({blob_size * 4} bytes), "
            f"file carries {len(blob)} bytes",
            TruncatedBlobError,
        )
    doc.end()
    model = ModelGraph(layers, input_shape, classes)
    try:
        model.validate()
    except ValueError as err:
        raise HeaderError(f"{where}: {err}") from None
    return model


def load_model(path) -> ModelGraph:
    """The model saved at ``path``, with every weight and bias read-only.

    A loaded model is what gets served, so the engine may keep its float64
    dense operands for the model's life (``engine._float64_operands``). To
    change its parameters, ``clone()`` it: the copy's arrays are writable.
    """
    with open(path, "rb") as fh:
        model = deserialize_model(fh.read(), os.fspath(path))
    for layer in model.layers:
        if layer.parameterized:
            layer.weight.flags.writeable = False
            layer.bias.flags.writeable = False
    return model


def model_digest(model: ModelGraph) -> str:
    """Identity of architecture plus weights.

    Biases are deliberately excluded so that bias calibration (a conversion-side
    correction) does not orphan caches built against the source net. Any change
    to structure or weight values produces a new digest.
    """
    h = hashlib.sha256()
    h.update(("input_shape " + " ".join(str(d) for d in model.input_shape)).encode())
    h.update(f" classes {model.class_count} ".encode())
    for i, layer in enumerate(model.layers):
        h.update(_layer_struct_line(i, layer).encode())
        if layer.parameterized:
            h.update(np.ascontiguousarray(layer.weight, dtype="<f4").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# datasets

@dataclass
class DatasetHandle:
    """In-memory dataset: images [N, ...] float32 and integer labels [N]."""

    images: Tensor
    labels: np.ndarray

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"images ({len(self.images)}) and labels ({len(self.labels)}) disagree"
            )

    def __len__(self) -> int:
        return len(self.labels)


def _read_idx(path, magic: int, kind: str, dims: int) -> tuple[list[int], bytes]:
    """The ``dims`` header sizes and the uint8 payload of one IDX file."""
    with open(path, "rb") as fh:
        header = fh.read(4 * (1 + dims))
        if len(header) != 4 * (1 + dims):
            raise TruncatedBlobError(
                f"{path}: {kind} header holds {len(header)} bytes, needs {4 * (1 + dims)}"
            )
        found, *sizes = struct.unpack(f">{1 + dims}I", header)
        if found != magic:
            raise BadMagicError(f"{path}: {kind} file magic 0x{found:08x}, expected 0x{magic:08x}")
        size = math.prod(sizes)
        # never ask for more than the file holds, whatever the header claims
        raw = fh.read(min(size, os.fstat(fh.fileno()).st_size))
    if len(raw) != size:
        raise TruncatedBlobError(
            f"{path}: {kind} payload holds {len(raw)} bytes, header promises {size}"
        )
    return sizes, raw


def load_idx(images_path, labels_path) -> DatasetHandle:
    """Load a big-endian IDX image/label pair, scaling pixels to [0, 1].

    Images come back shaped [N, 1, rows, cols] so conv nets can consume them
    directly. Every error names the file it is about.
    """
    (count, rows, cols), raw = _read_idx(images_path, IDX_IMAGE_MAGIC, "image", 3)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols)
    images = images.astype(np.float32)
    images /= 255.0
    (lcount,), lraw = _read_idx(labels_path, IDX_LABEL_MAGIC, "label", 1)
    labels = np.frombuffer(lraw, dtype=np.uint8).astype(np.int64)
    if count != lcount:
        raise HeaderError(
            f"{images_path}: image count {count} does not match label count {lcount} "
            f"in {labels_path}"
        )
    return DatasetHandle(images=images, labels=labels)


def load_csv(path, image_shape, scale: float = 1.0 / 255.0) -> DatasetHandle:
    """Load ``label,pixel,pixel,...`` rows; pixels multiplied by ``scale``."""
    table = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    labels = table[:, 0]
    inexact = np.flatnonzero(~np.isfinite(labels) | (labels != np.floor(labels)))
    if inexact.size:
        row = int(inexact[0])
        raise HeaderError(f"{path}: row {row + 1}: label {float(labels[row])!r} is not an integer")
    labels = labels.astype(np.int64)
    pixels = table[:, 1:]
    pixels *= scale  # in place: the table is this function's own
    pixels = pixels.astype(np.float32)
    expected = int(np.prod(image_shape))
    if pixels.shape[1] != expected:
        raise HeaderError(
            f"{path}: rows carry {pixels.shape[1]} pixels, "
            f"image shape {tuple(image_shape)} needs {expected}"
        )
    images = pixels.reshape(len(labels), *image_shape)
    return DatasetHandle(images=images, labels=labels)


# float64 values of noise in one block of ``make_synthetic``'s draws (512 KiB)
_BLOCK_VALUES = 1 << 16


def _balanced_labels(n: int, classes: int, rng: np.random.Generator) -> np.ndarray:
    labels = np.arange(n, dtype=np.int64) % classes
    return labels[rng.permutation(n)]


def make_synthetic(
    kind: str,
    n: int,
    seed: int,
    *,
    classes: int = 4,
    dim=16,
    separation: float = 8.0,
    structure_seed: int | None = None,
) -> DatasetHandle:
    """Deterministic toy datasets with balanced classes (counts differ <= 1).

    ``blobs``: unit-variance Gaussian clusters whose centers sit pairwise
    about ``separation`` apart, in a flat or image-shaped feature space.
    ``rings``: concentric 2-D annuli, one radius per class; not linearly
    separable, which exercises the hidden layers.

    ``seed`` drives the sampling noise; ``structure_seed`` (default: same as
    ``seed``) pins the class geometry, so train/eval splits drawn with
    different sampling seeds but one structure seed share the same classes.
    """
    rng = np.random.default_rng(seed)
    if structure_seed is None:
        structure_seed = seed
    if kind == "blobs":
        shape = tuple(dim) if isinstance(dim, (tuple, list)) else (int(dim),)
        d = int(np.prod(shape))
        center_rng = np.random.default_rng(structure_seed)
        for _ in range(64):
            dirs = center_rng.standard_normal((classes, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            centers = dirs * (separation / np.sqrt(2.0))
            gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
            gaps[np.diag_indices(classes)] = np.inf
            if gaps.min() >= 0.8 * separation:
                break
        labels = _balanced_labels(n, classes, rng)
        # the noise is drawn a block of rows at a time: a Generator's normal
        # stream does not depend on how its draws are split, so the bytes equal
        # one (n, d) draw's, without three float64 arrays of the full size
        rows = max(1, _BLOCK_VALUES // d)
        images, block = np.empty((n, d), dtype=np.float32), np.empty((min(rows, n), d))
        for start in range(0, n, rows):
            part = block[: min(rows, n - start)]
            rng.standard_normal(out=part)
            np.add(centers[labels[start : start + len(part)]], part, out=part)
            images[start : start + len(part)] = part
        images = images.reshape(n, *shape)
    elif kind == "rings":
        labels = _balanced_labels(n, classes, rng)
        radii = 1.0 + labels.astype(np.float64)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
        r = radii + 0.1 * rng.standard_normal(n)
        images = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1).astype(np.float32)
    else:
        raise ValueError(f"unknown synthetic dataset kind {kind!r}")
    return DatasetHandle(images=images, labels=labels)


# ---------------------------------------------------------------------------
# calibration cache

@dataclass
class CalibrationCache:
    """Frozen activation snapshots for a fixed calibration subset.

    ``taps`` holds post-relu activations keyed by layer index, ``logits`` the
    source net's scores on the same inputs. ``model_digest`` pins the cache to
    the net it was built from.
    """

    model_digest: str
    seed: int
    indices: np.ndarray
    inputs: Tensor
    labels: np.ndarray
    logits: Tensor
    taps: dict[int, Tensor]

    @property
    def sample_count(self) -> int:
        return len(self.indices)

    def check_model(self, model: ModelGraph) -> None:
        digest = model_digest(model)
        if digest != self.model_digest:
            raise CacheMismatchError(
                f"cache was built for model {self.model_digest[:12]}..., "
                f"got {digest[:12]}..."
            )


def build_calibration_cache(
    model: ModelGraph, dataset: DatasetHandle, sample_count: int, seed: int
) -> CalibrationCache:
    """Sample ``sample_count`` inputs without replacement and snapshot taps."""
    n = len(dataset)
    if sample_count > n:
        raise ValueError(f"requested {sample_count} samples from a dataset of {n}")
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(n, size=sample_count, replace=False)).astype(np.int64)
    inputs = np.ascontiguousarray(dataset.images[indices], dtype=np.float32)
    labels = np.asarray(dataset.labels)[indices].astype(np.int64)
    logits, taps = nn.forward_with_taps(model, inputs)
    return CalibrationCache(
        model_digest=model_digest(model),
        seed=int(seed),
        indices=indices,
        inputs=inputs,
        labels=labels,
        logits=np.asarray(logits, dtype=np.float32),
        taps={i: np.asarray(t, dtype=np.float32) for i, t in taps.items()},
    )


_CACHE_DTYPES = {"f32": "<f4", "i64": "<i8"}
# The arrays every cache holds, in file order; tap_<layer> arrays follow.
_CACHE_ARRAYS = (("indices", "i64"), ("labels", "i64"), ("inputs", "f32"), ("logits", "f32"))
_ARRAY_TAIL = ("shape", (int,), "offset", int, "size", int)


def save_cache(cache: CalibrationCache, path) -> None:
    arrays = [(name, tag, getattr(cache, name)) for name, tag in _CACHE_ARRAYS]
    for idx in sorted(cache.taps):
        arrays.append((f"tap_{idx}", "f32", cache.taps[idx]))
    lines = [
        "format snnc-cache",
        f"model_digest {cache.model_digest}",
        f"seed {cache.seed}",
        f"samples {cache.sample_count}",
    ]
    blobs: list[bytes] = []
    offset = 0
    for name, tag, arr in arrays:
        raw = np.ascontiguousarray(arr, dtype=_CACHE_DTYPES[tag]).tobytes()
        shape = " ".join(str(d) for d in arr.shape)
        lines.append(f"array {name} {tag} shape {shape} offset {offset} size {len(raw)}")
        blobs.append(raw)
        offset += len(raw)
    write_atomic(path, _pack_envelope(CACHE_MAGIC, lines, b"".join(blobs)))


def load_cache(path) -> CalibrationCache:
    where = os.fspath(path)
    with open(path, "rb") as fh:
        lines, blob = _unpack_envelope(fh.read(), CACHE_MAGIC, where)
    doc = Lines(where, lines, "format snnc-cache")
    (digest,) = doc.take("model_digest", str)
    (seed,) = doc.take("seed", int)
    (samples,) = doc.take("samples", int)
    cursor = 0

    def section(shape, offset, size, tag) -> np.ndarray:
        nonlocal cursor
        if shape[0] != samples:
            raise doc.error(f"array holds {shape[0]} samples, header declares {samples}")
        arr = _take_section(doc, blob, cursor, shape, offset, size, _CACHE_DTYPES[tag], 1)
        cursor += size
        return arr

    arrays = {
        name: section(*doc.take("array", name, tag, *_ARRAY_TAIL), tag)
        for name, tag in _CACHE_ARRAYS
    }
    taps: dict[int, np.ndarray] = {}
    while doc.peek():
        name, *tail = doc.take("array", str, "f32", *_ARRAY_TAIL)
        layer = name.removeprefix("tap_")
        if not name.startswith("tap_") or not _INT.fullmatch(layer) or int(layer) in taps:
            raise doc.error(f"expected a new tap_<layer> array, found {name!r}")
        taps[int(layer)] = section(*tail, "f32").astype(np.float32)
    if cursor != len(blob):
        raise doc.error(f"arrays cover {cursor} bytes, blob holds {len(blob)}",
                        TruncatedBlobError)
    return CalibrationCache(
        model_digest=digest,
        seed=seed,
        indices=arrays["indices"].astype(np.int64),
        labels=arrays["labels"].astype(np.int64),
        inputs=arrays["inputs"].astype(np.float32),
        logits=arrays["logits"].astype(np.float32),
        taps=taps,
    )
