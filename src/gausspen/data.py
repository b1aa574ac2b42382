"""Dataset ingestion and synthesis: IDX binary tensors, Gaussian-blob
classification data, stratified split management, and atomic CSV writing.

IDX layout (big-endian throughout):

    byte 0-1   two zero bytes
    byte 2     type code; only 0x08 (unsigned byte) is supported
    byte 3     number of dimensions d
    4 .. 4+4d  d dimension sizes as 32-bit unsigned integers
    rest       row-major payload, exactly prod(sizes) bytes
"""

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

IDX_UBYTE = 0x08


class IdxParseError(ValueError):
    """Malformed IDX stream; ``offset`` is the byte position of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class IdxMagicError(IdxParseError):
    pass


class IdxTypeCodeError(IdxParseError):
    pass


class IdxTruncationError(IdxParseError):
    pass


@dataclass
class LabeledDataset:
    """Feature matrix plus integer class labels for one split."""

    features: np.ndarray
    labels: np.ndarray
    split_tag: str = "train"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int).ravel()
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ConfigurationError("features must be a nonempty n x d matrix")
        if self.labels.shape[0] != self.features.shape[0]:
            raise ConfigurationError("labels length must match feature rows")
        if not np.all(np.isfinite(self.features)):
            raise ConfigurationError("features must be finite")
        if self.labels.min() < 0:
            raise ConfigurationError("labels must be nonnegative class indices")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def num_classes(self):
        return int(self.labels.max()) + 1


def parse_idx(data):
    """Decode an IDX byte stream into a uint8 array with its stored shape."""
    data = bytes(data)
    if len(data) < 4:
        raise IdxTruncationError("stream shorter than the 4-byte header", len(data))
    if data[0] != 0 or data[1] != 0:
        raise IdxMagicError(f"expected two zero magic bytes, got {data[0]:#04x} {data[1]:#04x}", 0)
    if data[2] != IDX_UBYTE:
        raise IdxTypeCodeError(f"unsupported type code {data[2]:#04x}; only 0x08 (ubyte)", 2)
    ndim = data[3]
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise IdxTruncationError("dimension table cut short", len(data))
    sizes = struct.unpack(f">{ndim}I", data[4:header_end]) if ndim else ()
    expected = int(np.prod(sizes, dtype=np.int64)) if ndim else 1
    available = len(data) - header_end
    if available < expected:
        raise IdxTruncationError(
            f"payload has {available} bytes, expected {expected}", len(data)
        )
    if available > expected:
        raise IdxTruncationError(
            f"{available - expected} trailing bytes after the payload", header_end + expected
        )
    flat = np.frombuffer(data, dtype=np.uint8, count=expected, offset=header_end)
    return flat.reshape(sizes)


def serialize_idx(array):
    """Encode a uint8 array as IDX bytes; inverse of :func:`parse_idx`."""
    # not ascontiguousarray, which turns a 0-d array into a 1-d one;
    # tobytes writes C order whatever the layout
    array = np.asarray(array, dtype=np.uint8)
    header = struct.pack(">BBBB", 0, 0, IDX_UBYTE, array.ndim)
    header += struct.pack(f">{array.ndim}I", *array.shape)
    return header + array.tobytes()


def load_idx(path):
    """Read an IDX file, transparently handling gzip-compressed variants."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return parse_idx(raw)


def idx_to_dataset(images, labels, split_tag="train"):
    """Bundle MNIST-style IDX tensors into a dataset: images flattened to one
    row per example and intensities scaled to [0, 1] by dividing by 255."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.shape[0] != labels.shape[0]:
        raise ConfigurationError("image and label tensors disagree on the example count")
    features = images.reshape(images.shape[0], -1).astype(float) / 255.0
    return LabeledDataset(features, labels, split_tag)


def _blob_centers(num_classes, dimension, separation):
    # deterministic layout: unit axis vectors with alternating sign, pushed
    # out one ring at a time, all scaled by the separation
    centers = np.zeros((num_classes, dimension))
    for c in range(num_classes):
        axis = c % dimension
        ring = c // (2 * dimension)
        sign = -1.0 if (c // dimension) % 2 else 1.0
        centers[c, axis] = sign * (1.0 + ring) * separation
    return centers


def make_blobs(num_classes, per_class, dimension, separation, seed):
    """Gaussian clusters (unit covariance) at deterministic centers.

    ``separation`` scales the distance between class centers; 0 makes all
    classes identically distributed.
    """
    if num_classes < 1 or per_class < 1 or dimension < 1:
        raise ConfigurationError("num_classes, per_class, and dimension must be >= 1")
    if separation < 0:
        raise ConfigurationError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    centers = _blob_centers(num_classes, dimension, separation)
    labels = np.repeat(np.arange(num_classes), per_class)
    features = centers[labels] + rng.standard_normal((num_classes * per_class, dimension))
    return LabeledDataset(features, labels)


def flip_labels(dataset, fraction, seed):
    """Return a copy with a seeded fraction of labels reassigned uniformly
    to some other class; the usual overfitting-prone noise model."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("label-noise fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    labels = dataset.labels.copy()
    k = dataset.num_classes
    n_flip = int(round(fraction * dataset.n))
    if n_flip and k > 1:
        idx = rng.choice(dataset.n, size=n_flip, replace=False)
        labels[idx] = (labels[idx] + rng.integers(1, k, size=n_flip)) % k
    return LabeledDataset(dataset.features.copy(), labels, dataset.split_tag)


def _allocate(count, fractions):
    # largest-remainder rounding: integer counts summing to `count`, each
    # within 1 of the exact target count*f
    exact = [count * f for f in fractions]
    base = [int(np.floor(v)) for v in exact]
    short = count - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: exact[i] - base[i], reverse=True)
    for i in order[:short]:
        base[i] += 1
    return base


def split(dataset, fractions, seed):
    """Stratified, disjoint, exhaustive (train, validation, test) split.

    Per class, a seeded shuffle is allocated by largest-remainder rounding,
    so every split's class counts sit within 1 of the exact proportion.
    """
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ConfigurationError("expected three positive split fractions")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError("split fractions must sum to 1")
    rng = np.random.default_rng(seed)
    parts = [[], [], []]
    for cls in np.unique(dataset.labels):
        idx = np.nonzero(dataset.labels == cls)[0]
        idx = rng.permutation(idx)
        counts = _allocate(len(idx), fractions)
        start = 0
        for part, cnt in zip(parts, counts):
            part.extend(idx[start:start + cnt].tolist())
            start += cnt
    tags = ("train", "validation", "test")
    out = []
    for tag, part in zip(tags, parts):
        if not part:
            raise ConfigurationError(f"{tag} split received zero examples")
        order = rng.permutation(len(part))
        sel = np.asarray(part)[order]
        out.append(LabeledDataset(dataset.features[sel], dataset.labels[sel], tag))
    return tuple(out)


def write_csv(path, header, rows):
    """Write a CSV atomically: rows go to a temporary file in the target
    directory, which then replaces ``path``, so a failure part-way leaves
    any earlier file at ``path`` intact.  Floats get 17 significant digits,
    each distinct value converted once; None is an empty cell."""
    texts = {}  # nonzero float -> its text; 0.0 == -0.0 but they print apart

    def cell(value):
        if not isinstance(value, float):
            return "" if value is None else str(value)
        text = texts.get(value)
        if text is None:
            text = f"{value:.17g}"
            if value:
                texts[value] = text
        return text

    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(map(cell, row)) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv_dataset(path, dataset):
    """Plain CSV with a header row; feature columns first, `label` last."""
    header = [f"x{i}" for i in range(dataset.features.shape[1])] + ["label"]
    rows = zip(dataset.features.tolist(), dataset.labels.tolist())
    write_csv(path, header, (row + [label] for row, label in rows))


def read_csv_dataset(path, split_tag="train"):
    """Read the CSV layout written by :func:`write_csv_dataset`."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        if not header or header[-1] != "label":
            raise ConfigurationError("dataset CSV must end with a `label` column")
        rows = []
        labels = []
        for line in handle:
            cells = line.strip().split(",")
            if len(cells) != len(header):
                raise ConfigurationError("ragged row in dataset CSV")
            rows.append([float(v) for v in cells[:-1]])
            labels.append(int(cells[-1]))
    return LabeledDataset(np.asarray(rows), np.asarray(labels), split_tag)
