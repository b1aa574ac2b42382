"""Dataset ingestion and synthesis: IDX binary tensors, Gaussian-blob
classification data, stratified split management, and :func:`write_file`,
the one atomic writer that every file the package writes goes through.

IDX layout (big-endian throughout):

    byte 0-1   two zero bytes
    byte 2     type code; only 0x08 (unsigned byte) is supported
    byte 3     number of dimensions d
    4 .. 4+4d  d dimension sizes as 32-bit unsigned integers
    rest       row-major payload, exactly prod(sizes) bytes
"""

import contextlib
import gzip
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError

IDX_UBYTE = 0x08


class IdxParseError(FormatError):
    """Malformed IDX stream; ``offset`` is the byte position of the problem."""


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
    """Read an IDX file, transparently handling gzip-compressed variants.  A
    corrupt gzip stream is an :class:`IdxParseError` too, at the file's length
    if it ends early and at 0 otherwise."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except EOFError as exc:
            raise IdxParseError(f"gzip stream cut short: {exc}", len(raw)) from None
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise IdxParseError(f"corrupt gzip stream: {exc}", 0) from None
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
    # the noise, then each centre added into its class's rows in place: the
    # bits of centers[labels] + noise, as addition commutes, in one matrix
    features = rng.standard_normal((num_classes * per_class, dimension))
    for c, centre in enumerate(centers):
        features[c * per_class:(c + 1) * per_class] += centre
    return LabeledDataset(features, labels)


def flip_labels(dataset, fraction, seed):
    """Return a dataset with a seeded fraction of labels reassigned uniformly
    to some other class; the usual overfitting-prone noise model.  It copies
    the labels only and shares the feature matrix, which nothing writes."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("label-noise fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    labels = dataset.labels.copy()
    k = dataset.num_classes
    n_flip = int(round(fraction * dataset.n))
    if n_flip and k > 1:
        idx = rng.choice(dataset.n, size=n_flip, replace=False)
        labels[idx] = (labels[idx] + rng.integers(1, k, size=n_flip)) % k
    return LabeledDataset(dataset.features, labels, dataset.split_tag)


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

    Per class present, in ascending order, a seeded shuffle is cut once at
    largest-remainder counts, so every split's class counts sit within 1 of
    the exact proportion; each split then joins its pieces and shuffles once.
    """
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ConfigurationError("expected three positive split fractions")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError("split fractions must sum to 1")
    rng = np.random.default_rng(seed)
    pieces = []
    # the classes np.unique gives, without its first-call import of numpy.ma
    for cls in np.flatnonzero(np.bincount(dataset.labels)):
        idx = rng.permutation(np.nonzero(dataset.labels == cls)[0])
        pieces.append(np.split(idx, np.cumsum(_allocate(len(idx), fractions))[:-1]))
    out = []
    for tag, part in zip(("train", "validation", "test"), zip(*pieces)):
        part = np.concatenate(part)
        if not part.size:
            raise ConfigurationError(f"{tag} split received zero examples")
        sel = part[rng.permutation(part.size)]
        out.append(LabeledDataset(dataset.features[sel], dataset.labels[sel], tag))
    return tuple(out)


CSV_BLOCK_ROWS = 2048  # rows converted and written at a time


def cell_texts(values):
    """The CSV cell text of each value: None is an empty cell, a float
    prints with 17 significant digits (``-0`` apart from ``0``) and anything
    else as ``str`` gives it."""
    return ["" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
            for v in values]


def write_file(path, chunks):
    """Write the byte chunks (bytes or contiguous arrays) as the file ``path``,
    making its directory if missing.  The chunks go to ``.{name}.{pid}.tmp``
    beside ``path``, which then replaces it; a failure part-way removes that
    file and the directories this call made, and leaves any earlier file at
    ``path`` intact."""
    directory, name = os.path.split(os.fspath(path))
    made = []  # the missing directories, deepest first
    parent = directory
    while parent and not os.path.isdir(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        os.makedirs(directory or ".", exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        for made_dir in made:
            with contextlib.suppress(OSError):  # not empty: another writer's file is in it
                os.rmdir(made_dir)
        raise


def write_csv(path, header, columns):
    """Write a table, given as equal-length columns (sequences), as UTF-8
    CSV through :func:`write_file`.  Rows are converted and written
    ``CSV_BLOCK_ROWS`` at a time, so the text of a whole table is never held
    at once; every cell is converted by :func:`cell_texts`, so a column
    already converted by it is written as it is."""
    columns = list(columns)
    count = len(columns[0]) if columns else 0
    if any(len(column) != count for column in columns):
        raise ValueError("CSV columns differ in length")

    def blocks():
        yield (",".join(header) + "\n").encode()
        for start in range(0, count, CSV_BLOCK_ROWS):
            block = [cell_texts(column[start:start + CSV_BLOCK_ROWS]) for column in columns]
            yield ("\n".join(map(",".join, zip(*block))) + "\n").encode()

    write_file(path, blocks())
