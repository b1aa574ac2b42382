import ast
import gzip
import os
import pathlib
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import traced_peak
from gausspen import data
from gausspen.data import (
    IdxParseError,
    LabeledDataset,
    flip_labels,
    idx_to_dataset,
    load_idx,
    make_blobs,
    parse_idx,
    serialize_idx,
    split,
    write_csv,
    write_file,
)
from gausspen.errors import ConfigurationError


# --- IDX -----------------------------------------------------------------------


def test_parse_idx_one_dimensional():
    # hand-assembled: 00 00 08 01 | size 3 | payload 5 0 9
    blob = bytes([0, 0, 0x08, 1]) + struct.pack(">I", 3) + bytes([5, 0, 9])
    tensor = parse_idx(blob)
    assert tensor.dtype == np.uint8
    assert tensor.shape == (3,)
    assert tensor.tolist() == [5, 0, 9]


def test_parse_idx_three_dimensional():
    blob = bytes([0, 0, 0x08, 3]) + struct.pack(">III", 2, 2, 2) + bytes(range(8))
    tensor = parse_idx(blob)
    assert tensor.shape == (2, 2, 2)
    assert tensor[1, 0, 1] == 5
    assert tensor.ravel().tolist() == list(range(8))


def test_parse_idx_bad_magic():
    blob = bytes([1, 0, 0x08, 1]) + struct.pack(">I", 1) + bytes([0])
    with pytest.raises(IdxParseError, match="expected two zero magic bytes, got 0x01 0x00") as err:
        parse_idx(blob)
    assert err.value.offset == 0


def test_parse_idx_bad_type_code():
    blob = bytes([0, 0, 0x0D, 1]) + struct.pack(">I", 1) + bytes([0, 0, 0, 0])
    with pytest.raises(IdxParseError, match="unsupported type code 0x0d") as err:
        parse_idx(blob)
    assert err.value.offset == 2


def test_parse_idx_truncated_payload():
    blob = bytes([0, 0, 0x08, 2]) + struct.pack(">II", 3, 4) + bytes(10)
    with pytest.raises(IdxParseError, match="payload has 10 bytes, expected 12") as err:
        parse_idx(blob)
    assert err.value.offset == len(blob)


def test_parse_idx_trailing_bytes():
    blob = bytes([0, 0, 0x08, 1]) + struct.pack(">I", 2) + bytes([1, 2, 3])
    with pytest.raises(IdxParseError, match="1 trailing bytes after the payload") as err:
        parse_idx(blob)
    assert err.value.offset == 4 + 4 + 2


def test_parse_idx_error_hierarchy():
    with pytest.raises(IdxParseError):
        parse_idx(b"\x00\x00")


def test_corrupt_idx_stream_is_a_configuration_error_with_its_offset():
    # a corrupt input file exits 1, as a malformed checkpoint does
    blob = bytes([0, 0, 0x08, 1]) + struct.pack(">I", 5) + bytes(3)
    with pytest.raises(ConfigurationError) as err:
        parse_idx(blob)
    assert err.value.offset == len(blob) and "byte offset 11" in str(err.value)


def test_idx_roundtrip():
    rng = np.random.default_rng(0)
    for shape in [(7,), (3, 5), (2, 3, 4), (28, 28)]:
        tensor = rng.integers(0, 256, size=shape).astype(np.uint8)
        blob = serialize_idx(tensor)
        again = parse_idx(blob)
        assert np.array_equal(tensor, again)
        assert serialize_idx(again) == blob


# uint8 arrays of ndim 0-4, empty sides included
UINT8_ARRAYS = hnp.arrays(np.uint8, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5))


@given(UINT8_ARRAYS)
def test_idx_roundtrip_property(tensor):
    again = parse_idx(serialize_idx(tensor))
    assert again.dtype == np.uint8 and again.shape == tensor.shape
    assert np.array_equal(again, tensor)


@given(UINT8_ARRAYS)
def test_idx_every_strict_prefix_is_truncated(tensor):
    blob = serialize_idx(tensor)
    for cut in range(len(blob)):
        with pytest.raises(IdxParseError, match="shorter than the 4-byte header|cut short|"
                           "bytes, expected") as err:
            parse_idx(blob[:cut])
        assert err.value.offset == cut


def test_load_idx_plain_and_gzip(tmp_path):
    tensor = np.arange(12, dtype=np.uint8).reshape(3, 4)
    blob = serialize_idx(tensor)
    plain = tmp_path / "t.idx"
    plain.write_bytes(blob)
    assert np.array_equal(load_idx(plain), tensor)
    packed = tmp_path / "t.idx.gz"
    packed.write_bytes(gzip.compress(blob))
    assert np.array_equal(load_idx(packed), tensor)


PACKED = gzip.compress(serialize_idx(np.arange(12, dtype=np.uint8).reshape(3, 4)), mtime=0)


@pytest.mark.parametrize("blob, offset", [
    (PACKED[:-5], len(PACKED) - 5),  # cut short: EOFError
    (PACKED[:2], 2),  # the magic alone: EOFError
    (PACKED[:2] + b"\x07" + PACKED[3:], 0),  # a flipped method byte: BadGzipFile
    (PACKED[:12] + bytes([PACKED[12] ^ 0xFF]) + PACKED[13:], 0),  # a flipped data byte: zlib.error
    (PACKED[:-8] + bytes(4) + PACKED[-4:], 0),  # a broken CRC: BadGzipFile
], ids=["truncated", "magic-alone", "flipped-method", "flipped-data", "bad-crc"])
def test_corrupt_gzip_idx_is_a_parse_error(tmp_path, blob, offset):
    path = tmp_path / "t.idx.gz"
    path.write_bytes(blob)
    with pytest.raises(IdxParseError) as err:
        load_idx(path)
    assert err.value.offset == offset
    assert isinstance(err.value, ConfigurationError)


# random bytes, or a valid stream with one byte replaced or cut short
GZIP_TAILS = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda pos, byte: PACKED[2:pos] + bytes([byte]) + PACKED[pos + 1:],
              st.integers(2, len(PACKED) - 1), st.integers(0, 255)),
    st.builds(lambda cut: PACKED[2:cut], st.integers(2, len(PACKED))),
)


@given(GZIP_TAILS)
@example(PACKED[2:-1])
def test_any_gzip_bytes_load_or_are_a_parse_error(tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "t.idx.gz"
        path.write_bytes(b"\x1f\x8b" + tail)
        try:
            load_idx(path)
        except IdxParseError:
            pass


def test_idx_to_dataset_scales_pixels():
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    images[1] = 255
    images[2, 0, 0] = 51
    labels = np.array([0, 1, 2], dtype=np.uint8)
    dataset = idx_to_dataset(images, labels, split_tag="test")
    assert dataset.features.shape == (3, 4)
    assert dataset.features.max() == 1.0
    assert dataset.features[2, 0] == pytest.approx(0.2)
    assert dataset.labels.tolist() == [0, 1, 2]
    assert dataset.split_tag == "test"
    with pytest.raises(ConfigurationError):
        idx_to_dataset(images, labels[:2])


# --- blobs ----------------------------------------------------------------------


def test_blobs_deterministic():
    a = make_blobs(3, 10, 4, 2.0, seed=5)
    b = make_blobs(3, 10, 4, 2.0, seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_zero_separation_identical_distributions():
    dataset = make_blobs(4, 200, 3, 0.0, seed=6)
    means = [dataset.features[dataset.labels == c].mean(axis=0) for c in range(4)]
    for m in means:
        assert np.abs(m).max() < 0.3  # all classes centered at the origin


def test_blobs_high_separation_linearly_separable():
    dataset = make_blobs(2, 100, 2, 10.0, seed=7)
    c0 = dataset.features[dataset.labels == 0].mean(axis=0)
    c1 = dataset.features[dataset.labels == 1].mean(axis=0)
    # midpoint-hyperplane classifier: a fixed linear rule with zero error
    normal = c0 - c1
    threshold = (c0 + c1) @ normal / 2.0
    predicted = (dataset.features @ normal > threshold).astype(int)
    predicted = 1 - predicted  # class 0 on the positive side
    assert np.mean(predicted != dataset.labels) == 0.0


@settings(max_examples=60, deadline=None)
@given(classes=st.integers(1, 12), per_class=st.integers(1, 20), dimension=st.integers(1, 6),
       seed=st.integers(0, 2**64 - 1),
       separation=st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
# a zero separation makes every negative centre coordinate -0.0
@example(classes=5, per_class=3, dimension=2, seed=0, separation=0.0)
def test_blobs_match_the_centres_plus_noise_formula(classes, per_class, dimension, seed,
                                                     separation):
    # the noise drawn first, then every class centre added into its rows in
    # place: the bits of centres[labels] + noise, byte for byte
    centres = data._blob_centers(classes, dimension, separation)
    labels = np.repeat(np.arange(classes), per_class)
    noise = np.random.default_rng(seed).standard_normal((classes * per_class, dimension))
    dataset = make_blobs(classes, per_class, dimension, separation, seed)
    assert dataset.features.tobytes() == (centres[labels] + noise).tobytes()
    assert dataset.labels.tobytes() == labels.tobytes()


def test_blobs_hold_one_matrix():
    # 4 x 5,000 x 50 doubles, 8 MB: the noise is drawn once and the centres
    # added into it, so make_blobs peaks at about its own output, not the
    # three matrices of centres[labels] + noise
    output = 4 * 5000 * 50 * 8
    peak = traced_peak(make_blobs, 4, 5000, 50, 3.0, 0)
    assert output <= peak < 1.5 * output


def test_dataset_checks_its_features_without_a_temporary():
    # the finiteness check reads the minimum and the maximum, so neither a
    # dataset over an 8.2 MB matrix, kept as given, nor flip_labels' dataset,
    # which shares it, makes an n x d bool temporary (1 MB) beside it
    features = np.random.default_rng(0).standard_normal((4096, 250))
    labels = np.arange(4096) % 4
    assert traced_peak(LabeledDataset, features, labels) < 0.01 * features.nbytes
    dataset = LabeledDataset(features, labels)
    assert traced_peak(flip_labels, dataset, 0.0, 0) < 0.01 * features.nbytes


def test_blobs_validation():
    with pytest.raises(ConfigurationError):
        make_blobs(0, 5, 2, 1.0, seed=0)
    with pytest.raises(ConfigurationError):
        make_blobs(2, 5, 2, -1.0, seed=0)
    # a dataset built directly, and a label-noise fraction, are checked too
    for features, labels, message in (
            (np.zeros((3, 2)), [0, 1], "labels length must match feature rows"),
            ([[0.0, np.nan], [1.0, 2.0]], [0, 1], "features must be finite"),
            ([[0.0], [np.inf]], [0, 1], "features must be finite"),
            ([[-np.inf, 1e308], [1e308, 0.0]], [0, 1], "features must be finite"),
            (np.zeros((2, 1)), [0, -1], "labels must be nonnegative class indices")):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            LabeledDataset(features, labels)
    # no feature at all has no infinite one; 1e308 + 1e308 is not a feature
    assert LabeledDataset(np.zeros((3, 0)), [0, 1, 2]).features.shape == (3, 0)
    assert LabeledDataset([[1e308], [1.7e308]], [0, 1]).n == 2
    dataset = make_blobs(2, 5, 2, 1.0, seed=0)
    for fraction in (-0.1, 1.5, np.nan):
        with pytest.raises(ConfigurationError, match=r"^label-noise fraction must be in \[0, 1\]$"):
            flip_labels(dataset, fraction, seed=0)


def test_flip_labels_fraction_and_determinism():
    dataset = make_blobs(3, 100, 2, 5.0, seed=8)
    noisy = flip_labels(dataset, 0.2, seed=9)
    again = flip_labels(dataset, 0.2, seed=9)
    assert np.array_equal(noisy.labels, again.labels)
    changed = int(np.sum(noisy.labels != dataset.labels))
    assert changed == 60  # every flip lands on a different class
    assert np.array_equal(noisy.features, dataset.features)


def test_flip_labels_shares_the_features_and_copies_the_labels():
    dataset = make_blobs(3, 20, 2, 5.0, seed=8)
    labels = dataset.labels.copy()
    noisy = flip_labels(dataset, 0.3, seed=9)
    assert np.shares_memory(noisy.features, dataset.features)
    assert not np.shares_memory(noisy.labels, dataset.labels)
    assert np.array_equal(dataset.labels, labels)


# --- split ----------------------------------------------------------------------


def _split_reference(dataset, fractions, seed):
    # split's rule with its classes from np.unique, as it once took them
    rng = np.random.default_rng(seed)
    parts = [[], [], []]
    for cls in np.unique(dataset.labels):
        idx = rng.permutation(np.nonzero(dataset.labels == cls)[0])
        start = 0
        for part, cnt in zip(parts, data._allocate(len(idx), fractions)):
            part.extend(idx[start:start + cnt].tolist())
            start += cnt
    if not all(parts):
        return None
    return [np.asarray(part)[rng.permutation(len(part))] for part in parts]


# labels from a few classes of 0..9, so most draws leave some class absent
SPARSE_LABELS = st.sets(st.integers(0, 9), min_size=1, max_size=5).flatmap(
    lambda classes: st.lists(st.sampled_from(sorted(classes)), min_size=1, max_size=60))


@settings(max_examples=100, deadline=None)
@given(
    labels=SPARSE_LABELS,
    fractions=st.sampled_from([(0.5, 0.25, 0.25), (0.8, 0.1, 0.1), (0.2, 0.3, 0.5)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(labels=[0, 2, 5] * 8, fractions=(0.5, 0.25, 0.25), seed=0)
def test_split_takes_the_classes_np_unique_gives(labels, fractions, seed):
    dataset = LabeledDataset(np.arange(len(labels), dtype=float)[:, None], labels)
    expected = _split_reference(dataset, fractions, seed)
    if expected is None:
        with pytest.raises(ConfigurationError, match="zero examples"):
            split(dataset, fractions, seed)
        return
    for part, rows, tag in zip(split(dataset, fractions, seed), expected,
                               ("train", "validation", "test")):
        assert part.split_tag == tag
        assert part.features.tobytes() == dataset.features[rows].tobytes()
        assert part.labels.tobytes() == dataset.labels[rows].tobytes()


def test_split_sizes():
    dataset = make_blobs(10, 10, 2, 1.0, seed=10)  # 100 examples
    tr, va, te = split(dataset, (0.8, 0.1, 0.1), seed=0)
    assert (tr.n, va.n, te.n) == (80, 10, 10)
    assert (tr.split_tag, va.split_tag, te.split_tag) == ("train", "validation", "test")


def test_split_partition():
    dataset = make_blobs(3, 33, 2, 1.0, seed=11)
    tr, va, te = split(dataset, (0.6, 0.2, 0.2), seed=1)
    # features partition the originals exactly: match rows by value
    original = {tuple(row) for row in dataset.features}
    combined = [tuple(row) for part in (tr, va, te) for row in part.features]
    assert len(combined) == dataset.n
    assert set(combined) == original


def test_split_deterministic():
    dataset = make_blobs(4, 25, 3, 1.0, seed=12)
    a = split(dataset, (0.5, 0.25, 0.25), seed=2)
    b = split(dataset, (0.5, 0.25, 0.25), seed=2)
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def test_split_stratified_within_one():
    dataset = make_blobs(10, 100, 2, 1.0, seed=13)  # balanced 1000 examples
    tr, va, te = split(dataset, (0.8, 0.1, 0.1), seed=3)
    for part, frac in ((tr, 0.8), (va, 0.1), (te, 0.1)):
        counts = np.bincount(part.labels, minlength=10)
        assert np.all(np.abs(counts - 100 * frac) <= 1.0)


def test_split_validation():
    dataset = make_blobs(2, 10, 2, 1.0, seed=14)
    with pytest.raises(ConfigurationError):
        split(dataset, (0.5, 0.5), seed=0)
    with pytest.raises(ConfigurationError):
        split(dataset, (0.7, 0.2, 0.2), seed=0)
    # NaN fails both fraction checks, not _allocate
    for fractions in ((np.nan, 0.5, 0.5), (0.5, 0.5, np.nan)):
        with pytest.raises(ConfigurationError, match="^expected three positive split fractions$"):
            split(dataset, fractions, seed=0)
    tiny = LabeledDataset(np.zeros((2, 1)), np.array([0, 1]))
    with pytest.raises(ConfigurationError):
        split(tiny, (0.5, 0.25, 0.25), seed=0)  # some split gets nothing


# --- CSV ------------------------------------------------------------------------


# values whose shortest repr is not their 17-digit form, a signed zero and a
# value near the bottom of the normal range
AWKWARD = [[0.1, 1.0 / 3.0], [-0.0, 1e-300]]
AWKWARD_CELLS = "0.10000000000000001,0.33333333333333331,{}\n-0,1e-300,{}\n"


def test_csv_bytes(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ("a", "b", "c"), zip(*[(*AWKWARD[0], None), (*AWKWARD[1], "tag")]))
    assert path.read_bytes() == ("a,b,c\n" + AWKWARD_CELLS.format("", "tag")).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]  # no temp files


def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# every float64 hypothesis reaches (NaN, +-inf, +-0.0, subnormals), also as
# np.float64, next to ints and bools that compare equal to some floats
CELLS = st.one_of(
    st.floats(), st.floats().map(np.float64), st.sampled_from([0.0, -0.0, 1.0, 1, True]),
    st.integers(), st.booleans(), st.none(), st.from_regex(r"[A-Za-z0-9_.()=+-]*", fullmatch=True),
)
# columns of one type: all floats (repeated values, signed zeros and NaN among
# them) or all str
REPEATED_FLOATS = st.sampled_from([0.0, -0.0, 0.1, -2.5, float("nan"), float("inf"),
                                   -float("inf")]) | st.floats()
COLUMN_CELLS = (CELLS, REPEATED_FLOATS, st.text(alphabet="ab_.-", max_size=3))


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 12))
    width = draw(st.integers(1, 4))
    return [draw(st.lists(draw(st.sampled_from(COLUMN_CELLS)), min_size=rows, max_size=rows))
            for _ in range(width)]


NAN, INF = float("nan"), float("inf")


@settings(max_examples=200)
@given(tables(), st.integers(1, 5))
# signed zeros on both sides of each block boundary, and ints, bools and
# np.float64 next to the floats they compare equal to
@example([[0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 1.5, 1.5], [-0.0, 0.0, 0.0, -0.0] * 2], 2)
@example([[0.0, -0.0, 0.0, -0.0, 0.0], [-0.0, 0.0, -0.0, 0.0, -0.0]], 1)
@example([[np.float64(-0.0), -0.0, 0.0, np.float64(0.0)]], 3)
@example([[1.0, 1, True, np.float64(1.0), 1.0, 1], [True, 1, 1.0, False, 0, 0.0]], 4)
@example([[NAN, INF, -INF, NAN, INF, -INF, 5e-324, -5e-324, 5e-324]], 2)
@example([[10.0**17, 10**17, 5e-324, -5e-324, NAN, INF, -INF]], 5)
@example([["x", "y", "x"], ["", "", ""], [None, None, None]], 2)
def test_csv_cells_match_per_cell_reference(columns, block_rows):
    # converting a column a block at a time must not change a byte of the
    # row-by-row, cell-by-cell rendering
    rows = zip(*columns)
    expected = "a,b\n" + "".join(",".join(map(_reference_cell, row)) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "CSV_BLOCK_ROWS", block_rows):
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, ("a", "b"), columns)
        with open(path, "rb") as handle:
            assert handle.read() == expected.encode()


def test_csv_columns_of_unequal_length_are_rejected(tmp_path):
    # rows of a table are the zip of its columns: a ragged table has no rows
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(path, ("a", "b"), [[1.0, 2.0], [3.0]])
    assert not list(tmp_path.iterdir())


# --- the one write path ----------------------------------------------------------------


class ChunkFailure(Exception):
    pass


CHUNKS = st.lists(st.binary(max_size=40), max_size=6)


def _entries(root):
    return sorted(os.path.relpath(os.path.join(top, name), root)
                  for top, dirs, files in os.walk(root) for name in dirs + files)


@settings(max_examples=100)
@given(CHUNKS, CHUNKS, st.sampled_from([(), ("new",), ("new", "sub")]), st.data())
def test_write_file_writes_the_chunks_or_keeps_the_earlier_file(earlier, chunks, parts, drawn):
    # a finished write is the chunks' concatenation; one that fails at any
    # chunk leaves the earlier file as it was, and no temporary file; a first
    # write that fails into missing directories leaves none of those it made
    fail_at = drawn.draw(st.integers(0, len(chunks)), label="fail_at")
    existing = drawn.draw(st.integers(0, len(parts)), label="existing")

    def failing():
        yield from chunks[:fail_at]
        raise ChunkFailure

    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, *parts[:existing]), exist_ok=True)
        before = _entries(tmp)
        path = os.path.join(tmp, *parts, "out.bin")
        with pytest.raises(ChunkFailure):
            write_file(path, failing())
        assert _entries(tmp) == before
        directory = os.path.dirname(path)
        write_file(path, earlier)
        with open(path, "rb") as handle:
            assert handle.read() == b"".join(earlier)
        with pytest.raises(ChunkFailure):
            write_file(path, failing())
        assert os.listdir(directory) == ["out.bin"]
        with open(path, "rb") as handle:
            assert handle.read() == b"".join(earlier)
        write_file(path, iter(chunks))
        with open(path, "rb") as handle:
            assert handle.read() == b"".join(chunks)
        assert os.listdir(directory) == ["out.bin"]


def test_writes_make_their_missing_directories(tmp_path, monkeypatch):
    from gausspen.mlp import MlpArchitecture, init_weights, load_weights, save_weights

    table = tmp_path / "a" / "b" / "rows.csv"
    write_csv(table, ("x",), [[1.5]])
    assert table.read_bytes() == b"x\n1.5\n"
    checkpoint = tmp_path / "c" / "d" / "w.mlpw"
    weights = init_weights(MlpArchitecture((2, 3, 2)), seed=0)
    save_weights(checkpoint, weights)
    assert all(np.array_equal(W, W2) and np.array_equal(b, b2)
               for (W, b), (W2, b2) in zip(weights, load_weights(checkpoint)))
    monkeypatch.chdir(tmp_path)  # a bare file name is written in the working directory
    write_file("bare.bin", [b"ab", np.arange(2.0)])
    assert (tmp_path / "bare.bin").read_bytes() == b"ab" + np.arange(2.0).tobytes()


# what makes or removes a file or directory, or opens a file to write it
FILE_CALLS = {"makedirs", "mkdir", "replace", "rename", "remove", "unlink", "rmdir"}
WRITE_METHODS = {"write_text", "write_bytes", "tofile"}


def _writes(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id in ("os", "shutil"):
            return func.attr in FILE_CALLS or func.value.id == "shutil"
        if func.attr in WRITE_METHODS:
            return True
        name = func.attr if func.attr == "open" else None
    else:
        name = getattr(func, "id", None)
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    # a mode that is not a literal might write
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def test_only_write_file_writes_files():
    # every file a command writes goes through data.write_file, the one
    # function that opens a file to write it, replaces or removes one, or
    # makes a directory; reads (config, load_idx, load_weights) are fine
    found, in_writer = [], []
    for path in sorted((pathlib.Path(__file__).parents[1] / "src" / "gausspen").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writes = {c for c in ast.walk(tree) if isinstance(c, ast.Call) and _writes(c)}
        found += [f"{path.name}: from {n.module} import" for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) and n.module in ("os", "shutil")]
        if path.name == "data.py":
            writer = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "write_file")
            in_writer = writes & set(ast.walk(writer))
            writes -= in_writer
        found += [f"{path.name}:{c.lineno}" for c in sorted(writes, key=lambda c: c.lineno)]
    assert found == []
    assert len(in_writer) == 5  # makedirs, open, replace, remove, rmdir: the check sees them
