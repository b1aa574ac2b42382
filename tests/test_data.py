import gzip
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gausspen.data import (
    IdxMagicError,
    IdxParseError,
    IdxTruncationError,
    IdxTypeCodeError,
    LabeledDataset,
    flip_labels,
    idx_to_dataset,
    load_idx,
    make_blobs,
    parse_idx,
    read_csv_dataset,
    serialize_idx,
    split,
    write_csv,
    write_csv_dataset,
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
    with pytest.raises(IdxMagicError) as err:
        parse_idx(blob)
    assert err.value.offset == 0


def test_parse_idx_bad_type_code():
    blob = bytes([0, 0, 0x0D, 1]) + struct.pack(">I", 1) + bytes([0, 0, 0, 0])
    with pytest.raises(IdxTypeCodeError) as err:
        parse_idx(blob)
    assert err.value.offset == 2


def test_parse_idx_truncated_payload():
    blob = bytes([0, 0, 0x08, 2]) + struct.pack(">II", 3, 4) + bytes(10)
    with pytest.raises(IdxTruncationError) as err:
        parse_idx(blob)
    assert err.value.offset == len(blob)
    assert "expected 12" in str(err.value)


def test_parse_idx_trailing_bytes():
    blob = bytes([0, 0, 0x08, 1]) + struct.pack(">I", 2) + bytes([1, 2, 3])
    with pytest.raises(IdxTruncationError) as err:
        parse_idx(blob)
    assert err.value.offset == 4 + 4 + 2


def test_parse_idx_error_hierarchy():
    with pytest.raises(IdxParseError):
        parse_idx(b"\x00\x00")


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
        with pytest.raises(IdxTruncationError) as err:
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


def test_blobs_validation():
    with pytest.raises(ConfigurationError):
        make_blobs(0, 5, 2, 1.0, seed=0)
    with pytest.raises(ConfigurationError):
        make_blobs(2, 5, 2, -1.0, seed=0)


def test_flip_labels_fraction_and_determinism():
    dataset = make_blobs(3, 100, 2, 5.0, seed=8)
    noisy = flip_labels(dataset, 0.2, seed=9)
    again = flip_labels(dataset, 0.2, seed=9)
    assert np.array_equal(noisy.labels, again.labels)
    changed = int(np.sum(noisy.labels != dataset.labels))
    assert changed == 60  # every flip lands on a different class
    assert np.array_equal(noisy.features, dataset.features)


# --- split ----------------------------------------------------------------------


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
    tiny = LabeledDataset(np.zeros((2, 1)), np.array([0, 1]))
    with pytest.raises(ConfigurationError):
        split(tiny, (0.5, 0.25, 0.25), seed=0)  # some split gets nothing


# --- CSV ------------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    dataset = make_blobs(3, 7, 4, 2.0, seed=15)
    path = tmp_path / "data.csv"
    write_csv_dataset(path, dataset)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[-1] == "label"
    again = read_csv_dataset(path)
    assert np.array_equal(again.features, dataset.features)  # 17 digits round-trip
    assert np.array_equal(again.labels, dataset.labels)


# values whose shortest repr is not their 17-digit form, a signed zero and a
# value near the bottom of the normal range
AWKWARD = [[0.1, 1.0 / 3.0], [-0.0, 1e-300]]
AWKWARD_CELLS = "0.10000000000000001,0.33333333333333331,{}\n-0,1e-300,{}\n"


def test_csv_bytes(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ("a", "b", "c"), [(*AWKWARD[0], None), (*AWKWARD[1], "tag")])
    assert path.read_bytes() == ("a,b,c\n" + AWKWARD_CELLS.format("", "tag")).encode()

    dataset = LabeledDataset(np.array(AWKWARD), np.array([0, 2]))
    path = tmp_path / "data.csv"
    write_csv_dataset(path, dataset)
    assert path.read_bytes() == ("x0,x1,label\n" + AWKWARD_CELLS.format(0, 2)).encode()
    again = read_csv_dataset(path)
    assert again.features.tobytes() == dataset.features.tobytes()  # -0.0 keeps its sign
    assert np.array_equal(again.labels, dataset.labels)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "rows.csv"]  # no temp files


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


@given(st.lists(st.lists(CELLS, max_size=6), max_size=12))
@example([[0.0, -0.0], [-0.0, 0.0]])
@example([[-0.0, 0.0, -0.0], [np.float64(-0.0), 0.0]])
@example([[1.0, 1, True, np.float64(1.0)], [True, 1, 1.0, False, 0, 0.0]])
@example([[10.0**17, 10**17, 5e-324, -5e-324, float("nan"), float("inf"), -float("inf")]])
def test_csv_cells_match_per_cell_reference(rows):
    # converting each distinct float once must not change a byte
    expected = "a,b\n" + "".join(",".join(map(_reference_cell, row)) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, ("a", "b"), rows)
        with open(path, "rb") as handle:
            assert handle.read() == expected.encode()
