"""Data ingestion tests: IDX fixtures, selection, reshaping, generators, splits.

All IDX fixtures are generated by the tests themselves and must round-trip
pixel-exactly through the writer/loader pair.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from spmd.data import (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, IdxCountMismatchError,
                       IdxFormatError, IdxMagicError, IdxTruncatedError,
                       LabeledDataset, MulticlassDataset, batch_view, data_dir,
                       find_mnist, flatten_batch, load_dataset, load_idx,
                       load_idx_images, load_idx_labels,
                       reshape_samples, save_dataset,
                       save_idx_images, save_idx_labels, select_binary,
                       select_multiclass, synth_blobs, synth_multiclass)
from spmd.tensor import DenseTensor


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(12, 4, 5), dtype=np.uint8)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2], dtype=np.uint8)
    ip = str(tmp_path / "imgs.idx3-ubyte")
    lp = str(tmp_path / "labs.idx1-ubyte")
    save_idx_images(ip, images)
    save_idx_labels(lp, labels)
    return ip, lp, images, labels


class TestMagics:
    def test_image_magic_value(self):
        assert IDX_IMAGE_MAGIC == 2051

    def test_label_magic_value(self):
        assert IDX_LABEL_MAGIC == 2049


class TestIdxRoundTrip:
    def test_images_pixel_exact(self, idx_pair):
        ip, _, images, _ = idx_pair
        back = load_idx_images(ip)
        np.testing.assert_array_equal(back, images)

    def test_labels_exact(self, idx_pair):
        _, lp, _, labels = idx_pair
        np.testing.assert_array_equal(load_idx_labels(lp), labels)

    def test_pair_normalized(self, idx_pair):
        ip, lp, images, labels = idx_pair
        data = load_idx(ip, lp)
        assert isinstance(data, MulticlassDataset)
        assert data.dims == (4, 5)
        assert data.samples.min() >= 0.0 and data.samples.max() <= 1.0
        # original integers recoverable
        np.testing.assert_array_equal(
            np.rint(data.samples * 255).astype(np.uint8),
            flatten_batch(images.astype(np.float64)).astype(np.uint8))
        np.testing.assert_array_equal(data.labels, labels)

    def test_sample_layout_column_major(self, idx_pair):
        ip, lp, images, _ = idx_pair
        data = load_idx(ip, lp)
        t = DenseTensor(data.dims, data.samples[3])
        np.testing.assert_allclose(t.to_array(), images[3] / 255.0, rtol=1e-15)


class TestIdxErrors:
    def test_wrong_magic_distinct_error(self, idx_pair, tmp_path):
        ip, lp, *_ = idx_pair
        with pytest.raises(IdxMagicError):
            load_idx_images(lp)
        with pytest.raises(IdxMagicError):
            load_idx_labels(ip)

    def test_truncated_file(self, idx_pair, tmp_path):
        ip, *_ = idx_pair
        blob = Path(ip).read_bytes()
        bad = str(tmp_path / "trunc.idx3-ubyte")
        Path(bad).write_bytes(blob[:-5])
        with pytest.raises(IdxTruncatedError):
            load_idx_images(bad)

    def test_count_mismatch(self, idx_pair, tmp_path):
        ip, lp, images, labels = idx_pair
        lp2 = str(tmp_path / "short.idx1-ubyte")
        save_idx_labels(lp2, labels[:-2])
        with pytest.raises(IdxCountMismatchError):
            load_idx(ip, lp2)

    def test_errors_share_base_class(self):
        assert issubclass(IdxMagicError, IdxFormatError)
        assert issubclass(IdxTruncatedError, IdxFormatError)
        assert issubclass(IdxCountMismatchError, IdxFormatError)

    def test_trailing_bytes_warn(self, idx_pair, tmp_path):
        ip, *_ = idx_pair
        blob = Path(ip).read_bytes()
        padded = str(tmp_path / "padded.idx3-ubyte")
        Path(padded).write_bytes(blob + b"\x07")
        with pytest.warns(UserWarning, match="trailing"):
            load_idx_images(padded)


class TestDataDir:
    def test_override_wins(self):
        assert data_dir("/x/y") == "/x/y"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SPMD_DATA_DIR", "/from/env")
        assert data_dir() == "/from/env"
        monkeypatch.delenv("SPMD_DATA_DIR")
        assert data_dir() == os.path.join(os.getcwd(), "data")

    def test_find_mnist_both_name_styles(self, tmp_path):
        assert find_mnist(str(tmp_path)) is None
        names = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images.idx3-ubyte", "t10k-labels.idx1-ubyte"]
        rng = np.random.default_rng(1)
        for name in names:
            if "images" in name:
                save_idx_images(str(tmp_path / name),
                                rng.integers(0, 255, (2, 3, 3), dtype=np.uint8))
            else:
                save_idx_labels(str(tmp_path / name),
                                np.array([0, 1], dtype=np.uint8))
        found = find_mnist(str(tmp_path))
        assert found is not None
        assert set(found) == {"train_images", "train_labels",
                              "test_images", "test_labels"}


class TestSelectBinary:
    def test_per_class_one(self, idx_pair):
        data = load_idx(*idx_pair[:2])
        sel = select_binary(data, 0, 1, per_class=1, seed=0)
        assert len(sel) == 2
        assert sorted(sel.labels.tolist()) == [-1.0, 1.0]

    def test_deterministic(self, idx_pair):
        data = load_idx(*idx_pair[:2])
        a = select_binary(data, 0, 2, per_class=3, seed=5)
        b = select_binary(data, 0, 2, per_class=3, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_exact_balance(self, idx_pair):
        data = load_idx(*idx_pair[:2])
        sel = select_binary(data, 1, 2, per_class=4, seed=1)
        assert int(np.sum(sel.labels == 1.0)) == 4
        assert int(np.sum(sel.labels == -1.0)) == 4

    def test_insufficient_samples(self, idx_pair):
        data = load_idx(*idx_pair[:2])
        with pytest.raises(ValueError, match="need"):
            select_binary(data, 0, 1, per_class=100)

    def test_same_class_rejected(self, idx_pair):
        data = load_idx(*idx_pair[:2])
        with pytest.raises(ValueError, match="differ"):
            select_binary(data, 1, 1)

    def test_select_multiclass_subset(self, idx_pair):
        data = load_idx(*idx_pair[:2])
        sub = select_multiclass(data, [0, 2], per_class=2, seed=3)
        assert sorted(np.unique(sub.labels).tolist()) == [0, 2]
        assert len(sub) == 4


class TestBinaryView:
    def test_signs_and_counts(self, idx_pair):
        data = load_idx(*idx_pair[:2])
        view = data.binary_view(2, 0)
        assert int(np.sum(view.labels == 1.0)) == int(np.sum(data.labels == 2))
        assert int(np.sum(view.labels == -1.0)) == int(np.sum(data.labels == 0))


class TestReshape:
    def test_flat_buffers_untouched(self, idx_pair):
        data = load_idx(*idx_pair[:2])
        re = reshape_samples(data, (2, 2, 5))
        assert isinstance(re, MulticlassDataset)
        assert re.dims == (2, 2, 5)
        np.testing.assert_array_equal(re.samples, data.samples)
        assert re.meta["reshaped_from"] == (4, 5)

    def test_round_trip_bit_exact(self):
        data = synth_blobs((4, 6), 5, seed=2)
        there = reshape_samples(data, (2, 2, 2, 3))
        back = reshape_samples(there, (4, 6))
        np.testing.assert_array_equal(back.samples, data.samples)
        assert back.dims == (4, 6)

    def test_order_1_flattening(self):
        data = synth_blobs((3, 4), 4, seed=3)
        flat = reshape_samples(data, (12,))
        assert flat.dims == (12,)
        np.testing.assert_array_equal(flat.samples, data.samples)

    def test_element_count_mismatch(self):
        data = synth_blobs((3, 4), 4, seed=4)
        with pytest.raises(ValueError, match="reshape"):
            reshape_samples(data, (5, 2))


class TestBatchView:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((6, 24))
        arr = batch_view(samples, (2, 3, 4))
        assert arr.shape == (6, 2, 3, 4)
        np.testing.assert_array_equal(flatten_batch(arr), samples)

    def test_matches_per_sample_tensor(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((3, 6))
        arr = batch_view(samples, (2, 3))
        for i in range(3):
            np.testing.assert_array_equal(
                arr[i], DenseTensor((2, 3), samples[i]).to_array())


class TestSynthBlobs:
    def test_noiseless_perfectly_separable(self):
        data = synth_blobs((3, 3), 10, margin=1.0, noise=0.0, seed=7)
        pos = data.samples[data.labels == 1.0]
        direction = pos[0]
        scores = data.samples @ direction
        assert np.all(np.sign(scores) == data.labels)

    def test_same_seed_identical(self):
        a = synth_blobs((2, 3), 6, seed=8)
        b = synth_blobs((2, 3), 6, seed=8)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_class_mean_statistics(self):
        # projections onto the direction have mean +-margin and sd noise
        margin, noise, n = 2.0, 0.1, 40
        data = synth_blobs((4, 4), n, margin=margin, noise=noise, seed=9)
        clean = synth_blobs((4, 4), 1, margin=1.0, noise=0.0, seed=9)
        direction = clean.samples[0]
        proj = data.samples @ direction
        se = noise / np.sqrt(n)
        assert abs(proj[:n].mean() - margin) <= 3 * se
        assert abs(proj[n:].mean() + margin) <= 3 * se

    def test_direction_is_unit_rank1(self):
        clean = synth_blobs((3, 5), 1, margin=1.0, noise=0.0, seed=10)
        d = DenseTensor(clean.dims, clean.samples[0])
        assert d.norm() == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.matrix_rank(d.to_array()) == 1

    def test_meta_records_generator(self):
        data = synth_blobs((2, 2), 3, margin=1.5, noise=0.25, seed=11)
        assert data.meta["source"] == "synth"
        assert data.meta["margin"] == 1.5
        assert data.meta["seed"] == 11

    def test_synth_multiclass_layout(self):
        data = synth_multiclass((2, 3), 3, 4, seed=12)
        assert len(data) == 12
        assert sorted(np.unique(data.labels).tolist()) == [0, 1, 2]
        with pytest.raises(ValueError, match="two classes"):
            synth_multiclass((2, 2), 1, 4)


class TestDatasetDirectory:
    def test_round_trip(self, tmp_path):
        data = synth_blobs((3, 2), 4, margin=1.2, noise=0.3, seed=18)
        path = str(tmp_path / "ds")
        save_dataset(path, data)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.samples, data.samples)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.dims == data.dims
        assert back.meta["margin"] == 1.2

    def test_meta_json_is_plain(self, tmp_path):
        data = synth_blobs((2, 2), 3, seed=19)
        path = str(tmp_path / "ds")
        save_dataset(path, data)
        meta = json.loads(Path(path, "meta.json").read_text())
        assert meta["dims"] == [2, 2]
        assert meta["n"] == 6

    def test_size_mismatch_detected(self, tmp_path):
        data = synth_blobs((2, 2), 3, seed=20)
        path = str(tmp_path / "ds")
        save_dataset(path, data)
        with open(os.path.join(path, "data.bin"), "ab") as f:
            f.write(struct.pack("<d", 1.0))
        with pytest.raises(ValueError, match="expected"):
            load_dataset(path)

    def test_missing_meta(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(str(tmp_path / "nope"))


class TestLabeledDatasetValidation:
    def test_label_values_checked(self):
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError):
            LabeledDataset(rng.standard_normal((2, 4)), (4,), np.array([1.0, 2.0]))

    def test_length_mismatch(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError):
            LabeledDataset(rng.standard_normal((2, 4)), (4,), np.ones(3))

    def test_subset(self):
        data = synth_blobs((2, 2), 4, seed=23)
        sub = data.subset(np.array([0, 5, 2]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.samples, data.samples[[0, 5, 2]])
        np.testing.assert_array_equal(sub.labels, data.labels[[0, 5, 2]])
