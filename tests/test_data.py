"""Data ingestion tests: IDX fixtures, selection, reshaping, generators, splits.

All IDX fixtures are generated by the tests themselves and must round-trip
pixel-exactly through the writer/loader pair.
"""

import json
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from idx_files import save_idx_images, save_idx_labels
from oracles import batch_view, flatten_batch
from spmd.cli import main
from spmd.data import (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, IdxCountMismatchError,
                       IdxFormatError, IdxMagicError, IdxTruncatedError,
                       LabeledDataset, MulticlassDataset, data_dir,
                       find_mnist, load_dataset, load_idx, load_idx_labels,
                       reshape_samples, save_dataset, select_binary,
                       select_multiclass, synth_blobs, synth_multiclass,
                       _split_per_class, _unit_rank1)
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
        ip, lp, images, _ = idx_pair
        back = np.rint(load_idx(ip, lp).samples * 255).astype(np.uint8)
        np.testing.assert_array_equal(
            back, flatten_batch(images.astype(np.float64)).astype(np.uint8))

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
            load_idx(lp, lp)
        with pytest.raises(IdxMagicError):
            load_idx_labels(ip)

    def test_truncated_file(self, idx_pair, tmp_path):
        ip, lp, *_ = idx_pair
        blob = Path(ip).read_bytes()
        bad = str(tmp_path / "trunc.idx3-ubyte")
        Path(bad).write_bytes(blob[:-5])
        with pytest.raises(IdxTruncatedError):
            load_idx(bad, lp)

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
        ip, lp, *_ = idx_pair
        blob = Path(ip).read_bytes()
        padded = str(tmp_path / "padded.idx3-ubyte")
        Path(padded).write_bytes(blob + b"\x07")
        with pytest.warns(UserWarning, match="trailing"):
            load_idx(padded, lp)


class TestDataDir:
    def test_override_wins(self):
        assert data_dir("/x/y") == "/x/y"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SPMD_DATA_DIR", "/from/env")
        assert data_dir() == "/from/env"
        monkeypatch.delenv("SPMD_DATA_DIR")
        assert data_dir() == os.path.join(os.getcwd(), "data")

    def test_find_mnist_both_name_styles(self, tmp_path):
        assert find_mnist(str(tmp_path)) == {}
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
        assert set(found) == {"train_images", "train_labels",
                              "test_images", "test_labels"}
        assert found["test_labels"] == str(tmp_path / "t10k-labels.idx1-ubyte")


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

    def test_absent_class_rejected(self, idx_pair):
        data = load_idx(*idx_pair[:2])
        with pytest.raises(ValueError, match="class 7 has no samples"):
            select_multiclass(data, [0, 7])


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

    def test_synth_multiclass_layout(self):
        data = synth_multiclass((2, 3), 3, 4, seed=12)
        assert len(data) == 12
        assert sorted(np.unique(data.labels).tolist()) == [0, 1, 2]
        with pytest.raises(ValueError, match="two classes"):
            synth_multiclass((2, 2), 1, 4)

    def test_per_class_split_takes_each_blocks_first_rows(self):
        train, test = _split_per_class(2, 40, 20)
        np.testing.assert_array_equal(train, np.r_[0:40, 60:100])
        np.testing.assert_array_equal(test, np.r_[40:60, 100:120])
        train, test = _split_per_class(3, 1, 2)
        assert train.tolist() == [0, 3, 6] and test.tolist() == [1, 2, 4, 5, 7, 8]

    @pytest.mark.parametrize("shape", [(), (0,), (2, -1)])
    def test_shape_must_be_positive_integers(self, shape):
        for build in (lambda: synth_blobs(shape, 2), lambda: synth_multiclass(shape, 2, 2)):
            with pytest.raises(ValueError, match="dims must be one or more positive integers"):
                build()

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="at least one sample per class"):
            synth_blobs((2, 2), 0)
        with pytest.raises(ValueError, match="at least one sample per class"):
            synth_multiclass((2, 2), 3, 0)


class TestOneAllocation:
    """Each builder fills its one output array in place.

    A builder that draws, scales or converts into a temporary the size of
    its output peaks near 2x that output; the traced peak must stay within
    5% of the returned samples plus a few KB of bookkeeping.
    """

    @staticmethod
    def traced(build):
        build()  # the first call also pays one-time lazy imports
        tracemalloc.start()
        try:
            data = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * data.samples.nbytes + 8192, peak / data.samples.nbytes
        return data

    def test_synth_blobs(self):
        data = self.traced(lambda: synth_blobs((28, 28), 1500, margin=0.7,
                                               noise=1.3, seed=3))
        # the two-copy formula: a scaled draw, then each class shifted
        rng = np.random.default_rng(3)
        direction = _unit_rank1(rng, (28, 28))
        noise_block = rng.standard_normal((3000, 784)) * 1.3
        np.testing.assert_array_equal(data.samples[:1500],
                                      0.7 * direction + noise_block[:1500])
        np.testing.assert_array_equal(data.samples[1500:],
                                      -0.7 * direction + noise_block[1500:])

    def test_synth_multiclass(self):
        data = self.traced(lambda: synth_multiclass((28, 28), 3, 1000, margin=1.1,
                                                    noise=0.9, seed=4))
        rng = np.random.default_rng(4)
        for c in range(3):
            center = 1.1 * _unit_rank1(rng, (28, 28))
            np.testing.assert_array_equal(
                data.samples[c * 1000:(c + 1) * 1000],
                center + 0.9 * rng.standard_normal((1000, 784)))

    def test_load_idx(self, tmp_path):
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(3000, 28, 27), dtype=np.uint8)
        ip, lp = str(tmp_path / "imgs"), str(tmp_path / "labs")
        save_idx_images(ip, images)
        save_idx_labels(lp, rng.integers(0, 10, 3000))
        data = self.traced(lambda: load_idx(ip, lp))
        assert data.dims == (28, 27)
        np.testing.assert_array_equal(
            data.samples, flatten_batch(images.astype(np.float64) / 255.0))

    @pytest.mark.parametrize("a,b,per_class", [(0, 1, None), (1, 0, 2500)])
    def test_select_binary(self, a, b, per_class):
        source = synth_multiclass((28, 28), 2, 3000, seed=0)
        data = self.traced(lambda: select_binary(source, a, b, per_class, seed=6))
        # the two-gather formula: select the rows, then take the pair's view
        want = select_multiclass(source, [a, b], per_class, seed=6).binary_view(a, b)
        np.testing.assert_array_equal(data.samples, want.samples)
        np.testing.assert_array_equal(data.labels, want.labels)


class TestDatasetDirectory:
    def test_round_trip(self, tmp_path):
        data = synth_blobs((3, 2), 4, margin=1.2, noise=0.3, seed=18)
        path = str(tmp_path / "ds")
        save_dataset(path, data)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.samples, data.samples)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.dims == data.dims

    def test_meta_json_is_plain(self, tmp_path):
        data = synth_blobs((2, 2), 3, seed=19)
        path = str(tmp_path / "ds")
        save_dataset(path, data)
        meta = json.loads(Path(path, "meta.json").read_text())
        assert meta["dims"] == [2, 2]
        assert meta["n"] == 6

    def test_loads_directory_with_provenance_key(self, tmp_path):
        # the earlier format also wrote a "meta" provenance object; it is
        # ignored on load, and the CLI's "dir" source still trains on it
        data = synth_blobs((3, 2), 6, margin=2.0, noise=0.3, seed=22)
        path = tmp_path / "old"
        path.mkdir()
        (path / "meta.json").write_text(json.dumps({
            "dims": [3, 2], "n": 12, "labels": [int(l) for l in data.labels],
            "meta": {"margin": 2.0, "noise": 0.3, "seed": 22, "source": "synth",
                     "shape": [3, 2], "n_per_class": 6}}))
        data.samples.astype("<f8").tofile(str(path / "data.bin"))
        back = load_dataset(str(path))
        assert back.dims == (3, 2)
        assert back.samples.tobytes() == data.samples.tobytes()
        np.testing.assert_array_equal(back.labels, data.labels)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "spmd-r1", "lambda": 5.0,
                                   "dataset": {"source": "dir", "path": str(path)}}))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "model.spmd").exists()

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

    @pytest.mark.parametrize("cls", [LabeledDataset, MulticlassDataset])
    @pytest.mark.parametrize("samples, dims, n_labels, match", [
        (np.zeros(4), (4,), 4, "samples must be"),
        (np.zeros((2, 4)), (2, 3), 2, "does not match dims|samples must be"),
        (np.zeros((2, 4)), (4,), 3, "2 samples but 3 labels"),
    ], ids=["not-2d", "length-vs-dims", "label-count"])
    def test_malformed_arrays_rejected(self, cls, samples, dims, n_labels, match):
        with pytest.raises(ValueError, match=match):
            cls(samples, dims, np.ones(n_labels))

    def test_subset(self):
        data = synth_blobs((2, 2), 4, seed=23)
        sub = data.subset(np.array([0, 5, 2]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.samples, data.samples[[0, 5, 2]])
        np.testing.assert_array_equal(sub.labels, data.labels[[0, 5, 2]])


class TestRowContract:
    """LabeledDataset and MulticlassDataset share one row contract."""

    @staticmethod
    def make(cls):
        rng = np.random.default_rng(24)
        labels = [1.0, -1.0, 1.0, -1.0] if cls is LabeledDataset else [0, 2, 1, 2]
        # column-major input rows: the contract stores them C-contiguous
        samples = np.asfortranarray(rng.standard_normal((4, 6)))
        return cls(samples, (np.int64(2), 3), np.array(labels))

    @pytest.mark.parametrize("cls", [LabeledDataset, MulticlassDataset])
    def test_arrays_come_back_read_only(self, cls):
        data = self.make(cls)
        label_dtype = np.float64 if cls is LabeledDataset else np.int64
        for d in (data, data.subset([2, 0]), reshape_samples(data, (3, 2))):
            assert d.samples.dtype == np.float64 and d.samples.flags.c_contiguous
            assert d.labels.dtype == label_dtype
            assert not d.samples.flags.writeable
            assert not d.labels.flags.writeable
            assert all(type(i) is int for i in d.dims)

    @pytest.mark.parametrize("cls", [LabeledDataset, MulticlassDataset])
    def test_subset_and_reshape_keep_the_callers_type(self, cls):
        data = self.make(cls)
        sub = data.subset([3, 1])
        assert type(sub) is cls and len(sub) == 2
        np.testing.assert_array_equal(sub.samples, data.samples[[3, 1]])
        np.testing.assert_array_equal(sub.labels, data.labels[[3, 1]])
        flat = reshape_samples(data, (6,))
        assert type(flat) is cls and flat.dims == (6,)

    def test_binary_view_is_the_multiclass_types_own(self):
        # the benchmark tracer wraps MulticlassDataset.__dict__["binary_view"]
        assert "binary_view" in MulticlassDataset.__dict__

    @pytest.mark.parametrize("cls", [LabeledDataset, MulticlassDataset])
    def test_callers_arrays_keep_their_flags(self, cls):
        samples = np.zeros((2, 4))
        labels = np.array([1.0, -1.0] if cls is LabeledDataset else [0, 1])
        data = cls(samples, (4,), labels)
        assert samples.flags.writeable and labels.flags.writeable
        assert not data.samples.flags.writeable
        assert np.shares_memory(data.samples, samples)  # still no copy

    @pytest.mark.parametrize("cls", [LabeledDataset, MulticlassDataset])
    @pytest.mark.parametrize("dims, p", [((-2, -3), 6), ((0,), 0), ((), 1),
                                         ((2.5, 3), 6)],
                             ids=["negative", "zero", "empty", "fractional"])
    def test_dims_must_be_positive_integers(self, cls, dims, p):
        with pytest.raises(ValueError, match="dims must be one or more positive integers"):
            cls(np.zeros((2, p)), dims, np.array([1, -1]))

    @pytest.mark.parametrize("labels, found", [
        ([0.5, 1.7, 2.0], r"\[0.5 1.7\]"), ([0.0, np.nan, 1.0], r"\[nan\]"),
    ], ids=["non-integral", "nan"])
    def test_class_labels_must_be_whole_numbers(self, labels, found):
        whole = MulticlassDataset(np.zeros((3, 2)), (2,), np.array([0.0, 2.0, 1.0]))
        assert whole.labels.tolist() == [0, 2, 1]
        with pytest.raises(ValueError, match="class labels must be whole numbers, "
                                             "found " + found):
            MulticlassDataset(np.zeros((3, 2)), (2,), np.array(labels))

    @pytest.mark.parametrize("dims", [[-2, -3], [0], []],
                             ids=["negative", "zero", "empty"])
    def test_load_rejects_non_positive_dims(self, tmp_path, dims):
        save_dataset(str(tmp_path), synth_blobs((2, 3), 2, seed=0))
        meta = json.loads((tmp_path / "meta.json").read_text())
        (tmp_path / "meta.json").write_text(json.dumps(dict(meta, dims=dims)))
        with pytest.raises(ValueError, match="dims must be one or more positive integers"):
            load_dataset(str(tmp_path))
