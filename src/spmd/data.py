"""Datasets: IDX image files, synthetic blobs, splits, and on-disk formats.

A labeled dataset stores each sample as a flat column-major row, so the
bytes on disk (data.bin) and the in-memory layout coincide and reshaping
samples to a new factorization shape never moves data.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .tensor import _dims, _integer, _real

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class IdxFormatError(ValueError):
    """Base class for IDX parsing failures."""


class IdxMagicError(IdxFormatError):
    """File does not start with the expected IDX magic number."""


class IdxTruncatedError(IdxFormatError):
    """File is shorter than its header promises."""


class IdxCountMismatchError(IdxFormatError):
    """Image and label files disagree on the number of records."""


@dataclass(frozen=True)
class _Rows:
    """The row contract shared by both dataset types.

    ``samples`` is C-contiguous, read-only, finite ``(N, prod(dims))``
    float64; row ``i`` is the flat column-major buffer of sample ``i``.
    ``dims`` holds one or more positive integers. Every dataset passes
    here, so no later stage checks a sample again. ``labels`` is a
    read-only vector of N labels of the subclass's ``_label_dtype``,
    checked before the cast to it. The read-only flags go on the dataset's
    own array objects (views where no copy is needed): a dataset never
    changes the flags of an array its caller holds.
    """

    samples: np.ndarray
    dims: tuple[int, ...]
    labels: np.ndarray

    _label_dtype = np.float64

    def __post_init__(self):
        dims = _dims(self.dims)
        samples = np.ascontiguousarray(self.samples, dtype=np.float64).view()
        labels = np.asarray(self.labels).ravel()
        p = int(np.prod(dims))
        if samples.ndim != 2 or samples.shape[1] != p:
            raise ValueError(f"samples must be (N, {p}) for dims {dims}")
        # min and max make no temporary the size of the samples
        if samples.size and not (np.isfinite(samples.min())
                                 and np.isfinite(samples.max())):
            raise ValueError("samples must be finite, found NaN or inf")
        if labels.size != samples.shape[0]:
            raise ValueError(f"{samples.shape[0]} samples but {labels.size} labels")
        self._check_labels(labels)
        labels = labels.astype(self._label_dtype, copy=False)
        samples.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.samples.shape[0]

    def subset(self, idx):
        """The rows ``idx``, as a dataset of the caller's own type."""
        idx = np.asarray(idx)
        return type(self)(self.samples[idx], self.dims, self.labels[idx])


@dataclass(frozen=True)
class LabeledDataset(_Rows):
    """Binary-labeled tensor samples: float64 labels in {-1, +1}."""

    def _check_labels(self, labels: np.ndarray) -> None:
        bad = labels[(labels != 1) & (labels != -1)]
        if bad.size:
            raise ValueError(f"labels must be -1 or +1, found {np.unique(bad)}")


@dataclass(frozen=True)
class MulticlassDataset(_Rows):
    """Integer-labeled tensor samples: int64 class labels."""

    _label_dtype = np.int64

    def _check_labels(self, labels: np.ndarray) -> None:
        if labels.dtype.kind not in "biu":
            bad = labels[~np.isfinite(labels) | (labels != np.round(labels))]
            if bad.size:
                raise ValueError(
                    f"class labels must be whole numbers, found {np.unique(bad)}")

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    def binary_view(self, a: int, b: int) -> LabeledDataset:
        """Samples of classes a (-> +1) and b (-> -1) as a binary dataset."""
        return _pair_view(self, a, b)


def _pair_view(data: MulticlassDataset, a: int, b: int) -> LabeledDataset:
    """Rows of classes a (-> +1) and b (-> -1) as a binary dataset.

    The one statement of the pair rule. ``binary_view`` returns it for a
    pair's training set; ``pairwise_accuracy`` calls it directly, so the
    benchmark's traced ``binary_view`` count stays one per trained pair.
    """
    mask = (data.labels == a) | (data.labels == b)
    labels = np.where(data.labels[mask] == a, 1.0, -1.0)
    return LabeledDataset(data.samples[mask], data.dims, labels)


# --- IDX files -------------------------------------------------------------
#
# Big-endian header: 4-byte magic, then one 4-byte size per dimension.
# Magic 2051 = unsigned-byte cube of rank 3 (images), 2049 = rank 1 (labels).


def _read_exact(f, n: int, path: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise IdxTruncatedError(
            f"{path}: expected {n} more bytes, got {len(buf)} (truncated file)"
        )
    return buf


def _idx_sizes(f, path: str, magic: int, rank: int) -> tuple[int, ...]:
    """Check an IDX file's magic number and read its ``rank`` sizes."""
    got, = struct.unpack(">I", _read_exact(f, 4, path))
    if got != magic:
        kind = "image" if magic == IDX_IMAGE_MAGIC else "label"
        raise IdxMagicError(f"{path}: magic {got} != {magic} (not an IDX {kind} file)")
    return struct.unpack(">" + "I" * rank, _read_exact(f, 4 * rank, path))


def _warn_trailing(f, path: str, n: int, what: str) -> None:
    if f.read(1):
        warnings.warn(f"{path}: trailing bytes after {n} {what}", stacklevel=3)


def load_idx_labels(path: str) -> np.ndarray:
    """Parse an IDX label file into a uint8 vector of length N."""
    with open(path, "rb") as f:
        n, = _idx_sizes(f, path, IDX_LABEL_MAGIC, 1)
        raw = _read_exact(f, n, path)
        _warn_trailing(f, path, n, "labels")
    return np.frombuffer(raw, dtype=np.uint8).copy()


def load_idx(images_path: str, labels_path: str) -> MulticlassDataset:
    """Load an IDX image/label pair, scale to [0, 1], flatten column-major.

    Pixel value p becomes p / 255.0; sample dims are (rows, cols). The
    samples are the only full-size allocation: the pixels are read and
    scaled about 256 KB at a time into the (N, cols, rows) array, whose
    rows are already the flat column-major samples.
    """
    with open(images_path, "rb") as f:
        n, rows, cols = _idx_sizes(f, images_path, IDX_IMAGE_MAGIC, 3)
        labels = load_idx_labels(labels_path)
        if n != labels.size:
            raise IdxCountMismatchError(
                f"{images_path} has {n} images but {labels_path} has {labels.size} labels"
            )
        samples = np.empty((n, cols, rows))
        step = max(1, (1 << 18) // max(1, rows * cols))
        for lo in range(0, n, step):
            block = samples[lo:lo + step]
            raw = _read_exact(f, block.size, images_path)
            pixels = np.frombuffer(raw, dtype=np.uint8).reshape(-1, rows, cols)
            np.divide(pixels.transpose(0, 2, 1), 255.0, out=block)
        _warn_trailing(f, images_path, n, "images")
    return MulticlassDataset(samples.reshape(n, rows * cols), (rows, cols), labels)


def data_dir() -> str:
    """Dataset root: $SPMD_DATA_DIR, else ./data."""
    return os.environ.get("SPMD_DATA_DIR", os.path.join(os.getcwd(), "data"))


def find_mnist() -> dict:
    """Locate the standard MNIST IDX files under the data root, each on its own.

    Accepts both the dotted ("train-images.idx3-ubyte") and dashed
    ("train-images-idx3-ubyte") filename conventions. Gzipped files are
    not found; decompress them first. Returns a dict of the paths found,
    keyed like ``MNIST_FILES``; a missing file has no key.
    """
    root = data_dir()
    found = {}
    for key, name in MNIST_FILES.items():
        for cand in (name, name.replace("-idx", ".idx")):
            p = os.path.join(root, cand)
            if os.path.exists(p):
                found[key] = p
                break
    return found


# --- selection and reshaping ------------------------------------------------


def select_binary(data: MulticlassDataset, a: int, b: int,
                  per_class: int | None = None, seed: int = 0) -> LabeledDataset:
    """Binary subset with class ``a`` -> +1, ``b`` -> -1.

    With ``per_class`` set, draws that many samples per class without
    replacement using a generator seeded by ``seed``; insufficient samples
    raise. Without it, takes every sample of the two classes.
    """
    if a == b:
        raise ValueError("classes must differ")
    # label the gathered rows directly: binary_view would gather them again
    picked = select_multiclass(data, [a, b], per_class, seed)
    return LabeledDataset(picked.samples, picked.dims,
                          np.where(picked.labels == a, 1.0, -1.0))


def select_multiclass(data: MulticlassDataset, classes, per_class: int | None = None,
                      seed: int = 0) -> MulticlassDataset:
    """Subset to the given classes, optionally per_class samples of each.

    The draw is seeded by ``seed``, an integer >= 0.
    """
    if per_class is not None:
        per_class = _integer(per_class, 1, "per_class")
    rng = np.random.default_rng(_integer(seed, 0, "seed"))
    keep = []
    for cls in classes:
        idx = np.flatnonzero(data.labels == cls)
        if idx.size == 0:
            raise ValueError(f"class {cls} has no samples")
        if per_class is not None:
            if idx.size < per_class:
                raise ValueError(f"class {cls} has {idx.size} samples, need {per_class}")
            idx = rng.choice(idx, size=per_class, replace=False)
        keep.append(idx)
    keep = np.concatenate(keep)
    return MulticlassDataset(data.samples[keep], data.dims, data.labels[keep])


def reshape_samples(data, new_dims):
    """Reinterpret every sample's flat buffer under new dims (no data movement).

    Works on a LabeledDataset or a MulticlassDataset and returns the same type.
    """
    new_dims = _dims(new_dims)
    old, new = int(np.prod(data.dims)), int(np.prod(new_dims))
    if old != new:
        raise ValueError(f"cannot reshape {data.dims} (size {old}) "
                         f"to {new_dims} (size {new})")
    return type(data)(data.samples, new_dims, data.labels)


# --- synthetic data ----------------------------------------------------------


def _unit_rank1(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Flat outer product of seeded unit-norm per-mode vectors (unit norm)."""
    vecs = []
    for d in shape:
        v = rng.standard_normal(d)
        vecs.append(v / np.linalg.norm(v))
    return reduce(np.multiply.outer, vecs).ravel(order="F")


def synth_blobs(shape, n_per_class: int, margin: float = 1.0,
                noise: float = 0.5, seed: int = 0) -> LabeledDataset:
    """Two Gaussian blobs split along a seeded unit-norm rank-1 direction.

    Class +1 samples are ``+margin * D + noise * G`` and class -1 samples
    ``-margin * D + noise * G``, where D is the outer product of unit-norm
    per-mode vectors (so ||D||_F = 1) and G is i.i.d. standard normal.
    ``margin`` must be finite and positive, ``noise`` finite and
    nonnegative, and ``seed`` an integer >= 0.
    """
    shape = _dims(shape)
    n_per_class = _integer(n_per_class, 1, "n_per_class")
    margin = _real(margin, "positive", "margin")
    noise = _real(noise, "nonnegative", "noise")
    rng = np.random.default_rng(_integer(seed, 0, "seed"))
    direction = _unit_rank1(rng, shape)
    p = direction.size
    n = 2 * n_per_class
    samples = rng.standard_normal((n, p))
    samples *= noise
    samples[:n_per_class] += margin * direction
    samples[n_per_class:] += -margin * direction
    labels = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return LabeledDataset(samples, shape, labels)


def synth_multiclass(shape, n_classes: int, n_per_class: int, margin: float = 1.5,
                     noise: float = 0.5, seed: int = 0) -> MulticlassDataset:
    """K-class blobs: class c sits at margin * D_c plus noise, D_c rank-1 unit.

    ``margin``, ``noise`` and ``seed`` follow :func:`synth_blobs`' rules.
    """
    shape = _dims(shape)
    n_classes = _integer(n_classes, 2, "n_classes")
    n_per_class = _integer(n_per_class, 1, "n_per_class")
    margin = _real(margin, "positive", "margin")
    noise = _real(noise, "nonnegative", "noise")
    rng = np.random.default_rng(_integer(seed, 0, "seed"))
    p = int(np.prod(shape))
    samples = np.empty((n_classes * n_per_class, p))
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    for c in range(n_classes):
        center = margin * _unit_rank1(rng, shape)
        block = samples[c * n_per_class:(c + 1) * n_per_class]
        rng.standard_normal(out=block)
        block *= noise
        block += center
    return MulticlassDataset(samples, shape, labels)


def _split_per_class(n_classes: int, n_train: int, n_test: int):
    """Train and test row indices of a draw laid out in per-class blocks.

    Each class's block holds n_train + n_test rows, as ``synth_blobs`` and
    ``synth_multiclass`` lay them out; its first n_train rows go to
    training. Train and test rows thus share the draw's class centres.
    """
    per = n_train + n_test
    starts = np.arange(n_classes) * per
    train = np.concatenate([np.arange(s, s + n_train) for s in starts])
    test = np.concatenate([np.arange(s + n_train, s + per) for s in starts])
    return train, test


# --- dataset directory format ------------------------------------------------
#
# meta.json: {"dims": [...], "n": N, "labels": [...]}; any other key is
#            ignored on load.
# data.bin:  N * prod(dims) little-endian float64, sample-major, each sample
#            in flat column-major order.


def save_dataset(path: str, data: LabeledDataset) -> None:
    """Write a dataset directory: meta.json (dims, n, labels) + data.bin."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "dims": list(data.dims),
        "n": len(data),
        "labels": [int(l) for l in data.labels],
    }
    with open(os.path.join(path, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
    data.samples.astype("<f8").tofile(os.path.join(path, "data.bin"))


def load_dataset(path: str) -> LabeledDataset:
    """Read a dataset directory written by :func:`save_dataset`.

    A malformed meta.json raises ValueError naming the file and the key;
    rows the dataset refuses (a NaN in data.bin, say) name both files.
    """
    meta_path = os.path.join(path, "meta.json")
    bin_path = os.path.join(path, "data.bin")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"{meta_path} not found")
    with open(meta_path) as f:
        meta = json.load(f)
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: the root must be a JSON object")
    dims = _dims(meta.get("dims"), f"{meta_path}: key 'dims'")
    n = _integer(meta.get("n"), 0, f"{meta_path}: key 'n'")
    labels = meta.get("labels")
    if not (isinstance(labels, list)
            and all(type(t) in (int, float) for t in labels)):
        raise ValueError(f"{meta_path}: key 'labels' must be a list of numbers")
    p = int(np.prod(dims))
    raw = np.fromfile(bin_path, dtype="<f8")
    if raw.size != n * p:
        raise ValueError(
            f"{bin_path} holds {raw.size} float64 values, expected {n * p}"
        )
    try:
        return LabeledDataset(raw.reshape(n, p), dims,
                              np.asarray(labels, dtype=np.float64))
    except ValueError as e:
        raise ValueError(f"{bin_path} with {meta_path}: {e}") from None
