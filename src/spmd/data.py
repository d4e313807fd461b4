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
from dataclasses import dataclass, field

import numpy as np

from .tensor import DenseTensor, outer_product

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
class LabeledDataset:
    """Binary-labeled tensor samples.

    ``samples`` is ``(N, prod(dims))`` float64; row ``i`` is the flat
    column-major buffer of sample ``i``. ``labels`` is ``(N,)`` in {-1, +1}.
    """

    samples: np.ndarray
    dims: tuple[int, ...]
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.float64).ravel()
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-D (N, P) array")
        if samples.shape[1] != int(np.prod(dims)):
            raise ValueError(
                f"sample length {samples.shape[1]} does not match dims {dims}"
            )
        if labels.size != samples.shape[0]:
            raise ValueError(
                f"{samples.shape[0]} samples but {labels.size} labels"
            )
        bad = np.setdiff1d(np.unique(labels), [-1.0, 1.0])
        if bad.size:
            raise ValueError(f"labels must be -1 or +1, found {bad}")
        samples.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def order(self) -> int:
        return len(self.dims)

    def sample(self, i: int) -> DenseTensor:
        return DenseTensor(self.dims, self.samples[i])

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx)
        return LabeledDataset(self.samples[idx], self.dims, self.labels[idx],
                              dict(self.meta))


@dataclass(frozen=True)
class MulticlassDataset:
    """Integer-labeled tensor samples, same flat row layout as LabeledDataset."""

    samples: np.ndarray
    dims: tuple[int, ...]
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if samples.ndim != 2 or samples.shape[1] != int(np.prod(dims)):
            raise ValueError(f"samples must be (N, {int(np.prod(dims))}) for dims {dims}")
        if labels.size != samples.shape[0]:
            raise ValueError(f"{samples.shape[0]} samples but {labels.size} labels")
        samples.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    def subset(self, idx) -> "MulticlassDataset":
        idx = np.asarray(idx)
        return MulticlassDataset(self.samples[idx], self.dims, self.labels[idx],
                                 dict(self.meta))

    def binary_view(self, a: int, b: int) -> LabeledDataset:
        """Samples of classes a (-> +1) and b (-> -1) as a binary dataset."""
        mask = (self.labels == a) | (self.labels == b)
        labels = np.where(self.labels[mask] == a, 1.0, -1.0)
        meta = dict(self.meta)
        meta["pair"] = (int(a), int(b))
        return LabeledDataset(self.samples[mask], self.dims, labels, meta)


def batch_view(samples: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Reinterpret flat column-major rows as an (N, I1, ..., IM) array."""
    n = samples.shape[0]
    rev = samples.reshape((n,) + tuple(reversed(dims)))
    return np.transpose(rev, (0,) + tuple(range(len(dims), 0, -1)))


def flatten_batch(arr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`batch_view`: (N, I1, ..., IM) -> flat rows."""
    n = arr.shape[0]
    order = len(arr.shape) - 1
    rev = np.transpose(arr, (0,) + tuple(range(order, 0, -1)))
    return np.ascontiguousarray(rev.reshape(n, -1))


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


def load_idx_images(path: str) -> np.ndarray:
    """Parse an IDX image file into a uint8 array of shape (N, rows, cols)."""
    with open(path, "rb") as f:
        magic, = struct.unpack(">I", _read_exact(f, 4, path))
        if magic != IDX_IMAGE_MAGIC:
            raise IdxMagicError(
                f"{path}: magic {magic} != {IDX_IMAGE_MAGIC} (not an IDX image file)"
            )
        n, rows, cols = struct.unpack(">III", _read_exact(f, 12, path))
        raw = _read_exact(f, n * rows * cols, path)
        if f.read(1):
            warnings.warn(f"{path}: trailing bytes after {n} images", stacklevel=2)
    return np.frombuffer(raw, dtype=np.uint8).reshape(n, rows, cols)


def load_idx_labels(path: str) -> np.ndarray:
    """Parse an IDX label file into a uint8 vector of length N."""
    with open(path, "rb") as f:
        magic, = struct.unpack(">I", _read_exact(f, 4, path))
        if magic != IDX_LABEL_MAGIC:
            raise IdxMagicError(
                f"{path}: magic {magic} != {IDX_LABEL_MAGIC} (not an IDX label file)"
            )
        n, = struct.unpack(">I", _read_exact(f, 4, path))
        raw = _read_exact(f, n, path)
        if f.read(1):
            warnings.warn(f"{path}: trailing bytes after {n} labels", stacklevel=2)
    return np.frombuffer(raw, dtype=np.uint8).copy()


def load_idx(images_path: str, labels_path: str) -> MulticlassDataset:
    """Load an IDX image/label pair, scale to [0, 1], flatten column-major.

    Pixel value p becomes p / 255.0; sample dims are (rows, cols).
    """
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    arr = images.astype(np.float64) / 255.0
    samples = flatten_batch(arr)
    dims = images.shape[1:]
    return MulticlassDataset(samples, dims, labels,
                             meta={"source": os.path.basename(images_path)})


def save_idx_images(path: str, images: np.ndarray) -> None:
    """Write a uint8 (N, rows, cols) array as an IDX image file."""
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("images must be (N, rows, cols)")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *images.shape))
        f.write(images.tobytes())


def save_idx_labels(path: str, labels: np.ndarray) -> None:
    """Write a uint8 vector as an IDX label file."""
    labels = np.asarray(labels, dtype=np.uint8).ravel()
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.size))
        f.write(labels.tobytes())


def data_dir(override: str | None = None) -> str:
    """Dataset root: explicit override, else $SPMD_DATA_DIR, else ./data."""
    if override:
        return override
    return os.environ.get("SPMD_DATA_DIR", os.path.join(os.getcwd(), "data"))


def find_mnist(root: str | None = None) -> dict | None:
    """Locate the four standard MNIST IDX files under the data root.

    Accepts both the dotted ("train-images.idx3-ubyte") and dashed
    ("train-images-idx3-ubyte") filename conventions. Gzipped files are
    not found; decompress them first. Returns a dict of paths, or None if
    any file is missing.
    """
    root = data_dir(root)
    found = {}
    for key, name in MNIST_FILES.items():
        candidates = [name, name.replace("-idx", ".idx")]
        path = None
        for cand in candidates:
            p = os.path.join(root, cand)
            if os.path.exists(p):
                path = p
                break
        if path is None:
            return None
        found[key] = path
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
    return select_multiclass(data, [a, b], per_class, seed).binary_view(a, b)


def select_multiclass(data: MulticlassDataset, classes, per_class: int | None = None,
                      seed: int = 0) -> MulticlassDataset:
    """Subset to the given classes, optionally per_class samples of each."""
    rng = np.random.default_rng(seed)
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
    meta = dict(data.meta)
    meta.update(classes=[int(c) for c in classes], per_class=per_class, seed=int(seed))
    return MulticlassDataset(data.samples[keep], data.dims, data.labels[keep], meta)


def reshape_samples(data, new_dims):
    """Reinterpret every sample's flat buffer under new dims (no data movement).

    Works on a LabeledDataset or a MulticlassDataset and returns the same type.
    """
    new_dims = tuple(int(d) for d in new_dims)
    old_dims = data.dims
    if int(np.prod(new_dims)) != int(np.prod(old_dims)):
        raise ValueError(
            f"cannot reshape {old_dims} (size {int(np.prod(old_dims))}) "
            f"to {new_dims} (size {int(np.prod(new_dims))})"
        )
    meta = dict(data.meta)
    meta["reshaped_from"] = tuple(old_dims)
    return type(data)(data.samples, new_dims, data.labels, meta)


# --- synthetic data ----------------------------------------------------------


def _unit_rank1(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Flat outer product of seeded unit-norm per-mode vectors (unit norm)."""
    vecs = []
    for d in shape:
        v = rng.standard_normal(d)
        vecs.append(v / np.linalg.norm(v))
    return outer_product(vecs).data


def synth_blobs(shape, n_per_class: int, margin: float = 1.0,
                noise: float = 0.5, seed: int = 0) -> LabeledDataset:
    """Two Gaussian blobs split along a seeded unit-norm rank-1 direction.

    Class +1 samples are ``+margin * D + noise * G`` and class -1 samples
    ``-margin * D + noise * G``, where D is the outer product of unit-norm
    per-mode vectors (so ||D||_F = 1) and G is i.i.d. standard normal.
    """
    shape = tuple(int(d) for d in shape)
    if n_per_class < 1:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    direction = _unit_rank1(rng, shape)
    p = direction.size
    n = 2 * n_per_class
    noise_block = rng.standard_normal((n, p)) * noise
    samples = np.empty((n, p))
    samples[:n_per_class] = margin * direction + noise_block[:n_per_class]
    samples[n_per_class:] = -margin * direction + noise_block[n_per_class:]
    labels = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    meta = {
        "source": "synth",
        "shape": shape,
        "n_per_class": int(n_per_class),
        "margin": float(margin),
        "noise": float(noise),
        "seed": int(seed),
    }
    return LabeledDataset(samples, shape, labels, meta)


def synth_multiclass(shape, n_classes: int, n_per_class: int, margin: float = 1.5,
                     noise: float = 0.5, seed: int = 0) -> MulticlassDataset:
    """K-class blobs: class c sits at margin * D_c plus noise, D_c rank-1 unit."""
    shape = tuple(int(d) for d in shape)
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if n_per_class < 1:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    p = int(np.prod(shape))
    samples = np.empty((n_classes * n_per_class, p))
    labels = np.empty(n_classes * n_per_class, dtype=np.int64)
    for c in range(n_classes):
        center = margin * _unit_rank1(rng, shape)
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        samples[block] = center + noise * rng.standard_normal((n_per_class, p))
        labels[block] = c
    meta = {"source": "synth-multiclass", "shape": shape, "n_classes": int(n_classes),
            "n_per_class": int(n_per_class), "margin": float(margin),
            "noise": float(noise), "seed": int(seed)}
    return MulticlassDataset(samples, shape, labels, meta)


# --- dataset directory format ------------------------------------------------
#
# meta.json: {"dims": [...], "n": N, "labels": [...], "meta": {...}}
# data.bin:  N * prod(dims) little-endian float64, sample-major, each sample
#            in flat column-major order.


def save_dataset(path: str, data: LabeledDataset) -> None:
    """Write a dataset directory (meta.json + data.bin)."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "dims": list(data.dims),
        "n": len(data),
        "labels": [int(l) for l in data.labels],
        "meta": _jsonable(data.meta),
    }
    with open(os.path.join(path, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
    data.samples.astype("<f8").tofile(os.path.join(path, "data.bin"))


def load_dataset(path: str) -> LabeledDataset:
    """Read a dataset directory written by :func:`save_dataset`."""
    meta_path = os.path.join(path, "meta.json")
    bin_path = os.path.join(path, "data.bin")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"{meta_path} not found")
    with open(meta_path) as f:
        meta = json.load(f)
    dims = tuple(int(d) for d in meta["dims"])
    n = int(meta["n"])
    p = int(np.prod(dims))
    raw = np.fromfile(bin_path, dtype="<f8")
    if raw.size != n * p:
        raise ValueError(
            f"{bin_path} holds {raw.size} float64 values, expected {n * p}"
        )
    labels = np.asarray(meta["labels"], dtype=np.float64)
    return LabeledDataset(raw.reshape(n, p), dims, labels, dict(meta.get("meta", {})))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
