"""IDX file writers and a procedural seven-segment digit set, for tests.

``save_idx_images`` and ``save_idx_labels`` write the format that
``spmd.data``'s readers parse. ``seven_segment_digits`` draws a synthetic
stand-in for handwritten digits: each image is a digit's seven-segment
strokes under a random rotation, shear, scale and shift, with a random
stroke width and jittered stroke ends, plus pixel noise, quantized to
8 bits. Its parameters are fixed here, before any method is measured on
it, so test floors set from several generator seeds stay meaningful.
"""

import struct

import numpy as np

from spmd.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, MNIST_FILES


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


# Segment ends in glyph units: x runs right over [-0.5, 0.5], y down over
# [-1, 1]. Segments a-g in the usual order: top, upper right, lower right,
# bottom, lower left, upper left, middle.
_CORNER = {"tl": (-0.5, -1.0), "tr": (0.5, -1.0), "ml": (-0.5, 0.0),
           "mr": (0.5, 0.0), "bl": (-0.5, 1.0), "br": (0.5, 1.0)}
_SEGMENTS = np.array([[_CORNER[p], _CORNER[q]] for p, q in (
    ("tl", "tr"), ("tr", "mr"), ("mr", "br"), ("bl", "br"),
    ("ml", "bl"), ("tl", "ml"), ("ml", "mr"))])
_LIT = np.array([[s in on for s in "abcdefg"] for on in (
    "abcdef", "bc", "abdeg", "abcdg", "bcfg", "acdfg", "acdefg", "abc",
    "abcdefg", "abcdfg")])

ROTATION = 0.25            # radians, either way
SHEAR = 0.3                # x += SHEAR * y, either way
SCALE = (6.0, 8.0)         # pixels per glyph unit
SHIFT = 2.5                # pixels, each axis, either way
STROKE = (0.8, 2.0)        # stroke width in pixels
JITTER = 0.08              # sd of each stroke end, in glyph units
NOISE = 0.1                # sd of the pixel noise, on the [0, 1] scale


def seven_segment_digits(labels, seed: int, size: int = 28) -> np.ndarray:
    """One uint8 (size, size) image per digit label in 0..9."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-ROTATION, ROTATION, n)
    shear = rng.uniform(-SHEAR, SHEAR, n)
    scale = rng.uniform(*SCALE, n)
    shift = rng.uniform(-SHIFT, SHIFT, (n, 2))
    half = rng.uniform(*STROKE, n) / 2
    ends = _SEGMENTS + rng.normal(0.0, JITTER, (n, 7, 2, 2))
    # glyph units -> pixels: shear, rotate, scale, then centre and shift
    cos, sin = np.cos(theta), np.sin(theta)
    warp = np.stack([np.stack([cos, cos * shear - sin], -1),
                     np.stack([sin, sin * shear + cos], -1)], -2)
    ends = np.einsum("nij,nsej->nsei", warp * scale[:, None, None], ends)
    ends += (size - 1) / 2 + shift[:, None, None, :]
    ys, xs = np.mgrid[:size, :size]
    px, py = xs.ravel().astype(np.float64), ys.ravel().astype(np.float64)
    ink = np.zeros((n, size * size))
    for s in range(7):
        (ax, ay), (bx, by) = (ends[:, s, e].T[:, :, None] for e in (0, 1))
        dx, dy = bx - ax, by - ay
        rx, ry = px - ax, py - ay
        t = np.clip((rx * dx + ry * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        dist = np.hypot(rx - t * dx, ry - t * dy)
        stroke = np.clip(half[:, None] + 0.5 - dist, 0.0, 1.0)
        np.maximum(ink, stroke * _LIT[labels, s][:, None], out=ink)
    ink += rng.normal(0.0, NOISE, ink.shape)
    return np.rint(np.clip(ink, 0.0, 1.0) * 255).astype(np.uint8).reshape(n, size, size)


def write_digit_set(root, per_class: int, seed: int) -> None:
    """Train and t10k digit files under their standard MNIST names in ``root``.

    Each split holds ``per_class`` images of every digit, drawn from its
    own generator seed.
    """
    labels = np.repeat(np.arange(10), per_class)
    for k, split in enumerate(("train", "test")):
        save_idx_images(str(root / MNIST_FILES[f"{split}_images"]),
                        seven_segment_digits(labels, seed=2 * seed + k))
        save_idx_labels(str(root / MNIST_FILES[f"{split}_labels"]), labels)
