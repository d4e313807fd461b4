"""Sanity run on real handwritten digits piped through the IDX path.

scikit-learn's bundled 8x8 digits are written out as IDX files and consumed
through the same loader, selection, reshape, training, and CLI machinery a
full image dataset would use. This is a smoke check that the whole pipeline
handles real data, not a benchmark: thresholds are deliberately loose.
"""

import json

import numpy as np
import pytest

sklearn_datasets = pytest.importorskip("sklearn.datasets")

from idx_files import save_idx_images, save_idx_labels
from spmd.cli import main
from spmd.data import load_idx, select_binary
from spmd.multiclass import ovo_train, pairwise_accuracy
from spmd.trainer import TrainConfig, decision_scores, train


@pytest.fixture(scope="module")
def digits_idx(tmp_path_factory):
    """The sklearn digits as an IDX image/label file pair."""
    root = tmp_path_factory.mktemp("digits")
    bunch = sklearn_datasets.load_digits()
    # pixel range 0..16 -> 0..255 so the loader's 1/255 scaling applies as
    # it would to ordinary 8-bit images
    images = np.round(bunch.images * (255.0 / 16.0)).astype(np.uint8)
    labels = bunch.target.astype(np.uint8)
    images_path = str(root / "digits-images.idx")
    labels_path = str(root / "digits-labels.idx")
    save_idx_images(images_path, images)
    save_idx_labels(labels_path, labels)
    return images_path, labels_path


def test_digits_round_trip_through_idx(digits_idx):
    images_path, labels_path = digits_idx
    raw = load_idx(images_path, labels_path)
    assert raw.dims == (8, 8)
    assert len(raw) == 1797
    assert set(np.unique(raw.labels)) == set(range(10))
    # loader scales to [0, 1]
    assert raw.samples.min() >= 0.0 and raw.samples.max() <= 1.0


def test_zero_vs_one_separates_well(digits_idx):
    raw = load_idx(*digits_idx)
    data = select_binary(raw, 0, 1, per_class=80, seed=0)
    holdout = select_binary(raw, 0, 1, per_class=40, seed=1)
    model, report = train(data, TrainConfig(kind="rank1", lam=5.0, seed=0))
    assert report.converged
    scores = decision_scores(model, holdout.samples, holdout.dims)
    acc = float(np.mean(np.where(scores >= 0, 1.0, -1.0) == holdout.labels))
    assert acc >= 0.95


def test_three_class_pairwise_mean(digits_idx):
    raw = load_idx(*digits_idx)
    from spmd.data import select_multiclass

    train_set = select_multiclass(raw, [0, 1, 2], per_class=50, seed=0)
    test_set = select_multiclass(raw, [0, 1, 2], per_class=30, seed=1)
    ens = ovo_train(train_set, TrainConfig(kind="rank1", lam=5.0, seed=0))
    _, mean = pairwise_accuracy(ens, test_set)
    assert mean >= 0.9


@pytest.mark.filterwarnings("ignore:coordinate descent stopped")
def test_digits_through_cli(digits_idx, tmp_path):
    # real-data Tucker subproblems can brush the inner pass cap; the solver
    # reports it and the outer loop still converges, which is what we assert
    images_path, labels_path = digits_idx
    cfg = {
        "method": "spmd-tucker",
        "ranks": [2, 2, 2, 2],
        "lambda": 5.0,
        "dataset": {"source": "idx", "images": images_path,
                    "labels": labels_path, "classes": [0, 1],
                    "per_class": 60, "seed": 0, "reshape": [4, 2, 4, 2]},
    }
    cfg_path = tmp_path / "digits.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    acc = float(summary.split("train_accuracy")[1].split()[0])
    assert acc >= 0.95
