"""One-vs-one multiclass harness over the binary trainer.

One model is trained per unordered class pair on that pair's samples only.
Each pair's seed is derived from (global seed, a, b), so results do not
depend on the execution schedule and parallel runs reproduce sequential
ones exactly.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .data import MulticlassDataset
from .trainer import TrainConfig, predict, train


def pair_seed(global_seed: int, a: int, b: int) -> int:
    """Deterministic per-pair seed independent of training order."""
    ss = np.random.SeedSequence([int(global_seed), int(a), int(b)])
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class OvoEnsemble:
    classes: tuple
    models: dict                      # (a, b) with a < b -> WeightModel
    configs: dict                     # (a, b) -> TrainConfig actually used
    reports: dict = field(default_factory=dict)

    def __post_init__(self):
        k = len(self.classes)
        want = k * (k - 1) // 2
        if len(self.models) != want:
            raise ValueError(
                f"{len(self.models)} models for {k} classes; expected {want}"
            )

    @property
    def pairs(self):
        return sorted(self.models.keys())


def ovo_train(data: MulticlassDataset, cfg: TrainConfig,
              workers: int = 1) -> OvoEnsemble:
    """Train one binary model per class pair (class a -> +1, b -> -1)."""
    classes = tuple(int(c) for c in np.unique(data.labels))
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes, found {classes}")
    pairs = list(combinations(classes, 2))

    def run(pair):
        a, b = pair
        subset = data.binary_view(a, b)
        pcfg = replace(cfg, seed=pair_seed(cfg.seed, a, b))
        model, report = train(subset, pcfg)
        return pair, pcfg, model, report

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = {pair: rest for pair, *rest in pool.map(run, pairs)}

    return OvoEnsemble(
        classes=classes,
        models={p: r[1] for p, r in results.items()},
        configs={p: r[0] for p, r in results.items()},
        reports={p: r[2] for p, r in results.items()},
    )


def pairwise_accuracy(ensemble: OvoEnsemble, test: MulticlassDataset):
    """Per-pair accuracies on the pair's own test samples, and their mean.

    Returns (rows, mean) where each row is a dict with pair, n_test and
    accuracy. Pairs without test samples are excluded with a warning; the
    mean is unweighted over the included pairs.
    """
    extra = np.setdiff1d(test.classes, np.asarray(ensemble.classes))
    if extra.size:
        raise ValueError(f"test labels {extra.tolist()} not in class list")
    rows = []
    for (a, b) in ensemble.pairs:
        mask = (test.labels == a) | (test.labels == b)
        n = int(mask.sum())
        if n == 0:
            warnings.warn(f"pair ({a},{b}) has no test samples; excluded",
                          stacklevel=2)
            continue
        model = ensemble.models[(a, b)]
        got, _ = predict(model, test.samples[mask], test.dims)
        want = np.where(test.labels[mask] == a, 1.0, -1.0)
        rows.append({
            "pair": (a, b),
            "n_test": n,
            "accuracy": float(np.mean(got == want)),
        })
    if not rows:
        raise ValueError("no pair had test samples")
    mean = float(np.mean([r["accuracy"] for r in rows]))
    return rows, mean
