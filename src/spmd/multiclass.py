"""One-vs-one multiclass harness over the binary trainer.

One model is trained per unordered class pair on that pair's samples only.
Pairs train one at a time, in sorted pair order, in the calling thread: a
pair training is hundreds of small numpy calls per block update, all under
the interpreter lock, so threads would only take turns holding it.
Each pair's seed is derived from (global seed, a, b), so a pair's model
does not depend on which other pairs are trained.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .data import MulticlassDataset, _pair_view
from .tensor import _integer
from .trainer import TrainConfig, predict, train


def pair_seed(global_seed: int, a: int, b: int) -> int:
    """Deterministic per-pair seed independent of training order."""
    ss = np.random.SeedSequence([_integer(global_seed, 0, "seed"), int(a), int(b)])
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class OvoEnsemble:
    """One model per class pair; ``reports[pair].seed`` is the pair's seed."""

    classes: tuple
    models: dict                      # (a, b) with a < b -> WeightModel
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
    """Train one binary model per class pair (class a -> +1, b -> -1).

    Pairs always train one at a time in the calling thread. ``workers``
    must be an integer >= 1 and changes neither the results nor the execution.
    The CLI no longer passes it; it stays only because the benchmark's
    one-vs-one job (``benchmarks/workloads.py::job_ovo``) still calls
    ``ovo_train(..., workers=2)``, and goes once that call drops it.
    """
    _integer(workers, 1, "workers")
    classes = tuple(int(c) for c in np.unique(data.labels))
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes, found {classes}")
    models, reports = {}, {}
    for a, b in combinations(classes, 2):
        pcfg = replace(cfg, seed=pair_seed(cfg.seed, a, b))
        models[(a, b)], reports[(a, b)] = train(data.binary_view(a, b), pcfg)
    return OvoEnsemble(classes=classes, models=models, reports=reports)


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
        view = _pair_view(test, a, b)
        if len(view) == 0:
            warnings.warn(f"pair ({a},{b}) has no test samples; excluded",
                          stacklevel=2)
            continue
        got, _ = predict(ensemble.models[(a, b)], view.samples, view.dims)
        rows.append({
            "pair": (a, b),
            "n_test": len(view),
            "accuracy": float(np.mean(got == view.labels)),
        })
    if not rows:
        raise ValueError("no pair had test samples")
    mean = float(np.mean([r["accuracy"] for r in rows]))
    return rows, mean
