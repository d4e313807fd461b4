"""Signed margins and their first two moments.

The margin of sample i is t_i <W, Z_i>. Moments use the population
convention (divide by N). The variance is taken about the mean (two
passes), so it is never negative and needs no clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .tensor import DenseTensor


@dataclass(frozen=True)
class MarginSummary:
    margins: np.ndarray
    mean: float
    variance: float


def signed_margins(w: DenseTensor, data: LabeledDataset) -> np.ndarray:
    """Per-sample signed margins t_i <W, Z_i>."""
    if w.dims != data.dims:
        raise ValueError(f"weight dims {w.dims} do not match data dims {data.dims}")
    return data.labels * (data.samples @ w.data)


def _moments(margins: np.ndarray) -> tuple[float, float]:
    """(mean, variance): the variance is c'c/N with c = m - mean, never negative."""
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        raise ValueError("no margins")
    n = margins.size
    mean = float(margins.sum()) / n
    c = margins - mean
    return mean, float(c @ c) / n


def summarize_scores(scores: np.ndarray, labels: np.ndarray) -> MarginSummary:
    """Margin summary from precomputed raw scores <W, Z_i>."""
    m = np.asarray(labels, dtype=np.float64) * np.asarray(scores, dtype=np.float64)
    return MarginSummary(m, *_moments(m))
