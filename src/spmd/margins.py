"""Signed margins and their first two moments.

The margin of sample i is t_i <W, Z_i>. Moments use the population
convention (divide by N). A tiny negative variance from floating-point
cancellation is clamped to zero with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .tensor import DenseTensor

VARIANCE_CLAMP_TOL = 1e-12


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
    """(mean, variance) from one sum and one dot; clamps tiny negative rounding."""
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        raise ValueError("no margins")
    n = margins.size
    mean = float(margins.sum()) / n
    square = float(margins @ margins) / n
    v = square - mean**2
    if v < 0.0:
        if v < -VARIANCE_CLAMP_TOL * max(1.0, square):
            raise ValueError(f"variance {v} is negative beyond rounding tolerance")
        warnings.warn(f"variance {v} clamped to 0", stacklevel=3)
        v = 0.0
    return mean, v


def summarize_scores(scores: np.ndarray, labels: np.ndarray) -> MarginSummary:
    """Margin summary from precomputed raw scores <W, Z_i>."""
    m = np.asarray(labels, dtype=np.float64) * np.asarray(scores, dtype=np.float64)
    return MarginSummary(m, *_moments(m))
