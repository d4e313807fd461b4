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


def margin_mean(margins: np.ndarray) -> float:
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        raise ValueError("no margins")
    return float(np.mean(margins))


def margin_variance(margins: np.ndarray) -> float:
    """Population variance of the margins; clamps tiny negative rounding."""
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        raise ValueError("no margins")
    v = float(np.mean(margins**2) - np.mean(margins) ** 2)
    if v < 0.0:
        if v < -VARIANCE_CLAMP_TOL * max(1.0, float(np.mean(margins**2))):
            raise ValueError(f"variance {v} is negative beyond rounding tolerance")
        warnings.warn(f"variance {v} clamped to 0", stacklevel=2)
        v = 0.0
    return v


def summarize_scores(scores: np.ndarray, labels: np.ndarray) -> MarginSummary:
    """Margin summary from precomputed raw scores <W, Z_i>."""
    m = np.asarray(labels, dtype=np.float64) * np.asarray(scores, dtype=np.float64)
    return MarginSummary(m, margin_mean(m), margin_variance(m))
