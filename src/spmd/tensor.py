"""Dense tensor algebra: unfoldings and CP/Tucker reconstruction.

Conventions used throughout the package:

* Flat buffers are column-major: the first index varies fastest, and
  ``vec`` of a matrix stacks its columns.
* Modes are numbered 1..M, matching the usual multilinear notation.
* ``unfold`` places the unfolded mode on the rows; columns enumerate the
  remaining indices with lower modes varying fastest, so that for a CP
  tensor ``W = sum_r v1_r o v2_r o ... o vM_r`` the identity
  ``unfold(W, m) = V_m @ khatri_rao([V_M, ..., skip m, ..., V_1]).T``
  holds, and for a Tucker tensor
  ``unfold(W, m) = V_m @ unfold(F, m) @ kron(V_M, ..., skip m, ..., V_1).T``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np


def _integer(value, low: int = 1, name: str = "value") -> int:
    """The one integer rule: a Python or numpy integer >= ``low``, not a bool.

    Anything else (a whole float, a string, None) raises a ValueError
    naming ``name``.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _real(value, rule: str, name: str) -> float:
    """The one real-number rule: a finite real, not a bool, that is ``rule``.

    ``rule`` is "positive", "nonnegative" or "real" (either sign). Anything
    else (NaN, inf, a string, None) raises a ValueError naming ``name``.
    """
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and {"positive": value > 0, "nonnegative": value >= 0, "real": True}[rule]):
        raise ValueError(f"{name} must be finite and {rule}, got {value!r}")
    return float(value)


def _dims(dims, name: str = "dims") -> tuple[int, ...]:
    """``dims`` as a tuple of one or more positive ints; else a ValueError on ``name``."""
    try:
        ints = tuple(_integer(d) for d in dims)
    except (TypeError, ValueError):
        ints = ()
    if not ints:
        raise ValueError(f"{name} must be one or more positive integers, got {dims!r}")
    return ints


@dataclass(frozen=True)
class DenseTensor:
    """Immutable dense tensor: a shape plus a flat column-major buffer.

    ``data[i1 + I1*i2 + I1*I2*i3 + ...]`` is the entry at ``(i1, i2, i3, ...)``.
    ``data`` may be that flat buffer or an array of shape ``dims``, which is
    read column-major. The buffer is copied and marked read-only, so a
    tensor never changes under its holder and never shares memory with the
    array it was built from.
    """

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        dims = _dims(self.dims)
        # The one copy: a fresh Fortran-ordered array, so the column-major
        # ravel below is a view and the tensor never shares memory with the
        # caller's array.
        data = np.array(self.data, dtype=np.float64, order="F")
        if data.ndim > 1 and data.shape != dims:
            raise ValueError(
                f"data of shape {data.shape} is neither a flat buffer nor "
                f"an array of shape {dims}"
            )
        data = data.ravel(order="F")
        n = math.prod(dims)
        if data.size != n:
            raise ValueError(
                f"flat buffer has {data.size} entries, dims {dims} need {n}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    def to_array(self) -> np.ndarray:
        """The tensor as an ndarray indexed ``arr[i1, ..., iM]``."""
        return self.data.reshape(self.dims, order="F")

    @property
    def order(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        """Frobenius norm."""
        return math.sqrt(self.data @ self.data)


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The (rows, cols) matrix whose stacked columns are ``v``."""
    return np.asarray(v, dtype=np.float64).reshape(shape, order="F")


def unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding (modes are 1-based).

    Returns an ``I_mode x prod(other dims)`` matrix whose columns enumerate
    the remaining indices with lower modes varying fastest.
    """
    if not 1 <= mode <= t.order:
        raise ValueError(f"mode {mode} out of range for order-{t.order} tensor")
    arr = t.to_array()
    return np.reshape(
        np.moveaxis(arr, mode - 1, 0), (t.dims[mode - 1], -1), order="F"
    )


def kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker chain; the 1 x 1 identity for []."""
    if len(mats) == 0:
        return np.eye(1)
    return reduce(np.kron, mats)


def khatri_rao(mats: list[np.ndarray], empty_cols: int = 1) -> np.ndarray:
    """Column-wise Kronecker chain (earlier matrices index slower).

    All matrices must share a column count R; the result has R columns and
    ``prod(rows)`` rows. An empty list yields ``ones((1, empty_cols))``,
    the empty-product convention used by the order-1 paths.
    """
    if len(mats) == 0:
        return np.ones((1, empty_cols))
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    cols = {m.shape[1] for m in mats}
    if len(cols) != 1:
        raise ValueError(f"column counts differ: {sorted(cols)}")
    r = cols.pop()
    return reduce(lambda a, b: (a[:, None, :] * b[None, :, :]).reshape(-1, r), mats)


def _factor(v, m: int) -> np.ndarray:
    """Factor ``m`` as a float64 matrix; any other number of axes is a ValueError."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"factor {m} must be a 2-D matrix, got shape {v.shape}")
    return v


def cp_reconstruct(factors: list[np.ndarray]) -> DenseTensor:
    """Sum of R rank-1 terms from factor matrices ``V_m`` of shape ``I_m x R``.

    The column-major buffer is ``khatri_rao([V_M, ..., V_1]) @ 1``.
    """
    if len(factors) == 0:
        raise ValueError("need at least one factor matrix")
    mats = [_factor(v, m) for m, v in enumerate(factors, start=1)]
    if min(m.shape[1] for m in mats) < 1:
        raise ValueError("rank must be at least 1")
    return DenseTensor(tuple(m.shape[0] for m in mats),
                       khatri_rao(mats[::-1]).sum(axis=1))


def tucker_reconstruct(core: DenseTensor, factors: list[np.ndarray]) -> DenseTensor:
    """Core times each factor along its mode: ``F x_1 V_1 x_2 ... x_M V_M``.

    One contraction per mode, ``tensordot(t, V_m, axes=(0, 1))`` written as
    a single GEMM on the axis-0 unfolding: step m contracts axis 0, which
    holds mode m, with the columns of ``V_m`` and appends the new mode last,
    so after M steps the axes are back in mode order.
    """
    if len(factors) != core.order:
        raise ValueError(f"got {len(factors)} factors for an order-{core.order} core")
    t = core.to_array()
    for m, v in enumerate(factors, start=1):
        v = _factor(v, m)
        if v.shape[1] != core.dims[m - 1]:
            raise ValueError(f"factor {m} has {v.shape[1]} columns, "
                             f"core mode {m} has size {core.dims[m - 1]}")
        t = (t.reshape(t.shape[0], -1).T @ v.T).reshape(t.shape[1:] + v.shape[:1])
    return DenseTensor(t.shape, t)
