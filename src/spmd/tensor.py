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
from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass(frozen=True)
class DenseTensor:
    """Immutable dense tensor: a shape plus a flat column-major buffer.

    ``data[i1 + I1*i2 + I1*I2*i3 + ...]`` is the entry at ``(i1, i2, i3, ...)``.
    ``data`` may be that flat buffer or an array of shape ``dims``, which is
    read column-major. The buffer is defensively copied and marked read-only so instances can be
    shared across threads.
    """

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise ValueError("tensor must have at least one mode")
        if any(d < 1 for d in dims):
            raise ValueError(f"all dims must be positive, got {dims}")
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


def cp_reconstruct(factors: list[np.ndarray]) -> DenseTensor:
    """Sum of R rank-1 terms from factor matrices ``V_m`` of shape ``I_m x R``.

    The column-major buffer is ``khatri_rao([V_M, ..., V_1]) @ 1``.
    """
    if len(factors) == 0:
        raise ValueError("need at least one factor matrix")
    mats = [np.atleast_2d(np.asarray(v, dtype=np.float64)) for v in factors]
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
        raise ValueError(
            f"got {len(factors)} factors for an order-{core.order} core"
        )
    t = core.to_array()
    for m, v in enumerate(factors, start=1):
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        if v.shape[1] != core.dims[m - 1]:
            raise ValueError(
                f"factor {m} has {v.shape[1]} columns, core mode {m} has size {core.dims[m - 1]}"
            )
        t = (t.reshape(t.shape[0], -1).T @ v.T).reshape(t.shape[1:] + v.shape[:1])
    return DenseTensor(t.shape, t)
