"""Dense tensor algebra: unfoldings, mode products, CP/Tucker reconstruction.

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

from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass(frozen=True)
class DenseTensor:
    """Immutable dense tensor: a shape plus a flat column-major buffer.

    ``data[i1 + I1*i2 + I1*I2*i3 + ...]`` is the entry at ``(i1, i2, i3, ...)``.
    The buffer is defensively copied and marked read-only so instances can be
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
        data = np.array(self.data, dtype=np.float64).ravel()
        n = int(np.prod(dims))
        if data.size != n:
            raise ValueError(
                f"flat buffer has {data.size} entries, dims {dims} need {n}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        """Build from an ndarray, preserving its index convention."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 0:
            raise ValueError("scalars are not tensors here; need at least one mode")
        return cls(arr.shape, arr.ravel(order="F"))

    def to_array(self) -> np.ndarray:
        """The tensor as an ndarray indexed ``arr[i1, ..., iM]``."""
        return self.data.reshape(self.dims, order="F")

    @property
    def order(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.data))


def vec(mat: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into a vector."""
    return np.asarray(mat, dtype=np.float64).ravel(order="F")


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`vec` for the given (rows, cols)."""
    return np.asarray(v, dtype=np.float64).reshape(shape, order="F")


def outer_product(vectors: list[np.ndarray]) -> DenseTensor:
    """Rank-1 tensor from per-mode vectors: entry = prod_m vectors[m][i_m]."""
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    vs = [np.asarray(v, dtype=np.float64).ravel() for v in vectors]
    if any(v.size == 0 for v in vs):
        raise ValueError("empty vector in outer product")
    return DenseTensor.from_array(reduce(np.multiply.outer, vs))


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


def refold(mat: np.ndarray, mode: int, dims: tuple[int, ...]) -> DenseTensor:
    """Inverse of :func:`unfold`: rebuild the tensor with shape ``dims``."""
    dims = tuple(int(d) for d in dims)
    if not 1 <= mode <= len(dims):
        raise ValueError(f"mode {mode} out of range for dims {dims}")
    mat = np.asarray(mat, dtype=np.float64)
    rest = dims[: mode - 1] + dims[mode:]
    expected = (dims[mode - 1], int(np.prod(rest)) if rest else 1)
    if mat.shape != expected:
        raise ValueError(f"matrix shape {mat.shape} does not match unfolding {expected}")
    arr = np.reshape(mat, (dims[mode - 1],) + rest, order="F")
    return DenseTensor.from_array(np.moveaxis(arr, 0, mode - 1))


def mode_n_product(t: DenseTensor, u: np.ndarray, mode: int) -> DenseTensor:
    """Multiply mode ``mode`` by the matrix ``u`` (``u.shape[1]`` must equal ``I_mode``)."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError("mode product needs a matrix")
    if not 1 <= mode <= t.order:
        raise ValueError(f"mode {mode} out of range for order-{t.order} tensor")
    if u.shape[1] != t.dims[mode - 1]:
        raise ValueError(
            f"matrix has {u.shape[1]} columns, mode {mode} has size {t.dims[mode - 1]}"
        )
    new_dims = t.dims[: mode - 1] + (u.shape[0],) + t.dims[mode:]
    return refold(u @ unfold(t, mode), mode, new_dims)


def inner(a: DenseTensor, b: DenseTensor) -> float:
    """Frobenius inner product; shapes must match exactly."""
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    return float(a.data @ b.data)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (a's indices vary slower)."""
    return np.kron(np.atleast_2d(np.asarray(a, dtype=np.float64)),
                   np.atleast_2d(np.asarray(b, dtype=np.float64)))


def kron_chain(mats: list[np.ndarray], empty_dim: int = 1) -> np.ndarray:
    """Left-to-right Kronecker chain; identity of size ``empty_dim`` for []."""
    if len(mats) == 0:
        return np.eye(empty_dim)
    return reduce(kron, mats)


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
    """Sum of R rank-1 terms from factor matrices ``V_m`` of shape ``I_m x R``."""
    if len(factors) == 0:
        raise ValueError("need at least one factor matrix")
    mats = [np.atleast_2d(np.asarray(v, dtype=np.float64)) for v in factors]
    cols = {m.shape[1] for m in mats}
    if len(cols) != 1:
        raise ValueError(f"factor column counts differ: {sorted(cols)}")
    r = cols.pop()
    if r < 1:
        raise ValueError("rank must be at least 1")
    acc = None
    for j in range(r):
        term = reduce(np.multiply.outer, [m[:, j] for m in mats])
        acc = term if acc is None else acc + term
    return DenseTensor.from_array(acc)


def tucker_reconstruct(core: DenseTensor, factors: list[np.ndarray]) -> DenseTensor:
    """Core times each factor along its mode: ``F x_1 V_1 x_2 ... x_M V_M``."""
    if len(factors) != core.order:
        raise ValueError(
            f"got {len(factors)} factors for an order-{core.order} core"
        )
    t = core
    for m, v in enumerate(factors, start=1):
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        if v.shape[1] != core.dims[m - 1]:
            raise ValueError(
                f"factor {m} has {v.shape[1]} columns, core mode {m} has size {core.dims[m - 1]}"
            )
        t = mode_n_product(t, v, m)
    return t


def check_factor(mat: np.ndarray, mode: int | None = None) -> np.ndarray:
    """Validate a factor matrix; more columns than rows draws a warning only."""
    import warnings

    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError("factor must be a non-empty matrix")
    if mat.shape[1] > mat.shape[0]:
        where = f" (mode {mode})" if mode is not None else ""
        warnings.warn(
            f"factor{where} has more columns than rows ({mat.shape[1]} > {mat.shape[0]}); "
            "rank exceeds mode size",
            stacklevel=2,
        )
    return mat
