"""Box-constrained dual QP: assembly from features and a coordinate solver.

Each block subproblem minimizes, over v in R^D,

    0.5 v'v + mu1 * var(margins) - mu2 * mean(margins) + (lam/N) * sum hinge_i

with margins m_i = y_i'v, where y_i = t_i z_i are the signed feature
columns, Y = Z T. The first two terms are the quadratic 0.5 v'Sv with

    S = I + (2*mu1/N) Yc Yc' = I + c (N Z Z' - (Z t)(Z t)'),  c = 2*mu1/N^2,

where Yc is Y with its row means removed, so that var(margins) =
v' ((1/N) Yc Yc') v. Eliminating the slack via Lagrange duality gives

    min_alpha  0.5 alpha' H alpha + g' alpha,   0 <= alpha_i <= lam/N,

with S = L L' (Cholesky), B = L^{-1} Y, H = B'B, g = (mu2/N) B'(B e) - e,
and primal recovery v = L^{-T} B (alpha + (mu2/N) e).

The whole assembly works in the D x D feature space: one Cholesky of S, one
triangular solve for the D x N matrix B, and the N x N product B'B, which
numpy forms with a symmetric rank-k update so H is exactly symmetric. S is
at least I, so the factorization cannot fail; at mu1 = 0 it is I itself.
By the push-through identity G (I + QG)^{-1} = Z' S^{-1} Z, this is the
same dual as the sample-space form H = T G (I + QG)^{-1} T with G = Z'Z and
Q = (2*mu1/N^2)(N I - t t'), without its N x N factorization.

H has rank at most D, often far below N, and cyclic coordinate descent
alone crawls on such degenerate duals. The solver therefore ends each pass
whose free set {i : 0 < alpha_i < lam/N} repeats the previous pass's with
one subspace step on that set: a least-squares Newton step on H_FF, or a
step along the part of -grad_F that H_FF cannot reach, whichever lowers
the objective more, cut at the box. Each coordinate visit and each such
step is an exact or box-capped line minimization along a descent
direction, so the objective never rises.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class QpProblem:
    """min 0.5 a'Ha + g'a subject to 0 <= a <= upper (elementwise)."""

    H: np.ndarray
    g: np.ndarray
    upper: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=np.float64)
        g = np.asarray(self.g, dtype=np.float64).ravel()
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        if g.size != H.shape[0]:
            raise ValueError(f"g has {g.size} entries, H is {H.shape[0]}x{H.shape[0]}")
        if not np.isfinite(H).all() or not np.isfinite(g).all():
            raise ValueError("non-finite entries in QP data")
        if not self.upper > 0:
            raise ValueError(f"upper bound must be positive, got {self.upper}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.g.size

    def objective(self, alpha: np.ndarray) -> float:
        alpha = np.asarray(alpha, dtype=np.float64)
        return float(0.5 * alpha @ (self.H @ alpha) + self.g @ alpha)


@dataclass(frozen=True)
class QpSolution:
    alpha: np.ndarray
    iterations: int
    kkt_residual: float
    objective: float
    converged: bool
    objective_trace: tuple = field(default=())


def _validate(features, labels, mu1, mu2, lam):
    Z = np.asarray(features, dtype=np.float64)
    t = np.asarray(labels, dtype=np.float64).ravel()
    if Z.ndim != 2:
        raise ValueError("features must be a D x N matrix")
    if t.size != Z.shape[1]:
        raise ValueError(f"{Z.shape[1]} feature columns but {t.size} labels")
    if not np.isfinite(Z).all():
        raise ValueError("non-finite feature values")
    if np.any(np.abs(t) != 1.0):
        raise ValueError("labels must be -1 or +1")
    if mu1 < 0 or mu2 < 0:
        raise ValueError("mu1 and mu2 must be nonnegative")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return Z, t


def assemble_dual(features, labels, mu1, mu2, lam):
    """Build the dual QP and a recovery closure sharing one Cholesky factor.

    Returns (problem, recover, info) where recover(alpha) gives the primal
    block vector v. info["ridge_added"] is always False: S is positive
    definite by construction, so no regularization is ever added.
    """
    Z, t = _validate(features, labels, mu1, mu2, lam)
    n = t.size
    Y = Z * t
    Yc = Y - Y.mean(axis=1, keepdims=True)
    S = np.eye(Z.shape[0]) + (2.0 * mu1 / n) * (Yc @ Yc.T)
    L = scipy.linalg.cholesky(S, lower=True, check_finite=False)
    B = scipy.linalg.solve_triangular(L, Y, lower=True, check_finite=False)
    H = B.T @ B
    g = (mu2 / n) * (B.T @ B.sum(axis=1)) - 1.0
    problem = QpProblem(H, g, lam / n)

    def recover(alpha: np.ndarray) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=np.float64).ravel()
        return scipy.linalg.solve_triangular(L, B @ (alpha + mu2 / n), lower=True,
                                             trans="T", check_finite=False)

    return problem, recover, {"ridge_added": False}


def build_dual(features, labels, mu1, mu2, lam) -> QpProblem:
    """Dual QP for one block: H, g and the box bound lam/N."""
    problem, _, _ = assemble_dual(features, labels, mu1, mu2, lam)
    return problem


def _box_line_step(a: np.ndarray, d: np.ndarray, slope: float, curv: float,
                   upper: float) -> tuple[np.ndarray, float]:
    """Minimize slope*t + curv*t^2/2 over t >= 0 with a + t d kept in the box.

    Returns the new point and the objective decrease. Coordinates that the
    step carries onto the box land on it exactly.
    """
    with np.errstate(divide="ignore"):
        room = np.where(d > 0.0, (upper - a) / d, np.where(d < 0.0, -a / d, np.inf))
    t = float(room.min())
    if curv > 0.0:
        t = min(t, -slope / curv)
    new = np.clip(a + t * d, 0.0, upper)
    hit = room <= t
    new[hit] = np.where(d[hit] > 0.0, upper, 0.0)
    return new, -(slope + 0.5 * curv * t) * t


def _free_set_step(hf: np.ndarray, gf: np.ndarray, a: np.ndarray,
                   upper: float) -> np.ndarray:
    """One descent step on the free coordinates a (gradient gf, Hessian hf).

    Two directions are tried and the one that lowers the objective more is
    taken. The Newton direction p is the min-norm least-squares solution of
    hf p = -gf; along it gf'p = -p'hf p, so the line minimum is at t = 1
    unless the box stops it first. The residual r = gf + hf p is the part
    of gf outside range(hf); along -r the objective falls linearly
    (gf'r = r'r, r'hf r = 0), so when r is not zero the face is unbounded
    below and that step runs to the box. Each step is a line minimization
    along a descent direction, so the objective never rises.
    """
    p = np.linalg.lstsq(hf, -gf, rcond=None)[0]
    best, gain = a, 0.0
    for d in (p, -(gf + hf @ p)):
        slope = float(gf @ d)
        if slope < 0.0:
            new, drop = _box_line_step(a, d, slope, float(d @ (hf @ d)), upper)
            if drop > gain:
                best, gain = new, drop
    return best


def solve_box_qp(problem: QpProblem, tol: float = 1e-8, max_passes: int = 5000,
                 alpha0: np.ndarray | None = None,
                 perm: np.ndarray | None = None) -> QpSolution:
    """Cyclic coordinate descent with a subspace step on a settled free set.

    Each pass visits the coordinates in a fixed permutation. Each visit
    minimizes the quadratic exactly along that coordinate and clips to the
    box; a zero diagonal falls back to the linear rule (move to whichever
    box end decreases the objective).

    When the free set F = {i : 0 < a_i < upper} after a pass is non-empty
    and equal to the previous pass's, the pass ends with one subspace
    minimization step on F, as in gradient projection for bound-constrained
    QPs (More & Toraldo, SIAM J. Optim. 1991): a least-squares Newton step
    on H_FF, or a zero-curvature step when grad_F leaves range(H_FF), cut
    at the box (see ``_free_set_step``), after which grad is recomputed
    exactly. Neither the coordinate visits nor this step raise the
    objective, so ``objective_trace`` is non-increasing. On the rank-D
    duals of small blocks, where coordinate descent alone crawls for
    thousands of passes, the step finishes the solve as soon as the active
    set settles.

    Terminates when the maximum projected gradient residual
    max_i |a_i - clip(a_i - grad_i)| drops to ``tol``.

    Parameters
    ----------
    alpha0 : warm-start point (clipped into the box), zeros by default.
    perm : visit order; defaults to 0..N-1. Pass a seeded permutation for
        run-reproducible schedules.
    """
    H, g, upper = problem.H, problem.g, problem.upper
    n = problem.n
    diag = np.diag(H).copy()
    alpha = np.zeros(n) if alpha0 is None else np.clip(
        np.asarray(alpha0, dtype=np.float64).ravel(), 0.0, upper)
    if alpha.size != n:
        raise ValueError(f"warm start has {alpha.size} entries, need {n}")
    order = np.arange(n) if perm is None else np.asarray(perm, dtype=np.int64)
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("perm must be a permutation of 0..N-1")

    grad = H @ alpha + g
    trace = []
    residual = np.inf
    converged = False
    passes = 0
    free_prev = np.empty(0, dtype=np.int64)
    for passes in range(1, max_passes + 1):
        for i in order:
            gi = grad[i]
            hii = diag[i]
            if hii > 0.0:
                new = alpha[i] - gi / hii
                if new < 0.0:
                    new = 0.0
                elif new > upper:
                    new = upper
            elif gi > 0.0:
                new = 0.0
            elif gi < 0.0:
                new = upper
            else:
                continue
            delta = new - alpha[i]
            if delta != 0.0:
                alpha[i] = new
                grad += delta * H[i]
        free = np.flatnonzero((alpha > 0.0) & (alpha < upper))
        if free.size and np.array_equal(free, free_prev):
            alpha[free] = _free_set_step(H[np.ix_(free, free)], grad[free],
                                         alpha[free], upper)
            grad = H @ alpha + g
        elif passes % 32 == 0:
            grad = H @ alpha + g  # shed incremental rounding drift
        free_prev = free
        trace.append(float(0.5 * alpha @ (grad + g)))
        residual = float(np.abs(alpha - np.clip(alpha - grad, 0.0, upper)).max())
        if residual <= tol:
            converged = True
            break
    grad = H @ alpha + g
    residual = float(np.abs(alpha - np.clip(alpha - grad, 0.0, upper)).max())
    if not converged and residual > tol:
        warnings.warn(
            f"coordinate descent stopped at residual {residual:g} after "
            f"{passes} passes (tol {tol:g})",
            stacklevel=2,
        )
    else:
        converged = True
    alpha.setflags(write=False)
    return QpSolution(alpha, passes, residual, problem.objective(alpha),
                      converged, tuple(trace))
