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

The whole assembly works in the D x D feature space: one Cholesky of S and
one solve with its factor L for the D x N matrix B. S is at least I, so the
factorization cannot fail; at mu1 = 0 it is I itself. H is never formed:
the problem keeps the factor B, so assembly memory is O(N D), not O(N^2).
By the push-through identity G (I + QG)^{-1} = Z' S^{-1} Z, this is the
same dual as the sample-space form H = T G (I + QG)^{-1} T with G = Z'Z
and Q = (2*mu1/N^2)(N I - t t'), without its N x N factorization.

The solver is dual coordinate descent in the factor form of Hsieh et al.
(ICML 2008): it keeps u = B alpha, so the gradient of one coordinate,
b_i'u + g_i, and the update of u after a step each cost O(D). Each pass
visits only the coordinates that violate the KKT conditions at its start
(a working set, as in Fan, Chen & Lin, JMLR 2005). H has rank at most D,
often far below N, and coordinate descent alone crawls on such degenerate
duals, so every pass that leaves the solve unconverged ends with one
subspace step on the free set F = {i : 0 < alpha_i < lam/N}: a
least-squares Newton step on H_FF = B_F'B_F (the only square array the
solver builds, |F| x |F|), or a step along the part of -grad_F that H_FF
cannot reach, whichever lowers the objective more, cut at the box. A
zero-curvature step that the box cuts is repeated on the part of F it
left free. Each coordinate visit and each such step is an exact or
box-capped line minimization along a descent direction, so the objective
never rises.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class QpProblem:
    """min 0.5 ||B a||^2 + g'a subject to 0 <= a <= upper (elementwise).

    B is the D x N factor of the Hessian H = B'B, which is never formed.
    """

    B: np.ndarray
    g: np.ndarray
    upper: float

    def __post_init__(self):
        B = np.asarray(self.B, dtype=np.float64)
        g = np.asarray(self.g, dtype=np.float64).ravel()
        if B.ndim != 2:
            raise ValueError("B must be a D x N matrix")
        if g.size != B.shape[1]:
            raise ValueError(f"g has {g.size} entries, B has {B.shape[1]} columns")
        if not np.isfinite(B).all() or not np.isfinite(g).all():
            raise ValueError("non-finite entries in QP data")
        if not self.upper > 0:
            raise ValueError(f"upper bound must be positive, got {self.upper}")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.g.size

    def objective(self, alpha: np.ndarray) -> float:
        alpha = np.asarray(alpha, dtype=np.float64)
        u = self.B @ alpha
        return float(0.5 * (u @ u) + self.g @ alpha)


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
    L = np.linalg.cholesky(S)
    # Column-major, so that solve_box_qp's B.T is a row-contiguous view; the
    # layout also sets how B.sum and the BLAS products round.
    B = np.asfortranarray(np.linalg.solve(L, Y))
    g = (mu2 / n) * (B.sum(axis=1) @ B) - 1.0
    problem = QpProblem(B, g, lam / n)

    def recover(alpha: np.ndarray) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=np.float64).ravel()
        return np.linalg.solve(L.T, B @ (alpha + mu2 / n))

    return problem, recover, {"ridge_added": False}


def build_dual(features, labels, mu1, mu2, lam) -> QpProblem:
    """Dual QP for one block: the factor B, g and the box bound lam/N."""
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
    """Descent steps on the free coordinates a (gradient gf, Hessian hf).

    Two directions are tried and the one that lowers the objective more is
    taken. The Newton direction p is the min-norm least-squares solution of
    hf p = -gf; along it gf'p = -p'hf p, so the line minimum is at t = 1
    unless the box stops it first. The residual r = gf + hf p is the part
    of gf outside range(hf); along -r the objective falls linearly
    (gf'r = r'r, r'hf r = 0), so when r is not zero the face is unbounded
    below and that step runs to the box. Each step is a line minimization
    along a descent direction, so the objective never rises.

    When the zero-curvature step wins, the coordinates it put on a bound
    leave the face and the step is repeated on the rest of it, with the
    gradient moved by hf times the step. Stopping after one cut step lets
    the next coordinate pass lift those coordinates off the bound again,
    and the two can trade the same small move for thousands of passes.
    """
    out, face = a, None  # face: positions in out of the current face
    while True:
        p = np.linalg.lstsq(hf, -gf, rcond=None)[0]
        best, gain, newton = None, 0.0, False
        for k, d in enumerate((p, -(gf + hf @ p))):
            slope = float(gf @ d)
            if slope < 0.0:
                new, drop = _box_line_step(a, d, slope, float(d @ (hf @ d)), upper)
                if drop > gain:
                    best, gain, newton = new, drop, k == 0
        if best is None:
            return out
        if face is None:
            out = best
        else:
            out[face] = best
        if newton:
            return out
        kept = (best > 0.0) & (best < upper)
        if kept.all() or not kept.any():
            return out
        gf = (gf + hf @ (best - a))[kept]
        hf = hf[np.ix_(kept, kept)]
        a = best[kept]
        face = np.flatnonzero(kept) if face is None else face[kept]


def solve_box_qp(problem: QpProblem, tol: float = 1e-8, max_passes: int = 5000,
                 alpha0: np.ndarray | None = None,
                 perm: np.ndarray | None = None) -> QpSolution:
    """Dual coordinate descent on u = B a with a subspace step on the free set.

    The solver works on the factor B of H = B'B and keeps u = B a, so H is
    never formed. Each pass visits, in the order of ``perm``, only
    the coordinates whose projected gradient is non-zero at the start of
    the pass (the KKT violators). A visit computes g_i = b_i'u + g_i,
    minimizes the quadratic exactly along that coordinate and clips to the
    box; a zero diagonal falls back to the linear rule (move to whichever
    box end decreases the objective). When a_i changes by d, u += d b_i.

    After the pass the gradient B'u + g is formed. If the solve has not
    converged and the free set F = {i : 0 < a_i < upper} is non-empty, the
    pass ends with one subspace minimization step on F, as in gradient
    projection for bound-constrained QPs (More & Toraldo, SIAM J. Optim.
    1991): a least-squares Newton step on H_FF = B_F'B_F, or a
    zero-curvature step when grad_F leaves range(H_FF), cut at the box
    and repeated on the part of F it leaves free (see ``_free_set_step``),
    after which u = B a is recomputed exactly.
    Neither the coordinate visits nor this step raise the objective, so
    ``objective_trace`` is non-increasing. On the rank-D duals of small
    blocks, where coordinate descent alone crawls for thousands of passes,
    the step finishes the solve as soon as the active set settles.

    Terminates when the maximum projected gradient residual
    max_i |a_i - clip(a_i - grad_i)| drops to ``tol``.

    Parameters
    ----------
    alpha0 : warm-start point (clipped into the box), zeros by default.
    perm : visit order; defaults to 0..N-1. Pass a seeded permutation for
        run-reproducible schedules.
    """
    B, g, upper = problem.B, problem.g, problem.upper
    n = problem.n
    rows = np.ascontiguousarray(B.T)  # rows[i] is the column b_i of B
    diag = np.einsum("ij,ij->i", rows, rows)
    alpha = np.zeros(n) if alpha0 is None else np.clip(
        np.asarray(alpha0, dtype=np.float64).ravel(), 0.0, upper)
    if alpha.size != n:
        raise ValueError(f"warm start has {alpha.size} entries, need {n}")
    order = np.arange(n) if perm is None else np.asarray(perm, dtype=np.int64)
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("perm must be a permutation of 0..N-1")

    def residual_of(grad):
        return float(np.abs(alpha - np.clip(alpha - grad, 0.0, upper)).max())

    u = B @ alpha
    grad = rows @ u + g
    trace = []
    converged = False
    passes = 0
    for passes in range(1, max_passes + 1):
        a, gr = alpha[order], grad[order]
        for i in order[((gr < 0.0) & (a < upper)) | ((gr > 0.0) & (a > 0.0))]:
            bi = rows[i]
            gi = bi @ u + g[i]
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
                u += delta * bi
        grad = rows @ u + g
        residual = residual_of(grad)
        if residual > tol:
            free = np.flatnonzero((alpha > 0.0) & (alpha < upper))
            if free.size:
                bf = rows[free]
                alpha[free] = _free_set_step(bf @ bf.T, grad[free], alpha[free],
                                             upper)
            if free.size or passes % 32 == 0:
                u = B @ alpha  # exact again, which also sheds rounding drift
                grad = rows @ u + g
                residual = residual_of(grad)
        trace.append(float(0.5 * (u @ u) + g @ alpha))
        if residual <= tol:
            converged = True
            break
    grad = rows @ (B @ alpha) + g
    residual = residual_of(grad)
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
