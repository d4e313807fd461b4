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

The whole assembly works in the D x D feature space: one Cholesky of S,
one inverse of its triangular factor, L^{-1}, and one product with it for
the D x N matrix B. The same L^{-1} recovers v, so no system is solved per
block. S is at least I, so the factorization cannot fail, and L is well
conditioned; at mu1 = 0 both are I itself. H is never formed: the problem
keeps the factor B, so assembly memory is O(N D), not O(N^2).
By the push-through identity G (I + QG)^{-1} = Z' S^{-1} Z, this is the
same dual as the sample-space form H = T G (I + QG)^{-1} T with G = Z'Z
and Q = (2*mu1/N^2)(N I - t t'), without its N x N factorization.

The solver is dual coordinate descent in the factor form of Hsieh et al.
(ICML 2008): it keeps u = B alpha, so the gradient of one coordinate,
b_i'u + g_i, and the update of u after a step each cost O(D). Each pass
visits, in index order, only the coordinates that violate the KKT
conditions at its start (a working set, as in Fan, Chen & Lin, JMLR 2005),
and then recomputes u = B alpha, so the gradient and the KKT residual that
decide convergence are exact. H has rank at most D,
often far below N, and coordinate descent alone crawls on such degenerate
duals, so every pass that leaves the solve unconverged ends with one
subspace step on the free set F = {i : 0 < alpha_i < lam/N}: a
least-squares Newton step on H_FF = B_F'B_F, or (when H_FF is singular)
a step along the part of -grad_F that H_FF cannot reach, whichever lowers
the objective more, cut at the box. Both directions come from the
eigenpairs of the smaller Gram matrix of the D x |F| factor B_F: B_F'B_F
when |F| <= D, else B_F B_F' (D x D), whose eigenvectors B_F' maps to
those of H_FF. The step costs O(min(D, |F|)^2 max(D, |F|)), and no
square array larger than min(D, |F|) is built. A zero-curvature step
that the box cuts is repeated on the part of F it left free. Each
coordinate visit and each such step is an exact or box-capped line
minimization along a descent direction, so the objective never rises.
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
    Linv = np.linalg.inv(np.linalg.cholesky(S))
    # B = Linv Y, built as (Y' Linv')' so that it is column-major without a
    # copy: solve_box_qp's B.T is then a row-contiguous view. The layout
    # also sets how B.sum and the BLAS products round.
    B = (Y.T @ Linv.T).T
    g = (mu2 / n) * (B.sum(axis=1) @ B) - 1.0
    problem = QpProblem(B, g, lam / n)

    def recover(alpha: np.ndarray) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=np.float64).ravel()
        return Linv.T @ (B @ (alpha + mu2 / n))

    return problem, recover, {"ridge_added": False}


def _box_line_step(a: np.ndarray, d: np.ndarray, slope: float, curv: float,
                   upper: float) -> tuple[np.ndarray, float]:
    """Minimize slope*t + curv*t^2/2 over t >= 0 with a + t d kept in the box.

    Returns the new point and the objective decrease. Coordinates that the
    step carries onto the box land on it exactly.
    """
    up, down = d > 0.0, d < 0.0
    room = np.full(d.size, np.inf)
    np.divide(upper - a, d, out=room, where=up)
    np.divide(-a, d, out=room, where=down)
    t = float(room.min())
    if curv > 0.0:
        t = min(t, -slope / curv)
    new = np.minimum(np.maximum(a + t * d, 0.0), upper)
    hit = room <= t
    new[hit & up] = upper
    new[hit & down] = 0.0
    return new, -(slope + 0.5 * curv * t) * t


def _free_set_step(bf: np.ndarray, gf: np.ndarray, a: np.ndarray,
                   upper: float) -> np.ndarray:
    """Descent steps on the free coordinates a (gradient gf, Hessian bf'bf).

    bf is the D x |F| factor B_F of the face Hessian, which is never formed.
    Two directions are tried and the one that lowers the objective more is
    taken; both come from the eigenpairs bf'bf = V diag(s^2) V' of the face,
    read off the smaller Gram matrix: ``eigh(bf'bf)`` when |F| <= D, else
    ``eigh(bf bf')`` = U diag(s^2) U' and V = bf'U diag(1/s). That costs
    O(min(D, |F|)^2 max(D, |F|)) for the Gram and O(min(D, |F|)^3) for the
    ``eigh``, a few times less than a thin SVD of bf. Eigenvalues
    s_i^2 <= eps |F| s_max^2 count as zero, the cut lstsq applies to bf'bf.
    The Newton direction p = -V diag(1/s^2) V'gf over the kept values is
    the min-norm least-squares solution of bf'bf p = -gf; along it
    gf'p = -|bf p|^2, so the line minimum is at t = 1 unless the box stops
    it first. The residual r = gf - V V'gf is the part of gf outside
    range(bf'bf); along -r the objective falls linearly (gf'r = r'r,
    bf r = 0), so when r is not zero the face is unbounded below and that
    step runs to the box. On a full-rank face (|F| <= D, no value cut) r
    is zero in exact arithmetic, so only the Newton step is taken. Each
    step is a line minimization along a descent direction, so the
    objective never rises.

    When the zero-curvature step wins, the coordinates it put on a bound
    leave the face and the step is repeated on the rest of it, with the
    gradient moved by bf'bf times the step. Stopping after one cut step
    lets the next coordinate pass lift those coordinates off the bound
    again, and the two can trade the same small move for thousands of
    passes.
    """
    eps = np.finfo(np.float64).eps
    out, face = a, None  # face: positions in out of the current face
    while True:
        d_rows, k = bf.shape
        lam, v = np.linalg.eigh(bf.T @ bf if k <= d_rows else bf @ bf.T)
        cut = lam > eps * k * lam[-1]
        lam, v = lam[cut], v[:, cut]
        if k > d_rows:
            v = (bf.T @ v) / np.sqrt(lam)
        c = v.T @ gf
        p = -(v @ (c / lam))
        # with every value kept and |F| <= D, V V' is the identity and r is
        # zero but for rounding: only the Newton step is tried
        dirs = (p,) if lam.size == k else (p, v @ c - gf)
        best, gain, newton = None, 0.0, False
        for i, d in enumerate(dirs):
            slope = float(gf @ d)
            if slope < 0.0:
                bd = bf @ d
                new, drop = _box_line_step(a, d, slope, float(bd @ bd), upper)
                if drop > gain:
                    best, gain, newton = new, drop, i == 0
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
        gf = (gf + bf.T @ (bf @ (best - a)))[kept]
        bf = bf[:, kept]
        a = best[kept]
        face = np.flatnonzero(kept) if face is None else face[kept]


def solve_box_qp(problem: QpProblem, tol: float = 1e-8, max_passes: int = 4000,
                 alpha0: np.ndarray | None = None) -> QpSolution:
    """Dual coordinate descent on u = B a with a subspace step on the free set.

    The solver works on the factor B of H = B'B and keeps u = B a, so H is
    never formed. Each pass visits, in index order, only the coordinates
    whose projected gradient is non-zero at the start of the pass (the KKT
    violators). A visit computes g_i = b_i'u + g_i, minimizes the quadratic
    exactly along that coordinate and clips to the box; a zero diagonal
    falls back to the linear rule (move to whichever box end decreases the
    objective). When a_i changes by d, u += d b_i.

    After the sweep u = B a is recomputed, so the gradient B'u + g and the
    residual that decides convergence are exact, free of the rounding the
    updates of u carry. If the solve has not converged and the free set
    F = {i : 0 < a_i < upper} is non-empty, the pass ends with one
    subspace minimization step on F, as in gradient projection for
    bound-constrained QPs (More & Toraldo, SIAM J. Optim. 1991): a
    least-squares Newton step on H_FF = B_F'B_F, or a zero-curvature step
    when grad_F leaves range(H_FF), both taken from the eigenpairs of the
    smaller Gram matrix of B_F, cut at the box and repeated on the part of
    F it leaves free (see ``_free_set_step``), after which u is recomputed
    again.
    Neither the coordinate visits nor this step raise the objective, so
    ``objective_trace`` is non-increasing. On the rank-D duals of small
    blocks, where coordinate descent alone crawls for thousands of passes,
    the step finishes the solve as soon as the active set settles.

    Terminates when the maximum projected gradient residual
    max_i |a_i - clip(a_i - grad_i)| drops to ``tol``, or warns after
    ``max_passes`` passes.

    Parameters
    ----------
    alpha0 : warm-start point (clipped into the box), zeros by default.
    """
    B, g, upper = problem.B, problem.g, problem.upper
    n = problem.n
    rows = np.ascontiguousarray(B.T)  # rows[i] is the column b_i of B
    diag = np.einsum("ij,ij->i", rows, rows)
    alpha = np.zeros(n) if alpha0 is None else np.clip(
        np.asarray(alpha0, dtype=np.float64).ravel(), 0.0, upper)
    if alpha.size != n:
        raise ValueError(f"warm start has {alpha.size} entries, need {n}")

    gs, hs = g.tolist(), diag.tolist()  # per-visit scalars as Python floats

    def exact():
        u = B @ alpha
        grad = rows @ u + g
        proj = np.minimum(np.maximum(alpha - grad, 0.0), upper)
        return u, grad, float(np.abs(alpha - proj).max())

    u, grad, residual = exact()
    objective = float(0.5 * (u @ u) + g @ alpha)
    trace = []
    converged = False
    passes = 0
    for passes in range(1, max_passes + 1):
        for i in np.flatnonzero(((grad < 0.0) & (alpha < upper))
                                | ((grad > 0.0) & (alpha > 0.0))).tolist():
            bi = rows[i]
            gi = float(bi @ u) + gs[i]
            hii = hs[i]
            ai = float(alpha[i])
            if hii > 0.0:
                new = ai - gi / hii
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
            delta = new - ai
            if delta != 0.0:
                alpha[i] = new
                u += delta * bi
        u, grad, residual = exact()
        if residual > tol:
            free = np.flatnonzero((alpha > 0.0) & (alpha < upper))
            if free.size:
                alpha[free] = _free_set_step(rows[free].T, grad[free],
                                             alpha[free], upper)
                u, grad, residual = exact()
        objective = float(0.5 * (u @ u) + g @ alpha)
        trace.append(objective)
        if residual <= tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"coordinate descent stopped at residual {residual:g} after "
            f"{passes} passes (tol {tol:g})",
            stacklevel=2,
        )
    alpha.setflags(write=False)
    return QpSolution(alpha, passes, residual, objective, converged,
                      tuple(trace))
