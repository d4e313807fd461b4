"""Independent reference solvers used by the test suite.

These share no code with the production solvers: the box QP reference is a
coarse grid search polished by projected gradient, the block-dual reference
builds the dual in sample space with a dense N x N inverse, and the
hinge-loss reference is averaged subgradient descent finished by an exact
active-set polish whose KKT conditions are verified before the result is
trusted. ``vec`` and ``inner`` are the textbook column-stacking and
elementwise Frobenius definitions, used as references for the factored
inner products. ``svd_free_set_step`` is the box-QP solver's free-set step
taken from the thin SVD of the face factor, the reference for the solver's
Gram-eigenvalue form of the same step.
"""

import itertools

import numpy as np


def vec(mat):
    """Stack the columns of a matrix into a vector."""
    return np.asarray(mat, dtype=np.float64).ravel(order="F")


def inner(a, b):
    """Frobenius inner product of two DenseTensors, entry by entry."""
    assert a.dims == b.dims, (a.dims, b.dims)
    return float(np.sum(a.to_array() * b.to_array()))


def box_qp_reference(H, g, upper, grid_points=9, pg_tol=1e-12,
                     max_iters=400000):
    """Global optimum of min 0.5 a'Ha + g'a over [0, upper]^N.

    Coarse grid over the box picks the basin; projected gradient with a
    1/L step polishes to pg_tol on the projected-gradient residual.
    Returns (alpha, objective).
    """
    H = np.asarray(H, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    n = g.size

    def obj(a):
        return 0.5 * a @ (H @ a) + g @ a

    axes = [np.linspace(0.0, upper, grid_points)] * n
    best, best_val = None, np.inf
    for point in itertools.product(*axes):
        a = np.array(point)
        v = obj(a)
        if v < best_val:
            best, best_val = a, v

    eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
    lip = max(float(eigs.max()), 1e-12)
    a = best.copy()
    for _ in range(max_iters):
        grad = H @ a + g
        new = np.clip(a - grad / lip, 0.0, upper)
        if np.abs(new - a).max() <= pg_tol:
            a = new
            break
        a = new
    return a, float(obj(a))


def variance_curvature(labels, mu1):
    """Q = (2*mu1/N^2) (N I - t t'), the margin-variance curvature in the dual."""
    t = np.asarray(labels, dtype=np.float64).ravel()
    n = t.size
    return (2.0 * mu1 / n**2) * (n * np.eye(n) - np.outer(t, t))


def sample_space_dual(features, labels, mu1, mu2):
    """Block dual in sample space by a dense inverse: (H, g, recover).

    With G = Z'Z, Q the variance curvature and T = diag(t):
    H = T G (I + QG)^{-1} T, g = (mu2/N) H e - e, and
    recover(alpha) = Z (I + QG)^{-1} T ((mu2/N) e + alpha).
    """
    Z = np.asarray(features, dtype=np.float64)
    t = np.asarray(labels, dtype=np.float64).ravel()
    n = t.size
    G = Z.T @ Z
    inv = np.linalg.inv(np.eye(n) + variance_curvature(t, mu1) @ G)
    T = np.diag(t)
    H = T @ G @ inv @ T
    e = np.ones(n)
    g = (mu2 / n) * (H @ e) - e

    def recover(alpha):
        return Z @ (inv @ (T @ ((mu2 / n) * e + np.asarray(alpha, dtype=np.float64))))

    return H, g, recover


def hinge_objective(w, samples, labels, lam):
    """0.5 ||w||^2 + (lam/N) sum max(0, 1 - t_i x_i'w)."""
    m = labels * (samples @ w)
    n = labels.size
    return float(0.5 * w @ w + lam / n * np.maximum(0.0, 1.0 - m).sum())


def _kkt_verified(w, coef, samples, labels, lam, tol=1e-8):
    """Check full KKT for the hinge problem at (w, per-sample coefficients)."""
    n = labels.size
    cap = lam / n
    if np.any(coef < -tol) or np.any(coef > cap + tol):
        return False
    if np.linalg.norm(w - (labels * coef) @ samples) > tol * (1 + np.linalg.norm(w)):
        return False
    m = labels * (samples @ w)
    lower = coef <= tol
    upper = coef >= cap - tol
    interior = ~lower & ~upper
    if np.any(m[lower] < 1.0 - 1e-7):
        return False
    if np.any(m[upper] > 1.0 + 1e-7):
        return False
    if np.any(np.abs(m[interior] - 1.0) > 1e-7):
        return False
    return True


def max_margin_reference(samples, labels, lam, seed=0):
    """Exact minimizer of the L1-hinge objective (no bias), verified by KKT.

    Phase 1 runs averaged subgradient descent with the strongly-convex step
    schedule to locate the active set; phase 2 solves the active-set
    equality system exactly and verifies KKT. Band assignments around the
    margin are enumerated if the first guess fails verification.

    Returns (w, objective). Raises RuntimeError if no verified assignment
    is found (never observed at the N <= 20 scales this is used for).
    """
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n, d = samples.shape
    cap = lam / n
    tx = labels[:, None] * samples

    w = np.zeros(d)
    avg = np.zeros(d)
    for k in range(1, 40001):
        m = labels * (samples @ w)
        sub = w - cap * tx[m < 1.0].sum(axis=0)
        w = w - (2.0 / (k + 1)) * sub
        avg += (w - avg) / k
    m = labels * (samples @ avg)

    def attempt(assign):
        # assign: per-sample 0 = satisfied, 1 = at margin, 2 = violated
        coef = np.where(assign == 2, cap, 0.0)
        active = np.flatnonzero(assign == 1)
        base = (labels * coef) @ samples
        if active.size:
            K = tx[active] @ tx[active].T
            rhs = 1.0 - tx[active] @ base
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            coef[active] = sol
        w_hat = (labels * coef) @ samples
        if _kkt_verified(w_hat, coef, samples, labels, lam):
            return w_hat
        return None

    band = 10.0 ** -np.arange(3, 1, -1)
    for tau in band:
        guess = np.where(m < 1.0 - tau, 2, np.where(m > 1.0 + tau, 0, 1))
        w_hat = attempt(guess)
        if w_hat is not None:
            return w_hat, hinge_objective(w_hat, samples, labels, lam)
        # enumerate alternative states for the ambiguous samples
        fuzzy = np.flatnonzero(np.abs(m - 1.0) <= 10 * tau)
        if fuzzy.size > 6:
            continue
        for states in itertools.product((0, 1, 2), repeat=fuzzy.size):
            trial = guess.copy()
            trial[fuzzy] = states
            w_hat = attempt(trial)
            if w_hat is not None:
                return w_hat, hinge_objective(w_hat, samples, labels, lam)
    raise RuntimeError("no KKT-verified active set found")


def _box_line_step(a, d, slope, curv, upper):
    """Minimize slope*t + curv*t^2/2 over t >= 0 with a + t d in [0, upper]."""
    with np.errstate(divide="ignore"):
        room = np.where(d > 0.0, (upper - a) / d, np.where(d < 0.0, -a / d, np.inf))
    t = float(room.min())
    if curv > 0.0:
        t = min(t, -slope / curv)
    new = np.clip(a + t * d, 0.0, upper)
    hit = room <= t
    new[hit] = np.where(d[hit] > 0.0, upper, 0.0)
    return new, -(slope + 0.5 * curv * t) * t


def svd_free_set_step(bf, gf, a, upper):
    """The free-set step of the box-QP solver, from the thin SVD of bf.

    bf is the D x |F| factor of the face Hessian bf'bf and gf the gradient
    at the free coordinates a. With bf = U diag(s) V' and the values
    s_i^2 <= eps |F| s_max^2 cut, it tries the Newton direction
    -V diag(1/s^2) V'gf and (unless every value is kept and |F| <= D) the
    zero-curvature direction V V'gf - gf, takes the one whose box-cut line
    minimum lowers the objective more, and repeats a cut zero-curvature
    step on the coordinates it left free.
    """
    out, face = a, None
    while True:
        v, s, _ = np.linalg.svd(bf.T, full_matrices=False)
        cut = s**2 > np.finfo(np.float64).eps * gf.size * s[0] ** 2
        s, v = s[cut], v[:, cut]
        c = v.T @ gf
        p = -(v @ (c / s**2))
        dirs = (p,) if s.size == gf.size else (p, v @ c - gf)
        best, gain, newton = None, 0.0, False
        for k, d in enumerate(dirs):
            slope = float(gf @ d)
            if slope < 0.0:
                bd = bf @ d
                new, drop = _box_line_step(a, d, slope, float(bd @ bd), upper)
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
        gf = (gf + bf.T @ (bf @ (best - a)))[kept]
        bf = bf[:, kept]
        a = best[kept]
        face = np.flatnonzero(kept) if face is None else face[kept]
