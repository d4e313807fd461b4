"""Alternating block training of low-rank tensor margin classifiers.

The weight tensor W is either a plain vector (order-1 data), a rank-1 /
rank-R CP tensor, or a Tucker tensor. Each factor block (and, for Tucker,
the core) is updated in turn by solving the box dual QP of qp.py in a
whitened coordinate system where the block objective is exactly the primal
objective restricted to that block:

    mode m:  P = coefficient of V_m in the mode-m unfolding, A = P P' = L L',
             v = vec(V_m L),  z_i = vec(U_i P' L^+')
    core:    v = vec(C),  z_i = vec(X_i x_1 V_1' ... x_M V_M')

L is the range root of the block metric, R x r for a metric of rank r;
only its left inverse L^+ (see psd_root) is formed. With a symmetric
full-rank root this is the usual A^{1/2} whitening. The core needs no
root: its metric, the Kronecker product of the factor Grams, is I in the
orthonormal gauge that :func:`train` keeps.

Both satisfy <W, Z_i> = v'z_i and ||W||_F^2 = v'v, so every block update
minimizes the full objective over that block. An update that does not
lower J (a tie, rounding, or a solve stopped at its pass cap) is not kept,
so the objective sequence is non-increasing exactly.
"""

from __future__ import annotations

import math
import struct
import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qp as qpmod
from .data import LabeledDataset, reshape_samples
from .margins import MarginSummary, summarize_scores
from .tensor import (DenseTensor, _dims, _integer, _real, cp_reconstruct,
                     khatri_rao, kron_chain, tucker_reconstruct, unfold, unvec)

KINDS = ("vector", "rank1", "cp", "tucker")

MODEL_MAGIC = b"SPMD"
MODEL_VERSION = 1

EIG_CLAMP_REL = 1e-14


class TrainingError(RuntimeError):
    """Training aborted on a numerical failure; message carries diagnostics."""


class MetricCollapseError(TrainingError):
    """A block metric collapsed to zero (named block is unrecoverable)."""


class Hyper(NamedTuple):
    mu1: float
    mu2: float
    lam: float


def psd_root(a: np.ndarray, context: str = "block") -> np.ndarray:
    """Left inverse L^+ = diag(1/sqrt(w_r)) U_r' (r x R) of A's range root.

    The eigenpairs kept are those of A at or above ``EIG_CLAMP_REL *
    trace(A)/R``, so ``L^+ A L^+' = I_r``, and the root ``L = U_r
    diag(sqrt(w_r))`` gives A but for the R - r dropped round-off
    directions. A block metric is singular only structurally (a mode whose
    rank exceeds the product of the other ranks); the N x N Gram of a wide
    block (see :func:`block_update`) is singular also when samples repeat.
    Either way the null directions do not move W, so a block whitened by
    L^+ reaches exactly the W the other blocks allow. The eigenbasis (not
    symmetric) factor keeps the whitening identities exact to machine
    precision even for ill-conditioned A.
    """
    a = 0.5 * (a + a.T)
    tr = float(np.trace(a))
    if not np.isfinite(a).all():
        raise MetricCollapseError(f"{context}: metric has non-finite entries")
    if tr <= 0.0:
        raise MetricCollapseError(
            f"{context}: metric trace {tr:g} is not positive; block collapsed"
        )
    w, u = np.linalg.eigh(a)
    clamped = int(np.sum(w < EIG_CLAMP_REL * tr / a.shape[0]))
    # eigh sorts ascending, so the dropped directions lead; slicing only when
    # one drops keeps u's layout, and with it the BLAS rounding, otherwise
    if clamped:
        w, u = w[clamped:], u[:, clamped:]
    return (u / np.sqrt(w)).T


@dataclass
class TrainConfig:
    """Hyperparameters and controls for :func:`train`.

    kind: "vector", "rank1", "cp", or "tucker".
    ranks: [] or [1] for vector/rank1 (rank1 also takes a 1 per mode), [R]
    for cp, one rank per mode for tucker, each at most its mode size (a
    mode whose rank equals its size is left to the core, see :func:`train`).
    lam is the hinge weight; mu1/mu2 weigh margin variance/mean. tol is the
    relative weight-change stopping threshold checked after each full sweep,
    of which there are at most max_outer. qp_tol is the KKT residual each
    block dual is solved to; the pass cap of those solves is
    :func:`spmd.qp.solve_box_qp`'s default. lam, tol and qp_tol must be
    finite and positive, mu1 and mu2 finite and nonnegative, max_outer an
    integer >= 1 and seed one >= 0 (no bools); :func:`check_config`, which
    :func:`train` runs first, rejects any other value by its field name.
    seed draws only what the HOSVD start (``_start_state``) cannot give.
    """

    kind: str = "rank1"
    ranks: list = field(default_factory=list)
    mu1: float = 1.0
    mu2: float = 1.0
    lam: float = 1.0
    tol: float = 1e-2
    max_outer: int = 50
    qp_tol: float = 1e-8
    seed: int = 0
    bias_feature: bool = False


@dataclass(frozen=True)
class WeightModel:
    """Trained weight tensor in factored form plus the settings that made it."""

    kind: str
    shape: tuple[int, ...]
    ranks: tuple[int, ...]
    factors: tuple
    core: DenseTensor | None
    hyper: Hyper
    bias_feature: bool = False

    def reconstruct(self) -> DenseTensor:
        """The full weight tensor W, the one :func:`decision_scores` scores with."""
        return _reconstruct(list(self.factors), self.core)

    @property
    def input_shape(self) -> tuple[int, ...]:
        """The sample shape the model was trained on: ``shape`` less any bias slab."""
        return (self.shape[0] - self.bias_feature,) + self.shape[1:]


@dataclass
class TrainReport:
    """Objective trace and diagnostics from one training run."""

    kind: str
    n_train: int
    seed: int
    converged: bool
    iterations: int
    objectives: list            # one entry per block update, "init" first
    block_labels: list
    weight_norms: list
    history: list               # per-sweep dicts: iteration, objective, gamma_m, gamma_v, rel_change
    final_objective: float
    gamma_m: float
    gamma_v: float
    qp_passes: int
    clamp_events: int
    cap_hits: int               # block solves that stopped at the pass cap
    wall_time: float


def _check_setting(name: str, value, label: str | None = None) -> None:
    """TrainConfig field ``name`` by its rule; the ValueError names ``label``
    (default: ``name``)."""
    label = label or name
    if name in ("max_outer", "seed"):
        _integer(value, int(name == "max_outer"), label)
    else:
        _real(value, "nonnegative" if name in ("mu1", "mu2") else "positive", label)


def _mode_ranks(kind: str, ranks, dims) -> tuple[int, ...]:
    """Per-mode factor column counts implied by kind and the ranks list.

    ``dims`` is the sample shape the model reads (see :func:`check_config`),
    ``ranks`` a list or tuple of integers >= 1. A Tucker rank above its mode
    size is rejected: the mode-m unfolding of W has rank at most I_m, so such
    a rank adds no reach. A CP rank may exceed a mode size.
    """
    order = len(dims)
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if not isinstance(ranks, (list, tuple)):
        raise ValueError(f"ranks must be a list or tuple, got {ranks!r}")
    ranks = [_integer(r, 1, f"ranks[{i}]") for i, r in enumerate(ranks)]
    if kind in ("vector", "rank1"):
        if kind != "rank1" and order != 1:
            raise ValueError("vector kind needs order-1 samples; reshape first")
        if ranks not in ([], [1], [1] * order):
            raise ValueError(f"{kind} kind takes no ranks (all modes have rank 1)")
        return (1,) * order
    if kind == "cp":
        if len(ranks) != 1:
            raise ValueError(f"cp kind takes a single shared rank, got {ranks}")
        return (ranks[0],) * order
    if len(ranks) != order:
        raise ValueError(
            f"tucker kind needs one rank per mode ({order}), got {len(ranks)}"
        )
    for mode, (i, r) in enumerate(zip(dims, ranks), start=1):
        if r > i:
            raise ValueError(f"tucker rank {r} of mode {mode} exceeds its size {i}")
    return tuple(ranks)


def check_config(cfg: TrainConfig, dims) -> tuple[int, ...]:
    """The per-mode ranks of ``cfg`` for samples of shape ``dims``, or a ValueError.

    Each setting is checked first, by its field name, then the ranks by
    :func:`_mode_ranks` on the shape training reads: the flat row for the
    vector kind, and mode 1 one entry longer with the bias slab.
    """
    for name in ("mu1", "mu2", "lam", "tol", "qp_tol", "max_outer", "seed"):
        _check_setting(name, getattr(cfg, name))
    dims = (math.prod(dims),) if cfg.kind == "vector" else dims
    dims = _biased_dims(dims) if cfg.bias_feature else dims
    return _mode_ranks(cfg.kind, cfg.ranks, dims)


def _with_ones_slab(samples: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Flat rows of the samples with a constant-1 slab appended along mode 1.

    A flat column-major row is P/I1 runs of I1 mode-1 entries, so the slab
    is one more entry after each run: one (N, P/I1, I1+1) array.
    """
    n, p = samples.shape
    out = np.empty((n, p // dims[0], dims[0] + 1))
    out[:, :, :-1] = samples.reshape(out.shape[:2] + (dims[0],))
    out[:, :, -1] = 1.0
    return out.reshape(n, out.shape[1] * out.shape[2])


def _biased_dims(dims) -> tuple[int, ...]:
    """The sample shape after :func:`apply_bias`: mode 1 one entry longer."""
    return (dims[0] + 1,) + tuple(dims[1:])


def apply_bias(data: LabeledDataset) -> LabeledDataset:
    """Append a constant-1 slab along mode 1, absorbing a bias into the weight."""
    return LabeledDataset(_with_ones_slab(data.samples, data.dims),
                          _biased_dims(data.dims), data.labels)


def _mode_coefficient(factors, core, mode: int) -> np.ndarray:
    """P with rows R_m such that unfold(W, mode) = V_mode @ P.

    Tucker when ``core`` is given, CP (rank-1 included) when it is None.
    """
    order = len(factors)
    others = [factors[k] for k in range(order - 1, -1, -1) if k != mode - 1]
    if core is not None:
        return unfold(core, mode) @ kron_chain(others).T
    r = factors[0].shape[1]
    return khatri_rao(others, empty_cols=r).T


def _mode_contract(samples: np.ndarray, dims: tuple[int, ...], mode: int,
                   c: np.ndarray) -> np.ndarray:
    """(N, R, I_m) stack of (unfold(X_i, mode) @ c)' for flat column-major rows.

    Viewed C-order, a flat row is an (P_>m, I_m, P_<m) array (P_<m and P_>m
    are the products of the mode sizes below and above ``mode``), and the
    rows of c follow the unfolding's columns, lower modes fastest, so c is
    a (P_>m, P_<m, R) array. The contraction reads the samples in place and
    copies none of them: the lowest mode is one stacked product over the
    samples, the highest one 2-D product of the (N I_M, P_<M) row view with
    c, and any other mode sums one stacked product per index above it.
    """
    n = samples.shape[0]
    lo = int(np.prod(dims[:mode - 1]))
    hi = int(np.prod(dims[mode:]))
    x = samples.reshape(n, hi, dims[mode - 1], lo)
    cr = c.reshape(hi, lo, c.shape[1])
    if lo == 1:
        return cr[:, 0].T @ x[..., 0]
    if hi == 1:
        out = (samples.reshape(-1, lo) @ c).reshape(n, dims[mode - 1], -1)
        return out.transpose(0, 2, 1)
    out = x[:, 0] @ cr[0]
    for h in range(1, hi):
        out += x[:, h] @ cr[h]
    return out.transpose(0, 2, 1)


def _core_design(samples: np.ndarray, dims: tuple[int, ...], factors) -> np.ndarray:
    """N x prod(R) rows vec(X_i x_1 V_1' ... x_M V_M'), lowest mode fastest.

    Mode M contracts with kron(V_{M-1}, ..., V_1) by :func:`_mode_contract`,
    then with V_M, so no array as large as the samples is built.
    """
    lower = kron_chain(list(reversed(factors[:-1])))
    t = _mode_contract(samples, dims, len(dims), lower)
    return (factors[-1].T @ t.transpose(0, 2, 1)).reshape(samples.shape[0], -1)


def core_features(data: LabeledDataset, factors) -> np.ndarray:
    """prod(R) x N core features vec(X_i x_1 V_1' ... x_M V_M').

    The core metric is the Kronecker product of the factor Grams V_m'V_m
    (Kolda & Bader, SIAM Review 2009), I for the orthonormal factors
    :func:`train` keeps, so the features need no whitening.
    """
    return _core_design(data.samples, data.dims, factors).T


def block_features(data: LabeledDataset, factors, core, block: int):
    """Whitened D x N features of one block and its inverse root L^+.

    ``block`` is a mode 1..M, or 0 for the Tucker core (``core`` is None for
    CP and rank-1 weights). A mode solution v maps back as ``V_m =
    unvec(v) @ L^+`` (unvec to L^+'s r rows). The core's root is None: its
    v is vec(C), with <W, Z_i> = v'z_i for any factors and ||W||^2 = v'v
    for orthonormal ones. The identity block (order-1 data, one column, no
    core) has the raw samples, a view, as features and a 1 x 1 identity
    root. No block copies the N x P samples, only its D x N features.
    """
    if block == 0:
        return core_features(data, factors), None
    if core is None and len(data.dims) == 1 and factors[0].shape[1] == 1:
        return data.samples.T, np.eye(1)
    p = _mode_coefficient(factors, core, block)
    root = psd_root(p @ p.T, context=f"mode {block} metric")
    feats = _mode_contract(data.samples, data.dims, block, p.T @ root.T)
    return feats.reshape(len(data), -1).T, root


def block_update(features: np.ndarray, labels: np.ndarray, hyper: Hyper,
                 qp_tol: float = 1e-8, warm_alpha: np.ndarray | None = None):
    """Solve one whitened block: returns (v, QpSolution).

    With D > N the block is solved on its features' range, by the root rule
    of every block metric: the objective reads v only through v'v and
    v'z_i, so with G = Z'Z, its range root's left inverse L^+ (r x N, see
    :func:`psd_root`) and v = Z L^+' v_F, it is the same block on the r x N
    features F = L^+ G, for F'F = G. That takes O(N^2 D) time and no new
    D x N array, instead of O(D^3) time and O(D^2) memory. A rank-deficient
    G (repeated samples) drops directions like any metric, and they are not
    counted in ``clamp_events``; an all-zero block raises
    MetricCollapseError.
    """
    z, root = features, None
    if z.shape[0] > z.shape[1]:
        gram = z.T @ z
        root = psd_root(gram, context="wide block Gram")
        features = root @ gram
    problem, recover, _ = qpmod.assemble_dual(
        features, labels, hyper.mu1, hyper.mu2, hyper.lam)
    sol = qpmod.solve_box_qp(problem, tol=qp_tol, alpha0=warm_alpha)
    v = recover(sol.alpha)
    return (v if root is None else z @ (root.T @ v)), sol


def _objective(sq_norm: float, scores: np.ndarray, labels: np.ndarray,
               hyper: Hyper) -> tuple[float, MarginSummary]:
    """J and the margin summary from ||W||^2 and the raw scores <W, Z_i>."""
    summ = summarize_scores(scores, labels)
    hinge = np.maximum(0.0, 1.0 - summ.margins).sum()
    j = float(0.5 * sq_norm
              + hyper.mu1 * summ.variance
              - hyper.mu2 * summ.mean
              + hyper.lam / labels.size * hinge)
    return j, summ


def _scored_objective(weight: DenseTensor, data: LabeledDataset,
                      hyper: Hyper) -> tuple[float, MarginSummary]:
    """J(W) and the margin summary, from one product of the samples with W."""
    return _objective(float(weight.data @ weight.data),
                      data.samples @ weight.data, data.labels, hyper)


def primal_objective(weight: DenseTensor, data: LabeledDataset,
                     hyper: Hyper) -> float:
    """J(W) = 0.5||W||^2 + mu1 var - mu2 mean + (lam/N) sum hinge."""
    return _scored_objective(weight, data, hyper)[0]


def _class_mean_difference(data: LabeledDataset) -> np.ndarray:
    """Flat M = mean(X | +1) - mean(X | -1), one product with the samples.

    The weights are t_i / N_{t_i}, so no class's rows are copied out.
    """
    pos = data.labels > 0
    n_pos = np.count_nonzero(pos)
    w = np.where(pos, 1.0 / n_pos, -1.0 / (pos.size - n_pos))
    return w @ data.samples


def _start_state(data: LabeledDataset, mode_ranks, kind, rng):
    """Initial factors and core: the truncated HOSVD of the class-mean difference.

    Factor V_m holds the leading R_m left singular vectors of unfold(M, m)
    (De Lathauwer, De Moor & Vandewalle, SIAM J. Matrix Anal. Appl. 2000;
    the "nvecs" start of CP-ALS in Kolda & Bader, SIAM Review 2009); when
    R_m exceeds the unfolding's column count, the full SVD completes the
    basis. The Tucker core is M x_1 V_1' ... x_M V_M' scaled to unit norm;
    each CP term is signed so that <term, M> >= 0, so the vector kind
    starts at M/||M||. With orthonormal factors ||W0|| is 1 for rank-1 and
    Tucker and sqrt(R) for CP.

    ``rng`` draws only what M cannot give, in this order: the unit columns
    of each over-rank mode (R_m > I_m, which only CP allows), then a core
    when the projected core is zero (equal class means).
    """
    dims = data.dims
    m = _class_mean_difference(data)
    diff = DenseTensor(dims, m)
    factors = []
    for mode, (i, r) in enumerate(zip(dims, mode_ranks), start=1):
        if r > i:
            g = rng.standard_normal((i, r))
            factors.append(g / np.linalg.norm(g, axis=0))
            continue
        a = unfold(diff, mode)
        factors.append(np.linalg.svd(a, full_matrices=r > a.shape[1])[0][:, :r])
    if kind != "tucker":
        signs = khatri_rao(factors[::-1]).T @ m
        factors[0] = factors[0] * np.where(signs < 0.0, -1.0, 1.0)
        return factors, None
    core = _core_design(m[None], dims, factors)[0]
    norm = float(np.linalg.norm(core))
    if norm == 0.0:
        core = rng.standard_normal(core.size)
        norm = float(np.linalg.norm(core))
    return factors, DenseTensor(mode_ranks, core / norm)


def _reconstruct(factors, core) -> DenseTensor:
    if core is None:
        return cp_reconstruct(factors)
    return tucker_reconstruct(core, factors)


def train(data: LabeledDataset, cfg: TrainConfig):
    """Alternating block optimization; returns (WeightModel, TrainReport).

    :func:`check_config` runs first. The vector kind trains on the flat
    rows of the samples, and a bias slab goes on last. Training starts
    from the truncated HOSVD of the class-mean difference (``_start_state``).
    Blocks sweep modes 1..M (plus the Tucker core, last) each outer
    iteration, except a Tucker mode whose rank equals its size: that factor
    is square and invertible, so C x_m V_m is just another core and the
    core block reaches every W the mode block could. Such a factor keeps
    its orthogonal start. A Tucker rank above its mode size is rejected.
    Every Tucker factor stays orthonormal, the gauge HOOI keeps (De
    Lathauwer, De Moor & Vandewalle, SIAM J. Matrix Anal. Appl. 2000): an
    accepted mode update replaces V_m by the Q of its thin QR and folds R
    into the core (C <- C x_m R), which leaves W as it was.
    A block update is kept only if J falls, so the objective trace never
    rises and the iterate returned is the best one seen; a tie keeps the
    old block, so a flat J (a zero optimal W, say) ends the run at once.
    The dual variables are per-sample hinge multipliers, shared by every
    block, so each block's first solve warm-starts from the most recently
    solved alpha; the very first solve starts from the hinge rule at the
    initial weight, alpha_i = lam/N where t_i <W0, X_i> < 1 and 0
    elsewhere. Later visits to a block start from its own previous alpha.
    Every block dual is solved to cfg.qp_tol within solve_box_qp's default
    pass cap; a solve that stops at the cap warns and counts in
    ``report.cap_hits``.
    Each block update is scored in its own coordinates: by the whitening
    identities the scores are feats'v (D x N, from the features the solve
    already holds) and ||W||^2 = v'v, which give J, the margin moments and
    ``weight_norms`` with no product of the N x P samples. W itself is
    rebuilt once at the start and once after each sweep, for the relative
    weight change. Stops when the relative weight change after a sweep
    drops to cfg.tol and none of that sweep's block solves stopped at the
    pass cap, or after cfg.max_outer sweeps (with a warning).
    """
    t0 = time.perf_counter()
    mode_ranks = check_config(cfg, data.dims)
    if np.unique(data.labels).size < 2:
        raise ValueError("training needs at least one sample of each class")
    if cfg.kind == "vector" and len(data.dims) > 1:
        data = reshape_samples(data, [math.prod(data.dims)])
    if cfg.bias_feature:
        data = apply_bias(data)
    dims = data.dims
    for i, r in zip(dims, mode_ranks):
        if r > i:
            warnings.warn(f"rank {r} exceeds mode size {i}", stacklevel=2)
    hyper = Hyper(float(cfg.mu1), float(cfg.mu2), float(cfg.lam))

    factors, core = _start_state(data, mode_ranks, cfg.kind,
                                 np.random.default_rng(cfg.seed))
    n = len(data)

    # a square Tucker mode is left to the core (see above)
    tucker = cfg.kind == "tucker"
    blocks = [m for m, (i, r) in enumerate(zip(dims, mode_ranks), start=1)
              if not tucker or r < i] + ([0] if tucker else [])
    warm = [None] * len(blocks)

    w = _reconstruct(factors, core)
    j, summ = _scored_objective(w, data, hyper)
    latest = np.where(summ.margins < 1.0, hyper.lam / n, 0.0)
    objectives = [j]
    block_labels = ["init"]
    weight_norms = [w.norm()]
    history = []
    qp_passes = clamp_events = cap_hits = 0
    converged = False
    outer = 0

    for outer in range(1, cfg.max_outer + 1):
        sweep_caps = 0
        for i, b in enumerate(blocks):
            feats, root = block_features(data, factors, core, b)
            v, sol = block_update(
                feats, data.labels, hyper, cfg.qp_tol,
                warm_alpha=latest if warm[i] is None else warm[i])
            label = "core" if b == 0 else f"mode{b}"
            if root is not None:
                clamp_events += root.shape[1] - root.shape[0]
            warm[i] = latest = sol.alpha
            qp_passes += sol.iterations
            sweep_caps += not sol.converged

            # the whitening identities: <W, Z_i> = v'z_i and ||W||^2 = v'v
            sq_norm = float(v @ v)
            j_new, summ_new = _objective(sq_norm, feats.T @ v, data.labels, hyper)
            if not np.isfinite(j_new):
                raise TrainingError(
                    f"objective became non-finite after {label} update "
                    f"(outer {outer}); last finite value {j:.6g}"
                )
            if j_new < j:  # a block that does not lower J is not kept
                j, summ = j_new, summ_new
                if b == 0:
                    core = DenseTensor(mode_ranks, v)
                else:
                    factors[b - 1] = unvec(v, (dims[b - 1], root.shape[0])) @ root
                    if tucker:  # the gauge: V_m = QR, C <- C x_m R
                        factors[b - 1], r = np.linalg.qr(factors[b - 1])
                        core = DenseTensor(mode_ranks, np.moveaxis(
                            np.tensordot(r, core.to_array(), (1, b - 1)), 0, b - 1))
                weight_norms.append(float(np.sqrt(sq_norm)))
            else:
                weight_norms.append(weight_norms[-1])
            objectives.append(j)
            block_labels.append(label)

        w_prev, w = w, _reconstruct(factors, core)
        denom = w_prev.norm()
        diff = float(np.linalg.norm(w.data - w_prev.data))
        rel = diff / denom if denom > 0 else (0.0 if diff == 0.0 else np.inf)
        history.append({
            "iteration": outer,
            "objective": j,
            "gamma_m": summ.mean,
            "gamma_v": summ.variance,
            "rel_change": rel,
        })
        cap_hits += sweep_caps
        # a sweep whose block solves stopped at the pass cap may have changed
        # W little only because its duals were not solved
        if rel <= cfg.tol and sweep_caps == 0:
            converged = True
            break

    if not converged:
        warnings.warn(
            f"no convergence in {cfg.max_outer} sweeps "
            f"(last relative change {history[-1]['rel_change']:.3g}); "
            "returning the last iterate",
            stacklevel=2,
        )

    model = WeightModel(kind=cfg.kind, shape=dims, ranks=mode_ranks,
                        factors=tuple(factors), core=core, hyper=hyper,
                        bias_feature=cfg.bias_feature)
    report = TrainReport(
        kind=cfg.kind, n_train=n, seed=cfg.seed, converged=converged,
        iterations=outer, objectives=objectives, block_labels=block_labels,
        weight_norms=weight_norms, history=history, final_objective=j,
        gamma_m=summ.mean, gamma_v=summ.variance, qp_passes=qp_passes,
        clamp_events=clamp_events, cap_hits=cap_hits,
        wall_time=time.perf_counter() - t0)
    return model, report


# --- prediction ---------------------------------------------------------------


def decision_scores(model: WeightModel, samples: np.ndarray,
                    dims: tuple[int, ...]) -> np.ndarray:
    """<W, Z_i> for flat-row samples of ``model.input_shape``: one product with W.

    An order-1 model reads every sample as its flat row, whatever ``dims``.
    A bias model appends the constant-1 slab that :func:`apply_bias`
    appends in training; any other shape is a ValueError.
    """
    dims = (math.prod(dims),) if len(model.shape) == 1 and dims else tuple(dims)
    if dims != model.input_shape:
        raise ValueError(
            f"sample dims {dims}: the sample shape does not match model shape "
            f"{model.input_shape}")
    if model.bias_feature:
        samples = _with_ones_slab(samples, dims)
    return samples @ model.reconstruct().data


def predict(model: WeightModel, samples: np.ndarray,
            dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) for flat-row samples; a score >= 0 maps to +1.

    Labels are +-1.0 floats like dataset labels. ``samples`` and ``dims``
    follow :func:`decision_scores`.
    """
    scores = decision_scores(model, samples, dims)
    return np.where(scores >= 0.0, 1.0, -1.0), scores


# --- model files ----------------------------------------------------------------
#
# Layout (little-endian): magic "SPMD", u32 version, u8 kind tag, u8 bias flag,
# u8 order M, M x u32 dims, M x u32 ranks, 3 x f64 hyper (mu1, mu2, lam),
# then each factor's I_m x R_m float64 buffer column-major, then (tucker only)
# the core's flat buffer.


def save_model(path: str, model: WeightModel) -> None:
    """Write the model file; loading reproduces every float bit-exactly."""
    m = len(model.shape)
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<IBBB", MODEL_VERSION, KINDS.index(model.kind),
                            int(model.bias_feature), m))
        f.write(struct.pack(f"<{m}I", *model.shape))
        f.write(struct.pack(f"<{m}I", *model.ranks))
        f.write(struct.pack("<3d", *model.hyper))
        for v in model.factors:
            f.write(np.asarray(v, dtype="<f8").ravel(order="F").tobytes())
        if model.kind == "tucker":
            f.write(model.core.data.astype("<f8").tobytes())


def load_model(path: str) -> WeightModel:
    """Read a model file written by :func:`save_model`.

    A header that breaks the rules :func:`train` builds by (dims, also of
    the input shape, the kind's ranks, the hyperparameters) or a non-finite
    factor or core value raises ValueError.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic {blob[:4]!r})")
    off = 4

    def take(size):
        nonlocal off
        off += size
        if off > len(blob):
            raise ValueError(f"{path}: truncated model file")
        return blob[off - size:off]

    def floats(count):
        return np.frombuffer(take(8 * count), dtype="<f8").copy()

    version, tag, bias, m = struct.unpack("<IBBB", take(7))
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    if tag >= len(KINDS):
        raise ValueError(f"{path}: unknown kind tag {tag}")
    if bias > 1:
        raise ValueError(f"{path}: bias flag {bias} is not 0 or 1")
    kind = KINDS[tag]
    shape = struct.unpack(f"<{m}I", take(4 * m))
    ranks = struct.unpack(f"<{m}I", take(4 * m))
    hyper = Hyper(*struct.unpack("<3d", take(24)))
    try:
        shape = _dims(shape)
        _dims((shape[0] - bool(bias),) + shape[1:], "input shape")
        if _mode_ranks(kind, ranks[:1] if kind == "cp" else ranks, shape) != ranks:
            raise ValueError(f"ranks {list(ranks)} do not fit a {kind} model")
        for name, value in hyper._asdict().items():
            _check_setting(name, value)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    factors = [unvec(floats(i * r), (i, r)) for i, r in zip(shape, ranks)]
    core = DenseTensor(ranks, floats(math.prod(ranks))) if kind == "tucker" else None
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} trailing bytes")
    if not all(np.isfinite(v).all()
               for v in factors + ([] if core is None else [core.data])):
        raise ValueError(f"{path}: non-finite factor or core value")
    return WeightModel(kind=kind, shape=shape, ranks=ranks,
                       factors=tuple(factors), core=core, hyper=hyper,
                       bias_feature=bool(bias))
