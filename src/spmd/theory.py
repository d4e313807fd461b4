"""Numerical checks of the norm, capacity, and descent guarantees.

Every checker is a pure function returning a BoundReport (or scalar); the
CLI check command runs the sweep drivers at their default sizes and
renders their reports. A report that does not hold is a failure: there is
no softer verdict.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import _split_per_class, synth_blobs
from .margins import _moments, signed_margins
from .tensor import DenseTensor, _integer, _real, tucker_reconstruct
from .trainer import TrainConfig, TrainReport, train

HOLDS_SLACK = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """One bound check: the bound, the observed value, and whether it held."""

    name: str
    bound_value: float
    empirical_value: float | None
    holds: bool
    inputs: dict = field(default_factory=dict)

    @classmethod
    def make(cls, name: str, bound_value: float, empirical_value: float | None,
             inputs: dict | None = None) -> "BoundReport":
        holds = True
        if empirical_value is not None:
            holds = bool(empirical_value <= bound_value + HOLDS_SLACK)
        return cls(name, float(bound_value),
                   None if empirical_value is None else float(empirical_value),
                   holds, dict(inputs or {}))


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value (a vector is treated as one row)."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    if a.size == 0:
        raise ValueError("empty matrix")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def tucker_norm_inequality(core: DenseTensor, factors) -> BoundReport:
    """||W||_F versus ||F||_F times the product of factor spectral norms."""
    w = tucker_reconstruct(core, list(factors))
    bound = core_norm = core.norm()
    for v in factors:
        bound *= spectral_norm(v)
    return BoundReport.make(
        "tucker_norm_inequality", bound, w.norm(),
        inputs={"core_norm": core_norm, "order": core.order})


def rademacher_bound(B: float, R: float, N: int) -> float:
    """Capacity bound B*R/sqrt(N) for norm-B weights on norm-R samples.

    B and R must be finite and positive, N an integer >= 1.
    """
    return (_real(B, "positive", "B") * _real(R, "positive", "R")
            / math.sqrt(_integer(N, 1, "N")))


def generalization_bound(empirical_margin_loss: float, B: float, R: float,
                         rho: float, delta: float, N: int,
                         holdout_loss: float | None = None) -> BoundReport:
    """Margin-loss generalization bound; optional held-out 0-1 loss to compare."""
    _real(rho, "positive", "rho")
    if not 0 < _real(delta, "real", "delta") < 1:
        raise ValueError("delta must lie in (0, 1)")
    bound = (empirical_margin_loss
             + 2.0 * rademacher_bound(B, R, N) / rho
             + 3.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * N)))
    return BoundReport.make(
        "generalization_bound", bound, holdout_loss,
        inputs={"B": B, "R": R, "rho": rho, "delta": delta, "N": N,
                "empirical_margin_loss": empirical_margin_loss})


def cantelli_margin_tail(gamma_m: float, gamma_v: float, rho: float) -> float:
    """One-sided tail bound on P(margin <= rho) from the first two moments;
    all three finite, gamma_v >= 0 and rho < gamma_m."""
    _real(gamma_m, "real", "gamma_m")
    _real(gamma_v, "nonnegative", "gamma_v")
    if _real(rho, "real", "rho") >= gamma_m:
        raise ValueError(
            f"bound needs rho < gamma_m, got rho={rho}, gamma_m={gamma_m}"
        )
    return gamma_v / (gamma_v + (gamma_m - rho) ** 2)


def cantelli_check(margins: np.ndarray, rho: float) -> BoundReport:
    """Empirical fraction of margins <= rho against the moment bound.

    Moments come from the same margin sample, whatever its size.
    """
    margins = np.asarray(margins, dtype=np.float64)
    gm, gv = _moments(margins)
    bound = cantelli_margin_tail(gm, gv, rho)
    frac = float(np.mean(margins <= rho))
    return BoundReport.make(
        "cantelli_margin_tail", bound, frac,
        inputs={"gamma_m": gm, "gamma_v": gv, "rho": rho, "N": margins.size})


def _worst_rise(objectives) -> float:
    """Largest step rise beyond the slack 1e-8*(1+|J|); 0.0 when none does."""
    objs = list(objectives)
    worst = 0.0
    for prev, cur in zip(objs, objs[1:]):
        worst = max(worst, cur - (prev + 1e-8 * (1.0 + abs(prev))))
    return worst


def descent_certificate(report: TrainReport) -> bool:
    """True iff the block-update objective sequence never rises beyond
    1e-8*(1+|J|) and the iterate norms stayed bounded."""
    if _worst_rise(report.objectives) > 0.0:
        return False
    norms = np.asarray(report.weight_norms, dtype=np.float64)
    return bool(norms.size > 0 and np.isfinite(norms).all())


# --- sweep drivers (consumed by the CLI check command) -------------------------


def lemma1_sweep(n_instances: int = 1000, seed: int = 0) -> list[BoundReport]:
    """Random Tucker instances (order <= 4, dims <= 6); the bound must always hold."""
    rng = np.random.default_rng(_integer(seed, 0, "seed"))
    out = []
    for _ in range(n_instances):
        order = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(order)]
        ranks = [int(rng.integers(1, d + 1)) for d in dims]
        factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        core = DenseTensor(tuple(ranks), rng.standard_normal(math.prod(ranks)))
        out.append(tucker_norm_inequality(core, factors))
    return out


def lemma2_check(seed: int = 0, n: int = 64, dim: int = 9,
                 draws: int = 400) -> BoundReport:
    """Monte-Carlo Rademacher average of the norm-ball class vs its bound.

    The exact average sup over ||W|| <= B of (1/N) sum s_i <W, Z_i> equals
    (B/N) E||sum s_i Z_i||; the Monte-Carlo mean is compared to the bound
    with a 3-sigma allowance folded into the reported bound inputs.
    """
    rng = np.random.default_rng(_integer(seed, 0, "seed"))
    b = 1.0
    z = rng.standard_normal((n, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)  # every sample norm = R = 1
    s = rng.choice([-1.0, 1.0], size=(draws, n))
    vals = b / n * np.linalg.norm(s @ z, axis=1)
    mc = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(draws))
    bound = rademacher_bound(b, 1.0, n)
    return BoundReport.make(
        "rademacher_bound", bound + 3.0 * stderr, mc,
        inputs={"B": b, "R": 1.0, "N": n, "draws": draws,
                "mc_stderr": stderr, "raw_bound": bound})


def _toy_data(n_per_class: int, seed: int):
    """The toy distribution: separated blobs on 4x4 samples."""
    return synth_blobs((4, 4), n_per_class, margin=1.5, noise=0.6, seed=seed)


def _toy_train(data, seed: int):
    """A rank-1 model of toy data: (model, report)."""
    return train(data, TrainConfig(kind="rank1", lam=5.0, seed=seed))


def theorem1_sweep(n_models: int = 20, seed: int = 0) -> list[BoundReport]:
    """Trained toy models: the margin bound must dominate held-out error."""
    out = []
    train_rows, test_rows = _split_per_class(2, 40, 20)
    for k in range(n_models):
        data = _toy_data(60, seed + 7 * k)
        train_set, test_set = data.subset(train_rows), data.subset(test_rows)
        model, _ = _toy_train(train_set, seed + k)
        w = model.reconstruct()
        m_train = signed_margins(w, train_set)
        rho = 0.5 * max(float(np.mean(m_train)), 1e-6)
        emp = float(np.mean(m_train <= rho))
        bnorm = w.norm()
        rnorm = float(np.max(np.linalg.norm(train_set.samples, axis=1)))
        m_test = signed_margins(w, test_set)
        holdout = float(np.mean(m_test <= 0.0))
        out.append(generalization_bound(emp, bnorm, rnorm, rho, 0.05,
                                        len(train_set), holdout_loss=holdout))
    return out


def cantelli_sweep(n_models: int = 50, seed: int = 0) -> list[BoundReport]:
    """Empirical margin tails of trained toy models (N = 100 each) against
    their moment bound."""
    out = []
    for k in range(n_models):
        data = _toy_data(50, seed + 13 * k)
        model, _ = _toy_train(data, seed + 13 * k)
        margins = signed_margins(model.reconstruct(), data)
        gm, _ = _moments(margins)
        if gm <= 0:
            warnings.warn(f"model {k}: nonpositive margin mean {gm:g}; skipped",
                          stacklevel=2)
            continue
        out.append(cantelli_check(margins, rho=0.5 * gm))
    return out


def theorem2_sweep(n_runs: int = 12, seed: int = 0) -> list[BoundReport]:
    """Descent certificates over seeded blob trainings, as pass/fail reports."""
    out = []
    for k in range(n_runs):
        kind = ("rank1", "cp", "tucker")[k % 3]
        ranks = {"rank1": [], "cp": [2], "tucker": [2, 2]}[kind]
        data = synth_blobs((5, 4), 30, margin=1.5, noise=0.7, seed=seed + 31 * k)
        model, report = train(data, TrainConfig(kind=kind, ranks=ranks,
                                                lam=2.0, seed=seed + k))
        # a failed certificate reads its worst rise, or inf if none (bad norms)
        empirical = None
        if not descent_certificate(report):
            empirical = _worst_rise(report.objectives) or math.inf
        out.append(BoundReport.make(
            f"descent_certificate[{kind}]", 0.0, empirical,
            inputs={"seed": seed + k, "iterations": report.iterations,
                    "converged": report.converged}))
    return out
