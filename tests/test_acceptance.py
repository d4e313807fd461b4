"""Acceptance suite: the nine package-level guarantees, one test each.

Each test measures the guarantee at its stated tolerance and emits one
``criterion N: PASS/FAIL`` line (collected into the terminal summary by
conftest). Tolerances and budgets are asserted exactly as stated — a failing
guarantee must fail here, not be absorbed by slack.

Reference solvers live in ``oracles.py`` and share no code with the
production paths they check.
"""

import json
import time

import numpy as np
import pytest

from conftest import criterion_lines
from oracles import (box_qp_reference, hinge_objective, max_margin_reference,
                     metric_root, vec)

from spmd.cli import main
from spmd.data import (LabeledDataset, find_mnist, load_idx, reshape_samples,
                       select_binary, select_multiclass, synth_blobs)
from spmd.multiclass import ovo_train, pairwise_accuracy
from spmd.qp import assemble_dual, solve_box_qp
from spmd.tensor import DenseTensor
from spmd.theory import cantelli_sweep, lemma1_sweep
from spmd.trainer import (TrainConfig, _reconstruct, block_features,
                          decision_scores, train)


def finish(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    criterion_lines.append(line)
    print(line)
    assert ok, line


def record_skip(num: int, detail: str) -> None:
    line = f"criterion {num}: SKIP — {detail}"
    criterion_lines.append(line)
    print(line)
    pytest.skip(detail)


def test_criterion_1_reparameterization_identities():
    """Factored inner products and norms match the full tensor for every
    mode and the core: 200 seeded random configurations in under 10 s."""
    rng = np.random.default_rng(20240817)
    worst_inner = 0.0
    worst_norm = 0.0
    t0 = time.perf_counter()
    for trial in range(200):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 7, size=order))
        kind = ("rank1", "cp", "tucker")[trial % 3]
        if kind == "tucker":
            ranks = tuple(min(int(r), d) for r, d in
                          zip(rng.integers(1, 4, size=order), dims))
        elif kind == "cp":
            ranks = (int(rng.integers(1, 4)),) * order
        else:
            ranks = (1,) * order
        factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        core = None
        if kind == "tucker":
            # the orthonormal factors train keeps, so the core needs no root
            factors = [np.linalg.qr(v)[0] for v in factors]
            core = DenseTensor(ranks, rng.standard_normal(int(np.prod(ranks))))
        w = _reconstruct(factors, core)
        n = int(rng.integers(2, 7))
        samples = rng.standard_normal((n, int(np.prod(dims))))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        data = LabeledDataset(samples, dims, labels)
        exact_ip = samples @ w.data
        exact_nrm = float(w.data @ w.data)

        blocks = []
        for mode in range(1, order + 1):
            feats, root = block_features(data, factors, core, mode)
            blocks.append((feats, vec(factors[mode - 1] @ metric_root(root))))
        if kind == "tucker":
            blocks.append((block_features(data, factors, core, 0)[0], core.data))

        for feats, v in blocks:
            ips = feats.T @ v
            rel = np.abs(ips - exact_ip) / (1.0 + np.abs(exact_ip))
            worst_inner = max(worst_inner, float(rel.max()))
            nrm_rel = abs(float(v @ v) - exact_nrm) / (1.0 + exact_nrm)
            worst_norm = max(worst_norm, nrm_rel)
    elapsed = time.perf_counter() - t0
    ok = worst_inner <= 1e-10 and worst_norm <= 1e-10 and elapsed < 10.0
    finish(1, ok, f"200 configs, worst inner rel {worst_inner:.3e}, "
                  f"worst norm rel {worst_norm:.3e} (tol 1e-10), "
                  f"{elapsed:.2f}s < 10s")


def test_criterion_2_qp_oracle_equivalence():
    """Block-dual solver matches a grid + projected-gradient oracle to 1e-8
    objective with KKT residual <= 1e-6 on 50 random instances, < 30 s."""
    rng = np.random.default_rng(7)
    worst_obj = 0.0
    worst_kkt = 0.0
    t0 = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        feats = rng.standard_normal((d, n))
        labels = rng.choice([-1.0, 1.0], size=n)
        mu1 = float(rng.uniform(0.0, 2.0)) if trial % 4 else 0.0
        mu2 = float(rng.uniform(0.0, 2.0))
        lam = float(rng.uniform(0.5, 4.0))
        problem = assemble_dual(feats, labels, mu1, mu2, lam)[0]
        sol = solve_box_qp(problem, tol=1e-8)
        H = problem.B.T @ problem.B
        _, ref_obj = box_qp_reference(H, problem.g, problem.upper)
        worst_obj = max(worst_obj, abs(sol.objective - ref_obj))
        grad = H @ sol.alpha + problem.g
        resid = float(np.max(np.abs(
            sol.alpha - np.clip(sol.alpha - grad, 0.0, problem.upper))))
        worst_kkt = max(worst_kkt, resid, sol.kkt_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 1e-8 and worst_kkt <= 1e-6 and elapsed < 30.0
    finish(2, ok, f"50 instances, worst objective gap {worst_obj:.3e} "
                  f"(tol 1e-8), worst KKT residual {worst_kkt:.3e} "
                  f"(tol 1e-6), {elapsed:.2f}s < 30s")


def test_criterion_3_baseline_collapse():
    """With both margin terms off, training equals an independent max-margin
    reference (subgradient + exact KKT polish) to 1e-6 objective."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(4, 21))
        samples = rng.standard_normal((n, d))
        labels = np.r_[np.ones(n // 2 + n % 2), -np.ones(n // 2)]
        lam = float(rng.uniform(0.5, 4.0))
        data = LabeledDataset(samples, (d,), labels)
        cfg = TrainConfig(kind="vector", mu1=0.0, mu2=0.0, lam=lam,
                          qp_tol=1e-12, seed=trial)
        _, report = train(data, cfg)
        _, ref_obj = max_margin_reference(samples, labels, lam, seed=trial)
        worst = max(worst, abs(report.final_objective - ref_obj))
    ok = worst <= 1e-6
    finish(3, ok, f"20 instances (N <= 20), worst objective gap "
                  f"{worst:.3e} (tol 1e-6)")


@pytest.mark.filterwarnings("ignore:coordinate descent stopped")
def test_criterion_4_monotonic_descent():
    """100 seeded runs on blobs up to 6x6x4: no block update increases the
    objective beyond 1e-8*(1+|J|) and every run stops within max_outer=50.

    An inner solve occasionally reports brushing its pass cap a hair above
    qp_tol; the guarantee under test is descent and outer convergence, both
    asserted below, so that diagnostic is expected noise here."""
    shapes = [(4,), (3, 4), (5, 4), (2, 3, 2), (6, 6, 4), (6, 4), (4, 4, 3)]
    kinds = ["rank1", "cp", "tucker"]
    worst_uptick = 0.0
    unconverged = 0
    for run in range(100):
        shape = shapes[run % len(shapes)]
        kind = "vector" if len(shape) == 1 and run % 2 else kinds[run % 3]
        ranks = {"vector": [], "rank1": [],
                 "cp": [2], "tucker": [2] * len(shape)}[kind]
        data = synth_blobs(shape, 12, margin=1.5,
                           noise=0.5 + 0.3 * (run % 2), seed=1000 + run)
        cfg = TrainConfig(kind=kind, ranks=ranks, lam=2.0, max_outer=50,
                          seed=run)
        _, report = train(data, cfg)
        objs = report.objectives
        for prev, cur in zip(objs, objs[1:]):
            worst_uptick = max(worst_uptick,
                               cur - prev - 1e-8 * (1.0 + abs(prev)))
        unconverged += not report.converged
    ok = worst_uptick <= 0.0 and unconverged == 0
    finish(4, ok, f"100 runs, worst tolerated-excess uptick "
                  f"{worst_uptick:.3e} (must be <= 0), "
                  f"{unconverged} unconverged (must be 0)")


def test_criterion_5_order1_equivalence():
    """Rank-1, CP, and Tucker trainers reproduce the order-1 vector path's
    objective to 1e-6 on 20 seeded instances."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(3, 9))
        data = synth_blobs((d,), 10, margin=1.5, noise=0.6, seed=300 + trial)
        lam = float(rng.uniform(0.5, 4.0))
        shared = dict(mu1=1.0, mu2=1.0, lam=lam, qp_tol=1e-12, seed=trial)
        _, base = train(data, TrainConfig(kind="vector", **shared))
        for kind, ranks in (("rank1", []), ("cp", [2]), ("tucker", [2])):
            _, rep = train(data, TrainConfig(kind=kind, ranks=ranks, **shared))
            worst = max(worst, abs(rep.final_objective - base.final_objective))
    ok = worst <= 1e-6
    finish(5, ok, f"20 instances x 3 decompositions, worst objective gap "
                  f"{worst:.3e} (tol 1e-6)")


def test_criterion_6_norm_inequality_sweep():
    """1000 random Tucker instances: the factored-norm bound never fails,
    in under 10 s."""
    t0 = time.perf_counter()
    reports = lemma1_sweep(1000, seed=0)
    elapsed = time.perf_counter() - t0
    violations = sum(not r.holds for r in reports)
    ok = len(reports) == 1000 and violations == 0 and elapsed < 10.0
    finish(6, ok, f"1000 instances, {violations} violations (must be 0), "
                  f"{elapsed:.2f}s < 10s")


@pytest.mark.filterwarnings("ignore:nonpositive margin mean")
def test_criterion_7_margin_tail_bound():
    """50 trained toy models with N >= 100: the empirical fraction of
    margins <= gamma_m/2 never exceeds the moment bound."""
    reports = cantelli_sweep(n_models=50, seed=0)
    small = [r for r in reports if r.inputs["N"] < 100]
    violations = sum(not r.holds for r in reports)
    ok = len(reports) == 50 and not small and violations == 0
    finish(7, ok, f"{len(reports)} models at N=100, {violations} bound "
                  f"violations (must be 0)")


def test_criterion_8_mnist_sanity(tmp_path):
    """Desk-scale MNIST trends: 0-vs-1 accuracy floors over 5 seeds and the
    margin-distribution advantage over the zero-mu configuration."""
    found = find_mnist()
    if len(found) < 4:
        record_skip(8, "MNIST IDX files not found under the data root (no "
                       "network access in this environment; set SPMD_DATA_DIR "
                       "to a directory holding train/t10k images+labels to "
                       "enable)")
    train_raw = load_idx(found["train_images"], found["train_labels"])
    test_raw = load_idx(found["test_images"], found["test_labels"])
    t0 = time.perf_counter()

    r1_accs, tucker_accs = [], []
    for seed in range(5):
        tr = select_binary(train_raw, 0, 1, per_class=500, seed=seed)
        te = select_binary(test_raw, 0, 1, per_class=500, seed=1000 + seed)
        _acc = []
        for kind, ranks, reshape in (("rank1", [], None),
                                     ("tucker", [4, 4, 4, 4], [7, 4, 7, 4])):
            dtr, dte = tr, te
            if reshape:
                dtr = reshape_samples(tr, reshape)
                dte = reshape_samples(te, reshape)
            model, _ = train(dtr, TrainConfig(kind=kind, ranks=ranks,
                                              lam=1.0, seed=seed))
            scores = decision_scores(model, dte.samples, dte.dims)
            _acc.append(float(np.mean(
                np.where(scores >= 0, 1.0, -1.0) == dte.labels)))
        r1_accs.append(_acc[0])
        tucker_accs.append(_acc[1])
    r1_mean = float(np.mean(r1_accs))
    tucker_mean = float(np.mean(tucker_accs))

    tr_multi = select_multiclass(train_raw, list(range(10)), 100, seed=0)
    te_multi = select_multiclass(test_raw, list(range(10)), 100, seed=1)
    means = {}
    for mu, tag in ((1.0, "spmd"), (0.0, "stm")):
        cfg = TrainConfig(kind="rank1", mu1=mu, mu2=mu, lam=1.0, seed=0)
        ens = ovo_train(tr_multi, cfg, workers=1)
        _, means[tag] = pairwise_accuracy(ens, te_multi)
    elapsed = time.perf_counter() - t0

    ok = (r1_mean >= 0.97 and tucker_mean >= r1_mean - 0.005
          and means["spmd"] >= means["stm"] and elapsed < 600.0)
    finish(8, ok, f"rank-1 {r1_mean:.4f} (>= 0.97), tucker {tucker_mean:.4f} "
                  f"(>= rank-1 - 0.005), pairwise mu=1 {means['spmd']:.4f} "
                  f">= mu=0 {means['stm']:.4f}, {elapsed:.0f}s < 600s")


def test_criterion_9_determinism(tmp_path):
    """Identical configs reproduce byte-identical CSVs on rerun."""
    train_cfg = {"method": "spmd-cp", "ranks": [2], "lambda": 2.0,
                 "dataset": {"source": "synth", "shape": [3, 2],
                             "n_per_class": 10, "margin": 2.0, "noise": 0.4,
                             "seed": 0}}
    bench_cfg = {"methods": ["svm", "spmd-r1"], "lambda": 2.0,
                 "dataset": {"source": "synth", "shape": [2, 2],
                             "n_per_class": 8, "margin": 2.0, "noise": 0.4,
                             "seed": 0, "n_classes": 3, "test_n_per_class": 5}}
    tpath = tmp_path / "train.json"
    tpath.write_text(json.dumps(train_cfg))
    bpath = tmp_path / "bench.json"
    bpath.write_text(json.dumps(bench_cfg))

    outs = {name: tmp_path / name for name in ("t1", "t2", "b1", "b2")}
    assert main(["train", "--config", str(tpath), "--out", str(outs["t1"])]) == 0
    assert main(["train", "--config", str(tpath), "--out", str(outs["t2"])]) == 0
    assert main(["bench", "--config", str(bpath), "--out", str(outs["b1"])]) == 0
    assert main(["bench", "--config", str(bpath), "--out", str(outs["b2"])]) == 0

    train_same = all(
        (outs["t1"] / f).read_bytes() == (outs["t2"] / f).read_bytes()
        for f in ("report.csv", "blocks.csv"))
    bench_same = ((outs["b1"] / "bench.csv").read_bytes()
                  == (outs["b2"] / "bench.csv").read_bytes())
    finish(9, train_same and bench_same,
           f"reruns byte-identical: train {train_same}, bench {bench_same}")
