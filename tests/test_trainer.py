"""Trainer tests: whitened block features, alternating descent, persistence.

The reparameterization identities are spot-checked here on random configs
(the full 200-configuration sweep is an acceptance test); block updates are
checked against analytic optima; the zero-mu path is checked against the
KKT-verified max-margin reference.
"""

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import hinge_objective, inner, max_margin_reference, vec
from spmd.data import LabeledDataset, batch_view, synth_blobs
from spmd.margins import summarize_scores
from spmd.tensor import DenseTensor, unvec
from spmd.trainer import (Hyper, MetricCollapseError, TrainConfig, WeightModel,
                          apply_bias, block_features, block_update, load_model,
                          predict, primal_objective, psd_root, decision_scores,
                          save_model, train, _class_mean_difference,
                          _mode_contract, _mode_ranks, _start_state)
from spmd.tensor import cp_reconstruct, tucker_reconstruct, unfold


def random_dataset(rng, dims, n):
    samples = rng.standard_normal((n, int(np.prod(dims))))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    labels[0], labels[1] = 1.0, -1.0
    return LabeledDataset(samples, dims, labels)


def random_state(rng, dims, mode_ranks, kind):
    """Seeded orthonormal factors and, for Tucker, a core."""
    factors = [np.linalg.qr(rng.standard_normal((i, r)))[0]
               for i, r in zip(dims, mode_ranks)]
    core = None
    if kind == "tucker":
        core = DenseTensor(mode_ranks, rng.standard_normal(int(np.prod(mode_ranks))))
    return factors, core


class TestModeRanks:
    def test_vector_needs_order_1(self):
        assert _mode_ranks("vector", [], (5,)) == (1,)
        with pytest.raises(ValueError, match="order-1"):
            _mode_ranks("vector", [], (2, 3))

    def test_rank1_fixed(self):
        assert _mode_ranks("rank1", [], (2, 3, 4)) == (1, 1, 1)
        with pytest.raises(ValueError, match="rank1"):
            _mode_ranks("rank1", [2], (2, 3))

    def test_cp_single_shared_rank(self):
        # a CP rank may exceed a mode size
        assert _mode_ranks("cp", [2], (2, 3, 4)) == (2, 2, 2)
        assert _mode_ranks("cp", [6], (2, 5)) == (6, 6)
        with pytest.raises(ValueError, match="single"):
            _mode_ranks("cp", [2, 2], (2, 3))

    def test_tucker_per_mode(self):
        assert _mode_ranks("tucker", [1, 2, 3], (2, 3, 4)) == (1, 2, 3)
        with pytest.raises(ValueError, match="per mode"):
            _mode_ranks("tucker", [1, 2], (2, 3, 4))

    def test_tucker_rank_at_most_its_mode_size(self):
        assert _mode_ranks("tucker", [3, 2], (3, 4)) == (3, 2)
        with pytest.raises(ValueError,
                           match="tucker rank 5 of mode 2 exceeds its size 4"):
            _mode_ranks("tucker", [3, 5], (3, 4))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            _mode_ranks("butterfly", [], (2, 3))


class TestPsdRoot:
    def test_reproduces_healthy_metric(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4))
        A = M @ M.T + np.eye(4)
        root = psd_root(A)
        np.testing.assert_allclose(root.half @ root.half.T, A, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(root.inv_half @ root.half, np.eye(4),
                                   rtol=0, atol=1e-12)
        assert root.clamped == 0

    def test_structurally_singular_metric(self):
        # rank-1 A: the floor only nudges the null direction, so norms built
        # through the root stay within round-off of the true value
        rng = np.random.default_rng(1)
        p = rng.standard_normal((2, 1)) * 3.0
        A = p @ p.T
        root = psd_root(A)
        assert root.clamped == 1
        V = rng.standard_normal((5, 2))
        lhs = float(vec(V @ root.half) @ vec(V @ root.half))
        rhs = float(np.sum((V @ p) ** 2))
        assert abs(lhs - rhs) <= 1e-12 * (1 + rhs)

    def test_collapse_names_context(self):
        with pytest.raises(MetricCollapseError, match="mode 2"):
            psd_root(np.zeros((3, 3)), context="mode 2 metric")

    def test_non_finite_rejected(self):
        with pytest.raises(MetricCollapseError, match="finite"):
            psd_root(np.full((2, 2), np.nan))


class TestModeContraction:
    def test_matches_per_sample_unfold_times_coefficient(self):
        rng = np.random.default_rng(2)
        for dims in [(5,), (2, 3), (2, 3, 2), (3, 2, 4, 2)]:
            data = random_dataset(rng, dims, 4)
            for m in range(1, len(dims) + 1):
                c = rng.standard_normal((int(np.prod(dims)) // dims[m - 1], 3))
                got = _mode_contract(data.samples, dims, m, c)
                assert got.shape == (4, 3, dims[m - 1])
                for i in range(4):
                    want = unfold(data.sample(i), m) @ c
                    np.testing.assert_allclose(got[i].T, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("dims", [(28, 28), (7, 4, 7, 4), (3,), (8, 4, 7, 4)],
                             ids=["28x28", "7x4x7x4", "order-1", "biased"])
    def test_highest_mode_matches_unfolding(self, dims):
        # the highest mode is one 2-D product over the (N I_M, P_<M) view
        rng = np.random.default_rng(3)
        data = random_dataset(rng, dims, 5)
        m = len(dims)
        c = rng.standard_normal((int(np.prod(dims)) // dims[-1], 2))
        got = _mode_contract(data.samples, dims, m, c)
        assert got.shape == (5, 2, dims[-1])
        for i in range(5):
            want = unfold(data.sample(i), m) @ c
            np.testing.assert_allclose(got[i].T, want, rtol=1e-13, atol=1e-13)


class TestBlockFeatureMemory:
    """block_features reads the N x P samples in place and never copies them."""

    @pytest.mark.parametrize("dims,kind,ranks", [
        ((28, 28), "rank1", []), ((7, 4, 7, 4), "tucker", [2, 2, 2, 2])],
        ids=["rank1-28x28", "tucker-7x4x7x4"])
    def test_peak_below_a_quarter_of_the_samples(self, dims, kind, ranks):
        # at N = 2000 the samples take 12.5 MB; a copy of them (as a
        # tensordot over a transposed batch makes) breaks the bound at once
        rng = np.random.default_rng(30)
        data = random_dataset(rng, dims, 2000)
        factors, core = random_state(rng, dims,
                                     _mode_ranks(kind, ranks, dims), kind)
        blocks = list(range(1, len(dims) + 1)) + ([0] if core is not None else [])
        for b in blocks:
            tracemalloc.start()
            try:
                feats, _ = block_features(data, factors, core, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert feats.shape[1] == 2000
            assert peak < data.samples.nbytes / 4, (b, peak)


class TestModeFeatureIdentities:
    def test_tucker_identity_factors_reduce_to_unfolding(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, (3, 3), 4)
        core = DenseTensor.from_array(np.eye(3))
        feats, root = block_features(data, [np.eye(3), np.eye(3)], core, 1)
        for i in range(4):
            np.testing.assert_allclose(feats[:, i], vec(unfold(data.sample(i), 1)),
                                       rtol=1e-12, atol=1e-12)

    def test_cp_rank1_unit_factors_contract(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, (3, 4), 5)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        feats, root = block_features(data, [np.zeros((3, 1)), u[:, None]],
                                     None, 1)
        for i in range(5):
            np.testing.assert_allclose(feats[:, i], unfold(data.sample(i), 1) @ u,
                                       rtol=1e-10, atol=1e-12)

    def test_cp_rank1_bilinear_form(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, (3, 4), 5)
        v1, v2 = rng.standard_normal(3), rng.standard_normal(4)
        w = cp_reconstruct([v1[:, None], v2[:, None]])
        feats, root = block_features(data, [v1[:, None], v2[:, None]],
                                     None, 1)
        vv = vec(v1[:, None] @ root.half)
        for i in range(5):
            z = data.sample(i).to_array()
            assert feats[:, i] @ vv == pytest.approx(float(v1 @ z @ v2), rel=1e-10)
            assert feats[:, i] @ vv == pytest.approx(inner(w, data.sample(i)), rel=1e-10)

    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    def test_identities_random_configs(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(10):
            order = int(rng.integers(2, 5))
            dims = tuple(int(d) for d in rng.integers(2, 6, size=order))
            if kind == "tucker":
                ranks = tuple(int(r) for r in rng.integers(1, 4, size=order))
                factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
                core = DenseTensor(ranks, rng.standard_normal(int(np.prod(ranks))))
                w = tucker_reconstruct(core, factors)
            else:
                r = int(rng.integers(1, 4))
                factors = [rng.standard_normal((d, r)) for d in dims]
                core = None
                w = cp_reconstruct(factors)
            data = random_dataset(rng, dims, 4)
            wn = float(w.data @ w.data)
            for m in range(1, order + 1):
                feats, root = block_features(data, factors, core, m)
                v = vec(factors[m - 1] @ root.half)
                assert float(v @ v) == pytest.approx(wn, abs=1e-10 * (1 + wn))
                ips = feats.T @ v
                for i in range(4):
                    want = inner(w, data.sample(i))
                    assert ips[i] == pytest.approx(want, abs=1e-10 * (1 + abs(want)))


class TestCoreFeatures:
    def test_orthonormal_factors_whiten_by_rotation(self):
        # orthonormal factors give K = I up to round-off; the whitening is
        # then an orthogonal map, so features keep the raw Gram exactly
        rng = np.random.default_rng(7)
        data = random_dataset(rng, (4, 3), 4)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        feats, root = block_features(data, [q1, q2], None, 0)
        np.testing.assert_allclose(root.half @ root.half.T, np.eye(4),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(root.inv_half @ root.inv_half.T, np.eye(4),
                                   rtol=0, atol=1e-12)
        raw = np.stack([vec(q1.T @ data.sample(i).to_array() @ q2)
                        for i in range(4)], axis=1)
        np.testing.assert_allclose(feats.T @ feats, raw.T @ raw,
                                   rtol=1e-10, atol=1e-12)

    def test_identity_factors_give_vec_sample(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, (2, 3), 4)
        feats, root = block_features(data, [np.eye(2), np.eye(3)], None, 0)
        for i in range(4):
            np.testing.assert_allclose(feats[:, i], data.sample(i).data,
                                       rtol=1e-12, atol=1e-12)

    def test_identities_random(self):
        rng = np.random.default_rng(9)
        dims, ranks = (3, 4, 2), (2, 2, 2)
        factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        core = DenseTensor(ranks, rng.standard_normal(8))
        w = tucker_reconstruct(core, factors)
        data = random_dataset(rng, dims, 5)
        feats, root = block_features(data, factors, core, 0)
        f = root.half.T @ core.data
        wn = float(w.data @ w.data)
        assert float(f @ f) == pytest.approx(wn, abs=1e-10 * (1 + wn))
        for i in range(5):
            want = inner(w, data.sample(i))
            assert feats[:, i] @ f == pytest.approx(want, abs=1e-10 * (1 + abs(want)))


class TestBlockUpdate:
    def test_canonical_two_point_max_margin(self):
        feats = np.array([[1.0, -1.0]])
        labels = np.array([1.0, -1.0])
        v, sol = block_update(feats, labels, Hyper(0.0, 0.0, 100.0))
        assert v[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.converged

    def test_mean_only_direction(self):
        rng = np.random.default_rng(10)
        Z = rng.standard_normal((3, 6))
        t = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        v, _ = block_update(Z, t, Hyper(0.0, 5.0, 1e-10))
        np.testing.assert_allclose(v, (5.0 / 6) * (Z @ t), rtol=1e-6)

    def test_single_sample_margin_activity(self):
        feats = np.array([[1.0]])
        labels = np.array([1.0])
        v, _ = block_update(feats, labels, Hyper(0.0, 0.0, 2.0))
        assert v[0] == pytest.approx(1.0, abs=1e-10)
        v, _ = block_update(feats, labels, Hyper(0.0, 0.0, 0.5))
        assert v[0] == pytest.approx(0.5, abs=1e-10)


class TestWarmStart:
    """Every block's dual starts from the latest hinge multipliers."""

    @staticmethod
    def spy_train(monkeypatch, data, cfg):
        import spmd.trainer as trainer
        real = trainer.block_update
        calls = []  # (features, warm_alpha, solved alpha) per block update

        def spy(features, labels, *args, **kwargs):
            v, sol = real(features, labels, *args, **kwargs)
            calls.append((features, kwargs["warm_alpha"], sol.alpha))
            return v, sol

        monkeypatch.setattr(trainer, "block_update", spy)
        _, report = train(data, cfg)
        return calls, report

    def test_first_solve_starts_from_hinge_rule_at_initial_weight(self, monkeypatch):
        # margin 1.5 leaves some, not all, samples inside the margin at W0
        data = synth_blobs((4, 3), 15, margin=1.5, noise=0.5, seed=45)
        cfg = TrainConfig(kind="rank1", lam=3.0, seed=41)
        calls, _ = self.spy_train(monkeypatch, data, cfg)
        rng = np.random.default_rng(cfg.seed)
        factors, _ = _start_state(data, (1, 1), "rank1", rng)
        margins = data.labels * (data.samples @ cp_reconstruct(factors).data)
        want = np.where(margins < 1.0, cfg.lam / len(data), 0.0)
        assert 0 < np.count_nonzero(want) < len(data)
        np.testing.assert_array_equal(calls[0][1], want)

    @pytest.mark.parametrize("kind,ranks", [("rank1", []), ("tucker", [2, 2])])
    def test_first_visit_takes_latest_alpha_later_visits_their_own(
            self, monkeypatch, kind, ranks):
        data = synth_blobs((4, 3), 15, margin=1.5, noise=0.3, seed=42)
        calls, report = self.spy_train(
            monkeypatch, data, TrainConfig(kind=kind, ranks=ranks, seed=43))
        blocks = 2 + (kind == "tucker")
        assert report.iterations >= 2
        assert len(calls) == blocks * report.iterations
        for k in range(1, len(calls)):
            source = k - 1 if k < blocks else k - blocks
            np.testing.assert_array_equal(calls[k][1], calls[source][2])

    def test_cold_hinge_and_latest_starts_recover_the_same_block(self, monkeypatch):
        data = synth_blobs((4, 3), 20, margin=1.0, noise=0.5, seed=44)
        cfg = TrainConfig(kind="tucker", ranks=[2, 2], seed=45)
        calls, _ = self.spy_train(monkeypatch, data, cfg)
        hyper = Hyper(cfg.mu1, cfg.mu2, cfg.lam)
        hinge, latest = calls[0][1], calls[1][2]
        for feats, _, _ in calls[:3]:
            vs = [block_update(feats, data.labels, hyper, warm_alpha=a)[0]
                  for a in (None, hinge, latest)]
            for v in vs[1:]:
                np.testing.assert_allclose(v, vs[0], rtol=0.0, atol=1e-7)


class TestStartState:
    """Training starts from the truncated HOSVD of the class-mean difference."""

    @staticmethod
    def mean_difference(data):
        # the boolean-index class means the trainer does not compute
        return (data.samples[data.labels > 0].mean(axis=0)
                - data.samples[data.labels < 0].mean(axis=0))

    def test_mean_difference_matches_class_means(self):
        data = random_dataset(np.random.default_rng(50), (4, 3), 17)
        np.testing.assert_allclose(_class_mean_difference(data),
                                   self.mean_difference(data),
                                   rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("kind,ranks", [
        ("rank1", []), ("cp", [2]), ("tucker", [3, 2, 2])])
    def test_factors_are_leading_singular_vectors(self, kind, ranks):
        dims = (4, 3, 5)
        data = random_dataset(np.random.default_rng(51), dims, 30)
        mode_ranks = _mode_ranks(kind, ranks, dims)
        factors, core = _start_state(data, mode_ranks, kind,
                                     np.random.default_rng(52))
        m = self.mean_difference(data)
        diff = DenseTensor(dims, m)
        for mode, (v, r) in enumerate(zip(factors, mode_ranks), start=1):
            np.testing.assert_allclose(v.T @ v, np.eye(r), atol=1e-14)
            u = np.linalg.svd(unfold(diff, mode))[0][:, :r]
            np.testing.assert_allclose(np.abs(np.sum(u * v, axis=0)), 1.0,
                                       atol=1e-10)
        if kind == "tucker":
            proj = tucker_reconstruct(diff, [v.T for v in factors])
            np.testing.assert_allclose(core.data, proj.data / proj.norm(),
                                       atol=1e-14)
            w0 = tucker_reconstruct(core, factors)
            assert w0.norm() == pytest.approx(1.0, rel=1e-13)
        else:
            assert core is None
            w0 = cp_reconstruct(factors)
            assert w0.norm() == pytest.approx(np.sqrt(mode_ranks[0]), rel=1e-13)
            for r in range(mode_ranks[0]):
                term = cp_reconstruct([v[:, [r]] for v in factors])
                assert term.data @ m > 0.0
        assert w0.data @ m > 0.0

    def test_vector_start_is_normalised_mean_difference(self):
        data = random_dataset(np.random.default_rng(53), (6,), 20)
        factors, core = _start_state(data, (1,), "vector",
                                     np.random.default_rng(54))
        m = self.mean_difference(data)
        assert core is None
        np.testing.assert_allclose(factors[0][:, 0], m / np.linalg.norm(m),
                                   rtol=1e-13)

    def test_qr_completion_beyond_the_unfolding_rank(self):
        # mode 1 of 3 x 2 data has 2 singular vectors and rank 3
        data = synth_blobs((3, 2), 10, margin=1.0, noise=0.5, seed=55)
        factors, _ = _start_state(data, (3, 2), "tucker",
                                  np.random.default_rng(56))
        v = factors[0]
        assert v.shape == (3, 3)
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-14)
        diff = DenseTensor((3, 2), self.mean_difference(data))
        u = np.linalg.svd(unfold(diff, 1), full_matrices=False)[0]
        np.testing.assert_allclose(np.abs(np.sum(u * v[:, :2], axis=0)), 1.0,
                                   atol=1e-12)
        _, report = train(data, TrainConfig(kind="tucker", ranks=[3, 2], seed=56))
        assert report.converged and descent_ok(report.objectives)

    def test_over_rank_mode_keeps_the_drawn_columns(self):
        # only CP takes a rank above a mode size (Tucker rejects one)
        data = synth_blobs((2, 3), 10, margin=1.0, noise=0.3, seed=57)
        factors, _ = _start_state(data, (3, 3), "cp", np.random.default_rng(58))
        again, _ = _start_state(data, (3, 3), "cp", np.random.default_rng(58))
        other, _ = _start_state(data, (3, 3), "cp", np.random.default_rng(59))
        assert factors[0].shape == (2, 3)
        np.testing.assert_allclose(np.linalg.norm(factors[0], axis=0), 1.0,
                                   rtol=1e-15)
        np.testing.assert_array_equal(factors[0], again[0])
        assert not np.array_equal(factors[0], other[0])
        # the mode that fits keeps its singular vectors, whatever the seed
        np.testing.assert_array_equal(factors[1], other[1])
        with pytest.warns(UserWarning, match="rank 3 exceeds mode size 2"):
            _, report = train(data, TrainConfig(kind="cp", ranks=[3], seed=58))
        assert report.converged and descent_ok(report.objectives)

    def test_equal_class_means_fall_back_to_the_drawn_core(self):
        # integer rows, 8 against 4: every partial sum of M is exact, so
        # the class means are equal to the last bit. With balanced classes
        # W = 0 would be the optimum; here sum_i t_i X_i is not zero.
        rng = np.random.default_rng(59)
        neg = rng.integers(-3, 4, size=(4, 12)).astype(float)
        shift = rng.integers(-3, 4, size=(8, 12)).astype(float)
        shift[-1] = -shift[:-1].sum(axis=0)
        pos = np.vstack([neg, neg]) + shift
        data = LabeledDataset(np.vstack([pos, neg]), (4, 3),
                              np.r_[np.ones(8), -np.ones(4)])
        assert not _class_mean_difference(data).any()
        factors, core = _start_state(data, (2, 2), "tucker",
                                     np.random.default_rng(60))
        _, again = _start_state(data, (2, 2), "tucker", np.random.default_rng(60))
        _, other = _start_state(data, (2, 2), "tucker", np.random.default_rng(61))
        assert core.norm() == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_array_equal(core.data, again.data)
        assert not np.array_equal(core.data, other.data)
        for v in factors:
            np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-14)
        _, report = train(data, TrainConfig(kind="tucker", ranks=[2, 2], seed=60))
        assert report.converged and descent_ok(report.objectives)

    @pytest.mark.parametrize("dims,kind,ranks", [
        ((28, 28), "rank1", []), ((7, 4, 7, 4), "tucker", [2, 2, 2, 2])],
        ids=["rank1-28x28", "tucker-7x4x7x4"])
    def test_peak_below_a_quarter_of_the_samples(self, dims, kind, ranks):
        # at N = 2000 the samples take 12.5 MB; class means by boolean
        # indexing copy half of them, which breaks the bound
        rng = np.random.default_rng(61)
        data = random_dataset(rng, dims, 2000)
        mode_ranks = _mode_ranks(kind, ranks, dims)
        tracemalloc.start()
        try:
            _start_state(data, mode_ranks, kind, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.samples.nbytes / 4, peak


class TestPrimalObjective:
    def test_zero_weight(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, (2, 2), 6)
        w = DenseTensor((2, 2), np.zeros(4))
        lam = 3.0
        assert primal_objective(w, data, Hyper(1.0, 1.0, lam)) == pytest.approx(lam)

    def test_svm_no_violations(self):
        samples = np.array([[2.0], [-2.0]])
        data = LabeledDataset(samples, (1,), np.array([1.0, -1.0]))
        w = DenseTensor((1,), np.array([1.0]))
        assert primal_objective(w, data, Hyper(0.0, 0.0, 1.0)) == pytest.approx(0.5)

    def test_term_by_term_recomposition(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, (2, 3), 8)
        w = DenseTensor((2, 3), rng.standard_normal(6))
        hyper = Hyper(0.7, 1.3, 2.0)
        s = summarize_scores(data.samples @ w.data, data.labels)
        want = (0.5 * w.norm() ** 2 + 0.7 * s.variance - 1.3 * s.mean
                + 2.0 / 8 * np.maximum(0, 1 - s.margins).sum())
        assert primal_objective(w, data, hyper) == pytest.approx(want, rel=1e-12)


def descent_ok(objectives):
    j = np.array(objectives)
    return bool(np.all(np.diff(j) <= 1e-8 * (1 + np.abs(j[:-1]))))


class TestTrain:
    def test_separable_blobs_fit(self):
        data = synth_blobs((4, 3), 20, margin=2.0, noise=0.1, seed=0)
        model, report = train(data, TrainConfig(kind="rank1", lam=10.0, seed=1))
        assert report.converged
        assert descent_ok(report.objectives)
        scores = decision_scores(model, data.samples, data.dims)
        assert np.mean(np.sign(scores) == data.labels) == 1.0

    @pytest.mark.parametrize("kind,ranks", [("cp", [2]), ("tucker", [2, 2])])
    def test_decomposed_kinds_descend_and_converge(self, kind, ranks):
        data = synth_blobs((4, 3), 15, margin=1.5, noise=0.3, seed=2)
        model, report = train(data, TrainConfig(kind=kind, ranks=ranks, seed=3))
        assert report.converged
        assert descent_ok(report.objectives)
        assert report.block_labels[0] == "init"
        expected_labels = {"mode1", "mode2"} | ({"core"} if kind == "tucker" else set())
        assert set(report.block_labels[1:]) == expected_labels

    def test_order1_vector_equals_rank1(self):
        data = synth_blobs((6,), 10, margin=1.0, noise=0.5, seed=4)
        m_vec, r_vec = train(data, TrainConfig(kind="vector", seed=5))
        m_r1, r_r1 = train(data, TrainConfig(kind="rank1", seed=5))
        # one code path: the two kinds differ only in their name
        np.testing.assert_array_equal(m_vec.factors[0], m_r1.factors[0])
        assert r_vec.objectives == r_r1.objectives
        assert r_vec.history == r_r1.history
        assert r_vec.qp_passes == r_r1.qp_passes
        assert r_vec.final_objective == r_r1.final_objective
        np.testing.assert_array_equal(
            decision_scores(m_vec, data.samples, data.dims),
            decision_scores(m_r1, data.samples, data.dims))

    def test_full_rank_tucker_matches_vector_on_flat_data(self):
        data = synth_blobs((3, 3), 12, margin=1.0, noise=0.4, seed=6)
        flat = LabeledDataset(data.samples, (9,), data.labels)
        m_t, r_t = train(data, TrainConfig(kind="tucker", ranks=[3, 3], seed=7))
        m_v, r_v = train(flat, TrainConfig(kind="vector", seed=7))
        assert r_t.final_objective == pytest.approx(r_v.final_objective, abs=1e-6)

    def test_zero_mu_matches_max_margin_reference(self):
        rng = np.random.default_rng(13)
        for trial in range(3):
            n = int(rng.integers(6, 15))
            samples = rng.standard_normal((n, 5))
            labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            labels[0], labels[1] = 1.0, -1.0
            data = LabeledDataset(samples, (5,), labels)
            lam = float(rng.choice([0.5, 1.0, 4.0]))
            cfg = TrainConfig(kind="vector", mu1=0.0, mu2=0.0, lam=lam,
                              tol=1e-6, qp_tol=1e-10, seed=trial)
            model, report = train(data, cfg)
            _, ref_obj = max_margin_reference(samples, labels, lam)
            assert report.final_objective == pytest.approx(ref_obj, abs=1e-6)

    def test_stm_mode_blocks_reach_fixed_point(self):
        # at convergence each mode's block re-update leaves the weight put
        data = synth_blobs((3, 4), 15, margin=1.5, noise=0.2, seed=8)
        cfg = TrainConfig(kind="rank1", mu1=0.0, mu2=0.0, lam=1.0,
                          tol=1e-5, max_outer=300, qp_tol=1e-10, seed=9)
        model, report = train(data, cfg)
        assert report.converged
        w_before = model.reconstruct()
        factors = [f.copy() for f in model.factors]
        feats, root = block_features(
            LabeledDataset(data.samples, data.dims, data.labels), factors,
            None, 1)
        v, _ = block_update(feats, data.labels, model.hyper, qp_tol=1e-10)
        factors[0] = unvec(v, (3, 1)) @ root.inv_half
        w_after = cp_reconstruct(factors)
        drift = float(np.linalg.norm(w_after.data - w_before.data))
        assert drift <= 1e-2 * (1 + w_before.norm())

    @pytest.mark.parametrize("kind,ranks,dims,skipped", [
        ("vector", [], (6,), []), ("rank1", [], (3, 4), []),
        ("cp", [2], (3, 4), []), ("tucker", [2, 2], (3, 4), []),
        ("tucker", [3, 2], (3, 4), [1])],
        ids=["vector", "rank1", "cp", "tucker", "tucker-square"])
    def test_every_block_update_uses_block_features(self, monkeypatch, kind,
                                                    ranks, dims, skipped):
        import spmd.trainer as trainer
        real = trainer.block_features
        calls = []

        def spy(data, factors, core, block):
            calls.append(block)
            return real(data, factors, core, block)

        monkeypatch.setattr(trainer, "block_features", spy)
        data = synth_blobs(dims, 10, margin=1.5, noise=0.3, seed=14)
        model, report = train(data, TrainConfig(kind=kind, ranks=ranks, seed=15))
        want = [0 if lab == "core" else int(lab[len("mode"):])
                for lab in report.block_labels[1:]]
        assert calls == want
        # a square Tucker mode is never a block and keeps its start factor
        assert [m for m in range(1, len(dims) + 1) if m not in calls] == skipped
        start, _ = _start_state(data, _mode_ranks(kind, ranks, dims), kind,
                                np.random.default_rng(15))
        for m in skipped:
            np.testing.assert_array_equal(model.factors[m - 1], start[m - 1])

    def test_square_tucker_trains_only_the_core(self):
        # square factors are invertible, so the core alone reaches every W
        data = synth_blobs((3, 4), 12, margin=1.0, noise=0.4, seed=6)
        flat = LabeledDataset(data.samples, (12,), data.labels)
        _, r_t = train(data, TrainConfig(kind="tucker", ranks=[3, 4], seed=7))
        _, r_v = train(flat, TrainConfig(kind="vector", seed=7))
        assert r_t.block_labels[0] == "init"
        assert set(r_t.block_labels[1:]) == {"core"}
        assert r_t.final_objective == pytest.approx(r_v.final_objective, abs=1e-6)

    def test_equal_class_means_converge_at_the_zero_weight(self):
        # the second class holds the first class's rows in reverse order, so
        # the class means are equal and W = 0 is optimal (J = lam = 1); an
        # update that only ties J must not count as a move
        rows = np.random.default_rng(0).integers(-3, 4, (8, 12)).astype(float)
        data = LabeledDataset(np.vstack([rows, rows[::-1]]), (4, 3),
                              np.r_[np.ones(8), -np.ones(8)])
        for kind, ranks in [("rank1", []), ("tucker", [2, 2]), ("cp", [2])]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                model, report = train(data, TrainConfig(kind=kind, ranks=ranks))
            assert report.converged and report.iterations == 2, kind
            assert report.final_objective == pytest.approx(1.0, abs=1e-12)
            assert model.reconstruct().norm() < 1e-12

    def test_cap_hits_count_unconverged_block_solves(self, monkeypatch):
        data = synth_blobs((4, 3), 15, margin=1.0, noise=0.5, seed=46)
        _, report = train(data, TrainConfig(kind="cp", ranks=[2], seed=47))
        assert report.cap_hits == 0
        import spmd.qp as qp

        real = qp.solve_box_qp
        monkeypatch.setattr(qp, "solve_box_qp",
                            lambda problem, **kw: real(problem, max_passes=1, **kw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, report = train(data, TrainConfig(kind="cp", ranks=[2], seed=47,
                                                max_outer=2))
        stopped = sum(str(w.message).startswith("coordinate descent stopped")
                      for w in caught)
        assert report.cap_hits == stopped > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_objective_trace_never_rises(self, seed):
        # exactly, with no slack: a block update that raises J by rounding
        # alone (by up to 8.9e-16 on these draws) is not kept
        data = synth_blobs((6, 5), 40, margin=1.0, noise=1.0, seed=seed)
        _, report = train(data, TrainConfig(kind="tucker", ranks=[3, 3],
                                            lam=5.0, seed=seed))
        assert np.all(np.diff(report.objectives) <= 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_capped_solves_never_raise_the_objective(self, monkeypatch, seed):
        import spmd.qp as qp

        real = qp.solve_box_qp
        monkeypatch.setattr(qp, "solve_box_qp",
                            lambda problem, **kw: real(problem, max_passes=1, **kw))
        data = synth_blobs((6, 5), 40, margin=1.0, noise=1.0, seed=seed)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "coordinate descent stopped")
            warnings.filterwarnings("ignore", "no convergence")
            _, report = train(data, TrainConfig(kind="tucker", ranks=[3, 3],
                                                lam=5.0, seed=seed))
        assert report.cap_hits > 0
        assert np.all(np.diff(report.objectives) <= 0.0)
        assert report.final_objective == min(report.objectives)

    @pytest.mark.parametrize("seed", [4, 6, 9])
    def test_converged_run_ends_on_an_uncapped_sweep(self, monkeypatch, seed):
        # with one pass per solve, a sweep can change W by less than tol only
        # because its duals were not solved; such a sweep must not end the
        # run as converged (on these seeds the final sweep's solves were all
        # capped before the rule)
        import spmd.qp as qp

        real = qp.solve_box_qp
        capped = []

        def one_pass(problem, **kw):
            sol = real(problem, max_passes=1, **kw)
            capped.append(not sol.converged)
            return sol

        monkeypatch.setattr(qp, "solve_box_qp", one_pass)
        data = synth_blobs((6, 5), 40, margin=1.0, noise=1.0, seed=seed)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "coordinate descent stopped")
            warnings.filterwarnings("ignore", "no convergence")
            _, report = train(data, TrainConfig(kind="tucker", ranks=[3, 3],
                                                lam=5.0, seed=seed))
        blocks = 3                    # mode1, mode2, core
        assert len(capped) == blocks * report.iterations
        assert report.cap_hits == sum(capped)
        assert report.converged
        assert not any(capped[-blocks:])

    def test_unconverged_warns_and_flags(self):
        data = synth_blobs((3, 3), 10, margin=0.5, noise=1.0, seed=10)
        with pytest.warns(UserWarning, match="no convergence"):
            model, report = train(
                data, TrainConfig(kind="rank1", tol=1e-12, max_outer=1, seed=11))
        assert not report.converged
        assert report.iterations == 1

    def test_convergence_satisfies_stop_rule(self):
        data = synth_blobs((4, 3), 15, margin=1.5, noise=0.3, seed=12)
        cfg = TrainConfig(kind="cp", ranks=[2], seed=13)
        model, report = train(data, cfg)
        assert report.converged
        assert report.history[-1]["rel_change"] <= cfg.tol

    def test_determinism_bit_identical(self):
        data = synth_blobs((3, 4), 12, margin=1.0, noise=0.5, seed=14)
        cfg = TrainConfig(kind="tucker", ranks=[2, 2], seed=15)
        _, r1 = train(data, cfg)
        _, r2 = train(data, cfg)
        assert r1.objectives == r2.objectives
        assert r1.final_objective == r2.final_objective

    def test_validation(self):
        rng = np.random.default_rng(16)
        one = LabeledDataset(rng.standard_normal((1, 4)), (4,), np.array([1.0]))
        with pytest.raises(ValueError, match="two samples"):
            train(one, TrainConfig(kind="vector"))
        same = LabeledDataset(rng.standard_normal((3, 4)), (4,), np.ones(3))
        with pytest.raises(ValueError, match="each class"):
            train(same, TrainConfig(kind="vector"))
        data = random_dataset(rng, (4,), 4)
        with pytest.raises(ValueError, match="lambda"):
            train(data, TrainConfig(kind="vector", lam=0.0))
        with pytest.raises(ValueError, match="nonnegative"):
            train(data, TrainConfig(kind="vector", mu1=-1.0))
        with pytest.raises(ValueError, match="max_outer"):
            train(data, TrainConfig(kind="vector", max_outer=0))

    def test_over_rank_tucker_mode_is_rejected(self):
        data = synth_blobs((2, 5), 8, margin=1.0, noise=0.2, seed=17)
        with pytest.raises(ValueError,
                           match="tucker rank 3 of mode 1 exceeds its size 2"):
            train(data, TrainConfig(kind="tucker", ranks=[3, 2], seed=18))
        # the bias slab makes mode 1 one larger, and the check sees it
        cfg = TrainConfig(kind="tucker", ranks=[3, 2], bias_feature=True,
                          max_outer=2, tol=1.0, seed=18)
        model, _ = train(data, cfg)
        assert model.shape == (3, 5) and model.ranks == (3, 2)
        cfg.ranks = [4, 2]
        with pytest.raises(ValueError,
                           match="tucker rank 4 of mode 1 exceeds its size 3"):
            train(data, cfg)

    @pytest.mark.parametrize("kind,ranks,want", [
        ("cp", [6], ["rank 6 exceeds mode size 2", "rank 6 exceeds mode size 5"]),
    ], ids=["cp"])
    def test_one_warning_per_over_rank_mode(self, kind, ranks, want):
        data = synth_blobs((2, 5), 8, margin=1.0, noise=0.2, seed=17)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train(data, TrainConfig(kind=kind, ranks=ranks, max_outer=2,
                                    tol=1.0, seed=18))
        assert [str(w.message) for w in caught
                if issubclass(w.category, UserWarning)] == want


class TestBlockCoordinateScoring:
    """train scores each block update from its own features, not from W.

    After a block solve the scores are feats'v and ||W||^2 = v'v, by the
    whitening identities; the reported J, margin moments and norms must
    agree with a fresh evaluation of the reconstructed model.
    """

    CASES = [
        ("rank1", [], (4, 3), False), ("vector", [], (6,), False),
        ("cp", [3], (2, 3), False), ("tucker", [2, 3, 2], (4, 3, 2), False),
        ("rank1", [], (4, 3), True), ("tucker", [2, 2], (3, 4), True)]

    @pytest.mark.parametrize("kind,ranks,dims,bias", CASES,
                             ids=["rank1", "vector", "cp-over-rank", "tucker",
                                  "rank1-bias", "tucker-bias"])
    def test_report_matches_the_reconstructed_model(self, kind, ranks, dims, bias):
        data = synth_blobs(dims, 15, margin=1.5, noise=0.5, seed=21)
        cfg = TrainConfig(kind=kind, ranks=ranks, seed=22, bias_feature=bias)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "rank 3 exceeds mode size 2")
            model, report = train(data, cfg)
        if kind == "cp":
            assert report.clamp_events > 0  # the 2 x 3 mode metric is singular
        tol = 1e-10 if report.clamp_events else 1e-12
        scored = apply_bias(data) if bias else data
        w = model.reconstruct()
        assert report.final_objective == pytest.approx(
            primal_objective(w, scored, model.hyper), rel=tol)
        summ = summarize_scores(decision_scores(model, data.samples, data.dims),
                                data.labels)
        assert report.gamma_m == pytest.approx(summ.mean, rel=tol)
        assert report.gamma_v == pytest.approx(summ.variance, rel=tol)
        assert report.weight_norms[-1] == pytest.approx(w.norm(), rel=tol)

    @pytest.mark.parametrize("kind,ranks,dims", [
        ("rank1", [], (4, 3)), ("cp", [2], (4, 3)), ("tucker", [2, 2], (4, 3))])
    def test_weight_rebuilt_once_per_sweep(self, monkeypatch, kind, ranks, dims):
        import spmd.trainer as trainer
        real = trainer._reconstruct
        calls = []

        def counting(factors, core):
            calls.append(1)
            return real(factors, core)

        monkeypatch.setattr(trainer, "_reconstruct", counting)
        data = synth_blobs(dims, 15, margin=1.0, noise=1.0, seed=23)
        _, report = train(data, TrainConfig(kind=kind, ranks=ranks, seed=24))
        assert len(report.objectives) - 1 > report.iterations  # >1 block per sweep
        assert len(calls) <= 1 + report.iterations


class TestPrediction:
    @pytest.mark.filterwarnings("ignore:no convergence")
    def test_scores_match_reconstruction(self):
        rng = np.random.default_rng(19)
        data = synth_blobs((3, 2, 2), 8, margin=1.0, noise=0.3, seed=20)
        for kind, ranks in [("rank1", []), ("cp", [2]), ("tucker", [2, 1, 2])]:
            model, _ = train(data, TrainConfig(kind=kind, ranks=ranks,
                                               max_outer=3, tol=1e-4, seed=21))
            w = model.reconstruct()
            scores = decision_scores(model, data.samples, data.dims)
            ref = data.samples @ w.data
            np.testing.assert_allclose(scores, ref, rtol=1e-10, atol=1e-12)

    def test_cp_scores_match_reconstruction_at_orders_2_to_4(self):
        rng = np.random.default_rng(24)
        for dims in [(4, 3), (3, 2, 4), (2, 3, 2, 3)]:
            r = 3
            factors = tuple(rng.standard_normal((i, r)) for i in dims)
            model = WeightModel("cp", dims, (r,) * len(dims), factors, None,
                                Hyper(1, 1, 1))
            samples = rng.standard_normal((7, int(np.prod(dims))))
            ref = samples @ cp_reconstruct(list(factors)).data
            np.testing.assert_allclose(decision_scores(model, samples, dims), ref,
                                       rtol=1e-12)

    def test_vector_kind_scores(self):
        data = synth_blobs((5,), 8, margin=1.0, noise=0.3, seed=22)
        model, _ = train(data, TrainConfig(kind="vector", seed=23))
        w = model.reconstruct()
        np.testing.assert_allclose(decision_scores(model, data.samples, (5,)),
                                   data.samples @ w.data, rtol=1e-12)

    def test_predict_sign_convention(self):
        v1 = np.array([[1.0], [0.5]])
        v2 = np.array([[1.0], [-1.0]])
        model = WeightModel("rank1", (2, 2), (1, 1), (v1, v2), None,
                            Hyper(1, 1, 1))
        w = model.reconstruct()
        labels, scores = predict(model, np.stack([w.data, -w.data]), w.dims)
        assert labels.tolist() == [1.0, -1.0]
        assert scores[0] > 0 > scores[1]

    def test_zero_score_maps_to_plus_one(self):
        model = WeightModel("rank1", (2,), (1,), (np.zeros((2, 1)),), None,
                            Hyper(1, 1, 1))
        labels, scores = predict(model, np.array([[1.0, 2.0]]), (2,))
        assert labels.tolist() == [1.0] and scores.tolist() == [0.0]

    @pytest.mark.filterwarnings("ignore:no convergence")
    @pytest.mark.parametrize("bias", [False, True], ids=["plain", "bias"])
    @pytest.mark.parametrize("kind,ranks,dims", [
        ("vector", [], (6,)), ("rank1", [], (3, 2)), ("cp", [2], (3, 2)),
        ("tucker", [2, 2], (3, 2))], ids=["vector", "rank1", "cp", "tucker"])
    def test_predict_is_sign_of_decision_scores(self, kind, ranks, dims, bias):
        data = synth_blobs(dims, 8, margin=0.5, noise=1.0, seed=33)
        model, _ = train(data, TrainConfig(kind=kind, ranks=ranks,
                                           bias_feature=bias, max_outer=3,
                                           tol=1e-3, seed=34))
        # a bias model scores pre-bias rows and augmented rows alike
        for rows in [data] + ([apply_bias(data)] if bias else []):
            labels, scores = predict(model, rows.samples, rows.dims)
            want = decision_scores(model, rows.samples, rows.dims)
            np.testing.assert_array_equal(scores, want)
            np.testing.assert_array_equal(labels, np.where(want >= 0, 1.0, -1.0))
        assert len(set(labels.tolist())) == 2

    def test_shape_mismatch(self):
        model = WeightModel("rank1", (2, 2), (1, 1),
                            (np.ones((2, 1)), np.ones((2, 1))), None, Hyper(1, 1, 1))
        with pytest.raises(ValueError, match="dims"):
            decision_scores(model, np.zeros((1, 6)), (2, 3))


class TestBias:
    def test_apply_bias_appends_ones_slab(self):
        rng = np.random.default_rng(24)
        data = random_dataset(rng, (2, 3), 4)
        aug = apply_bias(data)
        assert aug.dims == (3, 3)
        arr = batch_view(aug.samples, aug.dims)
        np.testing.assert_array_equal(arr[:, :2, :], batch_view(data.samples, data.dims))
        np.testing.assert_array_equal(arr[:, 2, :], np.ones((4, 3)))

    def test_bias_model_predicts_raw_samples(self):
        data = synth_blobs((3, 2), 10, margin=1.5, noise=0.2, seed=25)
        model, _ = train(data, TrainConfig(kind="rank1", bias_feature=True,
                                           seed=26))
        assert model.shape == (4, 2)
        aug = apply_bias(data)
        l_raw, s_raw = predict(model, data.samples[:3], data.dims)
        l_aug, s_aug = predict(model, aug.samples[:3], aug.dims)
        np.testing.assert_array_equal(s_raw, s_aug)
        np.testing.assert_array_equal(l_raw, l_aug)

    def test_bias_shape_mismatch_message(self):
        data = synth_blobs((3, 2), 8, margin=1.5, noise=0.2, seed=27)
        model, _ = train(data, TrainConfig(kind="rank1", bias_feature=True,
                                           max_outer=2, tol=1.0, seed=28))
        with pytest.raises(ValueError, match="pre-bias"):
            predict(model, np.zeros((1, 10)), (5, 2))


class TestPersistence:
    @pytest.mark.filterwarnings("ignore:no convergence")
    @pytest.mark.parametrize("kind,ranks", [("vector", []), ("rank1", []),
                                            ("cp", [2]), ("tucker", [2, 2])])
    def test_round_trip_bit_exact(self, tmp_path, kind, ranks):
        shape = (6,) if kind == "vector" else (3, 4)
        data = synth_blobs(shape, 8, margin=1.0, noise=0.3, seed=29)
        model, _ = train(data, TrainConfig(kind=kind, ranks=ranks, max_outer=3,
                                           tol=1e-3, seed=30))
        path = str(tmp_path / "model.spmd")
        save_model(path, model)
        back = load_model(path)
        assert back.kind == model.kind
        assert back.shape == model.shape
        assert back.ranks == model.ranks
        assert back.hyper == model.hyper
        assert back.bias_feature == model.bias_feature
        for a, b in zip(model.factors, back.factors):
            np.testing.assert_array_equal(a, b)
        if kind == "tucker":
            np.testing.assert_array_equal(model.core.data, back.core.data)
        for got, want in zip(predict(back, data.samples, data.dims),
                             predict(model, data.samples, data.dims)):
            np.testing.assert_array_equal(got, want)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.spmd"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_model(str(path))

    def test_bad_version(self, tmp_path):
        import struct
        path = tmp_path / "ver.spmd"
        path.write_bytes(b"SPMD" + struct.pack("<IBBB", 99, 1, 0, 1))
        with pytest.raises(ValueError, match="version"):
            load_model(str(path))

    def test_truncated(self, tmp_path):
        data = synth_blobs((4,), 6, margin=1.0, noise=0.2, seed=31)
        model, _ = train(data, TrainConfig(kind="vector", max_outer=2, tol=1.0,
                                           seed=32))
        path = str(tmp_path / "model.spmd")
        save_model(path, model)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        data = synth_blobs((4,), 6, margin=1.0, noise=0.2, seed=33)
        model, _ = train(data, TrainConfig(kind="vector", max_outer=2, tol=1.0,
                                           seed=34))
        path = str(tmp_path / "model.spmd")
        save_model(path, model)
        with open(path, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)
