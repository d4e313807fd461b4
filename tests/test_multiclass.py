"""Tests for the one-vs-one harness: ensemble shape and evaluation.

Hand-built single-weight models make the per-pair accuracy and averaging
rules exactly predictable; trained ensembles on synthetic blobs cover determinism, pair
symmetry, and that the ``workers`` keyword changes no result.
"""

import threading
import warnings
from itertools import combinations

import numpy as np
import pytest

from spmd.data import MulticlassDataset, synth_multiclass
from spmd.multiclass import (
    OvoEnsemble,
    ovo_train,
    pair_seed,
    pairwise_accuracy,
)
from spmd.trainer import Hyper, TrainConfig, WeightModel, decision_scores, train


def vector_model(w):
    """Order-1 model scoring x -> w @ x."""
    w = np.asarray(w, dtype=np.float64)
    return WeightModel(kind="vector", shape=(w.size,), ranks=(),
                       factors=(w.reshape(-1, 1),), core=None,
                       hyper=Hyper(1.0, 1.0, 1.0))


def hand_ensemble(classes, weights):
    """Ensemble of vector models keyed by class pair."""
    models = {pair: vector_model(w) for pair, w in weights.items()}
    cfg = TrainConfig(kind="vector")
    return OvoEnsemble(classes=tuple(classes), models=models,
                       configs={p: cfg for p in models})


def scalar_test_set(labeled_points):
    """1-feature multiclass test set from (x, label) pairs."""
    xs = np.array([[x] for x, _ in labeled_points], dtype=np.float64)
    ys = np.array([lab for _, lab in labeled_points], dtype=np.int64)
    return MulticlassDataset(xs, (1,), ys)


class TestPairSeed:
    def test_deterministic(self):
        assert pair_seed(7, 1, 2) == pair_seed(7, 1, 2)

    def test_varies_with_pair(self):
        seeds = {pair_seed(0, a, b) for a, b in combinations(range(6), 2)}
        assert len(seeds) == 15

    def test_varies_with_global_seed(self):
        assert pair_seed(0, 1, 2) != pair_seed(1, 1, 2)


class TestEnsembleShape:
    @pytest.mark.parametrize("k, expected", [(2, 1), (4, 6), (10, 45)])
    def test_model_count_formula(self, k, expected):
        pairs = list(combinations(range(k), 2))
        assert len(pairs) == expected
        ens = hand_ensemble(range(k), {p: [1.0] for p in pairs})
        assert len(ens.models) == expected

    def test_wrong_model_count_rejected(self):
        pairs = list(combinations(range(4), 2))[:-1]  # one pair missing
        with pytest.raises(ValueError, match="expected 6"):
            hand_ensemble(range(4), {p: [1.0] for p in pairs})

    def test_pairs_sorted(self):
        weights = {(1, 2): [1.0], (0, 2): [1.0], (0, 1): [1.0]}
        ens = hand_ensemble(range(3), weights)
        assert ens.pairs == [(0, 1), (0, 2), (1, 2)]


class TestOvoTrain:
    def test_two_classes_one_model(self):
        data = synth_multiclass((2, 2), 2, 8, margin=2.0, noise=0.3, seed=0)
        ens = ovo_train(data, TrainConfig(kind="rank1", lam=2.0, seed=0))
        assert ens.classes == (0, 1)
        assert ens.pairs == [(0, 1)]

    def test_four_classes_six_models(self):
        data = synth_multiclass((2, 2), 4, 6, margin=2.0, noise=0.3, seed=1)
        ens = ovo_train(data, TrainConfig(kind="rank1", lam=2.0, seed=1))
        assert len(ens.models) == 6
        assert ens.pairs == list(combinations(range(4), 2))

    def test_each_pair_trains_on_its_samples_only(self):
        data = synth_multiclass((2, 2), 3, 7, margin=2.0, noise=0.3, seed=2)
        ens = ovo_train(data, TrainConfig(kind="rank1", lam=2.0, seed=2))
        for pair in ens.pairs:
            assert ens.reports[pair].n_train == 14

    def test_pair_seeds_derived_from_identity(self):
        data = synth_multiclass((2, 2), 3, 6, margin=2.0, noise=0.3, seed=3)
        cfg = TrainConfig(kind="rank1", lam=2.0, seed=99)
        ens = ovo_train(data, cfg)
        for (a, b) in ens.pairs:
            assert ens.configs[(a, b)].seed == pair_seed(99, a, b)

    def test_retraining_reproduces_weights(self):
        data = synth_multiclass((2, 2), 3, 6, margin=2.0, noise=0.3, seed=4)
        cfg = TrainConfig(kind="rank1", lam=2.0, seed=4)
        one = ovo_train(data, cfg)
        two = ovo_train(data, cfg)
        for pair in one.pairs:
            assert np.array_equal(one.models[pair].reconstruct().data,
                                  two.models[pair].reconstruct().data)

    def test_parallel_matches_sequential(self):
        data = synth_multiclass((2, 2), 4, 6, margin=2.0, noise=0.3, seed=5)
        cfg = TrainConfig(kind="rank1", lam=2.0, seed=5)
        seq = ovo_train(data, cfg, workers=1)
        par = ovo_train(data, cfg, workers=3)
        assert seq.pairs == par.pairs
        for pair in seq.pairs:
            assert np.array_equal(seq.models[pair].reconstruct().data,
                                  par.models[pair].reconstruct().data)

    def test_pairs_train_in_the_calling_thread(self, monkeypatch):
        import spmd.multiclass

        real = spmd.multiclass.train
        idents = []

        def recording(data, cfg):
            idents.append(threading.get_ident())
            return real(data, cfg)

        monkeypatch.setattr(spmd.multiclass, "train", recording)
        data = synth_multiclass((2, 2), 4, 6, margin=2.0, noise=0.3, seed=5)
        ovo_train(data, TrainConfig(kind="rank1", lam=2.0, seed=5), workers=3)
        assert idents == [threading.get_ident()] * 6

    def test_worker_count_below_one_rejected(self):
        data = synth_multiclass((2, 2), 3, 6, margin=2.0, noise=0.3, seed=5)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            ovo_train(data, TrainConfig(kind="rank1", lam=2.0), workers=0)

    def test_rank1_ovo_sweep_count(self):
        # Sweeps to convergence over the 45 rank-1 pairs of a 10-class,
        # 28 x 28 draw (the ovo-10class benchmark's sizes). The counts are
        # exact for a seed: 363 from a random orthonormal start, 221 from
        # the HOSVD of the class-mean difference. The bound is about 1.1x
        # the latter, so a start or solver change that brings back the
        # extra sweeps fails here, not only in a timing.
        data = synth_multiclass((28, 28), 10, 50, margin=1.5, noise=0.5, seed=0)
        ens = ovo_train(data, TrainConfig(kind="rank1"), workers=1)
        reports = ens.reports.values()
        assert all(r.converged and r.cap_hits == 0 for r in reports)
        assert sum(r.iterations for r in reports) <= 243

    def test_single_class_rejected(self):
        data = MulticlassDataset(np.ones((4, 2)), (2,), np.full(4, 5))
        with pytest.raises(ValueError, match="at least 2 classes"):
            ovo_train(data, TrainConfig(kind="vector"))

    def test_label_convention_symmetric(self):
        # same data trained with the two label orientations: scores negate,
        # so the decision regions agree on every sample
        data = synth_multiclass((2, 3), 2, 10, margin=2.0, noise=0.4, seed=6)
        cfg = TrainConfig(kind="rank1", lam=2.0, seed=6)
        fwd, _ = train(data.binary_view(0, 1), cfg)
        rev, _ = train(data.binary_view(1, 0), cfg)
        s_fwd = decision_scores(fwd, data.samples, data.dims)
        s_rev = decision_scores(rev, data.samples, data.dims)
        assert s_fwd == pytest.approx(-s_rev, abs=1e-9)


class TestPairwiseAccuracy:
    def test_perfect_models_mean_one(self):
        data = synth_multiclass((2, 2), 3, 10, margin=3.0, noise=0.2, seed=7)
        ens = ovo_train(data, TrainConfig(kind="rank1", lam=5.0, seed=7))
        rows, mean = pairwise_accuracy(ens, data)
        assert mean == 1.0
        assert all(r["accuracy"] == 1.0 for r in rows)

    def test_single_pair_mean_is_its_accuracy(self):
        ens = hand_ensemble([0, 1], {(0, 1): [1.0]})
        test = scalar_test_set([(1.0, 0), (1.0, 1), (-1.0, 1), (-1.0, 1)])
        rows, mean = pairwise_accuracy(ens, test)
        assert len(rows) == 1
        assert rows[0]["accuracy"] == 0.75
        assert mean == 0.75

    def test_mean_is_unweighted_over_pairs(self):
        ens = hand_ensemble(range(3), {p: [1.0] for p in combinations(range(3), 2)})
        # class 0: one x=+1; class 1: one x=+1; class 2: four x=-1
        test = scalar_test_set([(1.0, 0), (1.0, 1)] + [(-1.0, 2)] * 4)
        rows, mean = pairwise_accuracy(ens, test)
        accs = {r["pair"]: r["accuracy"] for r in rows}
        ns = {r["pair"]: r["n_test"] for r in rows}
        assert accs == {(0, 1): 0.5, (0, 2): 1.0, (1, 2): 1.0}
        assert ns == {(0, 1): 2, (0, 2): 5, (1, 2): 5}
        assert mean == pytest.approx(5.0 / 6.0)  # not the sample-weighted 11/12

    def test_coin_flip_models_near_half(self):
        # test features independent of the labels: per-sample correctness is
        # a fair coin, so the mean sits within 3 binomial sigmas of 0.5
        rng = np.random.default_rng(8)
        n = 400
        xs = rng.choice([-1.0, 1.0], size=n)
        ys = rng.integers(0, 2, size=n)
        ens = hand_ensemble([0, 1], {(0, 1): [1.0]})
        test = scalar_test_set(list(zip(xs, ys)))
        _, mean = pairwise_accuracy(ens, test)
        assert abs(mean - 0.5) <= 3.0 * 0.5 / np.sqrt(n)

    def test_empty_pair_excluded_with_warning(self):
        pairs = list(combinations(range(4), 2))
        ens = hand_ensemble(range(4), {p: [1.0] for p in pairs})
        # no test samples for classes 2 and 3 -> pair (2,3) has none
        test = scalar_test_set([(1.0, 0), (-1.0, 1)])
        with pytest.warns(UserWarning, match=r"pair \(2,3\) has no test samples"):
            rows, mean = pairwise_accuracy(ens, test)
        assert {r["pair"] for r in rows} == set(pairs) - {(2, 3)}
        assert mean == pytest.approx(np.mean([r["accuracy"] for r in rows]))

    def test_unknown_test_label_rejected(self):
        ens = hand_ensemble([0, 1], {(0, 1): [1.0]})
        test = scalar_test_set([(1.0, 0), (1.0, 9)])
        with pytest.raises(ValueError, match=r"\[9\] not in class list"):
            pairwise_accuracy(ens, test)

    def test_no_testable_pair_rejected(self):
        ens = hand_ensemble([0, 1], {(0, 1): [1.0]})
        empty = MulticlassDataset(np.empty((0, 1)), (1,),
                                  np.empty(0, dtype=np.int64))
        with pytest.warns(UserWarning, match="no test samples"):
            with pytest.raises(ValueError, match="no pair had test samples"):
                pairwise_accuracy(ens, empty)

    def test_mean_invariant_to_model_insertion_order(self):
        pairs = list(combinations(range(3), 2))
        fwd = hand_ensemble(range(3), {p: [1.0] for p in pairs})
        rev = hand_ensemble(range(3), {p: [1.0] for p in reversed(pairs)})
        test = scalar_test_set([(1.0, 0), (-1.0, 1), (1.0, 2)])
        rows_f, mean_f = pairwise_accuracy(fwd, test)
        rows_r, mean_r = pairwise_accuracy(rev, test)
        assert rows_f == rows_r
        assert mean_f == mean_r
