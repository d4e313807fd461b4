"""Margin moment tests: hand values, elementwise oracles, scale laws.

The moments are checked through ``summarize_scores``, the one function that
computes them; with all labels +1 the margins are the scores themselves.
"""

import warnings

import numpy as np
import pytest

from oracles import inner
from spmd.data import LabeledDataset
from spmd.margins import signed_margins, summarize_scores
from spmd.tensor import DenseTensor


def make_dataset(rng, dims, n):
    samples = rng.standard_normal((n, int(np.prod(dims))))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    labels[0], labels[1] = 1.0, -1.0
    return LabeledDataset(samples, dims, labels)


def margin_mean(margins):
    return summarize_scores(margins, np.ones(len(margins))).mean


def margin_variance(margins):
    return summarize_scores(margins, np.ones(len(margins))).variance


class TestSignedMargins:
    def test_self_inner_product(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(6)
        data = LabeledDataset(z[None, :], (2, 3), np.array([1.0]))
        w = DenseTensor((2, 3), z)
        np.testing.assert_allclose(signed_margins(w, data), [z @ z], rtol=1e-14)

    def test_zero_weight(self):
        rng = np.random.default_rng(1)
        data = make_dataset(rng, (2, 2), 5)
        w = DenseTensor((2, 2), np.zeros(4))
        np.testing.assert_array_equal(signed_margins(w, data), np.zeros(5))

    def test_flattened_dot_oracle(self):
        rng = np.random.default_rng(2)
        data = make_dataset(rng, (3, 2), 5)
        w = DenseTensor((3, 2), rng.standard_normal(6))
        got = signed_margins(w, data)
        for i in range(5):
            x = DenseTensor(data.dims, data.samples[i])
            want = data.labels[i] * inner(w, x)
            assert got[i] == pytest.approx(want, rel=1e-13)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        data = make_dataset(rng, (2, 2), 4)
        with pytest.raises(ValueError):
            signed_margins(DenseTensor((4,), np.zeros(4)), data)


class TestMarginMean:
    def test_constant(self):
        assert margin_mean(np.array([1.0, 1.0])) == 1.0

    def test_direct_average(self):
        assert margin_mean(np.array([0.0, 2.0])) == 1.0

    def test_symmetric(self):
        assert margin_mean(np.array([-1.0, 1.0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            margin_mean(np.array([]))


class TestMarginVariance:
    def test_identical_margins(self):
        assert margin_variance(np.array([1.0, 1.0, 1.0])) == 0.0

    def test_direct_evaluation(self):
        assert margin_variance(np.array([0.0, 2.0])) == 1.0

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal(100)
        want = float(np.mean((m - m.mean()) ** 2))
        assert margin_variance(m) == pytest.approx(want, rel=1e-12)

    def test_population_convention(self):
        # divide by N, not N-1
        m = np.array([0.0, 1.0])
        assert margin_variance(m) == 0.25

    def test_cancellation_prone_margins_stay_nonnegative(self):
        # cancellation at 1e14 magnitude drives the one-pass formula
        # E[m^2] - E[m]^2 negative; the variance about the mean is not,
        # and stays within the squared spread of the two margins
        m = np.array([9999999.999999998, 10000000.0])
        assert float(np.mean(m**2) - np.mean(m) ** 2) < 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = margin_variance(m)
        assert 0.0 <= v <= (m[1] - m[0]) ** 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            margin_variance(np.array([]))


class TestSummaries:
    def test_summarize_scores_matches(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(8)
        labels = np.where(rng.random(8) < 0.5, 1.0, -1.0)
        s = summarize_scores(scores, labels)
        np.testing.assert_allclose(s.margins, labels * scores, rtol=1e-15)


class TestAlgebraicProperties:
    def test_variance_decomposition(self):
        # var = mean of squares minus squared mean
        rng = np.random.default_rng(10)
        m = rng.standard_normal(50) * 2.0 + 0.5
        lhs = margin_variance(m)
        rhs = float(np.mean(m**2) - np.mean(m) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_scale_laws(self):
        rng = np.random.default_rng(11)
        data = make_dataset(rng, (2, 2), 10)
        w = DenseTensor((2, 2), rng.standard_normal(4))
        c = 3.7
        wc = DenseTensor((2, 2), c * w.data)
        s1 = summarize_scores(data.samples @ w.data, data.labels)
        sc = summarize_scores(data.samples @ wc.data, data.labels)
        np.testing.assert_allclose(sc.margins, c * s1.margins, rtol=1e-12)
        assert sc.mean == pytest.approx(c * s1.mean, rel=1e-12)
        assert sc.variance == pytest.approx(c**2 * s1.variance, rel=1e-10)
