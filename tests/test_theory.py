"""Tests for the bound checkers: norm inequality, capacity, margin tail, descent.

Closed-form cases pin each bound formula by hand arithmetic; the sweep
drivers are exercised at reduced sizes here (the acceptance suite runs them
at full scale). Reference values for spectral norms come from numpy's SVD.
"""

import math
import re
import warnings

import numpy as np
import pytest

from spmd import theory
from spmd.data import synth_blobs
from spmd.tensor import DenseTensor, tucker_reconstruct
from spmd.theory import (
    BoundReport,
    cantelli_check,
    cantelli_margin_tail,
    cantelli_sweep,
    descent_certificate,
    generalization_bound,
    lemma1_sweep,
    lemma2_check,
    rademacher_bound,
    spectral_norm,
    theorem1_sweep,
    theorem2_sweep,
    tucker_norm_inequality,
)
from spmd.trainer import TrainConfig, TrainReport, train


def fake_report(objectives, weight_norms=None):
    """TrainReport stub carrying just the trace fields the certificate reads."""
    objs = [float(v) for v in objectives]
    norms = [1.0] * len(objs) if weight_norms is None else list(weight_norms)
    return TrainReport(
        kind="rank1", n_train=4, seed=0, converged=True,
        iterations=max(len(objs) - 1, 0), objectives=objs,
        block_labels=["init"] + ["mode1"] * (len(objs) - 1),
        weight_norms=norms, history=[], final_objective=objs[-1] if objs else 0.0,
        gamma_m=0.0, gamma_v=0.0, qp_passes=0, clamp_events=0,
        cap_hits=0, wall_time=0.0,
    )


def random_tucker_parts(rng, dims, ranks):
    factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
    core = DenseTensor(tuple(ranks), rng.standard_normal(int(np.prod(ranks))))
    return core, factors


class TestBoundReport:
    def test_holds_when_empirical_below_bound(self):
        rep = BoundReport.make("x", 1.0, 0.5)
        assert rep.holds is True

    def test_fails_when_empirical_above_slack(self):
        rep = BoundReport.make("x", 1.0, 1.0 + 3e-12)
        assert rep.holds is False

    def test_slack_boundary_still_holds(self):
        rep = BoundReport.make("x", 1.0, 1.0 + 1e-12)
        assert rep.holds is True

    def test_holds_matches_slack_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            bound = float(rng.normal())
            emp = bound + float(rng.normal(scale=1e-11))
            rep = BoundReport.make("x", bound, emp)
            assert rep.holds == (emp <= bound + 1e-12)

    def test_missing_empirical_defaults_to_holds(self):
        rep = BoundReport.make("x", 0.25, None)
        assert rep.empirical_value is None
        assert rep.holds is True

    def test_values_coerced_to_float(self):
        rep = BoundReport.make("x", np.float32(2.0), np.int64(1))
        assert isinstance(rep.bound_value, float)
        assert isinstance(rep.empirical_value, float)

    def test_inputs_dict_is_copied(self):
        inputs = {"N": 4}
        rep = BoundReport.make("x", 1.0, None, inputs)
        inputs["N"] = 99
        assert rep.inputs == {"N": 4}


class TestSpectralNorm:
    def test_matches_svd_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for shape in [(6, 4), (4, 6), (5, 5), (3, 8), (8, 3)]:
            a = rng.standard_normal(shape)
            assert spectral_norm(a) == pytest.approx(
                np.linalg.norm(a, 2), rel=1e-7)

    def test_known_singular_values(self):
        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        a = u @ np.diag([3.0, 1.0, 0.5]) @ v.T
        assert spectral_norm(a) == pytest.approx(3.0, rel=1e-8)

    def test_close_top_singular_values(self):
        # a relative gap of 1e-3 between the top two singular values
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 4)))
        a = u @ np.diag([1.0, 0.999, 0.5, 0.1]) @ v.T
        assert spectral_norm(a) == pytest.approx(1.0, rel=1e-12)

    def test_one_by_one(self):
        assert spectral_norm(np.array([[-4.0]])) == 4.0

    def test_vector_promoted_to_row(self):
        x = np.array([3.0, 4.0])
        assert spectral_norm(x) == pytest.approx(5.0, rel=1e-10)

    def test_row_and_column_matrices(self):
        # one singular value, the Euclidean norm of the entries
        x = np.array([1.0, -2.0, 2.0])
        assert spectral_norm(x[None, :]) == pytest.approx(3.0, rel=1e-15)
        assert spectral_norm(x[:, None]) == pytest.approx(3.0, rel=1e-15)
        assert spectral_norm(x) == spectral_norm(x[None, :])

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0
        assert spectral_norm(np.zeros((1, 4))) == 0.0

    def test_rank_deficient(self):
        col = np.array([[1.0], [2.0], [2.0]])
        a = col @ np.array([[2.0, 0.0, 0.0, 0.0]])
        # singular values: 3*2 = 6 and zeros
        assert spectral_norm(a) == pytest.approx(6.0, rel=1e-8)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty matrix"):
            spectral_norm(np.empty((0, 0)))


class TestTuckerNormInequality:
    def test_orthonormal_factors_give_equality(self):
        rng = np.random.default_rng(2)
        dims, ranks = (4, 3, 5), (2, 2, 3)
        factors = [np.linalg.qr(rng.standard_normal((d, r)))[0]
                   for d, r in zip(dims, ranks)]
        core = DenseTensor(ranks, rng.standard_normal(12))
        rep = tucker_norm_inequality(core, factors)
        assert rep.holds
        assert rep.bound_value == pytest.approx(core.norm(), rel=1e-9)
        assert rep.empirical_value == pytest.approx(core.norm(), rel=1e-9)

    def test_scaling_one_factor_scales_both_sides(self):
        rng = np.random.default_rng(3)
        core, factors = random_tucker_parts(rng, (4, 3, 2), (2, 3, 2))
        base = tucker_norm_inequality(core, factors)
        scaled_factors = [f.copy() for f in factors]
        scaled_factors[1] *= 3.0
        scaled = tucker_norm_inequality(core, scaled_factors)
        assert scaled.bound_value == pytest.approx(3.0 * base.bound_value, rel=1e-9)
        assert scaled.empirical_value == pytest.approx(
            3.0 * base.empirical_value, rel=1e-9)
        assert scaled.holds

    def test_left_side_is_reconstruction_norm(self):
        rng = np.random.default_rng(4)
        core, factors = random_tucker_parts(rng, (3, 4), (2, 2))
        rep = tucker_norm_inequality(core, factors)
        w = tucker_reconstruct(core, factors)
        assert rep.empirical_value == pytest.approx(w.norm(), rel=1e-12)

    def test_random_instances_hold(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            order = int(rng.integers(1, 5))
            dims = tuple(int(rng.integers(1, 7)) for _ in range(order))
            ranks = tuple(int(rng.integers(1, d + 1)) for d in dims)
            core, factors = random_tucker_parts(rng, dims, ranks)
            assert tucker_norm_inequality(core, factors).holds

    def test_inputs_record_core_norm_and_order(self):
        rng = np.random.default_rng(6)
        core, factors = random_tucker_parts(rng, (3, 3), (2, 2))
        rep = tucker_norm_inequality(core, factors)
        assert rep.inputs["core_norm"] == pytest.approx(core.norm())
        assert rep.inputs["order"] == 2


class TestRademacherBound:
    def test_unit_case(self):
        assert rademacher_bound(1.0, 1.0, 4) == 0.5

    def test_arithmetic_case(self):
        assert rademacher_bound(2.0, 3.0, 9) == 2.0

    def test_quadrupling_samples_halves_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            b, r = float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))
            n = int(rng.integers(1, 200))
            assert rademacher_bound(b, r, 4 * n) == pytest.approx(
                0.5 * rademacher_bound(b, r, n), rel=1e-12)

    @pytest.mark.parametrize("b, r, name", [
        pytest.param(0.0, 1.0, "B", id="0.0-1.0"),
        pytest.param(1.0, 0.0, "R", id="1.0-0.0"),
        pytest.param(-1.0, 1.0, "B", id="-1.0-1.0"),
        pytest.param(math.inf, 1.0, "B", id="inf-1.0"),
        pytest.param(1.0, math.nan, "R", id="1.0-nan")])
    def test_nonpositive_scales_rejected(self, b, r, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            rademacher_bound(b, r, 4)

    def test_zero_samples_rejected(self):
        for n in (0, 2.5, True):
            with pytest.raises(ValueError,
                               match=f"N must be an integer >= 1, got {n!r}"):
                rademacher_bound(1.0, 1.0, n)


class TestGeneralizationBound:
    def test_hand_computed_value(self):
        # delta = 2/e^2 makes log(2/delta) = 2, so the confidence term is
        # 3*sqrt(1/N); with N=9, B=R=1, rho=2 the capacity term is 1/3.
        rep = generalization_bound(0.0, 1.0, 1.0, rho=2.0,
                                   delta=2.0 / math.e ** 2, N=9)
        assert rep.bound_value == pytest.approx(1.0 / 3.0 + 1.0, abs=1e-12)

    def test_confidence_term_alone_for_huge_margin(self):
        delta, n = 0.05, 16
        rep = generalization_bound(0.125, 1.0, 1.0, rho=1e9, delta=delta, N=n)
        expected = 0.125 + 3.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * n))
        assert rep.bound_value == pytest.approx(expected, abs=1e-8)

    def test_empirical_loss_shifts_bound_linearly(self):
        lo = generalization_bound(0.0, 1.0, 1.0, 1.0, 0.1, 25)
        hi = generalization_bound(0.25, 1.0, 1.0, 1.0, 0.1, 25)
        assert hi.bound_value - lo.bound_value == pytest.approx(0.25, abs=1e-12)

    def test_without_holdout_no_empirical(self):
        rep = generalization_bound(0.1, 1.0, 1.0, 0.5, 0.05, 100)
        assert rep.empirical_value is None
        assert rep.holds is True

    def test_holdout_above_bound_fails(self):
        rep = generalization_bound(0.0, 1.0, 1.0, rho=1.0, delta=0.5, N=4,
                                   holdout_loss=5.0)
        assert rep.holds is False
        assert rep.empirical_value == 5.0

    def test_inputs_recorded(self):
        rep = generalization_bound(0.1, 2.0, 3.0, 0.5, 0.05, 64)
        assert rep.inputs == {"B": 2.0, "R": 3.0, "rho": 0.5, "delta": 0.05,
                              "N": 64, "empirical_margin_loss": 0.1}

    def test_nonpositive_rho_rejected(self):
        for rho in (0.0, math.inf):
            with pytest.raises(ValueError,
                               match=f"rho must be finite and positive, got {rho!r}"):
                generalization_bound(0.0, 1.0, 1.0, rho=rho, delta=0.1, N=4)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            generalization_bound(0.0, 1.0, 1.0, rho=1.0, delta=delta, N=4)

    @pytest.mark.parametrize("delta", ["x", None, True, math.nan])
    def test_delta_follows_the_real_rule(self, delta):
        with pytest.raises(ValueError, match=re.escape(
                f"delta must be finite and real, got {delta!r}")):
            generalization_bound(0.0, 1.0, 1.0, rho=1.0, delta=delta, N=4)


class TestCantelliMarginTail:
    def test_substitution(self):
        assert cantelli_margin_tail(1.0, 1.0, 0.0) == 0.5

    def test_zero_variance_gives_zero(self):
        assert cantelli_margin_tail(2.0, 0.0, 1.0) == 0.0

    def test_tightens_as_rho_drops(self):
        tight = cantelli_margin_tail(1.0, 0.5, -1.0)
        loose = cantelli_margin_tail(1.0, 0.5, 0.5)
        assert tight < loose

    def test_rho_at_mean_rejected(self):
        with pytest.raises(ValueError, match="rho < gamma_m"):
            cantelli_margin_tail(1.0, 1.0, 1.0)

    def test_rho_above_mean_rejected(self):
        with pytest.raises(ValueError, match="rho < gamma_m"):
            cantelli_margin_tail(0.5, 1.0, 2.0)

    def test_negative_variance_rejected(self):
        for gamma_v in (-1e-9, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match=f"gamma_v must be finite and nonnegative, got {gamma_v!r}"):
                cantelli_margin_tail(1.0, gamma_v, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, "1", True])
    @pytest.mark.parametrize("name", ["gamma_m", "rho"])
    def test_mean_and_rho_follow_the_real_rule(self, name, bad):
        args = {"gamma_m": 1.0, "gamma_v": 1.0, "rho": 0.0, name: bad}
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be finite and real, got {bad!r}")):
            cantelli_margin_tail(**args)


class TestCantelliCheck:
    def test_degenerate_distribution(self):
        # all margins equal: variance 0, bound 0, and nothing sits below rho
        rep = cantelli_check(np.full(10, 2.0), rho=1.0)
        assert rep.bound_value == 0.0
        assert rep.empirical_value == 0.0
        assert rep.holds

    def test_hand_computed_two_point_sample(self):
        rep = cantelli_check(np.array([0.0, 2.0]), rho=0.5)
        assert rep.inputs["gamma_m"] == 1.0
        assert rep.inputs["gamma_v"] == 1.0  # population convention
        assert rep.bound_value == pytest.approx(1.0 / 1.25)
        assert rep.empirical_value == 0.5
        assert rep.holds

    def test_population_variance_convention(self):
        rep = cantelli_check(np.array([0.0, 1.0]), rho=0.25)
        assert rep.inputs["gamma_v"] == 0.25

    def test_sample_size_recorded(self):
        rep = cantelli_check(np.linspace(1.0, 2.0, 17), rho=0.5)
        assert rep.inputs["N"] == 17

    def test_fraction_counts_ties(self):
        # margins equal to rho count into the tail fraction
        rep = cantelli_check(np.array([0.5, 0.5, 3.0, 3.0]), rho=0.5)
        assert rep.empirical_value == 0.5


class TestDescentCertificate:
    def test_constant_sequence_passes(self):
        assert descent_certificate(fake_report([1.0, 1.0, 1.0])) is True

    def test_single_uptick_fails(self):
        assert descent_certificate(fake_report([1.0, 1.0 + 1e-3])) is False

    def test_uptick_within_tolerance_passes(self):
        assert descent_certificate(fake_report([1.0, 1.0 + 1e-9])) is True

    def test_decreasing_sequence_passes(self):
        assert descent_certificate(fake_report([5.0, 3.0, 2.5, 2.5])) is True

    def test_late_uptick_fails(self):
        assert descent_certificate(fake_report([5.0, 3.0, 3.1])) is False

    def test_unbounded_iterates_fail(self):
        rep = fake_report([2.0, 1.0], weight_norms=[1.0, float("inf")])
        assert descent_certificate(rep) is False

    def test_nan_iterates_fail(self):
        rep = fake_report([2.0, 1.0], weight_norms=[1.0, float("nan")])
        assert descent_certificate(rep) is False

    def test_empty_norm_trace_fails(self):
        rep = fake_report([2.0, 1.0], weight_norms=[])
        assert descent_certificate(rep) is False

    def test_converged_training_run_passes(self):
        data = synth_blobs((3, 4), 20, margin=2.0, noise=0.3, seed=11)
        _, report = train(data, TrainConfig(kind="rank1", lam=2.0, seed=11))
        assert report.converged
        assert descent_certificate(report) is True


class TestNormInequalitySweep:
    def test_reduced_sweep_all_hold(self):
        reports = lemma1_sweep(200, seed=42)
        assert len(reports) == 200
        assert all(r.holds for r in reports)

    def test_sweep_is_reproducible(self):
        a = lemma1_sweep(20, seed=9)
        b = lemma1_sweep(20, seed=9)
        assert [(r.bound_value, r.empirical_value) for r in a] == \
            [(r.bound_value, r.empirical_value) for r in b]

    def test_different_seeds_differ(self):
        a = lemma1_sweep(5, seed=0)
        b = lemma1_sweep(5, seed=1)
        assert [r.bound_value for r in a] != [r.bound_value for r in b]


@pytest.mark.parametrize("seed", [None, True, 1.5, -1])
@pytest.mark.parametrize("sweep", [lambda seed: lemma1_sweep(3, seed=seed),
                                   lambda seed: lemma2_check(seed=seed)],
                         ids=["lemma1", "lemma2"])
def test_sampling_sweeps_check_seed_by_the_integer_rule(sweep, seed):
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be an integer >= 0, got {seed!r}")):
        sweep(seed)


class TestCapacityCheck:
    def test_monte_carlo_average_within_bound(self):
        rep = lemma2_check(seed=0)
        assert rep.holds
        assert rep.empirical_value <= rep.bound_value

    def test_raw_bound_and_allowance(self):
        rep = lemma2_check(seed=3, n=64)
        assert rep.inputs["raw_bound"] == rademacher_bound(1.0, 1.0, 64)
        assert rep.bound_value == pytest.approx(
            rep.inputs["raw_bound"] + 3.0 * rep.inputs["mc_stderr"])

    def test_inputs_record_draws(self):
        rep = lemma2_check(seed=1, draws=100)
        assert rep.inputs["draws"] == 100
        assert rep.inputs["N"] == 64

    def test_matches_one_sign_vector_per_draw(self):
        # reference: the draws one at a time, from the same generator stream;
        # batching only changes how the norms are summed
        n, dim, draws = 64, 9, 50
        rng = np.random.default_rng(5)
        z = rng.standard_normal((n, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        vals = np.array([np.linalg.norm(rng.choice([-1.0, 1.0], size=n) @ z) / n
                         for _ in range(draws)])
        rep = lemma2_check(seed=5, n=n, dim=dim, draws=draws)
        assert rep.empirical_value == pytest.approx(vals.mean(), rel=1e-12)
        assert rep.inputs["mc_stderr"] == pytest.approx(
            vals.std(ddof=1) / math.sqrt(draws), rel=1e-9)


class TestGeneralizationSweep:
    def test_bound_dominates_holdout_error(self):
        reports = theorem1_sweep(n_models=4, seed=0)
        assert len(reports) == 4
        for rep in reports:
            assert rep.holds
            assert rep.empirical_value <= rep.bound_value


class TestMarginTailSweep:
    def test_trained_models_respect_bound(self):
        reports = cantelli_sweep(n_models=3, seed=0)
        assert len(reports) == 3
        for rep in reports:
            assert rep.name == "cantelli_margin_tail"
            assert rep.inputs["N"] == 100
            assert rep.holds

    def test_large_sample_violation_reported_without_warning(self, monkeypatch):
        failing = BoundReport.make("cantelli_margin_tail", 0.1, 0.9,
                                   {"N": 80})
        monkeypatch.setattr(theory, "cantelli_check",
                            lambda margins, rho: failing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = cantelli_sweep(n_models=1, seed=0)
        assert out == [failing]  # reported as it is, with no warning
        assert caught == []

    def test_nonpositive_margin_mean_skipped_with_warning(self, monkeypatch):
        monkeypatch.setattr(theory, "signed_margins",
                            lambda w, data: np.full(20, -1.0))
        with pytest.warns(UserWarning, match="nonpositive margin mean"):
            out = cantelli_sweep(n_models=1, seed=0)
        assert out == []


class TestDescentSweep:
    def test_all_kinds_certified(self):
        reports = theorem2_sweep(n_runs=3, seed=0)
        names = [r.name for r in reports]
        assert names == ["descent_certificate[rank1]",
                         "descent_certificate[cp]",
                         "descent_certificate[tucker]"]
        for rep in reports:
            assert rep.holds
            assert rep.empirical_value is None  # no violation magnitude
            assert rep.bound_value == 0.0
            assert "iterations" in rep.inputs and "converged" in rep.inputs

    def test_seed_27_certified_without_capped_solves(self):
        # a late Tucker core dual here (D=4, N=60) once stopped at the pass
        # cap, and the objective rose past the certificate's slack
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="coordinate descent stopped")
            reports = theorem2_sweep(12, seed=27)
        assert [r.name for r in reports if not r.holds] == []

    def test_row_fails_with_its_certificate(self, monkeypatch):
        # no objective rises, but the norms are not finite: the certificate
        # fails, so the row must too; a rising run reads its worst rise
        for objectives, norms, empirical in [([2.0, 1.0], [1.0, math.nan], math.inf),
                                             ([1.0, 2.0], None, 2.0 - (1.0 + 2e-8))]:
            report = fake_report(objectives, norms)
            monkeypatch.setattr(theory, "train", lambda data, cfg: (None, report))
            rep, = theorem2_sweep(n_runs=1, seed=0)
            assert descent_certificate(report) is False
            assert not rep.holds and rep.empirical_value == empirical

    def test_sweep_reproducible(self):
        a = theorem2_sweep(n_runs=2, seed=5)
        b = theorem2_sweep(n_runs=2, seed=5)
        assert [r.inputs["iterations"] for r in a] == \
            [r.inputs["iterations"] for r in b]
