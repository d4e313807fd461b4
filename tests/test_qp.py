"""Dual QP assembly and solver tests.

Three independent oracles anchor this module: the sample-space dual built
with a dense N x N inverse for the feature-space assembly (H, g and the
primal recovery), a finite-difference gradient oracle for the variance
curvature that the sample-space dual uses (including its factor of two),
and a grid-plus-projected-gradient oracle for solver optimality.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (box_line_step, box_qp_reference, sample_space_dual,
                     svd_free_set_step, variance_curvature)
from spmd.qp import (QpProblem, QpSolution, _box_line_step, _free_set_step,
                     assemble_dual, solve_box_qp)


def random_instance(rng, d, n, mu1=1.0, mu2=1.0, lam=1.0):
    Z = rng.standard_normal((d, n))
    t = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    t[0] = 1.0
    if n > 1:
        t[1] = -1.0
    return Z, t, mu1, mu2, lam


class TestQpProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            QpProblem(np.zeros((2, 3)), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            QpProblem(np.full((1, 1), np.nan), np.zeros(1), 1.0)

    @pytest.mark.parametrize("B, n, match", [
        (np.ones(3), 3, "D x N"),
        (np.ones((2, 3)), 2, "3 columns"),  # g sized to the rows, not the columns
        (np.array([[1.0, 2.0, np.inf]]), 3, "non-finite"),
    ], ids=["not-2d", "g-sized-to-rows", "non-finite"])
    def test_malformed_factor_rejected(self, B, n, match):
        with pytest.raises(ValueError, match=match):
            QpProblem(B, np.zeros(n), 1.0)

    def test_infinite_upper_bound_rejected(self):
        # an unbounded box has no minimum along a direction of zero curvature;
        # the bound follows the real-number rule, so a bool or string fails too
        for upper in (np.inf, True, "1"):
            with pytest.raises(ValueError,
                               match=f"upper must be finite and positive, got {upper!r}"):
                QpProblem(np.ones((1, 2)), -np.ones(2), upper)


class TestVarianceCurvature:
    def test_matrix_form(self):
        t = np.array([1.0, -1.0, 1.0])
        Q = variance_curvature(t, mu1=2.0)
        want = (4.0 / 9.0) * (3.0 * np.eye(3) - np.outer(t, t))
        np.testing.assert_allclose(Q, want, rtol=1e-14)

    def test_finite_difference_gradient_oracle(self):
        # grad of mu1*var(t_i z_i'v) over v must equal Z Q Z' v, pinning the
        # factor of two in Q
        rng = np.random.default_rng(2)
        d, n = 4, 6
        Z = rng.standard_normal((d, n))
        t = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        v = rng.standard_normal(d)
        mu1 = 1.3

        def var_term(vv):
            m = t * (Z.T @ vv)
            return mu1 * float(np.mean(m**2) - np.mean(m) ** 2)

        h = 1e-6
        fd = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd[i] = (var_term(v + e) - var_term(v - e)) / (2 * h)
        analytic = Z @ (variance_curvature(t, mu1) @ (Z.T @ v))
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)
        # halving the curvature breaks the match decisively
        halved = Z @ (variance_curvature(t, 0.5 * mu1) @ (Z.T @ v))
        assert np.abs(halved - fd).max() > 1e-3


class TestBuildDual:
    def test_mu1_zero_gives_tgt(self):
        rng = np.random.default_rng(3)
        Z, t, *_ = random_instance(rng, 3, 4)
        p = assemble_dual(Z, t, 0.0, 1.0, 1.0)[0]
        G = Z.T @ Z
        np.testing.assert_allclose(p.B.T @ p.B, np.outer(t, t) * G, rtol=1e-12)

    def test_scalar_unit_instance(self):
        p = assemble_dual(np.array([[1.0]]), np.array([1.0]), 0.0, 0.0, 1.0)[0]
        np.testing.assert_allclose(p.B.T @ p.B, [[1.0]])
        np.testing.assert_allclose(p.g, [-1.0])
        assert p.upper == 1.0

    def test_dense_inverse_oracle(self):
        # D < N at N >= 200, D > N, and mu1 = 0 (where S is the identity)
        rng = np.random.default_rng(4)
        for d, n, mu1 in [(28, 240, 0.8), (3, 4, 0.8), (12, 5, 1.7), (6, 30, 0.0)]:
            Z, t, mu1, mu2, lam = random_instance(rng, d, n, mu1=mu1, mu2=1.2, lam=2.0)
            p = assemble_dual(Z, t, mu1, mu2, lam)[0]
            H_ref, g_ref, _ = sample_space_dual(Z, t, mu1, mu2)
            H = p.B.T @ p.B
            np.testing.assert_array_equal(H, H.T)
            assert np.abs(H - H_ref).max() <= 1e-12 * np.abs(H_ref).max()
            assert np.abs(p.g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
            assert p.upper == pytest.approx(lam / n)

    def test_h_symmetric_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            Z, t, *_ = random_instance(rng, 4, 6)
            p = assemble_dual(Z, t, 1.0, 1.0, 1.0)[0]
            H = p.B.T @ p.B
            np.testing.assert_array_equal(H, H.T)
            assert np.linalg.eigvalsh(H).min() >= -1e-10

    def test_validation_errors(self):
        # assemble_dual checks only the shapes its callers can break; the
        # samples, labels and settings are checked where they enter (the
        # dataset row contract and train)
        Z = np.ones((2, 3))
        t = np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="3 feature columns but 2 labels"):
            assemble_dual(Z, np.array([1.0, -1.0]), 1, 1, 1)
        with pytest.raises(ValueError, match="D x N"):
            assemble_dual(np.ones(3), t, 1, 1, 1)
        with pytest.raises(ValueError, match="D x N"):
            assemble_dual(np.ones((1, 2, 3)), t, 1, 1, 1)

    def test_assembly_and_solve_memory_linear_in_n(self):
        # at D = 28, N = 12000 an N x N H alone would be 1.15 GB; the factor
        # B is 2.7 MB, and neither the assembly nor a cold solve (15 passes,
        # each ending with a free-set step) may hold much more than a few
        # D x N arrays at once
        rng = np.random.default_rng(18)
        Z, t, *_ = random_instance(rng, 28, 12000)
        Z[0] += 0.5 * t
        tracemalloc.start()
        try:
            problem, _, _ = assemble_dual(Z, t, 1.0, 1.0, 10.0)
            _, assemble_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sol = solve_box_qp(problem)
            _, solve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert assemble_peak < 16e6
        assert solve_peak < 16e6

    def test_assembly_holds_one_d_by_n_array_at_a_time(self):
        # Y = Z T, its centred copy and B alive together peaked at about
        # 3.9x the features here; one at a time, besides D x D factors, and
        # QpProblem's finiteness check of B makes no D x N temporary
        rng = np.random.default_rng(19)
        Z, t, *_ = random_instance(rng, 784, 2000)
        tracemalloc.start()
        try:
            assemble_dual(Z, t, 1.0, 1.0, 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.45 * Z.nbytes, peak / Z.nbytes

    @staticmethod
    def three_array_dual(Z, t, mu1, mu2):
        # the assembly as first written, with Y, Yc and B alive at once
        n = t.size
        Y = Z * t
        Yc = Y - Y.mean(axis=1, keepdims=True)
        S = np.eye(Z.shape[0]) + (2.0 * mu1 / n) * (Yc @ Yc.T)
        Linv = np.linalg.inv(np.linalg.cholesky(S))
        B = (Y.T @ Linv.T).T
        return B, (mu2 / n) * (B.sum(axis=1) @ B) - 1.0

    @pytest.mark.parametrize("d,n,mu1,order", [
        (7, 40, 1.3, "C"), (28, 100, 0.7, "F"), (12, 5, 2.0, "F"),
        (60, 300, 0.0, "C"), (1, 9, 1.0, "F")])
    def test_bit_identical_to_the_three_array_form(self, d, n, mu1, order):
        # t is +-1, so scaling B's columns after the product flips signs
        # exactly; the trainer's features are column-major ("F")
        rng = np.random.default_rng(d * n)
        Z, t, *_ = random_instance(rng, d, n)
        Z = np.asarray(Z, order=order)
        p = assemble_dual(Z, t, mu1, 1.1, 2.0)[0]
        B, g = self.three_array_dual(Z, t, mu1, 1.1)
        assert np.array_equal(p.B, B) and np.array_equal(p.g, g)
        assert p.B.flags.f_contiguous

    def test_wide_box_solve_memory_linear_in_n(self):
        # lam = 1000 widens the box, and the free set passes 3000
        # coordinates; a step that builds the |F| x |F| block H_FF held
        # about 150 MB here
        rng = np.random.default_rng(18)
        Z, t, *_ = random_instance(rng, 28, 12000)
        Z[0] += 0.5 * t
        problem, _, _ = assemble_dual(Z, t, 1.0, 1.0, 1000.0)
        tracemalloc.start()
        try:
            sol = solve_box_qp(problem)
            _, solve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert solve_peak < 16e6


class TestRecoverPrimal:
    """The recovery closure that assemble_dual returns."""

    def test_representer_form_at_zero_mu(self):
        rng = np.random.default_rng(6)
        Z, t, *_ = random_instance(rng, 3, 5)
        alpha = rng.random(5) * 0.2
        _, recover, _ = assemble_dual(Z, t, 0.0, 0.0, 1.0)
        np.testing.assert_allclose(recover(alpha), Z @ (t * alpha), rtol=1e-12)

    def test_zero_alpha_zero_mu2(self):
        rng = np.random.default_rng(7)
        Z, t, *_ = random_instance(rng, 3, 5)
        _, recover, _ = assemble_dual(Z, t, 1.0, 0.0, 1.0)
        np.testing.assert_allclose(recover(np.zeros(5)), np.zeros(3), atol=1e-14)

    def test_matches_assembly_closure(self):
        # the sample-space recovery Z (I+QG)^{-1} T ((mu2/N) e + alpha)
        rng = np.random.default_rng(8)
        for d, n, mu1 in [(4, 5, 1.0), (28, 240, 1.0), (12, 5, 0.6), (6, 30, 0.0)]:
            Z, t, mu1, mu2, lam = random_instance(rng, d, n, mu1=mu1)
            _, recover, _ = assemble_dual(Z, t, mu1, mu2, lam)
            alpha = rng.random(n) * (lam / n)
            v_ref = sample_space_dual(Z, t, mu1, mu2)[2](alpha)
            assert np.abs(recover(alpha) - v_ref).max() <= 1e-12 * np.abs(v_ref).max()

    def test_stationarity_of_block_lagrangian(self):
        # at the dual optimum, v must satisfy
        # v + Z Q Z'v - (mu2/N) Z t - Z(t*alpha) = 0
        rng = np.random.default_rng(9)
        for trial in range(10):
            Z, t, mu1, mu2, lam = random_instance(
                rng, 3, 4, mu1=float(rng.random() * 2),
                mu2=float(rng.random() * 2), lam=float(0.5 + rng.random()))
            problem, recover, _ = assemble_dual(Z, t, mu1, mu2, lam)
            sol = solve_box_qp(problem, tol=1e-12, max_passes=20000)
            v = recover(sol.alpha)
            n = t.size
            Q = variance_curvature(t, mu1)
            r = v + Z @ (Q @ (Z.T @ v)) - (mu2 / n) * (Z @ t) - Z @ (t * sol.alpha)
            assert np.linalg.norm(r) <= 1e-8 * (1 + np.linalg.norm(v))


class TestSolveBoxQp:
    def test_separable_clipped_optimum(self):
        p = QpProblem(np.eye(3), -2.0 * np.ones(3), 1.0)
        sol = solve_box_qp(p)
        np.testing.assert_allclose(sol.alpha, np.ones(3), atol=1e-12)
        assert sol.converged

    def test_positive_gradient_sticks_at_zero(self):
        p = QpProblem(np.eye(3), np.ones(3), 1.0)
        sol = solve_box_qp(p)
        np.testing.assert_array_equal(sol.alpha, np.zeros(3))

    def test_zero_diagonal_linear_rule(self):
        p = QpProblem(np.zeros((1, 1)), np.array([-1.0]), 2.0)
        sol = solve_box_qp(p)
        assert sol.alpha[0] == 2.0
        p = QpProblem(np.zeros((1, 1)), np.array([1.0]), 2.0)
        sol = solve_box_qp(p)
        assert sol.alpha[0] == 0.0

    def test_zero_column_warm_start_moves_to_lower_end(self):
        # b_1 = 0 and g_1 > 0: a warm start a_1 > 0 violates the KKT
        # conditions, and the linear rule moves a_1 to 0; starting at the
        # upper end keeps a_1 out of the free-set step, so only the
        # coordinate visit can move it
        p = QpProblem(np.array([[1.0, 0.0]]), np.array([-1.0, 1.0]), 2.0)
        sol = solve_box_qp(p, alpha0=np.array([0.0, 2.0]))
        np.testing.assert_array_equal(sol.alpha, [1.0, 0.0])
        assert sol.converged

    def test_warm_start_of_wrong_size_rejected(self):
        p = QpProblem(np.eye(2), -np.ones(2), 1.0)
        with pytest.raises(ValueError, match="warm start has 3 entries, need 2"):
            solve_box_qp(p, alpha0=np.zeros(3))

    def test_non_finite_warm_start_rejected(self):
        rng = np.random.default_rng(31)
        p = QpProblem(rng.standard_normal((3, 20)), -np.ones(20), 1.0)
        alpha0 = np.full(20, 0.5)
        alpha0[7] = np.nan
        with pytest.raises(ValueError, match="non-finite entries in warm start"):
            solve_box_qp(p, alpha0=alpha0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, True, "x"],
                             ids=["zero", "negative", "nan", "bool", "string"])
    def test_tol_must_be_finite_and_positive(self, tol):
        p = QpProblem(np.eye(2), -np.ones(2), 1.0)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_box_qp(p, tol=tol)

    def test_pass_cap_below_one_rejected(self):
        p = QpProblem(np.eye(2), -np.ones(2), 1.0)
        for cap in (0, True, 2.5):
            with pytest.raises(ValueError,
                               match=f"max_passes must be an integer >= 1, got {cap!r}"):
                solve_box_qp(p, max_passes=cap)

    def test_grid_plus_projected_gradient_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(8):
            n = 3
            M = rng.standard_normal((n, n))
            H = M @ M.T
            g = rng.standard_normal(n)
            upper = float(0.2 + rng.random())
            p = QpProblem(M.T, g, upper)
            sol = solve_box_qp(p, tol=1e-10, max_passes=20000)
            _, ref = box_qp_reference(H, g, upper)
            assert sol.objective <= ref + 1e-8
            assert abs(sol.objective - ref) <= 1e-8 * (1 + abs(ref))

    def test_feasibility_exact(self):
        rng = np.random.default_rng(11)
        Z, t, *_ = random_instance(rng, 4, 6)
        p = assemble_dual(Z, t, 1.0, 1.0, 1.5)[0]
        sol = solve_box_qp(p)
        assert np.all(sol.alpha >= 0.0)
        assert np.all(sol.alpha <= p.upper)

    def test_kkt_complementarity(self):
        rng = np.random.default_rng(12)
        tol = 1e-8
        for _ in range(5):
            Z, t, *_ = random_instance(rng, 3, 5)
            p = assemble_dual(Z, t, 1.0, 1.0, 1.0)[0]
            sol = solve_box_qp(p, tol=tol, max_passes=20000)
            grad = p.B.T @ (p.B @ sol.alpha) + p.g
            for i in range(p.n):
                if sol.alpha[i] <= 0.0:
                    assert grad[i] >= -10 * tol
                elif sol.alpha[i] >= p.upper:
                    assert grad[i] <= 10 * tol
                else:
                    assert abs(grad[i]) <= 10 * tol

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(13)
        Z, t, *_ = random_instance(rng, 4, 8)
        p = assemble_dual(Z, t, 1.0, 1.0, 2.0)[0]
        sol = solve_box_qp(p, tol=1e-12, max_passes=500)
        diffs = np.diff(np.array(sol.objective_trace))
        assert diffs.max(initial=0.0) <= 1e-12

    def test_kkt_residual_reported(self):
        rng = np.random.default_rng(14)
        Z, t, *_ = random_instance(rng, 3, 5)
        p = assemble_dual(Z, t, 1.0, 1.0, 1.0)[0]
        sol = solve_box_qp(p, tol=1e-10)
        grad = p.B.T @ (p.B @ sol.alpha) + p.g
        res = np.abs(sol.alpha - np.clip(sol.alpha - grad, 0.0, p.upper)).max()
        assert sol.kkt_residual == pytest.approx(res, abs=1e-15)
        assert sol.kkt_residual <= 1e-10

    def test_warm_start_preserves_optimum(self):
        rng = np.random.default_rng(15)
        Z, t, *_ = random_instance(rng, 4, 6)
        p = assemble_dual(Z, t, 1.0, 1.0, 1.0)[0]
        cold = solve_box_qp(p, tol=1e-10, max_passes=20000)
        warm = solve_box_qp(p, tol=1e-10, alpha0=cold.alpha)
        assert warm.iterations <= 2
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)

    def test_rank_deficient_dual_converges_in_few_passes(self):
        # D=4, N=64 with near-duplicate sample pairs: H has rank 4 and H_FF
        # is ill-conditioned, so coordinate descent alone needs more than
        # the trainer's 4000-pass cap
        rng = np.random.default_rng(1)
        base = rng.standard_normal((4, 32))
        t = np.repeat([1.0, -1.0], 16)
        base[0] += 0.5 * t
        Z = np.hstack([base, base + 1e-3 * rng.standard_normal((4, 32))])
        p = assemble_dual(Z, np.concatenate([t, t]), 1.0, 1.0, 2.0)[0]
        assert np.linalg.matrix_rank(p.B.T @ p.B) == 4
        tol = 1e-8
        sol = solve_box_qp(p, tol=tol, max_passes=4000)
        assert sol.converged
        assert sol.iterations <= 20
        assert sol.kkt_residual <= tol

    def test_unbounded_face_dual_converges(self):
        # mu1 = 0 and a wide box: the free set outgrows rank(H) = 4 and the
        # gradient on it leaves range(H_FF), so the step must also follow
        # the zero-curvature direction to the box
        rng = np.random.default_rng(2)
        Z, t, *_ = random_instance(rng, 4, 60)
        p = assemble_dual(3.0 * Z, t, 0.0, 1.0, 1000.0)[0]
        sol = solve_box_qp(p, tol=1e-8, max_passes=4000)
        assert sol.converged
        assert np.diff(np.array(sol.objective_trace)).max() <= 1e-12 * abs(sol.objective)

    def test_wide_box_dual_with_shifting_free_set_converges(self):
        # mu1 = 0, lam = 1000: the coordinate passes keep changing the free
        # set, so a subspace step that waits for it to repeat took 3727 passes
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((4, 60))
        t = np.where(rng.random(60) < 0.5, 1.0, -1.0)
        p = assemble_dual(3.0 * Z, t, 0.0, 1.0, 1000.0)[0]
        sol = solve_box_qp(p, tol=1e-8, max_passes=4000)
        assert sol.converged
        assert sol.iterations <= 1000

    def test_rank4_sweep_converges_well_inside_cap(self):
        # 60 rank-4 duals over mu1, lam and the feature scale
        worst = 0
        for mu1, lam, scale, seed in itertools.product(
                (0.0, 1.0), (100.0, 1000.0), (0.3, 1.0, 3.0), range(5)):
            Z, t, *_ = random_instance(np.random.default_rng(seed), 4, 60)
            p = assemble_dual(scale * Z, t, mu1, 1.0, lam)[0]
            sol = solve_box_qp(p, tol=1e-8, max_passes=4000)
            assert sol.converged
            worst = max(worst, sol.iterations)
        assert worst <= 500

    def test_perturbed_unbounded_face_duals_do_not_crawl(self):
        # the mu1 = 0, lam = 1000, scale 3, seed 3 dual of the sweep above
        # with g perturbed in its last bits: 3 of these 5 draws used to stop
        # at the cap, the zero-curvature step and the next coordinate pass
        # trading the same small move on every pass
        Z, t, *_ = random_instance(np.random.default_rng(3), 4, 60)
        p = assemble_dual(3.0 * Z, t, 0.0, 1.0, 1000.0)[0]
        for seed in range(1000, 1005):
            noise = np.random.default_rng(seed).standard_normal(p.n)
            q = QpProblem(p.B, p.g * (1.0 + 4e-16 * noise), p.upper)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sol = solve_box_qp(q, tol=1e-8, max_passes=4000)
            assert sol.converged
            assert sol.iterations <= 100

    @settings(derandomize=True, deadline=None)
    @given(d=st.integers(1, 16), n=st.integers(2, 12),
           mu1=st.floats(0.0, 2.0), mu2=st.floats(0.0, 2.0),
           lam=st.floats(0.1, 1000.0), scale=st.floats(0.1, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_property_converges_in_box_with_monotone_trace(
            self, d, n, mu1, mu2, lam, scale, seed):
        rng = np.random.default_rng(seed)
        Z, t, *_ = random_instance(rng, d, n)
        p = assemble_dual(scale * Z, t, mu1, mu2, lam)[0]
        alpha0 = rng.uniform(-0.5, 1.5, n) * p.upper  # clipped into the box
        tol = 1e-8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_box_qp(p, tol=tol, max_passes=4000, alpha0=alpha0)
        assert np.all(sol.alpha >= 0.0) and np.all(sol.alpha <= p.upper)
        grad = p.B.T @ (p.B @ sol.alpha) + p.g
        res = np.abs(sol.alpha - np.clip(sol.alpha - grad, 0.0, p.upper)).max()
        assert res <= tol
        assert sol.kkt_residual == pytest.approx(res, abs=1e-15)
        assert sol.converged == (sol.kkt_residual <= tol)
        trace = np.array(sol.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[1:])))

    def test_unconverged_warns(self):
        rng = np.random.default_rng(17)
        Z, t, *_ = random_instance(rng, 6, 12)
        p = assemble_dual(Z, t, 1.0, 1.0, 5.0)[0]
        with pytest.warns(UserWarning, match="coordinate descent"):
            sol = solve_box_qp(p, tol=1e-14, max_passes=1)
        assert not sol.converged
        assert isinstance(sol, QpSolution)


class TestFreeSetStep:
    """The step takes the factor B_F of the face Hessian H_FF = B_F'B_F."""

    def test_newton_step_reaches_face_minimizer(self):
        bf, gf = np.diag(np.sqrt([2.0, 4.0])), np.array([-1.0, -2.0])
        a = _free_set_step(bf, gf, np.array([0.1, 0.1]), 10.0)
        np.testing.assert_allclose(a, [0.6, 0.6], rtol=1e-15)

    def test_newton_step_cut_at_box(self):
        bf, gf = np.diag(np.sqrt([2.0, 4.0])), np.array([-1.0, -2.0])
        a = _free_set_step(bf, gf, np.array([0.1, 0.1]), 0.35)
        np.testing.assert_allclose(a, [0.35, 0.35], rtol=1e-15)

    def test_zero_curvature_direction_runs_to_box(self):
        # gf is orthogonal to range(H_FF): the face is unbounded below along -gf
        bf, gf = np.ones((1, 2)), np.array([0.5, -0.5])
        a = _free_set_step(bf, gf, np.array([0.5, 0.5]), 1.0)
        np.testing.assert_allclose(a, [0.0, 1.0], rtol=0.0, atol=1e-15)
        assert a[0] == 0.0 or a[1] == 1.0  # the limiting coordinate lands exactly

    def test_cut_zero_curvature_step_repeats_on_rest_of_face(self):
        # along -gf the first coordinate hits 0 after a short move; the step
        # is repeated on the other two, which then run to their bounds
        bf = np.zeros((2, 3))
        gf = np.array([1.0, -1.0, -1.0])
        a = _free_set_step(bf, gf, np.array([0.1, 0.5, 0.5]), 1.0)
        np.testing.assert_array_equal(a, [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("upper", [10.0, 0.12], ids=["wide", "tight"])
    def test_full_rank_face_takes_only_the_newton_step(self, monkeypatch, upper):
        # |F| <= D with every singular value kept: gf has no part outside
        # range(H_FF), so the only line search is along the Newton direction
        import spmd.qp as qp
        real = qp._box_line_step
        calls = []

        def spy(a, d, *args):
            calls.append(d)
            return real(a, d, *args)

        monkeypatch.setattr(qp, "_box_line_step", spy)
        rng = np.random.default_rng(60)
        a0 = np.full(3, 0.1)
        # about half of these draws round the residual's slope below zero,
        # which a second line search along it would pick up
        for _ in range(20):
            calls.clear()
            bf, gf = rng.standard_normal((5, 3)), rng.standard_normal(3)
            got = qp._free_set_step(bf, gf, a0.copy(), upper)
            assert len(calls) == 1
            p = -np.linalg.solve(bf.T @ bf, gf)
            np.testing.assert_allclose(calls[0], p, rtol=1e-10)
            bp = bf @ p
            want, _ = real(a0, p, float(gf @ p), float(bp @ bp), upper)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)

    def test_stationary_point_unchanged(self):
        a0 = np.array([0.3, 0.7])
        a = _free_set_step(np.eye(2), np.zeros(2), a0, 1.0)
        np.testing.assert_array_equal(a, a0)

    @pytest.mark.parametrize("d,k,rank", [
        (8, 5, None), (6, 6, None), (5, 30, None), (10, 6, 3), (6, 25, 3)],
        ids=["face<D", "face=D", "face>D", "deficient-face<D",
             "deficient-face>D"])
    def test_matches_the_svd_step(self, d, k, rank):
        # the Gram eigenpairs give the SVD step's directions; the step never
        # raises the face objective q(x) = 0.5|B_F(x - a)|^2 + gf'(x - a)
        rng = np.random.default_rng(61)
        for _ in range(50):
            bf = (rng.standard_normal((d, k)) if rank is None else
                  rng.standard_normal((d, rank)) @ rng.standard_normal((rank, k)))
            upper = float(rng.choice([0.5, 10.0]))
            a0, gf = rng.uniform(0.0, upper, k), rng.standard_normal(k)
            got = _free_set_step(bf, gf.copy(), a0.copy(), upper)
            want = svd_free_set_step(bf, gf.copy(), a0.copy(), upper)
            gap = np.linalg.norm((got - a0) - (want - a0))
            assert gap <= 1e-8 * np.linalg.norm(want - a0)
            step = bf @ (got - a0)
            assert 0.5 * (step @ step) + gf @ (got - a0) <= 0.0

    def test_takes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the free-set step took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rng = np.random.default_rng(62)
        for d, k in [(8, 5), (5, 30), (2, 3)]:
            bf = rng.standard_normal((d, k))
            _free_set_step(bf, rng.standard_normal(k), np.full(k, 0.5), 1.0)
        # a cut zero-curvature step that repeats
        _free_set_step(np.zeros((2, 3)), np.array([1.0, -1.0, -1.0]),
                       np.array([0.1, 0.5, 0.5]), 1.0)

    def test_box_line_step_matches_two_division_form(self):
        # random faces with zero directions, coordinates on both bounds and
        # zero or positive curvature: one masked division and one masked
        # write give the reference's point and drop bit for bit
        rng = np.random.default_rng(63)
        for _ in range(2000):
            k = int(rng.integers(1, 12))
            upper = float(rng.choice([0.5, 1.0, 10.0]))
            a = rng.uniform(0.0, upper, k)
            a[rng.random(k) < 0.2] = 0.0
            a[rng.random(k) < 0.2] = upper
            d = rng.standard_normal(k)
            d[rng.random(k) < 0.3] = 0.0
            d[rng.integers(k)] = rng.choice([-1.0, 1.0])
            curv = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 5.0))
            slope = -float(rng.uniform(0.0, 2.0))
            got, got_drop = _box_line_step(a, d, slope, curv, upper)
            want, want_drop = box_line_step(a, d, slope, curv, upper)
            np.testing.assert_array_equal(got, want)
            assert got_drop == want_drop
