"""Tensor algebra unit tests.

Brute-force loop oracles pin the index conventions: unfoldings are checked
against an explicit index map, single-mode products against the
unfold/multiply identity, and CP/Tucker reconstructions against
entry-by-entry summation.
"""

import itertools

import numpy as np
import pytest

from oracles import inner, vec
from spmd.data import LabeledDataset, _unit_rank1
from spmd.margins import signed_margins
from spmd.tensor import (DenseTensor, cp_reconstruct, khatri_rao, kron_chain,
                         tucker_reconstruct, unfold, unvec)


def random_tensor(rng, dims):
    return DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))


def mode_product(t, u, mode):
    """t times u along ``mode`` alone: a Tucker product with identities elsewhere."""
    return tucker_reconstruct(
        t, [u if m == mode else np.eye(d) for m, d in enumerate(t.dims, start=1)])


def source_arrays():
    """C-ordered, F-ordered and non-contiguous 2 x 3 x 4 sources."""
    base = np.random.default_rng(30).standard_normal((4, 6, 8))
    return {"c": np.ascontiguousarray(base[:2, :3, :4]),
            "f": np.asfortranarray(base[:2, :3, :4]),
            "strided": base[::2, ::2, ::2]}


class TestDenseTensor:
    def test_buffer_is_column_major(self):
        # entry (i1, i2) sits at flat position i1 + I1*i2
        t = DenseTensor((2, 3), np.arange(6.0))
        arr = t.to_array()
        assert arr[1, 2] == 1 + 2 * 2
        assert arr[0, 1] == 2.0

    def test_array_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((2, 3, 4))
        t = DenseTensor(arr.shape, arr)
        assert t.dims == (2, 3, 4)
        np.testing.assert_array_equal(t.to_array(), arr)

    def test_buffer_read_only_and_copied(self):
        buf = np.zeros(4)
        t = DenseTensor((2, 2), buf)
        buf[0] = 7.0
        assert t.data[0] == 0.0
        with pytest.raises(ValueError):
            t.data[0] = 1.0

    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_direct_never_aliases_source(self, layout):
        src = source_arrays()[layout]
        want = src.copy()
        t = DenseTensor(src.shape, src)
        assert not np.shares_memory(t.data, src)
        src[...] = 0.0
        np.testing.assert_array_equal(t.to_array(), want)

    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_from_array_never_aliases_source(self, layout):
        # an array taken out with to_array and built into a new tensor is
        # copied again: neither tensor shares memory with the source or the other
        src = source_arrays()[layout]
        want = src.copy()
        t = DenseTensor(src.shape, src)
        out = t.to_array()
        t2 = DenseTensor(out.shape, out)
        assert not np.shares_memory(t2.data, t.data)
        assert not np.shares_memory(t2.data, src)
        src[...] = 0.0
        np.testing.assert_array_equal(t.to_array(), want)
        np.testing.assert_array_equal(t2.to_array(), want)

    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_direct_reads_array_of_shape_dims(self, layout):
        # an array of shape dims is read by index, whatever its memory layout
        src = source_arrays()[layout]
        np.testing.assert_array_equal(DenseTensor(src.shape, src).to_array(), src)
        np.testing.assert_array_equal(DenseTensor(src.shape, src).data,
                                      src.ravel(order="F"))

    def test_direct_rejects_other_array_shapes(self):
        src = source_arrays()["c"]
        with pytest.raises(ValueError, match="shape"):
            DenseTensor((src.size,), src)
        with pytest.raises(ValueError, match="shape"):
            DenseTensor((4, 3, 2), src)

    def test_norm_matches_flat(self):
        rng = np.random.default_rng(1)
        t = random_tensor(rng, (3, 2, 2))
        assert t.norm() == pytest.approx(float(np.linalg.norm(t.data)), rel=1e-15)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor((2, 2), np.zeros(5))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor((2, 0), np.zeros(0))
        with pytest.raises(ValueError):
            DenseTensor((), np.zeros(1))

    def test_scalar_rejected(self):
        scalar = np.float64(3.0)
        with pytest.raises(ValueError, match="dims must be one or more positive integers"):
            DenseTensor(np.shape(scalar), scalar)


class TestVec:
    def test_vec_stacks_columns(self):
        # unvec reads a flat buffer as stacked columns
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        buf = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(unvec(buf, (2, 2)), m)

    def test_unvec_inverts(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(unvec(m.ravel(order="F"), (3, 5)), m)


class TestOuterProduct:
    def test_triple_loop_oracle(self):
        # the data generators' flat rank-1 direction, read column-major
        flat = _unit_rank1(np.random.default_rng(3), (2, 3, 2))
        t = DenseTensor((2, 3, 2), flat).to_array()
        rng = np.random.default_rng(3)
        a, b, c = (v / np.linalg.norm(v) for v in
                   (rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(2)))
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    assert t[i, j, k] == pytest.approx(a[i] * b[j] * c[k], abs=1e-15)


class TestUnfold:
    def test_matrix_mode1_is_itself(self):
        t = DenseTensor((2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(unfold(t, 1), [[1.0, 2.0], [3.0, 4.0]])

    def test_matrix_mode2_is_transpose(self):
        t = DenseTensor((2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(unfold(t, 2), [[1.0, 3.0], [2.0, 4.0]])

    def test_index_map_all_modes(self):
        # entry (i_1, ..., i_M) sits at row i_m and at the column that
        # enumerates the other indices with lower modes varying fastest
        rng = np.random.default_rng(4)
        for dims in [(2, 3, 2), (2, 3, 2, 4)]:
            t = random_tensor(rng, dims)
            arr = t.to_array()
            for m in range(1, len(dims) + 1):
                u = unfold(t, m)
                rest = dims[: m - 1] + dims[m:]
                assert u.shape == (dims[m - 1], int(np.prod(rest)))
                for idx in itertools.product(*(range(d) for d in dims)):
                    others = idx[: m - 1] + idx[m:]
                    col, stride = 0, 1
                    for i, d in zip(others, rest):
                        col += i * stride
                        stride *= d
                    assert u[idx[m - 1], col] == arr[idx]

    def test_column_order_lower_modes_fastest(self):
        # column j of unfold(t, m) enumerates the other indices with the
        # lowest remaining mode varying fastest
        rng = np.random.default_rng(5)
        dims = (3, 4, 2)
        t = random_tensor(rng, dims)
        arr = t.to_array()
        u = unfold(t, 2)
        for i2 in range(4):
            for i1 in range(3):
                for i3 in range(2):
                    assert u[i2, i1 + 3 * i3] == arr[i1, i2, i3]

    def test_mode_out_of_range(self):
        t = DenseTensor((2, 2), np.zeros(4))
        with pytest.raises(ValueError):
            unfold(t, 0)
        with pytest.raises(ValueError):
            unfold(t, 3)


class TestModeNProduct:
    # one step of tucker_reconstruct's contraction chain

    def test_identity_matrix_is_noop(self):
        rng = np.random.default_rng(8)
        t = random_tensor(rng, (2, 3, 2))
        out = mode_product(t, np.eye(3), 2)
        np.testing.assert_array_equal(out.data, t.data)

    def test_ones_row_sums_fibers(self):
        t = DenseTensor((2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = mode_product(t, np.ones((1, 2)), 1)
        assert out.dims == (1, 2)
        np.testing.assert_allclose(out.to_array(), [[4.0, 6.0]])

    def test_unfolding_identity_oracle(self):
        rng = np.random.default_rng(9)
        t = random_tensor(rng, (2, 3, 2))
        u = rng.standard_normal((4, 3))
        out = mode_product(t, u, 2)
        assert out.dims == (2, 4, 2)
        lhs = unfold(out, 2)
        rhs = u @ unfold(t, 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        t = DenseTensor((2, 3), np.zeros(6))
        with pytest.raises(ValueError):
            mode_product(t, np.eye(2), 2)


class TestInner:
    """The package's inner product, a dot of flat buffers, against the
    entry-by-entry oracle."""

    def test_all_ones_counts_entries(self):
        t = DenseTensor((2, 2, 2), np.ones(8))
        assert t.data @ t.data == 8.0 == inner(t, t)

    def test_zero_partner(self):
        rng = np.random.default_rng(10)
        a = random_tensor(rng, (3, 2))
        z = DenseTensor((3, 2), np.zeros(6))
        assert a.data @ z.data == 0.0 == inner(a, z)

    def test_matches_flat_dot(self):
        rng = np.random.default_rng(11)
        a = random_tensor(rng, (2, 3, 2))
        b = random_tensor(rng, (2, 3, 2))
        assert float(a.data @ b.data) == pytest.approx(inner(a, b), rel=1e-14)

    def test_norm_consistency(self):
        rng = np.random.default_rng(12)
        t = random_tensor(rng, (3, 3, 2))
        assert t.norm() ** 2 == pytest.approx(inner(t, t), rel=1e-12)

    def test_shape_mismatch(self):
        # a (3, 2) weight and (2, 3) samples have equal flat sizes, so a bare
        # dot of buffers would go through; the package checks the shape
        rows = LabeledDataset(np.zeros((2, 6)), (2, 3), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="dims"):
            signed_margins(DenseTensor((3, 2), np.zeros(6)), rows)


class TestKron:
    def test_identity_blocks(self):
        np.testing.assert_array_equal(kron_chain([np.eye(2), np.eye(2)]), np.eye(4))

    def test_row_vectors_hand_forced(self):
        out = kron_chain([np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]])])
        np.testing.assert_array_equal(out, [[1.0, 0.0, 2.0, 0.0]])

    def test_vec_identity(self):
        # vec(B X A^T) = (A kron B) vec(X) with column-stacking vec
        rng = np.random.default_rng(13)
        a, b, x = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = vec(b @ x @ a.T)
        rhs = kron_chain([a, b]) @ vec(x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_chain_is_left_associative(self):
        rng = np.random.default_rng(14)
        mats = [rng.standard_normal((2, 2)) for _ in range(3)]
        np.testing.assert_allclose(
            kron_chain(mats), np.kron(np.kron(mats[0], mats[1]), mats[2]),
            rtol=1e-12)

    def test_empty_chain_is_identity(self):
        np.testing.assert_array_equal(kron_chain([]), np.eye(1))


class TestKhatriRao:
    def test_columnwise_kron(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 3))
        out = khatri_rao([a, b])
        assert out.shape == (8, 3)
        for j in range(3):
            np.testing.assert_allclose(out[:, j], np.kron(a[:, j], b[:, j]), rtol=1e-12)

    def test_empty_list_convention(self):
        np.testing.assert_array_equal(khatri_rao([], empty_cols=4), np.ones((1, 4)))

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao([np.zeros((2, 2)), np.zeros((2, 3))])


class TestCpReconstruct:
    def test_rank1_equals_outer(self):
        rng = np.random.default_rng(16)
        a, b = rng.standard_normal(3), rng.standard_normal(4)
        t = cp_reconstruct([a[:, None], b[:, None]])
        ref = np.multiply.outer(a, b)
        np.testing.assert_allclose(t.to_array(), ref, rtol=1e-14)

    def test_zero_second_component(self):
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal(3), rng.standard_normal(2)
        f1 = np.column_stack([a, np.zeros(3)])
        f2 = np.column_stack([b, np.zeros(2)])
        np.testing.assert_allclose(
            cp_reconstruct([f1, f2]).data,
            cp_reconstruct([a[:, None], b[:, None]]).data, rtol=1e-14)

    def test_brute_force_summation_oracle(self):
        rng = np.random.default_rng(18)
        f = [rng.standard_normal((d, 3)) for d in (2, 3, 2)]
        t = cp_reconstruct(f).to_array()
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    want = sum(f[0][i, r] * f[1][j, r] * f[2][k, r] for r in range(3))
                    assert t[i, j, k] == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_unfolding_matches_khatri_rao(self):
        # unfold(W, m) = V_m @ khatri_rao(higher factors first, skipping m).T
        rng = np.random.default_rng(19)
        f = [rng.standard_normal((d, 2)) for d in (2, 3, 4)]
        w = cp_reconstruct(f)
        for m in (1, 2, 3):
            others = [f[k] for k in range(2, -1, -1) if k != m - 1]
            rhs = f[m - 1] @ khatri_rao(others).T
            np.testing.assert_allclose(unfold(w, m), rhs, rtol=1e-12, atol=1e-13)

    def test_inconsistent_rank(self):
        with pytest.raises(ValueError):
            cp_reconstruct([np.zeros((2, 2)), np.zeros((3, 1))])

    def test_no_factor_or_no_column_rejected(self):
        with pytest.raises(ValueError, match="at least one factor"):
            cp_reconstruct([])
        with pytest.raises(ValueError, match="rank must be at least 1"):
            cp_reconstruct([np.zeros((2, 0))])
        with pytest.raises(ValueError, match="rank must be at least 1"):
            cp_reconstruct([np.zeros((2, 0)), np.zeros((3, 0))])


class TestTuckerReconstruct:
    def test_identity_factors(self):
        rng = np.random.default_rng(20)
        core = random_tensor(rng, (2, 3))
        out = tucker_reconstruct(core, [np.eye(2), np.eye(3)])
        np.testing.assert_allclose(out.data, core.data, rtol=1e-14)

    def test_diagonal_core_equals_cp(self):
        rng = np.random.default_rng(21)
        f = [rng.standard_normal((d, 2)) for d in (3, 2, 3)]
        core_arr = np.zeros((2, 2, 2))
        core_arr[0, 0, 0] = core_arr[1, 1, 1] = 1.0
        out = tucker_reconstruct(DenseTensor(core_arr.shape, core_arr), f)
        np.testing.assert_allclose(out.data, cp_reconstruct(f).data, rtol=1e-12, atol=1e-13)

    def test_nested_loop_oracle(self):
        rng = np.random.default_rng(22)
        core = random_tensor(rng, (2, 2, 2))
        f = [rng.standard_normal((3, 2)) for _ in range(3)]
        t = tucker_reconstruct(core, f).to_array()
        g = core.to_array()
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    want = sum(
                        g[a, b, c] * f[0][i, a] * f[1][j, b] * f[2][k, c]
                        for a in range(2) for b in range(2) for c in range(2))
                    assert t[i, j, k] == pytest.approx(want, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("dims,ranks", [
        ((4,), (3,)), ((3, 2), (2, 3)), ((2, 3, 2), (3, 2, 2)),
        ((2, 2, 3, 2), (2, 3, 2, 1))])
    def test_nested_loop_oracle_orders_1_to_4(self, dims, ranks):
        # every case but order 1 has a factor with more columns than rows
        rng = np.random.default_rng(24)
        core = random_tensor(rng, ranks)
        f = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        w = tucker_reconstruct(core, f)
        assert w.dims == dims
        t, g = w.to_array(), core.to_array()
        for idx in itertools.product(*(range(d) for d in dims)):
            want = sum(g[r] * np.prod([f[m][idx[m], r[m]] for m in range(len(dims))])
                       for r in itertools.product(*(range(k) for k in ranks)))
            assert t[idx] == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_unfolding_matches_kron_form(self):
        rng = np.random.default_rng(23)
        core = random_tensor(rng, (2, 3, 2))
        f = [rng.standard_normal((d, r)) for d, r in zip((4, 5, 3), (2, 3, 2))]
        w = tucker_reconstruct(core, f)
        for m in (1, 2, 3):
            others = [f[k] for k in range(2, -1, -1) if k != m - 1]
            rhs = f[m - 1] @ unfold(core, m) @ kron_chain(others).T
            np.testing.assert_allclose(unfold(w, m), rhs, rtol=1e-11, atol=1e-12)

    def test_mismatch_rejected(self):
        core = DenseTensor((2, 2), np.zeros(4))
        with pytest.raises(ValueError):
            tucker_reconstruct(core, [np.eye(2)])
        with pytest.raises(ValueError):
            tucker_reconstruct(core, [np.zeros((3, 3)), np.eye(2)])

