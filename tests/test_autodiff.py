"""Unit tests for the autodiff engine.

Derived expectations are checked against independent oracles: naive loop
implementations, finite differences, and mpmath extended precision.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pointreg import autodiff as ad

from conftest import assert_grads_match


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def f64(data, requires_grad=False):
    return ad.Tensor(data, requires_grad=requires_grad, dtype=np.float64)


class TestLinear:
    def test_identity_weights(self):
        out = ad.linear(f64([[1.0, 2.0]]), f64(np.eye(2)), f64([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_small_affine(self):
        out = ad.linear(f64([[1.0, 1.0]]), f64([[2.0], [3.0]]), f64([1.0]))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_matches_triple_loop_oracle(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        out = ad.linear(f64(x), f64(w), f64(b))
        oracle = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                acc = b[j]
                for k in range(4):
                    acc += x[i, k] * w[k, j]
                oracle[i, j] = acc
        np.testing.assert_allclose(out.data, oracle, rtol=1e-12, atol=1e-12)

    def test_gradients(self, rng):
        x = f64(rng.normal(size=(5, 3)), requires_grad=True)
        w = f64(rng.normal(size=(3, 4)), requires_grad=True)
        b = f64(rng.normal(size=4), requires_grad=True)
        assert_grads_match(lambda: ad.tensor_sum(ad.leaky_relu(ad.linear(x, w, b))), [x, w, b])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            ad.linear(f64(np.ones((2, 3))), f64(np.ones((2, 4))), f64(np.ones(4)))


class TestLeakyRelu:
    @pytest.mark.parametrize("x,expected", [(2.0, 2.0), (-2.0, -0.2), (0.0, 0.0)])
    def test_pointwise_values(self, x, expected):
        out = ad.leaky_relu(f64([x]), slope=0.1)
        np.testing.assert_allclose(out.data, [expected], atol=1e-15)

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.5, 2.0])
    def test_slope_out_of_range(self, slope):
        with pytest.raises(ValueError):
            ad.leaky_relu(f64([1.0]), slope=slope)

    def test_gradients(self, rng):
        x = f64(rng.normal(size=(4, 6)), requires_grad=True)
        assert_grads_match(lambda: ad.tensor_sum(ad.leaky_relu(x, 0.1)), [x])


class TestMaxPool:
    def test_columnwise_max(self):
        out = ad.max_pool_rows(f64([[1.0, 5.0], [3.0, 2.0]]), 2)
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_single_row_is_identity(self):
        out = ad.max_pool_rows(f64([[7.0, 8.0]]), 1)
        np.testing.assert_array_equal(out.data, [[7.0, 8.0]])

    def test_empty_set_rejected(self):
        with pytest.raises(ad.ShapeError, match="blocks of 0"):
            ad.max_pool_rows(f64(np.zeros((0, 3))), 0)

    def test_gradient_routes_to_first_argmax_on_ties(self):
        x = f64([[2.0, 1.0], [2.0, 3.0]], requires_grad=True)
        ad.tensor_sum(ad.max_pool_rows(x, 2)).backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_grouped_pool_matches_per_group(self, rng):
        x = rng.normal(size=(12, 5))
        grouped = ad.max_pool_rows(f64(x), 4)
        for g in range(3):
            np.testing.assert_array_equal(grouped.data[g], x[4 * g : 4 * (g + 1)].max(axis=0))

    def test_gradients(self, rng):
        x = f64(rng.normal(size=(6, 4)), requires_grad=True)
        assert_grads_match(lambda: ad.tensor_sum(ad.max_pool_rows(x, 3)), [x])

    @given(
        hnp.arrays(np.float64, (7, 3), elements=st.floats(-100, 100)),
        st.permutations(range(7)),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, x, perm):
        a = ad.max_pool_rows(ad.Tensor(x, dtype=np.float64), x.shape[0])
        b = ad.max_pool_rows(ad.Tensor(x[list(perm)], dtype=np.float64), x.shape[0])
        np.testing.assert_array_equal(a.data, b.data)


class TestConv:
    def test_all_ones_sums_window(self):
        out = ad.conv_valid(f64(np.ones((1, 3, 3))), f64(np.ones((1, 1, 3, 3))), f64([0.0]))
        assert out.data.shape == (1, 1, 1)
        np.testing.assert_allclose(out.data, [[[9.0]]])

    def test_one_by_one_kernel_is_identity(self, rng):
        x = rng.normal(size=(1, 4, 5))
        out = ad.conv_valid(f64(x), f64(np.ones((1, 1, 1, 1))), f64([0.0]))
        np.testing.assert_allclose(out.data, x, rtol=1e-15)

    def test_matches_six_loop_oracle_2d(self, rng):
        x = rng.normal(size=(2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = ad.conv_valid(f64(x), f64(k), f64(b))
        oracle = np.zeros((3, 3, 3))
        for co in range(3):
            for i in range(3):
                for j in range(3):
                    acc = b[co]
                    for ci in range(2):
                        for di in range(3):
                            for dj in range(3):
                                acc += x[ci, i + di, j + dj] * k[co, ci, di, dj]
                    oracle[co, i, j] = acc
        np.testing.assert_allclose(out.data, oracle, rtol=1e-10, atol=1e-10)

    def test_matches_loop_oracle_3d(self, rng):
        x = rng.normal(size=(2, 4, 3, 3))
        k = rng.normal(size=(2, 2, 2, 2, 2))
        b = rng.normal(size=2)
        out = ad.conv_valid(f64(x), f64(k), f64(b))
        oracle = np.zeros((2, 3, 2, 2))
        for co in range(2):
            for i in range(3):
                for j in range(2):
                    for l in range(2):
                        acc = b[co]
                        for ci in range(2):
                            for d in np.ndindex(2, 2, 2):
                                acc += x[ci, i + d[0], j + d[1], l + d[2]] * k[(co, ci) + d]
                        oracle[co, i, j, l] = acc
        np.testing.assert_allclose(out.data, oracle, rtol=1e-10, atol=1e-10)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ad.ShapeError, match="larger"):
            ad.conv_valid(f64(np.ones((1, 2, 2))), f64(np.ones((1, 1, 3, 3))), f64([0.0]))

    def test_gradients_2d(self, rng):
        x = f64(rng.normal(size=(2, 4, 4)), requires_grad=True)
        k = f64(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        b = f64(rng.normal(size=3), requires_grad=True)
        assert_grads_match(lambda: ad.tensor_sum(ad.leaky_relu(ad.conv_valid(x, k, b))), [x, k, b])

    def test_gradients_3d(self, rng):
        x = f64(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        k = f64(rng.normal(size=(2, 2, 2, 2, 2)), requires_grad=True)
        b = f64(rng.normal(size=2), requires_grad=True)
        assert_grads_match(lambda: ad.tensor_sum(ad.conv_valid(x, k, b)), [x, k, b])


class TestBatchNorm:
    def test_train_normalizes_to_zero_mean_unit_variance(self):
        x = f64([[-1.0], [1.0]])
        out = ad.batch_norm(x, f64([1.0]), f64([0.0]), ad.init_batch_norm(1, np.float64), train=True)
        np.testing.assert_allclose(out.data.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(), 1.0, rtol=1e-4)

    def test_eval_with_neutral_stats_is_identity(self, rng):
        x = rng.normal(size=(3, 4))
        state = ad.init_batch_norm(4, np.float64)
        out = ad.batch_norm(f64(x), f64(np.ones(4)), f64(np.zeros(4)), state, train=False)
        np.testing.assert_allclose(out.data, x, rtol=1e-5)

    def test_running_stats_update(self, rng):
        # One train-mode call moves the stats by momentum toward batch stats.
        x = rng.normal(size=(8, 3))
        state = ad.init_batch_norm(3, np.float64)
        ad.batch_norm(f64(x), f64(np.ones(3)), f64(np.zeros(3)), state, train=True)
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(state.running_var, 0.9 + 0.1 * x.var(axis=0), rtol=1e-12)

    def test_eval_does_not_touch_stats(self, rng):
        x = rng.normal(size=(4, 2))
        state = ad.init_batch_norm(2, np.float64)
        before = (state.running_mean.copy(), state.running_var.copy())
        ad.batch_norm(f64(x), f64(np.ones(2)), f64(np.zeros(2)), state, train=False)
        np.testing.assert_array_equal(state.running_mean, before[0])
        np.testing.assert_array_equal(state.running_var, before[1])

    def test_single_row_train_rejected(self):
        with pytest.raises(ad.ShapeError, match="at least 2"):
            ad.batch_norm(
                f64([[1.0, 2.0]]), f64(np.ones(2)), f64(np.zeros(2)),
                ad.init_batch_norm(2, np.float64), train=True,
            )

    def test_train_gradients_match_finite_differences(self, rng):
        x = f64(rng.normal(size=(6, 3)), requires_grad=True)
        sc = f64(rng.normal(size=3) + 1.5, requires_grad=True)
        sh = f64(rng.normal(size=3), requires_grad=True)

        def build():
            state = ad.init_batch_norm(3, np.float64)
            out = ad.batch_norm(x, sc, sh, state, train=True)
            return ad.scale(ad.tensor_sum(ad.leaky_relu(out)), 1.0 / 18.0)

        assert_grads_match(build, [x, sc, sh], rtol=1e-4, atol=1e-5)

    def test_eval_gradients(self, rng):
        x = f64(rng.normal(size=(5, 2)), requires_grad=True)
        sc = f64(rng.normal(size=2) + 1.0, requires_grad=True)
        sh = f64(rng.normal(size=2), requires_grad=True)
        state = ad.BatchNormState(
            running_mean=rng.normal(size=2), running_var=rng.uniform(0.5, 2.0, size=2)
        )
        assert_grads_match(
            lambda: ad.tensor_sum(ad.leaky_relu(ad.batch_norm(x, sc, sh, state, train=False))),
            [x, sc, sh],
        )

class TestFusedDense:
    """dense_bn_act must agree with the linear/batch_norm/leaky_relu chain."""

    def _params(self, rng, n=11, d_in=5, d_out=7):
        return {
            "x": rng.normal(size=(n, d_in)),
            "w": rng.normal(size=(d_in, d_out)),
            "b": rng.normal(size=d_out),
            "sc": rng.normal(size=d_out) + 1.5,
            "sh": rng.normal(size=d_out),
        }

    def _run(self, p, state, fused, train):
        leaves = {k: f64(v, requires_grad=True) for k, v in p.items()}
        if fused:
            out = ad.dense_bn_act(
                leaves["x"], leaves["w"], leaves["b"], leaves["sc"], leaves["sh"],
                state, train=train, slope=0.1,
            )
        else:
            z = ad.linear(leaves["x"], leaves["w"], leaves["b"])
            out = ad.leaky_relu(ad.batch_norm(z, leaves["sc"], leaves["sh"], state, train), 0.1)
        data = out.data.copy()
        ad.tensor_sum(ad.reshape(out, (1, out.data.size))).backward()
        return data, {k: t.grad for k, t in leaves.items()}

    @pytest.mark.parametrize("train", [True, False])
    def test_matches_composed_route(self, rng, train):
        p = self._params(rng)
        states = [ad.init_batch_norm(7, np.float64) for _ in range(2)]
        if not train:
            for st_ in states:
                st_.running_mean[:] = rng.normal(size=7)
                st_.running_var[:] = rng.uniform(0.5, 2.0, size=7)
            states[1].running_mean[:] = states[0].running_mean
            states[1].running_var[:] = states[0].running_var
        ref, ref_grads = self._run(p, states[0], fused=False, train=train)
        got, got_grads = self._run(p, states[1], fused=True, train=train)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
        for k in ref_grads:
            np.testing.assert_allclose(got_grads[k], ref_grads[k], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(states[1].running_mean, states[0].running_mean, rtol=1e-12)
        np.testing.assert_allclose(states[1].running_var, states[0].running_var, rtol=1e-12)

    @pytest.mark.parametrize("train", [True, False])
    def test_gradients_match_finite_differences(self, rng, train):
        p = self._params(rng, n=8, d_in=3, d_out=4)
        leaves = [f64(v, requires_grad=True) for v in p.values()]

        def build():
            state = ad.init_batch_norm(4, np.float64)
            state.running_mean[:] = 0.2
            state.running_var[:] = 1.3
            out = ad.dense_bn_act(*leaves, state, train=train, slope=0.1)
            return ad.scale(ad.tensor_sum(ad.reshape(out, (1, out.data.size))), 1.0 / 32)

        assert_grads_match(build, leaves, rtol=1e-4, atol=1e-6)

    def test_inference_without_grads_folds_cleanly(self, rng):
        # Constant inputs take a folded fast path; it must agree with the
        # graph route to rounding error.
        p = self._params(rng)
        state = ad.init_batch_norm(7, np.float64)
        state.running_mean[:] = rng.normal(size=7)
        state.running_var[:] = rng.uniform(0.5, 2.0, size=7)
        consts = {k: f64(v) for k, v in p.items()}
        fast = ad.dense_bn_act(
            consts["x"], consts["w"], consts["b"], consts["sc"], consts["sh"],
            state, train=False, slope=0.1,
        )
        assert fast._backward is None
        ref, _ = self._run(p, state, fused=True, train=False)
        np.testing.assert_allclose(fast.data, ref, rtol=1e-12, atol=1e-12)

    def test_second_backward_is_rejected(self, rng):
        p = self._params(rng)
        leaves = [f64(v, requires_grad=True) for v in p.values()]
        out = ad.dense_bn_act(*leaves, ad.init_batch_norm(7, np.float64), train=True)
        loss = ad.tensor_sum(ad.reshape(out, (1, out.data.size)))
        loss.backward()
        with pytest.raises(ad.GraphError, match="consumed"):
            loss.backward()

    def test_slope_bounds_validated(self, rng):
        p = self._params(rng)
        leaves = [f64(v) for v in p.values()]
        with pytest.raises(ValueError, match="slope"):
            ad.dense_bn_act(*leaves, ad.init_batch_norm(7, np.float64), train=False, slope=1.0)


class TestFusedConvBatch:
    """conv_bn_act_batch against per-element conv_valid plus shared batch norm."""

    @pytest.mark.parametrize("train", [True, False])
    def test_matches_composed_route(self, rng, train):
        xv = rng.normal(size=(3, 2, 5, 5))
        kv = rng.normal(size=(4, 2, 3, 3))
        bv = rng.normal(size=4)
        scv = rng.normal(size=4) + 1.2
        shv = rng.normal(size=4)

        def make_leaves():
            return {
                "k": f64(kv, requires_grad=True),
                "b": f64(bv, requires_grad=True),
                "sc": f64(scv, requires_grad=True),
                "sh": f64(shv, requires_grad=True),
            }

        def make_state():
            state = ad.init_batch_norm(4, np.float64)
            if not train:
                state.running_mean[:] = 0.25
                state.running_var[:] = 1.75
            return state

        # composed route: conv_valid per element, one batch norm over all rows
        leaves = make_leaves()
        state_ref = make_state()
        xs = [f64(xv[i], requires_grad=True) for i in range(3)]
        outs = [ad.conv_valid(x, leaves["k"], leaves["b"]) for x in xs]
        shape = outs[0].data.shape
        positions = int(np.prod(shape[1:]))
        rows = ad.concat_rows(
            [ad.transpose2d(ad.reshape(o, (shape[0], positions))) for o in outs]
        )
        rows = ad.leaky_relu(
            ad.batch_norm(rows, leaves["sc"], leaves["sh"], state_ref, train), 0.1
        )
        ref = np.stack(
            [
                rows.data[i * positions : (i + 1) * positions].T.reshape(shape)
                for i in range(3)
            ]
        )
        ad.tensor_sum(rows).backward()
        ref_grads = {k: t.grad for k, t in leaves.items()}
        ref_grads["x"] = np.stack([x.grad for x in xs])

        # fused route
        leaves = make_leaves()
        state_got = make_state()
        x = f64(xv, requires_grad=True)
        out = ad.conv_bn_act_batch(
            x, leaves["k"], leaves["b"], leaves["sc"], leaves["sh"],
            state_got, train=train, slope=0.1,
        )
        got = out.data.copy()
        ad.tensor_sum(ad.reshape(out, (1, out.data.size))).backward()
        got_grads = {k: t.grad for k, t in leaves.items()}
        got_grads["x"] = x.grad

        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-12)
        for k in ("k", "b", "sc", "sh", "x"):
            np.testing.assert_allclose(got_grads[k], ref_grads[k], rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(state_got.running_mean, state_ref.running_mean, rtol=1e-12)
        np.testing.assert_allclose(state_got.running_var, state_ref.running_var, rtol=1e-12)

    def test_3d_gradients_match_finite_differences(self, rng):
        leaves = [
            f64(rng.normal(size=(2, 2, 3, 3, 3)), requires_grad=True),
            f64(rng.normal(size=(3, 2, 2, 2, 2)), requires_grad=True),
            f64(rng.normal(size=3), requires_grad=True),
            f64(rng.normal(size=3) + 1.0, requires_grad=True),
            f64(rng.normal(size=3), requires_grad=True),
        ]

        def build():
            state = ad.init_batch_norm(3, np.float64)
            out = ad.conv_bn_act_batch(*leaves, state, train=True, slope=0.1)
            return ad.scale(ad.tensor_sum(ad.reshape(out, (1, out.data.size))), 0.25)

        assert_grads_match(build, leaves, rtol=1e-4, atol=1e-6)

    def test_kernel_too_large_rejected(self, rng):
        with pytest.raises(ad.ShapeError, match="larger than"):
            ad.conv_bn_act_batch(
                f64(rng.normal(size=(1, 1, 2, 2))),
                f64(rng.normal(size=(1, 1, 3, 3))),
                f64([0.0]), f64([1.0]), f64([0.0]),
                ad.init_batch_norm(1, np.float64), train=False,
            )


class TestBlockColumnNormalize:
    def test_unit_norms_per_block_column(self, rng):
        x = f64(rng.normal(size=(12, 5)))
        out = ad.l2_normalize_block_cols(x, block_rows=4)
        blocks = out.data.reshape(3, 4, 5)
        np.testing.assert_allclose(
            np.sqrt((blocks ** 2).sum(axis=1)), np.ones((3, 5)), rtol=1e-12
        )

    def test_matches_rowwise_normalize_of_transposed_blocks(self, rng):
        # Normalizing columns inside a block is row normalization of the
        # transposed block; the two routes must agree.
        xv = rng.normal(size=(8, 3))
        out = ad.l2_normalize_block_cols(f64(xv), block_rows=4).data
        expected = np.concatenate(
            [
                ad.l2_normalize_rows(f64(xv[4 * i : 4 * (i + 1)].T)).data.T
                for i in range(2)
            ],
            axis=0,
        )
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        x = f64(rng.normal(size=(6, 4)), requires_grad=True)
        assert_grads_match(
            lambda: ad.tensor_sum(ad.l2_normalize_block_cols(x, block_rows=3)),
            [x],
        )

    def test_indivisible_rows_rejected(self, rng):
        with pytest.raises(ad.ShapeError, match="blocks"):
            ad.l2_normalize_block_cols(f64(rng.normal(size=(7, 2))), block_rows=3)


class TestLogSumExp:
    def test_two_zeros(self):
        out = ad.log_sum_exp(f64([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(float(out.data), np.log(2.0), rtol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = ad.log_sum_exp(f64([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(float(out.data), 1000.0 + np.log(2.0), rtol=1e-12)

    def test_matches_extended_precision_oracle(self, rng):
        x = rng.normal(size=8) * 5.0
        out = float(ad.log_sum_exp(f64(x), axis=0).data)
        with mpmath.workdps(50):
            oracle = float(mpmath.log(mpmath.fsum(mpmath.exp(v) for v in x)))
        np.testing.assert_allclose(out, oracle, rtol=1e-12)

    def test_gradients(self, rng):
        x = f64(rng.normal(size=(3, 5)), requires_grad=True)
        assert_grads_match(lambda: ad.tensor_sum(ad.log_sum_exp(x, axis=1)), [x])

    @given(
        hnp.arrays(np.float64, 6, elements=st.floats(-50, 50)),
        st.floats(-100, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, c):
        base = float(ad.log_sum_exp(ad.Tensor(x, dtype=np.float64), axis=0).data)
        shifted = float(ad.log_sum_exp(ad.Tensor(x + c, dtype=np.float64), axis=0).data)
        np.testing.assert_allclose(shifted, base + c, atol=1e-10)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = f64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        x = f64([[1.0, -2.0, 3.0]], requires_grad=True)
        ad.tensor_sum(ad.matmul(x, x, transpose_b=True)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = f64(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.GraphError, match="scalar"):
            ad.leaky_relu(x).backward()

    def test_gradients_accumulate_across_uses(self):
        x = f64([[1.0, 2.0]], requires_grad=True)
        y = ad.add(x, x)
        ad.tensor_sum(y).backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])

    def test_constants_collect_no_gradient(self):
        x = f64(np.ones((2, 2)))
        w = f64(np.eye(2), requires_grad=True)
        ad.tensor_sum(ad.matmul(x, w)).backward()
        assert x.grad is None
        assert w.grad is not None


class TestPlumbingOps:
    def test_reshape_transpose_slice_concat_values(self, rng):
        x = rng.normal(size=(4, 3))
        t = f64(x)
        np.testing.assert_array_equal(ad.reshape(t, (2, 6)).data, x.reshape(2, 6))
        np.testing.assert_array_equal(ad.transpose2d(t).data, x.T)
        np.testing.assert_array_equal(ad.row_slice(t, 1, 3).data, x[1:3])
        np.testing.assert_array_equal(ad.concat_rows([t, t]).data, np.concatenate([x, x]))

    def test_plumbing_gradients(self, rng):
        x = f64(rng.normal(size=(4, 3)), requires_grad=True)

        def build():
            a = ad.transpose2d(ad.reshape(x, (3, 4)))
            b = ad.concat_rows([a, ad.row_slice(a, 0, 2)])
            return ad.tensor_sum(ad.l2_normalize_rows(b))

        assert_grads_match(build, [x])

    def test_pairwise_sqdist_matches_loops(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(4, 3))
        out = ad.pairwise_sqdist(f64(x), f64(y))
        oracle = np.zeros((5, 4))
        for i in range(5):
            for j in range(4):
                oracle[i, j] = np.sum((x[i] - y[j]) ** 2)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-12)

    def test_pairwise_sqdist_gradients(self, rng):
        x = f64(rng.normal(size=(4, 2)), requires_grad=True)
        y = f64(rng.normal(size=(5, 2)), requires_grad=True)
        assert_grads_match(
            lambda: ad.tensor_sum(ad.log_sum_exp(ad.scale(ad.pairwise_sqdist(x, y), -0.5), axis=1)),
            [x, y],
        )

    def test_l2_normalize_rows_unit_norm(self, rng):
        x = rng.normal(size=(6, 8))
        out = ad.l2_normalize_rows(f64(x))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(6), rtol=1e-12)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = f64([1.0, -2.0], requires_grad=True)
        state = ad.init_adam([p], 0.1)
        p.grad = np.zeros_like(p.data)
        ad.adam_step([p], state)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_size_close_to_lr(self):
        # With g=1 the bias-corrected update is lr/(1+eps), just under lr.
        p = f64([0.0], requires_grad=True)
        state = ad.init_adam([p], 0.1)
        p.grad = np.ones(1)
        ad.adam_step([p], state)
        np.testing.assert_allclose(p.data, [-0.1], rtol=1e-6)
        assert state.step_count == 1

    def test_effective_lr_decays_per_epoch(self):
        state = ad.init_adam([], 1e-4, decay=0.995)
        for k in (0, 1, 5, 30):
            state.epoch = k
            np.testing.assert_allclose(ad.effective_lr(state), 1e-4 * 0.995**k, rtol=1e-12)

    def test_missing_gradient_rejected(self):
        p = f64([1.0], requires_grad=True)
        state = ad.init_adam([p], 0.1)
        with pytest.raises(ad.GraphError, match="no gradient"):
            ad.adam_step([p], state)

    def test_minimizes_quadratic(self):
        p = f64(np.full(3, 5.0), requires_grad=True)
        state = ad.init_adam([p], 0.05)
        for _ in range(400):
            ad.zero_grads([p])
            row = ad.reshape(p, (1, 3))
            ad.tensor_sum(ad.matmul(row, row, transpose_b=True)).backward()
            ad.adam_step([p], state)
        assert np.abs(p.data).max() < 1e-3


class TestDeterminism:
    def test_forward_is_bitwise_reproducible(self, rng):
        x = rng.normal(size=(20, 4)).astype(np.float32)
        w = rng.normal(size=(4, 8)).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)

        def run():
            h = ad.linear(ad.Tensor(x), ad.Tensor(w, requires_grad=True), ad.Tensor(b))
            h = ad.leaky_relu(h, 0.1)
            h = ad.l2_normalize_rows(h)
            return ad.log_sum_exp(h, axis=1).data.tobytes()

        assert run() == run()

    def test_backward_is_bitwise_reproducible(self, rng):
        x = rng.normal(size=(10, 3)).astype(np.float32)

        def run():
            w = ad.Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
            loss = ad.tensor_sum(ad.leaky_relu(ad.linear(ad.Tensor(x), w, ad.Tensor(np.zeros(2)))))
            loss.backward()
            return w.grad.tobytes()

        assert run() == run()
