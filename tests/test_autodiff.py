"""Unit tests for the autodiff engine.

Derived expectations are checked against independent oracles: naive loop
implementations, finite differences, and mpmath extended precision.
"""

import contextlib
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pointreg import autodiff as ad

import reference_ops as refops
from conftest import Boom, CountingPool, assert_grads_match, switching_often


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def f64(data, requires_grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


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
        assert_grads_match(lambda: refops.tensor_sum(refops.leaky_relu(ad.linear(x, w, b))), [x, w, b])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            ad.linear(f64(np.ones((2, 3))), f64(np.ones((2, 4))), f64(np.ones(4)))


class TestLeakyRelu:
    @pytest.mark.parametrize("x,expected", [(2.0, 2.0), (-2.0, -0.2), (0.0, 0.0)])
    def test_pointwise_values(self, x, expected):
        out = refops.leaky_relu(f64([x]))
        np.testing.assert_allclose(out.data, [expected], atol=1e-15)

    def test_gradients(self, rng):
        x = f64(rng.normal(size=(4, 6)), requires_grad=True)
        assert_grads_match(lambda: refops.tensor_sum(refops.leaky_relu(x)), [x])


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
        refops.tensor_sum(ad.max_pool_rows(x, 2)).backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_grouped_pool_matches_per_group(self, rng):
        x = rng.normal(size=(12, 5))
        grouped = ad.max_pool_rows(f64(x), 4)
        for g in range(3):
            np.testing.assert_array_equal(grouped.data[g], x[4 * g : 4 * (g + 1)].max(axis=0))

    def test_gradients(self, rng):
        x = f64(rng.normal(size=(6, 4)), requires_grad=True)
        assert_grads_match(lambda: refops.tensor_sum(ad.max_pool_rows(x, 3)), [x])

    @given(
        hnp.arrays(np.float64, (7, 3), elements=st.floats(-100, 100)),
        st.permutations(range(7)),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, x, perm):
        a = ad.max_pool_rows(f64(x), x.shape[0])
        b = ad.max_pool_rows(f64(x[list(perm)]), x.shape[0])
        np.testing.assert_array_equal(a.data, b.data)


class TestConv:
    def test_all_ones_sums_window(self):
        out = refops.conv_valid(f64(np.ones((1, 3, 3))), f64(np.ones((1, 1, 3, 3))), f64([0.0]))
        assert out.data.shape == (1, 1, 1)
        np.testing.assert_allclose(out.data, [[[9.0]]])

    def test_one_by_one_kernel_is_identity(self, rng):
        x = rng.normal(size=(1, 4, 5))
        out = refops.conv_valid(f64(x), f64(np.ones((1, 1, 1, 1))), f64([0.0]))
        np.testing.assert_allclose(out.data, x, rtol=1e-15)

    def test_matches_six_loop_oracle_2d(self, rng):
        x = rng.normal(size=(2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = refops.conv_valid(f64(x), f64(k), f64(b))
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
        out = refops.conv_valid(f64(x), f64(k), f64(b))
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
            refops.conv_valid(f64(np.ones((1, 2, 2))), f64(np.ones((1, 1, 3, 3))), f64([0.0]))

    def test_gradients_2d(self, rng):
        x = f64(rng.normal(size=(2, 4, 4)), requires_grad=True)
        k = f64(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        b = f64(rng.normal(size=3), requires_grad=True)
        assert_grads_match(lambda: refops.tensor_sum(refops.leaky_relu(refops.conv_valid(x, k, b))), [x, k, b])

    def test_gradients_3d(self, rng):
        x = f64(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        k = f64(rng.normal(size=(2, 2, 2, 2, 2)), requires_grad=True)
        b = f64(rng.normal(size=2), requires_grad=True)
        assert_grads_match(lambda: refops.tensor_sum(refops.conv_valid(x, k, b)), [x, k, b])


class TestBatchNorm:
    def test_train_normalizes_to_zero_mean_unit_variance(self):
        x = f64([[-1.0], [1.0]])
        out = refops.batch_norm(x, f64([1.0]), f64([0.0]))
        np.testing.assert_allclose(out.data.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(), 1.0, rtol=1e-4)

    def test_single_row_train_rejected(self):
        with pytest.raises(ad.ShapeError, match="at least 2"):
            refops.batch_norm(f64([[1.0, 2.0]]), f64(np.ones(2)), f64(np.zeros(2)))

    def test_train_gradients_match_finite_differences(self, rng):
        x = f64(rng.normal(size=(6, 3)), requires_grad=True)
        sc = f64(rng.normal(size=3) + 1.5, requires_grad=True)
        sh = f64(rng.normal(size=3), requires_grad=True)

        def build():
            out = refops.batch_norm(x, sc, sh)
            return refops.scale(refops.tensor_sum(refops.leaky_relu(out)), 1.0 / 18.0)

        assert_grads_match(build, [x, sc, sh], rtol=1e-4, atol=1e-5)


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

    def _run(self, p, fused):
        leaves = {k: f64(v, requires_grad=True) for k, v in p.items()}
        if fused:
            out = ad.dense_bn_act(leaves["x"], leaves["w"], leaves["b"], leaves["sc"], leaves["sh"])
        else:
            z = ad.linear(leaves["x"], leaves["w"], leaves["b"])
            out = refops.leaky_relu(refops.batch_norm(z, leaves["sc"], leaves["sh"]))
        data = out.data.copy()
        refops.tensor_sum(ad.reshape(out, (1, out.data.size))).backward()
        return data, {k: t.grad for k, t in leaves.items()}

    def test_matches_composed_route(self, rng):
        p = self._params(rng)
        ref, ref_grads = self._run(p, fused=False)
        got, got_grads = self._run(p, fused=True)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
        for k in ref_grads:
            np.testing.assert_allclose(got_grads[k], ref_grads[k], rtol=1e-10, atol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        p = self._params(rng, n=8, d_in=3, d_out=4)
        leaves = [f64(v, requires_grad=True) for v in p.values()]

        def build():
            out = ad.dense_bn_act(*leaves)
            return refops.scale(refops.tensor_sum(ad.reshape(out, (1, out.data.size))), 1.0 / 32)

        assert_grads_match(build, leaves, rtol=1e-4, atol=1e-6)

    def test_second_backward_is_rejected(self, rng):
        p = self._params(rng)
        leaves = [f64(v, requires_grad=True) for v in p.values()]
        out = ad.dense_bn_act(*leaves)
        loss = refops.tensor_sum(ad.reshape(out, (1, out.data.size)))
        loss.backward()
        with pytest.raises(ad.GraphError, match="consumed"):
            loss.backward()


def assert_rel_close(got, ref, tol, what):
    """Max absolute difference within ``tol`` times the reference's max."""
    err = np.abs(got - ref).max() / np.abs(ref).max()
    assert err <= tol, f"{what}: relative error {err:.3g} above {tol:g}"


def mlp_layers(rng, widths, dim, dtype=np.float64, scales=None):
    """Descriptor-MLP layers as ``pooled_mlp`` reads them, on dyadic grids:
    fan-in-sized weights in eighths, biases in eighths, and random scales
    and shifts; ``scales`` replaces the last layer's first scales."""
    layers, d_in = [], 2 * dim
    for i, width in enumerate(widths):
        limit = np.sqrt(6.0 / d_in)
        sc = rng.normal(size=width) + 1.5
        if scales is not None and i == len(widths) - 1:
            sc[:len(scales)] = scales
        values = [np.round(rng.uniform(-limit, limit, size=(d_in, width)) * 8) / 8,
                  rng.integers(-8, 9, size=width) / 8.0, sc, rng.normal(size=width)]
        layers.append(SimpleNamespace(**{k: ad.Tensor(np.asarray(v, dtype=dtype), requires_grad=True) for k, v in
                                         zip(("weight", "bias", "bn_scale", "bn_shift"), values)}))
        d_in = width
    return layers


def layer_grads(layers):
    return [t.grad for layer in layers for t in (layer.weight, layer.bias, layer.bn_scale, layer.bn_shift)]


class TestFusedDensePool:
    """pooled_mlp, the blocked descriptor MLP with its max-pool, against the
    composed route: the ``[grid point, set point]`` rows tiled here, a
    dense_bn_act per layer, and max_pool_rows on each set."""

    SIZES = (5, 3, 5, 7)

    @staticmethod
    def grid(*shape):
        return np.array(list(product(*[np.linspace(-1.0, 1.0, s) for s in shape])))

    @staticmethod
    def composed(sets, grid, layers):
        g, dim = grid.shape
        rows = np.concatenate([np.concatenate([np.repeat(grid, len(pts), axis=0), np.tile(pts, (g, 1))], axis=1)
                               for pts in sets])
        h = ad.Tensor(rows.astype(layers[0].weight.data.dtype))
        for layer in layers:
            h = ad.dense_bn_act(h, layer.weight, layer.bias, layer.bn_scale, layer.bn_shift)
        parts, lo = [], 0
        for pts in sets:
            parts.append(ad.max_pool_rows(refops.row_slice(h, lo, lo + g * len(pts)), len(pts)))
            lo += g * len(pts)
        return refops.concat_rows(parts)

    @staticmethod
    def backward(out, upstream):
        """Pull ``upstream`` back through ``out``: the loss is their inner product."""
        refops.tensor_sum(refops.matmul(ad.reshape(out, (1, out.data.size)), upstream.reshape(-1, 1))).backward()

    def test_matches_composed_route(self, rng):
        # dyadic points on a dyadic 5x5 grid (two blocks per set), each set
        # holding copies of its points, so that pooled rows tie; the last
        # layer has a negative scale and a zero one
        grid = self.grid(5, 5)
        sets = []
        for k in self.SIZES:
            pts = rng.integers(-8, 9, size=(k, 2)) / 4.0
            pts[-1] = pts[0]
            sets.append(pts)
        got = {}
        for route in ("fused", "composed"):
            layers = mlp_layers(np.random.default_rng(7), (4, 6, 7), 2, scales=(-1.3, 0.0))
            if route == "fused":
                out = ad.pooled_mlp(sets, grid, layers)
            else:
                out = self.composed(sets, grid, layers)
            data = out.data.copy()
            self.backward(out, np.random.default_rng(8).normal(size=out.data.size))
            got[route] = (data, layer_grads(layers))
        assert_rel_close(got["fused"][0], got["composed"][0], 1e-10, "pooled output")
        for i, (a, b) in enumerate(zip(got["fused"][1], got["composed"][1])):
            if i % 4 == 1:  # batch norm removes the bias: both routes give exactly 0
                assert not a.any() and not b.any()
            else:
                assert_rel_close(a, b, 1e-10, f"layer {i // 4} parameter {i % 4}")

    def test_gradients_match_finite_differences(self, rng):
        # 1 and 2 layers, 2D and 3D; the grids span more than one block
        for widths, shape in (((3,), (5, 4)), ((3, 4), (5, 4)), ((3,), (3, 3, 2)), ((3, 4), (3, 3, 2))):
            dim = len(shape)
            grid = self.grid(*shape)
            sets = [rng.uniform(-0.9, 0.9, size=(k, dim)) for k in (3, 2, 4)]
            layers = mlp_layers(rng, widths, dim, scales=(-0.8,))
            coef = rng.normal(size=(len(sets) * len(grid) * widths[-1], 1))

            def build():
                out = ad.pooled_mlp(sets, grid, layers)
                return refops.tensor_sum(refops.matmul(ad.reshape(out, (1, out.data.size)), coef))

            assert_grads_match(build, [t for layer in layers for t in vars(layer).values()], rtol=1e-4, atol=1e-6)

    def test_float32_at_default_2d_sizes(self, rng):
        # 17 sets of 96 points on the 121-point grid, widths 16 to 128;
        # float32 against the same op in float64 on the same values. Where
        # two points tie within float32 rounding the dtypes may pool
        # different ones, of equal value but with other inputs; the
        # gradient is compared with no upstream gradient at those entries
        grid = self.grid(11, 11)
        sets = [rng.uniform(-0.9, 0.9, size=(96, 2)).astype(np.float32) for _ in range(17)]
        params = mlp_layers(rng, (16, 32, 64, 128), 2, np.float32, scales=(-1.0, 0.5, -0.3))

        def layers(dtype):
            return [SimpleNamespace(**{k: ad.Tensor(t.data.astype(dtype), requires_grad=True)
                                       for k, t in vars(layer).items()}) for layer in params]

        picks = [ad.pooled_mlp_forward(sets, grid, layers(dtype), True).pick for dtype in (np.float32, np.float64)]
        flipped = picks[0] != picks[1]
        assert flipped.sum() <= 4, flipped.sum()
        upstream = np.where(flipped, 0.0, rng.normal(size=flipped.shape))
        results = {}
        for dtype in (np.float32, np.float64):
            layer_list = layers(dtype)
            out = ad.pooled_mlp(sets, grid, layer_list)
            self.backward(out, upstream.astype(dtype))
            results[dtype] = [out.data] + layer_grads(layer_list)
        for i, (got, ref) in enumerate(zip(results[np.float32], results[np.float64])):
            what = "pooled output" if i == 0 else f"layer {(i - 1) // 4} parameter {(i - 1) % 4}"
            assert got.dtype == np.float32, what
            if i and (i - 1) % 4 == 1:
                assert not got.any() and not ref.any(), what
            else:
                assert_rel_close(got.astype(np.float64), ref, 1e-4, what)

    def test_activation_is_never_stored(self, rng, use_workers):
        # forward plus backward on N rows allocates less than one [N, last
        # width] array; the composed route allocates more. Each worker holds
        # one block's arrays at a time, so this runs the most workers the
        # module ever starts
        use_workers(ThreadPoolExecutor(ad.MAX_WORKERS))
        grid = self.grid(4, 4)
        sets = [rng.uniform(-0.9, 0.9, size=(64, 2)) for _ in range(16)]
        upstream = rng.normal(size=16 * 16 * 128)
        bound = 16 * 16 * 64 * 128 * np.dtype(np.float64).itemsize
        peaks = {}
        for route in ("fused", "composed"):
            layers = mlp_layers(np.random.default_rng(3), (16, 64, 128), 2)
            ad._scratch.clear()
            tracemalloc.start()
            try:
                out = ad.pooled_mlp(sets, grid, layers) if route == "fused" else self.composed(sets, grid, layers)
                self.backward(out, upstream)
                peaks[route] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                ad._scratch.clear()
            assert layers[0].weight.grad.shape == (4, 16)
        assert peaks["fused"] < bound < peaks["composed"], (peaks, bound)

    def test_second_pass_reuses_the_stored_arrays(self, rng, use_workers, monkeypatch):
        # the stored activations come from the scratch pool and go back to
        # it, so a second pass, training or forward only, maps no fresh
        # [N, width] memory: fresh mappings cost page faults whose time
        # varies from run to run. The pool is used on this thread alone, so
        # this holds however the workers interleave
        use_workers(ThreadPoolExecutor(ad.MAX_WORKERS))
        grid = self.grid(4, 4)
        sets = [rng.uniform(-0.9, 0.9, size=(64, 2)) for _ in range(16)]
        layers = mlp_layers(rng, (16, 64, 128), 2)
        upstream = rng.normal(size=16 * 16 * 128)
        take = ad._scratch.take
        taken = []
        monkeypatch.setattr(ad._scratch, "take", lambda *args: taken.append(take(*args)) or taken[-1])
        ad._scratch.clear()
        try:
            self.backward(ad.pooled_mlp(sets, grid, layers), upstream)
            held = ad._scratch._held
            pooled = {id(a) for stack in ad._scratch._free.values() for a in stack}
            assert len(pooled) == 1 and held >= ad._scratch.MIN_BYTES  # layer 1's activation
            for second in ("training", "forward only"):
                taken.clear()
                if second == "training":
                    self.backward(ad.pooled_mlp(sets, grid, layers), upstream)
                else:
                    ad.pooled_mlp_forward(sets, grid, layers, True).release()
                large = {id(a) for a in taken if a.nbytes >= ad._scratch.MIN_BYTES}
                assert large == pooled, second
                assert ad._scratch._held == held, second
            first = ad.pooled_mlp_forward(sets, grid, layers, True)
            kept = first.hidden[1]
            first.release()
            first.release()  # a second release gives nothing back twice
            assert ad.pooled_mlp_forward(sets, grid, layers, True).hidden[1] is kept
            assert ad.pooled_mlp_forward(sets, grid, layers, True).hidden[1] is not kept
        finally:
            ad._scratch.clear()

    def test_set_layout_validated(self, rng):
        layers = mlp_layers(rng, (3,), 2)
        grid = self.grid(2, 2)
        with pytest.raises(ad.ShapeError, match="at least one set"):
            ad.pooled_mlp([], grid, layers)
        with pytest.raises(ad.ShapeError, match="no empty one"):
            ad.pooled_mlp([np.zeros((3, 2)), np.zeros((0, 2))], grid, layers)


class TestWorkers:
    """The blocked MLP splits each pass into one run per worker of
    ``ad._workers``, the first on the calling thread; the number of workers
    and their timing change no bit of what it computes."""

    SIZES = (7, 1, 12, 5, 30)  # unequal sets, one of a single point

    @staticmethod
    def case(dim, dtype):
        rng = np.random.default_rng(dim)
        grid = TestFusedDensePool.grid(*((5, 4) if dim == 2 else (3, 3, 2)))  # more than one block per set
        sets = [rng.uniform(-0.9, 0.9, size=(k, dim)).astype(dtype) for k in TestWorkers.SIZES]
        layers = mlp_layers(rng, (6, 8, 5), dim, dtype, scales=(-0.7,))
        for layer in layers:
            width = layer.weight.data.shape[1]
            layer.bn_mean = rng.normal(size=width).astype(dtype)
            layer.bn_var = rng.uniform(0.5, 2.0, size=width).astype(dtype)
        upstream = rng.normal(size=len(sets) * len(grid) * 5).astype(dtype)
        return sets, grid, layers, upstream

    @staticmethod
    def results(sets, grid, layers, upstream) -> list:
        """Bytes of the output and statistics under running and batch
        statistics, and of every parameter gradient after the backward."""
        got = []
        for batch in (False, True):
            mlp = ad.pooled_mlp_forward(sets, grid, layers, batch)
            got += [mlp.out.tobytes()] + [a.tobytes() for mv in mlp.stats for a in mv]
            mlp.release()
        ad.zero_grads([t for layer in layers for t in vars(layer).values() if isinstance(t, ad.Tensor)])
        TestFusedDensePool.backward(ad.pooled_mlp(sets, grid, layers), upstream)
        return got + [g.tobytes() for g in layer_grads(layers)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_results_do_not_depend_on_the_worker_count(self, dim, dtype, use_workers):
        # three workers, more than the cores of a two-core host, switching
        # threads far more often than by default
        case = self.case(dim, dtype)
        got = {}
        use_workers(ThreadPoolExecutor(1))
        got[1] = self.results(*case)
        use_workers(ThreadPoolExecutor(3))
        with switching_often():
            got[3] = self.results(*case)
        assert len(got[1]) == len(got[3]) == 2 + 2 * 2 * 3 + 4 * 3
        assert [i for i, (a, b) in enumerate(zip(got[1], got[3])) if a != b] == []

    @pytest.mark.parametrize("workers", [1, 2, 3, 40])
    def test_a_pass_runs_one_run_per_worker_in_block_order(self, workers, use_workers):
        # a worker takes a contiguous run of blocks of about equal rows, the
        # calling thread the first one, so one worker starts no task; with
        # more workers than blocks, some runs are empty and start no task
        sets, grid, layers, _ = self.case(2, np.float32)
        mlp = ad.BlockedMlp(sets, grid, layers)
        pool = use_workers(CountingPool(workers))
        got = mlp.each_block(lambda block: (block, threading.current_thread()))
        assert [block for block, _ in got] == mlp.blocks
        assert got[0][1] is threading.main_thread()
        assert (got[-1][1] is threading.main_thread()) == (workers == 1)
        if workers <= 3:
            assert pool.submitted == workers - 1
        else:
            assert 2 < pool.submitted < len(mlp.blocks) - 1

    def test_an_item_joins_the_run_in_which_it_starts(self, use_workers):
        # 8 units over two workers: the second run takes the items that
        # start at unit 4 or later, however long the first run's last item
        pool = use_workers(CountingPool(2))
        got = ad.each_run(lambda item: (item, threading.current_thread()), list("abcde"), [3, 1, 1, 1, 2])
        assert [item for item, _ in got] == list("abcde")
        threads = [thread for _, thread in got]
        assert threads[:2] == [threading.main_thread()] * 2
        assert threading.main_thread() not in threads[2:] and len(set(threads[2:])) == 1
        assert pool.submitted == 1

    @pytest.mark.parametrize("cores, blas, expected", [
        (2, {}, 1),  # BLAS at its default of one thread per core
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OMP_NUM_THREADS": "1"}, 2),
        (2, {"MKL_NUM_THREADS": "2"}, 1),
        (8, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),  # BLAS's own variable first
        (8, {"OPENBLAS_NUM_THREADS": "8"}, 1),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (16, {"OPENBLAS_NUM_THREADS": "1"}, ad.MAX_WORKERS),
        (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "0"}, 1),  # no positive count: the default
    ])
    def test_the_worker_count_leaves_the_cores_to_blas(self, cores, blas, expected, monkeypatch):
        monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in blas.items():
            monkeypatch.setenv(name, value)
        assert ad._worker_count() == expected

    @pytest.mark.parametrize("cpu_count, expected", [(4, 2), (None, 1)])
    def test_the_worker_count_without_an_affinity_call(self, cpu_count, expected, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(ad.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(ad.os, "cpu_count", lambda: cpu_count)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert ad._worker_count() == expected

    @pytest.mark.parametrize("failing", [0, len(SIZES) - 1], ids=["calling thread", "worker thread"])
    @pytest.mark.parametrize("where", ["running statistics", "batch statistics", "backward"])
    def test_an_error_in_one_set_reaches_the_caller_after_the_other_runs(self, where, failing, monkeypatch,
                                                                         use_workers):
        # once armed, one set's blocks raise at once while the other sets'
        # run slowly: the first set runs on the calling thread, the last on
        # a worker. The error comes out with its own type once every task
        # has finished, and the next call gives the same bits as a clean one
        case = self.case(2, np.float32)
        sets, grid, layers, upstream = case
        layer_output = ad.BlockedMlp.layer_output
        armed = []

        def failing_output(mlp, block, l, out=None):
            if armed and block[0] == failing:
                raise Boom(where)
            if armed:
                time.sleep(0.005)
            return layer_output(mlp, block, l, out)

        monkeypatch.setattr(ad.BlockedMlp, "layer_output", failing_output)
        pool = use_workers(CountingPool(3))
        clean = self.results(*case)
        with pytest.raises(Boom, match=where):
            if where == "backward":
                out = ad.pooled_mlp(sets, grid, layers)
                armed.append(True)
                TestFusedDensePool.backward(out, upstream)
            else:
                armed.append(True)
                ad.pooled_mlp_forward(sets, grid, layers, where == "batch statistics")
        assert pool.unfinished == 0
        armed.clear()
        assert self.results(*case) == clean


class TestRunningPool:
    """Under running statistics the last layer's product is pooled in its
    own ``[grid points, set points, width]`` rows by ``np.max`` and the
    folded bias added to the pooled rows alone; the output is the bits of
    the earlier ``argmax`` route (``refops.running_pool``)."""

    SIZES = (1, 2, 7, 5, 13)  # odd sizes, a single point and two

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("widths", [(8,), (6, 8), (16, 32, 64, 128)], ids=["one", "two", "default"])
    def test_the_pool_gives_the_reference_bits(self, widths, dim, dtype, use_workers):
        # each set of two or more holds a copy of its first point, so the
        # pooled maxima tie; the last layer has a negative scale and a zero
        # one; one set holds a NaN row. 1, 2 and 3 workers, the last
        # switching threads far more often than by default
        rng = np.random.default_rng([dim, len(widths)])
        grid = TestFusedDensePool.grid(*((5, 4) if dim == 2 else (3, 3, 2)))  # more than one block per set
        sets = []
        for k in self.SIZES:
            pts = rng.uniform(-0.9, 0.9, size=(k, dim))
            pts[-1] = pts[0]
            sets.append(pts.astype(dtype))
        sets[3][2] = np.nan
        layers = mlp_layers(rng, widths, dim, dtype, scales=(-0.7, 0.0))
        for layer in layers:
            width = layer.weight.data.shape[1]
            layer.bn_mean = rng.normal(size=width).astype(dtype)
            layer.bn_var = rng.uniform(0.5, 2.0, size=width).astype(dtype)
        ref = refops.running_pool(sets, grid, layers)
        g = len(grid)
        assert np.isnan(ref[3 * g:4 * g]).all() and not np.isnan(np.delete(ref, np.s_[3 * g:4 * g], 0)).any()
        for workers in (1, 2, 3):
            use_workers(ThreadPoolExecutor(workers))
            with switching_often() if workers == 3 else contextlib.nullcontext():
                mlp = ad.pooled_mlp_forward(sets, grid, layers, batch=False)
            mlp.release()
            assert mlp.out.dtype == dtype and mlp.out.shape == ref.shape
            assert mlp.out.tobytes() == ref.tobytes(), workers


class TestFusedConvBatch:
    """conv_bn_act_batch against per-element conv_valid plus shared batch norm."""

    def test_matches_composed_route(self, rng):
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

        # composed route: conv_valid per element, one batch norm over all
        # rows; each element's rows are put in place by an exact 0/1 product
        leaves = make_leaves()
        xs = [f64(xv[i], requires_grad=True) for i in range(3)]
        outs = [refops.conv_valid(x, leaves["k"], leaves["b"]) for x in xs]
        shape = outs[0].data.shape
        positions = int(np.prod(shape[1:]))
        place = np.eye(3 * positions).reshape(3 * positions, 3, positions)
        rows = None
        for i, o in enumerate(outs):
            part = refops.matmul(place[:, i, :], refops.transpose2d(ad.reshape(o, (shape[0], positions))))
            rows = part if rows is None else refops.add(rows, part)
        rows = refops.leaky_relu(refops.batch_norm(rows, leaves["sc"], leaves["sh"]))
        ref = np.stack(
            [
                rows.data[i * positions : (i + 1) * positions].T.reshape(shape)
                for i in range(3)
            ]
        )
        refops.tensor_sum(rows).backward()
        ref_grads = {k: t.grad for k, t in leaves.items()}
        ref_grads["x"] = np.stack([x.grad for x in xs])

        # fused route
        leaves = make_leaves()
        x = f64(xv, requires_grad=True)
        out = ad.conv_bn_act_batch(x, leaves["k"], leaves["b"], leaves["sc"], leaves["sh"])
        got = out.data.copy()
        refops.tensor_sum(ad.reshape(out, (1, out.data.size))).backward()
        got_grads = {k: t.grad for k, t in leaves.items()}
        got_grads["x"] = x.grad

        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-12)
        for k in ("k", "b", "sc", "sh", "x"):
            np.testing.assert_allclose(got_grads[k], ref_grads[k], rtol=1e-9, atol=1e-11)

    def test_3d_gradients_match_finite_differences(self, rng):
        leaves = [
            f64(rng.normal(size=(2, 2, 3, 3, 3)), requires_grad=True),
            f64(rng.normal(size=(3, 2, 2, 2, 2)), requires_grad=True),
            f64(rng.normal(size=3), requires_grad=True),
            f64(rng.normal(size=3) + 1.0, requires_grad=True),
            f64(rng.normal(size=3), requires_grad=True),
        ]

        def build():
            out = ad.conv_bn_act_batch(*leaves)
            return refops.scale(refops.tensor_sum(ad.reshape(out, (1, out.data.size))), 0.25)

        assert_grads_match(build, leaves, rtol=1e-4, atol=1e-6)

    def test_kernel_too_large_rejected(self, rng):
        with pytest.raises(ad.ShapeError, match="larger than"):
            ad.conv_bn_act_batch(
                f64(rng.normal(size=(1, 1, 2, 2))),
                f64(rng.normal(size=(1, 1, 3, 3))),
                f64([0.0]), f64([1.0]), f64([0.0]),
            )


class TestBlockColumnNormalize:
    def test_unit_norms_per_block_column(self, rng):
        x = f64(rng.normal(size=(12, 5)))
        out = refops.l2_normalize_block_cols(x, block_rows=4)
        blocks = out.data.reshape(3, 4, 5)
        np.testing.assert_allclose(
            np.sqrt((blocks ** 2).sum(axis=1)), np.ones((3, 5)), rtol=1e-12
        )

    def test_matches_rowwise_normalize_of_transposed_blocks(self, rng):
        # Normalizing columns inside a block is row normalization of the
        # transposed block; the two routes must agree.
        xv = rng.normal(size=(8, 3))
        out = refops.l2_normalize_block_cols(f64(xv), block_rows=4).data
        expected = np.concatenate(
            [
                refops.l2_normalize_rows(f64(xv[4 * i : 4 * (i + 1)].T)).data.T
                for i in range(2)
            ],
            axis=0,
        )
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        x = f64(rng.normal(size=(6, 4)), requires_grad=True)
        assert_grads_match(
            lambda: refops.tensor_sum(refops.l2_normalize_block_cols(x, block_rows=3)),
            [x],
        )

    def test_indivisible_rows_rejected(self, rng):
        with pytest.raises(ad.ShapeError, match="blocks"):
            refops.l2_normalize_block_cols(f64(rng.normal(size=(7, 2))), block_rows=3)


class TestConcatRows:
    def test_stacks_parts_in_order(self, rng):
        parts = [f64(rng.normal(size=(n, 3))) for n in (2, 5, 1)]
        out = refops.concat_rows(parts)
        np.testing.assert_array_equal(out.data, np.vstack([p.data for p in parts]))

    def test_single_part_is_returned_as_is(self, rng):
        x = f64(rng.normal(size=(4, 3)), requires_grad=True)
        assert refops.concat_rows([x]) is x

    def test_gradients_match_finite_differences(self, rng):
        # the middle part is a constant, so the backward must skip it
        a = f64(rng.normal(size=(3, 4)), requires_grad=True)
        b = f64(rng.normal(size=(2, 4)))
        c = f64(rng.normal(size=(4, 4)), requires_grad=True)
        weight = rng.normal(size=(9, 4))
        assert_grads_match(
            lambda: refops.tensor_sum(refops.l2_normalize_rows(refops.add(refops.concat_rows([a, b, c]), weight))),
            [a, c],
        )
        assert b.grad is None

    def test_widths_must_agree(self, rng):
        with pytest.raises(ValueError):
            refops.concat_rows([f64(rng.normal(size=(2, 3))), f64(rng.normal(size=(2, 4)))])


class TestLogSumExp:
    def test_two_zeros(self):
        out = refops.log_sum_exp(f64([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(float(out.data), np.log(2.0), rtol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = refops.log_sum_exp(f64([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(float(out.data), 1000.0 + np.log(2.0), rtol=1e-12)

    def test_matches_extended_precision_oracle(self, rng):
        x = rng.normal(size=8) * 5.0
        out = float(refops.log_sum_exp(f64(x), axis=0).data)
        with mpmath.workdps(50):
            oracle = float(mpmath.log(mpmath.fsum(mpmath.exp(v) for v in x)))
        np.testing.assert_allclose(out, oracle, rtol=1e-12)

    def test_gradients(self, rng):
        x = f64(rng.normal(size=(3, 5)), requires_grad=True)
        assert_grads_match(lambda: refops.tensor_sum(refops.log_sum_exp(x, axis=1)), [x])

    @given(
        hnp.arrays(np.float64, 6, elements=st.floats(-50, 50)),
        st.floats(-100, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, c):
        base = float(refops.log_sum_exp(f64(x), axis=0).data)
        shifted = float(refops.log_sum_exp(f64(x + c), axis=0).data)
        np.testing.assert_allclose(shifted, base + c, atol=1e-10)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = f64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        refops.tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        x = f64([[1.0, -2.0, 3.0]], requires_grad=True)
        refops.tensor_sum(refops.matmul(x, x, transpose_b=True)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = f64(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.GraphError, match="scalar"):
            refops.leaky_relu(x).backward()

    def test_gradients_accumulate_across_uses(self):
        x = f64([[1.0, 2.0]], requires_grad=True)
        y = refops.add(x, x)
        refops.tensor_sum(y).backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])

    def test_constants_collect_no_gradient(self):
        x = f64(np.ones((2, 2)))
        w = f64(np.eye(2), requires_grad=True)
        refops.tensor_sum(refops.matmul(x, w)).backward()
        assert x.grad is None
        assert w.grad is not None


class TestPlumbingOps:
    def test_reshape_transpose_slice_values(self, rng):
        x = rng.normal(size=(4, 3))
        t = f64(x)
        np.testing.assert_array_equal(ad.reshape(t, (2, 6)).data, x.reshape(2, 6))
        np.testing.assert_array_equal(refops.transpose2d(t).data, x.T)
        np.testing.assert_array_equal(refops.row_slice(t, 1, 3).data, x[1:3])

    def test_plumbing_gradients(self, rng):
        x = f64(rng.normal(size=(4, 3)), requires_grad=True)

        def build():
            a = refops.transpose2d(ad.reshape(x, (3, 4)))
            b = refops.add(refops.row_slice(a, 0, 2), refops.row_slice(a, 1, 3))
            return refops.tensor_sum(refops.l2_normalize_rows(b))

        assert_grads_match(build, [x])

    def test_pairwise_sqdist_matches_loops(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(4, 3))
        out = refops.pairwise_sqdist(f64(x), f64(y))
        oracle = np.zeros((5, 4))
        for i in range(5):
            for j in range(4):
                oracle[i, j] = np.sum((x[i] - y[j]) ** 2)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-12)

    def test_pairwise_sqdist_gradients(self, rng):
        x = f64(rng.normal(size=(4, 2)), requires_grad=True)
        y = f64(rng.normal(size=(5, 2)), requires_grad=True)
        assert_grads_match(
            lambda: refops.tensor_sum(refops.log_sum_exp(refops.scale(refops.pairwise_sqdist(x, y), -0.5), axis=1)),
            [x, y],
        )

    def test_l2_normalize_rows_unit_norm(self, rng):
        x = rng.normal(size=(6, 8))
        out = refops.l2_normalize_rows(f64(x))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(6), rtol=1e-12)


def pull(outs, upstreams):
    """Backpropagate exactly ``upstreams[i]`` into ``outs[i]``, through one
    scalar node above them all."""
    def grad_fn(gradient):
        for out, upstream in zip(outs, upstreams):
            ad._accumulate(out, upstream)

    ad._make_node(np.zeros(()), tuple(outs), grad_fn).backward()


class TestStageOps:
    """Each training stage op gives the bits of its composition of generic
    ops (``refops``), output and input gradient alike, in 2D and 3D sizes
    and both dtypes."""

    ROUTES = (("op", ad), ("composed", refops))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("g", [25, 27], ids=["5x5 grid", "3x3x3 grid"])
    @pytest.mark.parametrize("owners", [[0, 0, 0], [0, 0, 1, 1, 1]], ids=["one run", "two runs"])
    def test_correlation(self, owners, g, dtype):
        # a zero descriptor row meets the norm clamp; one target's upstream
        # gradient is all -0.0
        rng = np.random.default_rng([g, len(owners)])
        x = rng.normal(size=((owners[-1] + 1 + len(owners)) * g, 8)).astype(dtype)
        x[3] = 0.0
        upstream = rng.normal(size=(len(owners) * g, g)).astype(dtype)
        upstream[g:2 * g] = -0.0
        got = {}
        for name, ops in self.ROUTES:
            xt = ad.Tensor(x.copy(), requires_grad=True)
            out = ops.correlation(xt, owners, g)
            pull([out], [upstream])
            got[name] = (out.data.tobytes(), xt.grad.tobytes())
        assert got["op"] == got["composed"]
        plain = ad.correlation_forward(x.copy(), owners, g)[0]
        assert plain.tobytes() == got["op"][0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_warp(self, dim, dtype):
        # two sources of unequal sizes, two pairs each; one pair's upstream
        # gradient is all -0.0
        rng = np.random.default_rng(dim)
        k = 3 ** dim
        owners = [0, 0, 1, 1]
        deltas = rng.normal(size=(len(owners), k * dim)).astype(dtype)
        theta0 = rng.normal(size=(1, k * dim)).astype(dtype)
        bases = [rng.normal(size=(n, k)).astype(dtype) for n in (7, 12)]
        upstreams = [rng.normal(size=(len(bases[o]), dim)).astype(dtype) for o in owners]
        upstreams[1][...] = -0.0
        got = {}
        for name, ops in self.ROUTES:
            dt = ad.Tensor(deltas.copy(), requires_grad=True)
            outs = [ops.warp(dt, i, bases[o], theta0) for i, o in enumerate(owners)]
            pull(outs, upstreams)
            got[name] = [o.data.tobytes() for o in outs] + [dt.grad.tobytes()]
        assert got["op"] == got["composed"]

    @pytest.mark.parametrize("sizes", [(10, 13), (12, 7)])
    @pytest.mark.parametrize("dtypes", [(np.float32, np.float64), (np.float64, np.float64),
                                        (np.float32, np.float32), (np.float64, np.float32)])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_gmm_symmetric(self, dim, dtypes, sizes):
        # the points against targets of another count and maybe another dtype
        rng = np.random.default_rng([dim, *sizes])
        x = rng.uniform(-1, 1, size=(sizes[0], dim)).astype(dtypes[0])
        y = rng.uniform(-1, 1, size=(sizes[1], dim)).astype(dtypes[1])
        got = {}
        for name, ops in self.ROUTES:
            xt = ad.Tensor(x.copy(), requires_grad=True)
            out = ops.gmm_symmetric(xt, y, -0.5 / (0.3 * 0.3))
            pull([out], [np.asarray(0.0625 * 3)])
            got[name] = (out.data.dtype, out.data.tobytes(), xt.grad.dtype, xt.grad.tobytes())
        assert got["op"] == got["composed"]
        assert got["op"][2] == dtypes[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_mean(self, dtype):
        values = np.random.default_rng(5).normal(size=5).astype(dtype)
        got = {}
        for name, ops in self.ROUTES:
            terms = [ad.Tensor(v, requires_grad=True) for v in values]
            out = ops.batch_mean(terms)
            pull([out], [np.asarray(1.0, dtype)])
            got[name] = [out.data.tobytes()] + [t.grad.tobytes() for t in terms]
        assert got["op"] == got["composed"]

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float64), (np.float64, np.float64),
                                        (np.float32, np.float32), (np.float64, np.float32)])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_sqdists_give_the_summed_difference_array(self, dim, dtypes):
        # one coordinate at a time against numpy's sum over the whole
        # [|a|, |b|, dim] array, in the dtype of that array
        rng = np.random.default_rng([dim, *(np.dtype(d).itemsize for d in dtypes)])
        for extra in range(7):
            a = (rng.normal(size=(96, dim)) * rng.uniform(0.01, 10.0)).astype(dtypes[0])
            b = (rng.normal(size=(96 + extra, dim)) + rng.normal(size=dim)).astype(dtypes[1])
            got, want = ad.sqdists(a, b), refops.pairwise_sqdist(a, b).data
            assert got.dtype == want.dtype == np.result_type(*dtypes)
            assert got.tobytes() == want.tobytes(), extra


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
            refops.tensor_sum(refops.matmul(row, row, transpose_b=True)).backward()
            ad.adam_step([p], state)
        assert np.abs(p.data).max() < 1e-3


class TestDeterminism:
    def test_forward_is_bitwise_reproducible(self, rng):
        x = rng.normal(size=(20, 4)).astype(np.float32)
        w = rng.normal(size=(4, 8)).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)

        def run():
            h = ad.linear(ad.Tensor(x), ad.Tensor(w, requires_grad=True), ad.Tensor(b))
            h = refops.leaky_relu(h)
            h = refops.l2_normalize_rows(h)
            return refops.log_sum_exp(h, axis=1).data.tobytes()

        assert run() == run()

    def test_backward_is_bitwise_reproducible(self, rng):
        x = rng.normal(size=(10, 3)).astype(np.float32)

        def run():
            w = ad.Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
            loss = refops.tensor_sum(refops.leaky_relu(ad.linear(ad.Tensor(x), w, ad.Tensor(np.zeros(2)))))
            loss.backward()
            return w.grad.tobytes()

        assert run() == run()
