"""Tests for the registration network.

The descriptor and correlation stages are checked against brute-force
oracles; the full pipeline is checked for the identity-at-initialization
property, bitwise permutation invariance, and finite-difference gradient
agreement on a narrow float64 configuration.
"""

import dataclasses
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pointreg import autodiff as ad
from pointreg import evaluator
from pointreg import losses
from pointreg import model

import reference_ops as refops
from conftest import Boom, CountingPool, array_data_spans, assert_grads_match, switching_often


def tiny_config(dtype="float64"):
    """A narrow config exercising every layer type, cheap enough for FD."""
    return model.PrNetConfig(
        dim=2,
        grid_shape=(5, 5),
        mlp_widths=(6, 8),
        conv_channels=(6, 8, 10),
        conv_kernels=(3, 2, 2),
        fc_hidden=7,
        dtype=dtype,
    )


def randomize_weights(weights, rng, scale=0.3):
    """Perturb every parameter and running statistic away from init.

    The output layer starts at zero, which blocks gradients to everything
    upstream; gradient tests need it populated.
    """
    for p in weights.params():
        p.data = p.data + rng.normal(0.0, scale, size=p.data.shape).astype(p.data.dtype)
    for layer in [*weights.mlp, *weights.convs, weights.fc1]:
        dt = layer.bn_mean.dtype
        layer.bn_mean = rng.normal(0.0, 0.2, size=layer.bn_mean.shape).astype(dt)
        layer.bn_var = rng.uniform(0.5, 2.0, size=layer.bn_var.shape).astype(dt)


class TestConfig:
    def test_default_2d_spatial_trace(self):
        cfg = model.PrNetConfig()
        assert cfg.spatial_trace() == [(11, 11), (9, 9), (6, 6), (2, 2)]
        assert cfg.flat_features() == 512 * 4

    def test_3d_spatial_trace(self):
        cfg = model.PrNetConfig.for_dim(3)
        assert cfg.spatial_trace() == [(5, 5, 5), (3, 3, 3), (2, 2, 2), (1, 1, 1)]
        assert cfg.flat_features() == 512
        assert cfg.fc_hidden == 512

    def test_theta_counts(self):
        assert model.PrNetConfig().theta_count == 9
        assert model.PrNetConfig().output_size == 18
        assert model.PrNetConfig.for_dim(3).theta_count == 27
        assert model.PrNetConfig.for_dim(3).output_size == 81

    def test_default_parameter_count(self):
        weights = model.init_weights(model.PrNetConfig(), seed=0)
        assert sum(p.data.size for p in weights.params()) == 4_087_138

    def test_parameter_order_and_array_names_are_pinned(self):
        # a checkpoint's adam.m.NNN and adam.v.NNN index params() in this
        # order, so a reorder would load moments onto the wrong parameters
        weights = model.init_weights(tiny_config(), seed=0)
        arrays = weights.named_arrays()
        bn_layers = ["mlp0", "mlp1", "conv0", "conv1", "conv2", "fc1"]
        assert list(arrays) == [f"{layer}.{field}" for layer in bn_layers
                                for field in ("weight", "bias", "bn_scale", "bn_shift", "bn_mean", "bn_var")] \
            + ["out.weight", "out.bias"]
        name_of = {id(a): name for name, a in arrays.items()}
        assert [name_of[id(p.data)] for p in weights.params()] == \
            [f"{layer}.{field}" for layer in bn_layers for field in ("weight", "bias", "bn_scale", "bn_shift")] \
            + ["out.weight", "out.bias"]

    def test_kernel_chain_must_fit_grid(self):
        with pytest.raises(ValueError, match="does not fit"):
            model.PrNetConfig(grid_shape=(5, 5))

    def test_dim_validated(self):
        with pytest.raises(ValueError, match="dim"):
            model.PrNetConfig(dim=4, grid_shape=(3, 3, 3, 3))

    def test_kernel_channel_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            model.PrNetConfig(conv_kernels=(3, 4))


class TestReferenceGrid:
    def test_row_major_unit_box(self):
        grid = model.build_reference_grid(2, (3, 4))
        assert grid.shape == (12, 2)
        np.testing.assert_array_equal(grid[0], [-1.0, -1.0])
        np.testing.assert_array_equal(grid[-1], [1.0, 1.0])
        # row-major: the last axis varies fastest
        np.testing.assert_allclose(grid[1], [-1.0, -1.0 + 2.0 / 3])
        assert np.all(np.abs(grid) <= 1.0)

    def test_resolution_validated(self):
        with pytest.raises(ValueError, match=">= 2"):
            model.build_reference_grid(2, (3, 1))
        with pytest.raises(ValueError, match="invalid"):
            model.build_reference_grid(3, (3, 3))


class TestCanonicalOrder:
    def test_sorted_lexicographically(self):
        pts = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0], [-1.0, 5.0]])
        out = model.canonical_order(pts)
        np.testing.assert_array_equal(
            out, [[-1.0, 5.0], [0.0, 1.0], [0.0, 2.0], [1.0, 0.0]]
        )

    def test_permutations_collapse_to_identical_bytes(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 3))
        base = model.canonical_order(pts).tobytes()
        for _ in range(20):
            shuffled = pts[rng.permutation(50)]
            assert model.canonical_order(shuffled).tobytes() == base


@pytest.fixture(scope="module")
def descriptor_env():
    cfg = model.PrNetConfig()
    weights = model.init_weights(cfg, seed=5)
    return cfg, weights


@pytest.fixture(scope="module")
def batch_env():
    cfg = model.PrNetConfig()
    weights = model.init_weights(cfg, seed=9)
    rng = np.random.default_rng(41)
    for p in weights.params():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.data.shape).astype(p.data.dtype)
    src = rng.uniform(-0.9, 0.9, size=(48, 2))
    targets = [rng.uniform(-0.9, 0.9, size=(48, 2)) for _ in range(5)]
    return weights, src, targets


def eval_descriptor(points, weights):
    """The unit-norm source descriptor an eval-mode forward correlates."""
    ordered, _ = model.prepare_source(points, weights)
    return ad.unit_rows(model._descriptors([ordered], weights, None))[0]


class TestDescriptor:
    def test_shape_and_unit_rows(self, descriptor_env):
        cfg, weights = descriptor_env
        pts = np.random.default_rng(0).uniform(-0.9, 0.9, size=(40, 2))
        sdt = eval_descriptor(pts, weights)
        assert sdt.shape == (cfg.grid_count, cfg.mlp_widths[-1])
        norms = np.linalg.norm(sdt, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_bitwise_permutation_invariance(self, descriptor_env):
        _, weights = descriptor_env
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.9, 0.9, size=(64, 2))
        base = eval_descriptor(pts, weights).tobytes()
        for _ in range(30):
            shuffled = pts[rng.permutation(64)]
            assert eval_descriptor(shuffled, weights).tobytes() == base

    def test_empty_set_rejected(self, descriptor_env):
        _, weights = descriptor_env
        src = np.zeros((5, 2))
        with pytest.raises(ValueError, match="empty source"):
            model.prepare_source(np.zeros((0, 2)), weights)
        with pytest.raises(ValueError, match="empty target"):
            model.forward_shared_source([(src, src), (src, np.zeros((0, 2)))], weights)

    def test_dim_mismatch_rejected(self, descriptor_env):
        _, weights = descriptor_env
        with pytest.raises(ValueError, match="dim"):
            model.prepare_source(np.zeros((5, 3)), weights)
        with pytest.raises(ValueError, match="dim"):
            model.forward_shared_source([(np.zeros((5, 2)), np.zeros((5, 3)))], weights)

    def test_coordinates_beyond_the_dtype_range_rejected(self, descriptor_env):
        # float32 tops out near 3.4e38; such a point would turn into inf
        # and then NaN inside the network
        _, weights = descriptor_env
        pts = np.random.default_rng(4).uniform(-0.9, 0.9, size=(8, 2))
        huge = np.vstack([pts, [[1e39, 0.0]]])
        with pytest.raises(ValueError, match="float32 range"):
            model.prepare_source(huge, weights)
        with pytest.raises(ValueError, match="float32 range"):
            model.forward_shared_source([(pts, pts), (pts, huge)], weights)

    @pytest.mark.parametrize("forward", ["forward_shared_source", "train_forward", "batch_norm_statistics"])
    @pytest.mark.parametrize("bad,match", [(np.nan, "must be finite"), (np.inf, "float32 range")])
    def test_non_finite_coordinates_rejected(self, descriptor_env, forward, bad, match):
        # NaN compares false with the dtype's range, so it needs a check of
        # its own; without one it would flow through to NaN deltas
        _, weights = descriptor_env
        pts = np.random.default_rng(5).uniform(-0.9, 0.9, size=(8, 2))
        poisoned = pts.copy()
        poisoned[3, 1] = bad
        for pairs, role in (([(poisoned, pts), (poisoned, pts)], "source"),
                            ([(pts, pts), (pts, poisoned)], "target")):
            with pytest.raises(ValueError, match=f"{role} coordinate.*{match}"):
                getattr(model, forward)(pairs, weights)

    def test_overflow_inside_the_network_rejected(self, descriptor_env):
        # 3e38 fits float32, but the first layer's products do not
        _, weights = descriptor_env
        pts = np.random.default_rng(6).uniform(-0.9, 0.9, size=(8, 2))
        with pytest.raises(ValueError, match="pair 1 overflows the float32 network"):
            model.forward_shared_source([(pts, pts), (pts, np.array([[3e38, 0.0]]))], weights)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_set_does_not_depend_on_its_neighbours(self, dim, dtype):
        # eval mode: a set's descriptor rows are the same bits whether it
        # goes alone or among sets of other sizes
        cfg = model.PrNetConfig(dim=dim, grid_shape=(5,) * dim, mlp_widths=(8, 16, 32),
                                conv_channels=(8,), conv_kernels=(3,), dtype=dtype)
        weights = model.init_weights(cfg, seed=23)
        randomize_weights(weights, np.random.default_rng(29))
        rng = np.random.default_rng(31)
        sets = [model.canonical_order(rng.uniform(-0.9, 0.9, size=(n, dim))) for n in (17, 40, 5, 96)]
        together = model._descriptors(sets, weights, None)
        g = cfg.grid_count
        for i, pts in enumerate(sets):
            assert model._descriptors([pts], weights, None).tobytes() == together[i * g:(i + 1) * g].tobytes(), i

    def test_3d_descriptor_shape(self):
        cfg = model.PrNetConfig.for_dim(3)
        weights = model.init_weights(cfg, seed=6)
        pts = np.random.default_rng(3).uniform(-0.9, 0.9, size=(32, 3))
        sdt = eval_descriptor(pts, weights)
        assert sdt.shape == (125, 128)


class TestNormalizer:
    def test_unit_box_extent(self):
        pts = np.array([[1.0, 3.0], [5.0, -1.0], [3.0, 1.0]])
        norm = model.fit_normalizer(pts)
        np.testing.assert_allclose(np.abs(norm.apply(pts)).max(), 0.9)
        np.testing.assert_allclose(norm.invert(norm.apply(pts)), pts)

    def test_subnormal_spread_rejected(self):
        # 0.9 / 5e-321 overflows; the set cannot be scaled into the box
        with pytest.raises(ValueError, match="too small to scale"):
            model.fit_normalizer(np.array([[1e-320, 0.0], [0.0, 0.0]]))

    def test_far_set_becomes_inf_without_warning(self):
        # the network's input check rejects the inf; the suite turns any
        # RuntimeWarning into an error, so none may be raised on the way
        norm = model.fit_normalizer(np.array([[1e-300, 0.0], [0.0, 0.0]]))
        assert np.isinf(norm.apply(np.array([[1e150, 0.0]]))[0, 0])


class TestCorrelation:
    def test_matches_double_loop_oracle(self):
        # two targets stacked; each block is checked on its own, in the
        # transposed (channel = target grid point) layout
        rng = np.random.default_rng(17)
        g = 12
        f_s = ad.Tensor(rng.normal(size=(g, 7)))
        f_g_all = ad.Tensor(rng.normal(size=(2 * g, 7)))
        corr = refops.compute_correlation(f_s, f_g_all, g)
        assert corr.data.shape == (2 * g, g)
        for b in range(2):
            f_g = f_g_all.data[b * g : (b + 1) * g]
            expected = np.zeros((g, g))
            for j in range(g):
                for i in range(g):
                    expected[j, i] = np.dot(f_g[j], f_s.data[i])
            expected /= np.linalg.norm(expected, axis=0, keepdims=True)
            np.testing.assert_allclose(corr.data[b * g : (b + 1) * g], expected, atol=1e-12)

    def test_feature_dim_mismatch(self):
        with pytest.raises(ValueError, match="feature dims"):
            refops.compute_correlation(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros((3, 5))), 3)


class TestIdentityAtInitialization:
    def test_2d_forward_reproduces_source(self):
        rng = np.random.default_rng(23)
        weights = model.init_weights(model.PrNetConfig(), seed=1)
        src = rng.uniform(-2.0, 3.0, size=(64, 2))
        tgt = src + rng.normal(0.0, 0.1, size=src.shape)
        r = evaluator.register(weights, src, tgt)
        np.testing.assert_array_equal(r.theta, weights.config.control_points)
        np.testing.assert_allclose(r.transformed, model.canonical_order(src), atol=1e-9)

    def test_3d_forward_reproduces_source(self):
        rng = np.random.default_rng(29)
        weights = model.init_weights(model.PrNetConfig.for_dim(3), seed=2)
        src = rng.uniform(-1.0, 1.0, size=(32, 3))
        tgt = rng.uniform(-1.0, 1.0, size=(32, 3))
        transformed = evaluator.register(weights, src, tgt).transformed
        np.testing.assert_allclose(transformed, model.canonical_order(src), atol=1e-9)

    def test_output_in_original_coordinates(self):
        # a shifted and scaled copy of the same shape must come back in its
        # own frame, not the normalized one
        rng = np.random.default_rng(31)
        weights = model.init_weights(model.PrNetConfig(), seed=1)
        src = rng.uniform(-1.0, 1.0, size=(40, 2)) * 37.0 + 1000.0
        transformed = evaluator.register(weights, src, src.copy()).transformed
        np.testing.assert_allclose(transformed, model.canonical_order(src), atol=1e-6)


class TestSharedSourceBatch:
    def test_batched_eval_matches_single_pair(self, batch_env):
        weights, src, targets = batch_env
        thetas, transformed = model.forward_shared_source([(src, t) for t in targets], weights)
        assert thetas.shape == (5, 9, 2) and thetas.dtype == np.float64
        deltas = thetas - weights.config.control_points
        for i, tgt in enumerate(targets):
            theta_one, t_one = model.forward_shared_source([(src, tgt)], weights)
            d_one = theta_one - weights.config.control_points
            np.testing.assert_allclose(deltas[i], d_one[0], rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(transformed[i], t_one[0], rtol=1e-4, atol=1e-6)

    def test_mixed_sources_match_single_pairs(self, batch_env, monkeypatch):
        # runs of one pair and of two, with chunks of three pairs that
        # split the runs; each pair warps its own source
        monkeypatch.setattr(model, "EVAL_CHUNK", 3)
        weights, src, targets = batch_env
        other = src[::-1] * 0.8
        pairs = [(src, targets[0]), (other, targets[1]), (other, targets[2]), (src, targets[3]),
                 (other, targets[4]), (src, targets[4])]
        thetas, transformed = model.forward_shared_source(pairs, weights)
        deltas = thetas - weights.config.control_points
        for i, pair in enumerate(pairs):
            theta_one, t_one = model.forward_shared_source([pair], weights)
            d_one = theta_one - weights.config.control_points
            np.testing.assert_allclose(deltas[i], d_one[0], rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(transformed[i], t_one[0], rtol=1e-4, atol=1e-6)
        assert not np.allclose(deltas[4], deltas[5], rtol=1e-4, atol=1e-6)

    def test_train_mode_builds_graph_over_all_pairs(self, batch_env):
        weights, src, targets = batch_env
        deltas, transformed, _ = model.train_forward([(src, t) for t in targets], weights)
        total = refops.tensor_sum(transformed[0])
        for t in transformed[1:]:
            total = refops.add(total, refops.tensor_sum(t))
        total.backward()
        for layer in weights.mlp:
            assert layer.weight.grad is not None
            assert np.all(np.isfinite(layer.weight.grad))
        ad.zero_grads(weights.params())

    def test_mixed_target_sizes(self, batch_env):
        weights, src, _ = batch_env
        rng = np.random.default_rng(43)
        targets = [rng.uniform(-0.9, 0.9, size=(n, 2)) for n in (30, 46, 30)]
        thetas, transformed = model.forward_shared_source([(src, t) for t in targets], weights)
        assert thetas.shape == (3, 9, 2)
        assert [t.shape[0] for t in transformed] == [48, 48, 48]

    def test_no_targets_rejected(self, batch_env):
        weights, src, _ = batch_env
        for forward in (model.forward_shared_source, model.train_forward, model.batch_norm_statistics):
            with pytest.raises(ValueError, match="no pairs"):
                forward([], weights)

    def test_one_pair_has_no_batch_statistics(self, batch_env):
        # fc1 normalises one row per pair, so one pair leaves it nothing to
        # normalise by; the training forward refuses it the same way
        weights, src, targets = batch_env
        with pytest.raises(ValueError, match="two or more pairs"):
            model.batch_norm_statistics([(src, targets[0])], weights)
        with pytest.raises(ValueError, match="at least 2 rows"):
            model.train_forward([(src, targets[0])], weights)


class TestFullNetworkGradients:
    """Finite-difference checks of the training forward on a narrow float64
    configuration."""

    @staticmethod
    def check(pairs_of):
        cfg = tiny_config()
        weights = model.init_weights(cfg, seed=13)
        rng = np.random.default_rng(47)
        randomize_weights(weights, rng)
        src = rng.uniform(-0.9, 0.9, size=(10, 2))
        targets = [rng.uniform(-0.9, 0.9, size=(10, 2)) for _ in range(2)]
        pairs = pairs_of(src, targets)

        def build():
            # the loss scores each warp against its target in the network
            # frame, as the trainer does
            _, transformed, frame_targets = model.train_forward(pairs, weights)
            total = refops.gmm_loss(transformed[0], frame_targets[0], 0.5)
            for t, g in zip(transformed[1:], frame_targets[1:]):
                total = refops.add(total, refops.gmm_loss(t, g, 0.5))
            return total

        assert_grads_match(build, weights.params(), h=1e-6, rtol=1e-4, atol=1e-7)

    def test_every_parameter_matches_finite_differences(self):
        self.check(lambda src, targets: [(src, t) for t in targets])

    def test_two_sources_match_finite_differences(self):
        # each pair its own source: the correlations stack two runs, and
        # each transform uses its own source's warp basis
        self.check(lambda src, targets: [(src, targets[0]), (src[::-1] * 0.7 + 0.05, targets[1])])


def tiny_config_3d(dtype="float64"):
    return model.PrNetConfig(
        dim=3, grid_shape=(4, 4, 4), mlp_widths=(6, 8), conv_channels=(6, 8),
        conv_kernels=(2, 2), fc_hidden=7, dtype=dtype,
    )


def bn_layers(weights):
    return [*weights.mlp, *weights.convs, weights.fc1]


def graph_free_env(dim, dtype="float64"):
    """Randomized tiny weights and four pairs: the first two share one
    source, the last two the other."""
    cfg = tiny_config(dtype) if dim == "2d" else tiny_config_3d(dtype)
    weights = model.init_weights(cfg, seed=17)
    rng = np.random.default_rng(59)
    randomize_weights(weights, rng)
    sources = [rng.uniform(-0.9, 0.9, size=(n, cfg.dim)) for n in (12, 10)]
    targets = [rng.uniform(-0.9, 0.9, size=(n, cfg.dim)) for n in (12, 9, 12, 15)]
    return weights, [(sources[i // 2], t) for i, t in enumerate(targets)]


class TestGraphFreeForward:
    """The graph-free stages against the training graph: batch statistics
    reproduce the train route, running statistics equal to those batch
    statistics reproduce batch mode, and eval builds no graph."""

    @pytest.fixture(params=["2d", "3d"])
    def env(self, request):
        return graph_free_env(request.param)

    @staticmethod
    def batch_mode(weights, pairs):
        # the stages run on pairs in the network frame: each pair mapped by
        # the normalizer of its source
        stats = []
        norms = [model.fit_normalizer(pairs[0][0]), model.fit_normalizer(pairs[2][0])]
        sources = [norms[0].apply(pairs[0][0]), norms[1].apply(pairs[2][0])]
        targets = [norms[i // 2].apply(t) for i, (_, t) in enumerate(pairs)]
        sets = [model.canonical_order(p) for p in [*sources, *targets]]
        desc = model._descriptors(sets, weights, stats)
        corr = ad.correlation_forward(desc, [0, 0, 1, 1], weights.config.grid_count)[0]
        return model._head(corr, weights, stats), stats

    def test_batch_mode_matches_train_route(self, env):
        weights, pairs = env
        train_deltas, _, _ = model.train_forward(pairs, weights)
        deltas, stats = self.batch_mode(weights, pairs)
        np.testing.assert_allclose(deltas, train_deltas.data, rtol=1e-4, atol=1e-6)
        assert len(stats) == len(bn_layers(weights))
        for (m, v), (m2, v2) in zip(stats, model.batch_norm_statistics(pairs, weights)):
            assert m.tobytes() == m2.tobytes() and v.tobytes() == v2.tobytes()

    def test_running_mode_with_batch_statistics_matches_batch_mode(self, env):
        weights, pairs = env
        deltas, stats = self.batch_mode(weights, pairs)
        for layer, (mean, var) in zip(bn_layers(weights), stats):
            layer.bn_mean = mean
            layer.bn_var = var
        thetas, _ = model.forward_shared_source(pairs, weights)
        eval_deltas = (thetas - weights.config.control_points).reshape(deltas.shape)
        np.testing.assert_allclose(eval_deltas, deltas, rtol=1e-4, atol=1e-6)

    def test_eval_outputs_carry_no_graph(self, env):
        weights, pairs = env
        thetas, transformed = model.forward_shared_source(pairs, weights)
        for t in [thetas, *transformed]:
            assert type(t) is np.ndarray

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("dim", ["2d", "3d"])
    def test_statistics_equal_the_training_forward_s(self, dim, dtype, monkeypatch):
        # precise BN must normalise by exactly what training normalised by:
        # record every layer's batch statistics inside one train_forward
        weights, pairs = graph_free_env(dim, dtype)
        seen = []
        bn_act_forward, mlp_forward = ad.bn_act_forward, ad.pooled_mlp_forward

        def record_bn(*args, **kwargs):
            out = bn_act_forward(*args, **kwargs)
            seen.append(out[1:3])
            return out

        def record_mlp(*args, **kwargs):
            mlp = mlp_forward(*args, **kwargs)
            seen.extend(mlp.stats)
            return mlp

        monkeypatch.setattr(ad, "bn_act_forward", record_bn)
        monkeypatch.setattr(ad, "pooled_mlp_forward", record_mlp)
        model.train_forward(pairs, weights)
        monkeypatch.undo()
        stats = model.batch_norm_statistics(pairs, weights)
        assert len(seen) == len(stats) == len(bn_layers(weights))
        for layer, ((m, v), (m2, v2)) in enumerate(zip(seen, stats)):
            assert m.tobytes() == m2.tobytes() and v.tobytes() == v2.tobytes(), layer


class TestHeadBlocks:
    """Under running statistics the head runs in blocks of
    ``model.HEAD_BLOCK`` pairs, one contiguous run of blocks per worker of
    ``autodiff.each_run``; neither the blocks nor the workers change a bit
    of what ``forward_shared_source`` returns."""

    HB = model.HEAD_BLOCK
    SIZES = sorted({1, 2, HB - 1, HB + 1, 2 * HB + 1, model.EVAL_CHUNK + 1})  # the last crosses EVAL_CHUNK

    def test_the_remainder_joins_the_last_block(self):
        hb = self.HB
        assert model._head_blocks(1) == [(0, 1)]
        assert model._head_blocks(hb - 1) == [(0, hb - 1)]
        assert model._head_blocks(hb) == [(0, hb)]
        assert model._head_blocks(2 * hb - 1) == [(0, 2 * hb - 1)]
        assert model._head_blocks(2 * hb) == [(0, hb), (hb, 2 * hb)]
        assert model._head_blocks(2 * hb + 1) == [(0, hb), (hb, 2 * hb + 1)]
        for batch in range(1, 4 * hb + 2):
            blocks = model._head_blocks(batch)
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]] and blocks[-1][1] == batch
            assert all(hi - lo == hb for lo, hi in blocks[:-1]), batch
            assert min(batch, hb) <= blocks[-1][1] - blocks[-1][0] < 2 * hb, batch

    @staticmethod
    def env(case):
        dim = 3 if case == "3d" else 2
        cfg = tiny_config_3d("float32") if dim == 3 else tiny_config(case)
        weights = model.init_weights(cfg, seed=61)
        rng = np.random.default_rng(67)
        randomize_weights(weights, rng)
        sources = [rng.uniform(-0.9, 0.9, size=(n, dim)) for n in (11, 14)]
        targets = [rng.uniform(-0.9, 0.9, size=(5 + i % 7, dim)) for i in range(max(TestHeadBlocks.SIZES))]
        # a second source from pair 20 on, so some chunks hold two runs
        return weights, [(sources[i >= 20], t) for i, t in enumerate(targets)]

    @staticmethod
    def outputs(pairs, weights) -> bytes:
        thetas, transformed = model.forward_shared_source(pairs, weights)
        return b"".join(a.tobytes() for a in (thetas, *transformed))

    @pytest.mark.parametrize("batch", SIZES)
    @pytest.mark.parametrize("case", ["float32", "float64", "3d"])
    def test_outputs_do_not_depend_on_blocks_or_workers(self, case, batch, use_workers, monkeypatch):
        # three workers, more than the cores of a two-core host, switching
        # threads far more often than by default; and the head as one block
        # per chunk, which gives the same bits on the OpenBLAS build measured
        weights, pairs = self.env(case)
        pairs = pairs[:batch]
        use_workers(ThreadPoolExecutor(1))
        got = self.outputs(pairs, weights)
        use_workers(ThreadPoolExecutor(2))
        assert self.outputs(pairs, weights) == got
        use_workers(ThreadPoolExecutor(3))
        with switching_often():
            assert self.outputs(pairs, weights) == got
        monkeypatch.setattr(model, "HEAD_BLOCK", model.EVAL_CHUNK)
        assert self.outputs(pairs, weights) == got

    @pytest.mark.parametrize("failing", ["calling thread", "worker thread"])
    def test_an_error_in_one_block_reaches_the_caller_after_the_other_runs(self, failing, monkeypatch,
                                                                          use_workers):
        # two blocks on two workers: once armed, the block on one thread
        # raises at once while the other runs slowly. The error comes out
        # with its own type once the other block has finished, and the next
        # call gives the same bits as a clean one
        monkeypatch.setattr(model, "EVAL_CHUNK", 2 * self.HB)
        weights, pairs = self.env("float32")
        pairs = pairs[:2 * self.HB]
        head_block = model._head_block
        armed, finished = [], []

        def failing_block(corr, weights, stats, work):
            if armed and (threading.current_thread() is threading.main_thread()) == (failing == "calling thread"):
                raise Boom(failing)
            if armed:
                time.sleep(0.05)
            out = head_block(corr, weights, stats, work)
            finished.append(armed[:])
            return out

        monkeypatch.setattr(model, "_head_block", failing_block)
        pool = use_workers(CountingPool(2))
        clean = self.outputs(pairs, weights)
        armed.append(True)
        with pytest.raises(Boom, match=failing):
            model.forward_shared_source(pairs, weights)
        assert finished[-1] == [True] and pool.unfinished == 0
        armed.clear()
        assert self.outputs(pairs, weights) == clean

    @pytest.mark.parametrize("case", ["float32", "float64", "3d"])
    def test_work_arrays_give_the_bits_of_fresh_ones(self, case):
        weights, _ = self.env(case)
        g = weights.config.grid_count
        corr = np.random.default_rng(5).uniform(-1, 1, (self.HB * g, g)).astype(weights.config.dtype)
        fresh = model._head_block(corr, weights, None)
        work = model._head_work(self.HB, weights, corr.dtype)
        assert model._head_block(corr, weights, None, work).tobytes() == fresh.tobytes()

    def test_the_workers_write_into_arrays_the_calling_thread_allocated(self, monkeypatch, use_workers):
        # every block's window rows and conv products go to the arrays of its
        # _head_work, made on the calling thread before the tasks start, so
        # no worker allocates a large array. With no rows budget every conv
        # layer builds its rows in four sub-blocks, each over the last
        weights, pairs = self.env("float32")
        head_work, window_rows, norm_act = model._head_work, ad.window_rows, model._norm_act
        made, rows, products = [], [], []

        def recording_work(*args):
            made.append((threading.current_thread(), head_work(*args)))
            return made[-1][1]

        def recording_rows(*args):
            out = window_rows(*args)
            rows.append((threading.current_thread(), out[0]))
            return out

        def recording_norm_act(z, layer, stats):
            act = norm_act(z, layer, stats)
            if any(layer is conv for conv in weights.convs):
                products.append((threading.current_thread(), act))
            return act

        monkeypatch.setattr(model, "HEAD_ROWS_BUDGET", 0)
        monkeypatch.setattr(model, "_head_work", recording_work)
        monkeypatch.setattr(ad, "window_rows", recording_rows)
        monkeypatch.setattr(model, "_norm_act", recording_norm_act)
        use_workers(ThreadPoolExecutor(2))
        model.forward_shared_source(pairs[:2 * self.HB], weights)
        assert [t for t, _ in made] == [threading.main_thread()] * 2
        layers = len(weights.convs)
        for arrays, which, calls in ((rows, 0, 4 * layers), (products, 1, layers)):
            assert len(arrays) == 2 * calls and len({t for t, _ in arrays}) == 2
            for thread, a in arrays:
                owners = [i for i, (_, work) in enumerate(made) if np.shares_memory(a, work[which])]
                assert len(owners) == 1
                assert [t for t, b in arrays if np.shares_memory(b, made[owners[0]][1][which])] == [thread] * calls

    @staticmethod
    def default_env(dim):
        cfg = model.PrNetConfig.for_dim(dim)
        weights = model.init_weights(cfg, seed=73)
        rng = np.random.default_rng(79)
        randomize_weights(weights, rng, scale=0.05)
        sources = [rng.uniform(-0.9, 0.9, size=(n, dim)) for n in (12, 9)]
        targets = [rng.uniform(-0.9, 0.9, size=(4 + i % 5, dim)) for i in range(model.EVAL_CHUNK + 1)]
        return weights, [(sources[i >= 20], t) for i, t in enumerate(targets)]

    def test_large_window_rows_split_into_sub_blocks(self):
        # per 32-pair block of the default nets, the window rows of a layer
        # past the budget (2D conv0 and conv1, 3D conv0) split into four
        # sub-blocks of 8 pairs; a one-pair block never splits. The block's
        # work arrays then hold 4.6 MB, against 12.6 MB unsplit
        for dim, split in ((2, [True, True, False]), (3, [True, False, False])):
            weights = model.init_weights(model.PrNetConfig.for_dim(dim), seed=0)
            for (p, k, _), splits in zip(model._conv_sizes(weights), split):
                blocks = model._conv_blocks(self.HB, p * k * 4)
                assert blocks == ([(0, 8), (8, 16), (16, 24), (24, 32)] if splits else [(0, self.HB)])
                assert model._conv_blocks(1, p * k * 4) == [(0, 1)]
        weights = model.init_weights(model.PrNetConfig(), seed=0)
        rows, products = model._head_work(self.HB, weights, np.float32)
        assert rows.nbytes + products.nbytes < 4.7e6
        assert model._head_work(1, weights, np.float32)[0].size == 81 * 1089

    @pytest.mark.parametrize("batch", [1, 7, 8, 9, 15, 16, 17, 32, 33, 41, 64, 65])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_sub_blocks_give_the_bits_of_whole_layers(self, dim, batch, use_workers, monkeypatch):
        # the default nets' large conv layers in sub-blocks, on 1, 2 and 3
        # workers, against no layer split: the same bits on the OpenBLAS
        # build measured. Test-sized nets never reach the budget, since
        # their sub-blocks would change bits
        weights, pairs = self.default_env(dim)
        pairs = pairs[:batch]
        use_workers(ThreadPoolExecutor(1))
        with monkeypatch.context() as whole:
            whole.setattr(model, "HEAD_ROWS_BUDGET", np.inf)
            expected = self.outputs(pairs, weights)
        for workers in (1, 2, 3):
            use_workers(ThreadPoolExecutor(workers))
            assert self.outputs(pairs, weights) == expected, workers

    def test_a_round_never_holds_two_blocks_whole_conv0_rows(self, use_workers):
        # a 64-pair default 2D forward holds each block's conv0 window rows
        # one 8-pair sub-block at a time, so its traced peak stays below
        # the size of both blocks' whole conv0 rows
        use_workers(ThreadPoolExecutor(ad.MAX_WORKERS))
        weights = model.init_weights(model.PrNetConfig(), seed=83)
        rng = np.random.default_rng(89)
        source = rng.uniform(-0.9, 0.9, size=(96, 2))
        pairs = [(source, rng.uniform(-0.9, 0.9, size=(96, 2))) for _ in range(2 * self.HB)]
        model.forward_shared_source(pairs, weights)
        bound = 2 * self.HB * 81 * 1089 * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            model.forward_shared_source(pairs, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestInitWeights:
    """Each drawn weight is the whole-array draw of its stream cast to the
    network dtype (``reference_ops.init_weights``), filled chunk by chunk,
    so no float64 copy of a whole array is held."""

    @pytest.mark.parametrize("chunk", [model._INIT_CHUNK, 999])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_arrays_equal_the_whole_draw(self, dim, dtype, chunk, monkeypatch):
        # 999 entries divide no drawn weight of either default net
        monkeypatch.setattr(model, "_INIT_CHUNK", chunk)
        cfg = dataclasses.replace(model.PrNetConfig.for_dim(dim), dtype=dtype)
        for seed in (0, 7):
            got = model.init_weights(cfg, seed).named_arrays()
            expected = refops.init_weights(cfg, seed).named_arrays()
            assert list(got) == list(expected)
            for name, a in got.items():
                assert a.dtype == expected[name].dtype and a.tobytes() == expected[name].tobytes(), name

    def test_holds_one_chunk_beyond_the_weights(self):
        # a whole draw would hold 26 MB more, conv2's float64 copy; the
        # layer objects take well under the 64 KiB allowed for them
        cfg = model.PrNetConfig()
        model.init_weights(tiny_config(), seed=0)  # first-call module state
        tracemalloc.start()
        try:
            weights = model.init_weights(cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in weights.named_arrays().values())
        bound = held + model._INIT_CHUNK * np.dtype(np.float64).itemsize + 64 * 1024
        assert peak < bound, (peak, bound)


class TestOneBatchNormLayer:
    """The training ops and the graph-free stage share one batch norm plus
    leaky ReLU: on the same inputs their outputs are equal byte for byte,
    and the statistics the stage reports are ``batch_stats`` of the
    pre-norm rows."""

    @pytest.fixture(params=["float32", "float64"])
    def weights(self, request):
        weights = model.init_weights(tiny_config(dtype=request.param), seed=29)
        randomize_weights(weights, np.random.default_rng(61))
        return weights

    @staticmethod
    def stage(rows, w, layer):
        stats = []
        act = model._bn_act(rows, w, layer, stats)
        z = rows @ w
        z += layer.bias.data
        [(mean, var)] = stats
        ref_mean, ref_var = ad.batch_stats(z)
        assert mean.tobytes() == ref_mean.tobytes() and var.tobytes() == ref_var.tobytes()
        return act

    @pytest.mark.parametrize("which,rows", [("mlp0", 300), ("mlp1", 300), ("fc1", 5)])
    def test_dense_op_equals_stage(self, weights, which, rows):
        layer = weights.fc1 if which == "fc1" else weights.mlp[int(which[-1])]
        dt = weights.config.np_dtype()
        x = np.random.default_rng(67).normal(size=(rows, layer.weight.data.shape[0])).astype(dt)
        out = ad.dense_bn_act(x, layer.weight, layer.bias, layer.bn_scale, layer.bn_shift)
        assert out.data.tobytes() == self.stage(x, layer.weight.data, layer).tobytes()

    @pytest.mark.parametrize("index", [0, 1])
    def test_conv_op_equals_stage(self, weights, index):
        cfg = weights.config
        layer = weights.convs[index]
        kd = layer.weight.data
        spatial = cfg.spatial_trace()[index]
        x = np.random.default_rng(71).normal(size=(3, kd.shape[1]) + spatial).astype(cfg.np_dtype())
        out = ad.conv_bn_act_batch(ad.Tensor(x), layer.weight, layer.bias, layer.bn_scale, layer.bn_shift)
        cols, out_spatial = ad.window_rows(x, kd.shape[2:])
        act = self.stage(cols, kd.reshape(kd.shape[0], -1).T, layer)
        act = np.moveaxis(act.reshape((3,) + out_spatial + (-1,)), -1, 1)
        assert out.data.tobytes() == np.ascontiguousarray(act).tobytes()


class TestCheckpointContainer:
    @pytest.fixture
    def weights(self):
        w = model.init_weights(tiny_config(dtype="float32"), seed=21)
        randomize_weights(w, np.random.default_rng(53), scale=0.1)
        return w

    def test_round_trip_is_bit_exact(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        model.save_model(path, weights, {"note": "x"}, {})
        loaded, meta, extras = model.load_model(path)
        assert meta["note"] == "x"
        assert extras == {}
        for name, arr in weights.named_arrays().items():
            got = loaded.named_arrays()[name]
            assert got.tobytes() == arr.tobytes(), name

    def test_save_load_save_identical_files(self, tmp_path, weights):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save_model(a, weights, {}, {})
        loaded, _, _ = model.load_model(a)
        model.save_model(b, loaded, {}, {})
        assert a.read_bytes() == b.read_bytes()

    def test_extra_arrays_round_trip(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        extra = {"opt.m": np.arange(6, dtype=np.float64)}
        model.save_model(path, weights, {}, extra)
        _, _, extras = model.load_model(path, extra_prefix="opt.")
        np.testing.assert_array_equal(extras["opt.m"], extra["opt.m"])

    def test_flipped_payload_byte_detected(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        model.save_model(path, weights, {}, {})
        raw = bytearray(path.read_bytes())
        raw[array_data_spans(path)["out.bias"][1] - 1] ^= 0xFF  # the last array byte
        path.write_bytes(bytes(raw))
        with pytest.raises(model.CorruptCheckpointError, match="Bad CRC-32"):
            model.load_model(path)

    def test_truncated_file_detected(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        model.save_model(path, weights, {}, {})
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(model.CorruptCheckpointError):
            model.load_model(path)

    def test_wrong_magic_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(model.CorruptCheckpointError, match="not an .npz checkpoint"):
            model.load_model(path)

    def test_colliding_extra_names_rejected(self, tmp_path, weights):
        with pytest.raises(ValueError, match="collide"):
            model.save_model(
                tmp_path / "x.ckpt", weights, {}, {"mlp0.weight": np.zeros(2)},
            )

    def test_config_survives_round_trip(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        model.save_model(path, weights, {}, {})
        loaded, _, _ = model.load_model(path)
        assert loaded.config == weights.config
