"""Tests for the registration network.

The descriptor and correlation stages are checked against brute-force
oracles; the full pipeline is checked for the identity-at-initialization
property, bitwise permutation invariance, and finite-difference gradient
agreement on a narrow float64 configuration.
"""

import numpy as np
import pytest

from pointreg import autodiff as ad
from pointreg import losses
from pointreg import model
from pointreg import tps

from conftest import assert_grads_match


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
        st = layer.bn_state
        dt = st.running_mean.dtype
        st.running_mean = rng.normal(0.0, 0.2, size=st.running_mean.shape).astype(dt)
        st.running_var = rng.uniform(0.5, 2.0, size=st.running_var.shape).astype(dt)


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
        assert grid.count == 12
        np.testing.assert_array_equal(grid.points[0], [-1.0, -1.0])
        np.testing.assert_array_equal(grid.points[-1], [1.0, 1.0])
        # row-major: the last axis varies fastest
        np.testing.assert_allclose(grid.points[1], [-1.0, -1.0 + 2.0 / 3])
        assert np.all(np.abs(grid.points) <= 1.0)

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
    grid = model.build_reference_grid(cfg.dim, cfg.grid_shape)
    return cfg, weights, grid


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


class TestDescriptor:
    def test_shape_and_unit_rows(self, descriptor_env):
        cfg, weights, grid = descriptor_env
        pts = np.random.default_rng(0).uniform(-0.9, 0.9, size=(40, 2))
        sdt = model.compute_sdt(pts, grid, weights)
        assert sdt.data.shape == (cfg.grid_count, cfg.mlp_widths[-1])
        norms = np.linalg.norm(sdt.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_bitwise_permutation_invariance(self, descriptor_env):
        _, weights, grid = descriptor_env
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.9, 0.9, size=(64, 2))
        base = model.compute_sdt(pts, grid, weights).data.tobytes()
        for _ in range(30):
            shuffled = pts[rng.permutation(64)]
            assert model.compute_sdt(shuffled, grid, weights).data.tobytes() == base

    def test_fast_path_matches_graph_path(self, descriptor_env):
        # eval descriptors skip the autodiff graph entirely; the two routes
        # must agree to float rounding
        _, weights, grid = descriptor_env
        pts = np.random.default_rng(2).uniform(-0.9, 0.9, size=(48, 2))
        fast = model.compute_sdt(pts, grid, weights)
        ordered = model.canonical_order(pts)
        graph = model._descriptor_block([ordered], grid, weights, train=False)
        assert fast._backward is None
        np.testing.assert_allclose(fast.data, graph.data, rtol=1e-4, atol=1e-5)

    def test_empty_set_rejected(self, descriptor_env):
        _, weights, grid = descriptor_env
        with pytest.raises(ValueError, match="empty"):
            model.compute_sdt(np.zeros((0, 2)), grid, weights)

    def test_dim_mismatch_rejected(self, descriptor_env):
        _, weights, grid = descriptor_env
        with pytest.raises(ValueError, match="dim"):
            model.compute_sdt(np.zeros((5, 3)), grid, weights)

    def test_3d_descriptor_shape(self):
        cfg = model.PrNetConfig.for_dim(3)
        weights = model.init_weights(cfg, seed=6)
        grid = model.build_reference_grid(3, cfg.grid_shape)
        pts = np.random.default_rng(3).uniform(-0.9, 0.9, size=(32, 3))
        sdt = model.compute_sdt(pts, grid, weights)
        assert sdt.data.shape == (125, 128)


class TestCorrelation:
    def test_matches_double_loop_oracle(self):
        # two targets stacked; each block is checked on its own, in the
        # transposed (channel = target grid point) layout
        rng = np.random.default_rng(17)
        g = 12
        f_s = ad.Tensor(rng.normal(size=(g, 7)), dtype=np.float64)
        f_g_all = ad.Tensor(rng.normal(size=(2 * g, 7)), dtype=np.float64)
        corr = model.compute_correlation(f_s, f_g_all, g)
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
            model.compute_correlation(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros((3, 5))), 3)


class TestIdentityAtInitialization:
    def test_2d_forward_reproduces_source(self):
        rng = np.random.default_rng(23)
        weights = model.init_weights(model.PrNetConfig(), seed=1)
        src = rng.uniform(-2.0, 3.0, size=(64, 2))
        tgt = src + rng.normal(0.0, 0.1, size=src.shape)
        warp, transformed = model.forward(src, tgt, weights)
        np.testing.assert_array_equal(np.asarray(warp.theta), warp.grid.points)
        np.testing.assert_allclose(transformed, model.canonical_order(src), atol=1e-9)

    def test_3d_forward_reproduces_source(self):
        rng = np.random.default_rng(29)
        weights = model.init_weights(model.PrNetConfig.for_dim(3), seed=2)
        src = rng.uniform(-1.0, 1.0, size=(32, 3))
        tgt = rng.uniform(-1.0, 1.0, size=(32, 3))
        _, transformed = model.forward(src, tgt, weights)
        np.testing.assert_allclose(transformed, model.canonical_order(src), atol=1e-9)

    def test_output_in_original_coordinates(self):
        # a shifted and scaled copy of the same shape must come back in its
        # own frame, not the normalized one
        rng = np.random.default_rng(31)
        weights = model.init_weights(model.PrNetConfig(), seed=1)
        src = rng.uniform(-1.0, 1.0, size=(40, 2)) * 37.0 + 1000.0
        _, transformed = model.forward(src, src.copy(), weights)
        np.testing.assert_allclose(transformed, model.canonical_order(src), atol=1e-6)


class TestSharedSourceBatch:
    def test_batched_eval_matches_single_pair(self, batch_env):
        weights, src, targets = batch_env
        deltas, transformed = model.forward_shared_source(src, targets, weights)
        assert deltas.data.shape == (5, 18)
        for i, tgt in enumerate(targets):
            d_one, t_one = model.forward_shared_source(src, [tgt], weights)
            np.testing.assert_allclose(deltas.data[i], d_one.data[0], rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(
                transformed[i].data, t_one[0].data, rtol=1e-4, atol=1e-6
            )

    def test_train_mode_builds_graph_over_all_pairs(self, batch_env):
        weights, src, targets = batch_env
        deltas, transformed = model.forward_shared_source(src, targets, weights, train=True)
        total = ad.tensor_sum(transformed[0])
        for t in transformed[1:]:
            total = ad.add(total, ad.tensor_sum(t))
        total.backward()
        for layer in weights.mlp:
            assert layer.weight.grad is not None
            assert np.all(np.isfinite(layer.weight.grad))
        ad.zero_grads(weights.params(), recycle=True)

    def test_mixed_target_sizes(self, batch_env):
        weights, src, _ = batch_env
        rng = np.random.default_rng(43)
        targets = [rng.uniform(-0.9, 0.9, size=(n, 2)) for n in (30, 46, 30)]
        deltas, transformed = model.forward_shared_source(src, targets, weights)
        assert deltas.data.shape == (3, 18)
        assert [t.data.shape[0] for t in transformed] == [48, 48, 48]

    def test_no_targets_rejected(self, batch_env):
        weights, src, _ = batch_env
        with pytest.raises(ValueError, match="no targets"):
            model.forward_shared_source(src, [], weights)


class TestFullNetworkGradients:
    """Finite-difference checks on a narrow float64 configuration.

    Run twice: once through the eval-with-graph route (running statistics)
    and once through the train route (batch statistics), so both batch-norm
    paths are covered in full composition.
    """

    def _loss_eval(self, weights, src, targets, grid, sigma):
        _, transformed = model.forward_shared_source(
            src, targets, weights, grid=grid, with_graph=True
        )
        total = losses.gmm_loss(transformed[0], targets[0], sigma)
        for t, g in zip(transformed[1:], targets[1:]):
            total = ad.add(total, losses.gmm_loss(t, g, sigma))
        return total

    def _loss_train(self, weights, src, targets, grid, sigma):
        _, transformed = model.forward_shared_source(
            src, targets, weights, train=True, grid=grid
        )
        total = losses.gmm_loss(transformed[0], targets[0], sigma)
        for t, g in zip(transformed[1:], targets[1:]):
            total = ad.add(total, losses.gmm_loss(t, g, sigma))
        return total

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_every_parameter_matches_finite_differences(self, mode):
        cfg = tiny_config()
        weights = model.init_weights(cfg, seed=13)
        rng = np.random.default_rng(47)
        randomize_weights(weights, rng)
        grid = model.build_reference_grid(cfg.dim, cfg.grid_shape)
        src = rng.uniform(-0.9, 0.9, size=(10, 2))
        targets = [rng.uniform(-0.9, 0.9, size=(10, 2)) for _ in range(2)]
        saved = [
            (l.bn_state.running_mean.copy(), l.bn_state.running_var.copy())
            for l in [*weights.mlp, *weights.convs, weights.fc1]
        ]

        build_fn = self._loss_eval if mode == "eval" else self._loss_train

        def build():
            # train mode updates running stats as a side effect; pin them so
            # repeated FD evaluations see identical state
            for layer, (m, v) in zip([*weights.mlp, *weights.convs, weights.fc1], saved):
                layer.bn_state.running_mean = m.copy()
                layer.bn_state.running_var = v.copy()
            return build_fn(weights, src, targets, grid, sigma=0.5)

        assert_grads_match(build, weights.params(), h=1e-6, rtol=1e-4, atol=1e-7)


class TestCheckpointContainer:
    @pytest.fixture
    def weights(self):
        w = model.init_weights(tiny_config(dtype="float32"), seed=21)
        randomize_weights(w, np.random.default_rng(53), scale=0.1)
        return w

    def test_round_trip_is_bit_exact(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        model.save_model(path, weights, extra_meta={"note": "x"})
        loaded, meta, extras = model.load_model(path)
        assert meta["note"] == "x"
        assert extras == {}
        for name, arr in weights.named_arrays().items():
            got = loaded.named_arrays()[name]
            assert got.tobytes() == arr.tobytes(), name

    def test_save_load_save_identical_files(self, tmp_path, weights):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save_model(a, weights)
        loaded, _, _ = model.load_model(a)
        model.save_model(b, loaded)
        assert a.read_bytes() == b.read_bytes()

    def test_extra_arrays_round_trip(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        extra = {"opt.m": np.arange(6, dtype=np.float64)}
        model.save_model(path, weights, extra_arrays=extra)
        _, _, extras = model.load_model(path)
        np.testing.assert_array_equal(extras["opt.m"], extra["opt.m"])

    def test_flipped_payload_byte_detected(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        model.save_model(path, weights)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(model.CorruptCheckpointError, match="checksum"):
            model.load_model(path)

    def test_truncated_file_detected(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        model.save_model(path, weights)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(model.CorruptCheckpointError):
            model.load_model(path)

    def test_wrong_magic_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(model.CorruptCheckpointError, match="magic"):
            model.load_model(path)

    def test_colliding_extra_names_rejected(self, tmp_path, weights):
        with pytest.raises(ValueError, match="collide"):
            model.save_model(
                tmp_path / "x.ckpt", weights,
                extra_arrays={"mlp0.weight": np.zeros(2)},
            )

    def test_config_survives_round_trip(self, tmp_path, weights):
        path = tmp_path / "model.ckpt"
        model.save_model(path, weights)
        loaded, _, _ = model.load_model(path)
        assert loaded.config == weights.config
