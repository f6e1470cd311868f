"""Tests for the training loop.

Everything runs on a deliberately narrow architecture and small datasets;
the full-size training budget belongs to the acceptance suite.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from pointreg import autodiff as ad
from pointreg import datagen, evaluator, losses, model, trainer

import reference_ops as refops


def small_config():
    return model.PrNetConfig(
        grid_shape=(7, 7),
        mlp_widths=(8, 16, 32),
        conv_channels=(16, 24, 32),
        conv_kernels=(3, 3, 3),
        fc_hidden=24,
    )


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    shape = datagen.sample_shape("fish", 48)
    cfg = datagen.SynthConfig(deformation_level=0.3, seed=77, pair_count=24)
    out = tmp_path_factory.mktemp("data") / "d"
    return datagen.generate_dataset(shape, cfg, out)


def fresh_weights(seed=3):
    return model.init_weights(small_config(), seed=seed)


class TestTrainConfig:
    def test_defaults(self):
        cfg = trainer.TrainConfig(epochs=5)
        assert cfg.batch_size == 16
        assert cfg.learning_rate == 1e-4
        assert cfg.lr_decay == 0.995

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"epochs": -1}, "epochs"),
            ({"epochs": 1, "batch_size": 1}, "batch_size"),
            ({"epochs": 1, "learning_rate": 0.0}, "learning_rate"),
            ({"epochs": 1, "lr_decay": -0.5}, "lr_decay"),
            ({"epochs": 1, "sigma_floor": 0.0}, "sigma_floor"),
            ({"epochs": 1, "checkpoint_every": 2}, "checkpoint_dir"),
            ({"epochs": 1, "learning_rate": float("nan")}, "learning_rate"),
            ({"epochs": 1, "lr_decay": float("inf")}, "lr_decay"),
            ({"epochs": 1, "sigma_initial": float("inf")}, "sigma_initial"),
            ({"epochs": 1, "sigma_floor": float("inf")}, "sigma_floor"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            trainer.TrainConfig(**kwargs)


class TestTrainBasics:
    def test_zero_epochs_is_a_no_op(self, small_dataset):
        weights = fresh_weights()
        before = {k: v.copy() for k, v in weights.named_arrays().items()}
        out, history = trainer.train(trainer.TrainConfig(epochs=0), small_dataset, weights)
        assert history == []
        for k, v in out.named_arrays().items():
            assert v.tobytes() == before[k].tobytes(), k

    def test_weights_change_after_an_epoch(self, small_dataset):
        weights = fresh_weights()
        before = weights.mlp[0].weight.data.copy()
        trainer.train(
            trainer.TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3),
            small_dataset, weights,
        )
        assert not np.array_equal(weights.mlp[0].weight.data, before)

    def test_batch_normed_biases_stay_fixed(self, small_dataset):
        # batch norm removes a layer's bias, so its gradient is exactly 0
        # and Adam leaves it in place; the output layer's bias trains
        weights = fresh_weights()
        before = {k: v.copy() for k, v in weights.named_arrays().items() if k.endswith(".bias")}
        trainer.train(trainer.TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3), small_dataset, weights)
        after = weights.named_arrays()
        assert len(before) == 8
        for name, value in before.items():
            assert (after[name].tobytes() == value.tobytes()) == (name != "out.bias"), name

    def test_history_schedule_closed_forms(self, small_dataset):
        cfg = trainer.TrainConfig(epochs=3, batch_size=8, learning_rate=2e-4, lr_decay=0.9)
        weights = fresh_weights()
        _, history = trainer.train(cfg, small_dataset, weights)
        assert [s.epoch for s in history] == [1, 2, 3]
        # 24 pairs, 5% val -> 23 train pairs -> batches of 8, 8, 7 per epoch
        steps_per_epoch = 3
        for s in history:
            assert s.sigma == losses.sigma_at(s.epoch * steps_per_epoch, cfg.sigma_initial, cfg.sigma_floor)
            assert s.lr == cfg.learning_rate * cfg.lr_decay ** (s.epoch - 1)
            assert np.isfinite(s.train_loss)
            assert np.isfinite(s.val_cd)

    def test_same_seed_bitwise_identical_weights(self, small_dataset):
        cfg = trainer.TrainConfig(epochs=2, batch_size=8, seed=5)
        runs = []
        for _ in range(2):
            w = fresh_weights(seed=4)
            trainer.train(cfg, small_dataset, w)
            runs.append({k: v.copy() for k, v in w.named_arrays().items()})
        for k in runs[0]:
            assert runs[0][k].tobytes() == runs[1][k].tobytes(), k

    def test_dimension_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = datagen.generate_dataset(
            rng.normal(size=(20, 3)), datagen.SynthConfig(pair_count=3), tmp_path / "d3"
        )
        with pytest.raises(ValueError, match="dimension mismatch"):
            trainer.train(trainer.TrainConfig(epochs=1), ds, fresh_weights())

    def test_unreadable_dataset_surfaced(self, tmp_path):
        with pytest.raises(datagen.DatasetError):
            trainer.train(trainer.TrainConfig(epochs=1), tmp_path / "nope", fresh_weights())

    def test_non_finite_loss_aborts_with_diagnostics(self, tmp_path, monkeypatch):
        shape = datagen.sample_shape("fish", 32)
        ds = datagen.generate_dataset(
            shape, datagen.SynthConfig(seed=1, pair_count=8), tmp_path / "d"
        )
        # poison the batch's mean loss; the abort must name epoch, batch, and
        # the schedule values. The network rejects non-finite input, so the
        # poison goes in after it.
        batch_mean = ad.batch_mean

        def poisoned(terms):
            return refops.scale(batch_mean(terms), float("nan"))

        monkeypatch.setattr(ad, "batch_mean", poisoned)
        with pytest.raises(trainer.TrainingDivergedError, match=r"epoch 1.*sigma"):
            trainer.train(trainer.TrainConfig(epochs=1, batch_size=8), ds, fresh_weights())

    @pytest.mark.parametrize("pair_count", [1, 2])
    def test_too_few_training_pairs_rejected_before_epoch_one(self, tmp_path, pair_count):
        # one pair (none held out) or two (one held out) leave one pair to
        # train on, and batch norm cannot normalise one
        ds = datagen.generate_dataset(
            datagen.sample_shape("fish", 32), datagen.SynthConfig(seed=1, pair_count=pair_count),
            tmp_path / "d",
        )
        epochs = []
        with pytest.raises(ValueError, match=f"1 training pairs \\(dataset has {pair_count}\\)"):
            trainer.train(trainer.TrainConfig(epochs=1, batch_size=4), ds, fresh_weights(),
                          log=epochs.append)
        assert epochs == []

    def test_history_csv_round_trip(self, tmp_path, small_dataset):
        _, history = trainer.train(
            trainer.TrainConfig(epochs=2, batch_size=8), small_dataset, fresh_weights()
        )
        path = tmp_path / "history.csv"
        trainer.write_history_csv(history, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,sigma,lr,train_loss,val_cd"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == history[0].sigma
        assert float(first[3]) == history[0].train_loss


def scaled_sources_dataset(directory, scaled):
    """An 8-pair dataset sharing one source, except that the sources of the
    pairs in ``scaled`` are scaled, each by its own factor."""
    shape = datagen.sample_shape("fish", 32)
    ds = datagen.generate_dataset(shape, datagen.SynthConfig(seed=1, pair_count=8), directory)
    for k, i in enumerate(scaled):
        path = ds.pair_paths(i)[0]
        datagen.save_points_file(path, datagen.load_points_file(path) * (0.9 - 0.05 * k))
    return ds


class TestScratchPool:
    def test_the_blocked_mlp_is_its_one_customer_and_it_stays_bounded(self, tmp_path):
        # only the descriptor MLP takes from autodiff._scratch and gives back
        # to it, on the main thread alone, so an epoch ends with the pool
        # holding what the last one held
        shape = datagen.sample_shape("fish", 96)
        ds = datagen.generate_dataset(shape, datagen.SynthConfig(seed=5, pair_count=5), tmp_path / "d")
        weights = model.init_weights(model.PrNetConfig.for_dim(2), seed=0)
        pool = ad._scratch
        callers, threads, held = set(), set(), {}

        def recorded(fn):
            def call(*args):
                callers.add(sys._getframe(1).f_code.co_name)
                threads.add(threading.current_thread())
                return fn(*args)
            return call

        pool.clear()
        pool.take, pool.give = recorded(pool.take), recorded(pool.give)
        try:
            trainer.train(trainer.TrainConfig(epochs=3, batch_size=4), ds, weights,
                          log=lambda stats: held.setdefault(stats.epoch, pool._held))
            evaluator.evaluate(weights, ds)
        finally:
            vars(pool).pop("take")
            vars(pool).pop("give")
            pool.clear()
        assert callers == {"pooled_mlp_forward", "release"}
        assert threads == {threading.main_thread()}
        assert held[1] > 0
        assert held[3] == held[1], held


class TestSourceRuns:
    """A batch trains as one forward of all of its pairs, whether they share
    a source or not."""

    def test_loss_is_averaged_over_the_trained_pairs(self, tmp_path, monkeypatch):
        # every pair's loss is 1, so the mean over the trained pairs is
        # exactly 1; pair 3's source is its own, and it trains with the rest
        # of its batch
        def unit_loss(transformed, target, sigma):
            return refops.add(refops.scale(refops.tensor_sum(transformed), 0.0), np.ones((), transformed.data.dtype))

        monkeypatch.setattr(losses, "gmm_loss_symmetric", unit_loss)
        ds = scaled_sources_dataset(tmp_path / "d", scaled=[3])
        _, history = trainer.train(trainer.TrainConfig(epochs=2, batch_size=4), ds, fresh_weights())
        assert [s.train_loss for s in history] == [1.0, 1.0]

    def test_every_pair_with_its_own_source_trains(self, tmp_path):
        ds = scaled_sources_dataset(tmp_path / "d", scaled=range(1, 8))
        weights = fresh_weights()
        before = {k: v.copy() for k, v in weights.named_arrays().items()}
        _, history = trainer.train(trainer.TrainConfig(epochs=1, batch_size=4), ds, weights)
        assert len(history) == 1 and np.isfinite(history[0].train_loss)
        after = weights.named_arrays()
        assert all(after[k].tobytes() != before[k].tobytes() for k in before if k.endswith(".weight"))


def step_pairs(size, runs):
    """``size`` pairs of jittered fish; with two runs the second half of
    the pairs share a scaled source of their own."""
    rng = np.random.default_rng([size, runs])
    src = datagen.sample_shape("fish", 32)
    pairs = []
    for i in range(size):
        own = src * 0.8 if runs == 2 and i >= size // 2 else src
        pairs.append((own, own + rng.normal(0.0, 0.02, size=own.shape)))
    return pairs


class TestStageGraph:
    """After the descriptor MLP, a training step is one autodiff op per
    stage: the correlation, each pair's warp and loss, and the batch mean."""

    STAGES = ("correlation", "warp", "gmm_symmetric", "batch_mean")

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("runs", [1, 2])
    def test_a_step_gives_the_bits_of_the_composed_stages(self, runs, dtype, monkeypatch):
        # every parameter gradient, read at the Adam step, and the loss;
        # the output layer is drawn so that gradients reach every layer
        cfg = dataclasses.replace(small_config(), dtype=dtype)
        pairs = step_pairs(6, runs)
        got = {}
        for route in ("ops", "composed"):
            weights = model.init_weights(cfg, seed=3)
            out = weights.out.weight.data
            out[...] = np.random.default_rng(4).normal(0.0, 0.05, size=out.shape)
            state = ad.init_adam(weights.params(), 1e-4)
            grads = []
            with monkeypatch.context() as m:
                m.setattr(ad, "adam_step", lambda params, _: grads.extend(p.grad.tobytes() for p in params))
                if route == "composed":
                    for name in self.STAGES:
                        m.setattr(ad, name, getattr(refops, name))
                loss = trainer._train_batch(pairs, weights, 0.3, state)
            got[route] = (loss, grads)
        assert len(got["ops"][1]) == len(weights.params())
        assert got["ops"] == got["composed"]

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("size", [2, 5, 16])
    def test_a_step_records_ten_nodes_plus_two_per_pair(self, size, runs, monkeypatch):
        # pooled_mlp, the correlation, two reshapes, three convs, fc1 and
        # the output layer, then a warp and a loss per pair and their mean
        counts = []
        recycle_graph = ad.recycle_graph

        def counted(root):
            counts.append(sum(node._backward is not None for node in ad._topological_order(root)))
            recycle_graph(root)

        monkeypatch.setattr(ad, "recycle_graph", counted)
        weights = fresh_weights()
        trainer._train_batch(step_pairs(size, runs), weights, 0.3, ad.init_adam(weights.params(), 1e-4))
        assert counts == [10 + 2 * size]


class TestNetworkFrame:
    def test_scaled_copy_trains_to_the_same_weights(self, tmp_path):
        # training sees each pair in its source's network frame, as
        # evaluation does; x16 is a power of two, so the scaled pairs map
        # into that frame with the same bits, and the validation chamfer,
        # taken in the data's own frame, scales by exactly 16**2
        shape = datagen.sample_shape("fish", 32)
        cfg = datagen.SynthConfig(deformation_level=0.3, seed=13, pair_count=10)
        unit = datagen.generate_dataset(shape, cfg, tmp_path / "unit")
        scaled = datagen.generate_dataset(shape, cfg, tmp_path / "scaled")
        for i in range(scaled.pair_count):
            for path in scaled.pair_paths(i):
                datagen.save_points_file(path, datagen.load_points_file(path) * 16.0)
        runs = []
        for ds in (unit, scaled):
            weights = fresh_weights()
            _, history = trainer.train(trainer.TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3),
                                       ds, weights)
            runs.append((weights.named_arrays(), history))
        (unit_arrays, unit_history), (scaled_arrays, scaled_history) = runs
        for k in unit_arrays:
            assert unit_arrays[k].tobytes() == scaled_arrays[k].tobytes(), k
        assert [s.train_loss for s in scaled_history] == [s.train_loss for s in unit_history]
        assert [s.val_cd for s in scaled_history] == [256.0 * s.val_cd for s in unit_history]


class TestLearnability:
    def test_overfit_small_set_halves_the_loss(self, tmp_path):
        # the logged loss is not comparable across epochs while sigma anneals,
        # so learnability is judged at a fixed sigma before and after
        shape = datagen.sample_shape("fish", 48)
        ds = datagen.generate_dataset(
            shape, datagen.SynthConfig(deformation_level=0.3, seed=11, pair_count=20),
            tmp_path / "overfit",
        )

        def set_loss(weights, sigma):
            total = 0.0
            for i in range(ds.pair_count):
                src, tgt = ds.load_pair(i)
                out = evaluator.register(weights, src, tgt).transformed
                total += float(losses.gmm_loss_symmetric(ad.Tensor(out), tgt, sigma).data)
            return total / ds.pair_count

        weights = fresh_weights(seed=6)
        sigma_ref = 0.1
        before = set_loss(weights, sigma_ref)
        cfg = trainer.TrainConfig(epochs=50, batch_size=16, learning_rate=1e-3, seed=2)
        _, history = trainer.train(cfg, ds, weights)
        after = set_loss(weights, sigma_ref)
        assert len(history) == 50
        assert before > 0
        assert after <= 0.5 * before


def bn_arrays(weights):
    return {k: v.copy() for k, v in weights.named_arrays().items()
            if k.endswith((".bn_mean", ".bn_var"))}


class TestBatchNormRecalibration:
    def test_trained_statistics_are_a_fixed_point(self, small_dataset):
        # train() ends every epoch by recomputing the running statistics
        # from the frozen weights over that epoch's batches; doing it again
        # on the returned weights must therefore change nothing
        cfg = trainer.TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=5)
        weights = fresh_weights()
        trainer.train(cfg, small_dataset, weights)
        pairs = [small_dataset.load_pair(i) for i in range(small_dataset.pair_count)]
        train_pairs, _ = trainer.split_pairs(pairs)
        batches = [b for _, b in trainer.epoch_batches(train_pairs, cfg.batch_size, cfg.seed, 3)]
        before = bn_arrays(weights)
        trainer.recalibrate_batch_norm(batches, weights)
        after = bn_arrays(weights)
        assert before.keys() == after.keys() and len(before) == 2 * 7
        for k in before:
            assert before[k].tobytes() == after[k].tobytes(), k

    def test_statistics_are_the_mean_over_batches(self, small_dataset):
        weights = fresh_weights()
        pairs = [small_dataset.load_pair(i) for i in range(small_dataset.pair_count)]
        batches = [pairs[0:8], pairs[8:16]]
        per_batch = []
        for b in batches:
            trainer.recalibrate_batch_norm([b], weights)
            per_batch.append(bn_arrays(weights))
        trainer.recalibrate_batch_norm(batches, weights)
        both = bn_arrays(weights)
        for k in both:
            expected = (per_batch[0][k].astype(np.float64) + per_batch[1][k]) / 2
            np.testing.assert_allclose(both[k], expected, rtol=1e-5, atol=1e-7, err_msg=k)

    def test_statistics_untouched_when_a_forward_raises(self, small_dataset):
        weights = fresh_weights()
        pairs = [small_dataset.load_pair(i) for i in range(small_dataset.pair_count)]
        trainer.recalibrate_batch_norm([pairs[0:8]], weights)
        before = bn_arrays(weights)
        src = pairs[0][0]
        nan_src = src.copy()
        nan_src[3, 0] = np.nan
        for bad, match in (([(src, pairs[0][1]), (src, np.zeros((0, 2)))], "empty target"),
                           ([(nan_src, pairs[0][1]), (nan_src, pairs[1][1])], "must be finite"),
                           ([pairs[0]], "two or more pairs")):
            with pytest.raises(ValueError, match=match):
                trainer.recalibrate_batch_norm([pairs[8:16], bad], weights)
            after = bn_arrays(weights)
            for k in before:
                assert before[k].tobytes() == after[k].tobytes(), k

    def test_lone_source_joins_the_batch_statistics(self, small_dataset):
        # a pair whose source no neighbour shares is part of its batch: the
        # statistics are those of the whole batch, lone pair included
        weights = fresh_weights()
        pairs = [small_dataset.load_pair(i) for i in range(small_dataset.pair_count)]
        trainer.recalibrate_batch_norm([pairs[0:8]], weights)
        without = bn_arrays(weights)
        batch = [(pairs[8][0] * 0.9, pairs[8][1])] + pairs[0:8]
        trainer.recalibrate_batch_norm([batch], weights)
        after = bn_arrays(weights)
        names = [f"mlp{i}" for i in range(len(weights.mlp))] + \
            [f"conv{i}" for i in range(len(weights.convs))] + ["fc1"]
        for name, (mean, var) in zip(names, model.batch_norm_statistics(batch, weights)):
            for kind, value in (("mean", mean), ("var", var)):
                stored = after[f"{name}.bn_{kind}"]
                assert stored.tobytes() == value.astype(np.float64).astype(stored.dtype).tobytes(), name
            assert after[f"{name}.bn_mean"].tobytes() != without[f"{name}.bn_mean"].tobytes(), name

    def test_runs_no_graph_op(self, small_dataset, monkeypatch):
        # the statistics come from the graph-free forward; the autodiff
        # batch-norm ops serve training alone
        def refuse(*args, **kwargs):
            raise AssertionError("graph op called")

        monkeypatch.setattr(ad, "dense_bn_act", refuse)
        monkeypatch.setattr(ad, "conv_bn_act_batch", refuse)
        monkeypatch.setattr(ad, "pooled_mlp", refuse)
        weights = fresh_weights()
        pairs = [small_dataset.load_pair(i) for i in range(small_dataset.pair_count)]
        before = bn_arrays(weights)
        trainer.recalibrate_batch_norm([pairs[0:8], pairs[8:16]], weights)
        after = bn_arrays(weights)
        assert all(before[k].tobytes() != after[k].tobytes() for k in before)


class TestCheckpointResume:
    def _run(self, ds, weights, epochs, start_epoch=1, state=None, checkpoint_dir=None,
             checkpoint_every=0):
        cfg = trainer.TrainConfig(
            epochs=epochs, batch_size=8, learning_rate=5e-4, seed=9,
            checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
        )
        return trainer.train(cfg, ds, weights, adam_state=state, start_epoch=start_epoch)

    def test_resume_matches_uninterrupted_run(self, tmp_path, small_dataset):
        w_full = fresh_weights(seed=8)
        _, hist_full = self._run(small_dataset, w_full, epochs=6)

        w_part = fresh_weights(seed=8)
        _, hist_a = self._run(
            small_dataset, w_part, epochs=3,
            checkpoint_dir=tmp_path, checkpoint_every=3,
        )
        loaded, state, epoch = trainer.load_checkpoint(tmp_path / "checkpoint_0003.ckpt")
        assert epoch == 3
        _, hist_b = self._run(small_dataset, loaded, epochs=6, start_epoch=4, state=state)

        resumed = hist_a + hist_b
        assert [s.epoch for s in resumed] == [s.epoch for s in hist_full]
        for a, b in zip(resumed, hist_full):
            assert abs(a.train_loss - b.train_loss) < 1e-12
            assert abs(a.val_cd - b.val_cd) < 1e-12
        for k, v in w_full.named_arrays().items():
            assert v.tobytes() == loaded.named_arrays()[k].tobytes(), k

    def test_save_load_save_byte_identical(self, tmp_path, small_dataset):
        weights = fresh_weights()
        state = None
        cfg = trainer.TrainConfig(epochs=1, batch_size=8)
        trainer.train(cfg, small_dataset, weights)
        import pointreg.autodiff as ad
        state = ad.init_adam(weights.params(), 1e-4, 0.995)
        state.first_moment[0] += 0.25
        state.step_count = 7
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        trainer.save_checkpoint(weights, state, 4, a)
        loaded, lstate, lepoch = trainer.load_checkpoint(a)
        assert lepoch == 4
        assert lstate.step_count == 7
        trainer.save_checkpoint(loaded, lstate, lepoch, b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        weights = fresh_weights()
        import pointreg.autodiff as ad
        state = ad.init_adam(weights.params(), 1e-4, 1.0)
        path = tmp_path / "c.ckpt"
        trainer.save_checkpoint(weights, state, 1, path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(model.CorruptCheckpointError):
            trainer.load_checkpoint(path)

    def test_periodic_checkpoints_written(self, tmp_path, small_dataset):
        weights = fresh_weights()
        cfg = trainer.TrainConfig(
            epochs=4, batch_size=8, checkpoint_every=2, checkpoint_dir=tmp_path / "ck"
        )
        trainer.train(cfg, small_dataset, weights)
        names = sorted(p.name for p in (tmp_path / "ck").iterdir())
        assert names == ["checkpoint_0002.ckpt", "checkpoint_0004.ckpt"]
