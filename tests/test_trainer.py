"""Tests for the training loop.

Everything runs on a deliberately narrow architecture and small datasets;
the full-size training budget belongs to the acceptance suite.
"""

import numpy as np
import pytest

from pointreg import datagen, losses, model, trainer


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

    def test_history_schedule_closed_forms(self, small_dataset):
        cfg = trainer.TrainConfig(epochs=3, batch_size=8, learning_rate=2e-4, lr_decay=0.9)
        weights = fresh_weights()
        _, history = trainer.train(cfg, small_dataset, weights)
        assert [s.epoch for s in history] == [1, 2, 3]
        # 24 pairs, 5% val -> 23 train pairs -> batches of 8, 8, 7 per epoch
        steps_per_epoch = 3
        schedule = losses.AnnealingSchedule(cfg.sigma_initial, cfg.sigma_floor)
        for s in history:
            assert s.sigma == losses.sigma_at(schedule, s.epoch * steps_per_epoch)
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
        # poison one training pair; the abort must name epoch, batch, and the
        # schedule values. The points-file reader rejects NaN, so the poison
        # goes in after it.
        load_pair = datagen.Dataset.load_pair

        def poisoned(self, index):
            src, tgt = load_pair(self, index)
            return (src, np.full_like(tgt, np.nan)) if index == 2 else (src, tgt)

        monkeypatch.setattr(datagen.Dataset, "load_pair", poisoned)
        with pytest.raises(trainer.TrainingDivergedError, match=r"epoch 1.*sigma"):
            trainer.train(trainer.TrainConfig(epochs=1, batch_size=8), ds, fresh_weights())

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
                _, out = model.forward(src, tgt, weights)
                total += losses.gmm_loss_symmetric(out, tgt, sigma)
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


def recalibrate(batches, weights):
    cfg = weights.config
    grid = model.build_reference_grid(cfg.dim, cfg.grid_shape)
    trainer.recalibrate_batch_norm(batches, weights, grid, {})


def bn_arrays(weights):
    return {k: v.copy() for k, v in weights.named_arrays().items()
            if k.endswith((".bn_mean", ".bn_var"))}


def bn_momenta(weights):
    return [l.bn_state.momentum for l in [*weights.mlp, *weights.convs, weights.fc1]]


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
        recalibrate(batches, weights)
        after = bn_arrays(weights)
        assert before.keys() == after.keys() and len(before) == 2 * 7
        for k in before:
            assert before[k].tobytes() == after[k].tobytes(), k
        assert bn_momenta(weights) == [0.1] * 7

    def test_statistics_are_the_mean_over_batches(self, small_dataset):
        weights = fresh_weights()
        pairs = [small_dataset.load_pair(i) for i in range(small_dataset.pair_count)]
        batches = [pairs[0:8], pairs[8:16]]
        per_batch = []
        for b in batches:
            recalibrate([b], weights)
            per_batch.append(bn_arrays(weights))
        recalibrate(batches, weights)
        both = bn_arrays(weights)
        for k in both:
            expected = (per_batch[0][k].astype(np.float64) + per_batch[1][k]) / 2
            np.testing.assert_allclose(both[k], expected, rtol=1e-5, atol=1e-7, err_msg=k)

    def test_momentum_restored_when_a_forward_raises(self, small_dataset):
        weights = fresh_weights()
        pairs = [small_dataset.load_pair(i) for i in range(small_dataset.pair_count)]
        src = pairs[0][0]
        bad = [(src, pairs[0][1]), (src, np.zeros((0, 2)))]
        with pytest.raises(ValueError, match="empty target"):
            recalibrate([pairs[0:8], bad], weights)
        assert bn_momenta(weights) == [0.1] * 7


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

    def test_plain_model_file_loads_with_fresh_optimizer(self, tmp_path):
        weights = fresh_weights()
        model.save_model(tmp_path / "m.ckpt", weights)
        loaded, state, epoch = trainer.load_checkpoint(tmp_path / "m.ckpt")
        assert epoch == 0
        assert state.step_count == 0
        assert all(np.all(m == 0) for m in state.first_moment)

    def test_periodic_checkpoints_written(self, tmp_path, small_dataset):
        weights = fresh_weights()
        cfg = trainer.TrainConfig(
            epochs=4, batch_size=8, checkpoint_every=2, checkpoint_dir=tmp_path / "ck"
        )
        trainer.train(cfg, small_dataset, weights)
        names = sorted(p.name for p in (tmp_path / "ck").iterdir())
        assert names == ["checkpoint_0002.ckpt", "checkpoint_0004.ckpt"]
