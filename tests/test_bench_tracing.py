"""The benchmark's tracer still finds every function it times.

``bench/tracing.py`` wraps ``pointreg`` functions by name, so renaming one
breaks ``bench/run.py --trace 1``; this test makes such a rename fail here.
"""

from pathlib import Path

from pointreg import autodiff as ad
from pointreg import datagen, evaluator, model, trainer

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_times_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    originals = {name: getattr(model, name) for name in ("forward_shared_source", "prepare_source")}
    originals["register"] = evaluator.register
    cfg = model.PrNetConfig(grid_shape=(7, 7), mlp_widths=(8, 16), conv_channels=(8, 12, 16),
                            conv_kernels=(3, 3, 3), fc_hidden=12)
    weights = model.init_weights(cfg, seed=1)
    src = datagen.sample_shape("fish", 24)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert model.forward_shared_source is not originals["forward_shared_source"]
        evaluator.register(weights, src, src + 0.01)
        trainer.validation_cd([(src, src), (src, src * 0.9)], weights)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"evaluator.register", "model.prepare_source", "model.forward_shared_source",
            "trainer.validation_cd", "losses.chamfer_normalized", "tps.tps_basis"} <= names
    assert all(end is not None for _, _, end, _ in tracer.spans)
    assert model.forward_shared_source is originals["forward_shared_source"]
    assert model.prepare_source is originals["prepare_source"]
    assert evaluator.register is originals["register"]
    assert tracer.layer_metrics((0.0, float("inf")), 1, 1)["model.forward_shared_source.self_ms"] > 0


def test_tracer_times_a_training_epoch(monkeypatch, tmp_path):
    # ``bench/run.py --trace 1`` on train-2d: the tracer labels fused layers
    # by weight shape, for the default 2D net, so the net is the default
    # one and the data is small
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    originals = {name: getattr(ad, name) for name in ("dense_bn_act", "conv_bn_act_batch", "max_pool_rows")}
    data = datagen.generate_dataset(
        datagen.sample_shape("fish", 16),
        datagen.SynthConfig(noise_kind="pd", noise_level=0.02, seed=3, pair_count=5), tmp_path / "data")
    weights = model.init_weights(model.PrNetConfig(), seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ad.dense_bn_act is not originals["dense_bn_act"]
        trainer.train(trainer.TrainConfig(epochs=1, batch_size=4, seed=3), data, weights)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    # train_forward checks and orders its source through prepare_source, so
    # model.prepare_source_ms covers training too
    assert {"autodiff.dense_bn_act.fc1.bwd", "autodiff.conv_bn_act_batch.conv0.bwd",
            "trainer.recalibrate_batch_norm", "trainer.validation_cd", "model.prepare_source"} <= names
    # the MLP and its pool are one op, pooled_mlp, which the tracer does not
    # wrap
    assert not [n for n in names if n.startswith(("autodiff.dense_bn_act.mlp", "autodiff.max_pool_rows"))]
    assert all(end is not None for _, _, end, _ in tracer.spans)
    for name, fn in originals.items():
        assert getattr(ad, name) is fn, name
    metrics = tracer.layer_metrics((0.0, float("inf")), 1, 1)
    assert metrics["autodiff.dense_bn_act.fc1.bwd_ms"] > 0
