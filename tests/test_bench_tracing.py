"""The benchmark's tracer still finds every function it times.

``bench/tracing.py`` wraps ``pointreg`` functions by name, so renaming one
breaks ``bench/run.py --trace 1``; this test makes such a rename fail here.
"""

from pathlib import Path

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
