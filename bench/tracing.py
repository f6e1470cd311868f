"""Spans and counters recorded from outside the program.

``Tracer.install`` swaps public functions of the ``pointreg`` modules for
timing wrappers, in every module namespace that holds them, so calls made
inside the package are seen as well. Each span records its name, start,
end and the index of the span that was open when it began. Fused autodiff
ops also get their returned tensor's ``_backward`` closure wrapped, which
gives backward spans. Spans stay in memory; ``dump`` writes them out once
the run has ended.

Metric names follow one rule: ``<name>_ms`` is the inclusive time of a
span, ``<name>.self_ms`` its self time (duration minus the time its child
spans cover), both summed over the timed window and divided by the number
of operations the workload ran in it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from pointreg import autodiff as ad
from pointreg import cli, datagen, evaluator, losses, model, tps, trainer

_MODULES = (ad, cli, datagen, evaluator, losses, model, tps, trainer)

# functions timed as plain spans, by module
_PLAIN = {
    ad: ("adam_step", "recycle_graph"),
    trainer: ("recalibrate_batch_norm", "validation_cd", "save_checkpoint", "load_checkpoint"),
    model: ("forward_shared_source", "prepare_source", "load_model", "read_checkpoint", "init_weights"),
    evaluator: ("evaluate", "register"),
    losses: ("chamfer_normalized",),
    tps: ("tps_basis",),
    datagen: ("load_points_file", "load_dataset", "generate_dataset"),
    cli: ("main",),
}

# (metric, span, kind): kind "incl" or "self" is per-operation time in ms
_TIMED = [
    *[(f"autodiff.dense_bn_act.mlp{i}.{p}_ms", f"autodiff.dense_bn_act.mlp{i}.{p}", "incl")
      for i in range(4) for p in ("fwd", "bwd")],
    *[(f"autodiff.max_pool_rows.{p}_ms", f"autodiff.max_pool_rows.{p}", "incl") for p in ("fwd", "bwd")],
    *[(f"autodiff.conv_bn_act_batch.conv{i}.{p}_ms", f"autodiff.conv_bn_act_batch.conv{i}.{p}", "incl")
      for i in range(3) for p in ("fwd", "bwd")],
    *[(f"autodiff.dense_bn_act.fc1.{p}_ms", f"autodiff.dense_bn_act.fc1.{p}", "incl") for p in ("fwd", "bwd")],
    *[(f"losses.gmm_loss_symmetric.{p}_ms", f"losses.gmm_loss_symmetric.{p}", "incl") for p in ("fwd", "bwd")],
    ("autodiff.adam_step_ms", "autodiff.adam_step", "incl"),
    ("autodiff.recycle_graph_ms", "autodiff.recycle_graph", "incl"),
    ("trainer.recalibrate_batch_norm_ms", "trainer.recalibrate_batch_norm", "incl"),
    ("trainer.validation_cd_ms", "trainer.validation_cd", "incl"),
    ("trainer.save_checkpoint_ms", "trainer.save_checkpoint", "incl"),
    ("trainer.load_checkpoint_ms", "trainer.load_checkpoint", "incl"),
    ("model.forward_shared_source.self_ms", "model.forward_shared_source", "self"),
    ("model.prepare_source_ms", "model.prepare_source", "incl"),
    ("model.load_model_ms", "model.load_model", "incl"),
    ("model.read_checkpoint_ms", "model.read_checkpoint", "incl"),
    ("model.init_weights_ms", "model.init_weights", "incl"),
    ("evaluator.evaluate.self_ms", "evaluator.evaluate", "self"),
    ("evaluator.register.self_ms", "evaluator.register", "self"),
    ("losses.chamfer_normalized_ms", "losses.chamfer_normalized", "incl"),
    ("tps.tps_basis_ms", "tps.tps_basis", "incl"),
    ("datagen.load_points_file_ms", "datagen.load_points_file", "incl"),
    ("datagen.load_dataset_ms", "datagen.load_dataset", "incl"),
    ("cli.main.self_ms", "cli.main", "self"),
]

# metrics that are not per-operation span times: (name, unit)
_OTHER = [
    ("autodiff.mlp.gflop", "GFLOP"),
    ("autodiff.mlp_floor_ratio", "ratio"),
    ("autodiff.scratch_hit_ratio", "ratio"),
    ("autodiff.scratch_held_mb", "MB"),
    ("datagen.generate_dataset_ms", "ms"),
]

PER_LAYER = [(name, "ms") for name, _, _ in _TIMED] + _OTHER


def _layer_labels():
    """Fused-op layer names keyed by weight shape, for the default 2D net
    that every workload runs."""
    cfg = model.PrNetConfig()
    dense = {}
    in_w = 2 * cfg.dim
    for i, width in enumerate(cfg.mlp_widths):
        dense[(in_w, width)] = f"mlp{i}"
        in_w = width
    dense[(cfg.flat_features(), cfg.fc_hidden)] = "fc1"
    conv = {}
    in_c = cfg.grid_count
    for i, (ch, k) in enumerate(zip(cfg.conv_channels, cfg.conv_kernels)):
        conv[(ch, in_c) + (k,) * cfg.dim] = f"conv{i}"
        in_c = ch
    return dense, conv


def _needs_grad(x) -> bool:
    return isinstance(x, ad.Tensor) and (x.requires_grad or x._backward is not None)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._restore = []  # (namespace dict, key, original)
        self.mlp_fwd = []  # (start, rows, in, out)
        self.mlp_bwd = []  # (start, rows, in, out, x needs grad)
        self.take_log = []  # (time, hit, bytes held before the call)
        self._dense_labels, self._conv_labels = _layer_labels()

    # -- spans ---------------------------------------------------------------

    def open(self, name) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        return i

    def close(self, i) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    def _timed_backward(self, node, name, on_call=None):
        inner = node._backward

        def backward(gradient):
            if on_call is not None:
                on_call()
            i = self.open(name)
            try:
                inner(gradient)
            finally:
                self.close(i)
        node._backward = backward

    # -- installation --------------------------------------------------------

    def _replace(self, original, replacement):
        for mod in _MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((vars(mod), key, original))
                    vars(mod)[key] = replacement

    def install(self) -> None:
        for mod, names in _PLAIN.items():
            for fname in names:
                fn = getattr(mod, fname)
                self._replace(fn, self._timed(f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}", fn))
        self._replace(ad.dense_bn_act, self._dense(ad.dense_bn_act))
        self._replace(ad.conv_bn_act_batch, self._conv(ad.conv_bn_act_batch))
        self._replace(ad.max_pool_rows, self._pool(ad.max_pool_rows))
        self._replace(losses.gmm_loss_symmetric, self._gmm(losses.gmm_loss_symmetric))
        self._count_scratch(ad._scratch)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()
        vars(ad._scratch).pop("take", None)

    def _dense(self, fn):
        def dense_bn_act(x, weight, *rest, **kwargs):
            label = self._dense_labels[tuple(weight.data.shape)]
            name = f"autodiff.dense_bn_act.{label}"
            xd = x.data if isinstance(x, ad.Tensor) else np.asarray(x)
            rows, (n_in, n_out) = xd.shape[0], weight.data.shape
            x_grad = _needs_grad(x)
            i = self.open(name + ".fwd")
            try:
                out = fn(x, weight, *rest, **kwargs)
            finally:
                self.close(i)
            is_mlp = label.startswith("mlp")
            if is_mlp:
                self.mlp_fwd.append((self.spans[i][1], rows, n_in, n_out))
            if out._backward is not None:
                on_call = None
                if is_mlp:
                    def on_call():
                        self.mlp_bwd.append((time.perf_counter(), rows, n_in, n_out, x_grad))
                self._timed_backward(out, name + ".bwd", on_call)
            return out
        return dense_bn_act

    def _conv(self, fn):
        def conv_bn_act_batch(x, kernel, *rest, **kwargs):
            name = f"autodiff.conv_bn_act_batch.{self._conv_labels[tuple(kernel.data.shape)]}"
            i = self.open(name + ".fwd")
            try:
                out = fn(x, kernel, *rest, **kwargs)
            finally:
                self.close(i)
            if out._backward is not None:
                self._timed_backward(out, name + ".bwd")
            return out
        return conv_bn_act_batch

    def _pool(self, fn):
        def max_pool_rows(x, group_size):
            i = self.open("autodiff.max_pool_rows.fwd")
            try:
                out = fn(x, group_size)
            finally:
                self.close(i)
            if out._backward is not None:
                self._timed_backward(out, "autodiff.max_pool_rows.bwd")
            return out
        return max_pool_rows

    def _gmm(self, fn):
        # the loss is composed of generic ops; its backward is every closure
        # between the returned scalar and the transformed-points input
        def gmm_loss_symmetric(transformed, target, sigma):
            i = self.open("losses.gmm_loss_symmetric.fwd")
            try:
                out = fn(transformed, target, sigma)
            finally:
                self.close(i)
            if isinstance(out, ad.Tensor):
                seen = {id(transformed)}
                stack = [out]
                while stack:
                    node = stack.pop()
                    if id(node) in seen:
                        continue
                    seen.add(id(node))
                    if node._backward is not None:
                        self._timed_backward(node, "losses.gmm_loss_symmetric.bwd")
                    stack.extend(node._parents)
            return out
        return gmm_loss_symmetric

    def _count_scratch(self, pool):
        take = pool.take

        def counted_take(shape, dtype):
            before = pool._held
            arr = take(shape, dtype)
            self.take_log.append((time.perf_counter(), pool._held < before, before))
            return arr
        pool.take = counted_take

    # -- metrics -------------------------------------------------------------

    def _span_times(self, lo, hi):
        incl = defaultdict(float)
        covered = defaultdict(float)
        inside = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is not None and start >= lo and end <= hi:
                inside.append(i)
                if parent >= 0:
                    covered[parent] += end - start
        own = defaultdict(float)
        for i in inside:
            name, start, end, _ = self.spans[i]
            incl[name] += end - start
            own[name] += end - start - covered[i]
        return incl, own

    def layer_metrics(self, window, ops: int, setups: int) -> dict:
        """Per-layer metrics over the timed ``window`` = (start, end), which
        ran ``ops`` operations; set-up spans are divided by ``setups``."""
        lo, hi = window
        incl, own = self._span_times(lo, hi)
        out = {}
        for metric, span, kind in _TIMED:
            total = incl[span] if kind == "incl" else own[span]
            out[metric] = 1e3 * total / ops

        fwd = [c for c in self.mlp_fwd if lo <= c[0] <= hi]
        bwd = [c for c in self.mlp_bwd if lo <= c[0] <= hi]
        flop = sum(2.0 * r * a * b for _, r, a, b in fwd)
        flop += sum(2.0 * r * a * b * (2 if xg else 1) for _, r, a, b, xg in bwd)
        out["autodiff.mlp.gflop"] = flop / 1e9 / ops
        mlp_ms = sum(out[f"autodiff.dense_bn_act.mlp{i}.{p}_ms"] for i in range(4) for p in ("fwd", "bwd"))
        floor_ms = _matmul_floor_ms(fwd, bwd) / ops
        out["autodiff.mlp_floor_ratio"] = mlp_ms / floor_ms if floor_ms > 0 else 0.0

        takes = [t for t in self.take_log if lo <= t[0] <= hi]
        out["autodiff.scratch_hit_ratio"] = sum(t[1] for t in takes) / len(takes) if takes else 0.0
        out["autodiff.scratch_held_mb"] = max((t[2] for t in takes), default=0) / 2**20

        gen = sum(end - start for name, start, end, _ in self.spans
                  if name == "datagen.generate_dataset" and end is not None and end <= lo)
        out["datagen.generate_dataset_ms"] = 1e3 * gen / setups
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)


def _matmul_floor_ms(fwd, bwd) -> float:
    """Total time of bare numpy matmuls with the MLP's shapes: ``x @ w`` per
    forward, ``x.T @ dy`` and (when x needs a gradient) ``dy @ w.T`` per
    backward. Each distinct product is timed three times; the median counts."""
    counts = defaultdict(int)
    for _, r, a, b in fwd:
        counts[("xw", r, a, b)] += 1
    for _, r, a, b, xg in bwd:
        counts[("xtdy", r, a, b)] += 1
        if xg:
            counts[("dywt", r, a, b)] += 1
    rng = np.random.default_rng(0)
    total = 0.0
    for (kind, r, a, b), n in counts.items():
        x = rng.standard_normal((r, a), dtype=np.float32)
        w = rng.standard_normal((a, b), dtype=np.float32)
        dy = rng.standard_normal((r, b), dtype=np.float32)
        product = {"xw": lambda: x @ w, "xtdy": lambda: x.T @ dy, "dywt": lambda: dy @ w.T}[kind]
        times = []
        for _ in range(3):
            t = time.perf_counter()
            product()
            times.append(time.perf_counter() - t)
        total += n * sorted(times)[1]
    return 1e3 * total
