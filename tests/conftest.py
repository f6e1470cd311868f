"""Shared helpers for the test suite."""

import contextlib
import json
import sys
import threading
import zipfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from pointreg import autodiff as ad
from pointreg import model, trainer


@pytest.fixture
def use_workers(monkeypatch):
    """``use_workers(pool)`` runs ``autodiff.each_run``, and so the blocked
    MLP and the eval head, on the executor ``pool`` for the rest of the
    test, and shuts it down after."""
    pools = []

    def use(pool):
        pools.append(pool)
        monkeypatch.setattr(ad, "_workers", pool)
        return pool

    yield use
    for pool in pools:
        pool.shutdown()


@contextlib.contextmanager
def switching_often():
    """Switch threads every microsecond, far more often than by default."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class Boom(Exception):
    """Raised on purpose inside one run of a parallel pass."""


class CountingPool(ThreadPoolExecutor):
    """A worker pool that counts the tasks submitted and those submitted
    but not yet finished."""

    def __init__(self, workers):
        super().__init__(workers)
        self.lock = threading.Lock()
        self.unfinished = self.submitted = 0

    def submit(self, fn, *args):
        with self.lock:
            self.submitted += 1
            self.unfinished += 1

        def task():
            try:
                return fn(*args)
            finally:
                with self.lock:
                    self.unfinished -= 1

        return super().submit(task)


def finite_difference_grads(build, tensors, h=1e-6):
    """Central-difference gradients of the scalar ``build()`` w.r.t. each tensor.

    ``build`` must reconstruct the graph from the tensors' current data on
    every call. Perturbations run in float64, so the tensors handed in should
    be float64 too.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            plus = float(build().data)
            flat[i] = saved - h
            minus = float(build().data)
            flat[i] = saved
            gflat[i] = (plus - minus) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_match(build, tensors, h=1e-6, rtol=1e-4, atol=1e-7):
    """Backpropagate through ``build()`` and compare against finite differences."""
    ad.zero_grads(tensors)
    loss = build()
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]
    numeric = finite_difference_grads(build, tensors, h=h)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)


def small_identity_checkpoint(path):
    """A small identity-warp model with zeroed Adam moments, saved the way
    ``pointreg train`` saves one; returns ``path``."""
    cfg = model.PrNetConfig(
        grid_shape=(7, 7), mlp_widths=(8, 16, 32),
        conv_channels=(16, 24, 32), conv_kernels=(3, 3, 3), fc_hidden=24,
    )
    weights = model.init_weights(cfg, seed=1)
    state = ad.init_adam(weights.params(), 1e-4, 0.995)
    trainer.save_checkpoint(weights, state, 0, path)
    return path


def write_checkpoint_file(path, arrays, meta):
    """A checkpoint laid out as ``model.save_model`` writes one, from any
    named arrays: ``meta`` is dumped as sorted-key JSON, or taken as the raw
    bytes of the meta member when it is ``bytes``; returns ``path``."""
    blob = meta if isinstance(meta, bytes) else json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        np.savez(f, meta=np.frombuffer(blob, dtype=np.uint8), **arrays)
    return path


def array_data_spans(path) -> dict:
    """``name -> (start, end)``: where each member's array data lies in the
    checkpoint file ``path``, past its zip and ``.npy`` (version 1.0) headers."""
    raw = Path(path).read_bytes()
    spans = {}
    with zipfile.ZipFile(path) as z:
        for info in z.infolist():
            at = info.header_offset
            at += 30 + int.from_bytes(raw[at + 26:at + 28], "little") + int.from_bytes(raw[at + 28:at + 30], "little")
            end = at + info.compress_size
            at += 10 + int.from_bytes(raw[at + 8:at + 10], "little")
            spans[info.filename.removesuffix(".npy")] = (at, end)
    return spans
