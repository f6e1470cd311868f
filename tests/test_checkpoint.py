"""The checkpoint container: its byte layout, what the loaders hand back,
and how it fails on damaged bytes."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointreg import evaluator, model, trainer

from conftest import small_identity_checkpoint


def assert_owned_buffers(arrays: dict):
    """Each array is writable, aligned and C-contiguous, and writing into
    one leaves every other array bitwise unchanged."""
    for name, arr in arrays.items():
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous, name
    before = {name: arr.tobytes() for name, arr in arrays.items()}
    for name, arr in arrays.items():
        arr += 1.0
        for other, kept in before.items():
            if other != name:
                assert arrays[other].tobytes() == kept, (name, other)
        arr[...] = np.frombuffer(before[name], dtype=arr.dtype).reshape(arr.shape)


def loaded_arrays(weights, state=None, extras=None) -> dict:
    arrays = dict(weights.named_arrays())
    if state is not None:
        for i, (m, v) in enumerate(zip(state.first_moment, state.second_moment)):
            arrays[f"adam.m.{i:03d}"] = m
            arrays[f"adam.v.{i:03d}"] = v
    arrays.update(extras or {})
    return arrays


MIXED = {
    "a": np.arange(3, dtype=np.float32),
    "b": np.linspace(-1.0, 1.0, 5),
    "c": np.ones((1, 1), dtype=np.float32),
    "d": np.arange(6, dtype=np.float64).reshape(2, 3),
    "e": np.zeros(0, dtype=np.float32),
    "f": np.full(7, 0.5, dtype=np.float32),
}


class TestLayout:
    def test_write_matches_hand_assembled_bytes(self, tmp_path):
        arrays = {
            "z.double": np.array([0.5, 7.0], dtype=np.float64),
            "a.fortran": np.asfortranarray(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)),
            "m.plain": np.array([1.5, -2.0, 3.25], dtype=np.float32),
        }
        meta = {"kind": "test", "note": [1, "x"]}
        path = tmp_path / "c.ckpt"
        model.write_checkpoint(path, arrays, meta)

        # arrays in name order, each little-endian in C order
        payload = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0) \
            + struct.pack("<3f", 1.5, -2.0, 3.25) + struct.pack("<2d", 0.5, 7.0)
        manifest = {
            "arrays": [
                {"dtype": "<f4", "name": "a.fortran", "shape": [2, 2]},
                {"dtype": "<f4", "name": "m.plain", "shape": [3]},
                {"dtype": "<f8", "name": "z.double", "shape": [2]},
            ],
            "meta": meta,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "version": 1,
        }
        blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        expected = b"PTREGCK1" + struct.pack("<I", len(blob)) + blob + payload
        assert path.read_bytes() == expected


    @pytest.mark.parametrize("dtype", [">f4", ">f8"])
    def test_big_endian_arrays_round_trip(self, tmp_path, dtype):
        little = np.linspace(-2.0, 3.0, 6).reshape(2, 3).astype("<" + dtype[1:])
        big = little.astype(dtype)
        model.write_checkpoint(tmp_path / "big.ckpt", {"x": big}, {})
        model.write_checkpoint(tmp_path / "little.ckpt", {"x": little}, {})
        assert (tmp_path / "big.ckpt").read_bytes() == (tmp_path / "little.ckpt").read_bytes()
        arrays, _ = model.read_checkpoint(tmp_path / "big.ckpt")
        assert arrays["x"].dtype == little.dtype
        np.testing.assert_array_equal(arrays["x"], big)

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.int64])
    def test_other_dtypes_rejected(self, tmp_path, dtype):
        with pytest.raises(ValueError, match="not float32 or float64"):
            model.write_checkpoint(tmp_path / "c.ckpt", {"x": np.arange(3, dtype=dtype)}, {})


class TestLoaderContract:
    def test_read_checkpoint_mixed_dtypes(self, tmp_path):
        path = tmp_path / "c.ckpt"
        model.write_checkpoint(path, MIXED, {"k": 1})
        arrays, meta = model.read_checkpoint(path)
        assert meta == {"k": 1}
        assert sorted(arrays) == sorted(MIXED)
        for name, arr in MIXED.items():
            assert arrays[name].dtype == arr.dtype and arrays[name].shape == arr.shape, name
            assert arrays[name].tobytes() == arr.tobytes(), name
        assert_owned_buffers(arrays)

    def test_load_model_with_float64_extra(self, tmp_path):
        path = small_identity_checkpoint(tmp_path / "m.ckpt")
        weights, _, _ = model.load_model(path)
        extra = {"opt.m": np.arange(6, dtype=np.float64), "opt.n": np.arange(3, dtype=np.float32)}
        model.save_model(path, weights, {}, extra)
        weights, _, extras = model.load_model(path)
        assert sorted(extras) == ["opt.m", "opt.n"]
        assert_owned_buffers(loaded_arrays(weights, extras=extras))

    def test_load_checkpoint(self, tmp_path):
        path = small_identity_checkpoint(tmp_path / "m.ckpt")
        weights, state, _ = trainer.load_checkpoint(path)
        for p, m, v in zip(weights.params(), state.first_moment, state.second_moment):
            assert m.dtype == v.dtype == p.data.dtype
        assert_owned_buffers(loaded_arrays(weights, state))

    def test_load_model_draws_no_random_init(self, tmp_path, monkeypatch):
        path = small_identity_checkpoint(tmp_path / "m.ckpt")
        expected, _, _ = model.load_model(path)

        def refuse(*args, **kwargs):
            raise AssertionError("init_weights called while loading")

        monkeypatch.setattr(model, "init_weights", refuse)
        weights, _, _ = model.load_model(path)
        trainer.load_checkpoint(path)
        for name, arr in expected.named_arrays().items():
            assert weights.named_arrays()[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("key", ["epoch", "adam_learning_rate", "adam_decay", "adam_step_count"])
    def test_training_checkpoint_missing_meta_key_is_rejected(self, tmp_path, key):
        path = small_identity_checkpoint(tmp_path / "m.ckpt")
        arrays, meta = model.read_checkpoint(path)
        del meta[key]
        model.write_checkpoint(path, arrays, meta)
        with pytest.raises(model.CorruptCheckpointError, match=f"training meta lacks {key}"):
            trainer.load_checkpoint(path)

    def test_file_carrying_the_former_slope_field_registers_alike(self, tmp_path):
        # files written while the slope was a config field carry
        # "leaky_slope": 0.1; they load as the same network, bit for bit
        weights, state, _ = trainer.load_checkpoint(small_identity_checkpoint(tmp_path / "m.ckpt"))
        rng = np.random.default_rng(5)
        for p in weights.params():
            p.data += rng.normal(0.0, 0.2, size=p.data.shape).astype(p.data.dtype)
        current, former = tmp_path / "current.ckpt", tmp_path / "former.ckpt"
        trainer.save_checkpoint(weights, state, 3, current)
        arrays, meta = model.read_checkpoint(current)
        meta["config"]["leaky_slope"] = 0.1
        model.write_checkpoint(former, arrays, meta)
        source = rng.uniform(-1.0, 1.0, size=(30, 2))
        target = source + rng.normal(0.0, 0.05, size=source.shape)
        now, before = (evaluator.register(trainer.load_checkpoint(path)[0], source, target)
                       for path in (current, former))
        assert not np.allclose(now.transformed, source)
        assert before.transformed.tobytes() == now.transformed.tobytes()
        assert before.theta.tobytes() == now.theta.tobytes()

    def test_file_can_be_overwritten_while_arrays_live(self, tmp_path):
        path = small_identity_checkpoint(tmp_path / "m.ckpt")
        weights, state, epoch = trainer.load_checkpoint(path)
        before = {k: v.copy() for k, v in loaded_arrays(weights, state).items()}
        path.write_bytes(b"")
        trainer.save_checkpoint(weights, state, epoch + 1, path)
        for name, arr in loaded_arrays(weights, state).items():
            assert arr.tobytes() == before[name].tobytes(), name


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """``(directory, bytes, payload offset)`` of a small training checkpoint."""
    directory = tmp_path_factory.mktemp("corrupt")
    raw = small_identity_checkpoint(directory / "small.ckpt").read_bytes()
    return directory, raw, 12 + int.from_bytes(raw[8:12], "little")


def _load(directory, raw):
    path = directory / "case.ckpt"
    path.write_bytes(raw)
    return trainer.load_checkpoint(path)


def _snapshot(loaded) -> tuple:
    """What ``trainer.load_checkpoint`` returned, as comparable values."""
    weights, state, epoch = loaded
    arrays = {name: arr.tobytes() for name, arr in loaded_arrays(weights, state).items()}
    return weights.config, arrays, state.learning_rate, state.decay, state.step_count, epoch, type(epoch)


class TestCorruptBytes:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flipped_payload_byte_fails_the_checksum(self, small_file, data):
        directory, raw, start = small_file
        index = data.draw(st.integers(start, len(raw) - 1), label="index")
        mask = data.draw(st.integers(1, 255), label="mask")
        damaged = bytearray(raw)
        damaged[index] ^= mask
        with pytest.raises(model.CorruptCheckpointError, match="checksum"):
            _load(directory, bytes(damaged))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_file_is_rejected(self, small_file, data):
        directory, raw, _ = small_file
        length = data.draw(st.integers(0, len(raw) - 1), label="length")
        with pytest.raises(model.CorruptCheckpointError):
            _load(directory, raw[:length])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_flipped_header_or_manifest_byte_loads_or_is_rejected(self, small_file, data):
        directory, raw, start = small_file
        index = data.draw(st.integers(0, start - 1), label="index")
        mask = data.draw(st.integers(1, 255), label="mask")
        damaged = bytearray(raw)
        damaged[index] ^= mask
        try:
            _load(directory, bytes(damaged))
        except model.CorruptCheckpointError:
            pass

    def test_no_flip_of_the_config_or_a_meta_key_loads_another_model(self, small_file):
        # every bit of the config object and of each meta key name, quotes
        # included; what still loads must be the same network and optimizer
        directory, raw, start = small_file
        lo = raw.index(b'"config":{') + len('"config":')
        spans = [(lo, raw.index(b"}", lo) + 1)]
        for key in json.loads(raw[12:start])["meta"]:
            at = raw.index(b'"%s":' % key.encode())
            spans.append((at, at + len(key) + 2))
        expected = _snapshot(_load(directory, raw))
        flips, differing = 0, []
        for index in sorted({i for a, b in spans for i in range(a, b)}):
            for bit in range(8):
                damaged = bytearray(raw)
                damaged[index] ^= 1 << bit
                flips += 1
                try:
                    loaded = _load(directory, bytes(damaged))
                except model.CorruptCheckpointError:
                    continue
                if _snapshot(loaded) != expected:
                    differing.append(bytes(damaged[index - 8:index + 8]))
        assert flips > 1500
        assert differing == []
