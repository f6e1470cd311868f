"""The checkpoint file, an uncompressed numpy ``.npz``: its layout, what
the loaders read and hand back, and how it fails on damaged bytes."""

import io
import json
import zipfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointreg import model, trainer

from conftest import array_data_spans, small_identity_checkpoint, write_checkpoint_file


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
        # one stored (uncompressed) .npy member per array, meta first as
        # sorted-key JSON bytes, then the model's arrays in layer order,
        # then the optimizer moments
        path = small_identity_checkpoint(tmp_path / "c.ckpt")
        weights, state, _ = trainer.load_checkpoint(path)
        meta = {"kind": "pointreg-model", "config": asdict(weights.config), "epoch": 0,
                "adam_step_count": 0, "adam_learning_rate": 1e-4, "adam_decay": 0.995}
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
        members = {"meta": np.frombuffer(blob, dtype=np.uint8), **loaded_arrays(weights, state)}
        with zipfile.ZipFile(path) as z:
            infos = z.infolist()
            assert [i.filename for i in infos] == [f"{name}.npy" for name in members]
            assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
            for info, (name, arr) in zip(infos, members.items()):
                expected = io.BytesIO()
                np.lib.format.write_array(expected, arr)
                assert z.read(info) == expected.getvalue(), name

    @pytest.mark.parametrize("dtype", [">f4", ">f8"])
    def test_big_endian_arrays_round_trip(self, tmp_path, dtype):
        # an array is stored in its own byte order and read back as it was
        big = np.linspace(-2.0, 3.0, 6).reshape(2, 3).astype(dtype)
        weights, _, _ = model.load_model(small_identity_checkpoint(tmp_path / "m.ckpt"))
        model.save_model(tmp_path / "big.ckpt", weights, {}, {"x": big})
        arrays, _ = model.read_checkpoint(tmp_path / "big.ckpt")
        assert arrays["x"].dtype == big.dtype
        assert arrays["x"].tobytes() == big.tobytes()
        np.testing.assert_array_equal(arrays["x"], big)

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.int64])
    def test_other_dtypes_rejected(self, tmp_path, dtype):
        # a model array is read only in the config's dtype
        arrays, meta = model.read_checkpoint(small_identity_checkpoint(tmp_path / "m.ckpt"))
        arrays["fc1.bias"] = arrays["fc1.bias"].astype(dtype)
        write_checkpoint_file(tmp_path / "c.ckpt", arrays, meta)
        with pytest.raises(model.CorruptCheckpointError, match=f"array fc1.bias has dtype {np.dtype(dtype)}"):
            model.load_model(tmp_path / "c.ckpt")


class TestLoaderContract:
    def test_read_checkpoint_mixed_dtypes(self, tmp_path):
        path = write_checkpoint_file(tmp_path / "c.ckpt", MIXED, {"k": 1})
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
        weights, _, extras = model.load_model(path, extra_prefix="opt.")
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
        write_checkpoint_file(path, arrays, meta)
        with pytest.raises(model.CorruptCheckpointError, match=f"training meta lacks {key}"):
            trainer.load_checkpoint(path)

    def test_file_can_be_overwritten_while_arrays_live(self, tmp_path):
        path = small_identity_checkpoint(tmp_path / "m.ckpt")
        weights, state, epoch = trainer.load_checkpoint(path)
        before = {k: v.copy() for k, v in loaded_arrays(weights, state).items()}
        path.write_bytes(b"")
        trainer.save_checkpoint(weights, state, epoch + 1, path)
        for name, arr in loaded_arrays(weights, state).items():
            assert arr.tobytes() == before[name].tobytes(), name

    def test_load_checkpoint_returns_what_was_saved(self, tmp_path):
        weights, state, _ = trainer.load_checkpoint(small_identity_checkpoint(tmp_path / "m.ckpt"))
        rng = np.random.default_rng(8)
        for arr in loaded_arrays(weights, state).values():
            arr[...] = rng.normal(size=arr.shape)
        state.step_count = 12
        trainer.save_checkpoint(weights, state, 5, tmp_path / "c.ckpt")
        loaded, lstate, epoch = trainer.load_checkpoint(tmp_path / "c.ckpt")
        assert (epoch, type(epoch), lstate.step_count) == (5, int, 12)
        assert (lstate.learning_rate, lstate.decay) == (state.learning_rate, state.decay)
        got = loaded_arrays(loaded, lstate)
        for name, arr in loaded_arrays(weights, state).items():
            assert got[name].dtype == arr.dtype and got[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("name", ["m.ckpt", "model"])
    def test_save_checkpoint_writes_exactly_its_path(self, tmp_path, name):
        small_identity_checkpoint(tmp_path / name)
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_load_model_reads_no_optimizer_member(self, tmp_path, monkeypatch):
        path = small_identity_checkpoint(tmp_path / "m.ckpt")
        read = []
        open_member = zipfile.ZipFile.open

        def spy(archive, name, *args, **kwargs):
            read.append(name.removesuffix(".npy"))
            return open_member(archive, name, *args, **kwargs)

        monkeypatch.setattr(zipfile.ZipFile, "open", spy)
        weights, _, extras = model.load_model(path)
        assert extras == {}
        assert read == ["meta", *weights.named_arrays()]
        read.clear()
        weights, state, _ = trainer.load_checkpoint(path)
        assert read == ["meta", *loaded_arrays(weights, state)]


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """``(directory, bytes, payload, outside)`` of a small training
    checkpoint: the offsets of every byte of array data, and of every other
    byte (zip and ``.npy`` headers, the central directory, the meta)."""
    directory = tmp_path_factory.mktemp("corrupt")
    path = small_identity_checkpoint(directory / "small.ckpt")
    raw = path.read_bytes()
    payload = {i for a, b in array_data_spans(path).values() for i in range(a, b)}
    return directory, raw, sorted(payload), sorted(set(range(len(raw))) - payload)


def _load(directory, raw, load=trainer.load_checkpoint):
    path = directory / "case.ckpt"
    path.write_bytes(raw)
    return load(path)


def _snapshot(loaded) -> tuple:
    """What ``trainer.load_checkpoint`` returned, as comparable values."""
    weights, state, epoch = loaded
    arrays = {name: (arr.dtype.str, arr.shape, arr.tobytes()) for name, arr in loaded_arrays(weights, state).items()}
    return weights.config, arrays, state.learning_rate, state.decay, state.step_count, epoch, type(epoch)


def _model_snapshot(loaded) -> tuple:
    """What ``model.load_model`` returned, as comparable values."""
    weights, meta, extras = loaded
    arrays = {name: (arr.dtype.str, arr.shape, arr.tobytes()) for name, arr in weights.named_arrays().items()}
    return weights.config, arrays, meta, extras


def _flipped(raw, index, bit) -> bytes:
    damaged = bytearray(raw)
    damaged[index] ^= 1 << bit
    return bytes(damaged)


class TestCorruptBytes:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flipped_payload_byte_fails_the_checksum(self, small_file, data):
        # array data is read to the member's end, so its CRC-32 is checked
        directory, raw, payload, _ = small_file
        index = data.draw(st.sampled_from(payload), label="index")
        mask = data.draw(st.integers(1, 255), label="mask")
        damaged = bytearray(raw)
        damaged[index] ^= mask
        with pytest.raises(model.CorruptCheckpointError, match="Bad CRC-32"):
            _load(directory, bytes(damaged))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_file_is_rejected(self, small_file, data):
        directory, raw, _, _ = small_file
        length = data.draw(st.integers(0, len(raw) - 1), label="length")
        with pytest.raises(model.CorruptCheckpointError):
            _load(directory, raw[:length])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_flipped_header_or_manifest_byte_loads_or_is_rejected(self, small_file, data):
        # zip headers, the central directory, .npy headers and the meta
        # member: a damaged byte there is rejected or changes nothing loaded
        directory, raw, _, outside = small_file
        index = data.draw(st.sampled_from(outside), label="index")
        mask = data.draw(st.integers(1, 255), label="mask")
        damaged = bytearray(raw)
        damaged[index] ^= mask
        try:
            loaded = _load(directory, bytes(damaged))
        except model.CorruptCheckpointError:
            return
        assert _snapshot(loaded) == _snapshot(_load(directory, raw))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_no_single_bit_flip_loads_another_state(self, small_file, data):
        # through either loader, a file with one bit flipped anywhere is
        # rejected or loads bitwise what the intact file loads
        directory, raw, _, _ = small_file
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        damaged = _flipped(raw, bit // 8, bit % 8)
        for load, snapshot in ((trainer.load_checkpoint, _snapshot), (model.load_model, _model_snapshot)):
            try:
                loaded = _load(directory, damaged, load)
            except model.CorruptCheckpointError:
                continue
            assert snapshot(loaded) == snapshot(_load(directory, raw, load)), load.__name__

    def test_no_flip_of_a_header_loads_another_model(self, small_file):
        # every bit of the .npy header of the largest member, far larger
        # than zipfile's 4 KB read-ahead, and of the meta's central-directory
        # entry: a .npy header is parsed before its member's CRC-32 is
        # checked, a shorter header length shifts the array, and zip flags
        # can ask for a compression or encryption the reader lacks
        directory, raw, _, _ = small_file
        spans = array_data_spans(directory / "small.ckpt")
        largest = max(spans, key=lambda name: spans[name][1] - spans[name][0])
        directory_start = max(end for _, end in spans.values())
        regions = [(raw.rindex(b"\x93NUMPY", 0, spans[largest][0]), spans[largest][0]),
                   (directory_start, raw.index(b"PK\x01\x02", directory_start + 4))]
        expected = _model_snapshot(_load(directory, raw, model.load_model))
        flips, differing = 0, []
        for index in (i for a, b in regions for i in range(a, b)):
            for bit in range(8):
                flips += 1
                try:
                    loaded = _load(directory, _flipped(raw, index, bit), model.load_model)
                except model.CorruptCheckpointError:
                    continue
                if _model_snapshot(loaded) != expected:
                    differing.append((index, bit))
        assert flips > 1400
        assert differing == []

    def test_no_flip_of_the_config_or_a_meta_key_loads_another_model(self, small_file):
        # every bit of the config object and of each meta key name, quotes
        # included; what still loads must be the same network and optimizer
        directory, raw, _, _ = small_file
        lo = raw.index(b'"config":{') + len('"config":')
        spans = [(lo, raw.index(b"}", lo) + 1)]
        _, meta = model.read_checkpoint(directory / "small.ckpt")
        for key in meta:
            at = raw.index(b'"%s":' % key.encode())
            spans.append((at, at + len(key) + 2))
        expected = _snapshot(_load(directory, raw))
        flips, differing = 0, []
        for index in sorted({i for a, b in spans for i in range(a, b)}):
            for bit in range(8):
                flips += 1
                try:
                    loaded = _load(directory, _flipped(raw, index, bit))
                except model.CorruptCheckpointError:
                    continue
                if _snapshot(loaded) != expected:
                    differing.append(raw[index - 8:index + 8])
        assert flips > 1500
        assert differing == []
