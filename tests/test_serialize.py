import numpy as np
import pytest

from tokembed.serialize import MAGIC, load_model, restore_params, save_model


def test_round_trip_bit_exact(tmp_path):
    tensors = {
        "a.W": np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0,
        "a.b": np.array([1.5, -2.25, np.pi], dtype=np.float32),
        "big": np.random.default_rng(0).normal(size=(5, 5)).astype(np.float32),
    }
    path = tmp_path / "m.bin"
    save_model(path, "demo", {"alpha": 3, "name": "x"}, tensors)
    kind, config, loaded = load_model(str(path))
    assert kind == "demo"
    assert config == {"alpha": 3, "name": "x"}
    assert list(loaded) == list(tensors)  # order preserved
    for k in tensors:
        assert loaded[k].dtype == tensors[k].dtype
        assert np.array_equal(loaded[k], tensors[k])


def test_save_twice_identical_bytes(tmp_path):
    tensors = {"w": np.array([1.0, 2.0, 3.0], dtype=np.float32)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(p1, "demo", {"k": 1}, tensors)
    save_model(p2, "demo", {"k": 1}, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_model(str(path))


def test_truncated_tensor_rejected(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "demo", {}, {"w": np.ones(8, dtype=np.float32)})
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_model(str(path))


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "demo", {}, {"w": np.ones(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ValueError, match="trailing"):
        load_model(str(path))


def test_magic_constant():
    assert len(MAGIC) == 4


def test_short_header_rejected(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "demo", {}, {"w": np.ones(2, dtype=np.float32)})
    data = path.read_bytes()
    for cut in (6, 20):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=f"{path}: truncated header"):
            load_model(str(path))


def live_params():
    return {"a.W": np.zeros((2, 3), dtype=np.float32),
            "a.b": np.zeros(2, dtype=np.float32)}


def test_restore_params_copies_every_tensor():
    params = live_params()
    stored = {"a.b": np.array([1.0, 2.0]), "a.W": np.arange(6.0).reshape(2, 3)}
    restore_params(params, stored, "m.bin")
    assert np.array_equal(params["a.W"], stored["a.W"])
    assert np.array_equal(params["a.b"], stored["a.b"])


@pytest.mark.parametrize("tensors, message", [
    ({"a.W": np.ones((2, 3))}, "missing tensor 'a.b'"),
    ({"a.W": np.ones((2, 3)), "a.b": np.ones(2), "a.c": np.ones(1)},
     "unknown tensor 'a.c'"),
    ({"a.W": np.ones((2, 3)), "a.b": np.ones(1)},
     r"tensor 'a.b' has shape \(1,\), expected \(2,\)"),
    ({"a.W": np.ones((3, 2)), "a.b": np.ones(2)},
     r"tensor 'a.W' has shape \(3, 2\), expected \(2, 3\)"),
])
def test_restore_params_rejects_mismatches_untouched(tensors, message):
    params = live_params()
    with pytest.raises(ValueError, match="^m.bin: " + message):
        restore_params(params, tensors, "m.bin")
    assert not any(v.any() for v in params.values())
