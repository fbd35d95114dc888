import json
import re
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tokembed.serialize import (MAGIC, VERSION, check_config, load_model, read_tsv,
                                restore_params, save_model, tsv_int)


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
    stored = {"a.b": np.array([1.0, 2.0], dtype=np.float32),
              "a.W": np.arange(6.0, dtype=np.float32).reshape(2, 3)}
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
    ({"a.W": np.ones((2, 3), np.float32), "a.b": np.ones(2)},
     "tensor 'a.b' has dtype <f8, expected <f4"),
    ({"a.W": np.ones((2, 3), ">f4"), "a.b": np.ones(2, np.float32)},
     "tensor 'a.W' has dtype >f4, expected <f4"),
])
def test_restore_params_rejects_mismatches_untouched(tensors, message):
    params = live_params()
    with pytest.raises(ValueError, match="^m.bin: " + message):
        restore_params(params, tensors, "m.bin")
    assert not any(v.any() for v in params.values())


def write_container(path, header, payload=b""):
    """A container whose header is ``header``: bytes as they are, anything
    else JSON-encoded."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + payload)
    return str(path)


W_ENTRY = {"name": "w", "shape": [2], "dtype": "<f4"}


@pytest.mark.parametrize("header, message", [
    (b"\xff\xfe{}", "header is not UTF-8"),
    (b"not json", r"header is not JSON \(Expecting value: line 1 column 1"),
    ([1, 2], "header is not a JSON object"),
    ({"config": {}, "tensors": []}, "header has no 'kind' field"),
    ({"kind": "demo", "tensors": []}, "header has no 'config' field"),
    ({"kind": "demo", "config": {}}, "header has no 'tensors' field"),
    ({"kind": 3, "config": {}, "tensors": []}, "header field 'kind' is not a string"),
    ({"kind": "demo", "config": [], "tensors": []},
     "header field 'config' is not an object"),
    ({"kind": "demo", "config": {}, "tensors": {}}, "header field 'tensors' is not a list"),
    ({"kind": "demo", "config": {}, "tensors": ["w"]}, "tensor entry 0 is not an object"),
    ({"kind": "demo", "config": {}, "tensors": [{"shape": [2], "dtype": "<f4"}]},
     "tensor entry 0 has no 'name' field"),
    ({"kind": "demo", "config": {}, "tensors": [W_ENTRY, {"name": "b", "dtype": "<f4"}]},
     "tensor entry 1 has no 'shape' field"),
    ({"kind": "demo", "config": {}, "tensors": [{"name": "w", "shape": [2]}]},
     "tensor entry 0 has no 'dtype' field"),
    ({"kind": "demo", "config": {}, "tensors": [dict(W_ENTRY, shape=[2.0])]},
     "tensor 'w' field 'shape' is not a list of non-negative integers"),
    ({"kind": "demo", "config": {}, "tensors": [dict(W_ENTRY, shape=[-1])]},
     "tensor 'w' field 'shape' is not a list of non-negative integers"),
    ({"kind": "demo", "config": {}, "tensors": [dict(W_ENTRY, dtype="<f5")]},
     "tensor 'w' field 'dtype' is not a numeric dtype: '<f5'"),
    ({"kind": "demo", "config": {}, "tensors": [dict(W_ENTRY, dtype="O")]},
     "tensor 'w' field 'dtype' is not a numeric dtype: 'O'"),
    ({"kind": "demo", "config": {}, "tensors": [W_ENTRY, W_ENTRY]},
     "duplicate tensor 'w'"),
])
def test_bad_header_rejected_naming_file_and_field(tmp_path, header, message):
    path = write_container(tmp_path / "m.bin", header, b"\x00" * 16)
    with pytest.raises(ValueError, match="^" + re.escape(path) + ": " + message):
        load_model(path)


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_corrupted_header_loads_or_is_rejected(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    save_model(path, "demo", {"alpha": [1, 2.5], "name": "x"},
               {"a.W": np.ones((2, 3), dtype=np.float32), "b": np.arange(4)})
    data = bytearray(path.read_bytes())
    hlen = struct.unpack("<I", data[8:12])[0]
    for pos, byte in edits:
        data[12 + pos % hlen] = byte
    path.write_bytes(bytes(data))
    try:
        load_model(str(path))
    except ValueError as e:
        assert str(e).startswith(f"{path}: ")
        assert "\n" not in str(e)


def test_read_tsv_blocks_and_line_numbers(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("\n\na\t1\nb\t-2\n\n\nc\t3", encoding="utf-8")
    blocks = list(read_tsv(str(path), 2))
    assert blocks == [[(3, ["a", "1"]), (4, ["b", "-2"])], [(7, ["c", "3"])]]
    assert [tsv_int(str(path), row, 2) for row in blocks[0]] == [1, -2]
    path.write_text("\n\n", encoding="utf-8")
    assert list(read_tsv(str(path), 2)) == []


@pytest.mark.parametrize("text, message", [
    ("a\t1\n b\n", "2: expected 2 tab-separated fields, got 1"),
    ("a\t1\t\n", "1: expected 2 tab-separated fields, got 3"),
    ("a\t1\n\na\t\n", "3: field 2 is empty"),
    ("\t\n", "1: field 1 is empty"),
])
def test_read_tsv_rejects_malformed_line(tmp_path, text, message):
    path = tmp_path / "f.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:{message}") + "$"):
        list(read_tsv(str(path), 2))


@pytest.mark.parametrize("kind, bad, message", [
    (str, 7, "is not a string"),
    (str, None, "is not a string"),
    (int, True, "is not an integer"),
    (int, 2.0, "is not an integer"),
    (float, "1", "is not a number"),
    (bool, 0, "is not true or false"),
])
def test_check_config_names_the_first_bad_item_of_a_long_list(kind, bad, message):
    good = {str: "w", int: 3, float: 0.5, bool: False}[kind]
    words = [good] * 20000
    check_config("t.bin", {"words": words, "x": [1, 2.5]}, {"words": [kind], "x": [float]})
    words[12345] = words[15000] = bad
    with pytest.raises(ValueError, match="^" + re.escape(f"t.bin: config.words[12345] {message}")
                       + "$"):
        check_config("t.bin", {"words": words}, {"words": [kind]})
    # a list of objects still names the item and its field
    with pytest.raises(ValueError, match=re.escape("t.bin: config.e[1].n is not an integer")):
        check_config("t.bin", {"e": [{"n": 1}, {"n": "1"}]}, {"e": [{"n": int}]})
