"""Binary model container shared by the encoder, tagger, and parser models.

Layout (integers little-endian uint32):

    bytes 0..3    magic  b"TKEM"
    bytes 4..7    container version (currently 1)
    bytes 8..11   header length H
    bytes 12..    UTF-8 JSON header, H bytes
    after that    tensor payloads concatenated in header order

The header object is::

    {"kind": "<model kind>",
     "config": {...},                         # model hyperparameters
     "tensors": [{"name": ..., "shape": [...], "dtype": "<f4"}, ...]}

Tensor payloads are raw C-order bytes of the declared (little-endian) dtype,
so save followed by load reproduces every array bit for bit.  The layout is
stable across releases; incompatible changes bump the version integer.
"""

import json
import struct

import numpy as np

MAGIC = b"TKEM"
VERSION = 1


def save_model(path, kind, config, tensors):
    """Write ``tensors`` (an ordered name -> array dict) with a JSON header."""
    entries = []
    payload = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        dt = arr.dtype.newbyteorder("<")
        entries.append({"name": name, "shape": list(arr.shape), "dtype": dt.str})
        payload.append(arr.astype(dt, copy=False).tobytes())
    header = {"kind": kind, "config": config, "tensors": entries}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for chunk in payload:
            fh.write(chunk)


def load_model(path):
    """Read a container; returns (kind, config, ordered name -> array dict)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    if len(data) < 12:
        raise ValueError(f"{path}: truncated header")
    version, hlen = struct.unpack("<II", data[4:12])
    if version != VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    if 12 + hlen > len(data):
        raise ValueError(f"{path}: truncated header")
    header = json.loads(data[12:12 + hlen].decode("utf-8"))
    tensors = {}
    offset = 12 + hlen
    for entry in header["tensors"]:
        dt = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        nbytes = dt.itemsize * int(np.prod(shape, dtype=np.int64))
        raw = data[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise ValueError(f"{path}: truncated tensor {entry['name']!r}")
        tensors[entry["name"]] = np.frombuffer(raw, dtype=dt).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after tensors")
    return header["kind"], header["config"], tensors


def restore_params(params, tensors, path):
    """Copy loaded ``tensors`` into a model's live ``params`` arrays.

    The names must match exactly and every shape must equal its parameter's;
    otherwise a ``ValueError`` names the file and the tensor and no parameter
    is touched.
    """
    for name, arr in params.items():
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != arr.shape:
            raise ValueError(f"{path}: tensor {name!r} has shape "
                             f"{tensors[name].shape}, expected {arr.shape}")
    for name in tensors:
        if name not in params:
            raise ValueError(f"{path}: unknown tensor {name!r}")
    for name, arr in params.items():
        arr[...] = tensors[name]
