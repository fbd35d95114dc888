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

spelled one way only: sorted keys, no spaces, non-ASCII escaped, as
``json.dumps(header, sort_keys=True, separators=(",", ":"))`` writes it.

Tensor payloads are raw C-order bytes of the declared (little-endian) dtype,
so save followed by load reproduces every array bit for bit.  The layout is
stable across releases; incompatible changes bump the version integer.

``open_text`` opens every text input; ``read_tsv`` is the one reader of the
tab-separated corpus and resource files.
"""

import json
import math
import re
import struct
from contextlib import contextmanager

import numpy as np

MAGIC = b"TKEM"
VERSION = 1


def _header_bytes(header):
    """The one spelling of a header that ``save_model`` writes and
    ``load_model`` accepts: sorted keys, no spaces."""
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


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
    blob = _header_bytes(header)
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
    blob = data[12:12 + hlen]
    header = _parse_header(path, blob)
    entries = {}  # name -> (shape, dtype, offset)
    offset = 12 + hlen
    for k, entry in enumerate(header["tensors"]):
        name, shape, dt = _tensor_entry(path, k, entry)
        if name in entries:
            raise ValueError(f"{path}: duplicate tensor {name!r}")
        entries[name] = shape, dt, offset
        offset += dt.itemsize * math.prod(shape)
        if offset > len(data):
            raise ValueError(f"{path}: truncated tensor {name!r}")
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after tensors")
    # last, so that a file failing any check above is named by that check
    if _header_bytes(header) != blob:
        raise ValueError(f"{path}: header is not in the canonical spelling "
                         "(sorted keys, no spaces)")
    tensors = {name: np.frombuffer(data, dt, math.prod(shape), start).reshape(shape).copy()
               for name, (shape, dt, start) in entries.items()}
    return header["kind"], header["config"], tensors


def _parse_header(path, blob):
    """The header object, its three fields checked for presence and type."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError:
        raise ValueError(f"{path}: header is not UTF-8") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: header is not JSON ({e})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    for field, kind, what in (("kind", str, "a string"), ("config", dict, "an object"),
                              ("tensors", list, "a list")):
        if field not in header:
            raise ValueError(f"{path}: header has no {field!r} field")
        if not isinstance(header[field], kind):
            raise ValueError(f"{path}: header field {field!r} is not {what}")
    return header


def _tensor_entry(path, k, entry):
    """(name, shape, dtype) of the ``k``-th tensor entry of a header."""
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: tensor entry {k} is not an object")
    for field in ("name", "shape", "dtype"):
        if field not in entry:
            raise ValueError(f"{path}: tensor entry {k} has no {field!r} field")
    name, shape = entry["name"], entry["shape"]
    if not isinstance(name, str):
        raise ValueError(f"{path}: tensor entry {k} field 'name' is not a string")
    if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{path}: tensor {name!r} field 'shape' is not a list "
                         "of non-negative integers")
    try:
        dt = np.dtype(entry["dtype"]) if isinstance(entry["dtype"], str) else None
    except (TypeError, ValueError, SyntaxError):  # numpy raises all three
        dt = None
    if dt is None or dt.kind not in "biufc":
        raise ValueError(f"{path}: tensor {name!r} field 'dtype' is not a numeric "
                         f"dtype: {entry['dtype']!r}")
    return name, tuple(shape), dt


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}
_KIND_TYPES = {bool: {bool}, int: {int}, float: {float, int}, str: {str}}


def check_config(path, value, kind, optional=(), field="config"):
    """Reject a header config ``value`` that does not have the given ``kind``.

    A kind is ``bool``, ``int`` (a bool is not one), ``float`` (an int or a
    float), ``str``, ``[kind]`` for a list of that kind, or a dict of field
    name -> kind for an object holding each of those fields, except any named
    in ``optional``, and no other.  A mismatch raises a ``ValueError`` naming
    the file and the field.
    """
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {field} is not an object")
        for name in value:
            if name not in kind:
                raise ValueError(f"{path}: {field}.{name} is unknown")
        for name, sub in kind.items():
            if name in value:
                check_config(path, value[name], sub, field=f"{field}.{name}")
            elif name not in optional:
                raise ValueError(f"{path}: {field}.{name} is missing")
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"{path}: {field} is not a list")
        sub = kind[0]
        if isinstance(sub, type):  # one pass; a field name only for the first bad item
            if not set(map(type, value)) <= _KIND_TYPES[sub]:
                bad = next(k for k, item in enumerate(value)
                           if type(item) not in _KIND_TYPES[sub])
                raise ValueError(f"{path}: {field}[{bad}] is not {_KIND_NAMES[sub]}")
        else:
            for k, item in enumerate(value):
                check_config(path, item, sub, field=f"{field}[{k}]")
    elif type(value) not in _KIND_TYPES[kind]:
        raise ValueError(f"{path}: {field} is not {_KIND_NAMES[kind]}")


def check_sizes(path, tensors, sizes):
    """Reject header sizes that disagree with the stored tensors, before a
    model of those sizes is built and allocated.  ``sizes`` maps a header
    field to the tensor it fixes and the shape its value implies.
    """
    for field, (name, shape) in sizes.items():
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ValueError(f"{path}: {field}: tensor {name!r} has shape "
                             f"{tensors[name].shape}, expected {shape}")


def restore_params(params, tensors, path):
    """Copy loaded ``tensors`` into a model's live ``params`` arrays.

    The names must match exactly, every shape and dtype must equal its
    parameter's (a cast would change what a re-save writes) and every value
    must be finite; otherwise a ``ValueError`` names the file and the tensor
    and no parameter is touched.
    """
    for name, arr in params.items():
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != arr.shape:
            raise ValueError(f"{path}: tensor {name!r} has shape "
                             f"{tensors[name].shape}, expected {arr.shape}")
        if not np.isfinite(tensors[name]).all():
            raise ValueError(f"{path}: tensor {name!r} has a non-finite value")
    for name in tensors:
        if name not in params:
            raise ValueError(f"{path}: unknown tensor {name!r}")
    for name, arr in params.items():
        if tensors[name].dtype != arr.dtype:
            raise ValueError(f"{path}: tensor {name!r} has dtype "
                             f"{tensors[name].dtype.str}, expected {arr.dtype.str}")
    for name, arr in params.items():
        arr[...] = tensors[name]


@contextmanager
def open_text(path):
    """The UTF-8 text file at ``path``, open for reading as ``open`` in text
    mode opens it; a byte that is not UTF-8 raises a ``ValueError`` naming
    ``path:line``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the decoder reads in chunks, so its error does not give the line
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as raw:
                for lineno, line in enumerate(raw, start=1):
                    bad = re.search("[\udc80-\udcff]", line)
                    if bad:
                        raise ValueError(f"{path}:{lineno}: byte 0x{ord(bad[0]) - 0xdc00:02x}"
                                         " is not UTF-8") from None
            raise


def read_tsv(path, n_fields):
    """Yield the blocks of rows of a tab-separated file; a blank line ends a block.

    Each row is ``(line number, fields)``.  A line without exactly ``n_fields``
    tab-separated fields, or with an empty field, raises a ``ValueError`` that
    names ``path:line``.
    """
    rows = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                if rows:
                    yield rows
                    rows = []
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise ValueError(f"{path}:{lineno}: expected {n_fields} tab-separated "
                                 f"fields, got {len(fields)}")
            if "" in fields:
                raise ValueError(f"{path}:{lineno}: field {fields.index('') + 1} is empty")
            rows.append((lineno, fields))
    if rows:
        yield rows


def tsv_int(path, row, k):
    """Field ``k`` (1-based) of a ``read_tsv`` row as an integer."""
    try:
        return int(row[1][k - 1])
    except ValueError:
        raise ValueError(f"{path}:{row[0]}: field {k} is not an integer: "
                         f"{row[1][k - 1]!r}") from None
