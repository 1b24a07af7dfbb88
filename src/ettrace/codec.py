"""Trace serialization: canonical JSON and a compact binary container.

Both codecs are deterministic (same trace -> same bytes) and reject inputs
they cannot faithfully represent, rather than guessing. Binary decode errors
report the absolute byte offset where the stream ran out or went bad.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable

from .schema import (
    Attribute,
    AttributeKind,
    ETNode,
    NodeType,
    Trace,
    attr_value_matches_kind,
    float_payload,
    parse_schema_version,
)
from .validate import InvalidTraceError, validate_trace

MAGIC = b"CHKET\0"
FORMAT_JSON = "json"
FORMAT_BINARY = "binary"
TRACE_FILE_SUFFIX = ".et"


class DecodeError(ValueError):
    """Malformed trace bytes. ``offset`` is set for binary truncation/corruption."""

    def __init__(self, message: str, offset: "int | None" = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


def _attr_to_obj(attr: Attribute) -> dict:
    value = attr.value
    if isinstance(value, tuple):
        value = list(value)
    return {
        "name": attr.name,
        "kind": attr.kind.name,
        "doc_string": attr.doc_string,
        "value": value,
    }


def trace_to_obj(trace: Trace) -> dict:
    """Plain-dict form of a trace, with nodes in ascending id order."""
    return {
        "schema_version": trace.schema_version,
        "npu_id": trace.npu_id,
        "nodes": [
            {
                "id": node.id,
                "name": node.name,
                "type": node.type.name,
                "parents": list(node.parents),
                "attributes": [_attr_to_obj(a) for a in node.attributes],
            }
            for node in sorted(trace.nodes, key=lambda n: n.id)
        ],
    }


def _require(obj: dict, key: str, prefix: str = "") -> object:
    if key not in obj:
        raise DecodeError(f"{prefix}missing required field {key!r}")
    return obj[key]


def _attr_from_obj(obj: object, interned: "dict[tuple, Attribute]") -> Attribute:
    """Decode one attribute; an INT, FLOAT or STRING one is built once per trace.

    The key holds ``type(value)`` so that 1 and 1.0 stay apart. A float zero
    is never interned: 0.0 == -0.0, so the two would share a key.
    """
    try:
        value = obj["value"]
        key = (obj["name"], obj["kind"], obj.get("doc_string", ""), type(value), value)
        attr = interned.get(key)
    except (TypeError, KeyError, AttributeError):  # no key: not an object, a field missing, a list value
        return _decode_attr_obj(obj)
    if attr is None:
        attr = _decode_attr_obj(obj)
        if type(value) is int or type(value) is str or (type(value) is float and value != 0.0):
            interned[key] = attr
    return attr


def _decode_attr_obj(obj: object) -> Attribute:
    if not isinstance(obj, dict):
        raise DecodeError("attribute must be an object")
    name = _require(obj, "name")
    kind_name = _require(obj, "kind")
    value = _require(obj, "value")
    if not isinstance(name, str):
        raise DecodeError("attribute name must be a string")
    try:
        kind = AttributeKind[kind_name]  # type: ignore[index]
    except (KeyError, TypeError):
        raise DecodeError(f"unknown attribute kind {kind_name!r}") from None
    if isinstance(value, list):
        value = tuple(value)
    if not attr_value_matches_kind(kind, value):
        raise DecodeError(f"attribute {name!r} value {value!r} does not match kind {kind.name}")
    doc = obj.get("doc_string", "")
    if not isinstance(doc, str):
        raise DecodeError("doc_string must be a string")
    return Attribute(name, kind, float_payload(kind, value), doc)


def _node_from_obj(obj: object, interned: "dict[tuple, Attribute]") -> ETNode:
    if not isinstance(obj, dict):
        raise DecodeError("node must be an object")
    node_id = _require(obj, "id", "node: ")
    if not isinstance(node_id, int) or isinstance(node_id, bool):
        raise DecodeError("node id must be an integer")
    try:  # the node's errors are named after it only once one is raised
        name = _require(obj, "name")
        if not isinstance(name, str):
            raise DecodeError("name must be a string")
        type_name = _require(obj, "type")
        try:
            node_type = NodeType[type_name]  # type: ignore[index]
        except (KeyError, TypeError):
            raise DecodeError(f"unknown node type {type_name!r}") from None
        parents = obj.get("parents", [])
        if not isinstance(parents, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in parents
        ):
            raise DecodeError("parents must be a list of integers")
        attrs_obj = obj.get("attributes", [])
        if not isinstance(attrs_obj, list):
            raise DecodeError("attributes must be a list")
        attrs = tuple(_attr_from_obj(a, interned) for a in attrs_obj)
    except DecodeError as exc:
        raise DecodeError(f"node {node_id}: {exc}") from None
    return ETNode(node_id, name, node_type, tuple(parents), attrs)


def trace_from_obj(obj: object) -> Trace:
    if not isinstance(obj, dict):
        raise DecodeError("trace must be a JSON object")
    version = _require(obj, "schema_version", "trace: ")
    if not isinstance(version, str):
        raise DecodeError("schema_version must be a string")
    try:
        major, _ = parse_schema_version(version)
    except ValueError as exc:
        raise DecodeError(str(exc)) from None
    if major > 0:
        raise DecodeError(f"unsupported schema_version {version!r}: major version too new")
    npu_id = _require(obj, "npu_id", "trace: ")
    if not isinstance(npu_id, int) or isinstance(npu_id, bool):
        raise DecodeError("npu_id must be an integer")
    nodes_obj = _require(obj, "nodes", "trace: ")
    if not isinstance(nodes_obj, list):
        raise DecodeError("nodes must be a list")
    interned: dict[tuple, Attribute] = {}
    nodes = tuple(_node_from_obj(n, interned) for n in nodes_obj)
    return Trace(npu_id=npu_id, nodes=nodes, schema_version=version)


_str = json.encoder.encode_basestring_ascii


def _list(items: "list[str]", indent: int) -> str:
    """A JSON array of already-written ``items``, laid out ``indent`` spaces deep."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def _json(value: object, indent: int) -> str:
    """``json.dumps(value, indent=2)`` as written ``indent`` spaces deep.

    Plain strings, ints and lists are written here; ``json.dumps`` writes
    every other value (and raises for what JSON cannot hold).
    """
    if type(value) is str:
        return _str(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _list([_json(v, indent + 2) for v in value], indent)
    return json.dumps(value, indent=2).replace("\n", "\n" + " " * indent)


def _attr_json(attr: Attribute) -> str:
    return (
        f'{{\n          "name": {_json(attr.name, 10)},'
        f'\n          "kind": {_json(attr.kind.name, 10)},'
        f'\n          "doc_string": {_json(attr.doc_string, 10)},'
        f'\n          "value": {_json(attr.value, 10)}\n        }}'
    )


def _node_json(node: ETNode) -> str:
    return (
        f'{{\n      "id": {_json(node.id, 6)},'
        f'\n      "name": {_json(node.name, 6)},'
        f'\n      "type": {_json(node.type.name, 6)},'
        f'\n      "parents": {_json(node.parents, 6)},'
        f'\n      "attributes": {_list([_attr_json(a) for a in node.attributes], 6)}\n    }}'
    )


def trace_to_json(trace: Trace) -> str:
    """Canonical JSON: exactly ``json.dumps(trace_to_obj(trace), indent=2) + "\\n"``.

    Written directly, because ``indent`` turns off json's C encoder.
    """
    nodes = [_node_json(n) for n in sorted(trace.nodes, key=lambda n: n.id)]
    return (
        f'{{\n  "schema_version": {_json(trace.schema_version, 2)},'
        f'\n  "npu_id": {_json(trace.npu_id, 2)},'
        f'\n  "nodes": {_list(nodes, 2)}\n}}\n'
    )


def trace_from_json(text: "str | bytes") -> Trace:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"not valid JSON: {exc}") from None
    return trace_from_obj(obj)


# --------------------------------------------------------------------------
# Binary
# --------------------------------------------------------------------------

# The container's fixed-width fields, little-endian: encoder and decoder share them.
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_VERSION = struct.Struct("<BB")
_KIND_DOC = struct.Struct("<BI")  # attribute kind tag, doc_string length
_SCALAR_VALUE = {  # kind tag -> the fixed-width field after the doc_string
    AttributeKind.FLOAT.value: struct.Struct("<d"),
    AttributeKind.INT.value: struct.Struct("<q"),
    AttributeKind.STRING.value: _U32,  # length of the UTF-8 text
}
_STRING_TAG = AttributeKind.STRING.value
_ARRAY_CODES = {AttributeKind.FLOATS: "d", AttributeKind.INTS: "q"}  # 8-byte items behind a u32 count

_TYPE_TAGS = {t: t.value for t in NodeType}
_TYPE_FROM_TAG = {t.value: t for t in NodeType}
_KIND_FROM_TAG = {k.value: k for k in AttributeKind}


def _pack_str(parts: "list[bytes]", text: str, width: struct.Struct) -> None:
    raw = text.encode("utf-8")
    parts.append(width.pack(len(raw)))
    parts.append(raw)


def _pack_attr(parts: "list[bytes]", attr: Attribute) -> None:
    kind, value = attr.kind, attr.value
    if not attr_value_matches_kind(kind, value):
        raise ValueError(f"attribute {attr.name!r}: value does not match kind {kind.name}")
    _pack_str(parts, attr.name, _U16)
    doc = attr.doc_string.encode("utf-8")
    parts.append(_KIND_DOC.pack(kind.value, len(doc)))
    parts.append(doc)
    if kind is AttributeKind.STRING:
        _pack_str(parts, value, _U32)
    elif kind is AttributeKind.FLOAT or kind is AttributeKind.INT:
        parts.append(_SCALAR_VALUE[kind.value].pack(float(value) if kind is AttributeKind.FLOAT else value))
    elif kind is AttributeKind.STRINGS:
        parts.append(_U32.pack(len(value)))
        for item in value:
            _pack_str(parts, item, _U32)
    else:
        items = [float(v) for v in value] if kind is AttributeKind.FLOATS else value
        parts.append(_U32.pack(len(items)))
        parts.append(struct.pack(f"<{len(items)}{_ARRAY_CODES[kind]}", *items))


def _pack_node(node: ETNode) -> bytes:
    parts = [_U64.pack(node.id)]
    _pack_str(parts, node.name, _U16)
    parts.append(_U8.pack(_TYPE_TAGS[node.type]))
    parts.append(_U32.pack(len(node.parents)))
    parts.append(struct.pack(f"<{len(node.parents)}Q", *node.parents))
    parts.append(_U16.pack(len(node.attributes)))
    for attr in node.attributes:
        _pack_attr(parts, attr)
    return b"".join(parts)


def trace_to_binary(trace: Trace) -> bytes:
    out = [MAGIC, _VERSION.pack(*parse_schema_version(trace.schema_version)), _U32.pack(trace.npu_id)]
    nodes = sorted(trace.nodes, key=lambda n: n.id)
    out.append(_U32.pack(len(nodes)))
    for node in nodes:
        record = _pack_node(node)
        out.append(_U32.pack(len(record)))
        out.append(record)
    return b"".join(out)


# Binary decode reads every field at its offset in the one buffer. The reads
# below check bounds first, so malformed input raises DecodeError naming the
# absolute offset where the stream ran out or went bad.


def _unpack(st: struct.Struct, data: bytes, pos: int, what: str) -> tuple:
    if pos + st.size > len(data):
        raise DecodeError(f"truncated while reading {what}", offset=pos)
    return st.unpack_from(data, pos)


def _unpack_array(code: str, count: int, data: bytes, pos: int, what: str) -> tuple:
    """``count`` items of the 8-byte struct ``code`` (d, q or Q) at ``pos``."""
    if pos + 8 * count > len(data):
        raise DecodeError(f"truncated while reading {what}", offset=pos)
    return struct.unpack_from(f"<{count}{code}", data, pos) if count else ()


def _unpack_str(width: struct.Struct, data: bytes, pos: int, what: str) -> "tuple[str, int]":
    """The text at ``pos`` behind its ``width`` length, and the offset after it."""
    if pos + width.size > len(data):
        raise DecodeError(f"truncated while reading {what} length", offset=pos)
    (length,) = width.unpack_from(data, pos)
    pos += width.size
    stop = pos + length
    if stop > len(data):
        raise DecodeError(f"truncated while reading {what}", offset=pos)
    try:
        return data[pos:stop].decode("utf-8"), stop
    except UnicodeDecodeError:
        raise DecodeError(f"{what} is not valid UTF-8", offset=pos) from None


def _scalar_attr_stop(data: bytes, pos: int) -> int:
    """End offset of the INT, FLOAT or STRING attribute at ``pos``; -1 for any other.

    Reads only the three length fields, so the caller can look up the
    attribute's raw bytes before decoding them. -1 also when the bytes run
    out: the careful decode then names the offset.
    """
    try:
        (name_len,) = _U16.unpack_from(data, pos)
        pos += 2 + name_len
        kind_tag, doc_len = _KIND_DOC.unpack_from(data, pos)
        pos += 5 + doc_len
        value = _SCALAR_VALUE.get(kind_tag)
        if value is None:
            return -1
        stop = pos + value.size
        if kind_tag == _STRING_TAG:
            stop += value.unpack_from(data, pos)[0]
    except struct.error:
        return -1
    return stop if stop <= len(data) else -1


def _unpack_attr(data: bytes, pos: int) -> "tuple[Attribute, int]":
    name, pos = _unpack_str(_U16, data, pos, "attribute name")
    (kind_tag,) = _unpack(_U8, data, pos, "attribute kind")
    kind = _KIND_FROM_TAG.get(kind_tag)
    if kind is None:
        raise DecodeError(f"unknown attribute kind tag {kind_tag}", offset=pos)
    doc, pos = _unpack_str(_U32, data, pos + 1, "attribute doc_string")
    value: object
    if kind is AttributeKind.STRING:
        value, pos = _unpack_str(_U32, data, pos, "STRING value")
    elif kind is AttributeKind.FLOAT or kind is AttributeKind.INT:
        (value,) = _unpack(_SCALAR_VALUE[kind_tag], data, pos, f"{kind.name} value")
        pos += 8
    else:
        (count,) = _unpack(_U32, data, pos, f"{kind.name} count")
        pos += 4
        if kind is AttributeKind.STRINGS:
            items = []
            for _ in range(count):
                item, pos = _unpack_str(_U32, data, pos, "STRINGS item")
                items.append(item)
            value = tuple(items)
        else:
            value = _unpack_array(_ARRAY_CODES[kind], count, data, pos, f"{kind.name} values")
            pos += 8 * count
    return Attribute(name, kind, value, doc), pos


def _unpack_node(data: bytes, pos: int, end: int, interned: "dict[bytes, Attribute]") -> ETNode:
    (node_id,) = _unpack(_U64, data, pos, "node id")
    name, pos = _unpack_str(_U16, data, pos + 8, "node name")
    (type_tag,) = _unpack(_U8, data, pos, "node type")
    node_type = _TYPE_FROM_TAG.get(type_tag)
    if node_type is None:
        raise DecodeError(f"unknown node type tag {type_tag}", offset=pos)
    (parent_count,) = _unpack(_U32, data, pos + 1, "parent count")
    pos += 5
    parents = _unpack_array("Q", parent_count, data, pos, "parents")
    pos += 8 * parent_count
    (attr_count,) = _unpack(_U16, data, pos, "attribute count")
    pos += 2
    attrs = []
    for _ in range(attr_count):
        # A scalar attribute decodes to the same frozen Attribute wherever its
        # bytes repeat, so each distinct one is built once per trace.
        stop = _scalar_attr_stop(data, pos)
        key = data[pos:stop] if stop > 0 else None
        attr = interned.get(key)
        if attr is None:
            attr, pos = _unpack_attr(data, pos)
            if key is not None:
                interned[key] = attr
        else:
            pos = stop
        attrs.append(attr)
    if pos != end:
        raise DecodeError(f"node {node_id} record has {end - pos} unread trailing bytes", offset=pos)
    return ETNode(node_id, name, node_type, parents, tuple(attrs))


def trace_from_binary(data: bytes) -> Trace:
    magic = data[: len(MAGIC)]
    if len(magic) < len(MAGIC):
        raise DecodeError("truncated while reading magic", offset=0)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    pos = len(MAGIC)
    major, minor = _unpack(_VERSION, data, pos, "version")
    if major > 0:
        raise DecodeError(f"unsupported major version {major}", offset=pos)
    (npu_id,) = _unpack(_U32, data, pos + 2, "npu_id")
    (node_count,) = _unpack(_U32, data, pos + 6, "node count")
    pos += 10
    interned: dict[bytes, Attribute] = {}
    nodes = []
    for _ in range(node_count):
        (record_len,) = _unpack(_U32, data, pos, "node record length")
        pos += 4
        end = pos + record_len
        if end > len(data):
            raise DecodeError("truncated while reading node record", offset=pos)
        nodes.append(_unpack_node(data, pos, end, interned))
        pos = end
    if pos != len(data):
        raise DecodeError("trailing bytes after last node record", offset=pos)
    return Trace(npu_id=npu_id, nodes=tuple(nodes), schema_version=f"{major}.{minor}")


# --------------------------------------------------------------------------
# Format-agnostic entry points and file IO
# --------------------------------------------------------------------------


def encode_trace(trace: Trace, fmt: str = FORMAT_JSON) -> bytes:
    """``trace`` as ``fmt`` bytes, once it validates; ``trace_to_json``/``trace_to_binary`` do not check."""
    report = validate_trace(trace)
    if not report.ok:
        raise InvalidTraceError(report, "refusing to encode invalid trace")
    if fmt == FORMAT_JSON:
        return trace_to_json(trace).encode("utf-8")
    if fmt == FORMAT_BINARY:
        return trace_to_binary(trace)
    raise ValueError(f"unknown trace format {fmt!r}")


def decode_trace(data: bytes, fmt: "str | None" = None) -> Trace:
    """Decode trace bytes; sniffs the format when ``fmt`` is None."""
    if fmt is None:
        fmt = FORMAT_BINARY if data.startswith(MAGIC) else FORMAT_JSON
    if fmt == FORMAT_JSON:
        return trace_from_json(data)
    if fmt == FORMAT_BINARY:
        return trace_from_binary(data)
    raise ValueError(f"unknown trace format {fmt!r}")


def trace_filename(prefix: str, npu_id: int) -> str:
    return f"{prefix}.{npu_id}{TRACE_FILE_SUFFIX}"


def write_trace(trace: Trace, path: "str | Path", fmt: str = FORMAT_JSON) -> Path:
    path = Path(path)
    path.write_bytes(encode_trace(trace, fmt))
    return path


def read_trace(path: "str | Path", fmt: "str | None" = None) -> Trace:
    path = Path(path)
    try:
        return decode_trace(path.read_bytes(), fmt)
    except DecodeError as exc:
        raise DecodeError(f"{path}: {exc}", offset=None) from exc


def write_workload(
    traces: Iterable[Trace],
    directory: "str | Path",
    prefix: str = "trace",
    fmt: str = FORMAT_JSON,
) -> list[Path]:
    """Write one ``<prefix>.<npu_id>.et`` file per trace; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for trace in sorted(traces, key=lambda t: t.npu_id):
        paths.append(write_trace(trace, directory / trace_filename(prefix, trace.npu_id), fmt))
    return paths


def read_workload(directory: "str | Path", prefix: str = "trace") -> list[Trace]:
    """Read every ``<prefix>.<npu_id>.et`` under ``directory``, ordered by npu_id."""
    directory = Path(directory)
    found: list[tuple[int, Path]] = []
    for path in directory.glob(f"{prefix}.*{TRACE_FILE_SUFFIX}"):
        stem = path.name[len(prefix) + 1 : -len(TRACE_FILE_SUFFIX)]
        if stem.isdigit():
            found.append((int(stem), path))
    if not found:
        raise FileNotFoundError(f"no {prefix}.<npu_id>{TRACE_FILE_SUFFIX} files in {directory}")
    traces = []
    for npu_id, path in sorted(found):
        trace = read_trace(path)
        if trace.npu_id != npu_id:
            raise DecodeError(f"{path}: filename says npu {npu_id} but trace says {trace.npu_id}")
        traces.append(trace)
    return traces
