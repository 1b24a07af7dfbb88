"""Trace serialization: canonical JSON and a compact binary container.

Both codecs are deterministic (same trace -> same bytes) and reject inputs
they cannot faithfully represent, rather than guessing. Binary decode errors
report the absolute byte offset where the stream ran out or went bad.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Iterator

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


_KIND_BY_NAME = {k.name: k for k in AttributeKind}
_TYPE_BY_NAME = {t.name: t for t in NodeType}


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
        kind = _KIND_BY_NAME[kind_name]  # type: ignore[index]
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
            node_type = _TYPE_BY_NAME[type_name]  # type: ignore[index]
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
        attrs = tuple([_attr_from_obj(a, interned) for a in attrs_obj])
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


_NAME_JSON = {member: _str(member.name) for member in (*NodeType, *AttributeKind)}  # each type's and kind's text


def _attr_json(attr: Attribute) -> str:
    return (
        f'{{\n          "name": {_json(attr.name, 10)},'
        f'\n          "kind": {_NAME_JSON[attr.kind]},'
        f'\n          "doc_string": {_json(attr.doc_string, 10)},'
        f'\n          "value": {_json(attr.value, 10)}\n        }}'
    )


def _node_json(node: ETNode, attr_texts: "dict[int, str]") -> str:
    """``node``'s JSON; ``attr_texts`` maps the id of each Attribute written so far to its text."""
    texts = []
    for attr in node.attributes:
        text = attr_texts.get(id(attr))
        if text is None:
            text = attr_texts[id(attr)] = _attr_json(attr)
        texts.append(text)
    return (
        f'{{\n      "id": {_json(node.id, 6)},'
        f'\n      "name": {_json(node.name, 6)},'
        f'\n      "type": {_NAME_JSON[node.type]},'
        f'\n      "parents": {_json(node.parents, 6)},'
        f'\n      "attributes": {_list(texts, 6)}\n    }}'
    )


def trace_to_json(trace: Trace) -> str:
    """Canonical JSON: exactly ``json.dumps(trace_to_obj(trace), indent=2) + "\\n"``.

    Written directly, because ``indent`` turns off json's C encoder. Each distinct
    Attribute object is written once; the trace holds them all, so their ids stay unique.
    """
    attr_texts: dict[int, str] = {}
    nodes = [_node_json(n, attr_texts) for n in sorted(trace.nodes, key=lambda n: n.id)]
    return (
        f'{{\n  "schema_version": {_json(trace.schema_version, 2)},'
        f'\n  "npu_id": {_json(trace.npu_id, 2)},'
        f'\n  "nodes": {_list(nodes, 2)}\n}}\n'
    )


def trace_from_json(text: "str | bytes") -> Trace:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"not valid UTF-8: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"not valid JSON: {exc}") from None
    return trace_from_obj(obj)


# --------------------------------------------------------------------------
# Binary
# --------------------------------------------------------------------------

# The container's fixed-width fields, little-endian: encoder and decoder share them.
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_VERSION = struct.Struct("<BB")  # major, minor; validation bounds the minor by a byte
_NPU_COUNT = struct.Struct("<II")  # npu_id, node count
_TAG_COUNT = struct.Struct("<BI")  # node type tag and parent count; attribute kind tag and doc_string length
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
    parts.append(_TAG_COUNT.pack(kind.value, len(doc)))
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
    parts.append(_TAG_COUNT.pack(_TYPE_TAGS[node.type], len(node.parents)))
    parts.append(struct.pack(f"<{len(node.parents)}Q", *node.parents))
    parts.append(_U16.pack(len(node.attributes)))
    for attr in node.attributes:
        _pack_attr(parts, attr)
    return b"".join(parts)


def trace_to_binary(trace: Trace) -> bytes:
    nodes = sorted(trace.nodes, key=lambda n: n.id)
    version = _VERSION.pack(*parse_schema_version(trace.schema_version))
    out = [MAGIC, version, _NPU_COUNT.pack(trace.npu_id, len(nodes))]
    for node in nodes:
        record = _pack_node(node)
        out.append(_U32.pack(len(record)))
        out.append(record)
    return b"".join(out)


# Binary decode reads each node record once, each field at its offset in the
# one buffer, and nothing past the record's end. Texts and arrays are checked
# against that end; a fixed-width field that crosses it moves the offset past
# it, which the next check, or the record's last, sees. Those checks raise
# struct.error, as a read past the buffer does, and each record turns that
# into one DecodeError naming the node and the end of its record.


def _text(data: bytes, pos: int, stop: int, end: int) -> str:
    """The UTF-8 text ``data[pos:stop]`` of the node record that ends at ``end``."""
    if stop > end:
        raise struct.error
    try:
        return data[pos:stop].decode("utf-8")
    except UnicodeDecodeError:
        raise DecodeError("text is not valid UTF-8", offset=pos) from None


def _unpack_node(data: bytes, pos: int, end: int, interned: "dict[bytes, Attribute]") -> ETNode:
    (node_id,) = _U64.unpack_from(data, pos)  # the caller checked that the record holds it
    try:
        (length,) = _U16.unpack_from(data, pos + 8)
        pos += 10 + length
        name = _text(data, pos - length, pos, end)
        type_tag, count = _TAG_COUNT.unpack_from(data, pos)
        node_type = _TYPE_FROM_TAG.get(type_tag)
        if node_type is None:
            raise DecodeError(f"unknown node type tag {type_tag}", offset=pos)
        pos += 5
        stop = pos + 8 * count
        if stop > end:
            raise struct.error
        parents = struct.unpack_from(f"<{count}Q", data, pos)
        (attr_count,) = _U16.unpack_from(data, stop)
        pos = stop + 2
        attrs = []
        for _ in range(attr_count):
            start = pos
            (length,) = _U16.unpack_from(data, pos)
            pos += 2 + length
            kind_tag, doc_len = _TAG_COUNT.unpack_from(data, pos)
            pos += 5 + doc_len
            scalar = _SCALAR_VALUE.get(kind_tag)
            if scalar is not None:
                # An INT, FLOAT or STRING attribute decodes to the same frozen
                # Attribute wherever its bytes repeat, so each distinct one is
                # built once per trace, and shared once it decoded cleanly.
                (value,) = scalar.unpack_from(data, pos)
                stop = pos + scalar.size + (value if kind_tag == _STRING_TAG else 0)
                if stop > end:
                    raise struct.error
                key = data[start:stop]
                attr = interned.get(key)
                if attr is not None:
                    attrs.append(attr)
                    pos = stop
                    continue
            attr_name = _text(data, start + 2, start + 2 + length, end)
            kind = _KIND_FROM_TAG.get(kind_tag)
            if kind is None:
                raise DecodeError(f"unknown attribute kind tag {kind_tag}", offset=start + 2 + length)
            doc = _text(data, pos - doc_len, pos, end)
            if scalar is not None:
                if kind_tag == _STRING_TAG:
                    value = _text(data, pos + 4, stop, end)
                pos = stop
            else:
                (count,) = _U32.unpack_from(data, pos)
                pos += 4
                if kind is AttributeKind.STRINGS:
                    items = []
                    for _ in range(count):
                        (length,) = _U32.unpack_from(data, pos)
                        pos += 4 + length
                        items.append(_text(data, pos - length, pos, end))
                    value = tuple(items)
                else:
                    stop = pos + 8 * count
                    if stop > end:
                        raise struct.error
                    value = struct.unpack_from(f"<{count}{_ARRAY_CODES[kind]}", data, pos)
                    pos = stop
            attr = Attribute(attr_name, kind, value, doc)
            if scalar is not None:
                interned[key] = attr
            attrs.append(attr)
        if pos > end:
            raise struct.error
    except struct.error:
        raise DecodeError(f"node {node_id} record ends inside a field", offset=end) from None
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
    if len(data) < pos + 2:
        raise DecodeError("truncated while reading version", offset=pos)
    major, minor = _VERSION.unpack_from(data, pos)
    if major > 0:
        raise DecodeError(f"unsupported major version {major}", offset=pos)
    pos += 2
    if len(data) < pos + 8:
        raise DecodeError("truncated while reading npu_id and node count", offset=pos)
    npu_id, node_count = _NPU_COUNT.unpack_from(data, pos)
    pos += 8
    interned: dict[bytes, Attribute] = {}
    nodes = []
    for _ in range(node_count):
        if len(data) < pos + 4:
            raise DecodeError("truncated while reading node record length", offset=pos)
        (record_len,) = _U32.unpack_from(data, pos)
        pos += 4
        end = pos + record_len
        if end > len(data) or record_len < 8:  # a record holds at least its node id
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


def iter_workload(directory: "str | Path", prefix: str = "trace") -> Iterator[Trace]:
    """Each ``<prefix>.<npu_id>.et`` under ``directory``, ordered by npu_id, decoded as it is reached.

    The files are found at once: a directory without any raises FileNotFoundError before the first trace.
    """
    directory = Path(directory)
    found: list[tuple[int, Path]] = []
    for path in directory.glob(f"{prefix}.*{TRACE_FILE_SUFFIX}"):
        stem = path.name[len(prefix) + 1 : -len(TRACE_FILE_SUFFIX)]
        if stem.isascii() and stem.isdigit():  # isdigit alone takes "²" and "٣"
            found.append((int(stem), path))
    if not found:
        raise FileNotFoundError(f"no {prefix}.<npu_id>{TRACE_FILE_SUFFIX} files in {directory}")

    def read(npu_id: int, path: Path) -> Trace:
        trace = read_trace(path)
        if trace.npu_id != npu_id:
            raise DecodeError(f"{path}: filename says npu {npu_id} but trace says {trace.npu_id}")
        return trace

    return (read(npu_id, path) for npu_id, path in sorted(found))


def read_workload(directory: "str | Path", prefix: str = "trace") -> list[Trace]:
    """Every trace ``iter_workload`` yields, as a list."""
    return list(iter_workload(directory, prefix))
