"""Length-prefixed binary packing shared by signed blobs, files, and frames.

Every structured byte string in this package is a flat sequence of
fields, each prefixed with a 4-byte big-endian length. Parsing is strict:
trailing bytes and truncated prefixes are errors, never ignored.
"""

from __future__ import annotations


class EncodingError(ValueError):
    """Canonical bytes or a structured file could not be parsed."""


def pack_u32(n: int) -> bytes:
    if n < 0 or n > 0xFFFFFFFF:
        raise EncodingError(f"value out of u32 range: {n}")
    return n.to_bytes(4, "big")


def unpack_u32(data: bytes) -> int:
    if len(data) != 4:
        raise EncodingError(f"expected 4 bytes for u32, got {len(data)}")
    return int.from_bytes(data, "big")


def untag(field: bytes, tag: bytes) -> bytes | None:
    """The body of an optional field, None when empty; a present one must start with ``tag``."""
    if not field:
        return None
    if field[:1] != tag:
        raise EncodingError(f"field tag {field[:1]!r}, expected {tag!r}")
    return field[1:]


def decode_text(field: bytes, encoding: str = "ascii") -> str:
    """Decode a text field of parsed bytes; undecodable input is an EncodingError."""
    try:
        return field.decode(encoding)
    except UnicodeDecodeError as exc:
        raise EncodingError(f"undecodable text field: {exc}") from exc


def pack_fields(*fields: bytes) -> bytes:
    """Concatenate fields, each prefixed with its 4-byte length."""
    parts = []
    for field in fields:
        if not isinstance(field, (bytes, bytearray)):
            raise TypeError(f"field must be bytes, got {type(field).__name__}")
        parts.append(pack_u32(len(field)))
        parts.append(bytes(field))
    return b"".join(parts)


def unpack_fields(data: bytes, count: int | None = None) -> list[bytes]:
    """Split a pack_fields() blob back into its fields.

    Rejects truncated prefixes and trailing garbage; when ``count`` is
    given, also rejects a field count mismatch.
    """
    fields: list[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + 4 > total:
            raise EncodingError(f"truncated length prefix at offset {offset}")
        length = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        if offset + length > total:
            raise EncodingError(f"field of length {length} overruns input at offset {offset}")
        fields.append(data[offset : offset + length])
        offset += length
    if count is not None and len(fields) != count:
        raise EncodingError(f"expected {count} fields, got {len(fields)}")
    return fields
