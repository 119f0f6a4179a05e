"""DEX binary parsing and string-section classification.

Parses the 0x70-byte header, the six id tables, and every string_data item,
then partitions the string section into identifier strings (reachable from
type descriptors, prototype shorties, field/method names, and class
source-file names) and non-identifier strings — the only material string
encryption can touch.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

from .errors import BadMagic, DecodeError, OffsetOutOfBounds, StrictDecodeError, Truncated
from .mutf8 import decode_mutf8, utf16_length, utf16_sort_key

logger = logging.getLogger(__name__)

HEADER_SIZE = 0x70
ENDIAN_CONSTANT = 0x12345678
NO_INDEX = 0xFFFFFFFF

# (count offset, data offset, bytes per entry) positions inside the header
SECTION_LAYOUT = {
    "string_ids": (56, 60, 4),
    "type_ids": (64, 68, 4),
    "proto_ids": (72, 76, 12),
    "field_ids": (80, 84, 8),
    "method_ids": (88, 92, 8),
    "class_defs": (96, 100, 32),
}


@dataclass(frozen=True)
class SectionInfo:
    count: int
    offset: int


@dataclass(frozen=True)
class StringEntry:
    index: int
    data_offset: int
    text: str
    decode_ok: bool


@dataclass(frozen=True)
class DexFile:
    """Parsed structure of one DEX binary (immutable once built)."""

    version: int
    declared_file_size: int
    checksum: int
    section_table: dict[str, SectionInfo]
    strings: tuple[StringEntry, ...]
    # String indices referenced by each identifier-bearing table.
    type_descriptor_ids: tuple[int, ...]
    proto_shorty_ids: tuple[int, ...]
    field_name_ids: tuple[int, ...]
    method_name_ids: tuple[int, ...]
    source_file_ids: tuple[int, ...]

    @property
    def decode_failures(self) -> int:
        return sum(1 for e in self.strings if not e.decode_ok)


@dataclass(frozen=True)
class StringPool:
    entries: tuple[StringEntry, ...]
    identifier_indices: frozenset[int]
    non_identifier_indices: frozenset[int]

    def non_identifier_strings(self) -> list[str]:
        """Decoded non-identifier strings in string-table order."""
        return [
            e.text
            for e in self.entries
            if e.index in self.non_identifier_indices and e.decode_ok
        ]


def parse_dex(data: bytes, strict: bool = False) -> DexFile:
    """Parse a DEX binary.

    Entries whose string data fails MUTF-8 decoding are marked
    decode_ok=False instead of aborting the file; with strict=True any such
    entry raises StrictDecodeError instead (mirrors dropping undecodable
    samples from a corpus).
    """
    if len(data) < 8 or data[:4] != b"dex\n" or data[7] != 0x00 \
            or not data[4:7].isdigit():
        raise BadMagic("first 8 bytes are not a dex magic")
    if len(data) < HEADER_SIZE:
        raise Truncated(f"buffer of {len(data)} bytes is smaller than a dex header")

    version = int(data[4:7])
    checksum = _u4(data, 8)
    file_size = _u4(data, 32)
    if file_size > len(data):
        raise Truncated(f"declared size {file_size} exceeds buffer of {len(data)} bytes")
    if file_size != len(data):
        raise Truncated(f"declared size {file_size} disagrees with buffer of {len(data)} bytes")
    endian_tag = _u4(data, 40)
    if endian_tag != ENDIAN_CONSTANT:
        raise BadMagic(f"unsupported endian tag 0x{endian_tag:08x}")

    sections: dict[str, SectionInfo] = {}
    for name, (count_pos, off_pos, entry_size) in SECTION_LAYOUT.items():
        count = _u4(data, count_pos)
        offset = _u4(data, off_pos)
        if count > 0 and offset + count * entry_size > len(data):
            raise OffsetOutOfBounds(f"{name} table ({count} entries at 0x{offset:x}) exceeds buffer")
        sections[name] = SectionInfo(count=count, offset=offset)

    entries = _read_strings(data, sections["string_ids"])
    if strict:
        failures = sum(1 for e in entries if not e.decode_ok)
        if failures:
            raise StrictDecodeError(f"{failures} string entries failed to decode")
    _warn_if_unsorted(entries)

    n_strings = len(entries)
    type_ids = _read_index_table(data, sections["type_ids"], n_strings, "type_ids")
    shorty_ids = _read_proto_ids(data, sections["proto_ids"], n_strings, len(type_ids))
    field_name_ids = _read_member_ids(data, sections["field_ids"], n_strings, len(type_ids), "field_ids")
    method_name_ids = _read_member_ids(data, sections["method_ids"], n_strings, len(type_ids), "method_ids")
    source_file_ids = _read_class_defs(data, sections["class_defs"], n_strings, len(type_ids))

    return DexFile(
        version=version,
        declared_file_size=file_size,
        checksum=checksum,
        section_table=sections,
        strings=tuple(entries),
        type_descriptor_ids=type_ids,
        proto_shorty_ids=shorty_ids,
        field_name_ids=field_name_ids,
        method_name_ids=method_name_ids,
        source_file_ids=source_file_ids,
    )


def classify_strings(dex: DexFile) -> StringPool:
    """Partition the string section into identifier and non-identifier indices."""
    identifiers: set[int] = set()
    identifiers.update(dex.type_descriptor_ids)
    identifiers.update(dex.proto_shorty_ids)
    identifiers.update(dex.field_name_ids)
    identifiers.update(dex.method_name_ids)
    identifiers.update(dex.source_file_ids)
    everything = frozenset(range(len(dex.strings)))
    identifier_indices = frozenset(identifiers)
    return StringPool(
        entries=dex.strings,
        identifier_indices=identifier_indices,
        non_identifier_indices=everything - identifier_indices,
    )


def _u4(data: bytes, offset: int) -> int:
    return struct.unpack_from("<I", data, offset)[0]


def _table(data: bytes, section: SectionInfo, words: int = 1) -> tuple[int, ...]:
    """Every u4 word of an id table of `words` words per entry, in one read.

    A table with no entries may carry any offset and is never read.
    """
    if section.count == 0:
        return ()
    return struct.unpack_from(f"<{section.count * words}I", data, section.offset)


def _read_strings(data: bytes, section: SectionInfo) -> list[StringEntry]:
    entries: list[StringEntry] = []
    for i, data_off in enumerate(_table(data, section)):
        if data_off >= len(data):
            raise OffsetOutOfBounds(f"string_data offset 0x{data_off:x} of entry {i} exceeds buffer")
        entries.append(_read_string_entry(data, i, data_off))
    return entries


def _read_string_entry(data: bytes, index: int, data_off: int) -> StringEntry:
    text = None
    try:
        declared_len, pos = _read_uleb128(data, data_off)
        terminator = data.find(b"\x00", pos)
        if terminator != -1:
            text = decode_mutf8(data[pos:terminator])
    except DecodeError:
        pass
    if text is None or utf16_length(text) != declared_len:
        return StringEntry(index=index, data_offset=data_off, text="", decode_ok=False)
    return StringEntry(index=index, data_offset=data_off, text=text, decode_ok=True)


def _read_uleb128(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a ULEB128 value; returns (value, offset past the encoding)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data) or shift > 28:
            raise DecodeError("unterminated or oversized ULEB128")
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        pos += 1
        if not byte & 0x80:
            return result, pos
        shift += 7


def _warn_if_unsorted(entries: list[StringEntry]) -> None:
    # The format requires a sorted string table; obfuscated files in the wild
    # violate this, so it is a warning rather than an error. ASCII strings
    # compare in code-unit order as they are.
    decoded = [e.text for e in entries if e.decode_ok]
    keys = decoded if all(map(str.isascii, decoded)) else [utf16_sort_key(t) for t in decoded]
    if keys != sorted(keys):
        logger.warning("string table is not sorted by UTF-16 code units")


def _read_index_table(data: bytes, section: SectionInfo, n_strings: int, name: str) -> tuple[int, ...]:
    ids = _table(data, section)
    for i, idx in enumerate(ids):
        if idx >= n_strings:
            raise OffsetOutOfBounds(f"{name}[{i}] references string {idx} of {n_strings}")
    return ids


def _read_proto_ids(
    data: bytes, section: SectionInfo, n_strings: int, n_types: int
) -> tuple[int, ...]:
    # Return types reference type_ids, whose descriptors are already counted
    # as identifiers; only the shorty string index is collected here.
    fields = _table(data, section, 3)
    shorties = fields[0::3]
    for i, (shorty_idx, return_type_idx) in enumerate(zip(shorties, fields[1::3])):
        if shorty_idx >= n_strings:
            raise OffsetOutOfBounds(f"proto_ids[{i}] shorty references string {shorty_idx} of {n_strings}")
        if return_type_idx >= n_types:
            raise OffsetOutOfBounds(f"proto_ids[{i}] return type {return_type_idx} of {n_types}")
    return shorties


def _read_member_ids(
    data: bytes, section: SectionInfo, n_strings: int, n_types: int, name: str
) -> tuple[int, ...]:
    # field_id_item and method_id_item share the shape (u2 class, u2 x, u4
    # name); the class index is the low half of the first little-endian word.
    fields = _table(data, section, 2)
    names = fields[1::2]
    for i, (word, name_idx) in enumerate(zip(fields[0::2], names)):
        class_idx = word & 0xFFFF
        if class_idx >= n_types:
            raise OffsetOutOfBounds(f"{name}[{i}] references type {class_idx} of {n_types}")
        if name_idx >= n_strings:
            raise OffsetOutOfBounds(f"{name}[{i}] references string {name_idx} of {n_strings}")
    return names


def _read_class_defs(
    data: bytes, section: SectionInfo, n_strings: int, n_types: int
) -> tuple[int, ...]:
    fields = _table(data, section, 8)
    source_files = []
    for i, (class_idx, source_file_idx) in enumerate(zip(fields[0::8], fields[4::8])):
        if class_idx >= n_types:
            raise OffsetOutOfBounds(f"class_defs[{i}] references type {class_idx} of {n_types}")
        if source_file_idx != NO_INDEX:
            if source_file_idx >= n_strings:
                raise OffsetOutOfBounds(
                    f"class_defs[{i}] source file references string {source_file_idx} of {n_strings}"
                )
            source_files.append(source_file_idx)
    return tuple(source_files)
