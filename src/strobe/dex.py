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
from operator import gt
from typing import NamedTuple

from .errors import BadMagic, DecodeError, OffsetOutOfBounds, Truncated
from .mutf8 import decode_mutf8, utf16_length, utf16_sort_key

logger = logging.getLogger(__name__)

HEADER_SIZE = 0x70
ENDIAN_CONSTANT = 0x12345678
NO_INDEX = 0xFFFFFFFF

# (count position inside the header, bytes per entry); each count is
# followed by its table's offset, so the two are read as one pair.
SECTION_LAYOUT = {
    "string_ids": (56, 4),
    "type_ids": (64, 4),
    "proto_ids": (72, 12),
    "field_ids": (80, 8),
    "method_ids": (88, 8),
    "class_defs": (96, 32),
}


class SectionInfo(NamedTuple):
    count: int
    offset: int


class StringEntry(NamedTuple):
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
    decode_failures: int  # entries with decode_ok False
    # String indices of type descriptors, proto shorties, field and method names, source files.
    identifier_ids: frozenset[int]


@dataclass(frozen=True)
class StringPool:
    entries: tuple[StringEntry, ...]
    identifier_indices: frozenset[int]
    non_identifier_indices: frozenset[int]

    def non_identifier_strings(self) -> list[str]:
        """Decoded non-identifier strings in string-table order."""
        entries = self.entries
        return [entries[i].text for i in sorted(self.non_identifier_indices)
                if entries[i].decode_ok]


def parse_dex(data: bytes) -> DexFile:
    """Parse a DEX binary.

    Entries whose string data fails MUTF-8 decoding are marked
    decode_ok=False, and counted in decode_failures, instead of aborting
    the file.
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
    for name, (count_pos, entry_size) in SECTION_LAYOUT.items():
        count, offset = _read_pair(data, count_pos)
        if count > 0 and offset + count * entry_size > len(data):
            raise OffsetOutOfBounds(f"{name} table ({count} entries at 0x{offset:x}) exceeds buffer")
        sections[name] = SectionInfo(count, offset)

    entries, failures = _read_strings(data, sections["string_ids"])
    _warn_if_unsorted(entries)

    n_strings = len(entries)
    type_ids = _read_index_table(data, sections["type_ids"], n_strings, "type_ids")
    identifier_ids = frozenset().union(
        type_ids,
        _read_proto_ids(data, sections["proto_ids"], n_strings, len(type_ids)),
        _read_member_ids(data, sections["field_ids"], n_strings, len(type_ids), "field_ids"),
        _read_member_ids(data, sections["method_ids"], n_strings, len(type_ids), "method_ids"),
        _read_class_defs(data, sections["class_defs"], n_strings, len(type_ids)),
    )

    return DexFile(
        version=version,
        declared_file_size=file_size,
        checksum=checksum,
        section_table=sections,
        strings=tuple(entries),
        decode_failures=failures,
        identifier_ids=identifier_ids,
    )


def classify_strings(dex: DexFile) -> StringPool:
    """Partition the string section into identifier and non-identifier indices."""
    return StringPool(
        entries=dex.strings,
        identifier_indices=dex.identifier_ids,
        non_identifier_indices=frozenset(range(len(dex.strings))) - dex.identifier_ids,
    )


def _u4(data: bytes, offset: int) -> int:
    return struct.unpack_from("<I", data, offset)[0]


_read_pair = struct.Struct("<2I").unpack_from


def _table(data: bytes, section: SectionInfo, words: int = 1) -> tuple[int, ...]:
    """Every u4 word of an id table of `words` words per entry, in one read.

    A table with no entries may carry any offset and is never read.
    """
    if section.count == 0:
        return ()
    return struct.unpack_from(f"<{section.count * words}I", data, section.offset)


def _read_strings(data: bytes, section: SectionInfo) -> tuple[list[StringEntry], int]:
    """Every string_data item in string_ids order, and how many failed to decode.

    A 1- or 2-byte ULEB128 length, the common case, is decoded inline and
    any longer one by _read_uleb128. A payload of ASCII bytes is decoded as
    ASCII, to one UTF-16 code unit per byte: decode_mutf8 would return the
    same text, since the payload ends before the first NUL and ASCII holds
    no C0 80 pair. Only other payloads go through decode_mutf8 and
    utf16_length.
    """
    decode = decode_mutf8
    find = data.find
    # Builds a StringEntry from a tuple of its fields in C, as
    # StringEntry._make does, without the Python-level constructor.
    new = tuple.__new__
    size = len(data)
    entries: list[StringEntry] = []
    append = entries.append
    failures = 0
    for i, data_off in enumerate(_table(data, section)):
        if data_off >= size:
            raise OffsetOutOfBounds(f"string_data offset 0x{data_off:x} of entry {i} exceeds buffer")
        declared_len = data[data_off]
        pos = data_off + 1
        if declared_len & 0x80:
            if pos < size and data[pos] < 0x80:
                declared_len = declared_len & 0x7F | data[pos] << 7
                pos += 1
            else:
                try:
                    declared_len, pos = _read_uleb128(data, data_off)
                except DecodeError:
                    failures += 1
                    append(new(StringEntry, (i, data_off, "", False)))
                    continue
        text = None
        terminator = find(b"\x00", pos)
        if terminator != -1:
            raw = data[pos:terminator]
            if raw.isascii():
                if declared_len == len(raw):
                    text = raw.decode("ascii")
            else:
                try:
                    text = decode(raw)
                except DecodeError:
                    pass
                if text is not None and declared_len != utf16_length(text):
                    text = None
        if text is not None:
            append(new(StringEntry, (i, data_off, text, True)))
        else:
            failures += 1
            append(new(StringEntry, (i, data_off, "", False)))
    return entries, failures


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
    # violate this, so it is a warning rather than an error. Each decoded
    # string is compared with the next. Strings compare in code-unit order as
    # they are unless the table holds a supplementary character (a surrogate
    # pair in UTF-16), which code-point order puts after U+E000-U+FFFF. One
    # UTF-16 encode of the joined table finds one faster than max() over it.
    keys = [e.text for e in entries if e.decode_ok]
    joined = "".join(keys)
    if utf16_length(joined) != len(joined):
        keys = list(map(utf16_sort_key, keys))
    if any(map(gt, keys, keys[1:])):
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
