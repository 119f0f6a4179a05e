"""DEX binary parsing and string-section classification.

Parses the 0x70-byte header, the six id tables, and every string_data item,
then partitions the string section into identifier strings (reachable from
type descriptors, prototype shorties, field/method names, and class
source-file names) and non-identifier strings — the only material string
encryption can touch. The string table is held as plain texts, one per
string_ids entry, with None for an entry that fails to decode.
"""

from __future__ import annotations

import logging
import struct
from functools import lru_cache
from operator import gt
from typing import NamedTuple

from .errors import BadMagic, DecodeError, OffsetOutOfBounds, Truncated
from .mutf8 import decode_mutf8, utf16_length, utf16_sort_key

logger = logging.getLogger(__name__)

ENDIAN_CONSTANT = 0x12345678
NO_INDEX = 0xFFFFFFFF

# header_item: magic, checksum, SHA-1 signature, then file size, header
# size, endian tag, link size and offset, map offset, the (count, offset)
# pair of each id table in SECTION_LAYOUT order, and data size and offset.
HEADER = struct.Struct("<8sI20s20I")
# The signature covers every byte from here on; the checksum covers the
# signature and those bytes.
SIGNED_FROM = struct.calcsize("<8sI20s")

# The u4 words per entry of each id table, in header order.
SECTION_LAYOUT = {
    "string_ids": 1,
    "type_ids": 1,
    "proto_ids": 3,
    "field_ids": 2,
    "method_ids": 2,
    "class_defs": 8,
}


class References(NamedTuple):
    string: int  # the word of an entry that names an identifier string
    type: int | None = None  # the word that names a type
    type_mask: int = 0xFFFFFFFF  # the bits of the type word that hold the type
    optional: bool = False  # the string word may be NO_INDEX, for no string


# Type descriptors, proto shorties, field and method names, and class source
# files are identifiers. Field and method ids hold their u2 class in the low
# half of word 0.
IDENTIFIER_REFERENCES = {
    "type_ids": References(string=0),
    "proto_ids": References(string=0, type=1),
    "field_ids": References(string=1, type=0, type_mask=0xFFFF),
    "method_ids": References(string=1, type=0, type_mask=0xFFFF),
    "class_defs": References(string=4, type=0, optional=True),
}


class SectionInfo(NamedTuple):
    count: int
    offset: int


class DexFile(NamedTuple):
    """Parsed structure of one DEX binary: a named tuple, so immutable once built."""

    version: int
    declared_file_size: int
    checksum: int
    section_table: dict[str, SectionInfo]
    # One text per string_ids entry, None where its string data failed to decode.
    strings: tuple[str | None, ...]
    decode_failures: int  # the None entries of strings
    # String indices of type descriptors, proto shorties, field and method names, source files.
    identifier_ids: frozenset[int]


def parse_dex(data: bytes) -> DexFile:
    """Parse a DEX binary.

    An entry whose string data fails MUTF-8 decoding is held as None, and
    counted in decode_failures, instead of aborting the file.
    """
    if len(data) < 8 or data[:4] != b"dex\n" or data[7] != 0x00 \
            or not data[4:7].isdigit():
        raise BadMagic("first 8 bytes are not a dex magic")
    if len(data) < HEADER.size:
        raise Truncated(f"buffer of {len(data)} bytes is smaller than a dex header")

    _, checksum, _, file_size, _, endian_tag, _, _, _, *pairs, _, _ = HEADER.unpack_from(data)
    if file_size != len(data):
        raise Truncated(f"declared size {file_size} disagrees with buffer of {len(data)} bytes")
    if endian_tag != ENDIAN_CONSTANT:
        raise BadMagic(f"unsupported endian tag 0x{endian_tag:08x}")

    # Sections are built as tuples directly: SectionInfo(...) would run its
    # Python-level __new__ once per table.
    sections: dict[str, SectionInfo] = {}
    for (name, words), count, offset in zip(SECTION_LAYOUT.items(), pairs[0::2], pairs[1::2]):
        if count > 0 and offset + count * 4 * words > len(data):
            raise OffsetOutOfBounds(f"{name} table ({count} entries at 0x{offset:x}) exceeds buffer")
        sections[name] = tuple.__new__(SectionInfo, (count, offset))

    texts = _read_strings(data, sections["string_ids"])
    decode_failures = texts.count(None)
    _warn_if_unsorted([text for text in texts if text is not None] if decode_failures else texts)

    # Each table is read in one unpack, and its indices are checked one by
    # one only when the largest is out of range. A type mask can only lower
    # a value, so it is applied only when the unmasked largest is.
    n_strings = len(texts)
    n_types = sections["type_ids"].count
    identifier_ids = set()
    for name, (string_word, type_word, type_mask, optional) in IDENTIFIER_REFERENCES.items():
        count, offset = sections[name]
        if not count:
            continue
        words = SECTION_LAYOUT[name]
        table = _u4_table(count * words).unpack_from(data, offset)
        if type_word is not None:
            types = table[type_word::words]
            if max(types) >= n_types and max(map(type_mask.__and__, types)) >= n_types:
                _check_range(name, [t & type_mask for t in types], n_types, "type")
        strings = table[string_word::words]
        if max(strings) >= n_strings:
            _check_range(name, strings, n_strings, "string", NO_INDEX if optional else None)
            # Only an optional reference's NO_INDEX gets past the check.
            strings = [s for s in strings if s != NO_INDEX]
        identifier_ids.update(strings)

    return DexFile(int(data[4:7]), file_size, checksum, sections, texts, decode_failures,
                   frozenset(identifier_ids))


def classify_strings(dex: DexFile) -> list[str]:
    """The decoded non-identifier strings, in string-table order."""
    ids = dex.identifier_ids
    return [text for i, text in enumerate(dex.strings) if text is not None and i not in ids]


def _check_range(name: str, indices, n: int, what: str, allowed: int | None = None) -> None:
    """Raise OffsetOutOfBounds for the first index of n or more, other than allowed."""
    for i, idx in enumerate(indices):
        if idx >= n and idx != allowed:
            raise OffsetOutOfBounds(f"{name}[{i}] references {what} {idx} of {n}")


@lru_cache(maxsize=256)
def _u4_table(n: int) -> struct.Struct:
    """The Struct of n little-endian u4 words."""
    return struct.Struct(f"<{n}I")


def _read_strings(data: bytes, section: SectionInfo) -> tuple[str | None, ...]:
    """The text of every string_data item in string_ids order, None where it
    fails to decode.

    A 1- or 2-byte ULEB128 length, the common case, is decoded inline and
    any longer one by _read_uleb128. A payload of ASCII bytes is decoded as
    ASCII, to one UTF-16 code unit per byte: decode_mutf8 would return the
    same text, since the payload ends before the first NUL and ASCII holds
    no C0 80 pair. Only other payloads go through decode_mutf8 and
    utf16_length.
    """
    decode = decode_mutf8
    find = data.find
    size = len(data)
    texts: list[str | None] = []
    append = texts.append
    # A table with no entries may carry any offset and is never read.
    offsets = _u4_table(section.count).unpack_from(data, section.offset) if section.count else ()
    for i, data_off in enumerate(offsets):
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
                    append(None)
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
        append(text)
    return tuple(texts)


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


def _warn_if_unsorted(keys: tuple[str, ...] | list[str]) -> None:
    # The format requires a sorted string table; obfuscated files in the wild
    # violate this, so it is a warning rather than an error. keys are the
    # decoded strings in table order, and each is compared with the next.
    # Strings compare in code-unit order as they are unless the table holds a
    # supplementary character (a surrogate pair in UTF-16), which code-point
    # order puts after U+E000-U+FFFF. An ASCII table holds none; otherwise one
    # UTF-16 encode of the joined table finds one faster than max() over it.
    joined = "".join(keys)
    if not joined.isascii() and utf16_length(joined) != len(joined):
        keys = list(map(utf16_sort_key, keys))
    if any(map(gt, keys, keys[1:])):
        logger.warning("string table is not sorted by UTF-16 code units")
