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
import re
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


# The positions of HEADER's fields that parse_dex reads: the checksum, the
# file size, the endian tag, and the first id table's count, each table's
# offset following its count.
_CHECKSUM, _FILE_SIZE, _ENDIAN_TAG, _FIRST_COUNT = 1, 3, 5, 9
# Per id table in header order: (name, position of its count, bytes per entry).
_SECTION_ROWS = tuple((name, _FIRST_COUNT + 2 * i, 4 * words)
                      for i, (name, words) in enumerate(SECTION_LAYOUT.items()))
# Per table that names identifiers, in header order: (name, position of its
# count, words per entry, string word, type word, type mask, optional).
_IDENTIFIER_ROWS = tuple((name, field, SECTION_LAYOUT[name], *IDENTIFIER_REFERENCES[name])
                         for name, field, _ in _SECTION_ROWS if name in IDENTIFIER_REFERENCES)
_STRING_IDS_COUNT = _SECTION_ROWS[0][1]
_TYPE_IDS_COUNT = _SECTION_ROWS[1][1]


def parse_dex(data: bytes) -> DexFile:
    """Parse a DEX binary.

    An entry whose string data fails MUTF-8 decoding is held as None, and
    counted in decode_failures, instead of aborting the file.
    """
    size = len(data)
    if size < 8 or data[:4] != b"dex\n" or data[7] != 0x00 \
            or not data[4:7].isdigit():
        raise BadMagic("first 8 bytes are not a dex magic")
    if size < HEADER.size:
        raise Truncated(f"buffer of {size} bytes is smaller than a dex header")

    header = HEADER.unpack_from(data)
    if header[_FILE_SIZE] != size:
        raise Truncated(f"declared size {header[_FILE_SIZE]} disagrees with buffer of {size} bytes")
    if header[_ENDIAN_TAG] != ENDIAN_CONSTANT:
        raise BadMagic(f"unsupported endian tag 0x{header[_ENDIAN_TAG]:08x}")

    # Named tuples are built with tuple.__new__ directly: calling the class
    # would run its Python-level __new__.
    sections: dict[str, SectionInfo] = {}
    for name, field, entry_size in _SECTION_ROWS:
        count = header[field]
        offset = header[field + 1]
        if count and offset + count * entry_size > size:
            raise OffsetOutOfBounds(f"{name} table ({count} entries at 0x{offset:x}) exceeds buffer")
        sections[name] = tuple.__new__(SectionInfo, (count, offset))

    texts = _read_strings(data, header[_STRING_IDS_COUNT], header[_STRING_IDS_COUNT + 1])
    decode_failures = texts.count(None)
    _warn_if_unsorted([text for text in texts if text is not None] if decode_failures else texts)

    # Each table is read in one unpack, and its indices are checked one by
    # one only when the largest is out of range. A type mask can only lower
    # a value, so it is applied only when the unmasked largest is.
    n_strings = len(texts)
    n_types = header[_TYPE_IDS_COUNT]
    identifier_ids = set()
    for name, field, words, string_word, type_word, type_mask, optional in _IDENTIFIER_ROWS:
        count = header[field]
        if not count:
            continue
        table = _u4_table(count * words).unpack_from(data, header[field + 1])
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

    return tuple.__new__(DexFile, (int(data[4:7]), size, header[_CHECKSUM], sections, texts,
                                   decode_failures, frozenset(identifier_ids)))


def classify_strings(dex: DexFile) -> list[str]:
    """The decoded non-identifier strings, in string-table order."""
    ids = dex.identifier_ids
    return [text for i, text in enumerate(dex.strings) if text is not None and i not in ids]


def _check_range(name: str, indices, n: int, what: str, allowed: int | None = None) -> None:
    """Raise OffsetOutOfBounds for the first index of n or more, other than allowed."""
    for i, idx in enumerate(indices):
        if idx >= n and idx != allowed:
            raise OffsetOutOfBounds(f"{name}[{i}] references {what} {idx} of {n}")


# The bytes that may start an encoded NUL (0xC0), a surrogate (0xED) or a
# 4-byte sequence (0xF0 and up): a payload without them is plain UTF-8.
_NOT_PLAIN_UTF8 = re.compile(rb"[\xc0\xed\xf0-\xff]")


@lru_cache(maxsize=256)
def _u4_table(n: int) -> struct.Struct:
    """The Struct of n little-endian u4 words."""
    return struct.Struct(f"<{n}I")


def _read_strings(data: bytes, count: int, offset: int) -> tuple[str | None, ...]:
    """The text of the string_data item of each of the count string_ids
    entries at offset, in table order, None where it fails to decode.

    A 1- or 2-byte ULEB128 length, the common case, is decoded inline and
    any longer one by _read_uleb128. The payload, which ends before the
    first NUL, then takes one of three routes:
    - ASCII bytes decode to one UTF-16 code unit per byte, and ASCII holds
      no C0 80 pair;
    - other bytes with no 0xC0, no 0xED and none of 0xF0 and up hold no
      encoded NUL, no surrogate and no 4-byte sequence, so one strict UTF-8
      decode gives decode_mutf8's text, all in the BMP, whose length is
      its UTF-16 length;
    - every other payload goes through decode_mutf8 and utf16_length.
    """
    # A table with no entries may carry any offset and is never read.
    if not count:
        return ()
    size = len(data)
    offsets = _u4_table(count).unpack_from(data, offset)
    if max(offsets) >= size:
        i = next(i for i, data_off in enumerate(offsets) if data_off >= size)
        raise OffsetOutOfBounds(f"string_data offset 0x{offsets[i]:x} of entry {i} exceeds buffer")
    decode = decode_mutf8
    not_plain = _NOT_PLAIN_UTF8.search
    find = data.find
    texts: list[str | None] = []
    append = texts.append
    for data_off in offsets:
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
            if raw.isascii() or not not_plain(raw):
                try:
                    text = raw.decode()
                except UnicodeDecodeError:
                    pass
                if text is not None and declared_len != len(text):
                    text = None
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
