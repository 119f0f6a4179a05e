"""APK (ZIP) container handling and per-app string aggregation.

Reads only entries listed in the central directory, pulls out every entry
named exactly classes.dex or classesN.dex in numeric order, and concatenates their non-identifier
strings without cross-dex deduplication.

The container is read and written through the three record layouts below,
the subset of the ZIP format that APKs use: one disk, no ZIP64 records, and
entries that are stored or raw-deflated, unencrypted.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from .dex import classify_strings, parse_dex
from .errors import CorruptEntry, NoDex, NotAZip

# Signature, version needed, flags, method, DOS time, DOS date, CRC-32,
# compressed size, size, name length, extra length.
LOCAL_HEADER = struct.Struct("<4s5H3L2H")
LOCAL_MAGIC = b"PK\x03\x04"
# Signature, version made by, version needed, flags, method, DOS time, DOS
# date, CRC-32, compressed size, size, name, extra and comment lengths, first
# disk, internal attributes, external attributes, local header offset.
CENTRAL_HEADER = struct.Struct("<4s6H3L5H2L")
CENTRAL_MAGIC = b"PK\x01\x02"
# Signature, disk, central directory's disk, entries on this disk, entries,
# central directory size, central directory offset, comment length.
END_RECORD = struct.Struct("<4s4H2LH")
END_MAGIC = b"PK\x05\x06"
ZIP64_LOCATOR_MAGIC = b"PK\x06\x07"

STORED = 0
DEFLATED = 8
FLAG_UTF8_NAME = 0x800
# Encrypted (bit 0), compressed patched data (bit 5), strong encryption (bit 6).
_UNREADABLE_FLAGS = 0x61

# Matched with fullmatch: "$" would also match before a trailing newline, and
# Android loads no entry named "classes.dex\n".
_DEX_NAME = re.compile(rb"classes([0-9]+)?\.dex")


@dataclass(frozen=True)
class AppStrings:
    """Everything the feature extractor needs to know about one app."""

    app_id: str
    non_identifier_strings: tuple[str, ...]
    dex_count: int
    decode_failures: int


def list_dex_entries(archive: bytes) -> list[tuple[str, bytes]]:
    """Return (name, payload) for every classes*.dex entry, numerically ordered.

    A missing or garbled end record or central directory, or a ZIP64 end
    record, raises NotAZip. A dex entry whose local header disagrees with
    the central directory, that is encrypted, compressed other than stored or
    deflated, truncated, of the wrong size or CRC-32, or whose name repeats,
    raises CorruptEntry. No classes*.dex entry raises NoDex.
    """
    matched = []
    for entry in _central_directory(archive):
        # Names are cut at their first NUL. A dex name is ASCII, which UTF-8
        # and code page 437 both decode byte for byte, so it is matched, and
        # decoded, as bytes.
        name = entry[0].partition(b"\x00")[0]
        m = _DEX_NAME.fullmatch(name)
        if m:
            matched.append((int(m.group(1)) if m.group(1) else 1, name.decode("ascii"), entry))
    if not matched:
        raise NoDex("archive contains no classes*.dex entry")
    matched.sort(key=lambda dex: dex[:2])
    out = []
    for _, name, entry in matched:
        if out and out[-1][0] == name:
            raise CorruptEntry(f"{name}: repeated entry name")
        out.append((name, _read_entry(archive, name, *entry)))
    return out


def _decode_name(raw: bytes, flags: int) -> str:
    # UTF-8 when the entry says so, else code page 437, the ZIP default.
    return raw.decode("utf-8") if flags & FLAG_UTF8_NAME else raw.decode("cp437")


def _central_directory(archive: bytes) -> list[tuple]:
    """Each entry as (name as stored, flags, method, CRC-32, compressed size,
    size, local header offset), the offset shifted by any bytes prepended to
    the archive."""
    size = len(archive)
    end = size - END_RECORD.size
    # The record sits last unless the archive has a comment, of at most
    # 65,535 bytes, after it; then it is the last one in the last 22 + 65,536.
    if end < 0 or not (archive.startswith(END_MAGIC, end) and archive.endswith(b"\x00\x00")):
        end = archive.rfind(END_MAGIC, max(end - (1 << 16), 0))
        if end < 0 or end + END_RECORD.size > size:
            raise NotAZip("no end of central directory record")
    if end >= 20 and archive.startswith(ZIP64_LOCATOR_MAGIC, end - 20):
        raise NotAZip("ZIP64 archives are not read")
    *_, cd_size, cd_offset, _ = END_RECORD.unpack_from(archive, end)
    start = end - cd_size
    if start < 0:
        raise NotAZip("central directory extends before the archive")
    shift = start - cd_offset
    directory = archive[start:end]
    entries = []
    pos = 0
    while pos < cd_size:
        if pos + CENTRAL_HEADER.size > cd_size:
            raise NotAZip("truncated central directory")
        (magic, _, version, flags, method, _, _, crc, csize, usize, name_len, extra_len,
         comment_len, _, _, _, offset) = CENTRAL_HEADER.unpack_from(directory, pos)
        if magic != CENTRAL_MAGIC:
            raise NotAZip("bad central directory signature")
        pos += CENTRAL_HEADER.size
        raw_name = directory[pos:pos + name_len]
        if flags & FLAG_UTF8_NAME:
            try:
                raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise NotAZip(f"entry name: {exc}") from None
        # The high byte of the version needed is unused; 6.3 is the latest.
        if version & 0xFF > 63:
            raise NotAZip(f"entry needs ZIP version {(version & 0xFF) / 10:.1f}")
        entries.append((raw_name, flags, method, crc, csize, usize, offset + shift))
        pos += name_len + extra_len + comment_len
    return entries


def _read_entry(archive: bytes, name: str, raw_name: bytes, flags: int, method: int,
                crc: int, csize: int, usize: int, offset: int) -> bytes:
    """The payload of one entry, checked against its central directory fields."""
    if offset < 0 or offset + LOCAL_HEADER.size > len(archive):
        raise CorruptEntry(f"{name}: local header outside the archive")
    magic, _, local_flags, *_, name_len, extra_len = LOCAL_HEADER.unpack_from(archive, offset)
    if magic != LOCAL_MAGIC:
        raise CorruptEntry(f"{name}: bad local header signature")
    start = offset + LOCAL_HEADER.size
    local_name = archive[start:start + name_len]
    # Names are compared decoded, each by its own header's flags; the same
    # bytes under the same flags need no decoding.
    if local_name != raw_name or (local_flags ^ flags) & FLAG_UTF8_NAME:
        try:
            same = _decode_name(local_name, local_flags) == _decode_name(raw_name, flags)
        except UnicodeDecodeError:
            same = False
        if not same:
            raise CorruptEntry(f"{name}: local header names {local_name!r}")
    if flags & _UNREADABLE_FLAGS:
        raise CorruptEntry(f"{name}: encrypted or patched entry")
    start += name_len + extra_len
    raw = archive[start:start + csize]
    if len(raw) != csize:
        raise CorruptEntry(f"{name}: truncated entry")
    if method == STORED:
        payload = raw
    elif method == DEFLATED:
        try:
            payload = zlib.decompressobj(-15).decompress(raw, usize + 1)
        except zlib.error as exc:
            raise CorruptEntry(f"{name}: {exc}") from None
    else:
        raise CorruptEntry(f"{name}: compression method {method} is not read")
    if len(payload) != usize:
        raise CorruptEntry(f"{name}: {len(payload)} bytes where {usize} are declared")
    if zlib.crc32(payload) != crc:
        raise CorruptEntry(f"{name}: bad CRC-32")
    return payload


def extract_app_strings(path: str | Path) -> AppStrings:
    """Parse every dex in the APK and aggregate its non-identifier strings.

    Strings are concatenated across dex files in numeric dex order with no
    cross-file deduplication. decode_failures counts string entries (of any
    kind) that failed MUTF-8 decoding.
    """
    path = Path(path)
    archive = path.read_bytes()
    entries = list_dex_entries(archive)

    strings: list[str] = []
    failures = 0
    for _, payload in entries:
        dex = parse_dex(payload)
        strings.extend(classify_strings(dex))
        failures += dex.decode_failures

    return AppStrings(
        app_id=path.stem,
        non_identifier_strings=tuple(strings),
        dex_count=len(entries),
        decode_failures=failures,
    )
