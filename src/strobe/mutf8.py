"""Modified UTF-8 codec for DEX string data.

MUTF-8 differs from UTF-8 in three ways: U+0000 is stored as the overlong
pair 0xC0 0x80 (so a raw 0x00 never occurs inside string data), supplementary
code points are stored as a CESU-8 style surrogate pair of two 3-byte
sequences, and 4-byte sequences do not exist.
"""

from __future__ import annotations

import re

from .errors import DecodeError


# The surrogateescape handler turns each byte the UTF-8 codec cannot decode
# into one code point U+DC80-U+DCFF, which valid UTF-8 never yields.
_ESCAPED = re.compile("[\udc80-\udcff]")


def decode_mutf8(data: bytes) -> str:
    """Decode one string_data payload (length prefix and terminator excluded).

    Raises DecodeError on a raw 0x00 byte, malformed or missing continuation
    bytes, overlong encodings other than 0xC0 0x80, 4-byte lead bytes, and
    unpaired surrogates.

    Most payloads are also valid UTF-8, so the C UTF-8 codec decodes first;
    its surrogateescape handler marks undecodable bytes instead of raising.
    UTF-8 cannot decode overlong forms (0xC0 0x80 included), encoded
    surrogates or truncated sequences, so every MUTF-8-specific form reaches
    the strict loop below, as do the forms MUTF-8 forbids but UTF-8 admits:
    a raw 0x00 (checked before decoding) and 4-byte sequences (code points
    >= U+10000 in the result). Whatever the codec decodes whole otherwise is
    what the loop would return.

    The two MUTF-8-specific forms start with 0xC0 (the encoded U+0000) or
    0xED (an encoded surrogate), and MUTF-8 reads every 1- to 3-byte UTF-8
    sequence as UTF-8 does. So where the first undecodable byte is any other,
    the strict loop would fail too, and the input is rejected at once.
    """
    if b"\x00" not in data:
        text = data.decode("utf-8", "surrogateescape")
        if text.isascii():
            return text
        bad = _ESCAPED.search(text)
        if bad is None:
            if max(text) < "\U00010000":
                return text
        elif bad.group() not in ("\udcc0", "\udced"):
            raise DecodeError("malformed byte sequence (not UTF-8, and no MUTF-8 form)")
    return _decode_strict(data)


def _decode_strict(data: bytes) -> str:
    """The MUTF-8 decoder proper: code units, then surrogate pairing."""
    units = _decode_units(data)
    out: list[str] = []
    i = 0
    n = len(units)
    while i < n:
        u = units[i]
        if 0xD800 <= u <= 0xDBFF:
            if i + 1 < n and 0xDC00 <= units[i + 1] <= 0xDFFF:
                out.append(chr(0x10000 + ((u - 0xD800) << 10) + (units[i + 1] - 0xDC00)))
                i += 2
                continue
            raise DecodeError(f"dangling high surrogate 0x{u:04x} at unit {i}")
        if 0xDC00 <= u <= 0xDFFF:
            raise DecodeError(f"lone low surrogate 0x{u:04x} at unit {i}")
        out.append(chr(u))
        i += 1
    return "".join(out)


def _decode_units(data: bytes) -> list[int]:
    """Decode the byte stream into UTF-16 code units."""
    units: list[int] = []
    i = 0
    n = len(data)
    while i < n:
        b1 = data[i]
        if b1 == 0x00:
            raise DecodeError(f"raw null byte at offset {i}")
        if b1 < 0x80:
            units.append(b1)
            i += 1
        elif b1 >> 5 == 0b110:
            if i + 1 >= n:
                raise DecodeError(f"truncated 2-byte sequence at offset {i}")
            b2 = data[i + 1]
            if b2 >> 6 != 0b10:
                raise DecodeError(f"bad continuation byte 0x{b2:02x} at offset {i + 1}")
            u = (b1 & 0x1F) << 6 | (b2 & 0x3F)
            # 0xC0 0x80 is the sanctioned overlong encoding of U+0000.
            if u < 0x80 and not (b1 == 0xC0 and b2 == 0x80):
                raise DecodeError(f"overlong 2-byte sequence at offset {i}")
            units.append(u)
            i += 2
        elif b1 >> 4 == 0b1110:
            if i + 2 >= n:
                raise DecodeError(f"truncated 3-byte sequence at offset {i}")
            b2, b3 = data[i + 1], data[i + 2]
            if b2 >> 6 != 0b10:
                raise DecodeError(f"bad continuation byte 0x{b2:02x} at offset {i + 1}")
            if b3 >> 6 != 0b10:
                raise DecodeError(f"bad continuation byte 0x{b3:02x} at offset {i + 2}")
            u = (b1 & 0x0F) << 12 | (b2 & 0x3F) << 6 | (b3 & 0x3F)
            if u < 0x800:
                raise DecodeError(f"overlong 3-byte sequence at offset {i}")
            units.append(u)
            i += 3
        else:
            raise DecodeError(f"invalid lead byte 0x{b1:02x} at offset {i}")
    return units


def encode_mutf8(text: str) -> bytes:
    """Encode text as MUTF-8 (inverse of decode_mutf8 for well-formed text)."""
    out = bytearray()
    for ch in text:
        cp = ord(ch)
        if cp >= 0x10000:
            cp -= 0x10000
            _encode_unit(out, 0xD800 | (cp >> 10))
            _encode_unit(out, 0xDC00 | (cp & 0x3FF))
        else:
            _encode_unit(out, cp)
    return bytes(out)


def _encode_unit(out: bytearray, u: int) -> None:
    if u == 0x00:
        out += b"\xc0\x80"
    elif u < 0x80:
        out.append(u)
    elif u < 0x800:
        out.append(0xC0 | (u >> 6))
        out.append(0x80 | (u & 0x3F))
    else:
        out.append(0xE0 | (u >> 12))
        out.append(0x80 | ((u >> 6) & 0x3F))
        out.append(0x80 | (u & 0x3F))


def utf16_length(text: str) -> int:
    """Length of text in UTF-16 code units, the unit of dex string lengths."""
    return len(text.encode("utf-16-le", "surrogatepass")) >> 1


def utf16_sort_key(text: str) -> bytes:
    """Sort key in UTF-16 code-unit order, the order of a dex string table.

    Byte order of UTF-16-BE equals code-unit order.
    """
    return text.encode("utf-16-be", "surrogatepass")
