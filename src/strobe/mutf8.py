"""Modified UTF-8 codec for DEX string data.

MUTF-8 differs from UTF-8 in three ways: U+0000 is stored as the overlong
pair 0xC0 0x80 (so a raw 0x00 never occurs inside string data), supplementary
code points are stored as a CESU-8 style surrogate pair of two 3-byte
sequences, and 4-byte sequences do not exist.

Both directions go through the C UTF-8 codec, whose surrogatepass handler
reads and writes a surrogate as the 3-byte sequence MUTF-8 stores for each
half of a pair, and a regex substitution that joins or splits the halves.
"""

from __future__ import annotations

import re

from .errors import DecodeError

_SUPPLEMENTARY = re.compile("[\U00010000-\U0010ffff]")
_SURROGATE = re.compile("[\ud800-\udfff]")
_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def decode_mutf8(data: bytes) -> str:
    """Decode one string_data payload (length prefix and terminator excluded).

    Raises DecodeError on a raw 0x00 byte, malformed or missing continuation
    bytes, overlong encodings other than 0xC0 0x80, 4-byte sequences, and
    unpaired surrogates.

    0xC0 is never a continuation byte, and the only valid form it leads is
    0xC0 0x80; so that pair can become a raw 0x00 (absent from valid input)
    before the UTF-8 codec, which rejects every other overlong form.
    """
    if b"\x00" in data:
        raise DecodeError("raw null byte in string data")
    try:
        text = data.replace(b"\xc0\x80", b"\x00").decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"malformed byte sequence: {exc.reason}") from None
    if text.isascii():
        return text
    if _SUPPLEMENTARY.search(text):
        raise DecodeError("4-byte sequence in string data")
    if _SURROGATE.search(text):
        text = _PAIR.sub(_join_pair, text)
        if _SURROGATE.search(text):
            raise DecodeError("unpaired surrogate in string data")
    return text


def _join_pair(match: re.Match) -> str:
    high, low = match.group()
    return chr(0x10000 + (ord(high) - 0xD800 << 10 | ord(low) - 0xDC00))


def _surrogate_pair(match: re.Match) -> str:
    cp = ord(match.group()) - 0x10000
    return chr(0xD800 | cp >> 10) + chr(0xDC00 | cp & 0x3FF)


def encode_mutf8(text: str) -> bytes:
    """Encode text as MUTF-8 (inverse of decode_mutf8 for well-formed text)."""
    units = _SUPPLEMENTARY.sub(_surrogate_pair, text)
    return units.encode("utf-8", "surrogatepass").replace(b"\x00", b"\xc0\x80")


def mutf8_is_utf8(text: str) -> bool:
    """Whether text holds no NUL, no surrogate and no supplementary code point.

    Such text encodes as plain UTF-8, has len(text) UTF-16 code units, and
    sorts in UTF-16 code-unit order by plain string comparison. The strict
    UTF-16 codec rejects a lone surrogate and gives a supplementary code
    point two units.
    """
    if "\x00" in text:
        return False
    if text.isascii():
        return True
    try:
        return len(text.encode("utf-16-le")) == 2 * len(text)
    except UnicodeEncodeError:
        return False


def utf16_length(text: str) -> int:
    """Length of text in UTF-16 code units, the unit of dex string lengths."""
    return len(text.encode("utf-16-le", "surrogatepass")) >> 1


def utf16_sort_key(text: str) -> bytes:
    """Sort key in UTF-16 code-unit order, the order of a dex string table.

    Byte order of UTF-16-BE equals code-unit order.
    """
    return text.encode("utf-16-be", "surrogatepass")
