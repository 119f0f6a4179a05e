import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strobe.errors import DecodeError
from strobe.mutf8 import decode_mutf8, encode_mutf8, utf16_length

from oracles import reference_decode_mutf8, reference_encode_mutf8


def test_ascii_identity():
    assert decode_mutf8(bytes([0x61])) == "a"
    assert decode_mutf8(b"hello") == "hello"


def test_encoded_null():
    assert decode_mutf8(b"\xc0\x80") == "\x00"


def test_malformed_continuation():
    with pytest.raises(DecodeError):
        decode_mutf8(bytes([0xE0, 0x20]))


def test_empty():
    assert decode_mutf8(b"") == ""


def test_raw_null_rejected():
    # 0x00 is the string terminator in dex string data, never a payload byte.
    with pytest.raises(DecodeError):
        decode_mutf8(b"\x00")


def test_two_byte_codepoint():
    assert decode_mutf8(b"\xce\xa9") == "Ω"


def test_supplementary_surrogate_pair():
    text = "\U0001F600"
    encoded = encode_mutf8(text)
    assert len(encoded) == 6
    assert decode_mutf8(encoded) == text


def test_dangling_surrogate_rejected():
    with pytest.raises(DecodeError):
        decode_mutf8(b"\xed\xa0\x80")  # lone high surrogate
    with pytest.raises(DecodeError):
        decode_mutf8(b"\xed\xb0\x80")  # lone low surrogate


_HIGH, _LOW = b"\xed\xa0\xbd", b"\xed\xb8\x80"  # the halves of U+1F600


@pytest.mark.parametrize("data, expected", [
    (_HIGH + _LOW + b"ab", "\U0001F600ab"),  # a pair at the start
    (b"ab" + _HIGH + _LOW, "ab\U0001F600"),  # a pair at the end
    (_HIGH + _LOW + _HIGH + _LOW, "\U0001F600\U0001F600"),
    (_HIGH + _HIGH + _LOW, None),  # high-high-low: the first high is unpaired
    (_HIGH + _LOW + _LOW, None),  # high-low-low: the second low is unpaired
    (_LOW + _HIGH, None),  # low-high: swapped halves pair with nothing
])
def test_surrogates_pair_high_then_low_and_nothing_else(data, expected):
    if expected is None:
        with pytest.raises(DecodeError, match="unpaired surrogate"):
            decode_mutf8(data)
    else:
        assert decode_mutf8(data) == expected
    assert reference_decode_mutf8(data) == expected


def test_four_byte_lead_rejected():
    with pytest.raises(DecodeError):
        decode_mutf8(b"\xf0\x9f\x98\x80")


def test_overlong_rejected():
    with pytest.raises(DecodeError):
        decode_mutf8(b"\xc1\x81")
    with pytest.raises(DecodeError):
        decode_mutf8(b"\xe0\x9f\xbf")


def test_utf16_length():
    assert utf16_length("") == 0
    assert utf16_length("abc") == 3
    assert utf16_length("\U0001F600a") == 3


def test_roundtrip_random_text():
    rng = random.Random(7)
    pool = [chr(rng.randrange(1, 0x10FFFF)) for _ in range(4000)]
    pool = [c for c in pool if not 0xD800 <= ord(c) <= 0xDFFF]
    for _ in range(300):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 40)))
        assert decode_mutf8(encode_mutf8(text)) == text


def test_utf16_length_matches_per_code_point_count():
    rng = random.Random(5)
    ranges = [(0x01, 0x80), (0x80, 0xD800), (0xD800, 0xE000), (0xE000, 0x10000),
              (0x10000, 0x110000)]
    for _ in range(2000):
        text = "".join(chr(rng.randrange(*rng.choice(ranges)))
                       for _ in range(rng.randrange(0, 30)))
        assert utf16_length(text) == sum(2 if ord(ch) >= 0x10000 else 1 for ch in text)


def _decode_or_none(data) -> str | None:
    try:
        return decode_mutf8(data)
    except DecodeError:
        return None


# ASCII and BMP material, which is plain UTF-8, and the byte strings where
# MUTF-8 and UTF-8 part: MUTF-8's encoded NUL and CESU-8 pairs, lone and
# swapped surrogates, a 4-byte UTF-8 sequence, a raw NUL, truncated 2- and
# 3-byte tails and overlongs.
_CLEAN = [b"abc", b"x=y/z+w-v", "Ω".encode("utf-8"), "€".encode("utf-8"),
          "\uffff".encode("utf-8")]
_ADVERSARIAL = [
    b"\xc0\x80", encode_mutf8("\U0001F600"), encode_mutf8("\U0010FFFF"),
    b"\xed\xa0\x80", b"\xed\xb0\x80", b"\xed\xb0\x80\xed\xa0\x80",
    "\U0001F600".encode("utf-8"), b"\x00", b"\xc3", b"\xe2\x82", b"\xc1\x81",
    b"\xe0\x80\x80", b"\xc0\xaf",
]


def _random_payload(rng) -> bytes:
    """0-64 bytes: uniform noise, clean material, or clean material with
    adversarial splices."""
    size = rng.randrange(0, 65)
    mode = rng.random()
    if mode < 0.25:
        return bytes(rng.randrange(256) for _ in range(size))
    pool = _CLEAN if mode < 0.6 else _CLEAN + _ADVERSARIAL
    data = bytearray()
    while len(data) < size:
        data += rng.choice(pool)
    return bytes(data[:size])


def test_fast_and_strict_decoders_agree_with_oracle():
    rng = random.Random(2024)
    for _ in range(20_000):
        data = _random_payload(rng)
        assert _decode_or_none(data) == reference_decode_mutf8(data), data.hex()


# Byte fragments where MUTF-8 decoding branches: the encoded NUL, a CESU-8
# pair and its halves, surrogate (0xED) and 4-byte (0xF0) leads, stray
# continuation bytes and ASCII.
_FRAGMENTS = st.sampled_from([
    b"\xc0\x80", b"\xc0", b"\x80", b"\xed\xa0\xbd", b"\xed\xb8\x80", b"\xed\xa0\x80\xed\xb0\x80",
    b"\xed", b"\xed\xa0", b"\xf0", b"\xf0\x9f\x98\x80", b"\xe2\x82\xac", b"\xce\xa9", b"a", b"\x00",
])


@given(st.lists(_FRAGMENTS | st.binary(min_size=1, max_size=4), max_size=16)
       .map(lambda parts: b"".join(parts)[:32]))
def test_decoder_matches_oracle_and_raises_only_decode_error(data):
    assert _decode_or_none(data) == reference_decode_mutf8(data)


def test_encoder_matches_per_unit_reference():
    rng = random.Random(11)
    # NUL, the 1-, 2- and 3-byte BMP bands (surrogates among the 3-byte
    # ones, drawn alone and as adjacent pairs) and supplementary characters.
    bands = [(0x00, 0x01), (0x01, 0x80), (0x80, 0x800), (0x800, 0xD800), (0xD800, 0xDC00),
             (0xDC00, 0xE000), (0xE000, 0x10000), (0x10000, 0x110000)]
    for _ in range(20_000):
        text = "".join(chr(rng.randrange(*rng.choice(bands)))
                       for _ in range(rng.randrange(0, 24)))
        assert encode_mutf8(text) == reference_encode_mutf8(text), ascii(text)


def test_oracle_exhaustive_up_to_two_bytes():
    assert _decode_or_none(b"") == reference_decode_mutf8(b"")
    buf = bytearray(2)
    for b0 in range(256):
        assert _decode_or_none(bytes([b0])) == reference_decode_mutf8(bytes([b0]))
        buf[0] = b0
        for b1 in range(256):
            buf[1] = b1
            assert _decode_or_none(buf) == reference_decode_mutf8(buf)


def test_oracle_random_long_sequences():
    rng = random.Random(1234)
    valid_seed = [encode_mutf8(chr(c)) for c in (0x41, 0x7F1, 0x8001, 0x1F600, 0)]
    for _ in range(10_000):
        if rng.random() < 0.5:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(4, 24)))
        else:
            # Mostly-valid material with occasional corruption finds the
            # interesting boundaries faster than uniform noise.
            data = bytearray(b"".join(rng.choice(valid_seed) for _ in range(rng.randrange(1, 8))))
            for _ in range(rng.randrange(0, 3)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data)
        assert _decode_or_none(data) == reference_decode_mutf8(data), data.hex()
