import logging
import random
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from strobe.apk import list_dex_entries
from strobe.dex import (
    ENDIAN_CONSTANT,
    HEADER,
    NO_INDEX,
    SECTION_LAYOUT,
    SectionInfo,
    StringEntry,
    classify_strings,
    parse_dex,
)
from strobe.errors import BadMagic, OffsetOutOfBounds, StrobeError, Truncated
from strobe.mutf8 import encode_mutf8
from strobe.synth import DexSpec, build_dex

from oracles import reference_identifier_ids, reference_read_strings


def _count_field(name):
    """The position of a table's count among the header's fields; its offset follows."""
    return 9 + 2 * list(SECTION_LAYOUT).index(name)


def simple_dex(types=("Lx;",), methods=("go",), fields=(), source_files=(), payload=("hello",)):
    return build_dex(DexSpec(types=types, methods=methods, fields=fields,
                             source_files=source_files, non_identifier_strings=payload))


def test_parse_roundtrip_two_strings():
    blob = build_dex(DexSpec(types=("Lt;",), non_identifier_strings=("a", "b")))
    dex = parse_dex(blob)
    assert sorted(e.text for e in dex.strings) == ["Lt;", "a", "b"]
    assert classify_strings(dex) == ["a", "b"]


def test_bad_magic_on_random_bytes():
    with pytest.raises(BadMagic):
        parse_dex(bytes([0xDE, 0xAD, 0xBE, 0xEF]))


def test_truncated_header():
    blob = simple_dex()
    with pytest.raises(Truncated):
        parse_dex(blob[:0x40])


def test_declared_size_mismatch():
    blob = bytearray(simple_dex())
    struct.pack_into("<I", blob, 32, len(blob) + 10)
    with pytest.raises(Truncated):
        parse_dex(bytes(blob))
    struct.pack_into("<I", blob, 32, len(blob) - 1)
    with pytest.raises(Truncated):
        parse_dex(bytes(blob))


def test_string_ids_offset_past_end():
    blob = bytearray(simple_dex())
    struct.pack_into("<I", blob, 60, len(blob) + 4)  # string_ids_off
    with pytest.raises(OffsetOutOfBounds):
        parse_dex(bytes(blob))


def test_header_fields():
    blob = simple_dex()
    dex = parse_dex(blob)
    assert dex.version == 35
    assert dex.declared_file_size == len(blob)
    assert dex.section_table["string_ids"].count == len(dex.strings)


def test_classify_identifiers_and_payload():
    blob = simple_dex(types=("Lcom/x;",), methods=("doIt",), payload=("hello world",))
    dex = parse_dex(blob)
    texts = {e.index: e.text for e in dex.strings}
    assert classify_strings(dex) == ["hello world"]
    assert {texts[i] for i in dex.identifier_ids} == {"Lcom/x;", "doIt"}


def test_classify_all_identifiers():
    # Models stripped output: every string referenced as an identifier.
    blob = simple_dex(fields=("fld",), payload=())
    dex = parse_dex(blob)
    assert classify_strings(dex) == []
    assert dex.identifier_ids == frozenset(range(len(dex.strings)))


def test_classify_source_file_is_identifier():
    blob = simple_dex(methods=(), source_files=("Main.java",), payload=("data",))
    dex = parse_dex(blob)
    texts = {e.index: e.text for e in dex.strings}
    assert classify_strings(dex) == ["data"]
    assert {texts[i] for i in dex.identifier_ids} == {"Lx;", "Main.java"}  # via class_defs


def test_partition_property():
    rng = random.Random(3)
    for _ in range(40):
        n_ids = rng.randrange(1, 6)
        n_payload = rng.randrange(0, 8)
        types = tuple(f"Lcom/t{i};" for i in range(0, n_ids, 2))
        members = tuple(f"member{i}" for i in range(1, n_ids, 2))
        ids = types + members
        payload = tuple(f"payload {i} {rng.randrange(100)}" for i in range(n_payload))
        dex = parse_dex(simple_dex(types, members[0::2], members[1::2], payload=payload))
        texts = [e.text for e in dex.strings]
        assert {texts[i] for i in dex.identifier_ids} == set(ids)
        # Every string not named as an identifier, in string-table order.
        assert classify_strings(dex) == [t for i, t in enumerate(texts) if i not in dex.identifier_ids]
        assert sorted(classify_strings(dex)) == sorted(payload)


def test_decode_failure_marks_entry_not_file():
    blob = bytearray(simple_dex(payload=("good", "bad")))
    dex = parse_dex(bytes(blob))
    victim = next(e for e in dex.strings if e.text == "bad")
    # ULEB length for these short strings is 1 byte; corrupt the first
    # payload byte into a lone continuation byte.
    blob[victim.data_offset + 1] = 0x80
    reparsed = parse_dex(bytes(blob))
    broken = [e for e in reparsed.strings if not e.decode_ok]
    assert len(broken) == 1
    assert broken[0].index == victim.index
    assert broken[0].text == ""
    assert reparsed.decode_failures == 1


def test_unsorted_string_table_warns_not_errors(caplog):
    blob = bytearray(simple_dex(methods=(), payload=("aa", "bb")))
    dex = parse_dex(bytes(blob))
    # Swap two string_id slots so decoded order violates the sort rule.
    off = dex.section_table["string_ids"].offset
    a = struct.unpack_from("<I", blob, off)[0]
    b = struct.unpack_from("<I", blob, off + 4)[0]
    struct.pack_into("<I", blob, off, b)
    struct.pack_into("<I", blob, off + 4, a)
    with caplog.at_level(logging.WARNING, logger="strobe.dex"):
        parse_dex(bytes(blob))
    assert any("not sorted" in r.message for r in caplog.records)


def test_member_index_out_of_range():
    blob = bytearray(simple_dex(payload=("p",)))
    dex = parse_dex(bytes(blob))
    off = dex.section_table["method_ids"].offset
    struct.pack_into("<I", blob, off + 4, 99)  # name_idx beyond string table
    with pytest.raises(OffsetOutOfBounds):
        parse_dex(bytes(blob))


def test_fuzz_mutations_raise_only_library_errors():
    rng = random.Random(11)
    base = simple_dex(types=("Lcom/app/Main;",), methods=("run",), fields=("field0",),
                      payload=("some payload", "more data Ω"))
    for _ in range(400):
        blob = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            blob[rng.randrange(len(blob))] = rng.randrange(256)
        try:
            dex = parse_dex(bytes(blob))
            classify_strings(dex)
        except StrobeError:
            pass  # defined rejection is fine; anything else is a bug


def test_fuzz_random_buffers():
    rng = random.Random(12)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        try:
            parse_dex(blob)
        except StrobeError:
            pass


def test_no_index_source_file_ignored():
    blob = simple_dex()
    dex = parse_dex(blob)
    assert NO_INDEX not in dex.identifier_ids


@pytest.mark.parametrize("empty", [
    ("type_ids", "proto_ids", "field_ids", "method_ids", "class_defs"),
    tuple(SECTION_LAYOUT),
])
def test_empty_tables_with_wild_offsets_parse(empty):
    # A table with no entries is never read, whatever its offset says.
    blob = bytearray(simple_dex())
    header = list(HEADER.unpack_from(blob))
    for name in empty:
        header[_count_field(name):_count_field(name) + 2] = 0, 0xFFFFFFFF
    HEADER.pack_into(blob, 0, *header)
    dex = parse_dex(bytes(blob))
    for name in empty:
        assert dex.section_table[name].count == 0
    assert len(dex.strings) == (0 if "string_ids" in empty else 3)


def test_sorted_table_with_astral_strings_does_not_warn(caplog):
    # U+10000 sorts before U+FFFF in UTF-16 code units, after it in code points.
    blob = simple_dex(methods=(), payload=("\uffff", "\U00010000"))
    with caplog.at_level(logging.WARNING, logger="strobe.dex"):
        dex = parse_dex(blob)
    assert [e.text for e in dex.strings][-2:] == ["\U00010000", "\uffff"]
    assert not any("not sorted" in r.message for r in caplog.records)


# --- the string-table reader against the general one-read-per-entry reference

def _uleb(value: int, width: int = 1) -> bytes:
    """ULEB128 of value, padded with continuation bytes to at least width bytes."""
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        if value or len(out) + 1 < width:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def strings_only_dex(blob: bytes, offsets) -> bytes:
    """A dex whose only table is string_ids, followed by blob; each entry
    points at an offset into blob (or past its end)."""
    base = HEADER.size + 4 * len(offsets)
    data = bytearray(base) + blob
    pairs = [0] * 2 * len(SECTION_LAYOUT)
    pairs[:2] = len(offsets), HEADER.size
    HEADER.pack_into(data, 0, b"dex\n035\x00", 0, b"", len(data), HEADER.size, ENDIAN_CONSTANT,
                     0, 0, 0, *pairs, 0, 0)
    struct.pack_into(f"<{len(offsets)}I", data, HEADER.size, *(base + o for o in offsets))
    return bytes(data)


def assert_strings_match_reference(blob: bytes) -> None:
    at = _count_field("string_ids")
    section = SectionInfo(*HEADER.unpack_from(blob)[at:at + 2])
    want = tuple(reference_read_strings(blob, section))
    dex = parse_dex(blob)
    assert dex.strings == want
    assert all(type(e) is StringEntry for e in dex.strings)
    assert dex.decode_failures == sum(not e.decode_ok for e in want)


# Raw string_data items: the length prefix, the MUTF-8 payload and its NUL.
SHORT_ITEMS = {
    "1-byte length": _uleb(3) + b"abc\x00",
    "2-byte padded length": _uleb(3, 2) + b"abc\x00",
    "5-byte padded length": _uleb(3, 5) + b"abc\x00",
    "6-byte length": _uleb(3, 6) + b"abc\x00",
    "length too long": _uleb(5) + b"abc\x00",
    "length too short": _uleb(2) + b"abc\x00",
    "empty": _uleb(0) + b"\x00",
    "empty with a length": _uleb(1) + b"\x00",
    "encoded NUL": _uleb(1) + b"\xc0\x80\x00",
    "CESU-8 pair": _uleb(2) + encode_mutf8("\U0001F600") + b"\x00",
    "CESU-8 pair counted as one": _uleb(1) + encode_mutf8("\U0001F600") + b"\x00",
    "4-byte UTF-8": _uleb(2) + "\U0001F600".encode() + b"\x00",
    "lone high surrogate": _uleb(1) + b"\xed\xa0\x80\x00",
    "lone low surrogate": _uleb(1) + b"\xed\xb0\x80\x00",
    "non-ASCII BMP": _uleb(3) + "Ω€\uffff".encode() + b"\x00",
    "bad continuation": _uleb(2) + b"\xc3\x41\x00",
}
LONG_ITEMS = {
    "2-byte length": _uleb(200) + b"a" * 200 + b"\x00",
    "3-byte length": _uleb(20_000) + "Ω".encode() * 20_000 + b"\x00",
}
# Items that must end the buffer: no terminator, and a length cut short.
TAIL_ITEMS = {
    "missing terminator": _uleb(3) + b"abc",
    "length at the end of the buffer": b"\x85",
}


@pytest.mark.parametrize("name", [*SHORT_ITEMS, *LONG_ITEMS, *TAIL_ITEMS])
def test_string_item_reads_as_reference(name):
    item = {**SHORT_ITEMS, **LONG_ITEMS, **TAIL_ITEMS}[name]
    assert_strings_match_reference(strings_only_dex(item, [0]))


def test_string_table_of_every_item_reads_as_reference():
    items = [*SHORT_ITEMS.values(), *LONG_ITEMS.values()]
    offsets = [sum(map(len, items[:i])) for i in range(len(items))]
    for tail in TAIL_ITEMS.values():
        blob = b"".join(items) + tail
        assert_strings_match_reference(strings_only_dex(blob, [*offsets, len(blob) - len(tail)]))
        assert_strings_match_reference(
            strings_only_dex(blob, [len(blob) - len(tail), *reversed(offsets)]))


def test_unsorted_repeated_and_overlapping_offsets_read_as_reference():
    # Every byte of the blob starts an entry, so entries overlap and start
    # inside lengths, payloads and terminators; then the same offsets
    # reversed, and each one twice.
    blob = b"".join(SHORT_ITEMS.values()) + TAIL_ITEMS["missing terminator"]
    offsets = list(range(len(blob)))
    for order in (offsets, offsets[::-1], [o for o in offsets for _ in range(2)]):
        assert_strings_match_reference(strings_only_dex(blob, order))


def test_string_offset_past_the_buffer_raises_as_reference():
    blob = strings_only_dex(SHORT_ITEMS["1-byte length"], [0, 10_000])
    section = SectionInfo(2, HEADER.size)
    with pytest.raises(OffsetOutOfBounds, match="entry 1"):
        reference_read_strings(blob, section)
    with pytest.raises(OffsetOutOfBounds, match="entry 1"):
        parse_dex(blob)


def test_every_dex_of_the_frozen_corpus_reads_as_reference(confounded):
    n_dex = 0
    for path in sorted(confounded["dir"].rglob("*.apk")):
        for _, payload in list_dex_entries(path.read_bytes()):
            assert_strings_match_reference(payload)
            n_dex += 1
    assert n_dex > len(confounded["corpus"].samples)  # multidex apps included


_FUZZ_BASE = simple_dex(
    types=("Lcom/app/Main;",), methods=("run",), fields=("field0",),
    payload=("some payload", "Ω€", "\U0001F600 astral", "=" * 200, "a\x00b", ""),
)
_FUZZ_IDS = parse_dex(_FUZZ_BASE).section_table["string_ids"]
# From the first string_data item to the end of the file.
_FUZZ_DATA = (min(e.data_offset for e in parse_dex(_FUZZ_BASE).strings), len(_FUZZ_BASE))


@given(
    id_edits=st.lists(st.tuples(
        st.integers(0, _FUZZ_IDS.count - 1),
        st.one_of(st.integers(*_FUZZ_DATA), st.integers(0, len(_FUZZ_BASE) + 16)),
    ), max_size=4),
    byte_edits=st.lists(st.tuples(st.integers(_FUZZ_DATA[0], _FUZZ_DATA[1] - 1),
                                  st.integers(0, 255)), max_size=8),
)
def test_mutated_string_tables_read_as_reference_or_raise_strobe_errors(id_edits, byte_edits):
    blob = bytearray(_FUZZ_BASE)
    for i, offset in id_edits:
        struct.pack_into("<I", blob, _FUZZ_IDS.offset + 4 * i, offset)
    for pos, value in byte_edits:
        blob[pos] = value
    blob = bytes(blob)
    try:
        want = reference_read_strings(blob, _FUZZ_IDS)
    except StrobeError as exc:
        with pytest.raises(type(exc)):
            parse_dex(blob)
        return
    assert parse_dex(blob).strings == tuple(want)


# --- the table-driven identifier reader against one reader per id table

_REF_BASE = simple_dex(
    types=("Lcom/app/Main;", "Lcom/app/Util;"), methods=("run", "stop"), fields=("field0",),
    source_files=("Main.java",), payload=("payload", "more data"),
)
_REF_DEX = parse_dex(_REF_BASE)
_REF_COUNTS = {name: section.count for name, section in _REF_DEX.section_table.items()}
# In and just out of range of either index, the absent index, and the u2
# class of a member word.
_REF_VALUES = st.one_of(
    st.sampled_from([NO_INDEX, len(_REF_DEX.strings) - 1, len(_REF_DEX.strings),
                     _REF_COUNTS["type_ids"] - 1, _REF_COUNTS["type_ids"], 0xFFFF, 0x10000,
                     0x10000 + _REF_COUNTS["type_ids"]]),
    st.integers(0, len(_REF_DEX.strings) + 2),
    st.integers(0, 0xFFFFFFFF),
)


def test_identifier_base_dex_fills_every_table():
    assert all(_REF_COUNTS.values())
    assert _REF_COUNTS["method_ids"] == 2 and _REF_COUNTS["field_ids"] == 1
    texts = [e.text for e in _REF_DEX.strings]
    assert {texts[i] for i in _REF_DEX.identifier_ids} >= {"Main.java", "stop", "field0"}
    assert _REF_DEX.identifier_ids == reference_identifier_ids(_REF_BASE)


@example(word_edits=[("class_defs", 4, NO_INDEX)], count_edits=[])
@example(word_edits=[("type_ids", 0, NO_INDEX)], count_edits=[])
@example(word_edits=[("field_ids", 0, 0x10000), ("method_ids", 2, 0x10001)], count_edits=[])
@example(word_edits=[("method_ids", 1, len(_REF_DEX.strings))], count_edits=[])
@example(word_edits=[("proto_ids", 1, _REF_COUNTS["type_ids"])], count_edits=[])
@given(
    # (table, word of the table, modulo its length; new value)
    word_edits=st.lists(st.tuples(st.sampled_from(list(SECTION_LAYOUT)), st.integers(0, 63),
                                  _REF_VALUES), max_size=4),
    # Counts up to the one that would fit a table of one-byte entries.
    count_edits=st.lists(st.tuples(st.sampled_from(list(SECTION_LAYOUT)),
                                   st.one_of(st.integers(0, len(_REF_BASE)),
                                             st.integers(0, 0xFFFFFFFF))),
                         max_size=2),
)
def test_mutated_id_tables_read_as_reference_or_raise_strobe_errors(word_edits, count_edits):
    blob = bytearray(_REF_BASE)
    for name, word, value in word_edits:
        words = _REF_COUNTS[name] * SECTION_LAYOUT[name]
        struct.pack_into("<I", blob, _REF_DEX.section_table[name].offset + 4 * (word % words), value)
    header = list(HEADER.unpack_from(blob))
    for name, count in count_edits:
        header[_count_field(name)] = count
    HEADER.pack_into(blob, 0, *header)
    blob = bytes(blob)
    try:
        want = reference_identifier_ids(blob)
    except StrobeError as exc:
        with pytest.raises(type(exc)):
            parse_dex(blob)
        return
    assert parse_dex(blob).identifier_ids == want
