import logging
import random
import struct

import pytest

from strobe.dex import NO_INDEX, SECTION_LAYOUT, classify_strings, parse_dex
from strobe.errors import BadMagic, OffsetOutOfBounds, StrictDecodeError, StrobeError, Truncated
from strobe.synth import DexSpec, build_dex


def simple_dex(identifiers=("Lx;", "go"), payload=("hello",), wiring=None):
    return build_dex(DexSpec(
        identifier_strings=tuple(identifiers),
        non_identifier_strings=tuple(payload),
        wiring=wiring,
    ))


def test_parse_roundtrip_two_strings():
    blob = build_dex(DexSpec(identifier_strings=("Lt;",), non_identifier_strings=("a", "b")))
    dex = parse_dex(blob)
    assert sorted(e.text for e in dex.strings) == ["Lt;", "a", "b"]
    pool = classify_strings(dex)
    assert sorted(pool.non_identifier_strings()) == ["a", "b"]


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
    blob = simple_dex(identifiers=("Lcom/x;", "doIt"), payload=("hello world",))
    dex = parse_dex(blob)
    pool = classify_strings(dex)
    texts = {e.index: e.text for e in dex.strings}
    non_ids = {texts[i] for i in pool.non_identifier_indices}
    assert non_ids == {"hello world"}
    assert {texts[i] for i in pool.identifier_indices} == {"Lcom/x;", "doIt"}


def test_classify_all_identifiers():
    # Models stripped output: every string referenced as an identifier.
    blob = simple_dex(identifiers=("Lx;", "go", "fld"), payload=())
    pool = classify_strings(parse_dex(blob))
    assert pool.non_identifier_indices == frozenset()


def test_classify_source_file_is_identifier():
    blob = simple_dex(
        identifiers=("Lx;", "Main.java"),
        payload=("data",),
        wiring={"Main.java": "source_file"},
    )
    dex = parse_dex(blob)
    pool = classify_strings(dex)
    texts = {e.index: e.text for e in dex.strings}
    assert {texts[i] for i in pool.non_identifier_indices} == {"data"}
    assert dex.source_file_ids  # wired through class_defs


def test_partition_property():
    rng = random.Random(3)
    for _ in range(40):
        n_ids = rng.randrange(1, 6)
        n_payload = rng.randrange(0, 8)
        ids = tuple(f"Lcom/t{i};" if i % 2 else f"member{i}" for i in range(n_ids))
        payload = tuple(f"payload {i} {rng.randrange(100)}" for i in range(n_payload))
        pool = classify_strings(parse_dex(simple_dex(ids, payload)))
        universe = frozenset(range(len(pool.entries)))
        assert pool.identifier_indices | pool.non_identifier_indices == universe
        assert not pool.identifier_indices & pool.non_identifier_indices


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


def test_strict_mode_raises_on_decode_failure():
    blob = bytearray(simple_dex(payload=("good", "bad")))
    dex = parse_dex(bytes(blob))
    victim = next(e for e in dex.strings if e.text == "bad")
    blob[victim.data_offset + 1] = 0x80
    with pytest.raises(StrictDecodeError):
        parse_dex(bytes(blob), strict=True)
    parse_dex(bytes(simple_dex()), strict=True)  # clean file passes strict


def test_unsorted_string_table_warns_not_errors(caplog):
    blob = bytearray(simple_dex(identifiers=("Lx;",), payload=("aa", "bb")))
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
    blob = bytearray(simple_dex(identifiers=("Lx;", "go"), payload=("p",)))
    dex = parse_dex(bytes(blob))
    off = dex.section_table["method_ids"].offset
    struct.pack_into("<I", blob, off + 4, 99)  # name_idx beyond string table
    with pytest.raises(OffsetOutOfBounds):
        parse_dex(bytes(blob))


def test_fuzz_mutations_raise_only_library_errors():
    rng = random.Random(11)
    base = simple_dex(
        identifiers=("Lcom/app/Main;", "run", "field0"),
        payload=("some payload", "more data Ω"),
    )
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
    assert NO_INDEX not in dex.source_file_ids


@pytest.mark.parametrize("empty", [
    ("type_ids", "proto_ids", "field_ids", "method_ids", "class_defs"),
    tuple(SECTION_LAYOUT),
])
def test_empty_tables_with_wild_offsets_parse(empty):
    # A table with no entries is never read, whatever its offset says.
    blob = bytearray(simple_dex())
    for name in empty:
        count_pos, off_pos, _ = SECTION_LAYOUT[name]
        struct.pack_into("<I", blob, count_pos, 0)
        struct.pack_into("<I", blob, off_pos, 0xFFFFFFFF)
    dex = parse_dex(bytes(blob))
    for name in empty:
        assert dex.section_table[name].count == 0
    assert len(dex.strings) == (0 if "string_ids" in empty else 3)


def test_sorted_table_with_astral_strings_does_not_warn(caplog):
    # U+10000 sorts before U+FFFF in UTF-16 code units, after it in code points.
    blob = simple_dex(identifiers=("Lx;",), payload=("\uffff", "\U00010000"))
    with caplog.at_level(logging.WARNING, logger="strobe.dex"):
        dex = parse_dex(blob)
    assert [e.text for e in dex.strings][-2:] == ["\U00010000", "\uffff"]
    assert not any("not sorted" in r.message for r in caplog.records)
