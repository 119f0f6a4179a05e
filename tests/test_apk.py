import io
import random
import struct
import zipfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strobe.apk import extract_app_strings, list_dex_entries
from strobe.errors import CorruptEntry, NoDex, NotAZip, StrobeError
from strobe.synth import DexSpec, build_dex, write_apk

from oracles import reference_list_dex_entries, reference_write_apk, string_data_offset


def make_zip(entries: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, payload in entries.items():
            zf.writestr(zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0)), payload)
    return buf.getvalue()


def dex_with(payload, types=("Lx;",), methods=("go",)):
    return build_dex(DexSpec(types=types, methods=methods, non_identifier_strings=tuple(payload)))


def test_numeric_multidex_ordering():
    archive = make_zip({
        "classes.dex": b"one",
        "classes3.dex": b"three",
        "classes2.dex": b"two",
        "res/x.png": b"not a dex",
    })
    names = [name for name, _ in list_dex_entries(archive)]
    assert names == ["classes.dex", "classes2.dex", "classes3.dex"]


def test_dex_entries_are_in_numeric_order_whatever_the_number_of_digits():
    # int() refuses a string of more than 4,300 digits.
    long_name = "classes" + "7" * 5000 + ".dex"
    names = [long_name, "classes10.dex", "classes2.dex", "classes1.dex", "classes01.dex", "classes.dex"]
    archive = make_zip({name: name.encode() for name in names})
    expected = ["classes.dex", "classes01.dex", "classes1.dex", "classes2.dex", "classes10.dex", long_name]
    assert [n for n, _ in list_dex_entries(archive)] == expected
    assert list_dex_entries(archive) == reference_list_dex_entries(archive)


def test_nested_dex_names_ignored():
    archive = make_zip({"assets/classes.dex": b"x", "classes.dex": b"y"})
    assert [n for n, _ in list_dex_entries(archive)] == ["classes.dex"]


def test_dex_name_with_a_trailing_newline_is_not_a_dex():
    # A pattern ending in "$" also matches before a trailing newline.
    archive = make_zip({"classes.dex": b"y", "classes.dex\n": b"x"})
    assert list_dex_entries(archive) == [("classes.dex", b"y")]
    with pytest.raises(NoDex):
        list_dex_entries(make_zip({"classes2.dex\n": b"x"}))


def test_no_dex_entries():
    with pytest.raises(NoDex):
        list_dex_entries(make_zip({"res/a.txt": b"hi"}))


def test_not_a_zip():
    with pytest.raises(NotAZip):
        list_dex_entries(b"clearly not a zip archive")


def test_corrupt_entry_crc():
    payload = b"A" * 64
    archive = bytearray(make_zip({"classes.dex": payload}))
    # Stored payload follows the 30-byte local header plus the name.
    start = archive.index(payload)
    archive[start] ^= 0xFF
    with pytest.raises(CorruptEntry):
        list_dex_entries(bytes(archive))


def _patch_entry_field(archive: bytes, local_pos: int, central_pos: int, value: int) -> bytes:
    """Set one u2 field of the first entry in its local and central headers."""
    patched = bytearray(archive)
    struct.pack_into("<H", patched, local_pos, value)
    struct.pack_into("<H", patched, patched.index(b"PK\x01\x02") + central_pos, value)
    return bytes(patched)


def test_unsupported_compression_method_is_corrupt_entry():
    archive = _patch_entry_field(make_zip({"classes.dex": b"A" * 64}), 8, 10, 99)
    with pytest.raises(CorruptEntry):
        list_dex_entries(archive)


def test_encrypted_entry_is_corrupt_entry():
    archive = _patch_entry_field(make_zip({"classes.dex": b"A" * 64}), 6, 8, 0x1)
    with pytest.raises(CorruptEntry):
        list_dex_entries(archive)


def _patch_local(offset, value):
    def patch(archive):
        patched = bytearray(archive)
        patched[offset] = value
        return bytes(patched)
    return patch


def _patch_central_size(archive):
    patched = bytearray(archive)
    struct.pack_into("<I", patched, patched.index(b"PK\x01\x02") + 24, 63)
    return bytes(patched)


# Ways for a dex entry to disagree with itself; zipfile rejects each as well.
@pytest.mark.parametrize("patch", [_patch_local(0, ord("Q")),  # local header signature
                                   _patch_local(30 + 10, ord("z")),  # local header name
                                   _patch_central_size])  # declared size
def test_inconsistent_entry_is_corrupt_entry(patch):
    archive = patch(make_zip({"classes.dex": b"A" * 64}))
    with pytest.raises(CorruptEntry):
        reference_list_dex_entries(archive)
    with pytest.raises(CorruptEntry):
        list_dex_entries(archive)


def test_fuzz_mutated_archives_raise_only_library_errors():
    rng = random.Random(17)
    bases = []
    for method in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED, zipfile.ZIP_BZIP2,
                   zipfile.ZIP_LZMA):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", method) as zf:
            zf.writestr("classes.dex", bytes(rng.randrange(256) for _ in range(200)) * 2)
            zf.writestr("classes2.dex", b"payload" * 30)
        bases.append(buf.getvalue())
    # bzip2 and LZMA entries stop at CorruptEntry before their payload is
    # read; these bases, with a comment and prepended bytes, reach it.
    for method in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", method) as zf:
            zf.writestr("classes.dex", bytes(rng.randrange(256) for _ in range(200)) * 2)
            zf.writestr("classes2.dex", b"payload" * 30)
            zf.comment = b"an archive comment"
        bases.append(b"prepended stub " + buf.getvalue())
    for _ in range(3000):
        archive = bytearray(rng.choice(bases))
        for _ in range(rng.randrange(1, 4)):
            archive[rng.randrange(len(archive))] = rng.randrange(256)
        try:
            list_dex_entries(bytes(archive))
        except StrobeError:
            pass  # defined rejection is fine; anything else is a bug


def test_payload_roundtrip(tmp_path):
    d1 = dex_with(["alpha"])
    d2 = dex_with(["beta", "gamma"], types=("Ly;",), methods=("run",))
    archive = make_zip({"classes.dex": d1, "classes2.dex": d2})
    out = [payload for _, payload in list_dex_entries(archive)]
    assert out == [d1, d2]


def test_extract_concatenates_without_dedup(tmp_path):
    d1 = dex_with(["x"])
    d2 = dex_with(["x", "y"])
    path = tmp_path / "app.apk"
    path.write_bytes(make_zip({"classes.dex": d1, "classes2.dex": d2}))
    app = extract_app_strings(path)
    assert list(app.non_identifier_strings) == ["x", "x", "y"]
    assert app.dex_count == 2


def test_extract_stripped_app(tmp_path):
    path = tmp_path / "stripped.apk"
    path.write_bytes(make_zip({"classes.dex": dex_with([])}))
    app = extract_app_strings(path)
    assert app.non_identifier_strings == ()
    assert app.decode_failures == 0


def test_decode_failures_counted_per_app(tmp_path):
    blob = bytearray(dex_with(["good", "bad"]))
    from strobe.dex import parse_dex
    victim = parse_dex(bytes(blob)).strings.index("bad")
    blob[string_data_offset(blob, victim) + 1] = 0x80
    path = tmp_path / "dodgy.apk"
    path.write_bytes(make_zip({"classes.dex": bytes(blob)}))

    app = extract_app_strings(path)
    assert app.decode_failures == 1
    assert app.non_identifier_strings == ("good",)


def test_an_empty_file_is_not_a_zip(tmp_path):
    path = tmp_path / "empty.apk"
    path.write_bytes(b"")
    with pytest.raises(NotAZip):
        extract_app_strings(path)


@pytest.mark.parametrize("kind", [str, Path])
@pytest.mark.parametrize("make", [None, Path.mkdir], ids=["missing", "directory"])
def test_an_unreadable_path_raises_what_open_raises(tmp_path, make, kind):
    path = tmp_path / "app.apk"
    if make is not None:
        make(path)
    with pytest.raises(OSError) as opened:
        open(kind(path), "rb")
    with pytest.raises(type(opened.value)) as extracted:
        extract_app_strings(kind(path))
    assert str(extracted.value) == str(opened.value)


def test_extract_is_deterministic(tmp_path):
    path = tmp_path / "app.apk"
    write_apk(path, [dex_with(["p", "q"]), dex_with(["r"])])
    assert extract_app_strings(path) == extract_app_strings(path)


def test_string_count_matches_per_dex_sum(tmp_path):
    dexes = [dex_with([f"s{i}-{j}" for j in range(i + 1)]) for i in range(3)]
    path = tmp_path / "multi.apk"
    write_apk(path, dexes)
    app = extract_app_strings(path)
    assert len(app.non_identifier_strings) == 1 + 2 + 3


@pytest.mark.parametrize("method", [zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA])
def test_bzip2_and_lzma_entries_are_corrupt_entries(method):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", method) as zf:
        zf.writestr("classes.dex", b"payload" * 30)
    assert reference_list_dex_entries(buf.getvalue()) == [("classes.dex", b"payload" * 30)]
    with pytest.raises(CorruptEntry):
        list_dex_entries(buf.getvalue())


def test_zip64_end_record_is_not_a_zip(monkeypatch):
    # zipfile writes a ZIP64 end record once the entry count passes this limit.
    monkeypatch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", 0)
    archive = make_zip({"classes.dex": b"payload"})
    assert b"PK\x06\x06" in archive
    assert reference_list_dex_entries(archive) == [("classes.dex", b"payload")]
    with pytest.raises(NotAZip):
        list_dex_entries(archive)


def test_repeated_dex_name_is_corrupt_entry():
    buf = io.BytesIO()
    with pytest.warns(UserWarning, match="Duplicate name"), zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("classes.dex", b"first")
        zf.writestr("classes.dex", b"second")
    assert reference_list_dex_entries(buf.getvalue()) == [("classes.dex", b"second")] * 2
    with pytest.raises(CorruptEntry):
        list_dex_entries(buf.getvalue())


class _Unseekable(io.RawIOBase):
    """A write-only stream, to which zipfile writes each entry with a data
    descriptor (flag 0x08) after its payload."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += b
        return len(b)


_ENTRY_NAMES = ["classes.dex", "classes2.dex", "classes3.dex", "classes10.dex", "classes1.dex",
                "classes" + "9" * 5000 + ".dex",
                "classes.dex\x00.txt", "classes2.dex\x00", "classes.dex\n", "clásses.dex",
                "classes\u0663.dex", "assets/classes.dex", "res/ünï.png", "AndroidManifest.xml"]
# Well-formed extra fields: each a header id, a length and that many bytes.
_EXTRA = st.lists(st.tuples(st.sampled_from([0xCAFE, 0x5455, 0xD935]), st.binary(max_size=8)),
                  max_size=2).map(lambda fields: b"".join(
                      struct.pack("<HH", tag, len(data)) + data for tag, data in fields))
_ENTRY = st.tuples(st.sampled_from(_ENTRY_NAMES), st.binary(max_size=300),
                   st.sampled_from([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED]), _EXTRA)


@given(entries=st.lists(_ENTRY, max_size=5, unique_by=lambda e: e[0].partition("\x00")[0]),
       comment=st.binary(max_size=40), prefix=st.binary(max_size=40),
       descriptors=st.booleans())
def test_list_dex_entries_matches_zipfile(entries, comment, prefix, descriptors):
    buf = _Unseekable() if descriptors else io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, payload, method, extra in entries:
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.filename = name  # ZipInfo cuts a name at its first NUL; the archive keeps it
            info.compress_type = method
            info.extra = extra
            zf.writestr(info, payload)
        zf.comment = comment
    archive = prefix + bytes(buf.data if descriptors else buf.getvalue())

    def outcome(read):
        try:
            return read(archive)
        except StrobeError as exc:
            return type(exc)

    assert outcome(list_dex_entries) == outcome(reference_list_dex_entries)


# Where write_apk writes: depth missing directories above the APK, or over
# an existing longer file.
@given(payloads=st.lists(st.binary(max_size=200), max_size=4), depth=st.integers(0, 2),
       overwrite=st.booleans())
def test_write_apk_matches_zipfile(tmp_path_factory, payloads, depth, overwrite):
    root = tmp_path_factory.mktemp("apk")
    ours = root.joinpath(*["sub"] * depth, "ours.apk")
    if overwrite:
        ours.parent.mkdir(parents=True, exist_ok=True)
        ours.write_bytes(b"stale" * 400)
    write_apk(ours, payloads)
    reference_write_apk(root / "reference.apk", payloads)
    assert ours.read_bytes() == (root / "reference.apk").read_bytes()
