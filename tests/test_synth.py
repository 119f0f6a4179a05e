import hashlib
import json
import random
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from strobe.apk import extract_app_strings, list_dex_entries
from strobe.dataset import Label, load_manifest
from strobe.dex import classify_strings, parse_dex
from strobe.errors import EmptyIdentifiers, InvalidConfig, SpecTooLarge
from strobe.features import shannon_entropy
from strobe import synth
from strobe.synth import (
    DexSpec,
    SynthConfig,
    build_dex,
    encrypt_string,
    family_sizes,
    gen_corpus,
)

from oracles import (ReferenceStyle, reference_adler32, reference_build_dex, reference_encrypt_string,
                     reference_make_payload_string, reference_sha1)


def spec(types=("Lx;",), methods=("go",), fields=(), payload=("hello",)):
    return DexSpec(types=types, methods=methods, fields=fields, non_identifier_strings=payload)


# --- dex writer -------------------------------------------------------------

def test_writer_roundtrip_example():
    assert classify_strings(parse_dex(build_dex(spec()))) == ["hello"]


def test_writer_empty_payload():
    assert classify_strings(parse_dex(build_dex(spec(payload=())))) == []


def test_writer_checksum_and_signature_against_references():
    blob = build_dex(spec(payload=("payload one", "payload Ω two")))
    checksum = struct.unpack_from("<I", blob, 8)[0]
    assert checksum == reference_adler32(blob[12:])
    assert blob[12:32] == reference_sha1(blob[32:])


def test_writer_requires_identifier():
    with pytest.raises(EmptyIdentifiers):
        build_dex(spec(types=(), methods=()))
    # Nothing is promoted: methods and fields without a type are no dex.
    with pytest.raises(EmptyIdentifiers):
        build_dex(spec(types=(), methods=("go",), fields=("fld",)))


def test_writer_rejects_duplicates_and_overlap():
    with pytest.raises(InvalidConfig):
        build_dex(spec(methods=("go", "go")))
    with pytest.raises(InvalidConfig):
        build_dex(spec(payload=("hello", "hello")))
    with pytest.raises(InvalidConfig):
        build_dex(spec(payload=("go",)))


@pytest.mark.parametrize("roles", [
    {"types": ("Lx;", "go")},
    {"fields": ("go",)},
    {"types": ("Lx;", "Ly;"), "fields": ("Ly;",)},
    {"source_files": ("go",)},
])
def test_writer_rejects_one_name_under_two_roles(roles):
    with pytest.raises(InvalidConfig):
        build_dex(DexSpec(**{"types": ("Lx;",), "methods": ("go",), **roles}))


def test_writer_too_large():
    huge = tuple(f"s{i}" for i in range(70_000))
    with pytest.raises(SpecTooLarge):
        build_dex(spec(payload=huge))


def test_writer_roundtrip_seeded_specs():
    rng = random.Random(77)
    pool = "abcdefghij éΩ\U0001F600=/-+"
    for _ in range(60):
        ids = {f"Lcom/t{i}/C{rng.randrange(1000)};" if i % 3 == 0
               else f"member{i}_{rng.randrange(1000)}"
               for i in range(rng.randrange(1, 8))}
        payload = {"".join(rng.choice(pool) for _ in range(rng.randrange(1, 25)))
                   for _ in range(rng.randrange(0, 12))} - ids
        types = tuple(sorted(i for i in ids if i.startswith("L")))
        members = tuple(sorted(ids - set(types)))
        s = spec(types, members[0::2], members[1::2], tuple(sorted(payload)))
        dex = parse_dex(build_dex(s))
        assert {dex.strings[i] for i in dex.identifier_ids} == ids
        assert set(classify_strings(dex)) == payload


def test_writer_string_table_is_sorted():
    blob = build_dex(spec(payload=("zz", "aa", "Ωmega", "mid")))
    dex = parse_dex(blob)
    keys = [text.encode("utf-16-be", "surrogatepass") for text in dex.strings]
    assert keys == sorted(keys)


_ASCII = st.characters(max_codepoint=0x7F, exclude_characters="\x00")
# Per alphabet, ASCII mixed with one class of character. Only the first two
# are plain UTF-8 throughout; the rest reach the MUTF-8 route, except that
# text above U+DFFF in the BMP still sorts in code-point order.
_ALPHABETS = [
    _ASCII,
    _ASCII | st.characters(min_codepoint=0x80, max_codepoint=0xD7FF),
    _ASCII | st.characters(min_codepoint=0xE000, max_codepoint=0xFFFF),
    _ASCII | st.characters(min_codepoint=0x10000),
    _ASCII | st.just("\x00"),
    _ASCII | st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
]


@st.composite
def dex_specs(draw):
    """A DexSpec of distinct strings over one or two alphabets, some of them
    128 or more UTF-16 units long (a two-byte ULEB128 length)."""
    chars = st.one_of(*draw(st.lists(st.sampled_from(_ALPHABETS), min_size=1, max_size=2)))
    short = st.text(chars, max_size=10)
    text = short | st.builds(lambda t, n: t * n, short.filter(bool), st.integers(128, 140))
    strings = draw(st.lists(text, min_size=1, max_size=12, unique=True))
    cuts = sorted(draw(st.lists(st.integers(1, len(strings)), min_size=4, max_size=4)))
    types, methods, fields, sources, payload = (
        tuple(strings[a:b]) for a, b in zip([0, *cuts], [*cuts, len(strings)]))
    return DexSpec(types=types, methods=methods, fields=fields, source_files=sources,
                   non_identifier_strings=payload)


@given(dex_specs())
@example(spec(payload=("plain", "ümlaut", "中文")))
@example(spec(payload=("\uffff", "\U0001F600")))  # code-point and UTF-16 order disagree
@example(spec(payload=("a\x00b", "\U0010FFFF")))
@example(spec(payload=("\ud800", "\udfff x")))
@example(spec(payload=("é" * 130, "x" * 200, "\U0001F600" * 70)))
def test_build_dex_matches_the_per_string_reference(spec):
    assert build_dex(spec) == reference_build_dex(spec)


# --- encryption -------------------------------------------------------------

def test_encrypt_empty():
    assert encrypt_string("", 0x42) == ""


def test_encrypt_padding_rule():
    for s in ("a", "ab", "abcd", "Ω"):
        if len(s.encode()) % 3:
            assert encrypt_string(s, 7).endswith("=")
    assert not encrypt_string("abc", 7).endswith("=")


def test_encrypt_deterministic():
    assert encrypt_string("secret", 0x13) == encrypt_string("secret", 0x13)
    assert encrypt_string("secret", 0x13) != encrypt_string("secret", 0x14)


def test_encrypt_raises_corpus_entropy():
    rng = random.Random(3)
    words = ["".join(rng.choice("abcdefgh") for _ in range(rng.randrange(4, 14)))
             for _ in range(1000)]
    plain = sum(shannon_entropy(w) for w in words) / len(words)
    key = 0x5A
    enc = sum(shannon_entropy(encrypt_string(w, key)) for w in words) / len(words)
    assert enc > plain


# Keys below 0, in 0..255 and from 256 on: only key & 0xFF counts.
_KEYS = st.integers(-300, -1) | st.integers(0, 255) | st.integers(256, 600)


@given(st.text(_ALPHABETS[0] | _ALPHABETS[1] | _ALPHABETS[2] | _ALPHABETS[3], max_size=40), _KEYS)
@example("", -5)
@example("", 0)
@example("plain ascii", 0x5A)
@example("ümlaut 中文", 255)
@example("\U0001F600 astral", 256)
@example("\U0010FFFF", -1)
def test_encrypt_matches_the_integer_xor_reference(s, key):
    assert encrypt_string(s, key) == reference_encrypt_string(s, key)


# --- config -----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidConfig):
        SynthConfig(n_families=1).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(samples_per_family=(5, 2)).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(se_string_fraction=0.0).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(scheme="ROT13").validate()
    # A JSON integer too large for a float is no finite number.
    for name in ("skew", "fingerprint_strength"):
        with pytest.raises(InvalidConfig, match=name):
            SynthConfig(**{name: 10 ** 400}).validate()
    SynthConfig(skew=10 ** 300, fingerprint_strength=10 ** 300).validate()
    SynthConfig().validate()


# One type descriptor, and each member a prefix and one of 48 family words.
MAX_IDENTIFIERS = 10 * 48 + 1


def test_identifiers_per_app_is_bounded_by_the_names_a_family_has():
    SynthConfig(identifiers_per_app=(8, MAX_IDENTIFIERS)).validate()
    for bounds in ((8, MAX_IDENTIFIERS + 1), (600, 600)):
        with pytest.raises(InvalidConfig, match="identifiers_per_app"):
            SynthConfig(n_families=2, samples_per_family=(1, 1), identifiers_per_app=bounds,
                        seed=1).validate()


def test_a_family_whose_words_name_too_few_members_is_invalid(monkeypatch, tmp_path):
    # Every word of this family has the same first ten characters, so its
    # dexes can name only 10 members.
    words = [f"abcdefghij{i}" for i in range(48)]
    assert len(set(synth._name_words(words))) == 1
    monkeypatch.setattr(synth, "_family_style", lambda strength, rng: synth._Style(words, 1.0, []))
    cfg = SynthConfig(n_families=2, samples_per_family=(1, 1), identifiers_per_app=(8, 12), seed=1)
    with pytest.raises(InvalidConfig, match="fam000"):
        gen_corpus(cfg, tmp_path / "c")
    assert not (tmp_path / "c" / "manifest.csv").exists()
    gen_corpus(replace(cfg, identifiers_per_app=(8, 11)), tmp_path / "ok")


def test_config_json_roundtrip():
    cfg = SynthConfig(n_families=5, samples_per_family=(2, 9), seed=77)
    clone = SynthConfig.from_json(cfg.to_json())
    assert clone == cfg
    assert SynthConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg  # pairs as lists


def test_family_sizes_skew():
    cfg = SynthConfig(n_families=71, samples_per_family=(1, 40), skew=1.5)
    sizes = family_sizes(cfg)
    assert max(sizes) / sum(sizes) >= 0.20
    flat = family_sizes(SynthConfig(n_families=10, samples_per_family=(3, 7), skew=0.0))
    assert set(flat) == {7}


# --- corpus generation ---------------------------------------------------------

SMALL = SynthConfig(n_families=5, samples_per_family=(3, 8), skew=1.0,
                    mixed_family_fraction=0.2, strings_per_app=(6, 12), seed=101)


def test_gen_corpus_deterministic(tmp_path):
    d1, m1 = gen_corpus(SMALL, tmp_path / "c1")
    d2, m2 = gen_corpus(SMALL, tmp_path / "c2")
    assert m1.read_bytes() == m2.read_bytes()
    for apk in sorted(d1.rglob("*.apk")):
        twin = d2 / apk.relative_to(d1)
        assert apk.read_bytes() == twin.read_bytes()


def _tree_sha256(out):
    """Every file under out, path and bytes, in path order: a change to the
    generator that moves one RNG draw or one written byte changes this."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_gen_corpus_bytes_are_pinned(tmp_path):
    out, _ = gen_corpus(SMALL, tmp_path / "c")
    assert _tree_sha256(out) == "99f1803f0d7be73477e83fe4e1bd8896be16311492cd028de534f32b45e9d811"


# Per preset fixture: its number of APKs and the digest of its corpus directory.
PRESET_CORPORA = {
    "confounded": (5027, "695cb18b5d29fec89a943b2b12157d24187b34f15fba9cf12cdc5c517d46ee6f"),
    "control": (1200, "a3df904ab0fc2786995ee4c8bbf739955a486fc3b45ecd24bfc57e9765f45d59"),
    "stripped": (400, "4dfa5ee3137f5cb86ae356437cc7614b8525029aee7acda9482f367e744acf83"),
}


@pytest.mark.parametrize("preset", PRESET_CORPORA)
def test_preset_corpus_bytes_are_pinned(request, preset):
    n_apks, sha256 = PRESET_CORPORA[preset]
    out = request.getfixturevalue(preset)["dir"]
    assert sum(1 for _ in out.rglob("*.apk")) == n_apks
    assert _tree_sha256(out) == sha256


def test_gen_corpus_manifest_loads_and_matches_layout(tmp_path):
    out, manifest = gen_corpus(SMALL, tmp_path / "c")
    corpus = load_manifest(manifest)
    assert len(corpus.families()) == 5
    for s in corpus.samples:
        assert (out / s.path).exists()
        assert s.path == f"{s.family}/{s.sample_id}.apk"


def test_gen_corpus_label_purity_without_mixing(tmp_path):
    cfg = SynthConfig(n_families=6, samples_per_family=(4, 10),
                      mixed_family_fraction=0.0, se_family_fraction=0.5, seed=3)
    _, manifest = gen_corpus(cfg, tmp_path / "pure")
    corpus = load_manifest(manifest)
    for fam in corpus.families():
        labels = {s.label for s in corpus.samples if s.family == fam}
        assert len(labels) == 1, f"{fam} is not label-pure"
    assert {corpus.samples[i].label for i in range(len(corpus.samples))} == {Label.SE, Label.NOT_SE}


def test_gen_corpus_mixed_families_exist(tmp_path):
    cfg = SynthConfig(n_families=8, samples_per_family=(6, 12),
                      mixed_family_fraction=0.25, seed=4)
    _, manifest = gen_corpus(cfg, tmp_path / "mixed")
    corpus = load_manifest(manifest)
    n_mixed = sum(1 for fam in corpus.families()
                  if len({s.label for s in corpus.samples if s.family == fam}) == 2)
    assert n_mixed == 2


def test_strip_all_leaves_se_apps_without_strings(tmp_path):
    cfg = SynthConfig(n_families=4, samples_per_family=(3, 5), scheme="STRIP_ALL",
                      mixed_family_fraction=0.0, strings_per_app=(10, 15), seed=9)
    out, manifest = gen_corpus(cfg, tmp_path / "strip")
    corpus = load_manifest(manifest)
    saw_se = saw_plain = False
    for s in corpus.samples:
        app = extract_app_strings(out / s.path)
        if s.label is Label.SE:
            assert app.non_identifier_strings == ()
            saw_se = True
        else:
            assert len(app.non_identifier_strings) >= 10
            saw_plain = True
    assert saw_se and saw_plain


def test_generated_apps_have_one_to_three_dexes(tmp_path):
    out, manifest = gen_corpus(SMALL, tmp_path / "md")
    counts = set()
    for apk in sorted(out.rglob("*.apk")):
        entries = list_dex_entries(apk.read_bytes())
        counts.add(len(entries))
        assert 1 <= len(entries) <= 3
    assert len(counts) > 1  # the multi-dex path is actually exercised


def test_se_apps_show_encryption_artifacts(tmp_path):
    cfg = SynthConfig(n_families=4, samples_per_family=(6, 10), se_string_fraction=0.9,
                      mixed_family_fraction=0.0, fingerprint_strength=0.0,
                      strings_per_app=(20, 30), seed=12)
    out, manifest = gen_corpus(cfg, tmp_path / "sig")
    corpus = load_manifest(manifest)
    eq = {Label.SE: [], Label.NOT_SE: []}
    for s in corpus.samples:
        app = extract_app_strings(out / s.path)
        n = len(app.non_identifier_strings)
        eq[s.label].append(sum(t.count("=") for t in app.non_identifier_strings) / n)
    assert min(eq[Label.SE]) > max(eq[Label.NOT_SE])


def test_strength_zero_inserts_no_styled_characters(tmp_path):
    """At fingerprint_strength 0 every insertion rate is 0, so no plaintext
    string holds a punctuation mark or a unicode character; at strength 1
    some do, so the check can fail."""
    marked = {}
    for strength in (0.0, 1.0):
        cfg = SynthConfig(n_families=4, samples_per_family=(6, 10), mixed_family_fraction=0.0,
                          fingerprint_strength=strength, strings_per_app=(20, 30), seed=12)
        out, manifest = gen_corpus(cfg, tmp_path / str(strength))
        marked[strength] = sum(
            1 for s in load_manifest(manifest).samples if s.label is Label.NOT_SE
            for t in extract_app_strings(out / s.path).non_identifier_strings
            if not t.isascii() or set(t) & set("-/+="))
    assert marked[0.0] == 0
    assert marked[1.0] > 0


# --- payload strings ----------------------------------------------------------

# A rate is exactly 0 (no draw), small, or high enough that most strings get
# an insertion of its class.
_RATES = st.just(0.0) | st.floats(1e-3, 3.0)


@given(vocab=st.lists(st.text("abcdefghij", min_size=1, max_size=8), min_size=8, max_size=48,
                      unique=True),
       extra_words=st.floats(0.0, 6.0), rates=st.lists(_RATES, min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(vocab=[f"w{i}" for i in range(8)], extra_words=0.0, rates=[0.0] * 5, seed=0)
@example(vocab=[f"w{i}" for i in range(48)], extra_words=6.0, rates=[0.0, 2.0, 0.0, 0.5, 3.0], seed=1)
def test_payload_strings_and_draws_match_the_reference(vocab, extra_words, rates, seed):
    """Leaving out the classes of rate 0 and drawing the words of a short
    string one at a time give the same strings and leave the generator in
    the same state after every string."""
    style = synth._Style(vocab, extra_words, synth._inserts(zip(synth._INSERTED, rates)))
    reference = ReferenceStyle(vocab, extra_words, rates)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert (synth._make_payload_string(style, rng)
                == reference_make_payload_string(reference, reference_rng))
        assert rng.bit_generator.state == reference_rng.bit_generator.state
