import hashlib
import json
import random
import struct

import pytest

from strobe.apk import extract_app_strings, list_dex_entries
from strobe.dataset import Label, load_manifest
from strobe.dex import classify_strings, parse_dex
from strobe.errors import EmptyIdentifiers, InvalidConfig, SpecTooLarge
from strobe.features import shannon_entropy
from strobe.synth import (
    DexSpec,
    SynthConfig,
    build_dex,
    encrypt_string,
    family_sizes,
    gen_corpus,
)

from oracles import reference_adler32, reference_sha1


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
        texts = {e.index: e.text for e in dex.strings}
        assert {texts[i] for i in dex.identifier_ids} == ids
        assert set(classify_strings(dex)) == payload


def test_writer_string_table_is_sorted():
    blob = build_dex(spec(payload=("zz", "aa", "Ωmega", "mid")))
    dex = parse_dex(blob)
    keys = [e.text.encode("utf-16-be", "surrogatepass") for e in dex.strings]
    assert keys == sorted(keys)


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
    SynthConfig().validate()


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
