"""Synthetic DEX/APK corpus generation.

Contains the minimal DEX writer (the round-trip counterpart of the parser),
the XOR+base64 string scrambler used to simulate string encryption, and a
seeded generator that emits whole labeled corpora of APK files. Families get
stable random "fingerprints" (string length, alphabet size, punctuation
rates), which is the nuisance signal a leaky evaluation can memorize.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import math
import struct
import zlib
from dataclasses import dataclass, asdict, field, fields, replace
from itertools import chain
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .apk import (CENTRAL_HEADER, CENTRAL_MAGIC, END_MAGIC, END_RECORD, LOCAL_HEADER, LOCAL_MAGIC,
                  STORED)
from .dataset import PATH_HEADER
from .dex import (ENDIAN_CONSTANT, HEADER, IDENTIFIER_REFERENCES, NO_INDEX, SECTION_LAYOUT,
                  SIGNED_FROM, SectionInfo)
from .errors import EmptyIdentifiers, InvalidConfig, SpecTooLarge
from .mutf8 import encode_mutf8, utf16_length, utf16_sort_key

DEX_MAGIC = b"dex\n035\x00"
# The words of each class_def: class 0, public, no superclass, no
# interfaces, its source file (filled in), no annotations, data or static
# values. Every other id entry holds 0, type 0, besides its string.
_CLASS_DEF = (0, 0x1, NO_INDEX, 0, 0, 0, 0, 0)
TYPE_HEADER_ITEM = 0x0000
TYPE_MAP_LIST = 0x1000
TYPE_STRING_DATA_ITEM = 0x2002

SCHEME_BASE64_XOR = "BASE64_XOR"
SCHEME_STRIP_ALL = "STRIP_ALL"
SCHEMES = (SCHEME_BASE64_XOR, SCHEME_STRIP_ALL)


@dataclass(frozen=True, kw_only=True)
class DexSpec:
    """Blueprint for one dex: each identifier under the id table that names it.

    types become the type descriptors (at least one), methods and fields the
    member names, and each source file the source file of one class;
    non_identifier_strings are named by no table. The writer infers nothing.
    """

    types: tuple[str, ...] = ()
    methods: tuple[str, ...] = ()
    fields: tuple[str, ...] = ()
    source_files: tuple[str, ...] = ()
    non_identifier_strings: tuple[str, ...] = ()

    def validate(self) -> None:
        if not self.types:
            raise EmptyIdentifiers("a dex needs at least one type descriptor")
        ids = self.types + self.methods + self.fields + self.source_files
        payload = self.non_identifier_strings
        if len(set(ids)) != len(ids) or len(set(payload)) != len(payload):
            raise InvalidConfig("DexSpec names a string twice")
        if overlap := set(ids) & set(payload):
            raise InvalidConfig(f"strings cannot be both identifier and payload: {sorted(overlap)[:3]}")


def _uleb128(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def build_dex(spec: DexSpec) -> bytes:
    """Emit a minimal structurally valid dex for the given string blueprint."""
    spec.validate()

    all_strings = sorted(spec.types + spec.methods + spec.fields + spec.source_files
                         + spec.non_identifier_strings, key=utf16_sort_key)
    if len(all_strings) > 0xFFFF:
        raise SpecTooLarge(f"{len(all_strings)} strings exceed the writer's 16-bit limits")
    sid = {s: i for i, s in enumerate(all_strings)}

    # The string that each entry of an id table names. The one proto reuses
    # the first type descriptor as its shorty, which keeps the string set
    # exactly as specified; a dex with no source file has one class.
    types = sorted(sid[s] for s in spec.types)
    named = {
        "type_ids": types,
        "proto_ids": types[:1] if spec.methods else [],
        "field_ids": sorted(sid[s] for s in spec.fields),
        "method_ids": sorted(sid[s] for s in spec.methods),
        "class_defs": [sid[s] for s in spec.source_files] or [NO_INDEX],
    }
    # The id tables follow the header in layout order; an empty one has offset 0.
    sections: dict[str, SectionInfo] = {}
    off = HEADER.size
    for name, words in SECTION_LAYOUT.items():
        count = len(named[name]) if name in named else len(all_strings)
        sections[name] = SectionInfo(count, off if count else 0)
        off += 4 * words * count
    data_off = off

    string_data = bytearray()
    string_offsets = []
    for s in all_strings:
        string_offsets.append(data_off + len(string_data))
        string_data += _uleb128(utf16_length(s)) + encode_mutf8(s) + b"\x00"
    while (data_off + len(string_data)) % 4:
        string_data.append(0)
    map_off = data_off + len(string_data)

    # The map_list item type of an id table is its place in SECTION_LAYOUT, from 0x0001.
    map_items = [
        (TYPE_HEADER_ITEM, 1, 0),
        *((item_type, *table) for item_type, table in enumerate(sections.values(), 1) if table.count),
        (TYPE_STRING_DATA_ITEM, len(all_strings), data_off),
        (TYPE_MAP_LIST, 1, map_off),
    ]

    file_size = map_off + 4 + 12 * len(map_items)
    # The header after the signature: no link section, and the data from the strings on.
    header = (file_size, HEADER.size, ENDIAN_CONSTANT, 0, 0, map_off,
              *chain.from_iterable(sections.values()), file_size - data_off, data_off)
    buf = bytearray(file_size)
    HEADER.pack_into(buf, 0, DEX_MAGIC, 0, b"", *header)

    struct.pack_into(f"<{len(string_offsets)}I", buf, sections["string_ids"].offset, *string_offsets)
    for name, ids in named.items():
        # Each entry holds its string in the word parse_dex reads it from.
        words = SECTION_LAYOUT[name]
        table = list(_CLASS_DEF if name == "class_defs" else (0,) * words) * len(ids)
        table[IDENTIFIER_REFERENCES[name].string::words] = ids
        struct.pack_into(f"<{len(table)}I", buf, sections[name].offset, *table)

    buf[data_off:map_off] = string_data
    struct.pack_into("<I", buf, map_off, len(map_items))
    for i, (item_type, count, item_off) in enumerate(map_items):
        struct.pack_into("<HHII", buf, map_off + 4 + 12 * i, item_type, 0, count, item_off)

    signed = bytes(buf[SIGNED_FROM:])
    signature = hashlib.sha1(signed).digest()
    HEADER.pack_into(buf, 0, DEX_MAGIC, zlib.adler32(signature + signed), signature, *header)
    return bytes(buf)


def encrypt_string(s: str, key: int) -> str:
    """XOR the UTF-8 bytes of s with a single-byte key, then base64."""
    raw = s.encode("utf-8")
    # The key repeated over every byte, XORed in as one integer.
    mask = (key & 0xFF) * int.from_bytes(b"\x01" * len(raw), "big")
    xored = (int.from_bytes(raw, "big") ^ mask).to_bytes(len(raw), "big")
    return base64.b64encode(xored).decode("ascii")


# --------------------------------------------------------------------------
# Corpus generation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; validate, from_json and `strobe synth` go by each field's annotation."""

    n_families: int = 20
    samples_per_family: tuple[int, int] = (10, 200)
    skew: float = 1.0
    se_family_fraction: float = 0.5
    mixed_family_fraction: float = 0.0
    fingerprint_strength: float = 1.0
    se_string_fraction: float = 0.1
    strings_per_app: tuple[int, int] = (20, 60)
    identifiers_per_app: tuple[int, int] = (8, 20)
    scheme: str = field(default=SCHEME_BASE64_XOR, metadata={"choices": SCHEMES})
    seed: int = 42

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            has_shape, shape = _FIELD_SHAPES[f.type]
            if not has_shape(value):
                raise InvalidConfig(f"{f.name} must be {shape}, got {value!r}")
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise InvalidConfig(f"unknown {f.name} {value!r}")
            if f.type == _PAIR and not 0 <= value[0] <= value[1]:
                raise InvalidConfig(f"{f.name} must satisfy 0 <= min <= max, got ({value[0]}, {value[1]})")
        if self.n_families < 2:
            raise InvalidConfig("need at least 2 families")
        if self.samples_per_family[0] < 1:
            raise InvalidConfig("families need at least one sample")
        if self.identifiers_per_app[0] < 1:
            raise InvalidConfig("apps need at least one identifier per dex")
        if self.skew < 0:
            raise InvalidConfig("skew must be >= 0")
        for name in ("se_family_fraction", "mixed_family_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"{name} must lie in [0, 1]")
        if not 0.0 < self.se_string_fraction <= 1.0:
            raise InvalidConfig("se_string_fraction must lie in (0, 1]")
        if self.fingerprint_strength < 0:
            raise InvalidConfig("fingerprint_strength must be >= 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SynthConfig":
        """The validated config of obj; an unknown key or a value of the wrong
        shape raises InvalidConfig."""
        pairs = {f.name for f in fields(cls) if f.type == _PAIR}
        try:
            cfg = cls(**{k: tuple(v) if k in pairs else v for k, v in dict(obj).items()})
            cfg.validate()
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"bad SynthConfig: {exc}") from None
        return cfg


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


_PAIR = "tuple[int, int]"
# Per SynthConfig annotation: the test a field's value must pass, and what it must be.
_FIELD_SHAPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: isinstance(v, Real) and not isinstance(v, bool) and -math.inf < v < math.inf,
              "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    _PAIR: (lambda v: isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_int, v)),
            "a pair of integers"),
}


def confounded_preset() -> SynthConfig:
    """Frozen corpus used by the leakage experiments: skewed pure-label
    families with strong fingerprints and a weak encryption signal."""
    return SynthConfig(
        n_families=71,
        samples_per_family=(4, 2000),
        skew=1.5,
        se_family_fraction=0.5,
        mixed_family_fraction=0.15,
        fingerprint_strength=1.4,
        se_string_fraction=0.06,
        strings_per_app=(8, 18),
        identifiers_per_app=(8, 20),
        scheme=SCHEME_BASE64_XOR,
        seed=20260810,
    )


def control_preset() -> SynthConfig:
    """Control corpus: no family fingerprints, nearly everything encrypted."""
    return SynthConfig(
        n_families=20,
        samples_per_family=(60, 60),
        skew=0.0,
        se_family_fraction=0.5,
        mixed_family_fraction=0.15,
        fingerprint_strength=0.0,
        se_string_fraction=0.9,
        strings_per_app=(30, 70),
        identifiers_per_app=(8, 20),
        scheme=SCHEME_BASE64_XOR,
        seed=20260811,
    )


def stripped_preset() -> SynthConfig:
    """Corpus of stripped SE apps mixed 50/50 with plaintext apps."""
    return SynthConfig(
        n_families=20,
        samples_per_family=(20, 20),
        skew=0.0,
        se_family_fraction=0.5,
        mixed_family_fraction=0.0,
        fingerprint_strength=0.5,
        se_string_fraction=1.0,
        strings_per_app=(12, 40),
        identifiers_per_app=(8, 20),
        scheme=SCHEME_STRIP_ALL,
        seed=20260812,
    )


PRESETS = {"confounded": confounded_preset, "control": control_preset, "stripped": stripped_preset}

_MEMBER_PREFIXES = ("get", "set", "on", "run", "load", "init", "make", "read", "push", "bind")
_UNICODE_POOL = "áéíóúüñçøßπλΩжд中文字"
_MANIFEST_STUB = b"\x03\x00\x08\x00synthetic-manifest-stub"
_ZIP_VERSION = 20
_MADE_BY_UNIX = 3 << 8
_DOS_DATE_1980 = 1 << 5 | 1  # year 1980 (0), month 1, day 1

_WORD_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"
_VOCAB_SIZE = 48  # distinct words per family


@dataclass
class _FamilyProfile:
    """Stable per-family string-style traits; all offsets scale with
    fingerprint_strength so strength 0 makes families statistically alike."""

    alphabet: str
    word_len_mu: float
    extra_words: float
    dash_rate: float
    slash_rate: float
    plus_rate: float
    eq_rate: float
    doubling: float
    unicode_rate: float
    vocab: list[str] = field(default_factory=list)


def _make_profile(strength: float, rng: np.random.Generator) -> _FamilyProfile:
    alphabet_size = int(np.clip(round(18 + strength * rng.uniform(-12, 12)), 5, len(_WORD_CHARS)))
    letters = rng.choice(list(_WORD_CHARS), size=alphabet_size, replace=False)
    profile = _FamilyProfile(
        alphabet="".join(letters),
        word_len_mu=float(np.clip(8 + strength * rng.uniform(-5, 9), 2.5, 26)),
        extra_words=float(max(0.05, 1.0 + strength * rng.uniform(-1.0, 3.0))),
        dash_rate=strength * rng.uniform(0, 1.5),
        slash_rate=strength * rng.uniform(0, 1.5),
        plus_rate=strength * rng.uniform(0, 0.6),
        eq_rate=strength * rng.uniform(0, 0.6),
        doubling=strength * rng.uniform(0, 0.35),
        unicode_rate=strength * rng.uniform(0, 0.4),
    )
    profile.vocab = _make_vocab(profile, rng)
    return profile


def _make_vocab(profile: _FamilyProfile, rng: np.random.Generator) -> list[str]:
    vocab: dict[str, None] = {}  # distinct words, in draw order
    while len(vocab) < _VOCAB_SIZE:
        vocab[_make_word(profile, rng)] = None
    return list(vocab)


def _make_word(profile: _FamilyProfile, rng: np.random.Generator) -> str:
    length = max(2, int(round(rng.normal(profile.word_len_mu, 1.5))))
    chars = [profile.alphabet[i] for i in rng.integers(0, len(profile.alphabet), size=length)]
    if rng.random() < profile.doubling:
        pos = int(rng.integers(0, len(chars)))
        chars.insert(pos, chars[pos])
    return "".join(chars)


def _variant_jitter(family_size: int) -> float:
    return 0.38 * min(1.0, family_size / 400.0)


def _app_style(profile: _FamilyProfile, rng: np.random.Generator, jitter: float) -> _FamilyProfile:
    """Per-app variant of a family profile.

    Big malware families ship many variants, so apps from a large family get
    jittered string-style traits; small families stay near-identical. Jitter
    is multiplicative and zero-mean, keeping the family centroid in place.
    """
    def nudge(rate: float) -> float:
        return max(0.0, rate * (1.0 + jitter * rng.uniform(-1.0, 1.0)))

    vocab = profile.vocab
    if jitter > 0:
        keep = max(8, int(round(len(vocab) * (1.0 - 0.5 * jitter * rng.random()))))
        vocab = [vocab[i] for i in sorted(rng.choice(len(vocab), size=keep, replace=False))]
    return replace(
        profile,
        vocab=vocab,
        extra_words=max(0.0, profile.extra_words * (1.0 + 0.6 * jitter * rng.uniform(-1.0, 1.0))),
        dash_rate=nudge(profile.dash_rate),
        slash_rate=nudge(profile.slash_rate),
        plus_rate=nudge(profile.plus_rate),
        eq_rate=nudge(profile.eq_rate),
        unicode_rate=nudge(profile.unicode_rate),
    )


def _make_payload_string(style: _FamilyProfile, rng: np.random.Generator) -> str:
    n_words = 1 + int(rng.poisson(style.extra_words))
    words = [style.vocab[i] for i in rng.integers(0, len(style.vocab), size=n_words)]
    s = " ".join(words)
    for ch, rate in (
        ("-", style.dash_rate),
        ("/", style.slash_rate),
        ("+", style.plus_rate),
        ("=", style.eq_rate),
    ):
        for _ in range(int(rng.poisson(rate))):
            pos = int(rng.integers(0, len(s) + 1))
            s = s[:pos] + ch + s[pos:]
    for _ in range(int(rng.poisson(style.unicode_rate))):
        pos = int(rng.integers(0, len(s) + 1))
        ch = _UNICODE_POOL[int(rng.integers(0, len(_UNICODE_POOL)))]
        s = s[:pos] + ch + s[pos:]
    return s


def _make_identifiers(profile: _FamilyProfile, rng: np.random.Generator, n_members: int, dex_tag: str) -> tuple[str, list[str]]:
    w1 = profile.vocab[int(rng.integers(0, len(profile.vocab)))][:8]
    w2 = profile.vocab[int(rng.integers(0, len(profile.vocab)))][:10]
    type_descriptor = f"Lcom/{w1}/{w2.capitalize()}{dex_tag};"
    members: dict[str, None] = {}  # distinct names, in draw order
    bounds = [len(_MEMBER_PREFIXES), len(profile.vocab)]
    while len(members) < n_members:
        # A (prefix, word) draw per missing member, in one call: the same
        # values, and the same generator state after, as one scalar draw each.
        # A round adds at most one member per pair, so none is drawn too many.
        draws = rng.integers(0, bounds * (n_members - len(members))).tolist()
        for prefix, word in zip(draws[0::2], draws[1::2]):
            members[_MEMBER_PREFIXES[prefix] + profile.vocab[word][:10].capitalize()] = None
    return type_descriptor, list(members)


def family_sizes(cfg: SynthConfig) -> list[int]:
    """Family sizes by rank: min + round((max-min) * (rank+1)^-skew).

    skew 0 gives every family the max size; larger skew concentrates the
    corpus in the first few families.
    """
    lo, hi = cfg.samples_per_family
    return [lo + int(round((hi - lo) * (i + 1) ** (-cfg.skew))) for i in range(cfg.n_families)]


def _plan_families(cfg: SynthConfig, sizes: list[int], rng: np.random.Generator) -> list[int]:
    """Decide each family's class makeup: how many of its samples are SE.

    Mixed families include the largest family (if any are requested) plus
    mid-band ones: a label-pure giant makes whole-family splits collapse into
    one class, which no evaluation protocol survives. Mixed families carry a
    12-30% minority share. Pure families are then labeled greedily down the
    size ranking so both classes end with comparable sample mass, not just a
    comparable family count.
    """
    n = cfg.n_families
    by_size = sorted(range(n), key=lambda i: (-sizes[i], i))

    # Mixed families come from the mid-size band: heavy ones would cap the
    # achievable accuracy, featherweight ones add no both-class coverage.
    band = by_size[n // 6:max(n // 6 + 1, n // 2)]
    n_mixed = min(int(round(cfg.mixed_family_fraction * n)), len(band))
    mixed: set[int] = set()
    if n_mixed:
        mixed.update(int(i) for i in rng.choice(band, size=n_mixed, replace=False))

    plans: dict[int, int] = {}
    se_mass = not_mass = 0
    for i in mixed:
        minority = min(sizes[i] - 1, max(1, int(round(rng.uniform(0.3, 0.5) * sizes[i]))))
        n_se = sizes[i] - minority if rng.random() < 0.5 else minority
        plans[i] = n_se
        se_mass += n_se
        not_mass += sizes[i] - n_se

    pure = [i for i in by_size if i not in mixed]
    n_se_fams = int(round(cfg.se_family_fraction * len(pure)))
    se_left, not_left = n_se_fams, len(pure) - n_se_fams
    for i in pure:
        if se_left == 0:
            side = "NOT_SE"
        elif not_left == 0:
            side = "SE"
        else:
            total = se_mass + not_mass + sizes[i]
            gap_se = abs((se_mass + sizes[i]) / total - 0.5)
            gap_not = abs(se_mass / total - 0.5)
            if math.isclose(gap_se, gap_not, rel_tol=0.0, abs_tol=1e-12):
                side = "SE" if rng.random() < 0.5 else "NOT_SE"
            else:
                side = "SE" if gap_se < gap_not else "NOT_SE"
        if side == "SE":
            se_left -= 1
            se_mass += sizes[i]
            plans[i] = sizes[i]
        else:
            not_left -= 1
            not_mass += sizes[i]
            plans[i] = 0
    return [plans[i] for i in range(n)]


def _sample_labels(n_se: int, size: int, rng: np.random.Generator) -> list[str]:
    labels = ["SE"] * n_se + ["NOT_SE"] * (size - n_se)
    order = rng.permutation(size)
    return [labels[order[i]] for i in range(size)]


def _build_app_dexes(
    cfg: SynthConfig,
    profile: _FamilyProfile,
    label: str,
    rng: np.random.Generator,
    family_size: int,
) -> list[bytes]:
    style = _app_style(profile, rng, _variant_jitter(family_size))
    lo, hi = cfg.strings_per_app
    n_strings = int(rng.integers(lo, hi + 1))
    drawn: dict[str, None] = {}  # distinct non-empty strings, in draw order
    while len(drawn) < n_strings:
        if s := _make_payload_string(style, rng):
            drawn[s] = None
    payload = list(drawn)

    if label == "SE":
        if cfg.scheme == SCHEME_STRIP_ALL:
            payload = []
        else:
            k = int(np.ceil(cfg.se_string_fraction * len(payload)))
            key = int(rng.integers(1, 256))
            picks = set(int(i) for i in rng.choice(len(payload), size=k, replace=False))
            payload = [encrypt_string(s, key) if i in picks else s for i, s in enumerate(payload)]
            # Re-deduplicate: encryption could in principle collide.
            payload = list(dict.fromkeys(payload))

    n_dex = int(rng.integers(1, 4))
    ilo, ihi = cfg.identifiers_per_app
    n_ids = int(rng.integers(ilo, ihi + 1))
    n_members_total = max(0, n_ids - n_dex)

    dexes: list[bytes] = []
    for d in range(n_dex):
        chunk = payload[d::n_dex]
        members_share = n_members_total // n_dex + (1 if d < n_members_total % n_dex else 0)
        tag = "" if d == 0 else str(d + 1)
        type_descriptor, members = _make_identifiers(profile, rng, members_share, tag)
        # A one-word payload string can equal a member name.
        named = {type_descriptor, *members}
        dexes.append(build_dex(DexSpec(
            types=(type_descriptor,), methods=tuple(members[0::2]), fields=tuple(members[1::2]),
            non_identifier_strings=tuple(s for s in chunk if s not in named))))
    return dexes


def write_apk(path: Path, dex_payloads: list[bytes]) -> None:
    """Write an APK (ZIP) with fixed metadata so output is byte-reproducible.

    Each entry is stored, needs ZIP 2.0, was made by Unix with mode 0600, and
    is dated 1980-01-01 00:00, the earliest DOS date.
    """
    entries = [("classes.dex" if i == 0 else f"classes{i + 1}.dex", payload)
               for i, payload in enumerate(dex_payloads)]
    entries.append(("AndroidManifest.xml", _MANIFEST_STUB))
    local = bytearray()
    central = bytearray()
    for name, payload in entries:
        raw = name.encode("ascii")
        crc = zlib.crc32(payload)
        central += CENTRAL_HEADER.pack(CENTRAL_MAGIC, _ZIP_VERSION | _MADE_BY_UNIX, _ZIP_VERSION, 0,
                                       STORED, 0, _DOS_DATE_1980, crc, len(payload), len(payload),
                                       len(raw), 0, 0, 0, 0, 0o600 << 16, len(local))
        central += raw
        local += LOCAL_HEADER.pack(LOCAL_MAGIC, _ZIP_VERSION, 0, STORED, 0, _DOS_DATE_1980, crc,
                                   len(payload), len(payload), len(raw), 0)
        local += raw
        local += payload
    end = END_RECORD.pack(END_MAGIC, 0, 0, len(entries), len(entries), len(central), len(local), 0)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(local + central + end)


def gen_corpus(cfg: SynthConfig, out_dir: str | Path) -> tuple[Path, Path]:
    """Generate the corpus; returns (corpus directory, manifest path).

    Layout: out_dir/<family>/<sample_id>.apk plus out_dir/manifest.csv with
    rows sample_id,family,label,path. Fully deterministic for a fixed config.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    base = cfg.seed & 0xFFFFFFFFFFFFFFFF
    meta_rng = np.random.default_rng(np.random.SeedSequence([base, 0]))
    sizes = family_sizes(cfg)
    se_counts = _plan_families(cfg, sizes, meta_rng)

    rows: list[tuple[str, str, str, str]] = []
    for fam_idx in range(cfg.n_families):
        fam_name = f"fam{fam_idx:03d}"
        fam_rng = np.random.default_rng(np.random.SeedSequence([base, 1, fam_idx]))
        # Heavy families get the full fingerprint spread; the light tail stays
        # closer to a common core, like the many me-too families in the wild.
        strength = cfg.fingerprint_strength * (0.45 + 0.55 * min(1.0, sizes[fam_idx] / 250.0))
        profile = _make_profile(strength, fam_rng)
        labels = _sample_labels(se_counts[fam_idx], sizes[fam_idx], fam_rng)
        for s_idx in range(sizes[fam_idx]):
            sample_id = f"{fam_name}_{s_idx:04d}"
            app_rng = np.random.default_rng(np.random.SeedSequence([base, 2, fam_idx, s_idx]))
            dexes = _build_app_dexes(cfg, profile, labels[s_idx], app_rng, sizes[fam_idx])
            rel_path = f"{fam_name}/{sample_id}.apk"
            write_apk(out_dir / rel_path, dexes)
            rows.append((sample_id, fam_name, labels[s_idx], rel_path))

    manifest_path = out_dir / "manifest.csv"
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PATH_HEADER)
        writer.writerows(rows)
    return out_dir, manifest_path
