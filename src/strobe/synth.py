"""Synthetic DEX/APK corpus generation.

Contains the minimal DEX writer (the round-trip counterpart of the parser),
the XOR+base64 string scrambler used to simulate string encryption, and a
seeded generator that emits whole labeled corpora of APK files. Each family
gets a stable random style, one record of three traits: a vocabulary (its
alphabet and word lengths), a mean word count, and one rate per class of
inserted character. Apps jitter their family's style. It is the nuisance
signal a leaky evaluation can memorize.

Three rules save time without changing an output byte or the generator
state: a style leaves out each class of rate 0 (poisson(0.0) draws
nothing), a string of up to _SCALAR_WORDS words draws them one scalar draw
each (the same values and generator state as one sized draw), and
encryption XORs through a 256-byte table per key.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import math
import struct
import zlib
from dataclasses import dataclass, asdict, field, fields
from functools import cache
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .apk import (CENTRAL_HEADER, CENTRAL_MAGIC, END_MAGIC, END_RECORD, LOCAL_HEADER, LOCAL_MAGIC,
                  STORED)
from .dataset import PATH_HEADER
from .dex import (ENDIAN_CONSTANT, HEADER, IDENTIFIER_REFERENCES, NO_INDEX, SECTION_LAYOUT,
                  SIGNED_FROM, SectionInfo)
from .errors import EmptyIdentifiers, InvalidConfig, SpecTooLarge, is_json_int, is_json_number
from .mutf8 import encode_mutf8, mutf8_is_utf8, utf16_length, utf16_sort_key

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
    """Emit a minimal structurally valid dex for the given string blueprint.

    A string set with no NUL, no surrogate and no supplementary code point
    takes the UTF-8 route: its code-point order is its UTF-16 order, each
    UTF-16 length is len(s) and each MUTF-8 encoding is the UTF-8 one. Any
    other set is sorted, measured and encoded through mutf8.
    """
    spec.validate()

    all_strings = (spec.types + spec.methods + spec.fields + spec.source_files
                   + spec.non_identifier_strings)
    if len(all_strings) > 0xFFFF:
        raise SpecTooLarge(f"{len(all_strings)} strings exceed the writer's 16-bit limits")
    if mutf8_is_utf8("".join(all_strings)):
        all_strings = sorted(all_strings)
        lengths = list(map(len, all_strings))
        encoded = list(map(str.encode, all_strings))
    else:
        all_strings = sorted(all_strings, key=utf16_sort_key)
        lengths = list(map(utf16_length, all_strings))
        encoded = list(map(encode_mutf8, all_strings))
    sid = {s: i for i, s in enumerate(all_strings)}

    # The string that each entry of an id table names. The one proto reuses
    # the first type descriptor as its shorty, which keeps the string set
    # exactly as specified; a dex with no source file has one class.
    types = sorted(map(sid.__getitem__, spec.types))
    named = {
        "type_ids": types,
        "proto_ids": types[:1] if spec.methods else [],
        "field_ids": sorted(map(sid.__getitem__, spec.fields)),
        "method_ids": sorted(map(sid.__getitem__, spec.methods)),
        "class_defs": list(map(sid.__getitem__, spec.source_files)) or [NO_INDEX],
    }
    # The id tables follow the header in SECTION_LAYOUT order, as one run of
    # words from the string_ids (filled in below) on; an empty table has offset 0.
    sections = [SectionInfo(len(all_strings), HEADER.size)]
    words = [0] * len(all_strings)
    for name, width in SECTION_LAYOUT.items():
        if name == "string_ids":
            continue
        # Each entry holds its string in the word parse_dex reads it from.
        ids, start = named[name], len(words)
        words += (_CLASS_DEF if name == "class_defs" else (0,) * width) * len(ids)
        words[start + IDENTIFIER_REFERENCES[name].string::width] = ids
        sections.append(SectionInfo(len(ids), HEADER.size + 4 * start if ids else 0))
    data_off = HEADER.size + 4 * len(words)

    # Each string_data item: its UTF-16 length as ULEB128, its bytes, a NUL.
    string_data = bytearray()
    for i, (length, raw) in enumerate(zip(lengths, encoded)):
        words[i] = data_off + len(string_data)
        if length < 0x80:
            string_data.append(length)
        else:
            string_data += _uleb128(length)
        string_data += raw
        string_data.append(0)
    string_data += bytes(-(data_off + len(string_data)) % 4)
    map_off = data_off + len(string_data)

    # Each map_list item: its type, an unused half-word, a count and an offset.
    # The item type of an id table is its place in SECTION_LAYOUT, from 0x0001.
    map_items = [
        (TYPE_HEADER_ITEM, 0, 1, 0),
        *((item_type, 0, *table) for item_type, table in enumerate(sections, 1) if table.count),
        (TYPE_STRING_DATA_ITEM, 0, len(all_strings), data_off),
        (TYPE_MAP_LIST, 0, 1, map_off),
    ]

    file_size = map_off + 4 + 12 * len(map_items)
    # The header after the signature: no link section, and the data from the strings on.
    header = (file_size, HEADER.size, ENDIAN_CONSTANT, 0, 0, map_off,
              *chain.from_iterable(sections), file_size - data_off, data_off)
    signed = b"".join((
        HEADER.pack(DEX_MAGIC, 0, b"", *header)[SIGNED_FROM:],
        struct.pack(f"<{len(words)}I", *words),
        string_data,
        struct.pack(f"<I{'HHII' * len(map_items)}", len(map_items), *chain.from_iterable(map_items)),
    ))
    signature = hashlib.sha1(signed).digest()
    checksum = zlib.adler32(signature + signed)
    return HEADER.pack(DEX_MAGIC, checksum, signature, *header)[:SIGNED_FROM] + signed


@cache
def _xor_table(key: int) -> bytes:
    """The bytes.translate table that XORs every byte with key (0-255),
    made on the key's first use so that importing synth builds none."""
    return bytes(b ^ key for b in range(256))


def encrypt_string(s: str, key: int) -> str:
    """XOR the UTF-8 bytes of s with a single-byte key, then base64."""
    return base64.b64encode(s.encode("utf-8").translate(_xor_table(key & 0xFF))).decode("ascii")


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
        # One type descriptor, and each member name a prefix and a family word.
        if self.identifiers_per_app[1] > len(_MEMBER_PREFIXES) * _VOCAB_SIZE + 1:
            raise InvalidConfig(f"identifiers_per_app must be at most "
                                f"{len(_MEMBER_PREFIXES) * _VOCAB_SIZE + 1}")
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


_PAIR = "tuple[int, int]"
# Per SynthConfig annotation: the test a field's value must pass, and what it must be.
_FIELD_SHAPES = {
    "int": (is_json_int, "an integer"),
    "float": (is_json_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    _PAIR: (lambda v: isinstance(v, (tuple, list)) and len(v) == 2 and all(map(is_json_int, v)),
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
# The classes of character that payload strings insert, one rate each in a
# style: four punctuation marks, then one character drawn from a pool.
_INSERTED = ("-", "/", "+", "=", _UNICODE_POOL)
# Up to this many words, a payload string draws its words one scalar draw
# each; a longer one draws them in one sized draw. Both give the same values
# and generator state, but with numpy 2.4 a sized integers(0, 48, size=k)
# costs about 2.5 us for any k up to 6 (np.prod in its size handling), and a
# scalar one 0.73 us.
_SCALAR_WORDS = 3


class _Style(NamedTuple):
    """The string style of a family, or one app's variant of it: the words
    its strings are made of, the mean number of words after the first, and
    (class of _INSERTED, mean number inserted into a string) for each class
    whose mean is above 0, in _INSERTED order. Every trait scales with
    fingerprint_strength, so strength 0 makes families statistically alike."""

    vocab: list[str]
    extra_words: float
    inserts: list[tuple[str, float]]


def _inserts(pairs) -> list[tuple[str, float]]:
    """The (class, rate) pairs whose rate is above 0. A class of rate 0
    inserts nothing, and poisson(0.0) draws nothing from the generator, so
    leaving it out changes no string and no later draw."""
    return [(chars, rate) for chars, rate in pairs if rate > 0]


def _family_style(strength: float, rng: np.random.Generator) -> _Style:
    alphabet_size = int(np.clip(round(18 + strength * rng.uniform(-12, 12)), 5, len(_WORD_CHARS)))
    alphabet = rng.choice(list(_WORD_CHARS), size=alphabet_size, replace=False).tolist()
    word_len_mu = float(np.clip(8 + strength * rng.uniform(-5, 9), 2.5, 26))
    extra_words = float(max(0.05, 1.0 + strength * rng.uniform(-1.0, 3.0)))
    # The rates of "-", "/", "+" and "=", the doubling chance, then the unicode
    # rate: one draw, the same values and generator state as six scalar ones.
    rates = (strength * rng.uniform(0, (1.5, 1.5, 0.6, 0.6, 0.35, 0.4))).tolist()
    doubling = rates.pop(4)

    vocab: dict[str, None] = {}  # distinct words, in draw order
    while len(vocab) < _VOCAB_SIZE:
        length = max(2, int(round(rng.normal(word_len_mu, 1.5))))
        chars = [alphabet[i] for i in rng.integers(0, len(alphabet), size=length)]
        if rng.random() < doubling:
            pos = int(rng.integers(0, len(chars)))
            chars.insert(pos, chars[pos])
        vocab["".join(chars)] = None
    return _Style(list(vocab), extra_words, _inserts(zip(_INSERTED, rates)))


def _variant_jitter(family_size: int) -> float:
    return 0.38 * min(1.0, family_size / 400.0)


def _app_style(family: _Style, rng: np.random.Generator, jitter: float) -> _Style:
    """Per-app variant of a family style.

    Big malware families ship many variants, so apps from a large family get
    jittered string-style traits; small families stay near-identical. Jitter
    is multiplicative and zero-mean, keeping the family centroid in place.
    """
    vocab = family.vocab
    if jitter > 0:
        keep = max(8, int(round(len(vocab) * (1.0 - 0.5 * jitter * rng.random()))))
        vocab = [vocab[i] for i in sorted(rng.choice(len(vocab), size=keep, replace=False).tolist())]
    # The word-count nudge, then one per class of _INSERTED, also those the
    # family leaves out: one draw, the same values and generator state as a
    # scalar draw and then an array of the rest.
    words_nudge, *nudges = rng.uniform(-1.0, 1.0, 1 + len(_INSERTED)).tolist()
    extra_words = max(0.0, family.extra_words * (1.0 + 0.6 * jitter * words_nudge))
    nudge = dict(zip(_INSERTED, nudges))
    return _Style(vocab, extra_words, _inserts(
        (chars, rate * (1.0 + jitter * nudge[chars])) for chars, rate in family.inserts))


def _make_payload_string(style: _Style, rng: np.random.Generator) -> str:
    poisson, integers = rng.poisson, rng.integers
    vocab = style.vocab
    n_vocab = len(vocab)
    n_words = 1 + poisson(style.extra_words)
    if n_words <= _SCALAR_WORDS:
        s = " ".join([vocab[integers(0, n_vocab)] for _ in range(n_words)])
    else:
        s = " ".join(map(vocab.__getitem__, integers(0, n_vocab, size=n_words).tolist()))
    for chars, rate in style.inserts:
        n = poisson(rate)  # a class inserts nothing in most strings
        while n:
            n -= 1
            pos = int(integers(0, len(s) + 1))
            # A pool's character is drawn after the position: the pinned
            # corpora depend on that order.
            ch = chars if len(chars) == 1 else chars[integers(0, len(chars))]
            s = s[:pos] + ch + s[pos:]
    return s


def _name_words(vocab: list[str]) -> list[str]:
    """The form each family word takes in a type or member name."""
    return [word[:10].capitalize() for word in vocab]


def _make_identifiers(vocab: list[str], names: list[str], rng: np.random.Generator, n_members: int,
                      dex_tag: str) -> tuple[str, list[str]]:
    """A type descriptor and n_members distinct member names. names is
    _name_words(vocab); with the prefixes it must give n_members distinct
    names, or this never returns."""
    # The type descriptor's two words, then a (prefix, word) pair per member,
    # in one call: the same values, and the same generator state after, as
    # one scalar draw each.
    bounds = [len(_MEMBER_PREFIXES), len(vocab)]
    w1, w2, *draws = rng.integers(0, [len(vocab)] * 2 + bounds * n_members).tolist()
    type_descriptor = f"Lcom/{vocab[w1][:8]}/{names[w2]}{dex_tag};"
    members: dict[str, None] = {}  # distinct names, in draw order
    while True:
        for prefix, word in zip(draws[0::2], draws[1::2]):
            members[_MEMBER_PREFIXES[prefix] + names[word]] = None
        if len(members) == n_members:
            return type_descriptor, list(members)
        # A round adds at most one member per pair, so none is drawn too many.
        draws = rng.integers(0, bounds * (n_members - len(members))).tolist()


def family_sizes(cfg: SynthConfig) -> list[int]:
    """Family sizes by rank: min + round((max-min) * (rank+1)^-skew).

    skew 0 gives every family the max size; larger skew concentrates the
    corpus in the first few families.
    """
    lo, hi = cfg.samples_per_family
    return [lo + int(round((hi - lo) * (i + 1) ** (-cfg.skew))) for i in range(cfg.n_families)]


def _plan_families(cfg: SynthConfig, sizes: list[int], rng: np.random.Generator) -> list[int]:
    """Decide each family's class makeup: how many of its samples are SE.

    round(mixed_family_fraction * n_families) families, at most the size of
    the band, are mixed. They are drawn from the size ranks n//6 up to
    n//2 (at least one rank), so the band holds the largest family only when
    n_families < 6. Each mixed family gives a 30-50% minority share, at
    least one sample and at most all but one, to the side a coin picks. The
    pure families are then labeled greedily down the size ranking, until
    round(se_family_fraction * pure families) are SE: each takes the side
    that brings the SE share of samples closer to one half, so both classes
    end with comparable sample mass, not just a comparable family count.
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
    # The set's own iteration order, which is neither the draw order nor
    # sorted ([33, 11, 13, ...] at the confounded seed). The pinned corpora
    # depend on it: sorting it would change them.
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
        if not (se_left and not_left):
            is_se = se_left > 0
        else:
            total = se_mass + not_mass + sizes[i]
            gap_se = abs((se_mass + sizes[i]) / total - 0.5)
            gap_not = abs(se_mass / total - 0.5)
            if math.isclose(gap_se, gap_not, rel_tol=0.0, abs_tol=1e-12):
                is_se = rng.random() < 0.5
            else:
                is_se = gap_se < gap_not
        if is_se:
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
    return [labels[i] for i in rng.permutation(size).tolist()]


def _build_app_dexes(
    cfg: SynthConfig,
    family: _Style,
    names: list[str],
    jitter: float,
    label: str,
    rng: np.random.Generator,
) -> list[bytes]:
    style = _app_style(family, rng, jitter)
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
            k = math.ceil(cfg.se_string_fraction * len(payload))
            key = int(rng.integers(1, 256))
            picks = set(rng.choice(len(payload), size=k, replace=False).tolist())
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
        type_descriptor, members = _make_identifiers(family.vocab, names, rng, members_share, tag)
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
    # One open per APK; the directory is made only for the first APK in it.
    try:
        fh = open(path, "wb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "wb")
    with fh:
        fh.write(local + central + end)


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
        family = _family_style(strength, fam_rng)
        # A dex takes up to identifiers_per_app - 1 member names: one prefix
        # and one distinct name word each.
        names = _name_words(family.vocab)
        if cfg.identifiers_per_app[1] - 1 > len(_MEMBER_PREFIXES) * len(set(names)):
            raise InvalidConfig(f"identifiers_per_app up to {cfg.identifiers_per_app[1]} asks for more "
                                f"member names than {fam_name}'s vocabulary gives")
        jitter = _variant_jitter(sizes[fam_idx])
        labels = _sample_labels(se_counts[fam_idx], sizes[fam_idx], fam_rng)
        for s_idx in range(sizes[fam_idx]):
            sample_id = f"{fam_name}_{s_idx:04d}"
            app_rng = np.random.default_rng(np.random.SeedSequence([base, 2, fam_idx, s_idx]))
            dexes = _build_app_dexes(cfg, family, names, jitter, labels[s_idx], app_rng)
            rel_path = f"{fam_name}/{sample_id}.apk"
            write_apk(out_dir / rel_path, dexes)
            rows.append((sample_id, fam_name, labels[s_idx], rel_path))

    manifest_path = out_dir / "manifest.csv"
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PATH_HEADER)
        writer.writerows(rows)
    return out_dir, manifest_path
