"""Independent reference implementations used as test oracles.

Each of these takes a deliberately different route from the library code it
checks: the MUTF-8 decode reference validates one 1-3 byte chunk at a time
through the stdlib UTF-8/UTF-16 codecs, the MUTF-8 encode reference packs
the bits of one UTF-16 code unit at a time, the string-table reference
reads every entry through a general ULEB128 loop and re-encodes every
decoded string to check its length, the identifier reference reads the
header at its literal positions with one reader per id table, the checksum/digest references are
textbook reimplementations, the feature reference recomputes every metric
straight from its definition, the box oracle works on an explicitly sorted list, every float
sum is an explicit loop (loop_sum) and never the builtin sum, whose order
changed in Python 3.12, the online ensemble oracle
replays every sample one Welford step at a time with one scalar Poisson draw
per sample and member, the online vote oracle scores one sample over every
member in one broadcast, the prequential oracle votes with it and updates
one sample per library call, the online decision oracle scores every row
one member at a time (OnlineModel.decision before it scored all members per
chunk of rows), the hinge-SGD oracle trains one model at a time
with the per-sample loop, the decision oracle scores one feature vector with
a plain dot product, the holdout oracle counts one sample's prediction at a
time with the decision and vote oracles, the split oracles look every sample
up by id, and the APK container references read and write through the
standard zipfile module. The dex writer reference sorts, measures and
encodes every string through the UTF-16 codec and the per-unit MUTF-8
encoder, and packs each id table and map item on its own: the writer of
synth before it took a UTF-8 route. The payload-string reference makes one
Poisson draw per class of inserted character, rate 0 or not, and draws its
words in one sized draw however few there are, and the encryption reference
XORs the whole string as one big integer: synth's generator before it
skipped zero rates, drew short strings' words one at a time and XORed
through a byte table.
"""

from __future__ import annotations

import base64
import hashlib
import io
import lzma
import math
import re
import struct
import zipfile
import zlib
from typing import NamedTuple

import numpy as np

from strobe.dataset import Label
from strobe.dex import (ENDIAN_CONSTANT, HEADER, IDENTIFIER_REFERENCES, NO_INDEX, SECTION_LAYOUT,
                        SIGNED_FROM, SectionInfo, StringEntry)
from strobe.errors import CorruptEntry, DecodeError, EmptyStream, EmptyTest, NoDex, NotAZip, OffsetOutOfBounds
from strobe.evaluation import EvalResult, PrequentialResult
from strobe.learners import N_FEATURES, BatchModel, _member_terms, _votes_se, online_update
from strobe.mutf8 import decode_mutf8, utf16_length
from strobe.synth import (_CLASS_DEF, _INSERTED, _MANIFEST_STUB, DEX_MAGIC, TYPE_HEADER_ITEM,
                          TYPE_MAP_LIST, TYPE_STRING_DATA_ITEM, DexSpec)

_LEAD_LEN = {}
for _b in range(0x01, 0x80):
    _LEAD_LEN[_b] = 1
for _b in range(0xC0, 0xE0):
    _LEAD_LEN[_b] = 2
for _b in range(0xE0, 0xF0):
    _LEAD_LEN[_b] = 3


def reference_decode_mutf8(data) -> str | None:
    """Decode MUTF-8 via the stdlib codecs; None on any malformed input.

    Each 1-3 byte chunk is validated by Python's strict UTF-8 decoder
    (surrogatepass admits the surrogate range), and surrogate pairing is
    delegated to the UTF-16 decoder.
    """
    units = []
    i = 0
    n = len(data)
    while i < n:
        length = _LEAD_LEN.get(data[i])
        if length is None or i + length > n:
            return None
        chunk = bytes(data[i:i + length])
        if chunk == b"\xc0\x80":
            units.append(0)
        else:
            try:
                decoded = chunk.decode("utf-8", "surrogatepass")
            except UnicodeDecodeError:
                return None
            if len(decoded) != 1:
                return None
            units.append(ord(decoded))
        i += length
    try:
        return b"".join(struct.pack("<H", u) for u in units).decode("utf-16-le")
    except UnicodeDecodeError:
        return None


def reference_encode_mutf8(text: str) -> bytes:
    """Encode text as MUTF-8 one UTF-16 code unit at a time: the encoder of
    mutf8 before it was built on the stdlib codecs."""
    out = bytearray()
    for ch in text:
        cp = ord(ch)
        if cp >= 0x10000:
            cp -= 0x10000
            _reference_encode_unit(out, 0xD800 | (cp >> 10))
            _reference_encode_unit(out, 0xDC00 | (cp & 0x3FF))
        else:
            _reference_encode_unit(out, cp)
    return bytes(out)


def _reference_encode_unit(out: bytearray, u: int) -> None:
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


def reference_read_strings(data: bytes, section) -> list[StringEntry]:
    """Every string_data item of a dex's string_ids table (section), one
    general read per entry: the string-table reader of parse_dex before it
    read the common entry inline."""
    ids = struct.unpack_from(f"<{section.count}I", data, section.offset) if section.count else ()
    entries: list[StringEntry] = []
    for i, data_off in enumerate(ids):
        if data_off >= len(data):
            raise OffsetOutOfBounds(f"string_data offset 0x{data_off:x} of entry {i} exceeds buffer")
        entries.append(_reference_read_string_entry(data, i, data_off))
    return entries


def _reference_read_string_entry(data: bytes, index: int, data_off: int) -> StringEntry:
    text = None
    try:
        declared_len, pos = _reference_read_uleb128(data, data_off)
        terminator = data.find(b"\x00", pos)
        if terminator != -1:
            text = decode_mutf8(data[pos:terminator])
    except DecodeError:
        pass
    if text is None or utf16_length(text) != declared_len:
        return StringEntry(index=index, data_offset=data_off, text="", decode_ok=False)
    return StringEntry(index=index, data_offset=data_off, text=text, decode_ok=True)


def _reference_read_uleb128(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a ULEB128 value; returns (value, offset past the encoding)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data) or shift > 28:
            raise DecodeError("unterminated or oversized ULEB128")
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        pos += 1
        if not byte & 0x80:
            return result, pos
        shift += 7


# (count position inside the header, bytes per entry) of each id table; each
# count is followed by its table's offset.
_REFERENCE_SECTIONS = {
    "string_ids": (56, 4),
    "type_ids": (64, 4),
    "proto_ids": (72, 12),
    "field_ids": (80, 8),
    "method_ids": (88, 8),
    "class_defs": (96, 32),
}
_NO_INDEX = 0xFFFFFFFF


def reference_identifier_ids(data: bytes) -> frozenset[int]:
    """The identifier string indices of a dex whose magic, size and endian
    tag are valid, read at the header's literal positions with one reader
    per id table: the identifier reader of parse_dex before it was driven
    by one table of references."""
    sections = {}
    for name, (count_pos, entry_size) in _REFERENCE_SECTIONS.items():
        count, offset = struct.unpack_from("<2I", data, count_pos)
        if count > 0 and offset + count * entry_size > len(data):
            raise OffsetOutOfBounds(f"{name} table ({count} entries at 0x{offset:x}) exceeds buffer")
        sections[name] = SectionInfo(count, offset)
    n_strings = len(reference_read_strings(data, sections["string_ids"]))
    type_ids = _reference_index_table(data, sections["type_ids"], n_strings, "type_ids")
    return frozenset().union(
        type_ids,
        _reference_proto_ids(data, sections["proto_ids"], n_strings, len(type_ids)),
        _reference_member_ids(data, sections["field_ids"], n_strings, len(type_ids), "field_ids"),
        _reference_member_ids(data, sections["method_ids"], n_strings, len(type_ids), "method_ids"),
        _reference_class_defs(data, sections["class_defs"], n_strings, len(type_ids)),
    )


def _reference_table(data: bytes, section, words: int = 1) -> tuple[int, ...]:
    if section.count == 0:
        return ()
    return struct.unpack_from(f"<{section.count * words}I", data, section.offset)


def _reference_index_table(data: bytes, section, n_strings: int, name: str) -> tuple[int, ...]:
    ids = _reference_table(data, section)
    for i, idx in enumerate(ids):
        if idx >= n_strings:
            raise OffsetOutOfBounds(f"{name}[{i}] references string {idx} of {n_strings}")
    return ids


def _reference_proto_ids(data: bytes, section, n_strings: int, n_types: int) -> tuple[int, ...]:
    # Return types reference type_ids, whose descriptors are already counted
    # as identifiers; only the shorty string index is collected here.
    fields = _reference_table(data, section, 3)
    shorties = fields[0::3]
    for i, (shorty_idx, return_type_idx) in enumerate(zip(shorties, fields[1::3])):
        if shorty_idx >= n_strings:
            raise OffsetOutOfBounds(f"proto_ids[{i}] shorty references string {shorty_idx} of {n_strings}")
        if return_type_idx >= n_types:
            raise OffsetOutOfBounds(f"proto_ids[{i}] return type {return_type_idx} of {n_types}")
    return shorties


def _reference_member_ids(data: bytes, section, n_strings: int, n_types: int,
                          name: str) -> tuple[int, ...]:
    # field_id_item and method_id_item share the shape (u2 class, u2 x, u4
    # name); the class index is the low half of the first little-endian word.
    fields = _reference_table(data, section, 2)
    names = fields[1::2]
    for i, (word, name_idx) in enumerate(zip(fields[0::2], names)):
        class_idx = word & 0xFFFF
        if class_idx >= n_types:
            raise OffsetOutOfBounds(f"{name}[{i}] references type {class_idx} of {n_types}")
        if name_idx >= n_strings:
            raise OffsetOutOfBounds(f"{name}[{i}] references string {name_idx} of {n_strings}")
    return names


def _reference_class_defs(data: bytes, section, n_strings: int, n_types: int) -> tuple[int, ...]:
    fields = _reference_table(data, section, 8)
    source_files = []
    for i, (class_idx, source_file_idx) in enumerate(zip(fields[0::8], fields[4::8])):
        if class_idx >= n_types:
            raise OffsetOutOfBounds(f"class_defs[{i}] references type {class_idx} of {n_types}")
        if source_file_idx != _NO_INDEX:
            if source_file_idx >= n_strings:
                raise OffsetOutOfBounds(
                    f"class_defs[{i}] source file references string {source_file_idx} of {n_strings}"
                )
            source_files.append(source_file_idx)
    return tuple(source_files)


def reference_adler32(data: bytes) -> int:
    a, b = 1, 0
    for byte in data:
        a = (a + byte) % 65521
        b = (b + a) % 65521
    return (b << 16) | a


def reference_sha1(data: bytes) -> bytes:
    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    ml = len(data) * 8
    padded = data + b"\x80" + b"\x00" * ((55 - len(data)) % 64) + ml.to_bytes(8, "big")

    def rol(x: int, k: int) -> int:
        return ((x << k) | (x >> (32 - k))) & 0xFFFFFFFF

    for start in range(0, len(padded), 64):
        w = list(struct.unpack(">16I", padded[start:start + 64]))
        for i in range(16, 80):
            w.append(rol(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
        a, b, c, d, e = h
        for i in range(80):
            if i < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif i < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif i < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            a, b, c, d, e = (rol(a, 5) + f + e + k + w[i]) & 0xFFFFFFFF, a, rol(b, 30), c, d
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, (a, b, c, d, e))]
    return b"".join(x.to_bytes(4, "big") for x in h)


def reference_utf8_len(s: str) -> int:
    """UTF-8 byte length from code-point ranges, no encoder involved."""
    total = 0
    for ch in s:
        cp = ord(ch)
        if cp < 0x80:
            total += 1
        elif cp < 0x800:
            total += 2
        elif cp < 0x10000:
            total += 3
        else:
            total += 4
    return total


def loop_sum(values):
    """values added one by one, left to right, onto the integer 0."""
    total = 0
    for v in values:
        total += v
    return total


def compensated_sum(values) -> float:
    """CPython 3.12's builtin sum of floats (Neumaier's compensated sum), to
    show that an input tells it apart from loop_sum."""
    total = 0.0
    c = 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def reference_entropy(s: str) -> float:
    if len(s) <= 1:
        return 0.0
    probs = [s.count(c) / len(s) for c in set(s)]
    return -loop_sum(p * math.log2(p) for p in probs)


def reference_feature_means(strings) -> tuple[float, ...]:
    """(entropy, wordsize, length, eq, dash, slash, plus, repeat) means."""
    n = len(strings)
    if n == 0:
        return (0.0,) * 8
    cols = [
        [reference_entropy(s) for s in strings],
        [reference_utf8_len(s) for s in strings],
        [len(s) for s in strings],
        [sum(1 for c in s if c == "=") for s in strings],
        [sum(1 for c in s if c == "-") for s in strings],
        [sum(1 for c in s if c == "/") for s in strings],
        [sum(1 for c in s if c == "+") for s in strings],
        [len(s) - len(set(s)) for s in strings],
    ]
    return tuple(loop_sum(col) / n for col in cols)


def reference_box_stats(values):
    """Sort-based box statistics with explicit type-7 interpolation; the mean
    sums the values in their given order."""
    values = list(values)
    v = sorted(values)
    n = len(v)

    def quantile(p: float) -> float:
        pos = p * (n - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        return v[lo] + (pos - lo) * (v[hi] - v[lo])

    q1, median, q3 = quantile(0.25), quantile(0.5), quantile(0.75)
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [x for x in v if lo_fence <= x <= hi_fence]
    outliers = [x for x in v if x < lo_fence or x > hi_fence]
    return {
        "mean": loop_sum(values) / n,
        "median": median,
        "q1": q1,
        "q3": q3,
        "whisker_lo": min(inside),
        "whisker_hi": max(inside),
        "outliers": sorted(outliers),
    }


# --------------------------------------------------------------------------
# Online leveraging bagging by sample replay
# --------------------------------------------------------------------------

class ReplayGaussianLearner:
    """Per-class Gaussian model fed one observation at a time (Welford)."""

    VAR_FLOOR = 1e-9

    def __init__(self, n_features: int = 8) -> None:
        self.n_features = n_features
        self.counts = np.zeros(2, dtype=np.int64)
        self.mean = np.zeros((2, n_features))
        self.m2 = np.zeros((2, n_features))

    def observe(self, x, cls: int) -> None:
        self.counts[cls] += 1
        n = self.counts[cls]
        delta = x - self.mean[cls]
        self.mean[cls] += delta / n
        self.m2[cls] += delta * (x - self.mean[cls])

    def variance(self, cls: int):
        n = self.counts[cls]
        if n >= 2:
            return np.maximum(self.m2[cls] / (n - 1), self.VAR_FLOOR)
        return np.full(self.n_features, self.VAR_FLOOR)

    def vote(self, x) -> int:
        """0 = NOT_SE, 1 = SE; no evidence or an exact tie votes NOT_SE."""
        total = int(self.counts.sum())
        if total == 0:
            return 0
        scores = []
        for cls in (0, 1):
            n = int(self.counts[cls])
            if n == 0:
                scores.append(-math.inf)
                continue
            var = self.variance(cls)
            ll = -0.5 * float(np.sum(np.log(2.0 * math.pi * var) + (x - self.mean[cls]) ** 2 / var))
            scores.append(math.log(n / total) + ll)
        return 1 if scores[1] > scores[0] else 0


class ReplayEnsemble:
    """Online leveraging bagging by replay: for each arriving sample, each
    member draws its own Poisson(lam) count r with one scalar draw and
    observes the sample r times."""

    def __init__(self, k: int, lam: float, seed: int) -> None:
        self.learners = [ReplayGaussianLearner() for _ in range(k)]
        self.lam = lam
        self.rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        self.n_draws = 0

    def update(self, x, cls: int) -> None:
        for learner in self.learners:
            r = int(self.rng.poisson(self.lam))
            self.n_draws += 1
            for _ in range(r):
                learner.observe(x, cls)

    def predict(self, x) -> int:
        """1 (SE) on a strict majority of member votes, else 0."""
        votes = sum(learner.vote(x) for learner in self.learners)
        return 1 if 2 * votes > len(self.learners) else 0

    def assert_state_matches(self, model) -> None:
        """Equal draw count and per-member counts; means and M2 within 1e-9
        (relative, or absolute near zero), since summation order differs."""
        assert model.n_draws == self.n_draws
        assert len(model.learners) == len(self.learners)
        for member, ref in zip(model.learners, self.learners):
            assert np.array_equal(member.counts, ref.counts)
            np.testing.assert_allclose(member.mean, ref.mean, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(member.m2, ref.m2, rtol=1e-9, atol=1e-9)


def reference_online_predict(model, fv):
    """Majority vote of the members; overall ties predict NOT_SE.

    A member votes for the class with the higher log prior plus diagonal
    Gaussian log-likelihood; a class it has not seen scores -inf, so a cold
    member and an exact tie vote NOT_SE. Variances are unbiased and floored.
    """
    x = np.asarray(fv.as_tuple(), dtype=float)
    var, log_norm, prior = _member_terms(model)
    ll = -0.5 * np.sum(log_norm + (x - model.mean) ** 2 / var, axis=-1)
    scores = np.where(model.counts > 0, prior + ll, -math.inf)
    votes_se = int(np.count_nonzero(scores[:, 1] > scores[:, 0]))
    return Label.SE if 2 * votes_se > model.k else Label.NOT_SE


def reference_online_decision(model, X):
    """2 * votes_se - k on every row of raw features X, the members scored
    one at a time over all rows, in place."""
    var, log_norm, prior = _member_terms(model)
    votes_se = np.zeros(len(X), dtype=np.int64)
    d = np.empty((len(X), 2, N_FEATURES))
    for j in range(model.k):
        votes_se += _votes_se(X[:, None, :], model.mean[j], var[j], log_norm[j],
                              prior[j], model.counts[j] > 0, d)
    return 2 * votes_se - model.k


def reference_prequential_eval(model, stream):
    """Test-then-train one sample at a time: reference_online_predict on the
    sample, then online_update with it; the model is mutated in place."""
    if not stream:
        raise EmptyStream("prequential evaluation needs a non-empty stream")
    correct: list[bool] = []
    running: list[float] = []
    hits = 0
    for sample in stream:
        predicted = reference_online_predict(model, sample.features)
        correct.append(predicted is sample.label)
        hits += correct[-1]
        running.append(hits / len(correct))
        online_update(model, sample)
    return PrequentialResult(
        per_sample_correct=tuple(correct),
        running_accuracy=tuple(running),
        final_accuracy=hits / len(correct),
    )


# --------------------------------------------------------------------------
# Hinge-loss SGD, one fit and one sample at a time
# --------------------------------------------------------------------------

def reference_batch_train(train, hp, seed: int = 0):
    """(weights, bias, scaler mean, scaler std) of the per-sample
    Pegasos-style loop over shuffled epochs, with the scaler fitted on the
    training set; None for a single-class training set."""
    X = np.asarray([s.features.as_tuple() for s in train], dtype=float)
    y = np.asarray([1.0 if s.label.value == "SE" else -1.0 for s in train])
    if len(set(y.tolist())) < 2:
        return None
    mean = X.mean(axis=0)
    std = np.maximum(X.std(axis=0), 1e-9)
    Xs = (X - mean) / std

    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    w = np.zeros(8)
    b = 0.0
    shrink = 1.0 - 2.0 * hp.lr * hp.lam
    for _ in range(hp.epochs):
        for i in rng.permutation(len(y)):
            margin = y[i] * (w @ Xs[i] + b)
            w *= shrink
            if margin < 1.0:
                w += hp.lr * y[i] * Xs[i]
                b += hp.lr * y[i]
    return w, b, mean, std


def reference_grid_search(train, grid, folds: int, seed: int):
    """The grid point with the best mean k-fold validation accuracy, one
    reference fit and one per-sample prediction at a time; ties go to the
    earliest point, single-class folds are skipped."""
    order = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF).permutation(len(train))
    chunks = np.array_split(order, folds)
    best, best_hp = None, None
    for gi, hp in enumerate(grid):
        accs = []
        for f, chunk in enumerate(chunks):
            val_idx = set(int(i) for i in chunk)
            fit = reference_batch_train(
                [train[i] for i in range(len(train)) if i not in val_idx], hp, seed + f)
            if fit is None:
                continue
            w, b, mean, std = fit
            correct = 0
            for i in chunk:
                x = (np.asarray(train[int(i)].features.as_tuple(), dtype=float) - mean) / std
                predicted_se = float(w @ x + b) > 0.0
                correct += predicted_se == (train[int(i)].label.value == "SE")
            accs.append(correct / len(chunk))
        if accs and (best is None or (loop_sum(accs) / len(accs), -gi) > best):
            best, best_hp = (loop_sum(accs) / len(accs), -gi), hp
    return best_hp


def hinge_objective(weights, bias: float, X, y, lam: float) -> float:
    """Average hinge loss plus lam * ||w||^2 on a batch."""
    margins = y * (X @ weights + bias)
    return float(np.mean(np.maximum(0.0, 1.0 - margins)) + lam * weights @ weights)


def hinge_subgradient(weights, bias: float, X, y, lam: float):
    """Subgradient of hinge_objective (the zero branch at active margins)."""
    margins = y * (X @ weights + bias)
    active = margins < 1.0
    grad_w = -(y[active, None] * X[active]).sum(axis=0) / len(y) + 2.0 * lam * weights
    grad_b = -float(y[active].sum()) / len(y)
    return grad_w, grad_b


def reference_decision(model, fv) -> float:
    """A batch model's margin on one feature vector; SE where it is > 0."""
    x = model.scaler.transform(np.asarray(fv.as_tuple(), dtype=float))
    return float(model.weights @ x + model.bias)


def reference_holdout_eval(model, samples) -> EvalResult:
    """Confusion counts over the samples one at a time, SE positive: a batch
    model predicts SE where reference_decision is > 0, an online model where
    reference_online_predict says SE."""
    if not samples:
        raise EmptyTest("holdout evaluation needs a non-empty test set")
    tp = fp = tn = fn = 0
    for sample in samples:
        if isinstance(model, BatchModel):
            predicted_se = reference_decision(model, sample.features) > 0.0
        else:
            predicted_se = reference_online_predict(model, sample.features) is Label.SE
        actual_se = sample.label is Label.SE
        tp += predicted_se and actual_se
        fp += predicted_se and not actual_se
        tn += not predicted_se and not actual_se
        fn += not predicted_se and actual_se
    return EvalResult.from_confusion(tp, fp, tn, fn)


# --------------------------------------------------------------------------
# Splits, one sample id at a time
# --------------------------------------------------------------------------

def reference_both_classes(corpus, ids) -> bool:
    """Whether the samples with these ids hold both labels."""
    ids = set(ids)
    labels = {s.label.value for s in corpus.samples if s.sample_id in ids}
    return labels == {"SE", "NOT_SE"}


def reference_validate_split(corpus, split) -> dict:
    """validate_split's report as a dict, by a scan of the corpus per side;
    None when the split names an id the corpus lacks."""
    by_id = {s.sample_id: s for s in corpus.samples}
    if any(sid not in by_id for sid in split.train_ids | split.test_ids):
        return None
    every = [s.sample_id for s in corpus.samples]
    sides = []
    for ids in (split.train_ids, split.test_ids):
        members = [by_id[sid] for sid in every if sid in ids]
        sides.append(({s.family for s in members},
                      {"SE": sum(s.label.value == "SE" for s in members),
                       "NOT_SE": sum(s.label.value == "NOT_SE" for s in members)}))
    (train_families, train_classes), (test_families, test_classes) = sides
    return {
        "partition_ok": all((sid in split.train_ids) != (sid in split.test_ids) for sid in every),
        "family_overlap": len(train_families & test_families),
        "train_class_counts": train_classes,
        "test_class_counts": test_classes,
        "train_family_count": len(train_families),
        "test_family_count": len(test_families),
    }


# --------------------------------------------------------------------------
# APK containers through zipfile
# --------------------------------------------------------------------------

_DEX_NAME = re.compile(r"classes([0-9]+)?\.dex")
# What zipfile raises on a damaged archive besides BadZipFile: an unsupported
# feature (NotImplementedError, or RuntimeError for an encrypted entry), a
# bad offset or name (ValueError), and each decompressor's own error.
_OPEN_ERRORS = (zipfile.BadZipFile, RuntimeError, ValueError)
_READ_ERRORS = (zipfile.BadZipFile, RuntimeError, ValueError, EOFError, OSError,
                zlib.error, lzma.LZMAError)


def reference_list_dex_entries(archive: bytes) -> list[tuple[str, bytes]]:
    """list_dex_entries through zipfile, which also inflates bzip2 and LZMA
    entries and, for a repeated name, returns the last entry each time."""
    try:
        zf = zipfile.ZipFile(io.BytesIO(archive))
    except _OPEN_ERRORS as exc:
        raise NotAZip(str(exc)) from exc

    with zf:
        matched: list[tuple[int, str]] = []
        for name in zf.namelist():
            m = _DEX_NAME.fullmatch(name)
            if m:
                digits = (m.group(1) or "1").lstrip("0")  # int() refuses over 4,300 digits
                matched.append(((len(digits), digits), name))
        if not matched:
            raise NoDex("archive contains no classes*.dex entry")
        matched.sort()
        out = []
        for _, name in matched:
            try:
                out.append((name, zf.read(name)))
            except _READ_ERRORS as exc:
                raise CorruptEntry(f"{name}: {exc}") from exc
        return out


def reference_write_apk(path, dex_payloads: list[bytes]) -> None:
    """write_apk through zipfile: stored entries dated 1980-01-01 00:00."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for i, payload in enumerate(dex_payloads):
            name = "classes.dex" if i == 0 else f"classes{i + 1}.dex"
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, payload)
        info = zipfile.ZipInfo("AndroidManifest.xml", date_time=(1980, 1, 1, 0, 0, 0))
        zf.writestr(info, _MANIFEST_STUB)


def _reference_uleb128(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def reference_build_dex(spec: DexSpec) -> bytes:
    """build_dex one string at a time through the UTF-16 codec and the
    per-unit MUTF-8 encoder, whatever the strings hold."""
    spec.validate()

    def utf16(s: str) -> bytes:
        return s.encode("utf-16-be", "surrogatepass")

    all_strings = sorted(spec.types + spec.methods + spec.fields + spec.source_files
                         + spec.non_identifier_strings, key=utf16)
    sid = {s: i for i, s in enumerate(all_strings)}

    types = sorted(sid[s] for s in spec.types)
    named = {
        "type_ids": types,
        "proto_ids": types[:1] if spec.methods else [],
        "field_ids": sorted(sid[s] for s in spec.fields),
        "method_ids": sorted(sid[s] for s in spec.methods),
        "class_defs": [sid[s] for s in spec.source_files] or [NO_INDEX],
    }
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
        string_data += (_reference_uleb128(len(utf16(s)) // 2) + reference_encode_mutf8(s)
                        + b"\x00")
    while (data_off + len(string_data)) % 4:
        string_data.append(0)
    map_off = data_off + len(string_data)

    map_items = [
        (TYPE_HEADER_ITEM, 1, 0),
        *((item_type, *table) for item_type, table in enumerate(sections.values(), 1) if table.count),
        (TYPE_STRING_DATA_ITEM, len(all_strings), data_off),
        (TYPE_MAP_LIST, 1, map_off),
    ]

    file_size = map_off + 4 + 12 * len(map_items)
    header = (file_size, HEADER.size, ENDIAN_CONSTANT, 0, 0, map_off,
              *(v for table in sections.values() for v in table), file_size - data_off, data_off)
    buf = bytearray(file_size)
    HEADER.pack_into(buf, 0, DEX_MAGIC, 0, b"", *header)

    struct.pack_into(f"<{len(string_offsets)}I", buf, sections["string_ids"].offset, *string_offsets)
    for name, ids in named.items():
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


# --------------------------------------------------------------------------
# Payload strings and their encryption
# --------------------------------------------------------------------------

class ReferenceStyle(NamedTuple):
    """A style as reference_make_payload_string reads it: one rate per class
    of _INSERTED, in its order, zero rates included."""

    vocab: list[str]
    extra_words: float
    rates: list[float]


def reference_make_payload_string(style: ReferenceStyle, rng: np.random.Generator) -> str:
    poisson, integers = rng.poisson, rng.integers
    vocab = style.vocab
    n_words = 1 + poisson(style.extra_words)
    s = " ".join(map(vocab.__getitem__, integers(0, len(vocab), size=n_words).tolist()))
    for chars, rate in zip(_INSERTED, style.rates):
        n = poisson(rate)  # a class inserts nothing in most strings
        while n:
            n -= 1
            pos = int(integers(0, len(s) + 1))
            # A pool's character is drawn after the position: the pinned
            # corpora depend on that order.
            ch = chars if len(chars) == 1 else chars[integers(0, len(chars))]
            s = s[:pos] + ch + s[pos:]
    return s


def reference_encrypt_string(s: str, key: int) -> str:
    """XOR the UTF-8 bytes of s with a single-byte key, then base64."""
    raw = s.encode("utf-8")
    # The key repeated over every byte, XORed in as one integer.
    mask = (key & 0xFF) * int.from_bytes(b"\x01" * len(raw), "big")
    xored = (int.from_bytes(raw, "big") ^ mask).to_bytes(len(raw), "big")
    return base64.b64encode(xored).decode("ascii")
