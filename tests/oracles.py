"""Independent reference implementations used as test oracles.

Each of these takes a deliberately different route from the library code it
checks: the MUTF-8 reference leans on the stdlib UTF-8/UTF-16 codecs, the
checksum/digest references are textbook reimplementations, the feature
reference recomputes every metric straight from its definition, the box
oracle works on an explicitly sorted list, the online ensemble oracle
replays every sample one Welford step at a time with one scalar Poisson draw
per sample and member, and the hinge-SGD oracle trains one model at a time
with the per-sample loop.
"""

from __future__ import annotations

import math
import struct

import numpy as np

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


def reference_entropy(s: str) -> float:
    if len(s) <= 1:
        return 0.0
    probs = [s.count(c) / len(s) for c in set(s)]
    return -sum(p * math.log2(p) for p in probs)


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
    return tuple(sum(col) / n for col in cols)


def reference_box_stats(values):
    """Sort-based box statistics with explicit type-7 interpolation."""
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
        "mean": sum(v) / n,
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
        if accs and (best is None or (sum(accs) / len(accs), -gi) > best):
            best, best_hp = (sum(accs) / len(accs), -gi), hp
    return best_hp
