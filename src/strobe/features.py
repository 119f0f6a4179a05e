"""The eight per-app string-encryption features.

Every feature is the unweighted arithmetic mean of a per-string metric over
an app's non-identifier strings: Shannon entropy (bits, code-point
frequencies), UTF-8 byte size, code-point length, counts of '=', '-', '/'
and '+', and repeated-character count (length minus distinct characters).
An app with zero strings gets an all-zero vector — itself a strong signal
for stripped apps — rather than NaNs.

feature_vector_from_strings counts each string's characters once, in one
Counter: its values, in order of first appearance, give the entropy terms,
and its size the distinct-character count. The integer metrics are counted
over the joined strings. Summation order is the invariant that keeps the
means equal, bit for bit, to those of per_string_metrics: within a string
the entropy terms are summed in first-appearance order, and across strings
the entropies are summed in string order, each with the builtin sum.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from operator import mul

from .apk import AppStrings

FEATURE_NAMES = (
    "avg_entropy",
    "avg_wordsize",
    "avg_length",
    "avg_eq",
    "avg_dash",
    "avg_slash",
    "avg_plus",
    "avg_repeat",
)

CSV_HEADER = (
    "sample_id", "family", "label",
    *FEATURE_NAMES,
    "n_strings", "decode_failures",
)


@dataclass(frozen=True)
class PerStringMetrics:
    entropy: float
    wordsize: int
    length: int
    eq_count: int
    dash_count: int
    slash_count: int
    plus_count: int
    repeat_count: int


@dataclass(frozen=True)
class FeatureVector:
    avg_entropy: float = 0.0
    avg_wordsize: float = 0.0
    avg_length: float = 0.0
    avg_eq: float = 0.0
    avg_dash: float = 0.0
    avg_slash: float = 0.0
    avg_plus: float = 0.0
    avg_repeat: float = 0.0
    n_strings: int = 0

    def as_tuple(self) -> tuple[float, ...]:
        """The eight averages in FEATURE_NAMES order."""
        return (
            self.avg_entropy, self.avg_wordsize, self.avg_length, self.avg_eq,
            self.avg_dash, self.avg_slash, self.avg_plus, self.avg_repeat,
        )


def shannon_entropy(s: str) -> float:
    """Base-2 Shannon entropy of the code-point frequency distribution."""
    n = len(s)
    if n <= 1:
        return 0.0
    counts = Counter(s)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def _entropy(counts: Collection[int], n: int) -> float:
    """shannon_entropy of a string of length n from its code-point counts in
    first-appearance order, with the same terms summed in the same order."""
    if n <= 1:
        return 0.0
    p = [c / n for c in counts]
    return -sum(map(mul, p, map(math.log2, p)))


def per_string_metrics(s: str) -> PerStringMetrics:
    return PerStringMetrics(
        entropy=shannon_entropy(s),
        wordsize=len(s.encode("utf-8")),
        length=len(s),
        eq_count=s.count("="),
        dash_count=s.count("-"),
        slash_count=s.count("/"),
        plus_count=s.count("+"),
        repeat_count=len(s) - len(set(s)),
    )


def feature_vector(app: AppStrings) -> FeatureVector:
    return feature_vector_from_strings(app.non_identifier_strings)


def feature_vector_from_strings(strings: tuple[str, ...] | list[str]) -> FeatureVector:
    """Means of per_string_metrics over strings, equal to them bit for bit
    (see the module docstring)."""
    n = len(strings)
    if n == 0:
        return FeatureVector()
    entropies = []
    distinct = 0
    for s in strings:
        counts = Counter(s).values()
        distinct += len(counts)
        entropies.append(_entropy(counts, len(s)))
    joined = "".join(strings)
    length = len(joined)
    return FeatureVector(
        avg_entropy=sum(entropies) / n,
        avg_wordsize=len(joined.encode("utf-8")) / n,
        avg_length=length / n,
        avg_eq=joined.count("=") / n,
        avg_dash=joined.count("-") / n,
        avg_slash=joined.count("/") / n,
        avg_plus=joined.count("+") / n,
        avg_repeat=(length - distinct) / n,
        n_strings=n,
    )


def csv_row(sample_id: str, family: str, label: str, fv: FeatureVector, decode_failures: int) -> list[str]:
    """One feature-CSV row; reals printed to 9 significant digits."""
    return [
        sample_id, family, label,
        *(f"{v:.9g}" for v in fv.as_tuple()),
        str(fv.n_strings), str(decode_failures),
    ]
