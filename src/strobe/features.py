"""The eight per-app string-encryption features.

Every feature is the unweighted arithmetic mean of a per-string metric over
an app's non-identifier strings: Shannon entropy (bits, code-point
frequencies), UTF-8 byte size, code-point length, counts of '=', '-', '/'
and '+', and repeated-character count (length minus distinct characters).
An app with zero strings gets an all-zero vector — itself a strong signal
for stripped apps — rather than NaNs.

feature_vector_from_strings counts each string's characters once, into one
dict: its values, in order of first appearance, pick the entropy terms, and
its size gives the distinct-character count. The integer metrics are counted
over the joined strings. The entropy term p * log2(p) of a character that
occurs c times in a string of length n depends only on the pair (c, n), so
it is computed once per pair, as (c / n) * log2(c / n), the expression
shannon_entropy uses, and kept in the module's memo, _TERMS. Two invariants
keep the means equal, bit for bit, to those of per_string_metrics: each term
is the same float shannon_entropy computes, and the terms are summed in the
same order by left_sum, within a string in first-appearance order and across
strings in string order.

left_sum is the one summation rule for every float mean in the package: a
plain left-to-right fold that starts from the integer 0, so the sum of
[-0.0] is +0.0. CPython 3.10 and 3.11's builtin sum is exactly that fold and
is what left_sum is there; from 3.12 the builtin sum of floats is
compensated, so left_sum folds with operator.add instead, and every output
keeps its bits on every supported Python.

The memo holds one entry per (count, length) pair met in a string longer
than one character. Row n holds at most n entries, and a string of length n
adds at most sqrt(2n) of them, since its distinct counts sum to at most n;
the memo never outgrows the characters measured (the 5,027-app confounded
corpus fills 5,317 entries in 252 rows). Threads that fill the same entry at
once are harmless: under the GIL each stores the same value.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, _count_elements
from dataclasses import dataclass
from functools import reduce
from operator import add

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


def _left_fold(values) -> float:
    """The sum of values, added one by one from the left onto the integer 0."""
    return reduce(add, values, 0)


# Before 3.12 the builtin sum is the same fold, and faster in the entropy loop.
left_sum = sum if sys.version_info < (3, 12) else _left_fold


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
    return -left_sum((c / n) * math.log2(c / n) for c in counts.values())


class _TermRow(dict):
    """The entropy terms of one string length n, keyed by count."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, c: int) -> float:
        n = self.n
        term = self[c] = (c / n) * math.log2(c / n)
        return term


class _TermTable(dict):
    """The rows of the entropy-term memo, keyed by string length."""

    def __missing__(self, n: int) -> _TermRow:
        row = self[n] = _TermRow(n)
        return row


_TERMS = _TermTable()


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
        # What Counter(s) holds, without the Counter: _count_elements is the
        # C helper that Counter.update calls.
        counts: dict[str, int] = {}
        _count_elements(counts, s)
        distinct += len(counts)
        if len(s) > 1:
            entropies.append(-left_sum(map(_TERMS[len(s)].__getitem__, counts.values())))
        else:
            entropies.append(0.0)
    joined = "".join(strings)
    length = len(joined)
    return FeatureVector(
        avg_entropy=left_sum(entropies) / n,
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
