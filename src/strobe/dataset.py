"""Labeled corpora, manifests, and the three train/test split strategies.

The family-disjoint splitter moves whole families into the training side
until it holds more than half the corpus; nothing from a family ever sits on
both sides. Degenerate draws (empty test set, or a side missing a class) are
rejected and retried with the next derived seed.

A corpus also holds its labels, family codes and feature matrix as arrays
indexed by row; Corpus.rows turns a split's id sets into rows of them, and
lofo_folds gives the leave-one-family-out sides as rows directly.
"""

from __future__ import annotations

import csv
import enum
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .errors import (
    BadHeader,
    BadValue,
    Degenerate,
    DuplicateId,
    TooFewFamilies,
    TooSmall,
    UnknownId,
    UnknownLabel,
    is_json_int,
    numpy_seed,
    read_json,
)
from .features import CSV_HEADER, FEATURE_NAMES, FeatureVector

MAX_SPLIT_RETRIES = 1000

PATH_HEADER = ["sample_id", "family", "label", "path"]


class Label(enum.Enum):
    SE = "SE"
    NOT_SE = "NOT_SE"

    @classmethod
    def parse(cls, text: str) -> "Label":
        # A dict lookup: calling the class runs Enum's Python-level lookup,
        # once per manifest row.
        try:
            return _LABELS[text]
        except KeyError:
            raise UnknownLabel(f"label must be SE or NOT_SE, got {text!r}") from None


_LABELS = {label.value: label for label in Label}


class SplitStrategy(enum.Enum):
    RANDOM = "RANDOM"
    FAMILY_DISJOINT = "FAMILY_DISJOINT"
    LOFO = "LOFO"


@dataclass(frozen=True)
class Sample:
    sample_id: str
    family: str
    label: Label
    features: FeatureVector | None = None
    path: str | None = None
    decode_failures: int = 0  # string entries of the APK that failed to decode


@dataclass(frozen=True)
class Corpus:
    samples: tuple[Sample, ...]

    @classmethod
    def from_samples(cls, samples: list[Sample]) -> "Corpus":
        """The corpus of the samples; a repeated sample_id raises DuplicateId."""
        corpus = cls(samples=tuple(samples))
        corpus.id_index  # built now, so that a duplicate raises here
        return corpus

    def families(self) -> list[str]:
        return sorted({s.family for s in self.samples})

    # The indexes and arrays below are built on first use and kept out of ==.

    @cached_property
    def id_index(self) -> dict[str, int]:
        """Row of each sample_id."""
        index: dict[str, int] = {}
        for i, s in enumerate(self.samples):
            if index.setdefault(s.sample_id, i) != i:
                raise DuplicateId(f"duplicate sample_id {s.sample_id!r}")
        return index

    @cached_property
    def y(self) -> np.ndarray:
        """Labels by row: +1.0 for SE, -1.0 for NOT_SE."""
        return _labels(self.samples)

    @cached_property
    def family_codes(self) -> np.ndarray:
        """Family by row, as its position in families()."""
        code = {fam: i for i, fam in enumerate(self.families())}
        return np.fromiter((code[s.family] for s in self.samples), dtype=np.intp,
                           count=len(self.samples))

    @cached_property
    def X(self) -> np.ndarray | None:
        """Raw features by row (n, 8); None unless every sample has features."""
        if any(s.features is None for s in self.samples):
            return None
        return design_matrix(self.samples)[0]

    def rows(self, ids) -> np.ndarray:
        """Corpus positions of the given ids, sorted and each once."""
        try:
            positions = np.fromiter(map(self.id_index.__getitem__, ids), dtype=np.intp)
        except KeyError as exc:
            raise UnknownId(f"unknown sample {exc.args[0]!r}") from None
        # A mask sorts and drops repeats in linear time; np.unique is slower.
        hit = np.zeros(len(self.samples), dtype=bool)
        hit[positions] = True
        return np.flatnonzero(hit)

    def by_ids(self, ids) -> list[Sample]:
        """Samples for the given ids, in corpus order."""
        return [self.samples[i] for i in self.rows(ids).tolist()]


def _labels(samples) -> np.ndarray:
    return np.asarray([1.0 if s.label is Label.SE else -1.0 for s in samples])


def design_matrix(samples) -> tuple[np.ndarray, np.ndarray]:
    """Raw features (n, 8) and labels (n,), +1 for SE and -1 for NOT_SE."""
    # fromiter builds no list of per-sample tuples (about 0.5 MB on the
    # 5,027-app corpus).
    width = len(FEATURE_NAMES)
    X = np.fromiter(chain.from_iterable(s.features.as_tuple() for s in samples),
                    dtype=float, count=width * len(samples)).reshape(-1, width)
    return X, _labels(samples)


@dataclass(frozen=True)
class Split:
    train_ids: frozenset[str]
    test_ids: frozenset[str]
    strategy: SplitStrategy
    seed: int
    held_out_family: str | None = None
    retries: int = 0

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "seed": self.seed,
            "retries": self.retries,
            "train_ids": sorted(self.train_ids),
            "test_ids": sorted(self.test_ids),
            "held_out_family": self.held_out_family,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Split":
        """The split of a to_json object; a malformed object, or one with ids
        on both sides, raises BadValue. Rows on neither side are allowed."""
        try:
            sides, strategy = (obj["train_ids"], obj["test_ids"]), SplitStrategy(obj["strategy"])
            seed, retries, family = obj["seed"], obj.get("retries", 0), obj.get("held_out_family")
        except (KeyError, TypeError, ValueError) as exc:
            raise BadValue(f"malformed split: {exc!r}") from None
        # A string is not a list of its characters, nor a bool an integer.
        if not (all(type(side) is list and all(type(i) is str for i in side) for side in sides)
                and is_json_int(seed) and is_json_int(retries) and (family is None or type(family) is str)):
            raise BadValue("malformed split: the ids must be lists of strings, seed and retries "
                           "integers, and held_out_family a string or null")
        split = cls(frozenset(sides[0]), frozenset(sides[1]), strategy, seed, family, retries)
        shared = len(split.train_ids & split.test_ids)
        if shared:
            raise BadValue(f"malformed split: {shared} sample ids are on both sides")
        return split


@dataclass(frozen=True)
class ValidationReport:
    partition_ok: bool
    family_overlap: int
    train_class_counts: dict[str, int]
    test_class_counts: dict[str, int]
    train_family_count: int
    test_family_count: int


def load_manifest(path: str | Path) -> Corpus:
    """Load a corpus from a manifest CSV.

    Two layouts are accepted: sample_id,family,label,path (features to be
    extracted later from the referenced APKs) and the feature CSV written by
    the extractor (features inline). A file csv cannot read raises BadValue.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise BadHeader("empty manifest") from None
            if header == PATH_HEADER:
                return Corpus.from_samples(_parse_rows(reader, _path_sample, len(header)))
            if tuple(header) == CSV_HEADER:
                return Corpus.from_samples(_parse_rows(reader, _feature_sample, len(header)))
            raise BadHeader(f"unrecognized manifest header {header!r}")
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field over csv's size limit
        raise BadValue(f"{path}: unreadable CSV: {exc}") from None


def _parse_rows(rows: Iterable[list[str]], parse, width: int) -> list[Sample]:
    """parse(row_no, row) over the non-blank rows, each checked to be width cells wide."""
    samples: list[Sample] = []
    for row_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != width:
            raise BadHeader(f"row {row_no} has {len(row)} columns, expected {width}")
        samples.append(parse(row_no, row))
    return samples


def _path_sample(row_no: int, row: list[str]) -> Sample:
    return Sample(row[0], row[1], Label.parse(row[2]), path=row[3])


def _feature_sample(row_no: int, row: list[str]) -> Sample:
    label = Label.parse(row[2])
    values = [_feature_cell(row_no, name, v) for name, v in zip(FEATURE_NAMES, row[3:11])]
    fv = FeatureVector(*values, n_strings=_count_cell(row_no, "n_strings", row[11]))
    return Sample(row[0], row[1], label, features=fv,
                  decode_failures=_count_cell(row_no, "decode_failures", row[12]))


def _feature_cell(row_no: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise BadValue(f"row {row_no} column {column!r}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise BadValue(f"row {row_no} column {column!r}: {text!r} is not finite")
    return value


def _count_cell(row_no: int, column: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise BadValue(f"row {row_no} column {column!r}: {text!r} is not an integer") from None
    if value < 0:
        raise BadValue(f"row {row_no} column {column!r}: {text!r} is negative")
    return value


def random_split(corpus: Corpus, seed: int) -> Split:
    """Uniformly random half/half partition (train gets the ceiling)."""
    n = len(corpus.samples)
    if n < 2:
        raise TooSmall(f"need at least 2 samples, got {n}")
    ids = [s.sample_id for s in corpus.samples]
    rng = random.Random(numpy_seed(seed))
    rng.shuffle(ids)
    cut = (n + 1) // 2
    return Split(
        train_ids=frozenset(ids[:cut]),
        test_ids=frozenset(ids[cut:]),
        strategy=SplitStrategy.RANDOM,
        seed=seed,
    )


def family_disjoint_split(corpus: Corpus, seed: int) -> Split:
    """Split by repeatedly moving whole random families into the train side.

    Families are drawn uniformly without replacement while the train side
    holds at most half the samples. A draw order can absorb every family or
    strand one class on one side; such outcomes are rejected and the split is
    retried with the next derived seed, up to MAX_SPLIT_RETRIES times.
    """
    if len(corpus.families()) < 2:
        raise TooFewFamilies("family-disjoint split needs at least 2 families")

    for retry in range(MAX_SPLIT_RETRIES):
        in_train = _draw_family_train(corpus, random.Random(numpy_seed(seed + retry)))
        if not in_train.all() and _both_classes(corpus, in_train) and _both_classes(corpus, ~in_train):
            # id_index holds the ids in row order.
            return Split(
                train_ids=frozenset(compress(corpus.id_index, in_train)),
                test_ids=frozenset(compress(corpus.id_index, ~in_train)),
                strategy=SplitStrategy.FAMILY_DISJOINT,
                seed=seed,
                retries=retry,
            )
    raise Degenerate(f"no valid family-disjoint split in {MAX_SPLIT_RETRIES} retries")


def _draw_family_train(corpus: Corpus, rng) -> np.ndarray:
    """One pass of the draw loop: pull random whole families into the train
    side while it holds at most half the samples; returns the train side as
    a row mask. rng needs randrange only."""
    sizes = np.bincount(corpus.family_codes).tolist()
    remaining = list(range(len(sizes)))
    drawn = np.zeros(len(sizes), dtype=bool)
    n_train = 0
    # Absorbing every family leaves the test side empty; the caller rejects it.
    while n_train <= len(corpus.samples) / 2 and remaining:
        code = remaining.pop(rng.randrange(len(remaining)))
        drawn[code] = True
        n_train += sizes[code]
    return drawn[corpus.family_codes]


def _both_classes(corpus: Corpus, rows: np.ndarray) -> bool:
    """Whether the rows (positions or a mask) hold both labels."""
    y = corpus.y[rows]
    return bool((y > 0).any() and (y < 0).any())


def lofo_folds(corpus: Corpus) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(family, training rows, test rows) per family in families() order:
    that family is the test side, the rest train."""
    families = corpus.families()
    if len(families) < 2:
        raise TooFewFamilies("leave-one-family-out needs at least 2 families")
    folds = []
    for code, fam in enumerate(families):
        held_out = corpus.family_codes == code
        folds.append((fam, np.flatnonzero(~held_out), np.flatnonzero(held_out)))
    return folds


def lofo_splits(corpus: Corpus) -> list[Split]:
    """The folds of lofo_folds as splits of sample ids."""
    ids = [s.sample_id for s in corpus.samples]
    return [Split(train_ids=frozenset(ids[i] for i in train.tolist()),
                  test_ids=frozenset(ids[i] for i in test.tolist()),
                  strategy=SplitStrategy.LOFO, seed=0, held_out_family=fam)
            for fam, train, test in lofo_folds(corpus)]


def validate_split(corpus: Corpus, split: Split) -> ValidationReport:
    """Check partition correctness and count family overlap between sides."""
    train, test = corpus.rows(split.train_ids), corpus.rows(split.test_ids)
    # A partition puts every row on exactly one side.
    hits = np.bincount(np.concatenate([train, test]), minlength=len(corpus.samples))
    # Whether each family has a row on the train side, and on the test side.
    train_families, test_families = (
        np.bincount(corpus.family_codes[r], minlength=len(corpus.families())) > 0 for r in (train, test))
    return ValidationReport(
        partition_ok=bool((hits == 1).all()),
        family_overlap=int(np.count_nonzero(train_families & test_families)),
        train_class_counts=_class_counts(corpus, train),
        test_class_counts=_class_counts(corpus, test),
        train_family_count=int(np.count_nonzero(train_families)),
        test_family_count=int(np.count_nonzero(test_families)),
    )


def _class_counts(corpus: Corpus, rows: np.ndarray) -> dict[str, int]:
    se = int(np.count_nonzero(corpus.y[rows] > 0))
    return {Label.SE.value: se, Label.NOT_SE.value: len(rows) - se}


def load_split(path: str | Path) -> Split:
    return Split.from_json(read_json(path, BadValue))
