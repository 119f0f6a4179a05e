import csv
import json
import random
from dataclasses import asdict

import numpy as np
import pytest

from strobe.dataset import (
    Corpus,
    Label,
    Sample,
    Split,
    SplitStrategy,
    _both_classes,
    _draw_family_train,
    family_disjoint_split,
    load_manifest,
    load_split,
    lofo_folds,
    lofo_splits,
    random_split,
    validate_split,
)
from strobe.errors import (
    BadHeader,
    BadValue,
    Degenerate,
    DuplicateId,
    TooFewFamilies,
    TooSmall,
    UnknownId,
    UnknownLabel,
)
from strobe.features import CSV_HEADER, FeatureVector

from oracles import reference_both_classes, reference_validate_split


def make_corpus(families: dict[str, list[str]]) -> Corpus:
    samples = []
    for fam, labels in families.items():
        for i, lab in enumerate(labels):
            samples.append(Sample(f"{fam}{i}", fam, Label(lab), features=FeatureVector()))
    return Corpus.from_samples(samples)


class ScriptedRng:
    """random.Random stand-in with a fixed randrange script."""

    def __init__(self, picks):
        self.picks = list(picks)

    def randrange(self, n):
        pick = self.picks.pop(0)
        assert pick < n
        return pick


# --- manifests --------------------------------------------------------------

def write_manifest(path, rows, header="sample_id,family,label,path"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def test_load_path_manifest(tmp_path):
    p = tmp_path / "m.csv"
    write_manifest(p, [
        "s1,famA,SE,famA/s1.apk",
        "s2,famA,NOT_SE,famA/s2.apk",
        "s3,famB,SE,famB/s3.apk",
        "s4,famB,NOT_SE,famB/s4.apk",
    ])
    corpus = load_manifest(p)
    assert len(corpus.samples) == 4
    assert corpus.families() == ["famA", "famB"]
    assert corpus.samples[0].path == "famA/s1.apk"
    assert corpus.samples[0].features is None


def test_load_feature_manifest(tmp_path):
    p = tmp_path / "f.csv"
    header = ("sample_id,family,label,avg_entropy,avg_wordsize,avg_length,"
              "avg_eq,avg_dash,avg_slash,avg_plus,avg_repeat,n_strings,decode_failures")
    write_manifest(p, ["s1,famA,SE,1.5,10,9.5,0.1,0,0,0.2,3,12,0"], header=header)
    corpus = load_manifest(p)
    fv = corpus.samples[0].features
    assert fv.avg_entropy == 1.5
    assert fv.n_strings == 12


@pytest.mark.parametrize("column, cell, reason", [
    ("avg_wordsize", "abc", "not a number"),
    ("avg_entropy", "nan", "not finite"),
    ("avg_repeat", "-inf", "not finite"),
    ("n_strings", "1.5", "not an integer"),
    ("n_strings", "-3", "negative"),
    ("decode_failures", "abc", "not an integer"),
    ("decode_failures", "-1", "negative"),
])
def test_bad_feature_cell_is_a_typed_error_naming_row_and_column(tmp_path, column, cell, reason):
    header = ("sample_id,family,label,avg_entropy,avg_wordsize,avg_length,"
              "avg_eq,avg_dash,avg_slash,avg_plus,avg_repeat,n_strings,decode_failures")
    good = "1.5,10,9.5,0.1,0,0,0.2,3,12,0".split(",")
    bad = list(good)
    bad[header.split(",").index(column) - 3] = cell
    p = tmp_path / "f.csv"
    write_manifest(p, ["s1,famA,SE," + ",".join(good), "s2,famA,SE," + ",".join(bad)], header=header)
    with pytest.raises(BadValue, match=f"row 3 column '{column}': '{cell}' is {reason}"):
        load_manifest(p)


def test_duplicate_id_rejected(tmp_path):
    p = tmp_path / "m.csv"
    write_manifest(p, ["s1,famA,SE,x.apk", "s1,famA,SE,y.apk"])
    with pytest.raises(DuplicateId):
        load_manifest(p)


def test_bad_header(tmp_path):
    p = tmp_path / "m.csv"
    write_manifest(p, ["s1,famA,SE"], header="id,family,label")
    with pytest.raises(BadHeader):
        load_manifest(p)


@pytest.mark.parametrize("text", [
    b"sample_id,family,label,path\ns1,fam\xffA,SE,x.apk\n",
    b"sample_id,fam\xffily,label,path\ns1,famA,SE,x.apk\n",
    ",".join(CSV_HEADER).encode() + b"\ns1,famA,SE,1.5,10,9.5,0.1,0,0,0.2,3,12,0\n"
    + b"s2,fam\xffA,SE,1.5,10,9.5,0.1,0,0,0.2,3,12,0\n",
    # A field past csv's default limit of 131,072 characters.
    b"sample_id,family,label,path\ns1," + b"f" * 200_000 + b",SE,x.apk\n",
], ids=["path-row", "header", "feature-row", "huge-field"])
def test_an_unreadable_manifest_is_bad_value(tmp_path, text):
    p = tmp_path / "m.csv"
    p.write_bytes(text)
    with pytest.raises(BadValue, match=r"m\.csv: unreadable CSV"):
        load_manifest(p)


def test_unknown_label(tmp_path):
    p = tmp_path / "m.csv"
    write_manifest(p, ["s1,famA,MAYBE,x.apk"])
    with pytest.raises(UnknownLabel):
        load_manifest(p)


@pytest.fixture(scope="module")
def large_corpus(tmp_path_factory):
    """Synthetic manifest at real-world scale: 24,553 rows, 71 families."""
    p = tmp_path_factory.mktemp("large") / "manifest.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "family", "label", "path"])
        for i in range(24_553):
            fam = f"fam{i % 71:02d}"
            label = "SE" if (i % 71) % 2 else "NOT_SE"
            w.writerow([f"s{i:05d}", fam, label, f"{fam}/s{i:05d}.apk"])
    return load_manifest(p)


def test_large_manifest_loads(large_corpus):
    assert len(large_corpus.samples) == 24_553
    assert len(large_corpus.families()) == 71


# --- random split ------------------------------------------------------------

def test_random_split_sizes():
    corpus = make_corpus({"A": ["SE"] * 5, "B": ["NOT_SE"] * 5})
    split = random_split(corpus, seed=1)
    assert len(split.train_ids) == 5 and len(split.test_ids) == 5
    assert split.train_ids | split.test_ids == {s.sample_id for s in corpus.samples}
    assert not split.train_ids & split.test_ids


def test_random_split_deterministic():
    corpus = make_corpus({"A": ["SE"] * 7, "B": ["NOT_SE"] * 6})
    assert random_split(corpus, seed=42) == random_split(corpus, seed=42)
    assert random_split(corpus, seed=42) != random_split(corpus, seed=43)


def test_random_split_ceiling_at_large_scale(large_corpus):
    split = random_split(large_corpus, seed=0)
    assert len(split.train_ids) == 12_277
    assert len(split.test_ids) == 12_276


def test_random_split_too_small():
    corpus = make_corpus({"A": ["SE"]})
    with pytest.raises(TooSmall):
        random_split(corpus, seed=0)


# --- family-disjoint split ----------------------------------------------------

def hand_corpus():
    # A:3, B:2, C:5 with both classes inside each family so any draw is valid.
    return make_corpus({
        "A": ["SE", "NOT_SE", "SE"],
        "B": ["SE", "NOT_SE"],
        "C": ["SE", "NOT_SE", "SE", "NOT_SE", "SE"],
    })


def test_draw_trace_c_then_a():
    # |S|/2 = 5. Draw C (5 samples, 5 <= 5 so keep drawing), then A -> 8 > 5.
    corpus = hand_corpus()
    train = np.flatnonzero(_draw_family_train(corpus, ScriptedRng([2, 0])))
    fams = {corpus.samples[i].family for i in train}
    assert fams == {"C", "A"}
    assert len(train) == 8


def test_draw_trace_absorbs_everything():
    # Draw order A, B, C: 3 <= 5, 5 <= 5, then C exhausts the corpus.
    corpus = hand_corpus()
    train = _draw_family_train(corpus, ScriptedRng([0, 0, 0]))
    assert train.all() and len(train) == 10


def test_family_disjoint_retries_and_never_returns_empty_test():
    corpus = hand_corpus()
    saw_retry = False
    for seed in range(60):
        split = family_disjoint_split(corpus, seed)
        assert split.test_ids, "accepted split must have a non-empty test side"
        report = validate_split(corpus, split)
        assert report.family_overlap == 0
        saw_retry = saw_retry or split.retries > 0
    assert saw_retry, "degenerate draws should occur and be retried on this corpus"


def test_family_disjoint_requires_two_families():
    corpus = make_corpus({"A": ["SE", "NOT_SE", "SE", "NOT_SE"]})
    with pytest.raises(TooFewFamilies):
        family_disjoint_split(corpus, 0)


def test_family_disjoint_degenerate_single_class_families():
    # Two families, both pure SE: no split can have both classes on each side.
    corpus = make_corpus({"A": ["SE"] * 3, "B": ["SE"] * 3})
    with pytest.raises(Degenerate):
        family_disjoint_split(corpus, 0)


def test_family_disjoint_deterministic():
    corpus = make_corpus({f"f{i}": ["SE", "NOT_SE"] for i in range(10)})
    assert family_disjoint_split(corpus, 5) == family_disjoint_split(corpus, 5)


@pytest.mark.parametrize("split", [random_split, family_disjoint_split])
def test_a_seed_and_its_negation_draw_different_splits(split):
    # random.Random(seed) seeds from abs(seed), which drew one split for s and -s.
    corpus = make_corpus({f"f{i}": ["SE", "NOT_SE"] for i in range(20)})
    for seed in (3, 7, 42):
        assert split(corpus, seed).train_ids != split(corpus, -seed).train_ids


def test_train_overshoot_bounded_by_largest_family():
    rng = random.Random(2)
    for trial in range(20):
        families = {f"f{i}": ["SE", "NOT_SE"] * rng.randrange(1, 5) for i in range(8)}
        corpus = make_corpus(families)
        largest = max(len(v) for v in families.values())
        split = family_disjoint_split(corpus, trial)
        n = len(corpus.samples)
        assert len(split.train_ids) <= n / 2 + largest


# --- LOFO ---------------------------------------------------------------------

def test_lofo_one_split_per_family(large_corpus):
    splits = lofo_splits(large_corpus)
    assert len(splits) == 71
    assert [s.held_out_family for s in splits] == large_corpus.families()


def test_lofo_two_families_complementary():
    corpus = make_corpus({"A": ["SE", "SE"], "B": ["NOT_SE", "NOT_SE"]})
    s1, s2 = lofo_splits(corpus)
    assert s1.test_ids == s2.train_ids
    assert s2.test_ids == s1.train_ids


def test_lofo_sides_never_share_families():
    corpus = make_corpus({f"f{i}": ["SE", "NOT_SE"] for i in range(6)})
    for split in lofo_splits(corpus):
        report = validate_split(corpus, split)
        assert report.family_overlap == 0
        assert report.test_family_count == 1


def test_lofo_requires_two_families():
    corpus = make_corpus({"A": ["SE", "NOT_SE"]})
    with pytest.raises(TooFewFamilies):
        lofo_splits(corpus)
    with pytest.raises(TooFewFamilies):
        lofo_folds(corpus)


def test_lofo_folds_are_the_rows_of_lofo_splits(large_corpus):
    # Families interleave row by row here, so no fold is a contiguous range.
    folds = lofo_folds(large_corpus)
    assert [fam for fam, _, _ in folds] == large_corpus.families()
    for (fam, train, test), split in zip(folds, lofo_splits(large_corpus), strict=True):
        assert fam == split.held_out_family
        assert np.array_equal(train, large_corpus.rows(split.train_ids))
        assert np.array_equal(test, large_corpus.rows(split.test_ids))


# --- validation & serialization ------------------------------------------------

def test_validate_detects_family_overlap():
    corpus = make_corpus({"A": ["SE", "NOT_SE"], "B": ["SE", "NOT_SE"]})
    split = Split(
        train_ids=frozenset({"A0", "B0"}),
        test_ids=frozenset({"A1", "B1"}),
        strategy=SplitStrategy.RANDOM,
        seed=0,
    )
    report = validate_split(corpus, split)
    assert report.family_overlap == 2
    assert report.partition_ok


def test_validate_random_split_overlaps_families(large_corpus):
    split = random_split(large_corpus, seed=3)
    report = validate_split(large_corpus, split)
    assert report.family_overlap > 0  # expected for random sampling, not an error


def test_validate_unknown_id():
    corpus = make_corpus({"A": ["SE", "NOT_SE"]})
    split = Split(frozenset({"A0", "ghost"}), frozenset({"A1"}), SplitStrategy.RANDOM, 0)
    with pytest.raises(UnknownId):
        validate_split(corpus, split)


def test_split_json_roundtrip(tmp_path):
    corpus = make_corpus({f"f{i}": ["SE", "NOT_SE"] for i in range(4)})
    split = family_disjoint_split(corpus, 9)
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split.to_json()))
    loaded = load_split(path)
    assert loaded == split
    payload = json.loads(path.read_text())
    assert payload["strategy"] == "FAMILY_DISJOINT"
    assert payload["train_ids"] == sorted(payload["train_ids"])


# --- corpus rows -----------------------------------------------------------------

def test_rows_are_corpus_order_for_any_iterable():
    corpus = make_corpus({"B": ["SE", "NOT_SE", "SE"], "A": ["NOT_SE", "SE"]})
    ids = ["A1", "B0", "B2", "A0"]
    want = [0, 2, 3, 4]
    for given in (ids, reversed(ids), set(ids), frozenset(ids), iter(ids), (*ids, "B0"), {i: 0 for i in ids}):
        assert corpus.rows(given).tolist() == want
    assert corpus.rows([]).tolist() == []
    assert [s.sample_id for s in corpus.by_ids(reversed(ids))] == ["B0", "B2", "A0", "A1"]


def test_rows_unknown_id():
    corpus = make_corpus({"A": ["SE", "NOT_SE"]})
    with pytest.raises(UnknownId):
        corpus.rows(["A0", "ghost"])
    with pytest.raises(UnknownId):
        corpus.by_ids({"ghost"})


def test_corpus_arrays_by_row():
    corpus = make_corpus({"B": ["SE", "NOT_SE"], "A": ["NOT_SE"]})
    assert corpus.y.tolist() == [1.0, -1.0, -1.0]
    assert corpus.family_codes.tolist() == [1, 1, 0]
    assert corpus.X.shape == (3, 8)
    assert corpus == make_corpus({"B": ["SE", "NOT_SE"], "A": ["NOT_SE"]})
    paths = Corpus.from_samples([Sample("s", "A", Label.SE, path="s.apk")])
    assert paths.X is None and paths.y.tolist() == [1.0]


def oracle_corpus():
    """12 families of 1 to 9 samples with random labels, some single-class."""
    rng = random.Random(12)
    return make_corpus({f"f{i:02d}": [rng.choice(["SE", "NOT_SE"]) for _ in range(rng.randrange(1, 10))]
                        for i in range(12)})


def hand_made_splits(corpus):
    ids = [s.sample_id for s in corpus.samples]
    half = len(ids) // 2
    cases = [
        (ids[:half + 3], ids[half:]),        # overlapping sides
        (ids[:half - 3], ids[half:]),        # rows on neither side
        (ids, []),                           # empty test side
        (ids[:1], ids[1:]),                  # single-sample side
        (ids[::2], ids[1::2]),               # interleaved partition
    ]
    return [Split(frozenset(a), frozenset(b), SplitStrategy.RANDOM, 0) for a, b in cases]


def test_row_validation_matches_id_oracle():
    corpus = oracle_corpus()
    splits = [random_split(corpus, seed) for seed in range(5)]
    splits += [family_disjoint_split(corpus, seed) for seed in range(5)]
    splits += lofo_splits(corpus)
    splits += hand_made_splits(corpus)
    for split in splits:
        assert asdict(validate_split(corpus, split)) == reference_validate_split(corpus, split)
        for ids in (split.train_ids, split.test_ids):
            assert _both_classes(corpus, corpus.rows(ids)) == reference_both_classes(corpus, ids)


def test_row_validation_unknown_id_matches_oracle():
    corpus = oracle_corpus()
    split = Split(frozenset({"f000", "ghost"}), frozenset({"f001"}), SplitStrategy.RANDOM, 0)
    assert reference_validate_split(corpus, split) is None
    with pytest.raises(UnknownId):
        validate_split(corpus, split)
