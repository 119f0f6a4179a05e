"""Acceptance suite.

Each test covers one shipping criterion at its stated tolerance and prints a
single PASS/FAIL line (run with -s to see them live). The corpus-level tests
run on the frozen synthetic corpora from conftest.
"""

import hashlib
import json
import multiprocessing
import os
import random
import struct
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from strobe.apk import extract_app_strings
from strobe.dataset import (
    Label,
    Sample,
    SplitStrategy,
    Corpus,
    family_disjoint_split,
    lofo_folds,
    lofo_splits,
    random_split,
    validate_split,
)
from strobe.dex import classify_strings, parse_dex
from strobe.errors import DecodeError
from strobe.evaluation import (
    EvalResult,
    LearnerKind,
    box_stats,
    holdout_eval,
    prequential_eval,
    run_experiment,
    run_lofo,
    train_on_split,
    train_on_splits,
)
from strobe.features import FeatureVector, feature_vector_from_strings, shannon_entropy
from strobe.heuristic import detect_dexguard, zero_string_fraction
from strobe.learners import (
    DEFAULT_HYPERPARAMS,
    DEFAULT_ONLINE_ENSEMBLE,
    DEFAULT_POISSON_LAMBDA,
    HingeHyperparams,
    batch_train,
    default_grid,
    design_matrix,
    grid_search,
    hinge_sgd,
    online_init,
    online_predict,
    predict,
)
from strobe.mutf8 import decode_mutf8, encode_mutf8
from strobe.synth import DexSpec, build_dex

from oracles import (
    ReplayEnsemble,
    hinge_objective,
    hinge_subgradient,
    loop_sum,
    reference_adler32,
    reference_batch_train,
    reference_box_stats,
    reference_decision,
    reference_decode_mutf8,
    reference_feature_means,
    reference_grid_search,
    reference_holdout_eval,
    reference_online_predict,
    reference_sha1,
)

BASE_SEED = 2026


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"CRITERION {number:2d} FAIL: {description}")
        raise
    print(f"CRITERION {number:2d} PASS: {description}")


def _experiment_grid(corpus, reps):
    out = {}
    for strategy in (SplitStrategy.RANDOM, SplitStrategy.FAMILY_DISJOINT):
        for learner in (LearnerKind.BATCH, LearnerKind.ONLINE):
            summary = run_experiment(corpus, strategy, learner,
                                     repetitions=reps, base_seed=BASE_SEED)
            out[(strategy, learner)] = summary
    return out


def test_criterion_01_memorization_gap(confounded):
    with criterion(1, "random >= 0.85, family-disjoint in [0.40, 0.62], larger variance"):
        grid = _experiment_grid(confounded["corpus"], reps=20)
        for learner in (LearnerKind.BATCH, LearnerKind.ONLINE):
            rand = grid[(SplitStrategy.RANDOM, learner)]
            disj = grid[(SplitStrategy.FAMILY_DISJOINT, learner)]
            assert rand.mean_accuracy >= 0.85, (learner, rand.mean_accuracy)
            assert 0.40 <= disj.mean_accuracy <= 0.62, (learner, disj.mean_accuracy)
            var_rand = float(np.var(rand.accuracies()))
            var_disj = float(np.var(disj.accuracies()))
            assert var_disj > var_rand, (learner, var_disj, var_rand)


def test_criterion_02_control_corpus(control):
    with criterion(2, "control corpus reaches >= 0.90 under both split strategies"):
        grid = _experiment_grid(control["corpus"], reps=20)
        for summary in grid.values():
            assert summary.mean_accuracy >= 0.90, (
                summary.strategy, summary.learner, summary.mean_accuracy)


@pytest.fixture(scope="module")
def confounded_lofo(confounded):
    """run_lofo on the frozen corpus at BASE_SEED, run once per learner."""
    runs = {}

    def run(learner):
        if learner not in runs:
            runs[learner] = run_lofo(confounded["corpus"], learner, base_seed=BASE_SEED)
        return runs[learner]

    return run


def test_criterion_03_lofo(confounded_lofo):
    with criterion(3, "LOFO: weighted accuracy in [0.40, 0.65], SE F-score <= 0.5, spread >= 0.5"):
        for learner in (LearnerKind.BATCH, LearnerKind.ONLINE):
            summary = confounded_lofo(learner)
            assert 0.40 <= summary.weighted_accuracy <= 0.65, (learner, summary.weighted_accuracy)
            assert summary.pooled.f1 <= 0.5, (learner, summary.pooled.f1)
            accs = [fr.result.accuracy for fr in summary.per_family]
            assert max(accs) - min(accs) >= 0.5, (learner, min(accs), max(accs))


# SHA-256 of json.dumps(summary.to_json(), sort_keys=True) on the frozen
# confounded corpus at BASE_SEED. Any change to splitting, training or
# scoring that moves one bit of the drivers' output changes a digest.
LOFO_DIGESTS = {
    LearnerKind.BATCH: "871bb5240ba9fa53771110818ae3c0274e7518a64b90ba0131e59110cdc2bc5d",
    LearnerKind.ONLINE: "d1ec64ee7978618f5ad3afe78b612de63816b17eabc73482d7dddb8631c85a35",
}
EXPERIMENT_DIGESTS = {  # 3 repetitions
    (SplitStrategy.RANDOM, LearnerKind.BATCH):
        "0c520feec00b59f4b56c9015c281798e098df65600b79eb27770d9a7d2aac966",
    (SplitStrategy.RANDOM, LearnerKind.ONLINE):
        "fb0298d2c06aa89cd225990e21e1313f2473b678f8585135922f86dc4bda26b5",
    (SplitStrategy.FAMILY_DISJOINT, LearnerKind.BATCH):
        "fc1395b07ebeeb744106126fb6921c2ff01bc2aba8d08dd25061cbb26556d8a4",
    (SplitStrategy.FAMILY_DISJOINT, LearnerKind.ONLINE):
        "bbf207858fb66a06230c18948642478260643d476e2bfb0d7ff430b58133a615",
}


def _json_digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary.to_json(), sort_keys=True).encode()).hexdigest()


def test_lofo_outputs_match_pinned_digests(confounded_lofo):
    for learner, digest in LOFO_DIGESTS.items():
        assert _json_digest(confounded_lofo(learner)) == digest, learner


def test_experiment_outputs_match_pinned_digests(confounded):
    grid = _experiment_grid(confounded["corpus"], reps=3)
    assert {key: _json_digest(summary) for key, summary in grid.items()} == EXPERIMENT_DIGESTS


def test_criterion_04_heuristic(stripped):
    with criterion(4, "stripped-corpus heuristic: recall 1.0, zero false positives, 100% zero-string"):
        corpus, base = stripped["corpus"], stripped["dir"]
        counts = []
        tp = fn = fp = tn = 0
        for s in corpus.samples:
            n_strings = len(extract_app_strings(base / s.path).non_identifier_strings)
            counts.append(n_strings)
            verdict = detect_dexguard(n_strings)
            if s.label is Label.SE:
                tp += verdict is Label.SE
                fn += verdict is not Label.SE
            else:
                assert n_strings >= 10
                fp += verdict is Label.SE
                tn += verdict is not Label.SE
        assert tp and tp / (tp + fn) == 1.0
        assert fp == 0
        assert zero_string_fraction(counts) == 1.0


def test_criterion_05_dex_roundtrip():
    with criterion(5, "200 dex round-trips with independently verified adler-32 and SHA-1"):
        rng = random.Random(20_26)
        pool = "abcdefghijklmnop -/=+éΩ中\U0001F600"
        for case in range(200):
            ids = {f"Lcom/r{case}/T{i};" if i % 2 else f"member{case}_{i}"
                   for i in range(rng.randrange(1, 7))}
            payload = {"".join(rng.choice(pool) for _ in range(rng.randrange(1, 30)))
                       for _ in range(rng.randrange(0, 15))} - ids
            # The first id names the type, the rest alternate method and field.
            first, *rest = sorted(ids)
            blob = build_dex(DexSpec(types=(first,), methods=tuple(rest[0::2]),
                                     fields=tuple(rest[1::2]),
                                     non_identifier_strings=tuple(sorted(payload))))
            dex = parse_dex(blob)
            assert {dex.strings[i] for i in dex.identifier_ids} == ids
            assert set(classify_strings(dex)) == payload
            assert sorted(dex.strings) == sorted(ids | payload)
            assert struct.unpack_from("<I", blob, 8)[0] == reference_adler32(blob[12:])
            assert blob[12:32] == reference_sha1(blob[32:])


def _decode_or_none(data):
    try:
        return decode_mutf8(data)
    except DecodeError:
        return None


def _first_mutf8_disagreement(b0s: range) -> str | None:
    """The first input of 1 to 3 bytes starting with a byte in b0s on which
    decode_mutf8 and the reference disagree, as hex; None if there is none."""
    buf1 = bytearray(1)
    buf2 = bytearray(2)
    buf3 = bytearray(3)
    for b0 in b0s:
        buf1[0] = b0
        if _decode_or_none(buf1) != reference_decode_mutf8(buf1):
            return bytes(buf1).hex()
        buf2[0] = b0
        buf3[0] = b0
        for b1 in range(256):
            buf2[1] = b1
            if _decode_or_none(buf2) != reference_decode_mutf8(buf2):
                return bytes(buf2).hex()
            buf3[1] = b1
            for b2 in range(256):
                buf3[2] = b2
                if _decode_or_none(buf3) != reference_decode_mutf8(buf3):
                    return bytes(buf3).hex()
    return None


def test_criterion_06_mutf8_oracle():
    with criterion(6, "MUTF-8 decoder agrees with the codec-based reference (exhaustive <= 3 bytes)"):
        assert _decode_or_none(b"") == reference_decode_mutf8(b"")
        # The 16,843,009 inputs of 1 to 3 bytes, split by first byte over up
        # to 4 worker processes; inline when only one CPU is available.
        workers = min(4, len(os.sched_getaffinity(0)))
        if workers > 1:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
                found = list(pool.map(_first_mutf8_disagreement,
                                      [range(w, 256, workers) for w in range(workers)]))
        else:
            found = [_first_mutf8_disagreement(range(256))]
        assert found == [None] * len(found), f"disagreement on {found}"

        rng = random.Random(606)
        seeds = [encode_mutf8(chr(c)) for c in (0x41, 0x7F1, 0x8001, 0x1F600, 0)]
        for _ in range(10_000):
            if rng.random() < 0.5:
                data = bytes(rng.randrange(256) for _ in range(rng.randrange(4, 32)))
            else:
                data = bytearray(b"".join(rng.choice(seeds) for _ in range(rng.randrange(1, 9))))
                for _ in range(rng.randrange(0, 3)):
                    data[rng.randrange(len(data))] = rng.randrange(256)
                data = bytes(data)
            assert _decode_or_none(data) == reference_decode_mutf8(data), data.hex()


def test_criterion_07_feature_oracle():
    with criterion(7, "feature vectors match a brute-force recomputation within 1e-9"):
        assert shannon_entropy("aaaa") == 0.0
        assert shannon_entropy("ab") == 1.0
        assert shannon_entropy("abcd") == 2.0
        rng = random.Random(707)
        pool = "abcdefghijklmnopqrstuvwxyz0123456789 =/-+éΩ中\U0001F600"
        strings = ["".join(rng.choice(pool) for _ in range(rng.randrange(0, 50)))
                   for _ in range(1000)]
        got = feature_vector_from_strings(strings).as_tuple()
        want = reference_feature_means(strings)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9


def test_criterion_08_split_invariants(confounded):
    with criterion(8, "100 leak-free family-disjoint splits, exact random sizes, retry on degenerate draws"):
        corpus = confounded["corpus"]
        n = len(corpus.samples)
        for i in range(100):
            split = family_disjoint_split(corpus, BASE_SEED + i)
            report = validate_split(corpus, split)
            assert report.partition_ok and report.family_overlap == 0
            assert split.test_ids
        for i in range(100):
            split = random_split(corpus, BASE_SEED + i)
            assert len(split.train_ids) == (n + 1) // 2
            assert len(split.test_ids) == n // 2

        hand = Corpus.from_samples(
            [Sample(f"A{i}", "A", Label.SE if i % 2 else Label.NOT_SE, features=FeatureVector())
             for i in range(3)]
            + [Sample(f"B{i}", "B", Label.SE if i % 2 else Label.NOT_SE, features=FeatureVector())
               for i in range(2)]
            + [Sample(f"C{i}", "C", Label.SE if i % 2 else Label.NOT_SE, features=FeatureVector())
               for i in range(5)]
        )
        saw_retry = False
        for seed in range(80):
            split = family_disjoint_split(hand, seed)
            assert split.test_ids, "accepted split must never have an empty test side"
            saw_retry = saw_retry or split.retries > 0
        assert saw_retry, "the absorbing draw order must occur and be retried"


def test_criterion_09_prequential_identity():
    with criterion(9, "prequential accuracy equals the mean of the correctness log, exactly"):
        for trial in range(50):
            rng = random.Random(trial)
            stream = [
                Sample(f"s{i}", "f", Label.SE if rng.random() < 0.5 else Label.NOT_SE,
                       features=FeatureVector(avg_entropy=rng.uniform(0, 6), n_strings=1))
                for i in range(rng.randrange(5, 80))
            ]
            model = online_init(k=7, lam_poisson=6.0, seed=trial)
            result = prequential_eval(model, stream)
            assert result.final_accuracy == sum(result.per_sample_correct) / len(stream)

        class FakePoisson:
            def __init__(self):
                self.left = 4

            def poisson(self, lam, size):
                self.left -= int(np.prod(size))
                return np.ones(size, dtype=np.int64)

        model = online_init(k=1, seed=0)
        model.rng = FakePoisson()
        stream = [
            Sample("s1", "f", Label.SE, features=FeatureVector(avg_entropy=4.0, n_strings=1)),
            Sample("s2", "f", Label.SE, features=FeatureVector(avg_entropy=4.2, n_strings=1)),
            Sample("s3", "f", Label.NOT_SE, features=FeatureVector(avg_entropy=0.0, n_strings=1)),
            Sample("s4", "f", Label.NOT_SE, features=FeatureVector(avg_entropy=0.0, n_strings=1)),
        ]
        result = prequential_eval(model, stream)
        assert result.per_sample_correct == (False, True, False, True)


def test_criterion_10_box_stats():
    with criterion(10, "box statistics agree with the sort-based oracle on 1,000 random lists"):
        b = box_stats([1, 2, 3, 4, 100])
        assert (b.median, b.q1, b.q3, tuple(b.outliers)) == (3.0, 2.0, 4.0, (100.0,))
        rng = random.Random(1010)
        for _ in range(1000):
            values = [rng.uniform(-100, 100) for _ in range(rng.randrange(1, 60))]
            got = box_stats(values)
            want = reference_box_stats(values)
            # One summation rule on both sides, so the means are equal.
            assert got.mean == want["mean"]
            for key in ("median", "q1", "q3", "whisker_lo", "whisker_hi"):
                assert abs(getattr(got, key) - want[key]) <= 1e-12
            assert list(got.outliers) == pytest.approx(want["outliers"])


def test_criterion_11_batch_learner():
    with criterion(11, "separable sets fit exactly, subgradient matches finite differences, grid <= 200"):
        train = []
        for i in range(25):
            train.append(Sample(f"p{i}", "f", Label.SE,
                                features=FeatureVector(avg_entropy=9 + 0.01 * i, n_strings=1)))
            train.append(Sample(f"n{i}", "f", Label.NOT_SE,
                                features=FeatureVector(avg_entropy=0.01 * i, n_strings=1)))
        model = batch_train(*design_matrix(train), seed=0)
        assert all(predict(model, s.features) is s.label for s in train)

        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 8))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        lam, eps = 0.03, 1e-6
        checked = 0
        while checked < 10:
            w = rng.normal(size=8)
            b = float(rng.normal())
            if np.any(np.abs(y * (X @ w + b) - 1.0) < 1e-3):
                continue
            grad_w, grad_b = hinge_subgradient(w, b, X, y, lam)
            for j in range(8):
                step = np.zeros(8)
                step[j] = eps
                num = (hinge_objective(w + step, b, X, y, lam)
                       - hinge_objective(w - step, b, X, y, lam)) / (2 * eps)
                assert abs(num - grad_w[j]) <= 1e-4
            num_b = (hinge_objective(w, b + eps, X, y, lam)
                     - hinge_objective(w, b - eps, X, y, lam)) / (2 * eps)
            assert abs(num_b - grad_b) <= 1e-4
            checked += 1

        assert len(default_grid()) <= 200


def test_online_ensemble_matches_replay_oracle(confounded):
    """The weighted-merge ensemble against per-sample replay on a frozen
    family-disjoint split: equal counts and draws, means and M2 within 1e-9,
    identical votes on every test sample."""
    corpus = confounded["corpus"]
    split = family_disjoint_split(corpus, BASE_SEED)
    model = train_on_split(corpus, corpus.rows(split.train_ids), LearnerKind.ONLINE, BASE_SEED)

    train = corpus.by_ids(split.train_ids)
    oracle = ReplayEnsemble(DEFAULT_ONLINE_ENSEMBLE, DEFAULT_POISSON_LAMBDA, BASE_SEED)
    order = np.random.default_rng(np.random.SeedSequence([BASE_SEED, 1])).permutation(len(train))
    for i in order:
        s = train[i]
        oracle.update(np.asarray(s.features.as_tuple()), int(s.label is Label.SE))

    assert oracle.n_draws == DEFAULT_ONLINE_ENSEMBLE * len(train)
    oracle.assert_state_matches(model)
    for s in corpus.by_ids(split.test_ids):
        expected = Label.SE if oracle.predict(np.asarray(s.features.as_tuple())) else Label.NOT_SE
        assert online_predict(model, s.features) is expected


def test_lockstep_lofo_matches_per_sample_loop(confounded):
    """Every LOFO fold of the frozen corpus, trained together, against the
    per-sample loop bit for bit: all folds for 2 epochs, the first and the
    last fold with the default hyperparameters (30 epochs)."""
    corpus = confounded["corpus"]
    splits = lofo_splits(corpus)
    seeds = [BASE_SEED + i for i in range(len(splits))]
    rows = [corpus.rows(split.train_ids) for split in splits]
    every_fold = list(range(len(splits)))
    two_epochs = hinge_sgd(corpus.X, corpus.y, list(zip(rows, seeds)),
                           [(i, HingeHyperparams(epochs=2)) for i in every_fold])
    ends = [0, len(splits) - 1]
    default = train_on_splits(corpus, [rows[i] for i in ends], [seeds[i] for i in ends], LearnerKind.BATCH)
    for hp, chosen, models in ((HingeHyperparams(epochs=2), every_fold, two_epochs),
                               (DEFAULT_HYPERPARAMS, ends, default)):
        for i, model in zip(chosen, models, strict=True):
            w, b, mean, std = reference_batch_train(
                corpus.by_ids(splits[i].train_ids), hp, seeds[i])
            assert np.array_equal(model.weights, w) and model.bias == b, splits[i].held_out_family
            assert np.array_equal(model.scaler.mean, mean) and np.array_equal(model.scaler.std, std)


def test_lockstep_lofo_matches_per_sample_loop_on_control(control, monkeypatch):
    """Every LOFO fold of the control corpus, trained together with the
    default hyperparameters (30 epochs) as run_lofo trains them, against the
    per-sample loop bit for bit, signed zeros included. About 1% of these
    lockstep steps update a fold, so hinge_sgd takes most of them in batches
    from the shrink-only trajectory: fewer than a tenth of the steps compute
    their margins one step at a time, as np.vecdot of the (folds, 9) weights."""
    corpus = control["corpus"]
    splits = lofo_splits(corpus)
    seeds = [BASE_SEED + i for i in range(len(splits))]
    rows = [corpus.rows(split.train_ids) for split in splits]
    one_step = []
    vecdot = np.vecdot

    def counting_vecdot(a, b, out):
        if a.ndim == 2:
            one_step.append(len(a))
        return vecdot(a, b, out)

    monkeypatch.setattr(np, "vecdot", counting_vecdot)
    models = hinge_sgd(corpus.X, corpus.y, list(zip(rows, seeds)),
                       [(i, DEFAULT_HYPERPARAMS) for i in range(len(splits))])
    monkeypatch.undo()
    assert 0 < len(one_step) < max(map(len, rows)) * DEFAULT_HYPERPARAMS.epochs / 10
    for i, model in enumerate(models):
        w, b, mean, std = reference_batch_train(
            corpus.by_ids(splits[i].train_ids), DEFAULT_HYPERPARAMS, seeds[i])
        assert np.array_equal(model.weights, w) and model.bias == b, splits[i].held_out_family
        assert np.array_equal(np.signbit(model.weights), np.signbit(w))
        assert np.signbit(model.bias) == np.signbit(b)
        assert np.array_equal(model.scaler.mean, mean) and np.array_equal(model.scaler.std, std)


def test_lockstep_grid_search_matches_reference_loop(confounded):
    """The grid point chosen on a 300-sample slice of the frozen corpus
    equals the one-fit-at-a-time grid loop's, negative-shrink points included."""
    train = list(confounded["corpus"].samples[::16][:300])
    grid = default_grid()[::13] + default_grid()[196:]
    assert grid_search(train, grid, folds=3, seed=BASE_SEED) == \
        reference_grid_search(train, grid, folds=3, seed=BASE_SEED)


def test_row_scorers_match_per_sample_predictions(confounded):
    """Scoring the whole frozen corpus at once gives every per-sample label."""
    corpus = confounded["corpus"]
    split = family_disjoint_split(corpus, BASE_SEED)
    X, _ = design_matrix(corpus.samples)
    batch = train_on_split(corpus, corpus.rows(split.train_ids), LearnerKind.BATCH, BASE_SEED)
    online = train_on_split(corpus, corpus.rows(split.train_ids), LearnerKind.ONLINE, BASE_SEED)
    assert (batch.decision(X) > 0).tolist() == \
        [reference_decision(batch, s.features) > 0.0 for s in corpus.samples]
    assert (online.decision(X) > 0).tolist() == \
        [reference_online_predict(online, s.features) is Label.SE for s in corpus.samples]


@pytest.mark.parametrize("learner", list(LearnerKind))
def test_confusion_counts_match_per_sample_holdout(confounded, learner):
    """holdout_eval on a family-disjoint split, and every LOFO fold and the
    pooled counts of run_lofo, against counting one sample at a time."""
    corpus = confounded["corpus"]
    split = family_disjoint_split(corpus, BASE_SEED)
    model = train_on_split(corpus, corpus.rows(split.train_ids), learner, BASE_SEED)
    rows = corpus.rows(split.test_ids)
    assert holdout_eval(model, corpus.X[rows], corpus.y[rows]) == \
        reference_holdout_eval(model, corpus.by_ids(split.test_ids))

    folds = lofo_folds(corpus)
    models = train_on_splits(corpus, [train for _, train, _ in folds],
                             [BASE_SEED + i for i in range(len(folds))], learner)
    expected = [reference_holdout_eval(model, [corpus.samples[i] for i in test.tolist()])
                for (_, _, test), model in zip(folds, models)]
    summary = run_lofo(corpus, learner, BASE_SEED)
    assert [(fr.family, fr.n, fr.result) for fr in summary.per_family] == \
        [(fam, len(test), result) for (fam, _, test), result in zip(folds, expected)]
    assert summary.pooled == EvalResult.from_confusion(
        *(sum(getattr(r, cell) for r in expected) for cell in ("tp", "fp", "tn", "fn")))
    assert summary.weighted_accuracy == \
        loop_sum(len(test) * r.accuracy for (_, _, test), r in zip(folds, expected)) / len(corpus.samples)


def test_family_fingerprint_probe(confounded):
    """Generator property behind criterion 1: family identity is recoverable
    from the features by a nearest-centroid probe on seen families."""
    corpus = confounded["corpus"]
    X = np.array([s.features.as_tuple() for s in corpus.samples])
    mu, sd = X.mean(axis=0), np.maximum(X.std(axis=0), 1e-9)
    Z = (X - mu) / sd
    rng = np.random.default_rng(1)
    centroids, held_out = {}, []
    for code, fam in enumerate(corpus.families()):
        idx = np.flatnonzero(corpus.family_codes == code)
        if len(idx) < 2:
            continue
        perm = rng.permutation(len(idx))
        k = min(max(1, int(round(0.75 * len(idx)))), len(idx) - 1)
        centroids[fam] = Z[idx[perm[:k]]].mean(axis=0)
        held_out += [(fam, Z[i]) for i in idx[perm[k:]]]
    names = list(centroids)
    C = np.array([centroids[f] for f in names])
    hits = sum(1 for fam, z in held_out
               if names[int(np.argmin(((C - z) ** 2).sum(axis=1)))] == fam)
    assert hits / len(held_out) > 0.80
