import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strobe import evaluation
from strobe.dataset import (MAX_SPLIT_RETRIES, Corpus, Label, Sample, SplitStrategy,
                            family_disjoint_split, random_split)
from strobe.errors import BadConfig, BadValue, Degenerate, Empty, EmptyStream, EmptyTest
from strobe.evaluation import (
    EvalResult,
    LearnerKind,
    box_stats,
    gnuplot_box_data,
    holdout_eval,
    prequential_eval,
    run_experiment,
    run_lofo,
    train_on_split,
    train_on_splits,
)
from strobe.features import FeatureVector
from strobe.learners import (
    BatchModel,
    HingeHyperparams,
    Scaler,
    _chunk_rows,
    batch_train,
    design_matrix,
    online_fit,
    online_init,
    online_predict,
)

from oracles import loop_sum, reference_box_stats, reference_prequential_eval


def fv(entropy=0.0):
    return FeatureVector(avg_entropy=entropy, n_strings=1)


def sample(sid, fam, label, entropy):
    return Sample(sid, fam, Label(label), features=fv(entropy))


def separable_corpus(n_families=6, per_class=4, noise=0.05):
    rng = random.Random(1)
    samples = []
    for f in range(n_families):
        for i in range(per_class):
            samples.append(sample(f"f{f}se{i}", f"fam{f}", "SE", 8.0 + rng.uniform(-noise, noise)))
            samples.append(sample(f"f{f}no{i}", f"fam{f}", "NOT_SE", 1.0 + rng.uniform(-noise, noise)))
    return Corpus.from_samples(samples)


class FakePoisson:
    """Scripted Poisson draws, handed out in C order for each size= request."""

    def __init__(self, draws):
        self.draws = list(draws)

    def poisson(self, lam, size):
        n = int(np.prod(size))
        out, self.draws = self.draws[:n], self.draws[n:]
        return np.array(out, dtype=np.int64).reshape(size)


# --- holdout ---------------------------------------------------------------

def constant_model(label):
    """Zero weights; the bias alone decides, so every sample gets `label`."""
    return BatchModel(weights=np.zeros(8), bias=1.0 if label is Label.SE else -1.0,
                      scaler=Scaler(mean=np.zeros(8), std=np.ones(8)),
                      hyperparams=HingeHyperparams())


def test_holdout_all_correct():
    test = [sample(f"s{i}", "f", "SE", 5.0) for i in range(10)]
    result = holdout_eval(constant_model(Label.SE), *design_matrix(test))
    assert result.accuracy == 1.0 and result.tp == 10


def test_holdout_always_not_se_on_balanced_set():
    test = [sample(f"p{i}", "f", "SE", 1.0) for i in range(5)]
    test += [sample(f"n{i}", "f", "NOT_SE", 1.0) for i in range(5)]
    result = holdout_eval(constant_model(Label.NOT_SE), *design_matrix(test))
    assert result.accuracy == 0.5
    assert result.recall == 0.0
    assert result.f1 == 0.0


def test_confusion_arithmetic():
    r = EvalResult.from_confusion(tp=1, fp=1, tn=7, fn=1)
    assert r.precision == 0.5 and r.recall == 0.5 and r.f1 == 0.5
    assert r.accuracy == 0.8


def test_holdout_empty():
    with pytest.raises(EmptyTest):
        holdout_eval(constant_model(Label.SE), *design_matrix([]))


# Decisions at and around the threshold: a zero of either sign and a NaN predict NOT_SE.
_DECISIONS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                       st.floats(allow_nan=True, allow_infinity=True))
_CONFUSION_ROWS = st.lists(st.tuples(_DECISIONS, st.sampled_from([1.0, -1.0]), st.integers(0, 5)),
                           max_size=40)


@given(_CONFUSION_ROWS, st.integers(0, 3))
def test_confusions_match_a_per_group_loop(rows, extra_groups):
    """The bincount of confusion cells against counting row by row; groups
    no row falls in, the extra ones included, count zero."""
    n_groups = 6 + extra_groups
    expected = [[0, 0, 0, 0] for _ in range(n_groups)]  # tp, fp, tn, fn
    for d, label, group in rows:
        predicted_se, actual_se = d > 0, label > 0
        cell = (0 if actual_se else 1) if predicted_se else (3 if actual_se else 2)
        expected[group][cell] += 1
    decision, y, groups = (np.array([row[i] for row in rows], dtype=dtype)
                           for i, dtype in enumerate((float, float, np.intp)))
    assert evaluation._confusions(decision, y, groups, n_groups).tolist() == expected


# --- prequential -------------------------------------------------------------

def test_prequential_cold_start_single_sample():
    model = online_init(k=3, seed=0)
    result = prequential_eval(model, [sample("a", "f", "NOT_SE", 2.0)])
    assert result.final_accuracy == 1.0
    assert result.per_sample_correct == (True,)


def test_prequential_identity_exact():
    for trial in range(50):
        rng = random.Random(trial)
        stream = [sample(f"s{i}", "f", rng.choice(["SE", "NOT_SE"]), rng.uniform(0, 6))
                  for i in range(rng.randrange(5, 60))]
        model = online_init(k=5, lam_poisson=6.0, seed=trial)
        result = prequential_eval(model, stream)
        assert result.final_accuracy == sum(result.per_sample_correct) / len(result.per_sample_correct)
        for i, acc in enumerate(result.running_accuracy):
            assert acc == sum(result.per_sample_correct[:i + 1]) / (i + 1)


def test_prequential_hand_trace_with_stubbed_draws():
    # Single Gaussian learner, every Poisson draw forced to 1.
    #  s1 SE  x=4.0: no evidence yet -> NOT_SE, wrong. SE stats: n=1, mean=4.
    #  s2 SE  x=4.2: only SE has evidence -> SE, right. SE: n=2, mean=4.1, M2=0.02.
    #  s3 NOT x=0.0: still only SE evidence -> SE, wrong. NOT: n=1, mean=0.
    #  s4 NOT x=0.0: matches NOT exactly (floored variance), SE is 4.1 away
    #                with var 0.02 -> NOT_SE, right.
    model = online_init(k=1, seed=0)
    model.rng = FakePoisson([1, 1, 1, 1])
    stream = [
        sample("s1", "f", "SE", 4.0),
        sample("s2", "f", "SE", 4.2),
        sample("s3", "f", "NOT_SE", 0.0),
        sample("s4", "f", "NOT_SE", 0.0),
    ]
    result = prequential_eval(model, stream)
    assert result.per_sample_correct == (False, True, False, True)
    assert result.final_accuracy == 0.5


def test_prequential_empty_stream():
    with pytest.raises(EmptyStream):
        prequential_eval(online_init(k=1, seed=0), [])


def matrix_stream(X, cls):
    return [Sample(f"s{i}", "f", Label.SE if c else Label.NOT_SE,
                   features=FeatureVector(*(float(v) for v in row), n_strings=1))
            for i, (row, c) in enumerate(zip(X, cls))]


def model_state(model):
    return (model.counts.dtype, model.counts.tobytes(), model.mean.tobytes(),
            model.m2.tobytes(), model.n_draws, model.rng.bit_generator.state)


def assert_prequential_matches_reference(make_model, stream):
    """The sweep and the per-sample loop agree bit for bit: result tuples,
    counts, mean and M2 bytes, draw count and generator state."""
    model, ref = make_model(), make_model()
    expected = reference_prequential_eval(ref, stream)
    got = prequential_eval(model, stream)
    assert got.per_sample_correct == expected.per_sample_correct
    assert [v.hex() for v in got.running_accuracy] == [v.hex() for v in expected.running_accuracy]
    assert got.final_accuracy.hex() == expected.final_accuracy.hex()
    assert model_state(model) == model_state(ref)


def stream_lengths(k):
    """Lengths around the sweep's chunk of B rows at k members; B - 1 is
    at least 1, as an empty stream is an error."""
    B = _chunk_rows(k)
    return [1, max(B - 1, 1), B, B + 1, 2 * B + 1, 37]


LAMBDAS = [0.3, 0.5, 1.0, 2.0, 6.0, 12.0]


# k = 300 and k = 1,025 vote in chunks of 3 rows and of 1 row.
@pytest.mark.parametrize("k", [*range(1, 12), 300, 1025])
def test_prequential_sweep_matches_per_sample_loop(k):
    # Per k, one stream per lambda, cycling through lengths around the chunk
    # size, single-class and mixed streams, cold and warm-started models,
    # feature scales 1e-6/1/1e3, and a constant and a -0.0 column; values
    # rounded to a coarse grid give repeated rows, zero variances and ties.
    rng = np.random.default_rng(900 + k)
    lengths = stream_lengths(k)
    for j, lam in enumerate(LAMBDAS):
        n = lengths[(k + j) % len(lengths)]
        scale = (1e-6, 1.0, 1e3)[(k + j) % 3]
        X = (rng.normal(size=(n, 8)) + rng.normal(size=8)) * scale
        if j % 2:
            X = np.round(X / scale, 1) * scale
        X[:, rng.integers(8)] = 2.5 * scale
        X[:, rng.integers(8)] = -0.0
        p_se = (0.0, 1.0, 0.5, 0.2)[(k + 2 * j) % 4]
        cls = (rng.random(n) < p_se).astype(np.int64)
        warm = j % 3 == 1
        Xw = rng.normal(size=(int(rng.integers(1, 30)), 8)) * scale
        cw = rng.integers(0, 2, size=len(Xw))
        seed = int(rng.integers(2**32))

        def make_model():
            model = online_init(k=k, lam_poisson=lam, seed=seed)
            return online_fit(model, Xw, 2 * cw - 1) if warm else model

        assert_prequential_matches_reference(make_model, matrix_stream(X, cls))


def test_prequential_sweep_matches_per_sample_loop_on_confounded_corpus(confounded):
    samples = confounded["corpus"].samples
    order = np.random.default_rng(7).permutation(len(samples))
    stream = [samples[int(i)] for i in order]
    assert_prequential_matches_reference(lambda: online_init(seed=7), stream)


def test_prequential_rejects_sample_without_features_before_touching_model():
    model = online_fit(online_init(k=4, seed=3), np.arange(16.0).reshape(2, 8), np.array([-1, 1]))
    before = model_state(model)
    stream = [sample("a", "f", "SE", 1.0), Sample("bare", "f", Label.NOT_SE),
              sample("b", "f", "NOT_SE", 2.0)]
    with pytest.raises(BadValue, match="bare"):
        prequential_eval(model, stream)
    assert model_state(model) == before


# --- aggregate metrics ---------------------------------------------------------

def test_weighted_equals_pooled_accuracy():
    corpus = separable_corpus()
    summary = run_lofo(corpus, LearnerKind.BATCH, base_seed=0)
    pooled = summary.pooled
    total = pooled.tp + pooled.fp + pooled.tn + pooled.fn
    assert summary.weighted_accuracy == pytest.approx((pooled.tp + pooled.tn) / total, abs=1e-12)


# --- box statistics -------------------------------------------------------------

def test_box_stats_hand_case():
    b = box_stats([1, 2, 3, 4, 100])
    assert (b.median, b.q1, b.q3) == (3.0, 2.0, 4.0)
    assert b.outliers == (100.0,)
    assert b.whisker_lo == 1.0 and b.whisker_hi == 4.0


def test_box_stats_constant():
    b = box_stats([7.5] * 9)
    assert (b.mean, b.median, b.q1, b.q3, b.whisker_lo, b.whisker_hi) == (7.5,) * 6
    assert b.outliers == ()


def test_box_stats_order_free():
    values = [3.1, 0.2, 9.9, 4.4, 4.5, 1.0, 2.2]
    shuffled = values[::-1]
    assert box_stats(values) == box_stats(shuffled)


def test_box_stats_empty():
    with pytest.raises(Empty):
        box_stats([])


def test_box_stats_against_sort_oracle():
    rng = random.Random(40)
    for _ in range(300):
        values = [rng.uniform(-50, 50) for _ in range(rng.randrange(1, 40))]
        got = box_stats(values)
        want = reference_box_stats(values)
        # One summation rule on both sides, so the means are equal.
        assert got.mean == want["mean"]
        for key in ("median", "q1", "q3", "whisker_lo", "whisker_hi"):
            assert abs(getattr(got, key) - want[key]) <= 1e-12
        assert list(got.outliers) == pytest.approx(want["outliers"])


# --- experiment driver ------------------------------------------------------------

def test_run_experiment_perfect_on_separable_toy():
    corpus = separable_corpus()
    for learner in (LearnerKind.BATCH, LearnerKind.ONLINE):
        summary = run_experiment(corpus, SplitStrategy.RANDOM, learner,
                                 repetitions=1, base_seed=0)
        assert summary.mean_accuracy == 1.0
        summary = run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, learner,
                                 repetitions=1, base_seed=0)
        assert summary.mean_accuracy == 1.0


def test_experiment_mean_is_the_box_mean():
    # From 8 values numpy's pairwise mean can part from the left fold; at
    # these seeds it does, and the JSON still reports one mean, the left fold
    # of the accuracies in repetition order.
    corpus = separable_corpus(noise=4.0)
    for learner, base_seed in ((LearnerKind.BATCH, 4), (LearnerKind.ONLINE, 0)):
        summary = run_experiment(corpus, SplitStrategy.RANDOM, learner, repetitions=8, base_seed=base_seed)
        accuracies = summary.accuracies()
        want = loop_sum(accuracies) / len(accuracies)
        assert len(accuracies) == 8 and float(np.mean(accuracies)) != want
        doc = summary.to_json()
        assert doc["mean"] == doc["box"]["mean"] == summary.mean_accuracy == want


def test_run_experiment_deterministic():
    corpus = separable_corpus(noise=0.8)
    a = run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, LearnerKind.ONLINE,
                       repetitions=4, base_seed=11)
    b = run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, LearnerKind.ONLINE,
                       repetitions=4, base_seed=11)
    assert a.to_json() == b.to_json()


def test_run_experiment_records_all_runs():
    corpus = separable_corpus()
    summary = run_experiment(corpus, SplitStrategy.RANDOM, LearnerKind.BATCH,
                             repetitions=5, base_seed=100)
    assert [r.seed for r in summary.per_run] == [100, 101, 102, 103, 104]
    assert summary.box.median >= 0.9


def test_run_experiment_accepts_only_one_job(monkeypatch):
    corpus = separable_corpus(noise=0.8)
    args = (corpus, SplitStrategy.FAMILY_DISJOINT, LearnerKind.BATCH)
    assert run_experiment(*args, repetitions=4, base_seed=3, jobs=1).to_json() == \
        run_experiment(*args, repetitions=4, base_seed=3).to_json()

    def no_draw(corpus, seed):
        raise AssertionError("a split was drawn")

    monkeypatch.setattr(evaluation, "family_disjoint_split", no_draw)
    with pytest.raises(BadConfig, match="jobs"):
        run_experiment(*args, repetitions=4, base_seed=3, jobs=2)


def test_run_experiment_degenerate_corpus():
    # Pure single-class families in a 2-family corpus: no family-disjoint
    # split can put both classes on both sides, every repetition is skipped.
    samples = [sample(f"a{i}", "famA", "SE", 5.0) for i in range(4)]
    samples += [sample(f"b{i}", "famB", "NOT_SE", 1.0) for i in range(4)]
    corpus = Corpus.from_samples(samples)
    with pytest.raises(Degenerate):
        run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, LearnerKind.BATCH,
                       repetitions=2, base_seed=0)


def test_run_experiment_rejects_a_bad_configuration():
    corpus = separable_corpus()
    with pytest.raises(BadConfig, match="repetitions"):
        run_experiment(corpus, SplitStrategy.RANDOM, LearnerKind.BATCH, repetitions=0, base_seed=0)
    with pytest.raises(BadConfig, match="run_lofo"):
        run_experiment(corpus, SplitStrategy.LOFO, LearnerKind.BATCH, repetitions=1, base_seed=0)


def test_skipped_run_records_every_split_attempt(monkeypatch):
    corpus = separable_corpus()
    real_split = evaluation.family_disjoint_split

    def split_failing_on_seed_1(corpus, seed):
        if seed == 1:
            raise Degenerate("no valid split")
        return real_split(corpus, seed)

    monkeypatch.setattr(evaluation, "family_disjoint_split", split_failing_on_seed_1)
    summary = run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, LearnerKind.BATCH,
                             repetitions=3, base_seed=0)
    skipped = summary.to_json()["per_run"][1]
    assert skipped["skipped"] and skipped["retries"] == MAX_SPLIT_RETRIES
    assert not summary.per_run[0].skipped and not summary.per_run[2].skipped


@pytest.mark.parametrize("learner", list(LearnerKind))
def test_repetitions_keep_their_seeds(monkeypatch, learner):
    # Seed 1 of 0-3 skips, so the folds are seeds 0, 2 and 3. On uneven
    # families of random features each of them scores differently when its
    # split is trained with another of these seeds or its model scores
    # another seed's split, for both learners.
    rng = random.Random(5)
    corpus = Corpus.from_samples([
        Sample(f"f{f}{label}{i}", f"fam{f}", Label(label),
               features=FeatureVector(*(rng.uniform(0.0, 8.0) for _ in range(8)), n_strings=1))
        for f in range(7) for label in ("SE", "NOT_SE") for i in range(rng.randint(2, 8))
    ])
    real_split = evaluation.family_disjoint_split

    def split_failing_on_seed_1(corpus, seed):
        if seed == 1:
            raise Degenerate("no valid split")
        return real_split(corpus, seed)

    monkeypatch.setattr(evaluation, "family_disjoint_split", split_failing_on_seed_1)
    summary = run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, learner,
                             repetitions=4, base_seed=0)
    assert [r.skipped for r in summary.per_run] == [False, True, False, False]
    for record in (r for r in summary.per_run if not r.skipped):
        split = real_split(corpus, record.seed)
        test = corpus.rows(split.test_ids)
        model = train_on_split(corpus, corpus.rows(split.train_ids), learner, record.seed)
        assert record.result == holdout_eval(model, corpus.X[test], corpus.y[test])


@pytest.mark.parametrize("learner", list(LearnerKind))
def test_zero_folds_train_and_score_nothing(monkeypatch, learner):
    # Reached only when every repetition's split fails, and run_experiment then
    # raises Degenerate; the fold driver still takes zero folds.
    corpus = separable_corpus()
    rows, fold, decision = evaluation._score_folds(corpus, [], [], learner)
    assert rows.shape == fold.shape == decision.shape == (0,)
    assert evaluation._confusions(decision, corpus.y[rows], fold, 0).shape == (0, 4)

    def no_split(corpus, seed):
        raise Degenerate("no valid split")

    monkeypatch.setattr(evaluation, "family_disjoint_split", no_split)
    records = evaluation._experiment_runs([5, 6], corpus, SplitStrategy.FAMILY_DISJOINT, learner)
    assert [(r.seed, r.retries, r.result, r.skipped) for r in records] == \
        [(5, MAX_SPLIT_RETRIES, None, True), (6, MAX_SPLIT_RETRIES, None, True)]
    assert train_on_splits(corpus, [], [], learner) == []
    # A corpus without features is rejected even when no fold is left.
    with pytest.raises(BadValue, match="features"):
        train_on_splits(Corpus.from_samples([Sample("a", "fam0", Label.SE, path="a.apk")]), [], [], learner)


def test_batch_train_on_split_is_batch_train_on_its_rows(confounded):
    # A batch fit trains over corpus rows in hinge_sgd: the same bits, signed
    # zeros included, as batch_train on a copy of those rows.
    corpus = confounded["corpus"]
    disjoint = corpus.rows(family_disjoint_split(corpus, 3).train_ids)
    strided = np.arange(len(corpus.y))[1::3]
    assert not strided.flags.contiguous
    for rows in (disjoint, strided):
        moved = train_on_split(corpus, rows, LearnerKind.BATCH, seed=5)
        direct = batch_train(corpus.X[rows], corpus.y[rows], seed=5)
        for a, b in ((moved.weights, direct.weights), (moved.bias, direct.bias),
                     (moved.scaler.mean, direct.scaler.mean), (moved.scaler.std, direct.scaler.std)):
            assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("learner", list(LearnerKind))
def test_drivers_reject_a_corpus_without_features(learner):
    # A path manifest's corpus: labels and families, no feature vectors.
    corpus = Corpus.from_samples([
        Sample(f"f{f}{label.value}{i}", f"fam{f}", label, path=f"fam{f}/{i}.apk")
        for f in range(4) for label in Label for i in range(3)
    ])
    assert corpus.X is None
    with pytest.raises(BadValue, match="features"):
        run_lofo(corpus, learner, base_seed=0)
    for strategy in (SplitStrategy.RANDOM, SplitStrategy.FAMILY_DISJOINT):
        with pytest.raises(BadValue, match="features"):
            run_experiment(corpus, strategy, learner, repetitions=2, base_seed=0)


def test_training_ignores_test_side_features():
    corpus = separable_corpus()
    split = random_split(corpus, seed=4)
    poisoned = Corpus.from_samples([
        s if s.sample_id in split.train_ids
        else Sample(s.sample_id, s.family, s.label, features=fv(entropy=1e9))
        for s in corpus.samples
    ])
    for learner in (LearnerKind.BATCH, LearnerKind.ONLINE):
        clean = train_on_split(corpus, corpus.rows(split.train_ids), learner, seed=1)
        dirty = train_on_split(poisoned, poisoned.rows(split.train_ids), learner, seed=1)
        probe = [fv(0.5), fv(4.4), fv(8.0)]
        if learner is LearnerKind.BATCH:
            assert np.array_equal(clean.weights, dirty.weights)
            assert clean.bias == dirty.bias
        else:
            assert all(online_predict(clean, x) == online_predict(dirty, x) for x in probe)


def test_gnuplot_box_data_shape():
    corpus = separable_corpus()
    summary = run_experiment(corpus, SplitStrategy.RANDOM, LearnerKind.BATCH,
                             repetitions=3, base_seed=0)
    text = gnuplot_box_data([summary])
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == 1
    fields = lines[0].split()
    assert fields[0] == "1" and fields[-1] == "BATCH-RANDOM"
