import random

import numpy as np
import pytest

from strobe import evaluation
from strobe.dataset import MAX_SPLIT_RETRIES, Corpus, Label, Sample, SplitStrategy, random_split
from strobe.errors import Degenerate, Empty, EmptyStream, EmptyTest
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
    weighted_family_accuracy,
)
from strobe.features import FeatureVector
from strobe.learners import BatchModel, HingeHyperparams, Scaler, online_init, online_predict

from oracles import reference_box_stats


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
    result = holdout_eval(constant_model(Label.SE), test)
    assert result.accuracy == 1.0 and result.tp == 10


def test_holdout_always_not_se_on_balanced_set():
    test = [sample(f"p{i}", "f", "SE", 1.0) for i in range(5)]
    test += [sample(f"n{i}", "f", "NOT_SE", 1.0) for i in range(5)]
    result = holdout_eval(constant_model(Label.NOT_SE), test)
    assert result.accuracy == 0.5
    assert result.recall == 0.0
    assert result.f1 == 0.0


def test_confusion_arithmetic():
    r = EvalResult.from_confusion(tp=1, fp=1, tn=7, fn=1)
    assert r.precision == 0.5 and r.recall == 0.5 and r.f1 == 0.5
    assert r.accuracy == 0.8


def test_holdout_empty():
    with pytest.raises(EmptyTest):
        holdout_eval(constant_model(Label.SE), [])


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


# --- aggregate metrics ---------------------------------------------------------

def test_weighted_family_accuracy_arithmetic():
    assert weighted_family_accuracy([("A", 10, 1.0), ("B", 30, 0.5)]) == 0.625


def test_weighted_family_accuracy_constant():
    rows = [(f"f{i}", i + 1, 0.7) for i in range(20)]
    assert weighted_family_accuracy(rows) == pytest.approx(0.7)


def test_weighted_family_accuracy_errors():
    with pytest.raises(Empty):
        weighted_family_accuracy([])
    with pytest.raises(ValueError):
        weighted_family_accuracy([("A", 0, 1.0)])


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
        for key in ("mean", "median", "q1", "q3", "whisker_lo", "whisker_hi"):
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


def test_run_experiment_parallel_matches_serial():
    corpus = separable_corpus(noise=0.8)
    serial = run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, LearnerKind.BATCH,
                            repetitions=4, base_seed=3, jobs=1)
    parallel = run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, LearnerKind.BATCH,
                              repetitions=4, base_seed=3, jobs=3)
    assert serial.to_json() == parallel.to_json()


@pytest.mark.parametrize("learner", list(LearnerKind))
def test_results_do_not_depend_on_jobs(learner):
    # 5 repetitions make chunks of 2+3 and 2+1+2.
    corpus = separable_corpus(n_families=7, noise=0.8)
    runs = [run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, learner, repetitions=5,
                           base_seed=3, jobs=jobs).to_json() for jobs in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_run_experiment_degenerate_corpus():
    # Pure single-class families in a 2-family corpus: no family-disjoint
    # split can put both classes on both sides, every repetition is skipped.
    samples = [sample(f"a{i}", "famA", "SE", 5.0) for i in range(4)]
    samples += [sample(f"b{i}", "famB", "NOT_SE", 1.0) for i in range(4)]
    corpus = Corpus.from_samples(samples)
    with pytest.raises(Degenerate):
        run_experiment(corpus, SplitStrategy.FAMILY_DISJOINT, LearnerKind.BATCH,
                       repetitions=2, base_seed=0)


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


def test_training_ignores_test_side_features():
    corpus = separable_corpus()
    split = random_split(corpus, seed=4)
    poisoned = Corpus.from_samples([
        s if s.sample_id in split.train_ids
        else Sample(s.sample_id, s.family, s.label, features=fv(entropy=1e9))
        for s in corpus.samples
    ])
    for learner in (LearnerKind.BATCH, LearnerKind.ONLINE):
        clean = train_on_split(corpus, split, learner, seed=1)
        dirty = train_on_split(poisoned, split, learner, seed=1)
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
