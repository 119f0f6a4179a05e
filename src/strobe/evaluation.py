"""Holdout and prequential evaluation, aggregate metrics, box statistics.

SE is the positive class everywhere. The repeated-experiment driver mirrors
the published protocol: build a split per derived seed, train the chosen
learner on the training side (online learners see the training set once as a
seeded shuffled stream), then classify the test side with the model frozen.
Experiments and LOFO share one fold driver: every repetition or held-out
family is a fold, all folds are trained, and one bincount counts their scores.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from functools import partial
from typing import Iterable

import numpy as np

from .dataset import (
    MAX_SPLIT_RETRIES,
    Corpus,
    Sample,
    Split,
    SplitStrategy,
    design_matrix,
    family_disjoint_split,
    lofo_folds,
    random_split,
    validate_split,
)
from .errors import BadConfig, BadValue, Degenerate, Empty, EmptyStream, EmptyTest, SingleClass, StrobeError
from .features import left_sum
from .learners import (
    DEFAULT_HYPERPARAMS,
    BatchModel,
    OnlineModel,
    _prequential_sweep,
    hinge_sgd,
    online_train,
)
# bench/tracing.py wraps these evaluation attributes by name.
from .dataset import lofo_splits  # noqa: F401
from .learners import batch_train, online_predict, online_update, predict  # noqa: F401


class LearnerKind(enum.Enum):
    BATCH = "BATCH"
    ONLINE = "ONLINE"


@dataclass(frozen=True)
class EvalResult:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_confusion(cls, tp: int, fp: int, tn: int, fn: int) -> "EvalResult":
        total = tp + fp + tn + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(
            tp=tp, fp=fp, tn=tn, fn=fn,
            accuracy=(tp + tn) / total if total else 0.0,
            precision=precision, recall=recall, f1=f1,
        )

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PrequentialResult:
    per_sample_correct: tuple[bool, ...]
    running_accuracy: tuple[float, ...]
    final_accuracy: float


@dataclass(frozen=True)
class BoxStats:
    mean: float
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple[float, ...]

    def to_json(self) -> dict:
        return {**asdict(self), "outliers": list(self.outliers)}


def _confusions(decision: np.ndarray, y: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, 4) counts of tp, fp, tn and fn per group: row i is in group
    groups[i], is SE where y[i] > 0 and predicts SE where decision[i] > 0, so
    a zero, a NaN and an ensemble tie predict NOT_SE."""
    predicted, actual = decision > 0, y > 0
    cell = 2 * ~predicted + (predicted != actual)  # tp 0, fp 1, tn 2, fn 3
    return np.bincount(4 * groups + cell, minlength=4 * n_groups).reshape(n_groups, 4)


def holdout_eval(model: BatchModel | OnlineModel, X: np.ndarray, y: np.ndarray) -> EvalResult:
    """Confusion counts of a frozen model over test rows X (raw features)
    with labels y (+1 SE, -1 NOT_SE), SE positive."""
    if len(y) == 0:
        raise EmptyTest("holdout evaluation needs a non-empty test set")
    (counts,) = _confusions(model.decision(X), y, np.zeros(len(y), dtype=np.intp), 1)
    return EvalResult.from_confusion(*counts.tolist())


def prequential_eval(model: OnlineModel, stream: list[Sample]) -> PrequentialResult:
    """Test-then-train over the stream; the model is mutated in place.

    Each sample is voted on as online_predict would and then fed to the model
    as online_update would, with bit-identical results, in one sweep over
    the stream's feature matrix. A sample without features raises BadValue
    before the model is touched.
    """
    if not stream:
        raise EmptyStream("prequential evaluation needs a non-empty stream")
    for sample in stream:
        if sample.features is None:
            raise BadValue(f"stream sample {sample.sample_id!r} has no features")
    correct = _prequential_sweep(model, *design_matrix(stream))
    hits = np.cumsum(correct)
    return PrequentialResult(
        per_sample_correct=tuple(correct.tolist()),
        running_accuracy=tuple((hits / np.arange(1, len(stream) + 1)).tolist()),
        final_accuracy=int(hits[-1]) / len(stream),
    )


def box_stats(values: Iterable[float]) -> BoxStats:
    """Tukey box statistics: type-7 quartiles, whiskers at 1.5 * IQR; the
    mean sums the values in their given order with left_sum."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise Empty("no values")
    q1, median, q3 = (float(v) for v in np.quantile(data, [0.25, 0.5, 0.75], method="linear"))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = data[(data >= lo_fence) & (data <= hi_fence)]
    outliers = data[(data < lo_fence) | (data > hi_fence)]
    return BoxStats(
        mean=left_sum(data.tolist()) / data.size,
        median=median,
        q1=q1,
        q3=q3,
        whisker_lo=float(inside.min()),
        whisker_hi=float(inside.max()),
        outliers=tuple(sorted(float(v) for v in outliers)),
    )


# --------------------------------------------------------------------------
# Repeated experiments
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    seed: int
    retries: int
    result: EvalResult | None
    skipped: bool = False


@dataclass(frozen=True)
class ExperimentSummary:
    strategy: SplitStrategy
    learner: LearnerKind
    repetitions: int
    base_seed: int
    per_run: tuple[RunRecord, ...]
    box: BoxStats

    @property
    def mean_accuracy(self) -> float:
        """The mean accuracy over the repetitions that ran, in repetition order."""
        return self.box.mean

    def accuracies(self) -> list[float]:
        return [r.result.accuracy for r in self.per_run if r.result is not None]

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "learner": self.learner.value,
            "repetitions": self.repetitions,
            "seeds": [r.seed for r in self.per_run],
            "per_run": [
                {
                    "seed": r.seed,
                    "retries": r.retries,
                    "skipped": r.skipped,
                    **(r.result.to_json() if r.result else {}),
                }
                for r in self.per_run
            ],
            "box": self.box.to_json(),
            "mean": self.mean_accuracy,
        }


def _features(corpus: Corpus) -> np.ndarray:
    """The corpus feature matrix; a corpus without one raises BadValue."""
    if corpus.X is None:
        raise BadValue("training needs features for every sample; extract them first")
    return corpus.X


def train_on_split(corpus: Corpus, train_rows: np.ndarray, learner: LearnerKind,
                   seed: int) -> BatchModel | OnlineModel:
    """Fit the chosen learner, with its default settings, on the corpus rows
    train_rows (sorted, as Corpus.rows gives them); a batch fit is the
    one-stream case of train_on_splits."""
    if learner is LearnerKind.BATCH:
        return train_on_splits(corpus, [train_rows], [seed], learner)[0]
    return online_train(_features(corpus)[train_rows], corpus.y[train_rows], seed=seed)


def train_on_splits(corpus: Corpus, train_rows_list: list[np.ndarray], seeds: list[int],
                    learner: LearnerKind) -> list[BatchModel | OnlineModel]:
    """One model per (training rows, seed) pair. Batch fits train together in
    one lockstep hinge_sgd pass over the corpus matrix, each bit-identical to
    batch_train on its own rows; online fits train one by one in train_on_split.
    A corpus without features raises BadValue, even for no pair."""
    X = _features(corpus)
    if learner is LearnerKind.ONLINE:
        return [train_on_split(corpus, rows, learner, seed) for rows, seed in zip(train_rows_list, seeds)]
    models = hinge_sgd(X, corpus.y, list(zip(train_rows_list, seeds)),
                       [(i, DEFAULT_HYPERPARAMS) for i in range(len(seeds))])
    if any(model is None for model in models):
        raise SingleClass("training data contains a single class")
    return models


def _score_folds(corpus: Corpus, folds: list[tuple[np.ndarray, np.ndarray]], seeds: list[int],
                 learner: LearnerKind) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train fold i on its training rows with seeds[i], then score its test
    rows with that model. Returns the test rows, their fold indices and
    their decision values, fold after fold."""
    models = train_on_splits(corpus, [train for train, _ in folds], seeds, learner)
    tests = [test for _, test in folds]
    # The leading empty arrays type the result of zero folds.
    return (np.concatenate([np.empty(0, dtype=np.intp), *tests]),
            np.repeat(np.arange(len(tests)), [len(test) for test in tests]),
            np.concatenate([np.empty(0), *(m.decision(corpus.X[t]) for m, t in zip(models, tests))]))


def _experiment_runs(seeds: list[int], corpus: Corpus, strategy: SplitStrategy,
                     learner: LearnerKind) -> list[RunRecord]:
    """One RunRecord per seed: split, then train and score the splits as folds."""
    splits: dict[int, Split] = {}
    for seed in seeds:
        try:
            if strategy is SplitStrategy.RANDOM:
                splits[seed] = random_split(corpus, seed)
            else:
                splits[seed] = family_disjoint_split(corpus, seed)
                if validate_split(corpus, splits[seed]).family_overlap != 0:
                    raise StrobeError("family-disjoint split produced family overlap")
        except Degenerate:
            continue
    folds = [(corpus.rows(s.train_ids), corpus.rows(s.test_ids)) for s in splits.values()]
    rows, fold, decision = _score_folds(corpus, folds, list(splits), learner)
    # One confusion row per split, in seed order.
    counts = iter(_confusions(decision, corpus.y[rows], fold, len(folds)).tolist())
    return [
        RunRecord(seed=seed, retries=splits[seed].retries, result=EvalResult.from_confusion(*next(counts)))
        if seed in splits
        else RunRecord(seed=seed, retries=MAX_SPLIT_RETRIES, result=None, skipped=True)
        for seed in seeds
    ]


def run_experiment(corpus: Corpus, strategy: SplitStrategy, learner: LearnerKind, repetitions: int,
                   base_seed: int, jobs: int = 1) -> ExperimentSummary:
    """Repeat split/train/evaluate with seeds base_seed + i.

    Family-disjoint splits are validated on every run; a repetition whose
    split cannot be built within the retry budget is recorded and skipped.
    Batch repetitions train in lockstep; jobs > 1 splits the seeds into
    contiguous chunks, one per worker process, so each worker trains its
    chunk in one pass. Results are merged in repetition order and do not
    depend on jobs.
    """
    if repetitions < 1:
        raise BadConfig(f"repetitions must be >= 1, got {repetitions}")
    if strategy is SplitStrategy.LOFO:
        raise BadConfig("LOFO experiments use run_lofo")

    seeds = [base_seed + i for i in range(repetitions)]
    runs = partial(_experiment_runs, corpus=corpus, strategy=strategy, learner=learner)
    if jobs > 1 and repetitions > 1:
        from concurrent.futures import ProcessPoolExecutor
        bounds = np.linspace(0, repetitions, min(jobs, repetitions) + 1).round().astype(int)
        chunks = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            records = [r for part in pool.map(runs, chunks) for r in part]
    else:
        records = runs(seeds)

    accuracies = [r.result.accuracy for r in records if r.result is not None]
    if not accuracies:
        raise Degenerate("every repetition was skipped")
    return ExperimentSummary(
        strategy=strategy,
        learner=learner,
        repetitions=repetitions,
        base_seed=base_seed,
        per_run=tuple(records),
        box=box_stats(accuracies),
    )


@dataclass(frozen=True)
class FamilyResult:
    family: str
    n: int
    result: EvalResult


@dataclass(frozen=True)
class LofoSummary:
    learner: LearnerKind
    base_seed: int
    per_family: tuple[FamilyResult, ...]
    weighted_accuracy: float
    pooled: EvalResult

    def to_json(self) -> dict:
        return {
            "learner": self.learner.value,
            "seed": self.base_seed,
            "per_family": [
                {"family": fr.family, "n": fr.n, **fr.result.to_json()}
                for fr in self.per_family
            ],
            "weighted_accuracy": self.weighted_accuracy,
            "pooled": self.pooled.to_json(),
        }


def run_lofo(corpus: Corpus, learner: LearnerKind, base_seed: int) -> LofoSummary:
    """Hold out each family in turn (fold i trains with seed base_seed + i);
    aggregate size-weighted accuracy and the pooled confusion over all
    held-out predictions. Fold i holds out family i of families(), so its
    confusion row is that family's."""
    folds = lofo_folds(corpus)
    rows, fold, decision = _score_folds(corpus, [(train, test) for _, train, test in folds],
                                        [base_seed + i for i in range(len(folds))], learner)
    counts = _confusions(decision, corpus.y[rows], fold, len(folds))
    per_family = [
        FamilyResult(family=fam, n=sum(row), result=EvalResult.from_confusion(*row))
        for (fam, _, _), row in zip(folds, counts.tolist())
    ]
    return LofoSummary(
        learner=learner,
        base_seed=base_seed,
        per_family=tuple(per_family),
        # In family order; pooled.accuracy can differ from it in the last bit.
        weighted_accuracy=left_sum(fr.n * fr.result.accuracy for fr in per_family) / len(corpus.y),
        pooled=EvalResult.from_confusion(*counts.sum(axis=0).tolist()),
    )


def gnuplot_box_data(summaries: list[ExperimentSummary]) -> str:
    """Candlestick-friendly rows: idx whisker_lo q1 median q3 whisker_hi mean."""
    lines = ["# idx whisker_lo q1 median q3 whisker_hi mean label"]
    for i, s in enumerate(summaries, start=1):
        b = s.box
        label = f"{s.learner.value}-{s.strategy.value}"
        lines.append(
            f"{i} {b.whisker_lo:.9g} {b.q1:.9g} {b.median:.9g} "
            f"{b.q3:.9g} {b.whisker_hi:.9g} {b.mean:.9g} {label}"
        )
        if b.outliers:
            lines.append("# outliers " + " ".join(f"{v:.9g}" for v in b.outliers))
    return "\n".join(lines) + "\n"
