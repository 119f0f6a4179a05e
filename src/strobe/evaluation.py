"""Holdout and prequential evaluation, aggregate metrics, box statistics.

SE is the positive class everywhere. The repeated-experiment driver mirrors
the published protocol: build a split per derived seed, train the chosen
learner on the training side (online learners see the training set once as a
seeded shuffled stream), then classify the test side with the model frozen.
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
from .learners import (
    DEFAULT_HYPERPARAMS,
    BatchModel,
    OnlineModel,
    _prequential_sweep,
    batch_train,
    hinge_sgd,
    online_train,
)
# bench/tracing.py wraps these evaluation attributes by name.
from .dataset import lofo_splits  # noqa: F401
from .learners import online_predict, online_update, predict  # noqa: F401


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


def holdout_eval(model: BatchModel | OnlineModel, X: np.ndarray, y: np.ndarray) -> EvalResult:
    """Confusion counts of a frozen model over test rows X (raw features)
    with labels y (+1 SE, -1 NOT_SE), SE positive."""
    if len(y) == 0:
        raise EmptyTest("holdout evaluation needs a non-empty test set")
    predicted = model.predict(X)
    actual = y > 0
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    return EvalResult.from_confusion(tp, fp, len(y) - tp - fp - fn, fn)


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


def weighted_family_accuracy(rows: Iterable[tuple[str, int, float]]) -> float:
    """Sum(n_i * acc_i) / Sum(n_i) over per-family results."""
    rows = list(rows)
    if not rows:
        raise Empty("no per-family rows")
    for fam, n, _ in rows:
        if n < 1:
            raise BadValue(f"family {fam!r} has non-positive count {n}")
    total = sum(n for _, n, _ in rows)
    return sum(n * acc for _, n, acc in rows) / total


def box_stats(values: Iterable[float]) -> BoxStats:
    """Tukey box statistics: type-7 quartiles, whiskers at 1.5 * IQR."""
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
        mean=float(data.mean()),
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
    mean_accuracy: float

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
    train_rows (sorted, as Corpus.rows gives them)."""
    X, y = _features(corpus)[train_rows], corpus.y[train_rows]
    if learner is LearnerKind.BATCH:
        return batch_train(X, y, seed=seed)
    return online_train(X, y, seed=seed)


def train_on_splits(corpus: Corpus, train_rows_list: list[np.ndarray], seeds: list[int],
                    learner: LearnerKind) -> list[BatchModel | OnlineModel]:
    """train_on_split for each (training rows, seed) pair, with identical models.

    Batch fits all train together in one lockstep hinge_sgd pass over the corpus matrix.
    """
    if learner is LearnerKind.ONLINE or not train_rows_list:
        return [train_on_split(corpus, rows, learner, seed) for rows, seed in zip(train_rows_list, seeds)]
    streams = list(zip(train_rows_list, seeds))
    models = hinge_sgd(_features(corpus), corpus.y, streams,
                       [(i, DEFAULT_HYPERPARAMS) for i in range(len(streams))])
    if any(model is None for model in models):
        raise SingleClass("training data contains a single class")
    return models


def _experiment_runs(
    seeds: list[int],
    corpus: Corpus,
    strategy: SplitStrategy,
    learner: LearnerKind,
) -> list[RunRecord]:
    """One RunRecord per seed: split, train every repetition together, and
    score each test side."""
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
    sides = [(corpus.rows(s.train_ids), corpus.rows(s.test_ids)) for s in splits.values()]
    models = train_on_splits(corpus, [train for train, _ in sides], list(splits), learner)
    results = {seed: holdout_eval(model, corpus.X[test], corpus.y[test])
               for seed, (_, test), model in zip(splits, sides, models)}
    return [
        RunRecord(seed=seed, retries=splits[seed].retries, result=results[seed])
        if seed in splits
        else RunRecord(seed=seed, retries=MAX_SPLIT_RETRIES, result=None, skipped=True)
        for seed in seeds
    ]


def run_experiment(
    corpus: Corpus,
    strategy: SplitStrategy,
    learner: LearnerKind,
    repetitions: int,
    base_seed: int,
    jobs: int = 1,
) -> ExperimentSummary:
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
        mean_accuracy=sum(accuracies) / len(accuracies),
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


def run_lofo(
    corpus: Corpus,
    learner: LearnerKind,
    base_seed: int,
) -> LofoSummary:
    """Hold out each family in turn (fold i trains with seed base_seed + i);
    aggregate size-weighted accuracy and the pooled confusion over all
    held-out predictions. Batch folds train in lockstep in one pass."""
    folds = lofo_folds(corpus)
    models = train_on_splits(corpus, [train for _, train, _ in folds],
                             [base_seed + i for i in range(len(folds))], learner)
    per_family = [
        FamilyResult(family=fam, n=len(test), result=holdout_eval(model, corpus.X[test], corpus.y[test]))
        for (fam, _, test), model in zip(folds, models)
    ]
    weighted = weighted_family_accuracy(
        (fr.family, fr.n, fr.result.accuracy) for fr in per_family
    )
    return LofoSummary(
        learner=learner,
        base_seed=base_seed,
        per_family=tuple(per_family),
        weighted_accuracy=weighted,
        pooled=EvalResult.from_confusion(
            tp=sum(fr.result.tp for fr in per_family),
            fp=sum(fr.result.fp for fr in per_family),
            tn=sum(fr.result.tn for fr in per_family),
            fn=sum(fr.result.fn for fr in per_family),
        ),
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
