"""Holdout and prequential evaluation, aggregate metrics, box statistics.

SE is the positive class everywhere. The repeated-experiment driver mirrors
the published protocol: build a split per derived seed, train the chosen
learner on the training side (online learners see the training set once as a
seeded shuffled stream), then classify the test side with the model frozen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from .dataset import (
    MAX_SPLIT_RETRIES,
    Corpus,
    Sample,
    Split,
    SplitStrategy,
    family_disjoint_split,
    lofo_splits,
    random_split,
    validate_split,
)
from .errors import Degenerate, Empty, EmptyStream, EmptyTest, SingleClass, StrobeError
from .learners import (
    DEFAULT_HYPERPARAMS,
    DEFAULT_ONLINE_ENSEMBLE,
    DEFAULT_POISSON_LAMBDA,
    BatchModel,
    HingeHyperparams,
    OnlineModel,
    batch_predict_rows,
    batch_train,
    design_matrix,
    hinge_sgd,
    online_predict,
    online_predict_rows,
    online_train,
    online_update,
    predict,  # noqa: F401  (bench/tracing.py wraps evaluation.predict by name)
)


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
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "f1": self.f1,
        }


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
        return {
            "mean": self.mean, "median": self.median, "q1": self.q1, "q3": self.q3,
            "whisker_lo": self.whisker_lo, "whisker_hi": self.whisker_hi,
            "outliers": list(self.outliers),
        }


def holdout_eval(model: BatchModel | OnlineModel, test: list[Sample]) -> EvalResult:
    """Confusion counts of a frozen model over the test samples, SE positive;
    every prediction equals predict / online_predict on that sample."""
    if not test:
        raise EmptyTest("holdout evaluation needs a non-empty test set")
    X, y = design_matrix(test)
    if isinstance(model, BatchModel):
        predicted = batch_predict_rows(model, X)
    else:
        predicted = online_predict_rows(model, X)
    actual = y > 0
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    return EvalResult.from_confusion(tp, fp, len(test) - tp - fp - fn, fn)


def prequential_eval(model: OnlineModel, stream: list[Sample]) -> PrequentialResult:
    """Test-then-train over the stream; the model is mutated in place."""
    if not stream:
        raise EmptyStream("prequential evaluation needs a non-empty stream")
    correct: list[bool] = []
    running: list[float] = []
    hits = 0
    for sample in stream:
        predicted = online_predict(model, sample.features)
        correct.append(predicted is sample.label)
        hits += correct[-1]
        running.append(hits / len(correct))
        online_update(model, sample)
    return PrequentialResult(
        per_sample_correct=tuple(correct),
        running_accuracy=tuple(running),
        final_accuracy=hits / len(correct),
    )


def weighted_family_accuracy(rows: Iterable[tuple[str, int, float]]) -> float:
    """Sum(n_i * acc_i) / Sum(n_i) over per-family results."""
    rows = list(rows)
    if not rows:
        raise Empty("no per-family rows")
    for fam, n, _ in rows:
        if n < 1:
            raise ValueError(f"family {fam!r} has non-positive count {n}")
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


def train_on_split(
    corpus: Corpus,
    split: Split,
    learner: LearnerKind,
    seed: int,
    hp: HingeHyperparams = DEFAULT_HYPERPARAMS,
    ensemble: int = DEFAULT_ONLINE_ENSEMBLE,
    lam_poisson: float = DEFAULT_POISSON_LAMBDA,
) -> BatchModel | OnlineModel:
    """Fit the chosen learner on the training side of a split."""
    train = corpus.by_ids(split.train_ids)
    if learner is LearnerKind.BATCH:
        return batch_train(train, hp, seed=seed)
    return online_train(train, k=ensemble, lam_poisson=lam_poisson, seed=seed)


def train_on_splits(
    corpus: Corpus,
    splits: list[Split],
    seeds: list[int],
    learner: LearnerKind,
    hp: HingeHyperparams = DEFAULT_HYPERPARAMS,
    ensemble: int = DEFAULT_ONLINE_ENSEMBLE,
    lam_poisson: float = DEFAULT_POISSON_LAMBDA,
) -> list[BatchModel | OnlineModel]:
    """train_on_split for each (split, seed) pair, with identical models.

    Batch fits all train together in one lockstep hinge_sgd pass over the
    corpus matrix, each on its split's training rows in corpus order.
    """
    if learner is LearnerKind.ONLINE or not splits:
        return [train_on_split(corpus, split, learner, seed, hp, ensemble, lam_poisson)
                for split, seed in zip(splits, seeds)]
    X, y = design_matrix(corpus.samples)
    streams = [(np.array(sorted(corpus.id_index[i] for i in split.train_ids), dtype=np.intp), seed)
               for split, seed in zip(splits, seeds)]
    models = hinge_sgd(X, y, streams, [(i, hp) for i in range(len(streams))])
    if any(model is None for model in models):
        raise SingleClass("training data contains a single class")
    return models


def _experiment_runs(
    seeds: list[int],
    corpus: Corpus,
    strategy: SplitStrategy,
    learner: LearnerKind,
    hp: HingeHyperparams,
    ensemble: int,
    lam_poisson: float,
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
    models = train_on_splits(corpus, list(splits.values()), list(splits), learner,
                             hp, ensemble, lam_poisson)
    results = {seed: holdout_eval(model, corpus.by_ids(split.test_ids))
               for (seed, split), model in zip(splits.items(), models)}
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
    hp: HingeHyperparams = DEFAULT_HYPERPARAMS,
    ensemble: int = DEFAULT_ONLINE_ENSEMBLE,
    lam_poisson: float = DEFAULT_POISSON_LAMBDA,
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
        raise ValueError("repetitions must be >= 1")
    if strategy is SplitStrategy.LOFO:
        raise ValueError("LOFO experiments use run_lofo")

    seeds = [base_seed + i for i in range(repetitions)]
    runs = partial(_experiment_runs, corpus=corpus, strategy=strategy, learner=learner,
                   hp=hp, ensemble=ensemble, lam_poisson=lam_poisson)
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
    hp: HingeHyperparams = DEFAULT_HYPERPARAMS,
    ensemble: int = DEFAULT_ONLINE_ENSEMBLE,
    lam_poisson: float = DEFAULT_POISSON_LAMBDA,
) -> LofoSummary:
    """Hold out each family in turn (fold i trains with seed base_seed + i);
    aggregate size-weighted accuracy and the pooled confusion over all
    held-out predictions. Batch folds train in lockstep in one pass."""
    splits = lofo_splits(corpus)
    models = train_on_splits(corpus, splits, [base_seed + i for i in range(len(splits))],
                             learner, hp, ensemble, lam_poisson)
    per_family = [
        FamilyResult(family=split.held_out_family, n=len(split.test_ids),
                     result=holdout_eval(model, corpus.by_ids(split.test_ids)))
        for split, model in zip(splits, models)
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
