"""Batch and online learners over the eight string features.

Batch: a linear max-margin classifier trained by stochastic subgradient
descent on the regularized hinge loss, with leakage-safe standardization
fitted on training data only and a grid search capped at 200 configurations.

Online: an ensemble of incremental Gaussian class-conditional models where
each arriving sample enters each ensemble member with a Poisson-drawn weight
(online leveraging bagging). A stream is merged into the per-member means
and M2 in one weighted pairwise update instead of replaying each sample
weight-many times. Cold models and exact ties predict NOT_SE.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import Label, Sample
from .errors import BadConfig, SingleClass, TooSmall
from .features import FeatureVector

N_FEATURES = 8
STD_FLOOR = 1e-9
VAR_FLOOR = 1e-9

_SEED_MASK = 0xFFFFFFFFFFFFFFFF  # numpy wants non-negative; seeds are 64-bit


def _np_seed(seed: int) -> int:
    return seed & _SEED_MASK

DEFAULT_ONLINE_ENSEMBLE = 10
DEFAULT_POISSON_LAMBDA = 6.0

_CLS = {Label.NOT_SE: 0, Label.SE: 1}


@dataclass(frozen=True)
class HingeHyperparams:
    lam: float = 1e-4
    lr: float = 0.05
    epochs: int = 30


DEFAULT_HYPERPARAMS = HingeHyperparams()


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


@dataclass(frozen=True)
class BatchModel:
    weights: np.ndarray
    bias: float
    scaler: Scaler
    hyperparams: HingeHyperparams

    def decision(self, fv: FeatureVector) -> float:
        x = self.scaler.transform(np.asarray(fv.as_tuple(), dtype=float))
        return float(self.weights @ x + self.bias)


def fit_scaler(train: list[FeatureVector]) -> Scaler:
    """Per-feature mean and population standard deviation (train only)."""
    if len(train) < 2:
        raise TooSmall(f"scaler needs at least 2 vectors, got {len(train)}")
    X = np.asarray([fv.as_tuple() for fv in train], dtype=float)
    return _fit_scaler_matrix(X)


def _fit_scaler_matrix(X: np.ndarray) -> Scaler:
    mean = X.mean(axis=0)
    std = np.maximum(X.std(axis=0), STD_FLOOR)
    return Scaler(mean=mean, std=std)


def hinge_objective(weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Average hinge loss plus lam * ||w||^2 on a batch."""
    margins = y * (X @ weights + bias)
    return float(np.mean(np.maximum(0.0, 1.0 - margins)) + lam * weights @ weights)


def hinge_subgradient(
    weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """Subgradient of hinge_objective (the zero branch at active margins)."""
    margins = y * (X @ weights + bias)
    active = margins < 1.0
    grad_w = -(y[active, None] * X[active]).sum(axis=0) / len(y) + 2.0 * lam * weights
    grad_b = -float(y[active].sum()) / len(y)
    return grad_w, grad_b


def _design_matrix(train: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray([s.features.as_tuple() for s in train], dtype=float)
    y = np.asarray([1.0 if s.label is Label.SE else -1.0 for s in train])
    return X, y


def batch_train(train: list[Sample], hp: HingeHyperparams = DEFAULT_HYPERPARAMS, seed: int = 0) -> BatchModel:
    """Stochastic subgradient descent over shuffled epochs; deterministic per seed."""
    X, y = _design_matrix(train)
    if len(set(y.tolist())) < 2:
        raise SingleClass("training data contains a single class")
    scaler = _fit_scaler_matrix(X)
    Xs = scaler.transform(X)

    rng = np.random.default_rng(_np_seed(seed))
    w = np.zeros(N_FEATURES)
    b = 0.0
    shrink = 1.0 - 2.0 * hp.lr * hp.lam
    for _ in range(hp.epochs):
        for i in rng.permutation(len(y)):
            margin = y[i] * (w @ Xs[i] + b)
            w *= shrink
            if margin < 1.0:
                w += hp.lr * y[i] * Xs[i]
                b += hp.lr * y[i]
    return BatchModel(weights=w, bias=b, scaler=scaler, hyperparams=hp)


def predict(model: BatchModel, fv: FeatureVector) -> Label:
    """Sign rule; a margin of exactly zero predicts NOT_SE."""
    return Label.SE if model.decision(fv) > 0.0 else Label.NOT_SE


def default_grid() -> list[HingeHyperparams]:
    """10 x 10 x 2 = 200 configurations, matching the tuning budget."""
    grid = []
    for lam in np.logspace(-4, 1, 10):
        for lr in np.logspace(-3, -1, 10):
            for epochs in (20, 50):
                grid.append(HingeHyperparams(lam=float(lam), lr=float(lr), epochs=epochs))
    return grid


def grid_search(
    train: list[Sample],
    grid: list[HingeHyperparams] | None = None,
    folds: int = 3,
    seed: int = 0,
) -> HingeHyperparams:
    """Pick the grid point with the best mean k-fold validation accuracy.

    Folds are carved from the training data only. A fold whose training side
    is single-class is skipped; a configuration with no valid fold is
    disqualified. Ties go to the earliest grid point.
    """
    if grid is None:
        grid = default_grid()
    if not grid:
        raise BadConfig("grid must be non-empty")
    if folds < 2:
        raise BadConfig("need at least 2 folds")
    if len(train) < folds:
        raise TooSmall(f"{len(train)} samples cannot fill {folds} folds")

    rng = np.random.default_rng(_np_seed(seed))
    order = rng.permutation(len(train))
    chunks = np.array_split(order, folds)

    best: tuple[float, int] | None = None
    best_hp = grid[0]
    for gi, hp in enumerate(grid):
        accs = []
        for f, chunk in enumerate(chunks):
            val_idx = set(int(i) for i in chunk)
            fold_train = [train[i] for i in range(len(train)) if i not in val_idx]
            fold_val = [train[int(i)] for i in chunk]
            try:
                model = batch_train(fold_train, hp, seed=seed + f)
            except SingleClass:
                continue
            correct = sum(1 for s in fold_val if predict(model, s.features) is s.label)
            accs.append(correct / len(fold_val))
        if not accs:
            continue
        score = (sum(accs) / len(accs), -gi)
        if best is None or score > best:
            best = score
            best_hp = hp
    if best is None:
        raise SingleClass("every fold was single-class for every configuration")
    return best_hp


# --------------------------------------------------------------------------
# Online leveraging bagging
# --------------------------------------------------------------------------

class GaussianBaseLearner(NamedTuple):
    """One ensemble member: views of its row in the model's arrays."""

    counts: np.ndarray  # (2,) weighted observations per class
    mean: np.ndarray    # (2, N_FEATURES) per-class feature means
    m2: np.ndarray      # (2, N_FEATURES) per-class sums of squared deviations


@dataclass
class OnlineModel:
    """k incremental per-class Gaussian models, stored as stacked arrays."""

    counts: np.ndarray  # (k, 2) int64
    mean: np.ndarray    # (k, 2, N_FEATURES)
    m2: np.ndarray      # (k, 2, N_FEATURES)
    lam_poisson: float
    seed: int
    rng: np.random.Generator
    n_draws: int = 0

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def learners(self) -> list[GaussianBaseLearner]:
        return [GaussianBaseLearner(self.counts[j], self.mean[j], self.m2[j])
                for j in range(self.k)]


def online_init(
    k: int = DEFAULT_ONLINE_ENSEMBLE,
    lam_poisson: float = DEFAULT_POISSON_LAMBDA,
    seed: int = 0,
) -> OnlineModel:
    if k < 1:
        raise BadConfig(f"ensemble size must be >= 1, got {k}")
    if not lam_poisson > 0:
        raise BadConfig(f"poisson lambda must be > 0, got {lam_poisson}")
    return OnlineModel(
        counts=np.zeros((k, 2), dtype=np.int64),
        mean=np.zeros((k, 2, N_FEATURES)),
        m2=np.zeros((k, 2, N_FEATURES)),
        lam_poisson=lam_poisson,
        seed=seed,
        rng=np.random.default_rng(_np_seed(seed)),
    )


def online_fit(model: OnlineModel, X: np.ndarray, cls: np.ndarray) -> OnlineModel:
    """Feed a stream of samples (rows of X, classes 0/1 in cls) to every member.

    Sample i gets weight W[i, j] ~ Poisson(lam) in member j. All n * k weights
    come from one draw in sample-major order, which yields the values that
    one scalar draw per sample and member would. Each class's weighted batch
    is merged into each member's running mean and M2 with the pairwise update
    of Chan, Golub & LeVeque (1979); this equals replaying sample i W[i, j]
    times up to floating-point rounding.
    """
    W = model.rng.poisson(model.lam_poisson, size=(len(X), model.k))
    model.n_draws += W.size
    for c in (0, 1):
        rows = cls == c
        Wc = W[rows]
        nb = Wc.sum(axis=0)
        hit = np.flatnonzero(nb)
        if hit.size == 0:
            continue
        Xc, Wc, nb = X[rows], Wc[:, hit].astype(float), nb[hit]
        mb = (Wc.T @ Xc) / nb[:, None]
        # One member at a time: a (members, rows, features) temporary would
        # dominate peak memory on large streams.
        m2b = np.stack([Wc[:, i] @ (Xc - mb[i]) ** 2 for i in range(len(hit))])
        na = model.counts[hit, c]
        n = na + nb
        delta = mb - model.mean[hit, c]
        model.mean[hit, c] += delta * (nb / n)[:, None]
        model.m2[hit, c] += m2b + delta ** 2 * (na * nb / n)[:, None]
        model.counts[hit, c] = n
    return model


def online_update(model: OnlineModel, sample: Sample) -> OnlineModel:
    """Feed one sample to every member with a Poisson-drawn weight."""
    x = np.asarray(sample.features.as_tuple(), dtype=float)
    return online_fit(model, x[None, :], np.array([_CLS[sample.label]]))


def online_train(
    train: list[Sample],
    k: int = DEFAULT_ONLINE_ENSEMBLE,
    lam_poisson: float = DEFAULT_POISSON_LAMBDA,
    seed: int = 0,
) -> OnlineModel:
    """A fresh ensemble that has seen the training set once, as a stream
    shuffled by a generator derived from the seed."""
    model = online_init(k=k, lam_poisson=lam_poisson, seed=seed)
    order = np.random.default_rng(
        np.random.SeedSequence([_np_seed(seed), 1])
    ).permutation(len(train))
    X, y = _design_matrix(train)
    return online_fit(model, X[order], (y[order] > 0).astype(np.int64))


def online_predict(model: OnlineModel, fv: FeatureVector) -> Label:
    """Majority vote of the members; overall ties predict NOT_SE.

    A member votes for the class with the higher log prior plus diagonal
    Gaussian log-likelihood; a class it has not seen scores -inf, so a cold
    member and an exact tie vote NOT_SE. Variances are unbiased and floored.
    """
    x = np.asarray(fv.as_tuple(), dtype=float)
    counts = model.counts
    n = counts[..., None]
    # Cold classes divide by zero here; np.where discards those entries.
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.where(n >= 2, np.maximum(model.m2 / (n - 1), VAR_FLOOR), VAR_FLOOR)
        ll = -0.5 * np.sum(np.log(2.0 * math.pi * var) + (x - model.mean) ** 2 / var, axis=-1)
        prior = np.log(counts / counts.sum(axis=1, keepdims=True))
    scores = np.where(counts > 0, prior + ll, -math.inf)
    votes_se = int(np.count_nonzero(scores[:, 1] > scores[:, 0]))
    return Label.SE if 2 * votes_se > model.k else Label.NOT_SE


# --------------------------------------------------------------------------
# Model persistence
# --------------------------------------------------------------------------

def model_to_json(model: BatchModel | OnlineModel) -> dict:
    if isinstance(model, BatchModel):
        return {
            "kind": "batch",
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "scaler": {"mean": model.scaler.mean.tolist(), "std": model.scaler.std.tolist()},
            "hyperparams": {
                "lam": model.hyperparams.lam,
                "lr": model.hyperparams.lr,
                "epochs": model.hyperparams.epochs,
            },
        }
    return {
        "kind": "online",
        "lam_poisson": model.lam_poisson,
        "seed": model.seed,
        "n_draws": model.n_draws,
        "learners": [
            {"counts": m.counts.tolist(), "mean": m.mean.tolist(), "m2": m.m2.tolist()}
            for m in model.learners
        ],
    }


def model_from_json(obj: dict) -> BatchModel | OnlineModel:
    if obj["kind"] == "batch":
        return BatchModel(
            weights=np.asarray(obj["weights"], dtype=float),
            bias=float(obj["bias"]),
            scaler=Scaler(
                mean=np.asarray(obj["scaler"]["mean"], dtype=float),
                std=np.asarray(obj["scaler"]["std"], dtype=float),
            ),
            hyperparams=HingeHyperparams(**obj["hyperparams"]),
        )
    if obj["kind"] == "online":
        members = obj["learners"]
        model = OnlineModel(
            counts=np.asarray([m["counts"] for m in members], dtype=np.int64),
            mean=np.asarray([m["mean"] for m in members], dtype=float),
            m2=np.asarray([m["m2"] for m in members], dtype=float),
            lam_poisson=float(obj["lam_poisson"]),
            seed=int(obj["seed"]),
            rng=np.random.default_rng(_np_seed(int(obj["seed"]))),
            n_draws=int(obj["n_draws"]),
        )
        # Redraw the consumed weights so the generator state matches the export.
        model.rng.poisson(model.lam_poisson, size=model.n_draws)
        return model
    raise BadConfig(f"unknown model kind {obj.get('kind')!r}")


def save_model(model: BatchModel | OnlineModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh)
        fh.write("\n")


def load_model(path: str | Path) -> BatchModel | OnlineModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
