"""Batch and online learners over the eight string features.

Batch: a linear max-margin classifier trained by stochastic subgradient
descent on the regularized hinge loss, with leakage-safe standardization
fitted on training data only and a grid search capped at 200 configurations.
One engine, hinge_sgd, trains any number of fits in lockstep (each step moves
every fit by its own next sample) with weights bit-identical to training
each fit alone; batch_train is one fit, grid_search every (grid point, fold)
pair, and run_lofo and run_experiment every fold or repetition of a run.

Online: an ensemble of incremental Gaussian class-conditional models where
each arriving sample enters each ensemble member with a Poisson-drawn weight
(online leveraging bagging). A stream is merged into the per-member means
and M2 in one weighted pairwise update instead of replaying each sample
weight-many times. Cold models and exact ties predict NOT_SE.

batch_predict_rows and online_predict_rows score a whole feature matrix at
once, with the same label per row as predict and online_predict.
"""

from __future__ import annotations

import json
import math
from itertools import chain
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


def design_matrix(samples) -> tuple[np.ndarray, np.ndarray]:
    """Raw features (n, 8) and labels (n,), +1 for SE and -1 for NOT_SE."""
    # fromiter builds no list of per-sample tuples (about 0.5 MB on the
    # 5,027-app corpus).
    X = np.fromiter(chain.from_iterable(s.features.as_tuple() for s in samples),
                    dtype=float, count=N_FEATURES * len(samples)).reshape(-1, N_FEATURES)
    y = np.asarray([1.0 if s.label is Label.SE else -1.0 for s in samples])
    return X, y


# Rows are gathered and standardized for a block of lockstep steps at a time;
# a block holds about this many values per (steps, fits, features) array.
_BLOCK_VALUES = 16384


class _Stream:
    """A training set X[rows] visited in one fresh permutation per epoch,
    drawn from default_rng(seed): the sample order of one batch_train call."""

    def __init__(self, rows: np.ndarray, seed: int) -> None:
        self.rows = rows
        self.rng = np.random.default_rng(_np_seed(seed))
        self.epoch = rows[:0]
        self.pos = 0

    def take(self, out: np.ndarray) -> None:
        """Fill out with the next len(out) row indices."""
        done = 0
        while done < len(out):
            if self.pos == len(self.epoch):
                self.epoch = self.rows[self.rng.permutation(len(self.rows))]
                self.pos = 0
            k = min(len(out) - done, len(self.epoch) - self.pos)
            out[done:done + k] = self.epoch[self.pos:self.pos + k]
            done += k
            self.pos += k


def hinge_sgd(
    X: np.ndarray,
    y: np.ndarray,
    streams: list[tuple[np.ndarray, int]],
    fits: list[tuple[int, HingeHyperparams]],
) -> list[BatchModel | None]:
    """Train many hinge-SGD models in lockstep, each bit-identical to its own
    per-sample loop.

    X (N, 8) holds raw features and y (N,) labels in {-1, +1}. A stream
    (rows, seed) is the training set X[rows], y[rows] with its own scaler and
    the permutations default_rng(seed) draws, one per epoch; a fit (stream
    index, hp) runs hp.epochs epochs of its stream. Returns one model per
    fit, or None where the stream holds a single class.

    Step t moves every fit with more than t updates to make by its own t-th
    sample, so the Python loop runs max(n * epochs) times, not the sum. Fits
    are ordered by update count, largest first, so the live fits are always a
    prefix of the weight matrix. Each operation is the per-sample loop's
    elementwise operation on a stack of fits: margins come from a stacked
    matmul (the dot kernel of w @ x, where einsum or a row sum would round
    differently), and a mask leaves the weights of fits whose margin is at
    least 1 untouched, where adding zero could flip a signed zero.
    """
    scalers: list[Scaler | None] = []
    for rows, _ in streams:
        two_classes = len(set(y[rows].tolist())) == 2
        scalers.append(_fit_scaler_matrix(X[rows]) if two_classes else None)
    steps = [len(streams[s][0]) * hp.epochs if scalers[s] is not None else 0 for s, hp in fits]
    live = sorted((f for f in range(len(fits)) if steps[f] > 0), key=lambda f: -steps[f])

    n_live = len(live)
    sid = np.array([fits[f][0] for f in live], dtype=np.intp)
    T = np.array([steps[f] for f in live], dtype=np.int64)
    lr = np.array([fits[f][1].lr for f in live])
    mean = np.array([scalers[s].mean for s in sid]).reshape(-1, N_FEATURES)
    std = np.array([scalers[s].std for s in sid]).reshape(-1, N_FEATURES)
    # Row i holds fit i's weights and, in the last column, its bias, so that
    # one shrink and one masked add update both; the bias shrinks by 1.0,
    # which leaves it exactly as it is.
    W = np.zeros((n_live, N_FEATURES + 1))
    shrink = np.ones_like(W)
    shrink[:, :N_FEATURES] = np.array([1.0 - 2.0 * fits[f][1].lr * fits[f][1].lam for f in live])[:, None]

    used = sorted(set(sid.tolist()))
    state = {s: _Stream(*streams[s]) for s in used}
    stream_steps = {s: int(T[sid == s].max()) for s in used}
    # Steps per block, and buffers reused by every block so that the pass
    # allocates nothing per block.
    cap = max(16, _BLOCK_VALUES // (N_FEATURES * max(n_live, 1)))
    G = np.zeros((cap, len(streams)), dtype=np.intp)
    xbuf = np.empty(cap * n_live * N_FEATURES)
    ubuf = np.empty(cap * n_live * (N_FEATURES + 1))
    ybuf = np.empty(cap * n_live)
    t0 = 0
    while n_live and t0 < T[0]:
        L = int(np.count_nonzero(T > t0))
        t1 = min(t0 + cap, int(T[L - 1]))
        c = t1 - t0
        for s in used:
            if stream_steps[s] > t0:
                state[s].take(G[:min(t1, stream_steps[s]) - t0, s])
        rows = G[:c, sid[:L]]
        Xb = xbuf[:c * L * N_FEATURES].reshape(c, L, N_FEATURES)
        Yb = ybuf[:c * L].reshape(c, L)
        Ub = ubuf[:c * L * (N_FEATURES + 1)].reshape(c, L, N_FEATURES + 1)
        # Every index is valid; mode="clip" lets take write straight into
        # the buffer, where the default mode would stage a temporary.
        np.take(X, rows, axis=0, out=Xb, mode="clip")
        np.subtract(Xb, mean[:L], out=Xb)
        np.divide(Xb, std[:L], out=Xb)
        np.take(y, rows, out=Yb, mode="clip")
        # The update (lr * y) * x, and lr * y for the bias.
        np.multiply(lr[:L], Yb, out=Ub[..., N_FEATURES])
        np.multiply(Ub[..., N_FEATURES:], Xb, out=Ub[..., :N_FEATURES])

        Wl, Sl = W[:L], shrink[:L]
        W3, Bl = Wl[:, None, :N_FEATURES], Wl[:, N_FEATURES]
        dots = np.empty((L, 1, 1))
        margin = dots.reshape(L)
        active = np.empty((L, 1), dtype=bool)
        active1 = active.reshape(L)
        for x, yt, u in zip(Xb[..., None], Yb, Ub):
            np.matmul(W3, x, out=dots)
            np.add(margin, Bl, out=margin)
            np.multiply(margin, yt, out=margin)
            np.less(margin, 1.0, out=active1)
            np.multiply(Wl, Sl, out=Wl)
            np.add(Wl, u, out=Wl, where=active)
        t0 = t1

    slot = {f: i for i, f in enumerate(live)}
    models: list[BatchModel | None] = []
    for f, (s, hp) in enumerate(fits):
        if scalers[s] is None:
            models.append(None)
        elif f in slot:
            w = W[slot[f]]
            models.append(BatchModel(w[:N_FEATURES].copy(), float(w[N_FEATURES]), scalers[s], hp))
        else:  # zero epochs
            models.append(BatchModel(np.zeros(N_FEATURES), 0.0, scalers[s], hp))
    return models


def batch_train(train: list[Sample], hp: HingeHyperparams = DEFAULT_HYPERPARAMS, seed: int = 0) -> BatchModel:
    """Stochastic subgradient descent over shuffled epochs; deterministic per seed."""
    X, y = design_matrix(train)
    (model,) = hinge_sgd(X, y, [(np.arange(len(y)), seed)], [(0, hp)])
    if model is None:
        raise SingleClass("training data contains a single class")
    return model


def predict(model: BatchModel, fv: FeatureVector) -> Label:
    """Sign rule; a margin of exactly zero predicts NOT_SE."""
    return Label.SE if model.decision(fv) > 0.0 else Label.NOT_SE


def batch_predict_rows(model: BatchModel, X: np.ndarray) -> np.ndarray:
    """predict on every row of raw features X at once: True where SE. The
    stacked matmul is the dot kernel BatchModel.decision uses, so every row's
    margin is bit-identical to it."""
    Xs = model.scaler.transform(X)
    margins = np.matmul(model.weights[None, None, :], Xs[:, :, None]).reshape(len(Xs))
    return margins + model.bias > 0.0


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

    Folds are carved from the training data only; fold f trains with seed
    seed + f, and every (grid point, fold) fit runs in one lockstep pass. A
    fold whose training side is single-class is skipped; a configuration with
    no valid fold is disqualified. Ties go to the earliest grid point.
    """
    if grid is None:
        grid = default_grid()
    if not grid:
        raise BadConfig("grid must be non-empty")
    if folds < 2:
        raise BadConfig("need at least 2 folds")
    if len(train) < folds:
        raise TooSmall(f"{len(train)} samples cannot fill {folds} folds")

    X, y = design_matrix(train)
    rng = np.random.default_rng(_np_seed(seed))
    chunks = np.array_split(rng.permutation(len(train)), folds)
    streams = []
    for f, chunk in enumerate(chunks):
        keep = np.ones(len(train), dtype=bool)
        keep[chunk] = False
        streams.append((np.flatnonzero(keep), seed + f))
    models = hinge_sgd(X, y, streams, [(f, hp) for hp in grid for f in range(folds)])

    best: tuple[float, int] | None = None
    best_hp = grid[0]
    for gi, hp in enumerate(grid):
        accs = []
        for f, chunk in enumerate(chunks):
            model = models[gi * folds + f]
            if model is None:
                continue
            correct = int(np.count_nonzero(batch_predict_rows(model, X[chunk]) == (y[chunk] > 0)))
            accs.append(correct / len(chunk))
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
    X, y = design_matrix(train)
    return online_fit(model, X[order], (y[order] > 0).astype(np.int64))


def _member_terms(model: OnlineModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per member and class: floored unbiased variances (k, 2, 8), their
    log(2 pi var) and the log priors (k, 2)."""
    counts = model.counts
    n = counts[..., None]
    # Cold classes divide by zero here; np.where discards those entries.
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.where(n >= 2, np.maximum(model.m2 / (n - 1), VAR_FLOOR), VAR_FLOOR)
        prior = np.log(counts / counts.sum(axis=1, keepdims=True))
    return var, np.log(2.0 * math.pi * var), prior


def online_predict(model: OnlineModel, fv: FeatureVector) -> Label:
    """Majority vote of the members; overall ties predict NOT_SE.

    A member votes for the class with the higher log prior plus diagonal
    Gaussian log-likelihood; a class it has not seen scores -inf, so a cold
    member and an exact tie vote NOT_SE. Variances are unbiased and floored.
    """
    x = np.asarray(fv.as_tuple(), dtype=float)
    var, log_norm, prior = _member_terms(model)
    ll = -0.5 * np.sum(log_norm + (x - model.mean) ** 2 / var, axis=-1)
    scores = np.where(model.counts > 0, prior + ll, -math.inf)
    votes_se = int(np.count_nonzero(scores[:, 1] > scores[:, 0]))
    return Label.SE if 2 * votes_se > model.k else Label.NOT_SE


def online_predict_rows(model: OnlineModel, X: np.ndarray) -> np.ndarray:
    """online_predict on every row of raw features X at once: True where SE.

    Members are scored one at a time, in place: a (rows, members, 2, 8)
    temporary would dominate peak memory on large test sets. Every operation
    is online_predict's, elementwise, so every vote is identical to it.
    """
    var, log_norm, prior = _member_terms(model)
    votes_se = np.zeros(len(X), dtype=np.int64)
    d = np.empty((len(X), 2, N_FEATURES))
    for j in range(model.k):
        np.subtract(X[:, None, :], model.mean[j], out=d)
        np.square(d, out=d)
        np.divide(d, var[j], out=d)
        np.add(log_norm[j], d, out=d)
        ll = -0.5 * d.sum(axis=-1)
        scores = np.where(model.counts[j] > 0, prior[j] + ll, -math.inf)
        votes_se += scores[:, 1] > scores[:, 0]
    return 2 * votes_se > model.k


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
