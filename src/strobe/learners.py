"""Batch and online learners over the eight string features.

Batch: a linear max-margin classifier trained by stochastic subgradient
descent on the regularized hinge loss, with leakage-safe standardization
fitted on training data only and a grid search capped at 200 configurations.
One engine, hinge_sgd, trains any number of fits in lockstep, one row of
weights per fit on a two-class stream, with weights bit-identical to
training each fit alone. A step in which some fit updates moves every fit
by its own next sample [y * x, y] in five numpy calls, exact since y = +-1;
a run of steps in which no fit updates is taken in one batch from the exact
shrink-only trajectory, as long as every live fit's shrink 1 - 2 * lr * lam
lies in [-1, 1] and few steps update. Each stream's rows are made [y * x, y]
once per call, in one table that a block is taken from, lr * z is formed
only for the steps taken one at a time, rows come from each stream in runs
of 16 blocks, and the per-step row views are built once per count of live
fits: every value is still formed by the same operations on the same
operands, so none of this changes a bit, and no floating-point warning is
silenced. batch_train is one fit, grid_search every (grid point, fold)
pair, and run_lofo and run_experiment every fold or repetition of a run.
Labels other than +1 and -1 raise UnknownLabel, in both learners.

Online: an ensemble of incremental Gaussian class-conditional models where
each arriving sample enters each ensemble member with a Poisson-drawn weight
(online leveraging bagging). One body each draws the weights (_draw_weights),
forms the merge coefficients (_merge_coefficients), merges weighted batches
into the members' means and M2 (_chan_merge), states the variance and prior
rule (_member_terms) and casts the Gaussian votes (_votes_se), for online_fit,
OnlineModel.decision and the prequential sweep alike; decision and the sweep
vote in chunks of one size (_chunk_rows). Cold models and exact ties predict
NOT_SE.

Both learners train on rows of raw features X with labels y (+1 SE, -1
NOT_SE), and both models score a whole feature matrix at once with
model.decision(X), SE where > 0; predict and online_predict apply it to one row.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import Label, Sample, design_matrix
from .errors import (BadConfig, SingleClass, TooSmall, UnknownLabel, is_json_int, is_json_number,
                     numpy_seed, read_json)
from .features import FeatureVector, left_sum

N_FEATURES = 8
STD_FLOOR = 1e-9
VAR_FLOOR = 1e-9

def _check_labels(y: np.ndarray) -> None:
    """Both learners' label rule: every label is +1.0 (SE) or -1.0 (NOT_SE),
    else UnknownLabel. The batch step's sign pass is exact only for these."""
    bad = y[np.abs(y) != 1.0]
    if bad.size:
        raise UnknownLabel(f"labels must be +1 (SE) or -1 (NOT_SE), got {bad[0]!r}")


DEFAULT_ONLINE_ENSEMBLE = 10
DEFAULT_POISSON_LAMBDA = 6.0
_COUNT_MAX = int(np.iinfo(np.int64).max)  # the most an ensemble count can hold
# The largest lambda numpy's Generator.poisson accepts (its POISSON_LAM_MAX).
_POISSON_LAMBDA_MAX = float(_COUNT_MAX - np.sqrt(_COUNT_MAX) * 10)


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

    def decision(self, X: np.ndarray) -> np.ndarray:
        """The margin w . x + b on every row of raw features X (x
        standardized). np.vecdot runs the dot kernel of w @ x, the one
        hinge_sgd's step uses, so each row's margin is bit-identical to it."""
        return np.vecdot(self.scaler.transform(X), self.weights) + self.bias


def fit_scaler(X: np.ndarray) -> Scaler:
    """Per-feature mean and population standard deviation of the rows of X (train only)."""
    if len(X) < 2:
        raise TooSmall(f"scaler needs at least 2 vectors, got {len(X)}")
    return Scaler(mean=X.mean(axis=0), std=np.maximum(X.std(axis=0), STD_FLOOR))


# A block of steps holds about this many values per (steps, fits, 9) array.
_BLOCK_VALUES = 16384
# Each stream's rows are drawn for a run of this many blocks at once, so its
# take runs once per run, not once per block. On the control corpus's batch
# LOFO (20 fits, 91-step blocks) 16 make about 480 take calls a pass where 4
# made 1,880; runs of 8 to 64 blocks train it in about the same time. Runs
# of one block made the lofo benchmark's timed_s about 6% slower (median
# 0.1006 against 0.0948 reference s, slower in 4 of 4 alternating pairs).
_RUN_BLOCKS = 16
# Skipping steps with no update (see hinge_sgd): a window speculates this
# many steps of the shrink-only trajectory. Its 31 multiplies and one stacked
# vecdot cost 8-11 us at 1-20 fits, a fifth of 32 steps taken one at a time.
_SKIP_ROWS = 32
# Speculating pays while at most one step in this many updates a fit: a
# window then advances about 8 steps for what 6-7 single steps (1.3-1.6 us
# each) cost. Past that (hits * 8 > steps + _SKIP_ROWS), steps are taken
# one at a time. Values from 5 to 10 train the lofo and leakage benchmark
# inputs in the same time.
_SKIP_SHARE = 8
# Steps taken one at a time before skipping is tried again, doubling on each
# fallback up to _SKIP_BACKOFF_MAX; a speculative stretch of this many steps
# resets it. Some confounded-corpus or grid fit updates on 55-81% of the
# lockstep steps, and with the doubling their retries stay a small share.
_SKIP_STRETCH = 256
_SKIP_BACKOFF_MAX = 65536


class _Stream:
    """A training set, as the positions of its rows in hinge_sgd's table,
    visited in one fresh permutation per epoch, drawn from
    default_rng(seed): the sample order of one batch_train call."""

    def __init__(self, rows: np.ndarray, seed: int) -> None:
        self.rows = rows
        self.rng = np.random.default_rng(numpy_seed(seed))
        self.epoch = rows[:0]
        self.pos = 0

    def take(self, out: np.ndarray) -> None:
        """Fill out with the next len(out) row indices."""
        done = 0
        while done < len(out):
            if self.pos == len(self.epoch):
                self.epoch = self.rng.permutation(self.rows)
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

    X (N, 8) holds raw features and y (N,) labels in {-1, +1}; any other
    label raises UnknownLabel before anything is trained. A stream
    (rows, seed) is the training set X[rows], y[rows] with its own scaler and
    the permutations default_rng(seed) draws, one per epoch; a fit (stream
    index, hp) runs hp.epochs epochs of its stream. Returns one model per
    fit, or None where the stream holds a single class.

    Step t moves every fit with more than t updates to make by its own t-th
    sample, so the lockstep takes max(n * epochs) steps, not the sum. Every
    fit on a two-class stream has a row of the weight matrix W, ordered by
    update count, largest first, so the live fits are always a prefix of W; a
    fit of zero epochs never goes live and keeps its zero row. The streams
    drawn from are those of the live prefix. Each row holds its fit's [w, b];
    a sample enters as z = [y * x, y] (x standardized) and u = lr * z, and a
    step taken on its own makes five calls on the stack of fits: the margins
    as np.vecdot of W with z, the test margin < 1, the shrink, W + u into a
    scratch array, and a copy of that back into W where the test holds. The
    copy is masked, not an add of u times the test, because adding zero could
    flip a signed zero (-0 + 0 is +0) that a negative shrink left; W + u is
    formed for every fit, so at |u| near the float64 limit it can warn of an
    overflow the loop, which adds only on an update, never forms. As y is +-1
    and rounding is symmetric in sign, u is the loop's (lr * y) * x, and
    vecdot runs the dot kernel of w @ x (einsum or a row sum would round
    differently), so it gives the loop's y * (w @ x + b) bit for bit, but for
    the sign of a zero margin.

    Most steps on a nearly separable training set update no fit: every
    margin is >= 1 and the step only shrinks W. Such runs are skipped in
    batches. From W the loop builds the weights of the next 32 steps if none
    updates, T[0] = W and T[i] = T[i - 1] * shrink: the products the per-step
    loop would form, in its order. One np.vecdot of T with the steps' z gives
    every margin (the stacked call runs the same dot kernel on each row, so
    each equals the per-step margin bit for bit) and one less tests them.
    The steps before the first with a margin < 1 take their weights from T;
    that step runs in the per-step loop from its row of T, and the rows after
    it are thrown away. Windows run only while every live fit's shrink lies
    in [-1, 1], where no row of T is larger than W; while a fit with
    |shrink| > 1 is live, every step is taken on its own with the loop's
    multiplies. So no warning is silenced, and skipping raises none the
    per-step loop would not. The weights are the per-step loop's, whatever
    the policy below decides.

    Each stream's rows are made ready once per call: one table holds the
    rows of every stream a fit draws from as the steps use them,
    [y * (x - mean) / std, y] under the stream's scaler, exact as y is +-1,
    and each stream hands out positions in it, so a block of (steps, fits, 9)
    values is one take from the table into Z. The table and the positions
    take 80 bytes for each row of each drawn stream: 1.8 MB for batch LOFO
    on the control corpus (20 folds), 28 MB on the confounded corpus (71
    folds). u = lr * z is formed into U only for the steps taken one at a
    time, one multiply per stretch of them, since a skip window reads z
    alone. Each stream's take fills the index buffer G for a run of up to 16
    blocks at once, so it runs once per run, not once per block. A stream's
    take hands out its permutations in order, however long the request, so
    every fit sees the rows it would see alone.
    The row views that steps and windows read (Z[t], U[t], T[i]) are built
    once for each number L of live fits, which changes only when a fit
    finishes; a run ends there too. Taking a listed view instead of making
    one per step changes no operand, order or kernel of any numpy call, so
    the weights stay bit for bit the same; it saves only Python work, about
    5 us in each 32-row window at 1-20 fits.

    Skipping pays only while few steps update: a window that stops at step k
    has paid for 32 rows. So the loop watches the share of steps in which
    some fit updates, a property of the input. It is 1.2% for batch LOFO on
    the control corpus and 55-81% for the confounded corpus's experiments
    and grid search (the lofo and leakage benchmark inputs, seed 7). Above
    one step in 8 the loop falls back to the per-step loop for 256 steps,
    doubling that wait on each fallback up to 65,536; a speculative stretch
    of 256 steps resets it.
    """
    _check_labels(y)
    scalers = [fit_scaler(X[rows]) if (y[rows] > 0).any() and (y[rows] < 0).any() else None
               for rows, _ in streams]
    steps = [len(streams[s][0]) * hp.epochs for s, hp in fits]
    live = sorted((f for f, (s, _) in enumerate(fits) if scalers[s] is not None), key=lambda f: -steps[f])

    n_live, width = len(live), N_FEATURES + 1
    sid = np.array([fits[f][0] for f in live], dtype=np.intp)
    n_steps = np.array([steps[f] for f in live], dtype=np.int64)
    lr = np.repeat(np.array([fits[f][1].lr for f in live])[:, None], width, axis=1)
    # The rows of each stream some fit draws from, made [y * x, y] (x
    # standardized) once, into one table; the stream hands out their
    # positions there.
    used = sorted(set(sid[n_steps > 0].tolist()))
    offsets = np.cumsum([0] + [len(streams[s][0]) for s in used])
    table = np.empty((int(offsets[-1]), width))
    positions = {}
    for s, start, end in zip(used, offsets, offsets[1:]):
        rows = streams[s][0]
        part = table[start:end]
        x = part[:, :N_FEATURES]
        np.subtract(X[rows], scalers[s].mean, out=x)
        np.divide(x, scalers[s].std, out=x)
        part[:, N_FEATURES] = y[rows]
        np.multiply(x, part[:, N_FEATURES:], out=x)
        positions[s] = np.arange(start, end)
    state = [_Stream(positions.get(s, rows), seed) for s, (rows, seed) in enumerate(streams)]
    # The bias shrinks by 1.0, which leaves it exactly as it is.
    W = np.zeros((n_live, width))
    shrink = np.ones_like(W)
    shrink[:, :N_FEATURES] = np.array([1.0 - 2.0 * fits[f][1].lr * fits[f][1].lam for f in live])[:, None]
    ones = np.ones(n_live)

    # Steps per block, never more than the lockstep takes, and buffers reused
    # by every block so that the pass allocates nothing per block; G holds a
    # run of blocks.
    cap = min(max(16, _BLOCK_VALUES // (width * max(n_live, 1))), int(n_steps.max(initial=0)))
    G = np.zeros((_RUN_BLOCKS * cap, len(streams)), dtype=np.intp)
    zbuf, ubuf = np.empty((2, cap * n_live * width))
    rows = min(_SKIP_ROWS, cap)
    tbuf = np.empty(rows * n_live * width)
    mbuf = np.empty(rows * n_live)
    abuf = np.empty(rows * n_live, dtype=bool)
    # Steps still to take one at a time, the next such wait, and the steps
    # and updates seen since skipping last (re)started.
    wait, backoff, seen, hits = 0, _SKIP_STRETCH, 0, 0
    vecdot, less, multiply, add, copyto = np.vecdot, np.less, np.multiply, np.add, np.copyto
    # G holds the stream rows of steps r0 to r1; the views below are of L live fits.
    t0 = r0 = r1 = L = 0
    while n_live and t0 < n_steps[0]:
        if not L or n_steps[L - 1] <= t0:  # the first block, or a fit has finished
            L = int(np.count_nonzero(n_steps > t0))
            Wl, Sl, one = W[:L], shrink[:L], ones[:L]
            sid_l, lr_l = sid[:L], lr[:L]
            drawn = set(sid_l.tolist())
            margin, nxt = np.empty(L), np.empty((L, width))
            active = np.empty((L, 1), dtype=bool)
            active1 = active.reshape(L)
            Z = zbuf[:cap * L * width].reshape(cap, L, width)
            U = ubuf[:cap * L * width].reshape(cap, L, width)
            T = tbuf[:rows * L * width].reshape(rows, L, width)
            M = mbuf[:rows * L].reshape(rows, L)
            A_flat = abuf[:rows * L]
            A = A_flat.reshape(rows, L)
            # The row views that steps and windows read, listed once.
            ZU = list(zip(Z, U))
            T_rows = list(T)
            T_pairs = list(zip(T_rows, T_rows[1:]))
            # Rows speculated under |shrink| > 1 grow: no window until that fit ends.
            if not (np.abs(Sl[:, 0]) <= 1.0).all():
                wait = int(n_steps[L - 1]) - t0
        if t0 == r1:
            # The next run: the take of each stream of a live fit fills its
            # column with up to _RUN_BLOCKS blocks of rows at once, ending
            # where a fit does.
            r0, r1 = t0, min(t0 + len(G), int(n_steps[L - 1]))
            for s in drawn:
                state[s].take(G[:r1 - r0, s])
        t1 = min(t0 + cap, r1)
        c = t1 - t0
        # Every index is valid; mode="clip" lets take write straight into
        # the buffer, where the default mode would stage a temporary.
        np.take(table, G[t0 - r0:t1 - r0, sid_l], axis=0, out=Z[:c], mode="clip")

        j = 0
        while j < c:
            if wait:
                e = min(c, j + wait)
                wait -= e - j
            else:
                # T[i] holds the weights before step j + i if no step from
                # j on updates; rows past the first update are thrown away.
                r = min(rows, c - j)
                copyto(T_rows[0], Wl)
                for prev, cur in T_pairs[:r - 1]:
                    multiply(prev, Sl, cur)
                vecdot(T[:r], Z[j:j + r], M[:r])
                less(M[:r], one, A[:r])
                first = int(A_flat[:r * L].argmax())
                if A_flat[first]:  # step j + k updates a fit: take it below
                    k = first // L
                    copyto(Wl, T_rows[k])
                    seen, hits = seen + k + 1, hits + 1
                    j, e = j + k, j + k + 1
                else:
                    multiply(T_rows[r - 1], Sl, Wl)
                    seen += r
                    j = e = j + r
                if hits * _SKIP_SHARE > seen + _SKIP_ROWS:
                    wait, backoff = backoff, min(2 * backoff, _SKIP_BACKOFF_MAX)
                    seen = hits = 0
                elif seen >= _SKIP_STRETCH:
                    backoff, seen, hits = _SKIP_STRETCH, 0, 0
            if j < e:  # u = lr * z for the steps taken one at a time
                multiply(lr_l, Z[j:e], U[j:e])
            for z, u in ZU[j:e]:
                vecdot(Wl, z, margin)
                less(margin, one, active1)
                multiply(Wl, Sl, Wl)
                add(Wl, u, nxt)
                copyto(Wl, nxt, where=active)
            j = e
        t0 = t1

    models: list[BatchModel | None] = [None] * len(fits)
    for f, w in zip(live, W):
        s, hp = fits[f]
        models[f] = BatchModel(w[:N_FEATURES].copy(), float(w[N_FEATURES]), scalers[s], hp)
    return models


def batch_train(X: np.ndarray, y: np.ndarray, hp: HingeHyperparams = DEFAULT_HYPERPARAMS,
                seed: int = 0) -> BatchModel:
    """Stochastic subgradient descent over shuffled epochs of the rows X, y;
    deterministic per seed."""
    (model,) = hinge_sgd(X, y, [(np.arange(len(y)), seed)], [(0, hp)])
    if model is None:
        raise SingleClass("training data contains a single class")
    return model


def predict(model: BatchModel | OnlineModel, fv: FeatureVector) -> Label:
    """SE where the model's decision on one sample is > 0; a zero or a tie is NOT_SE."""
    return Label.SE if model.decision(np.asarray([fv.as_tuple()], dtype=float))[0] > 0 else Label.NOT_SE


online_predict = predict  # one body for both models; the name stays for callers


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
    rng = np.random.default_rng(numpy_seed(seed))
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
            correct = int(np.count_nonzero((model.decision(X[chunk]) > 0) == (y[chunk] > 0)))
            accs.append(correct / len(chunk))
        if not accs:
            continue
        score = (left_sum(accs) / len(accs), -gi)
        if best is None or score > best:
            best = score
            best_hp = hp
    if best is None:
        raise SingleClass("every fold was single-class for every configuration")
    return best_hp


# --------------------------------------------------------------------------
# Online leveraging bagging
# --------------------------------------------------------------------------

def _chunk_rows(k: int) -> int:
    """Rows that OnlineModel.decision and the prequential sweep vote in one
    pass: a (rows, k, 2, 8) array holds at most _BLOCK_VALUES values, and a
    chunk at least one row."""
    return max(1, _BLOCK_VALUES // (k * 2 * N_FEATURES))


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

    def decision(self, X: np.ndarray) -> np.ndarray:
        """The members' SE votes minus their NOT_SE votes, 2 * votes_se - k,
        on every row of raw features X; a tie is 0. Under _member_terms'
        rule, all members are scored in one _votes_se pass per chunk of
        _chunk_rows rows, in place, 102 rows at k = 10: peak memory stays
        flat however large the test set, and the prequential sweep votes in
        chunks of the same size. Each score is formed by the same
        elementwise calls and the same 8-term last-axis sum as member by
        member, so every vote is the same. One call per chunk, where each
        member took one, brought online LOFO on the control corpus (seed 7,
        k = 10, 60-row test families) from 28.1 to 26.3 ms in-process.
        """
        var, log_norm, prior = _member_terms(self.counts, self.m2)
        seen = self.counts > 0
        chunk = _chunk_rows(self.k)
        votes_se = np.empty(len(X), dtype=np.int64)
        d = np.empty((min(chunk, len(X)), self.k, 2, N_FEATURES))
        for start in range(0, len(X), chunk):
            Xc = X[start:start + chunk, None, None, :]
            votes = _votes_se(Xc, self.mean, var, log_norm, prior, seen, d[:len(Xc)])
            votes_se[start:start + len(Xc)] = np.count_nonzero(votes, axis=1)
        return 2 * votes_se - self.k


def online_init(
    k: int = DEFAULT_ONLINE_ENSEMBLE,
    lam_poisson: float = DEFAULT_POISSON_LAMBDA,
    seed: int = 0,
) -> OnlineModel:
    if k < 1:
        raise BadConfig(f"ensemble size must be >= 1, got {k}")
    if not 0 < lam_poisson <= _POISSON_LAMBDA_MAX:
        raise BadConfig(f"poisson lambda must be in (0, {_POISSON_LAMBDA_MAX:.10g}], got {lam_poisson}")
    return OnlineModel(
        counts=np.zeros((k, 2), dtype=np.int64),
        mean=np.zeros((k, 2, N_FEATURES)),
        m2=np.zeros((k, 2, N_FEATURES)),
        lam_poisson=lam_poisson,
        seed=seed,
        rng=np.random.default_rng(numpy_seed(seed)),
    )


def online_fit(model: OnlineModel, X: np.ndarray, y: np.ndarray) -> OnlineModel:
    """Feed a stream of samples (rows of X, labels y) to every member.

    Sample i gets weight W[i, j] in member j, from _draw_weights. Each
    class's weighted batch is merged into each member's running mean and M2
    with the pairwise update of Chan, Golub & LeVeque (1979); this equals
    replaying sample i W[i, j] times up to floating-point rounding.
    """
    cls, W = _draw_weights(model, y)
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
        _chan_merge(model.mean[:, c], model.m2[:, c], hit, mb, m2b,
                    *_merge_coefficients(model.counts[hit, c], nb))
        model.counts[hit, c] += nb
    return model


def online_update(model: OnlineModel, sample: Sample) -> OnlineModel:
    """Feed one sample to every member with a Poisson-drawn weight."""
    return online_fit(model, *design_matrix([sample]))


def online_train(X: np.ndarray, y: np.ndarray, k: int = DEFAULT_ONLINE_ENSEMBLE,
                 lam_poisson: float = DEFAULT_POISSON_LAMBDA, seed: int = 0) -> OnlineModel:
    """A fresh ensemble that has seen the training rows X, y once, as a
    stream shuffled by a generator derived from the seed."""
    model = online_init(k=k, lam_poisson=lam_poisson, seed=seed)
    order = np.random.default_rng(
        np.random.SeedSequence([numpy_seed(seed), 1])
    ).permutation(len(y))
    return online_fit(model, X[order], y[order])


def _draw_weights(model: OnlineModel, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each label's class index (0 NOT_SE, 1 SE) and the weights W[i, j] ~
    Poisson(lam) of row i in member j: one sample-major draw, which yields the
    values one scalar draw per row and member would, counted in n_draws.

    Raises BadConfig, before any merge, if the weights would take a member's
    int64 count past its maximum. Counts only grow, so the final ones bound
    every count on the way. The sums are exact: Python integers, where the
    cheap bound does not hold.
    """
    _check_labels(y)
    cls = (y > 0).astype(np.int64)
    W = model.rng.poisson(model.lam_poisson, size=(len(y), model.k))
    model.n_draws += W.size
    if int(model.counts.max()) + len(W) * int(W.max(initial=0)) > _COUNT_MAX:
        for c in (0, 1):
            totals = model.counts[:, c].astype(object) + W[cls == c].astype(object).sum(axis=0)
            for j, total in enumerate(totals):
                if total > _COUNT_MAX:
                    raise BadConfig(
                        f"poisson lambda {model.lam_poisson:.10g} overflows the int64 count "
                        f"of member {j}, class {c}: {total} weighted observations")
    return cls, W


def _member_terms(counts: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one variance and prior rule, per member and class of counts
    (..., 2) and M2 (..., 2, 8): floored unbiased variances (..., 2, 8),
    their log(2 pi var), and log priors (..., 2), each class's count over
    their sum on the last axis."""
    n, seen = counts[..., None], counts > 0
    # Divided only where read: _votes_se masks a class not seen.
    var = np.maximum(np.divide(m2, n - 1, out=np.zeros(m2.shape), where=n >= 2), VAR_FLOOR)
    prior = np.divide(counts, counts.sum(axis=-1, keepdims=True), out=np.zeros(counts.shape), where=seen)
    return var, np.log(2.0 * math.pi * var), np.log(prior, out=prior, where=seen)


def _merge_coefficients(na: np.ndarray, nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_chan_merge's frac nb / n and coef na * nb / n, with a trailing axis
    for the features, for na observations before, nb in the batch and
    n = na + nb after. na * nb is formed in float64: the int64 product wraps
    long before the counts do, while for counts below 2**53 the float product
    is the exact one rounded once, as its conversion to float was. Both are
    0 where n = 0, where nothing is merged."""
    n = na + nb
    frac, coef = (np.divide(a, n, out=np.zeros(n.shape), where=n > 0) for a in (nb, na * nb.astype(float)))
    return frac[..., None], coef[..., None]


def _chan_merge(mean, m2, hit, mb, m2b, frac, coef) -> None:
    """Merge weighted batches (means mb, M2 m2b) into rows hit of one class's
    running mean and M2, in place, by the pairwise update of Chan, Golub &
    LeVeque (1979), with frac and coef from _merge_coefficients."""
    delta = mb - mean[hit]
    mean[hit] += delta * frac
    m2[hit] += m2b + delta ** 2 * coef


def _votes_se(x, mean, var, log_norm, prior, seen, d) -> np.ndarray:
    """Where a member votes SE: per class, the log prior plus the diagonal
    Gaussian log-likelihood of x (unbiased floored variances), or -inf for a
    class not seen, so a cold member and an exact tie vote NOT_SE.

    Broadcasts rows over members: a chunk of rows (rows, 1, 1, 8) against
    every member, or against each row's own member states (rows, k, 2, 8),
    or one row against every member; d is scratch of the broadcast
    (..., 2, 8) shape, overwritten in place.
    """
    np.subtract(x, mean, out=d)
    np.square(d, out=d)
    np.divide(d, var, out=d)
    np.add(log_norm, d, out=d)
    scores = d.sum(axis=-1)
    scores *= -0.5
    scores = np.where(seen, scores + prior, -math.inf)
    return scores[..., 1] > scores[..., 0]


def _prequential_sweep(model: OnlineModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vote on each row of X, then feed it to the model, in stream order;
    True where the vote named the row's label (+1 SE, -1 NOT_SE in y).

    Bit-identical to online_predict then online_update per row: the same
    values in the model, the same n_draws and the same generator state.
    The weights come from _draw_weights, as in online_fit, and the rows go
    in chunks of OnlineModel.decision's size (_chunk_rows). The counts
    depend on the weights and classes alone, so integer cumulative sums give
    every row's counts before it, and with them its merge coefficients; each
    row's weighted batch mean (w * x) / w and M2 w * (x - mean)**2 are
    computed for the chunk too. The loop over rows only copies the members'
    mean and M2 into the chunk's history and merges the row into the members
    with weight > 0, as online_fit does. Then the chunk is voted in one
    _votes_se pass, each row against its own history, as decision votes.
    """
    n, k = len(X), model.k
    cls, W = _draw_weights(model, y)
    correct = np.empty(n, dtype=bool)
    chunk = _chunk_rows(k)
    mean_h, m2_h, d = np.empty((3, min(chunk, n), k, 2, N_FEATURES))
    for start in range(0, n, chunk):
        Xc, cc, Wc = (a[start:start + chunk] for a in (X, cls, W))
        m = len(Xc)
        step = np.zeros((m, k, 2), dtype=np.int64)
        step[np.arange(m), :, cc] = Wc
        after = model.counts + np.cumsum(step, axis=0)
        before = after - step
        # Members with weight 0 are never merged: their batch mean is the row.
        frac, coef = _merge_coefficients(before[np.arange(m), :, cc], Wc)
        Wf = Wc[..., None].astype(float)
        mb = np.divide(Wf * Xc[:, None, :], Wf, out=np.repeat(Xc[:, None, :], k, axis=1), where=Wf > 0)
        m2b = Wf * (Xc[:, None, :] - mb) ** 2
        for i in range(m):
            mean_h[i], m2_h[i] = model.mean, model.m2
            hit = np.flatnonzero(Wc[i])
            if hit.size:
                hit = slice(None) if hit.size == k else hit  # a view, not a gather
                c = cc[i]
                _chan_merge(model.mean[:, c], model.m2[:, c], hit, mb[i, hit], m2b[i, hit],
                            frac[i, hit], coef[i, hit])
        var, log_norm, prior = _member_terms(before, m2_h[:m])
        votes = _votes_se(Xc[:, None, None, :], mean_h[:m], var, log_norm, prior, before > 0, d[:m])
        correct[start:start + m] = (2 * np.count_nonzero(votes, axis=1) > k) == (cc == 1)
        model.counts[...] = after[-1]
    return correct


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
            "hyperparams": asdict(model.hyperparams),
        }
    return {
        "kind": "online",
        "lam_poisson": model.lam_poisson,
        "seed": model.seed,
        "n_draws": model.n_draws,
        "rng_state": model.rng.bit_generator.state,
        "learners": [
            {"counts": m.counts.tolist(), "mean": m.mean.tolist(), "m2": m.m2.tolist()}
            for m in model.learners
        ],
    }


# What each number of a model file must be; a count must fit int64.
_NUMBER = "a finite number"
_INTEGER = "an integer"
_COUNT = "an integer from 0 to 2**63 - 1"
_KIND_TESTS = {
    _NUMBER: is_json_number,
    _INTEGER: is_json_int,
    _COUNT: lambda v: is_json_int(v) and 0 <= v <= _COUNT_MAX,
}


def _read(values, shape: tuple[int, ...], name: str, kind: str = _NUMBER):
    """values, numbers nested in lists to the given shape, each of the given
    kind: as an array (int64 for integers), or for shape () the number
    itself. Anything else raises BadConfig."""
    entries = [values]
    for _ in shape:
        entries = [x for row in entries for x in row]
    if not all(map(_KIND_TESTS[kind], entries)):
        raise BadConfig(f"malformed model: {name} holds a value that is not {kind}")
    if not shape:
        return values
    array = np.asarray(values, dtype=float if kind == _NUMBER else np.int64)
    if array.shape != shape:
        raise BadConfig(f"malformed model: {name} is not of shape {shape}")
    return array


def model_from_json(obj: dict) -> BatchModel | OnlineModel:
    """The model of a model_to_json object; a malformed object, or one whose
    fields have the wrong shape or hold a value of the wrong kind, raises
    BadConfig."""
    try:
        kind = obj["kind"]
        if kind == "batch":
            mean, std = (_read(obj["scaler"][key], (N_FEATURES,), f"scaler {key}")
                         for key in ("mean", "std"))
            if not (std > 0.0).all():
                raise BadConfig("malformed model: a scaler std is not positive")
            # A missing key is an error, not the training default.
            given = obj["hyperparams"]
            if set(given) != {"lam", "lr", "epochs"}:
                raise BadConfig("malformed model: hyperparams are not exactly lam, lr and epochs")
            hp = HingeHyperparams(**{key: _read(given[key], (), f"hyperparams {key}", kind)
                                     for key, kind in (("lam", _NUMBER), ("lr", _NUMBER), ("epochs", _COUNT))})
            return BatchModel(
                weights=_read(obj["weights"], (N_FEATURES,), "weights"),
                bias=float(_read(obj["bias"], (), "bias")),
                scaler=Scaler(mean, std),
                hyperparams=hp,
            )
        if kind == "online":
            members = obj["learners"]
            k = len(members)
            model = online_init(k, float(_read(obj["lam_poisson"], (), "poisson lambda")),
                                int(_read(obj["seed"], (), "seed", _INTEGER)))
            model.counts = _read([m["counts"] for m in members], (k, 2), "counts", _COUNT)
            model.mean = _read([m["mean"] for m in members], (k, 2, N_FEATURES), "mean")
            model.m2 = _read([m["m2"] for m in members], (k, 2, N_FEATURES), "m2")
            model.n_draws = int(_read(obj["n_draws"], (), "n_draws", _COUNT))
            # numpy's setter truncates a float and overflows on a negative or oversized integer.
            state = obj["rng_state"]
            words = ((state["state"]["state"], 128), (state["state"]["inc"], 128),
                     (state["has_uint32"], 1), (state["uinteger"], 32))
            if state["bit_generator"] != "PCG64" or not all(
                    type(w) is int and 0 <= w < 1 << bits for w, bits in words):
                raise BadConfig(f"malformed model: rng_state {state!r} is not a PCG64 state")
            model.rng.bit_generator.state = state
            return model
    except (KeyError, TypeError, ValueError) as exc:
        raise BadConfig(f"malformed model: {exc!r}") from None
    raise BadConfig(f"unknown model kind {kind!r}")


def save_model(model: BatchModel | OnlineModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh)
        fh.write("\n")


def load_model(path: str | Path) -> BatchModel | OnlineModel:
    return model_from_json(read_json(path, BadConfig))
