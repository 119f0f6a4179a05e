import copy
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strobe.dataset import Label, Sample
from strobe.errors import BadConfig, SingleClass, TooSmall, UnknownLabel
from strobe.features import FeatureVector
from strobe.learners import (
    _COUNT_MAX,
    _POISSON_LAMBDA_MAX,
    DEFAULT_HYPERPARAMS,
    BatchModel,
    HingeHyperparams,
    Scaler,
    batch_train,
    default_grid,
    design_matrix,
    fit_scaler,
    grid_search,
    hinge_sgd,
    model_from_json,
    model_to_json,
    online_fit,
    online_init,
    online_predict,
    online_train,
    online_update,
    predict,
)
from strobe import learners
from strobe.learners import _draw_weights, _prequential_sweep

from oracles import (
    ReplayEnsemble,
    hinge_objective,
    hinge_subgradient,
    reference_batch_train,
    reference_decision,
    reference_grid_search,
    reference_online_decision,
    reference_online_predict,
)


def fv(entropy=0.0, length=0.0, **kw):
    return FeatureVector(avg_entropy=entropy, avg_length=length, n_strings=1, **kw)


def sample(sid, label, entropy=0.0, length=0.0):
    return Sample(sid, "fam", Label(label), features=fv(entropy, length))


def matrix(vectors):
    """Feature vectors as rows of a raw feature matrix."""
    return np.array([v.as_tuple() for v in vectors])


def toy_separable(n=20):
    out = []
    for i in range(n):
        out.append(sample(f"n{i}", "NOT_SE", entropy=0.0 + 0.01 * i))
        out.append(sample(f"p{i}", "SE", entropy=10.0 + 0.01 * i))
    return out


class FakePoisson:
    """Scripted Poisson draws, handed out in C order for each size= request."""

    def __init__(self, draws):
        self.draws = list(draws)

    def poisson(self, lam, size):
        n = int(np.prod(size))
        out, self.draws = self.draws[:n], self.draws[n:]
        return np.array(out, dtype=np.int64).reshape(size)


# --- scaler -------------------------------------------------------------------

def test_scaler_mean_and_population_std():
    s = fit_scaler(matrix([fv(length=2.0), fv(length=4.0)]))
    i = 2  # avg_length slot
    assert s.mean[i] == 3.0
    assert s.std[i] == 1.0  # population rule: sqrt(((2-3)^2 + (4-3)^2)/2)


def test_scaler_clamps_constant_feature():
    s = fit_scaler(matrix([fv(length=5.0), fv(length=5.0)]))
    assert s.std[2] == pytest.approx(1e-9)


def test_scaler_transform_centers_train():
    vectors = [fv(entropy=float(i), length=float(2 * i)) for i in range(10)]
    X = matrix(vectors)
    s = fit_scaler(X)
    Z = s.transform(X)
    assert np.all(np.abs(Z.mean(axis=0)) <= 1e-9)


def test_scaler_too_small():
    with pytest.raises(TooSmall):
        fit_scaler(matrix([fv()]))


# --- batch learner --------------------------------------------------------------

def test_batch_fits_separable_toy_exactly():
    train = toy_separable()
    model = batch_train(*design_matrix(train), seed=0)
    assert all(predict(model, s.features) is s.label for s in train)


def test_batch_single_class():
    with pytest.raises(SingleClass):
        batch_train(*design_matrix([sample("a", "SE", 1.0), sample("b", "SE", 2.0)]), seed=0)


def test_batch_deterministic():
    train = toy_separable()
    m1 = batch_train(*design_matrix(train), seed=7)
    m2 = batch_train(*design_matrix(train), seed=7)
    assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias


def test_predict_tie_is_not_se():
    scaler = Scaler(mean=np.zeros(8), std=np.ones(8))
    model = BatchModel(weights=np.zeros(8), bias=0.0, scaler=scaler,
                       hyperparams=HingeHyperparams())
    assert predict(model, fv(entropy=3.0)) is Label.NOT_SE


def test_predict_sign_rule_and_antisymmetry():
    scaler = Scaler(mean=np.zeros(8), std=np.ones(8))
    w = np.zeros(8)
    w[0] = 1.0
    model = BatchModel(weights=w, bias=0.0, scaler=scaler, hyperparams=HingeHyperparams())
    flipped = BatchModel(weights=-w, bias=-0.0, scaler=scaler, hyperparams=HingeHyperparams())
    assert predict(model, fv(entropy=2.0)) is Label.SE
    assert predict(flipped, fv(entropy=2.0)) is Label.NOT_SE


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, 8))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    lam = 0.01
    eps = 1e-6
    checked = 0
    while checked < 10:
        w = rng.normal(size=8)
        b = float(rng.normal())
        margins = y * (X @ w + b)
        if np.any(np.abs(margins - 1.0) < 1e-3):
            continue  # resample away from hinge kinks
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


# --- lockstep SGD against the per-sample loop ----------------------------------------

def random_train(rng, n):
    """n samples, SE shifted by 1.5 in every feature but the last, which is
    constant (it standardizes to 0, so its weight only ever shrinks, and a
    negative shrink flips its sign); labels drawn at random."""
    se = rng.random(n) < 0.5
    X = rng.normal(size=(n, 8)) + 1.5 * se[:, None]
    X[:, 7] = 0.0
    return [Sample(f"s{i}", "fam", Label.SE if c else Label.NOT_SE,
                   features=FeatureVector(*x, n_strings=1)) for i, (x, c) in enumerate(zip(X, se))]


def assert_matches_reference(model, train, hp, seed):
    """Bitwise equality with the per-sample loop, signed zeros included."""
    ref = reference_batch_train(train, hp, seed)
    if ref is None:
        assert model is None
        return
    w, b, mean, std = ref
    assert np.array_equal(model.weights, w) and model.bias == b
    assert np.array_equal(np.signbit(model.weights), np.signbit(w))
    assert np.array_equal(model.scaler.mean, mean) and np.array_equal(model.scaler.std, std)


NEGATIVE_SHRINK = [hp for hp in default_grid() if 1.0 - 2.0 * hp.lr * hp.lam < 0.0]


def test_default_grid_has_negative_shrink_points():
    assert len(NEGATIVE_SHRINK) == 4


# The smallest block geometry: 16-step blocks (the floor) in runs of two
# blocks, the shortest run of stream rows that spans a block boundary. Runs
# then cross epochs and blocks, a block reads from either half of its run,
# and the live-fit count drops between blocks.
SMALL_BLOCKS = {"_BLOCK_VALUES": 0, "_RUN_BLOCKS": 2}


def small_blocks(patch):
    """Set hinge_sgd's block and run budgets to SMALL_BLOCKS with patch."""
    for name, value in SMALL_BLOCKS.items():
        patch.setattr(learners, name, value)


@pytest.mark.parametrize("trial, small", [*(pytest.param(t, False, id=str(t)) for t in range(6)),
                                          pytest.param(6, True, id="small-blocks")])
def test_hinge_sgd_matches_per_sample_loop(trial, small, monkeypatch):
    """Random mixes of fits: ragged training sets, repeated seeds, a
    single-class stream, epochs 0, 1, 20 and 50, negative-shrink grid points;
    at the default block geometry and at the smallest."""
    if small:
        small_blocks(monkeypatch)
    rng = np.random.default_rng(100 + trial)
    pool = random_train(rng, 90)
    X, y = design_matrix(pool)
    se_rows = np.flatnonzero(y > 0)
    streams = [(se_rows[:int(rng.integers(2, len(se_rows)))], 0)]
    for _ in range(int(rng.integers(2, 6))):
        rows = np.sort(rng.choice(len(pool), int(rng.integers(2, len(pool))), replace=False))
        streams.append((rows, int(rng.integers(-1, 3))))
    grid = default_grid()
    fits = []
    for s in range(len(streams)):
        for _ in range(int(rng.integers(1, 4))):
            base = grid[int(rng.integers(len(grid)))] if rng.random() < 0.6 \
                else NEGATIVE_SHRINK[int(rng.integers(len(NEGATIVE_SHRINK)))]
            epochs = int(rng.choice([0, 1, 20, 50]))
            fits.append((s, HingeHyperparams(lam=base.lam, lr=base.lr, epochs=epochs)))
    models = hinge_sgd(X, y, streams, fits)
    assert models[0] is None
    for (s, hp), model in zip(fits, models):
        rows, seed = streams[s]
        assert_matches_reference(model, [pool[i] for i in rows], hp, seed)

    rows, seed = streams[1]
    hp = fits[-1][1]
    assert_matches_reference(batch_train(X[rows], y[rows], hp, seed), [pool[i] for i in rows], hp, seed)


@pytest.mark.parametrize("small", [pytest.param(False, id="default"), pytest.param(True, id="small-blocks")])
def test_hinge_sgd_matches_per_sample_loop_at_many_fits(small, monkeypatch):
    """One call of 72 fits, each on its own stream, against the per-sample
    loop with signed zeros: ragged training sets of 2 to 59 rows, repeated
    and negative seeds, a single-class stream, epochs 0, 1 and 20, and
    negative-shrink grid points. strobe lofo on the confounded preset runs
    71 fits in one call; at the default geometry 72 fits make 25-step
    blocks, as 71 do, and runs of them span several blocks and epochs."""
    if small:
        small_blocks(monkeypatch)
    rng = np.random.default_rng(64)
    pool = random_train(rng, 60)
    X, y = design_matrix(pool)
    grid = default_grid()
    streams = [(np.flatnonzero(y > 0)[:5], -1)]
    fits = [(0, DEFAULT_HYPERPARAMS)]
    while len(fits) < 72:
        rows = np.sort(rng.choice(len(pool), int(rng.integers(2, len(pool))), replace=False))
        streams.append((rows, int(rng.integers(-3, 3))))
        base = NEGATIVE_SHRINK[int(rng.integers(len(NEGATIVE_SHRINK)))] if rng.random() < 0.25 \
            else grid[int(rng.integers(len(grid)))]
        epochs = int(rng.choice([0, 1, 20, 20]))
        fits.append((len(streams) - 1, HingeHyperparams(lam=base.lam, lr=base.lr, epochs=epochs)))
    assert learners._BLOCK_VALUES // (9 * len(fits)) == (0 if small else 25)
    models = hinge_sgd(X, y, streams, fits)
    assert models[0] is None
    for (s, hp), model in zip(fits, models, strict=True):
        rows, seed = streams[s]
        assert_matches_reference(model, [pool[i] for i in rows], hp, seed)


BAD_LABELS = {"0/1": lambda y: (y > 0).astype(float), "+-2": lambda y: 2.0 * y,
              "one 0.5": lambda y: np.where(np.arange(len(y)) == 7, 0.5, y),
              "one NaN": lambda y: np.where(np.arange(len(y)) == 7, np.nan, y)}


@pytest.mark.parametrize("relabel", BAD_LABELS.values(), ids=BAD_LABELS.keys())
def test_labels_other_than_plus_minus_one_raise_unknown_label(relabel):
    """Both learners take labels +1 (SE) and -1 (NOT_SE) only. With 0/1
    labels hinge SGD used to train without a word on a set it cannot learn
    (0.6 on these rows, separated by a gap on feature 0, against 1.0 with
    +-1 labels), and +-2 would break the exact sign pass. Nothing is drawn
    before the check."""
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, 8))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    X[:, 0] += y
    model = batch_train(X, y)
    assert np.count_nonzero((model.decision(X) > 0) == (y > 0)) == 200
    bad = relabel(y)
    with pytest.raises(UnknownLabel):
        batch_train(X, bad)
    with pytest.raises(UnknownLabel):
        hinge_sgd(X, bad, [(np.arange(100), 0)], [(0, DEFAULT_HYPERPARAMS)])
    with pytest.raises(UnknownLabel):
        online_train(X, bad)
    online = online_init(k=3, seed=4)
    state = copy.deepcopy(online.rng.bit_generator.state)
    for feed in (online_fit, _prequential_sweep):
        with pytest.raises(UnknownLabel):
            feed(online, X, bad)
    assert online.n_draws == 0 and online.rng.bit_generator.state == state
    assert not online.counts.any()


# Finite doubles with +-0, subnormals and magnitudes up to 1e300 (products
# up to 1e600 overflow).
_TERMS = st.floats(min_value=-1e300, max_value=1e300)
_MARGIN_ROWS = st.lists(st.tuples(st.lists(_TERMS, min_size=9, max_size=9),
                                  st.lists(_TERMS, min_size=8, max_size=8),
                                  st.sampled_from([1.0, -1.0])), min_size=1, max_size=4)


@given(_MARGIN_ROWS)
def test_folded_margin_is_the_per_sample_margin_bit_for_bit(rows):
    """hinge_sgd's margin, np.vecdot of [w, b] with [y * x, y], is the
    per-sample loop's y * (w @ x + b) bit for bit, signbit included, since y
    is +-1 and the dot kernel adds b * y after the same eight terms; so is
    the stacked matmul the step used before, and so is np.vecdot over a
    stacked (R, L, 9) window, as hinge_sgd takes the margins of skipped
    steps (here slab i holds the rows rolled by i). An exact zero is the one
    exception: the kernel sums from +0, so it may come out +0 where
    y * (w @ x + b) is -0, which margin < 1 does not see."""
    W = np.array([wb for wb, _, _ in rows])
    X = np.array([x for _, x, _ in rows])
    y = np.array([label for _, _, label in rows])
    Z = np.column_stack([y[:, None] * X, y])
    window = range(3)
    with np.errstate(over="ignore", invalid="ignore"):
        kernels = [np.vecdot(W, Z), np.matmul(W[:, None, :], Z[..., None]).reshape(len(rows))]
        stacked = np.vecdot(np.stack([np.roll(W, i, axis=0) for i in window]),
                            np.stack([np.roll(Z, i, axis=0) for i in window]))
        kernels += [np.roll(stacked[i], -i) for i in window]
        plain_margins = [y[i] * (W[i, :8] @ X[i] + W[i, 8]) for i in range(len(rows))]
    for folded in kernels:
        for i, plain in enumerate(plain_margins):
            if plain == 0.0:
                assert folded[i] == 0.0
            else:
                assert folded[i].tobytes() == plain.tobytes(), (folded[i], plain)
            assert (folded[i] < 1.0) == (plain < 1.0)


@given(scales=st.lists(st.integers(-12, 12), min_size=8, max_size=8),
       constant=st.integers(0, 7), n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       epochs=st.sampled_from([0, 1, 5]))
def test_hinge_sgd_matches_per_sample_loop_on_drawn_streams(scales, constant, n, seed, epochs):
    """Raw feature scales from 1e-12 to 1e12, a constant column (its std is
    the floor), duplicated rows, a two-row stream and every negative-shrink
    grid point, against the per-sample loop."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 8)) * 10.0 ** np.array(scales)
    X[:, constant] = X[0, constant]
    X[n // 2:] = X[:n - n // 2]  # the second half repeats the first
    labels = rng.random(n) < 0.5
    pool = [Sample(f"s{i}", "fam", Label.SE if c else Label.NOT_SE,
                   features=FeatureVector(*x, n_strings=1)) for i, (x, c) in enumerate(zip(X, labels))]
    X, y = design_matrix(pool)
    streams = [(np.arange(n), seed), (rng.choice(n, 2, replace=False), seed + 1)]
    grid = NEGATIVE_SHRINK + [DEFAULT_HYPERPARAMS]
    fits = [(s, HingeHyperparams(lam=hp.lam, lr=hp.lr, epochs=epochs))
            for s in range(len(streams)) for hp in grid]
    for (s, hp), model in zip(fits, hinge_sgd(X, y, streams, fits)):
        rows, stream_seed = streams[s]
        assert_matches_reference(model, [pool[i] for i in rows], hp, stream_seed)


# Hyperparameters whose shrink 1 - 2 * lr * lam is about 1, exactly 0,
# negative (-0.4), below -1 (-2), and about -1e12: a fit of the last kind
# overflows within a few dozen steps, and while a fit of either of the last
# two is live, hinge_sgd takes every step on its own, as the loop does.
SHRINK_CASES = [DEFAULT_HYPERPARAMS, HingeHyperparams(lam=1.0, lr=0.5),
                HingeHyperparams(lam=7.0, lr=0.1), HingeHyperparams(lam=1.5, lr=1.0),
                HingeHyperparams(lam=5e11, lr=1.0)]


@given(seed=st.integers(0, 2**32 - 1), n_sep=st.integers(2, 24), n_noisy=st.integers(2, 40),
       drawn=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(SHRINK_CASES),
                                st.sampled_from([0, 1, 30])), min_size=1, max_size=6),
       small=st.booleans())
def test_skipped_steps_match_per_sample_loop(seed, n_sep, n_noisy, drawn, small):
    """Steps taken in batches from the shrink-only trajectory, against the
    per-sample loop with signed zeros. One call mixes two streams of
    well-separated clusters, whose fits soon stop updating (long skipped
    runs), with a noisy stream whose fits update on most steps (the fallback
    to one step at a time and its backoff); step counts end inside a 32-step
    window; epochs 0, 1 and 30; shrink about 1, exactly 0, negative and below
    -1, where no step is speculated while the fit is live; the default block
    geometry and the smallest. The call raises a RuntimeWarning if and only
    if some per-sample loop raises one."""
    rng = np.random.default_rng(seed)
    n = n_sep + n_noisy
    se = np.zeros(n, dtype=bool)
    se[:n_sep:2] = True
    se[n_sep:] = rng.random(n_noisy) < 0.5
    se[n_sep:n_sep + 2] = (True, False)
    X = rng.normal(size=(n, 8))
    X[:n_sep] = 0.1 * X[:n_sep] + np.where(se[:n_sep, None], 5.0, -5.0)
    pool = [Sample(f"s{i}", "fam", Label.SE if c else Label.NOT_SE,
                   features=FeatureVector(*x, n_strings=1)) for i, (x, c) in enumerate(zip(X, se))]
    X, y = design_matrix(pool)
    separated, noisy = np.arange(n_sep), np.arange(n_sep, n)
    streams = [(separated, seed), (noisy, seed + 1), (separated, seed + 2)]
    fits = [(s, HingeHyperparams(lam=hp.lam, lr=hp.lr, epochs=epochs)) for s, hp, epochs in drawn]
    with warnings.catch_warnings(record=True) as lockstep_warnings, pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("always")
        if small:
            small_blocks(patch)
        models = hinge_sgd(X, y, streams, fits)
    with warnings.catch_warnings(record=True) as loop_warnings:
        warnings.simplefilter("always")
        for (s, hp), model in zip(fits, models, strict=True):
            rows, stream_seed = streams[s]
            assert_matches_reference(model, [pool[i] for i in rows], hp, stream_seed)
    assert runtime_warnings(lockstep_warnings) == runtime_warnings(loop_warnings), (
        [str(w.message) for w in lockstep_warnings], [str(w.message) for w in loop_warnings])


def runtime_warnings(caught, word=""):
    """Whether a RuntimeWarning whose message holds word was caught."""
    return any(issubclass(w.category, RuntimeWarning) and word in str(w.message) for w in caught)


def test_an_overflowing_fit_warns_as_the_per_sample_loop_does():
    """Shrink 1 - 2 * lr * lam = 3 grows the weights of a fit on two
    separable clusters until they overflow. hinge_sgd takes its steps one at
    a time with the loop's multiplies, so it warns of the overflow as the
    loop does (np.vecdot where the loop names matmul), with the same
    weights."""
    train = toy_separable()
    hp = HingeHyperparams(lam=-1.0, lr=1.0, epochs=30)
    X, y = design_matrix(train)
    with warnings.catch_warnings(record=True) as lockstep_warnings:
        warnings.simplefilter("always")
        (model,) = hinge_sgd(X, y, [(np.arange(len(y)), 3)], [(0, hp)])
    with warnings.catch_warnings(record=True) as loop_warnings:
        warnings.simplefilter("always")
        w, b, _, _ = reference_batch_train(train, hp, 3)
    assert runtime_warnings(loop_warnings, "overflow")
    assert runtime_warnings(lockstep_warnings, "overflow")
    assert np.array_equal(model.weights, w, equal_nan=True)
    assert np.array_equal(model.bias, b, equal_nan=True)


def test_a_margin_of_exactly_one_makes_no_update():
    """The hinge test is margin < 1, not <=. Standardized rows +-1 with
    lr 0.5 and lam 0 (shrink 1) reach w0 = 1, b = 0 after the first epoch in
    either order, so every later margin is exactly 1.0 and moves nothing."""
    train = [Sample(sid, "fam", label, features=FeatureVector(x0, *[0.0] * 7, n_strings=1))
             for sid, label, x0 in (("a", Label.SE, 1.0), ("b", Label.NOT_SE, -1.0))]
    X, y = design_matrix(train)
    seeds = range(4)
    fits = [(s, HingeHyperparams(lam=0.0, lr=0.5, epochs=epochs)) for s in seeds for epochs in (1, 2, 5)]
    models = hinge_sgd(X, y, [(np.arange(2), seed) for seed in seeds], fits)
    for (s, hp), model in zip(fits, models):
        assert_matches_reference(model, train, hp, seeds[s])
        assert model.weights[0] == 1.0 and model.bias == 0.0
    assert_matches_reference(batch_train(X, y, fits[-1][1], 3), train, fits[-1][1], 3)


def test_hinge_sgd_with_nothing_to_train():
    X, y = design_matrix(toy_separable())
    assert hinge_sgd(X, y, [], []) == []
    (model,) = hinge_sgd(X, y, [(np.arange(len(y)), 3)], [(0, HingeHyperparams(epochs=0))])
    assert not model.weights.any() and model.bias == 0.0


# --- LOFO- and grid-shaped calls against the per-sample loop ------------------------

def lofo_shaped_call(rng, families=20, size=10, epochs=3):
    """One fit per family on every row outside it, seeds 7 + family, as
    run_lofo trains: (pool, streams, fits)."""
    pool = random_train(rng, families * size)
    family = np.arange(len(pool)) // size
    streams = [(np.flatnonzero(family != f), 7 + f) for f in range(families)]
    return pool, streams, [(f, HingeHyperparams(epochs=epochs)) for f in range(families)]


def grid_shaped_call(rng):
    """Three shared fold streams, as grid_search builds them, and a
    single-class stream; grid points, negative-shrink points and zero-epoch
    fits on every stream."""
    pool = random_train(rng, 150)
    y = design_matrix(pool)[1]
    chunks = np.array_split(rng.permutation(len(y)), 3)
    streams = [(np.setdiff1d(np.arange(len(y)), chunk), 11 + f) for f, chunk in enumerate(chunks)]
    streams.append((np.flatnonzero(y > 0)[:20], -2))
    grid = default_grid()[::23] + NEGATIVE_SHRINK
    fits = [(s, HingeHyperparams(lam=hp.lam, lr=hp.lr, epochs=epochs))
            for hp in grid for epochs in (0, 3) for s in range(len(streams))]
    return pool, streams, fits


@pytest.mark.parametrize("shape", [lofo_shaped_call, grid_shaped_call], ids=["lofo", "grid"])
@pytest.mark.parametrize("small", [pytest.param(False, id="default"), pytest.param(True, id="small-blocks")])
def test_lofo_and_grid_shaped_calls_match_per_sample_loop(shape, small, monkeypatch):
    """Each stream's rows come from one table built per call; every fit's
    weights and bias equal the per-sample loop's bit for bit, signed zeros
    included, at the default block geometry and the smallest."""
    if small:
        small_blocks(monkeypatch)
    pool, streams, fits = shape(np.random.default_rng(34))
    models = hinge_sgd(*design_matrix(pool), streams, fits)
    assert sum(model is None for model in models) == (len(fits) // 4 if shape is grid_shaped_call else 0)
    for (s, hp), model in zip(fits, models, strict=True):
        rows, seed = streams[s]
        assert_matches_reference(model, [pool[i] for i in rows], hp, seed)


# --- row scorers -------------------------------------------------------------------

def test_batch_predict_rows_matches_predict():
    rng = np.random.default_rng(4)
    train = random_train(rng, 200)
    X, _ = design_matrix(train)
    for seed in range(3):
        model = batch_train(*design_matrix(train[:150]), seed=seed)
        assert model.decision(X).tobytes() == \
            np.array([reference_decision(model, s.features) for s in train]).tobytes()
        assert [predict(model, s.features) is Label.SE for s in train] == (model.decision(X) > 0).tolist()
    tie = BatchModel(weights=np.zeros(8), bias=0.0, scaler=Scaler(np.zeros(8), np.ones(8)),
                     hyperparams=HingeHyperparams())
    assert not (tie.decision(X) > 0).any()


def test_online_predict_rows_matches_online_predict():
    rng = np.random.default_rng(5)
    train = random_train(rng, 200)
    X, _ = design_matrix(train)
    models = [online_init(k=4, seed=1),                    # cold: every vote NOT_SE
              online_train(*design_matrix(train[:3]), k=5, seed=2),  # members with one class only
              online_train(*design_matrix(train[:150]), k=10, seed=3)]
    for model in models:
        assert (model.decision(X) > 0).tolist() == \
            [reference_online_predict(model, s.features) is Label.SE for s in train]


def _tie_model():
    """Four members whose votes split exactly: members 0 and 1 have seen only
    SE, member 2 only NOT_SE, and member 3 both classes with equal counts,
    means and M2, so its two scores tie and it votes NOT_SE. Every row's
    decision is 2 * 2 - 4 = 0."""
    model = online_init(k=4, seed=0)
    model.counts[:] = [[0, 3], [0, 5], [4, 0], [6, 6]]
    model.mean[:] = np.arange(8.0)
    model.m2[:] = 2.0
    return model


@pytest.mark.parametrize("small", [pytest.param(False, id="default"), pytest.param(True, id="small-blocks")])
def test_online_decision_matches_member_loop_at_chunk_edges(small, monkeypatch):
    """OnlineModel.decision, one vote pass over all members per chunk of
    rows, against the member-by-member loop it replaced: full decision
    values at 1 row, a chunk minus one, a chunk, a chunk plus one and three
    chunks; a cold model, members that saw one class, exact ties, and an
    ensemble large enough that a chunk floors at one row."""
    if small:
        small_blocks(monkeypatch)
    rng = np.random.default_rng(6)
    train = random_train(rng, 400)
    X, _ = design_matrix(train)
    big_k = learners._BLOCK_VALUES // (2 * 8) + 1
    models = [online_init(k=4, seed=1),
              online_train(*design_matrix(train[:3]), k=5, seed=2),
              _tie_model(),
              online_train(*design_matrix(train[:150]), k=10, seed=3),
              online_train(*design_matrix(train[:40]), k=big_k, seed=4)]
    assert not _tie_model().decision(X).any()
    for model in models:
        chunk = max(1, learners._BLOCK_VALUES // (model.k * 2 * 8))
        assert chunk == 1 if small or model.k == big_k else chunk > 1
        for n in sorted({1, chunk - 1, chunk, chunk + 1, 3 * chunk} - {0}):
            got = model.decision(X[:n])
            assert got.dtype == np.int64 and np.array_equal(got, reference_online_decision(model, X[:n]))


# --- grid search -----------------------------------------------------------------

def test_grid_single_point():
    hp = HingeHyperparams(lam=0.5, lr=0.01, epochs=5)
    assert grid_search(toy_separable(), [hp], folds=2, seed=0) == hp


def test_grid_prefers_working_configuration():
    train = toy_separable()
    # Zero epochs never moves off the zero model, which answers NOT_SE for
    # everything: exactly chance on this balanced set.
    useless = HingeHyperparams(lam=1e-4, lr=0.05, epochs=0)
    good = HingeHyperparams(lam=1e-4, lr=0.05, epochs=20)
    assert grid_search(train, [useless, good], folds=2, seed=0) == good


def test_grid_matches_reference_loop_on_toy():
    grid = default_grid()[::10] + NEGATIVE_SHRINK
    for seed in (0, 5):
        assert grid_search(toy_separable(), grid, folds=3, seed=seed) == \
            reference_grid_search(toy_separable(), grid, folds=3, seed=seed)


def test_default_grid_respects_budget():
    assert 0 < len(default_grid()) <= 200


def test_grid_rejects_bad_config():
    with pytest.raises(BadConfig):
        grid_search(toy_separable(), [], folds=2, seed=0)
    with pytest.raises(BadConfig):
        grid_search(toy_separable(), None, folds=1, seed=0)


# --- online learner ---------------------------------------------------------------

def test_online_init_shape():
    model = online_init(k=10, lam_poisson=6.0, seed=0)
    assert model.k == 10
    assert all(learner.counts.sum() == 0 for learner in model.learners)


def test_online_init_bad_config():
    with pytest.raises(BadConfig):
        online_init(k=0)
    with pytest.raises(BadConfig):
        online_init(k=3, lam_poisson=0.0)


@pytest.mark.parametrize("lam", [float("inf"), float("nan"), 1e30, 9.3e18, -1.0])
def test_online_init_rejects_a_lambda_numpy_cannot_draw(lam):
    with pytest.raises(BadConfig, match="poisson lambda"):
        online_init(k=3, lam_poisson=lam)
    obj = model_to_json(online_init(k=3, seed=1))
    obj["lam_poisson"] = lam
    with pytest.raises(BadConfig, match="poisson lambda"):
        model_from_json(obj)


def test_online_init_accepts_the_largest_lambda_numpy_draws():
    for lam in (9.2e18, _POISSON_LAMBDA_MAX):
        model = online_init(k=2, lam_poisson=lam, seed=0)
        model.rng.poisson(model.lam_poisson, size=2)
    with pytest.raises(ValueError, match="lam value too large"):
        model.rng.poisson(math.nextafter(_POISSON_LAMBDA_MAX, math.inf))


@pytest.mark.parametrize("feed", [online_fit, _prequential_sweep])
def test_counts_past_int64_raise_before_any_merge(feed):
    # Two SE rows at the largest lambda: their summed weights pass int64.
    X = np.arange(24, dtype=float).reshape(3, 8)
    model = online_init(k=3, lam_poisson=9.2e18, seed=0)
    with pytest.raises(BadConfig, match="overflows the int64 count of member 0, class 1"):
        feed(model, X, np.array([1, -1, 1]))
    assert not model.counts.any() and not model.mean.any() and not model.m2.any()
    assert model.n_draws == 9


def _feed_rows_one_at_a_time(model, X, y):
    for i in range(len(X)):
        online_fit(model, X[i:i + 1], y[i:i + 1])


@pytest.mark.parametrize("feed", [_feed_rows_one_at_a_time, _prequential_sweep])
def test_merge_coefficient_does_not_wrap_at_large_lambda(feed):
    # At lambda 1e10 the counts fit int64 easily, but na * nb (about 1e20)
    # does not; M2 must still be the weighted sum of squares.
    X = np.repeat(np.arange(3.0)[:, None], 8, axis=1)
    cls = np.array([1, 1, 1])
    model = online_init(k=2, lam_poisson=1e10, seed=0)
    W = copy.deepcopy(model.rng).poisson(model.lam_poisson, size=(3, 2)).astype(float)
    feed(model, X, cls)
    mean = (W.T @ X) / W.sum(axis=0)[:, None]
    m2 = np.stack([W[:, j] @ (X - mean[j]) ** 2 for j in range(2)])
    assert m2.min() > 1e9
    np.testing.assert_allclose(model.mean[:, 1], mean, rtol=1e-12)
    np.testing.assert_allclose(model.m2[:, 1], m2, rtol=1e-6)


def test_count_check_admits_counts_up_to_the_int64_maximum():
    model = online_init(k=2, seed=0)
    se, not_se = np.array([1.0, 1.0]), np.array([-1.0, -1.0])
    model.counts[:, 1] = [_COUNT_MAX - 7, _COUNT_MAX]
    for y in (se, not_se):
        model.rng = FakePoisson([3, 0, 4, 0])  # member 0 draws 3 and 4, member 1 nothing
        _draw_weights(model, y)
    model.counts[0, 1] += 1
    model.rng = FakePoisson([3, 0, 4, 0])
    with pytest.raises(BadConfig, match="member 0, class 1"):
        _draw_weights(model, se)


def test_cold_model_predicts_not_se():
    model = online_init(k=5, seed=1)
    assert online_predict(model, fv(entropy=99.0)) is Label.NOT_SE


def test_incremental_stats_hand_case():
    model = online_init(k=1, seed=0)
    model.rng = FakePoisson([1, 1])
    online_update(model, sample("a", "SE", entropy=1.0))
    online_update(model, sample("b", "SE", entropy=3.0))
    learner = model.learners[0]
    assert learner.counts[1] == 2
    assert learner.mean[1][0] == pytest.approx(2.0)
    assert learner.m2[1][0] == pytest.approx(2.0)


def test_zero_draws_leave_model_unchanged():
    model = online_init(k=3, seed=0)
    model.rng = FakePoisson([0, 0, 0])
    online_update(model, sample("a", "SE", entropy=1.0))
    assert all(learner.counts.sum() == 0 for learner in model.learners)


def test_online_update_deterministic():
    def run():
        model = online_init(k=4, lam_poisson=6.0, seed=123)
        for i in range(30):
            model = online_update(model, sample(f"s{i}", "SE" if i % 2 else "NOT_SE",
                                                entropy=float(i % 7)))
        return model_to_json(model)
    assert run() == run()


def test_single_class_learner_votes_that_class():
    model = online_init(k=1, seed=0)
    model.rng = FakePoisson([1, 1])
    online_update(model, sample("a", "SE", entropy=1.0))
    online_update(model, sample("b", "SE", entropy=2.0))
    # Far from the training data, but SE is the only class with evidence.
    assert online_predict(model, fv(entropy=50.0)) is Label.SE


def test_even_split_vote_is_not_se():
    model = online_init(k=2, seed=0)
    model.rng = FakePoisson([1, 0, 0, 1, 1, 0, 0, 1])
    # learner 0 sees only SE, learner 1 sees only NOT_SE (mirrored data).
    online_update(model, sample("a", "SE", entropy=1.0))
    online_update(model, sample("b", "NOT_SE", entropy=1.0))
    online_update(model, sample("c", "SE", entropy=1.2))
    online_update(model, sample("d", "NOT_SE", entropy=1.2))
    assert online_predict(model, fv(entropy=1.1)) is Label.NOT_SE


def test_welford_matches_batch_statistics():
    rng = np.random.default_rng(5)
    values = rng.normal(3.0, 2.0, size=200)
    X = np.zeros((200, 8))
    X[:, 0] = values
    model = online_init(k=1, seed=0)
    model.rng = FakePoisson([1] * 200)
    # Uneven chunks exercise the merge into an empty, a one-sample and a
    # populated member.
    for lo, hi in ((0, 1), (1, 2), (2, 90), (90, 200)):
        online_fit(model, X[lo:hi], np.ones(hi - lo, dtype=np.int64))
    learner = model.learners[0]
    assert learner.counts[1] == 200
    assert abs(learner.mean[1][0] - values.mean()) <= 1e-9
    assert abs(learner.m2[1][0] - ((values - values.mean()) ** 2).sum()) <= 1e-9


# --- online learner against the replay oracle ----------------------------------------

def random_stream(rng, n):
    scale = 10.0 ** rng.integers(-2, 3, size=8)
    shift = rng.normal(0.0, 5.0, size=8)
    X = rng.normal(size=(n, 8)) * scale + shift
    X[:, 0] += 3.0 * (rng.random(n) < 0.5)
    cls = (X[:, 0] > shift[0] + 1.5).astype(np.int64)
    return X, cls


@pytest.mark.parametrize("trial", range(12))
def test_online_fit_matches_replay_oracle(trial):
    rng = np.random.default_rng(1000 + trial)
    k = int(rng.integers(1, 12))
    lam = float(rng.choice([0.5, 1.0, 6.0, 12.0]))
    X, cls = random_stream(rng, int(rng.integers(1, 300)))
    if trial % 4 == 0:
        cls[:] = trial % 8 // 4  # single-class stream
    model = online_init(k=k, lam_poisson=lam, seed=trial)
    oracle = ReplayEnsemble(k, lam, seed=trial)
    # Half the stream in one bulk fit, the rest one sample at a time.
    half = len(X) // 2
    online_fit(model, X[:half], 2 * cls[:half] - 1)
    for i in range(half, len(X)):
        online_update(model, Sample(f"s{i}", "fam", Label.SE if cls[i] else Label.NOT_SE,
                                    features=FeatureVector(*X[i], n_strings=1)))
    for x, c in zip(X, cls):
        oracle.update(x, int(c))
    oracle.assert_state_matches(model)
    probes, _ = random_stream(rng, 200)
    for x in np.vstack([X, probes]):
        expected = Label.SE if oracle.predict(x) else Label.NOT_SE
        assert online_predict(model, FeatureVector(*x, n_strings=1)) is expected


def test_online_train_matches_replay_oracle():
    rng = np.random.default_rng(77)
    X, cls = random_stream(rng, 400)
    train = [Sample(f"s{i}", "fam", Label.SE if c else Label.NOT_SE,
                    features=FeatureVector(*x, n_strings=1)) for i, (x, c) in enumerate(zip(X, cls))]
    model = online_train(*design_matrix(train), k=10, lam_poisson=6.0, seed=31)
    oracle = ReplayEnsemble(10, 6.0, seed=31)
    for i in np.random.default_rng(np.random.SeedSequence([31, 1])).permutation(len(train)):
        oracle.update(X[i], int(cls[i]))
    oracle.assert_state_matches(model)


def test_online_separable_stream_holdout():
    rng = np.random.default_rng(8)
    stream, holdout = [], []
    for i in range(1200):
        se = bool(rng.random() < 0.5)
        x = rng.normal(5.0 if se else 0.0, 0.6)
        s = sample(f"s{i}", "SE" if se else "NOT_SE", entropy=float(x))
        (stream if i < 1000 else holdout).append(s)
    model = online_init(k=10, lam_poisson=6.0, seed=3)
    for s in stream:
        online_update(model, s)
    correct = sum(1 for s in holdout if online_predict(model, s.features) is s.label)
    assert correct / len(holdout) >= 0.95


# --- persistence ------------------------------------------------------------------

def test_batch_model_json_roundtrip():
    model = batch_train(*design_matrix(toy_separable()), seed=2)
    clone = model_from_json(model_to_json(model))
    assert np.array_equal(clone.weights, model.weights)
    assert clone.bias == model.bias
    assert np.array_equal(clone.scaler.mean, model.scaler.mean)
    assert clone.hyperparams == model.hyperparams


@pytest.mark.parametrize("lam", [0.5, 6.0, 50.0, 1e10])
def test_online_model_load_restores_the_saved_rng_state_whatever_n_draws_says(lam):
    # The generator moves on without n_draws counting it, so the file's
    # n_draws (0) says nothing of the state.
    model = online_init(k=2, lam_poisson=lam, seed=4)
    model.rng.poisson(lam, size=3 * 65_536 + 123)
    obj = model_to_json(model)
    for n_draws in (0, obj["n_draws"] + 1, 10**12):
        obj["n_draws"] = n_draws
        clone = model_from_json(obj)
        assert clone.rng.bit_generator.state == model.rng.bit_generator.state
        assert clone.n_draws == n_draws


def _with_state(edit):
    def broken(obj):
        state = copy.deepcopy(obj["rng_state"])
        edit(state)
        return {**obj, "rng_state": state}
    return broken


# Ways to break a saved online model: its generator state, draw count, seed or lambda.
BROKEN_ONLINE_MODELS = {
    "missing": lambda obj: {k: v for k, v in obj.items() if k != "rng_state"},
    "not-an-object": lambda obj: {**obj, "rng_state": 7},
    "wrong-generator": _with_state(lambda s: s.update(bit_generator="MT19937")),
    "missing-inc": _with_state(lambda s: s["state"].pop("inc")),
    "negative": _with_state(lambda s: s["state"].update(state=-1)),
    "oversized": _with_state(lambda s: s["state"].update(inc=2**200)),
    "non-integer": _with_state(lambda s: s["state"].update(state=1.5)),
    "bool": _with_state(lambda s: s["state"].update(state=True)),
    "has-uint32-out-of-range": _with_state(lambda s: s.update(has_uint32=7)),
    "uinteger-negative": _with_state(lambda s: s.update(uinteger=-1)),
    "negative-n_draws": lambda obj: {**obj, "n_draws": -1},
    # Numbers that int() or float() would truncate or convert.
    "float-n_draws": lambda obj: {**obj, "n_draws": 2.9},
    "bool-n_draws": lambda obj: {**obj, "n_draws": True},
    "string-seed": lambda obj: {**obj, "seed": "12"},
    "bool-seed": lambda obj: {**obj, "seed": True},
    "string-lambda": lambda obj: {**obj, "lam_poisson": "6.0"},
}


def _online_counts(value):
    def broken(obj):
        members = copy.deepcopy(obj["learners"])
        members[0]["counts"] = [value, 1]
        return {**obj, "learners": members}
    return broken


# Numbers past what a float or an int64 holds, which the conversions after
# the reader's test would overflow on: (kind, edit, field, what it must be).
OUT_OF_RANGE_NUMBERS = {
    "batch-bias": ("batch", lambda obj: {**obj, "bias": 10**400}, "bias", "a finite number"),
    "batch-weight": ("batch", lambda obj: {**obj, "weights": [10**400, *obj["weights"][1:]]},
                     "weights", "a finite number"),
    "batch-epochs": ("batch", lambda obj: {**obj, "hyperparams": {**obj["hyperparams"], "epochs": 2**70}},
                     "hyperparams epochs", "an integer from 0"),
    "online-lambda": ("online", lambda obj: {**obj, "lam_poisson": 10**400}, "poisson lambda",
                      "a finite number"),
    "online-counts": ("online", _online_counts(2**70), "counts", "an integer from 0"),
    "online-n_draws": ("online", lambda obj: {**obj, "n_draws": 2**70}, "n_draws", "an integer from 0"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE_NUMBERS)
def test_a_number_out_of_range_fails_the_readers_own_test(case):
    """One finite-number rule, abs(v) <= the largest float, and counts
    bounded by the int64 maximum: each such number is refused with the
    reader's message, not a wrapped OverflowError. The largest values that
    fit still load."""
    kind, broken, field, must_be = OUT_OF_RANGE_NUMBERS[case]
    model = batch_train(*design_matrix(toy_separable()), seed=2) if kind == "batch" \
        else online_init(k=2, seed=4)
    obj = model_to_json(model)
    with pytest.raises(BadConfig, match=f"^malformed model: {field} holds a value that is not {must_be}"):
        model_from_json(broken(obj))
    if kind == "batch":
        assert model_from_json({**obj, "bias": int(sys.float_info.max)}).bias == sys.float_info.max
    else:
        assert model_from_json(_online_counts(_COUNT_MAX)(obj)).counts[0, 0] == _COUNT_MAX


@pytest.mark.parametrize("case", BROKEN_ONLINE_MODELS)
def test_online_model_with_a_broken_rng_state_is_bad_config(case):
    """A saved online model with a broken field is BadConfig: its rng_state,
    and also a seed, poisson lambda (lam_poisson) or n_draws of the wrong
    kind or out of range."""
    obj = model_to_json(online_init(k=2, seed=4))
    with pytest.raises(BadConfig, match="malformed model"):
        model_from_json(BROKEN_ONLINE_MODELS[case](obj))


def test_online_model_json_roundtrip_preserves_rng_stream():
    stream = [sample(f"s{i}", "SE" if i % 3 else "NOT_SE", entropy=float(i)) for i in range(20)]
    per_sample = online_init(k=3, lam_poisson=6.0, seed=9)
    for s in stream:
        online_update(per_sample, s)
    bulk = online_train(*design_matrix(stream), k=3, lam_poisson=6.0, seed=9)
    for model in (per_sample, bulk):
        clone = model_from_json(model_to_json(model))
        assert clone.n_draws == model.n_draws == 60
        assert clone.rng.bit_generator.state == model.rng.bit_generator.state
        extra = sample("x", "SE", entropy=4.2)
        online_update(model, extra)
        online_update(clone, extra)
        assert model_to_json(model) == model_to_json(clone)
