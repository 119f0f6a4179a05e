import numpy as np
import pytest

from strobe.dataset import Label, Sample
from strobe.errors import BadConfig, SingleClass, TooSmall
from strobe.features import FeatureVector
from strobe.learners import (
    BatchModel,
    HingeHyperparams,
    Scaler,
    batch_predict_rows,
    batch_train,
    default_grid,
    design_matrix,
    fit_scaler,
    grid_search,
    hinge_objective,
    hinge_sgd,
    hinge_subgradient,
    model_from_json,
    model_to_json,
    online_fit,
    online_init,
    online_predict,
    online_predict_rows,
    online_train,
    online_update,
    predict,
)

from oracles import ReplayEnsemble, reference_batch_train, reference_grid_search


def fv(entropy=0.0, length=0.0, **kw):
    return FeatureVector(avg_entropy=entropy, avg_length=length, n_strings=1, **kw)


def sample(sid, label, entropy=0.0, length=0.0):
    return Sample(sid, "fam", Label(label), features=fv(entropy, length))


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
    s = fit_scaler([fv(length=2.0), fv(length=4.0)])
    i = 2  # avg_length slot
    assert s.mean[i] == 3.0
    assert s.std[i] == 1.0  # population rule: sqrt(((2-3)^2 + (4-3)^2)/2)


def test_scaler_clamps_constant_feature():
    s = fit_scaler([fv(length=5.0), fv(length=5.0)])
    assert s.std[2] == pytest.approx(1e-9)


def test_scaler_transform_centers_train():
    vectors = [fv(entropy=float(i), length=float(2 * i)) for i in range(10)]
    s = fit_scaler(vectors)
    X = np.array([v.as_tuple() for v in vectors])
    Z = s.transform(X)
    assert np.all(np.abs(Z.mean(axis=0)) <= 1e-9)


def test_scaler_too_small():
    with pytest.raises(TooSmall):
        fit_scaler([fv()])


# --- batch learner --------------------------------------------------------------

def test_batch_fits_separable_toy_exactly():
    train = toy_separable()
    model = batch_train(train, seed=0)
    assert all(predict(model, s.features) is s.label for s in train)


def test_batch_single_class():
    with pytest.raises(SingleClass):
        batch_train([sample("a", "SE", 1.0), sample("b", "SE", 2.0)], seed=0)


def test_batch_deterministic():
    train = toy_separable()
    m1 = batch_train(train, seed=7)
    m2 = batch_train(train, seed=7)
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


@pytest.mark.parametrize("trial", range(6))
def test_hinge_sgd_matches_per_sample_loop(trial):
    """Random mixes of fits: ragged training sets, repeated seeds, a
    single-class stream, epochs 0, 1, 20 and 50, negative-shrink grid points."""
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
    assert_matches_reference(batch_train([pool[i] for i in rows], hp, seed), [pool[i] for i in rows], hp, seed)


def test_hinge_sgd_with_nothing_to_train():
    X, y = design_matrix(toy_separable())
    assert hinge_sgd(X, y, [], []) == []
    (model,) = hinge_sgd(X, y, [(np.arange(len(y)), 3)], [(0, HingeHyperparams(epochs=0))])
    assert not model.weights.any() and model.bias == 0.0


# --- row scorers -------------------------------------------------------------------

def test_batch_predict_rows_matches_predict():
    rng = np.random.default_rng(4)
    train = random_train(rng, 200)
    X, _ = design_matrix(train)
    for seed in range(3):
        model = batch_train(train[:150], seed=seed)
        assert batch_predict_rows(model, X).tolist() == \
            [predict(model, s.features) is Label.SE for s in train]
    tie = BatchModel(weights=np.zeros(8), bias=0.0, scaler=Scaler(np.zeros(8), np.ones(8)),
                     hyperparams=HingeHyperparams())
    assert not batch_predict_rows(tie, X).any()


def test_online_predict_rows_matches_online_predict():
    rng = np.random.default_rng(5)
    train = random_train(rng, 200)
    X, _ = design_matrix(train)
    models = [online_init(k=4, seed=1),                    # cold: every vote NOT_SE
              online_train(train[:3], k=5, seed=2),        # members with one class only
              online_train(train[:150], k=10, seed=3)]
    for model in models:
        assert online_predict_rows(model, X).tolist() == \
            [online_predict(model, s.features) is Label.SE for s in train]


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
    online_fit(model, X[:half], cls[:half])
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
    model = online_train(train, k=10, lam_poisson=6.0, seed=31)
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
    model = batch_train(toy_separable(), seed=2)
    clone = model_from_json(model_to_json(model))
    assert np.array_equal(clone.weights, model.weights)
    assert clone.bias == model.bias
    assert np.array_equal(clone.scaler.mean, model.scaler.mean)
    assert clone.hyperparams == model.hyperparams


def test_online_model_json_roundtrip_preserves_rng_stream():
    stream = [sample(f"s{i}", "SE" if i % 3 else "NOT_SE", entropy=float(i)) for i in range(20)]
    per_sample = online_init(k=3, lam_poisson=6.0, seed=9)
    for s in stream:
        online_update(per_sample, s)
    bulk = online_train(stream, k=3, lam_poisson=6.0, seed=9)
    for model in (per_sample, bulk):
        clone = model_from_json(model_to_json(model))
        assert clone.n_draws == model.n_draws == 60
        assert clone.rng.bit_generator.state == model.rng.bit_generator.state
        extra = sample("x", "SE", entropy=4.2)
        online_update(model, extra)
        online_update(clone, extra)
        assert model_to_json(model) == model_to_json(clone)
