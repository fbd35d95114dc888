import math
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tokembed import rng as rng_mod
from tokembed.nn import (Dense, LstmCell, MLP, RowGrad, SgdMomentum,
                         TrainingDiverged, anchored_l2, dropout_mask, fit,
                         gradient_check, relu, sigmoid, softmax_logloss,
                         softmax_logloss_batch)


# -- dense layers ---------------------------------------------------------


def dense_row(layer, x):
    """``layer`` applied to the single input row ``x``."""
    y, _ = layer.forward(np.asarray(x)[None, :])
    return y[0]


def test_dense_identity():
    layer = Dense(2, 2, "linear")
    layer.W[:] = np.eye(2)
    assert np.allclose(dense_row(layer, [3.0, -1.0]), [3.0, -1.0])


def test_dense_relu_clips():
    layer = Dense(2, 1, "relu")
    layer.W[:] = [[1.0, 1.0]]
    assert np.allclose(dense_row(layer, [2.0, -5.0]), [0.0])


def test_dense_tanh():
    layer = Dense(2, 1, "tanh")
    layer.W[:] = [[1.0, 1.0]]
    layer.b[:] = [1.0]
    out = dense_row(layer, [0.0, 0.0])
    assert np.allclose(out, math.tanh(1.0), atol=1e-6)


def test_dense_dimension_mismatch():
    layer = Dense(3, 2)
    with pytest.raises(ValueError, match="width 3"):
        dense_row(layer, np.zeros(4))


def test_unknown_activation():
    with pytest.raises(ValueError):
        Dense(2, 2, "swish")


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
def test_relu_nonnegative(xs):
    assert np.all(relu(np.array(xs)) >= 0)


# float64 tanh saturates to exactly +/-1 beyond |x| ~ 18, so the strict bound
# is only observable on the non-saturating range
@given(st.lists(st.floats(-15, 15), min_size=1, max_size=10))
def test_tanh_strictly_bounded(xs):
    t = np.tanh(np.array(xs))
    assert np.all(t > -1) and np.all(t < 1)


def split_by_sign_sigmoid(z):
    """Reference: 1/(1+exp(-z)) on z >= 0, exp(z)/(1+exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SPECIAL = [0.0, -0.0, 100.0, -100.0, np.inf, -np.inf, np.nan, -np.nan, 88.7, -745.0]


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_sigmoid_bitwise_equals_split_by_sign(dtype, bits, xs):
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.array(SPECIAL + xs, dtype=dtype)
        got, want = sigmoid(z), split_by_sign_sigmoid(z)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.view(bits), want.view(bits))


# -- LSTM -----------------------------------------------------------------


def test_lstm_zero_parameters_fixed_point():
    cell = LstmCell(3, 4)
    h, c, _ = cell.step(np.array([[5.0, -2.0, 1.0]]), *cell.zero_state(1))
    assert np.array_equal(h, np.zeros((1, 4)))
    assert np.array_equal(c, np.zeros((1, 4)))


def test_lstm_deterministic():
    cell = LstmCell(2, 3, rng=rng_mod.stream(0, "init"))
    x = np.array([[0.3, -0.7]])
    a = cell.step(x, *cell.zero_state(1))
    b = cell.step(x, *cell.zero_state(1))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_lstm_sum_h_gradient_matches_finite_differences():
    rng = rng_mod.stream(1, "init")
    cell = LstmCell(3, 4, rng=rng, dtype=np.float64)
    xs = rng.normal(size=(2, 1, 3))  # two steps, batch 1

    def loss_and_grads():
        h, c = cell.zero_state(1, np.float64)
        caches, hs = [], []
        for t in range(2):
            h, c, cache = cell.step(xs[t], h, c)
            caches.append(cache)
            hs.append(h)
        loss = float(sum(h.sum() for h in hs))
        grads = None
        dh = np.ones_like(hs[-1])
        dc = np.zeros_like(hs[-1])
        for t in reversed(range(2)):
            _, dh_prev, dc, g = cell.step_backward(dh, dc, caches[t])
            grads = g if grads is None else {k: grads[k] + g[k] for k in g}
            dh = dh_prev + (np.ones_like(dh_prev) if t > 0 else 0.0)
        return loss, grads

    report = gradient_check(loss_and_grads, cell.params(), eps=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_lstm_shape_validation():
    cell = LstmCell(2, 3)
    with pytest.raises(ValueError):
        cell.step(np.zeros((1, 5)), *cell.zero_state(1))


# -- losses -----------------------------------------------------------------


def test_logloss_uniform_25():
    loss, _ = softmax_logloss(np.zeros(25), 7)
    assert abs(loss - math.log(25)) < 1e-9


def test_logloss_two_class():
    loss, _ = softmax_logloss(np.array([1.0, 0.0]), 0)
    assert abs(loss - math.log(1 + math.exp(-1))) < 1e-9


def test_logloss_shift_invariance():
    z = np.array([0.3, -2.0, 1.7, 0.0])
    l1, _ = softmax_logloss(z, 2)
    l2, _ = softmax_logloss(z + 123.456, 2)
    assert abs(l1 - l2) < 1e-9


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12), st.integers(0, 11))
def test_logloss_gradient_sums_to_zero(zs, gold):
    z = np.array(zs)
    gold = gold % len(z)
    loss, grad = softmax_logloss(z, gold)
    assert loss >= -1e-12
    assert abs(grad.sum()) < 1e-9


def test_logloss_errors():
    with pytest.raises(ValueError):
        softmax_logloss(np.array([]), 0)
    with pytest.raises(ValueError):
        softmax_logloss(np.zeros(3), 5)


def test_logloss_batch_matches_scalar():
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(6, 4))
    gold = rng.integers(0, 4, size=6)
    mean_loss, grad = softmax_logloss_batch(Z, gold)
    singles = [softmax_logloss(Z[k], gold[k]) for k in range(6)]
    assert abs(mean_loss - np.mean([s[0] for s in singles])) < 1e-12
    assert np.allclose(grad, np.stack([s[1] for s in singles]) / 6)


# -- optimizer ----------------------------------------------------------------


def test_sgd_no_momentum_is_plain_sgd():
    p = {"w": np.array([1.0, 2.0], dtype=np.float32)}
    opt = SgdMomentum(p, learning_rate=0.5, momentum=0.0)
    opt.step({"w": np.array([2.0, -2.0], dtype=np.float32)})
    assert np.allclose(p["w"], [0.0, 3.0])


def test_sgd_momentum_two_steps():
    p = {"w": np.zeros(1, dtype=np.float64)}
    opt = SgdMomentum(p, learning_rate=0.1, momentum=0.9)
    g = {"w": np.ones(1)}
    opt.step(g)
    assert np.allclose(p["w"], [-0.1])
    opt.step(g)
    assert np.allclose(p["w"], [-0.29])


def test_sgd_zero_gradient_fixed_point():
    p = {"w": np.array([1.5], dtype=np.float32)}
    opt = SgdMomentum(p, learning_rate=0.1, momentum=0.9)
    opt.step({"w": np.zeros(1, dtype=np.float32)})
    assert np.array_equal(p["w"], np.array([1.5], dtype=np.float32))


def test_sgd_shape_mismatch():
    opt = SgdMomentum({"w": np.zeros(2)}, 0.1, 0.9)
    with pytest.raises(ValueError):
        opt.step({"w": np.zeros(3)})
    with pytest.raises(ValueError):
        opt.step({"w": RowGrad(np.array([0]), np.zeros(2))})
    with pytest.raises(ValueError):
        opt.step({})


# -- fit ------------------------------------------------------------------------


class ScriptedRun:
    """Fake training problem: one parameter vector that every minibatch
    moves by the same step, scored by a scripted sequence of values.  Keeps
    the parameters seen at each evaluation and the batches it was given."""

    def __init__(self, scores, losses=()):
        self.params = {"w": np.zeros(2)}
        self.scores = list(scores)
        self.losses = list(losses)
        self.seen = []
        self.batches = []

    def batch_loss(self, indices):
        self.batches.append(indices.tolist())
        loss = self.losses.pop(0) if self.losses else 1.0
        return loss, {"w": -np.ones(2)}

    def evaluate(self):
        self.seen.append(self.params["w"].copy())
        return self.scores.pop(0)


def fit_cfg(**kw):
    return SimpleNamespace(**{"epochs": 10, "batch_size": 4, "learning_rate": 1.0,
                              "momentum": 0.0, "seed": 3, **kw})


def test_fit_stops_after_patience_and_restores_earlier_of_tied_best():
    run = ScriptedRun([50.0, 70.0, 70.0, 60.0, 90.0])
    res = fit(run.params, 4, run.batch_loss, run.evaluate, fit_cfg(),
              maximize=True, baseline=-1.0, patience=2)
    # epoch 3 ties epoch 2, epoch 4 is worse: two stale epochs end training
    assert res.epochs_run == 4 and res.steps == 4
    assert res.best == 70.0
    assert [(e, s, v) for e, s, v in res.history] == [
        (1, 1, 50.0), (2, 2, 70.0), (3, 3, 70.0), (4, 4, 60.0)]
    assert np.array_equal(run.seen[1], [2.0, 2.0])
    assert np.array_equal(run.params["w"], run.seen[1])


def test_fit_minimizes_from_the_starting_score_and_evaluates_once_per_minibatch():
    # 4 items in batches of 2 take 2 minibatches an epoch; evaluating every
    # 2nd one coincides with each epoch end, every 3rd one does not
    run = ScriptedRun([5.0, 4.0, 6.0, 6.0])
    res = fit(run.params, 4, run.batch_loss, run.evaluate, fit_cfg(epochs=3, batch_size=2),
              maximize=False, eval_every=2)
    assert [(e, s) for e, s, _ in res.history] == [(0, 0), (1, 2), (2, 4), (3, 6)]
    assert res.best == 4.0 and res.epochs_run == 3 and res.steps == 6
    assert np.array_equal(run.params["w"], [2.0, 2.0])
    run = ScriptedRun([5.0, 6.0, 7.0, 8.0, 9.0])
    res = fit(run.params, 4, run.batch_loss, run.evaluate, fit_cfg(epochs=2, batch_size=2),
              maximize=False, eval_every=3)
    assert [(e, s) for e, s, _ in res.history] == [(0, 0), (1, 2), (2, 3), (2, 4)]
    assert res.best == 5.0
    assert np.array_equal(run.params["w"], [0.0, 0.0])


def test_fit_draws_each_epoch_order_from_the_shuffle_stream():
    run = ScriptedRun([1.0] * 3)
    fit(run.params, 5, run.batch_loss, run.evaluate, fit_cfg(epochs=3, batch_size=2),
        maximize=True, baseline=-1.0)
    shuffle = rng_mod.stream(3, "shuffle")
    expected = []
    for _ in range(3):
        order = shuffle.permutation(5).tolist()
        expected += [order[k:k + 2] for k in range(0, 5, 2)]
    assert run.batches == expected


def test_fit_non_finite_loss_raises_before_the_step():
    run = ScriptedRun([1.0], losses=[1.0, 1.0, float("inf")])
    with pytest.raises(TrainingDiverged, match="minibatch 3"):
        fit(run.params, 4, run.batch_loss, run.evaluate, fit_cfg(batch_size=2),
            maximize=True, baseline=-1.0)
    assert np.array_equal(run.params["w"], [2.0, 2.0])


def test_fit_rejects_an_empty_training_set():
    run = ScriptedRun([])
    with pytest.raises(ValueError):
        fit(run.params, 0, run.batch_loss, run.evaluate, fit_cfg(),
            maximize=True, baseline=-1.0)


# -- anchored L2 -----------------------------------------------------------


def test_anchored_l2_at_anchor():
    theta = np.array([1.0, -2.0])
    pen, grad = anchored_l2(theta, theta.copy(), 0.7)
    assert pen == 0.0
    assert np.array_equal(grad, np.zeros(2))


def test_anchored_l2_hand_case():
    pen, grad = anchored_l2(np.array([1.0, 2.0]), np.zeros(2), 1.0)
    assert pen == 5.0
    assert np.allclose(grad, [2.0, 4.0])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=6),
       st.floats(0.001, 10))
def test_anchored_l2_nonnegative(xs, lam):
    pen, _ = anchored_l2(np.array(xs), np.zeros(len(xs)), lam)
    assert pen >= 0.0


def test_anchored_l2_shape_mismatch():
    with pytest.raises(ValueError):
        anchored_l2(np.zeros(2), np.zeros(3), 1.0)


# -- dropout -----------------------------------------------------------------


def test_dropout_rate_validation():
    rng = rng_mod.stream(0, "dropout")
    assert dropout_mask(rng, (2, 3), 0.4).shape == (2, 3)
    for rate in (1.0, -0.1):
        with pytest.raises(ValueError, match="outside"):
            dropout_mask(rng, (2, 3), rate)


def test_dropout_eval_mode_is_identity():
    rng = rng_mod.stream(0, "init")
    net = MLP([4, 5, 3], ["relu", "linear"], rng)
    X = rng_mod.stream(0, "data").normal(size=(2, 4)).astype(np.float32)
    y1, _ = net.forward(X)
    y2, _ = net.forward(X)  # no rng: dropout never applies
    assert np.array_equal(y1, y2)


def test_dropout_preserves_expectation():
    rng = rng_mod.stream(0, "dropout")
    x = np.full(8, 2.0, dtype=np.float64)
    acc = np.zeros(8)
    n = 100_000
    for _ in range(n):
        acc += x * dropout_mask(rng, x.shape, 0.4, np.float64)
    mean = acc / n
    assert np.all(np.abs(mean - x) / x < 0.01)


# -- gradient checker ---------------------------------------------------------


def _linear_squared_loss_setup():
    rng = rng_mod.stream(2, "init")
    layer = Dense(3, 2, "linear", rng=rng, dtype=np.float64)
    X = rng.normal(size=(4, 3))
    T = rng.normal(size=(4, 2))

    def loss_and_grads():
        Y, cache = layer.forward(X)
        diff = Y - T
        loss = float((diff * diff).sum())
        _, grads = layer.backward(2.0 * diff, cache)
        return loss, grads

    return layer, loss_and_grads


def test_gradient_check_linear_squared_loss():
    layer, fn = _linear_squared_loss_setup()
    report = gradient_check(fn, layer.params(), eps=1e-5, tol=1e-6)
    assert report.ok
    assert report.n_checked == layer.W.size + layer.b.size


def test_gradient_check_flags_corrupted_gradient():
    layer, fn = _linear_squared_loss_setup()

    def corrupted():
        loss, grads = fn()
        return loss, {k: 2.0 * v for k, v in grads.items()}

    report = gradient_check(corrupted, layer.params(), eps=1e-5, tol=1e-6)
    assert not report.ok
    assert report.failures


def test_gradient_check_sampling_limits_coords():
    layer, fn = _linear_squared_loss_setup()
    report = gradient_check(fn, layer.params(), eps=1e-5, tol=1e-6,
                            max_coords_per_param=2,
                            rng=rng_mod.stream(0, "init"))
    assert report.n_checked == 4  # two per parameter tensor
