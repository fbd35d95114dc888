import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tokembed import rng as rng_mod
from tokembed.nn import (Dense, DropoutSpec, LstmCell, MLP, RowGrad,
                         SgdMomentum, anchored_l2, dense_forward, dropout_mask,
                         gradient_check, lstm_step, relu, softmax_logloss,
                         softmax_logloss_batch)


# -- dense layers ---------------------------------------------------------


def test_dense_identity():
    layer = Dense(2, 2, "linear")
    layer.W[:] = np.eye(2)
    assert np.allclose(dense_forward(layer, np.array([3.0, -1.0])), [3.0, -1.0])


def test_dense_relu_clips():
    layer = Dense(2, 1, "relu")
    layer.W[:] = [[1.0, 1.0]]
    assert np.allclose(dense_forward(layer, np.array([2.0, -5.0])), [0.0])


def test_dense_tanh():
    layer = Dense(2, 1, "tanh")
    layer.W[:] = [[1.0, 1.0]]
    layer.b[:] = [1.0]
    out = dense_forward(layer, np.array([0.0, 0.0]))
    assert np.allclose(out, math.tanh(1.0), atol=1e-6)


def test_dense_dimension_mismatch():
    layer = Dense(3, 2)
    with pytest.raises(ValueError):
        dense_forward(layer, np.zeros(4))


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


# -- LSTM -----------------------------------------------------------------


def test_lstm_zero_parameters_fixed_point():
    cell = LstmCell(3, 4)
    h, c = lstm_step(cell, np.array([5.0, -2.0, 1.0]), np.zeros(4), np.zeros(4))
    assert np.array_equal(h, np.zeros(4))
    assert np.array_equal(c, np.zeros(4))


def test_lstm_deterministic():
    cell = LstmCell(2, 3, rng=rng_mod.stream(0, "init"))
    x = np.array([0.3, -0.7])
    a = lstm_step(cell, x, np.zeros(3), np.zeros(3))
    b = lstm_step(cell, x, np.zeros(3), np.zeros(3))
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


def test_dropout_spec_validation():
    DropoutSpec(0.2, 0.4)
    with pytest.raises(ValueError):
        DropoutSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        DropoutSpec(0.0, -0.1)


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
