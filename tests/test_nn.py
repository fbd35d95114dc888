import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tokembed import rng as rng_mod
from tokembed.nn import (STEP_BLOCK, Dense, FitConfig, LstmCell, MLP, SgdMomentum,
                         TrainingDiverged, anchored_l2, dropout_mask, fit,
                         glorot_uniform, gradient_check, relu, sigmoid, softmax_logloss,
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


def test_dense_relu_output_is_its_own_mask():
    # the in-place relu gives np.maximum(A, 0), and the backward pass masks
    # like A > 0, bit for bit, at pre-activations +-0, +-inf, nan and finite
    # values of both signs
    layer = Dense(1, 3, "relu")
    layer.W[:] = [[1.0], [2.0], [-1.0]]
    X = np.array([[0.0], [np.inf], [-np.inf], [np.nan], [1.5], [-2.5]], np.float32)
    A = X @ layer.W.T + layer.b
    Y, cache = layer.forward(X)
    assert np.shares_memory(Y, cache[1])
    assert Y.tobytes() == np.maximum(A, 0).tobytes()
    dY = rng_mod.stream(5, "data").normal(size=A.shape).astype(np.float32)
    # no float32 product here gives -0.0, so a cache is also made from one
    negative_zero = np.where(A == 0, np.float32(-0.0), A)
    assert np.signbit(negative_zero[0]).all()
    for pre, layer_cache in ((A, cache), (negative_zero, (X, relu(negative_zero)))):
        with np.errstate(invalid="ignore"):  # 0 * inf in the weight gradient
            dX, grads = layer.backward(dY, layer_cache)
            dA = dY * (pre > 0)
            assert grads["W"].tobytes() == (dA.T @ X).tobytes()
        assert dX.tobytes() == (dA @ layer.W).tobytes()
        assert grads["b"].tobytes() == dA.sum(axis=0).tobytes()


@pytest.mark.parametrize("activation", ["linear", "relu"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_forward_is_the_affine_map_bit_for_bit(activation, dtype):
    # the bias is added in place; the output must be X @ W.T + b, then the activation
    rng = rng_mod.stream(6, "data")
    layer = Dense(37, 19, activation, rng, dtype)
    layer.b[:] = rng.normal(size=19)
    X = rng.normal(size=(23, 37)).astype(dtype)
    want = X @ layer.W.T + layer.b
    if activation == "relu":
        want = np.maximum(want, 0)
    Y, _ = layer.forward(X)
    assert Y.dtype == dtype and Y.tobytes() == want.tobytes()


def test_dense_dimension_mismatch():
    layer = Dense(3, 2)
    with pytest.raises(ValueError, match="width 3"):
        dense_row(layer, np.zeros(4))


def test_unknown_activation():
    with pytest.raises(ValueError):
        Dense(2, 2, "swish")


def mlp_backward_pair(input_cols, dropout, dtype=np.float32):
    """The full backward of a tagger-shaped MLP pass and the same pass's
    backward with ``input_cols``: (full, limited, the pass's cache)."""
    net = MLP([60, 32, 32, 5], ["relu", "relu", "linear"], rng_mod.stream(3, "init"), dtype)
    r = np.random.default_rng(3)
    X = r.normal(size=(64, 60)).astype(dtype)
    rates = {"rng": rng_mod.stream(3, "dropout"), "input_rate": 0.3,
             "hidden_rate": 0.2} if dropout else {}
    Y, cache = net.forward(X, **rates)
    dY = r.normal(size=Y.shape).astype(dtype)
    return net.backward(dY, cache), net.backward(dY, cache, input_cols), cache


@pytest.mark.parametrize("dropout", [False, True])
def test_backward_without_input_gradient_gives_the_same_grads(dropout):
    (_, full), (dX, grads), _ = mlp_backward_pair(None, dropout)
    assert dX is None
    assert grads.keys() == full.keys()
    assert all(grads[k].tobytes() == full[k].tobytes() for k in full)


@pytest.mark.parametrize("dropout", [False, True])
def test_backward_limited_to_input_columns_gives_those_columns(dropout):
    # float64: a product with fewer columns may round otherwise in float32
    cols = slice(0, 24)
    (dX_full, full), (dX, grads), (_, masks) = mlp_backward_pair(cols, dropout, np.float64)
    assert dX.shape == (64, 24)
    assert np.allclose(dX, dX_full[:, cols], rtol=1e-6, atol=0)
    if dropout:  # the input mask applies to the same columns
        assert (masks[0][:, cols] == 0).any() and not dX[masks[0][:, cols] == 0].any()
    assert all(grads[k].tobytes() == full[k].tobytes() for k in full)


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


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_sigmoid_bitwise_on_the_gate_columns_of_a_step(dtype, bits):
    # the i/f/o columns of a (B, 4h) pre-activation: strided rows, mixed signs
    r = np.random.default_rng(11)
    A = (8 * r.normal(size=(64, 4 * 32))).astype(dtype)
    A[0, :len(SPECIAL)] = SPECIAL
    z = A[:, :3 * 32]
    assert not z.flags.c_contiguous and (z < 0).any() and (z > 0).any()
    with np.errstate(over="ignore", invalid="ignore"):
        want = split_by_sign_sigmoid(z)
        got = sigmoid(z)
        in_place = A.copy()
        sigmoid(in_place[:, :3 * 32], out=in_place[:, :3 * 32])
    for out in (got, in_place[:, :3 * 32]):
        assert np.array_equal(np.ascontiguousarray(out).view(bits), want.view(bits))


# -- LSTM -----------------------------------------------------------------


def test_lstm_zero_parameters_fixed_point():
    cell = LstmCell(3, 4)
    H, _ = cell.forward(np.array([[[5.0, -2.0, 1.0]], [[0.5, 3.0, -1.0]]]))
    assert np.array_equal(H, np.zeros((2, 1, 4)))


def test_lstm_deterministic():
    cell = LstmCell(2, 3, rng=rng_mod.stream(0, "init"))
    x = np.array([[[0.3, -0.7]], [[0.1, 0.2]]])
    assert np.array_equal(cell.forward(x)[0], cell.forward(x)[0])


def test_lstm_sum_h_gradient_matches_finite_differences():
    # both halves of [x; h] in every step: an input and a given h0
    rng = rng_mod.stream(1, "init")
    cell = LstmCell(3, 4, rng=rng, dtype=np.float64)
    xs = rng.normal(size=(2, 1, 3))  # two steps, batch 1
    h0 = rng.normal(size=(1, 4))

    def loss_and_grads():
        H, cache = cell.forward(xs, h0, keep=True)
        dh0, grads = cell.backward(np.ones_like(H), cache)
        return float(H.sum()), {**grads, "h0": dh0}

    report = gradient_check(loss_and_grads, {**cell.params(), "h0": h0}, eps=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def test_lstm_gates_are_views_of_the_stacked_parameters():
    draws = rng_mod.stream(0, "init")
    blocks = [glorot_uniform(draws, 7, 4, (4, 7), np.float32) for _ in LstmCell.GATES]
    cell = LstmCell(3, 4, rng=rng_mod.stream(0, "init"))
    assert cell.W.shape == (16, 7) and cell.b.shape == (16,)
    assert np.array_equal(cell.W, np.concatenate(blocks))
    params = cell.params()
    for k, gate in enumerate(LstmCell.GATES):
        assert np.shares_memory(params[f"W{gate}"], cell.W)
        assert np.shares_memory(params[f"b{gate}"], cell.b)
        assert np.array_equal(params[f"W{gate}"], cell.W[4 * k:4 * k + 4])
    assert np.array_equal(cell.b, [0] * 4 + [1] * 4 + [0] * 8)
    W, b = cell.W.copy(), cell.b.copy()
    SgdMomentum(params, learning_rate=0.5, momentum=0.0).step(
        {name: np.ones_like(p) for name, p in params.items()})
    assert np.array_equal(cell.W, W - 0.5) and np.array_equal(cell.b, b - 0.5)


@pytest.mark.parametrize("zero", ["input", "hidden"])
def test_lstm_step_with_a_zero_half_equals_explicit_zeros_bitwise(zero):
    # the encoder's training shape: d=100, d'=256, 64 windows of 3 steps
    cell = LstmCell(100, 256, rng=rng_mod.stream(2, "init"))
    r = np.random.default_rng(5)
    X = r.normal(size=(3, 64, 100)).astype(np.float32)
    h0, dH = (r.normal(size=shape).astype(np.float32) for shape in ((64, 256), (3, 64, 256)))
    if zero == "input":  # the decoder's window
        implicit, explicit = {"h0": h0, "steps": 3}, {"X": 0 * X, "h0": h0}
    else:  # the encoder's window: no product with the first step's hidden state
        implicit, explicit = {"X": X}, {"X": X, "h0": 0 * h0}
    H0, cache0 = cell.forward(**implicit, keep=True)
    H1, cache1 = cell.forward(**explicit, keep=True)
    assert H0.tobytes() == H1.tobytes()
    dh0, g0 = cell.backward(dH, cache0)
    dh1, g1 = cell.backward(dH, cache1)
    if zero == "input":
        assert dh0.tobytes() == dh1.tobytes()
        assert not any(g0[f"W{gate}"][:, :100].any() for gate in LstmCell.GATES)
    else:
        assert dh0 is None and dh1 is not None
    assert g0.keys() == g1.keys()
    assert all(g0[k].tobytes() == g1[k].tobytes() for k in g0)


def test_lstm_zero_state_and_zero_input_gradients_match_finite_differences():
    # an encoder's window (zero initial state), then a decoder's window (zero
    # inputs) from its last hidden state, as in the seq2seq encoder
    rng = rng_mod.stream(4, "init")
    cell = LstmCell(3, 4, rng=rng, dtype=np.float64)
    x = rng.normal(size=(2, 2, 3))

    def loss_and_grads():
        H1, cache1 = cell.forward(x, keep=True)
        H2, cache2 = cell.forward(h0=H1[-1], steps=2, keep=True)
        dh, grads = cell.backward(np.ones_like(H2), cache2)
        dH1 = np.ones_like(H1)
        dH1[-1] += dh
        _, g = cell.backward(dH1, cache1)
        return float(H1.sum() + H2.sum()), {k: grads[k] + g[k] for k in g}

    report = gradient_check(loss_and_grads, cell.params(), eps=1e-5, tol=1e-4)
    assert report.ok, report.failures[:3]


def reference_window(cell, X, h0, dH):
    """An LSTM window step by step from the textbook equations, one [x; h]
    product per step and per-step weight gradients summed: (H, dh0, dW, db)
    for the gradients ``dH`` w.r.t. every step's hidden state."""
    W, b, n, h = cell.W, cell.b, cell.n_in, cell.n_hidden
    hs, cs, zs, acts = [h0], [np.zeros_like(h0)], [], []
    for x in X:
        z = np.concatenate([x, hs[-1]], axis=1)
        a = z @ W.T + b
        i, f, o = (1.0 / (1.0 + np.exp(-a[:, k * h:(k + 1) * h])) for k in range(3))
        g = np.tanh(a[:, 3 * h:])
        cs.append(f * cs[-1] + i * g)
        hs.append(o * np.tanh(cs[-1]))
        zs.append(z)
        acts.append((i, f, o, g))
    dW, db = np.zeros_like(W), np.zeros_like(b)
    dh, dc = np.zeros_like(h0), np.zeros_like(h0)
    for t in reversed(range(len(X))):
        i, f, o, g = acts[t]
        dh = dh + dH[t]
        tc = np.tanh(cs[t + 1])
        dc = dc + dh * o * (1.0 - tc ** 2)
        da = np.concatenate([dc * g * i * (1.0 - i), dc * cs[t] * f * (1.0 - f),
                             dh * tc * o * (1.0 - o), dc * i * (1.0 - g ** 2)], axis=1)
        dW += da.T @ zs[t]
        db += da.sum(axis=0)
        dh, dc = (da @ W)[:, n:], dc * f
    return np.stack(hs[1:]), dh, dW, db


def relative_error(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), np.finfo(float).tiny)


@pytest.mark.parametrize("steps", [1, 2, 3, 4])  # 2w'+1 steps: w' = 0 at T = 1
@pytest.mark.parametrize("case", ["encoder", "decoder"])
def test_lstm_window_matches_the_step_by_step_reference(case, steps):
    rng = rng_mod.stream(steps, "init")
    cell = LstmCell(3, 5, rng=rng, dtype=np.float64)
    cell.W[...] = rng.normal(size=cell.W.shape)
    cell.b[...] = rng.normal(size=cell.b.shape)
    X, h0 = rng.normal(size=(steps, 4, 3)), rng.normal(size=(4, 5))
    dH = rng.normal(size=(steps, 4, 5))
    if case == "encoder":  # a zero initial state, and only the last state's gradient
        H, cache = cell.forward(X, keep=True)
        dh0, grads = cell.backward(dH[-1:], cache)
        dH[:-1] = 0
        want = reference_window(cell, X, 0 * h0, dH)
        assert dh0 is None
    else:  # no input, a given initial hidden state
        H, cache = cell.forward(h0=h0, steps=steps, keep=True)
        dh0, grads = cell.backward(dH, cache)
        want = reference_window(cell, 0 * X, h0, dH)
        assert relative_error(dh0, want[1]) <= 1e-12
    assert relative_error(H, want[0]) <= 1e-12
    for name, whole in (("W", want[2]), ("b", want[3])):
        got = np.concatenate([grads[name + gate] for gate in LstmCell.GATES])
        assert relative_error(got, whole) <= 1e-12, name
    assert np.array_equal(cell.forward(X if case == "encoder" else None,
                                       None if case == "encoder" else h0, steps)[0], H)


def test_lstm_step_needs_an_input_or_a_hidden_state():
    cell = LstmCell(2, 3)
    with pytest.raises(ValueError, match="needs an input or a hidden state"):
        cell.forward(steps=2)
    with pytest.raises(ValueError, match="state shape mismatch"):
        cell.forward(np.zeros((1, 2, 2)), np.zeros((1, 3)))


def test_lstm_shape_validation():
    cell = LstmCell(2, 3)
    with pytest.raises(ValueError):
        cell.forward(np.zeros((1, 1, 5)))


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


def reference_momentum_steps(p, grads, lr, mu):
    """``p`` after the textbook rule, one whole-array pass per operation."""
    p, v = p.copy(), np.zeros_like(p)
    for g in grads:
        v *= mu
        v -= lr * g
        p += v
    return p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [1000, STEP_BLOCK, 3 * STEP_BLOCK + 123])
def test_sgd_blocked_step_equals_the_reference_rule_bitwise(dtype, size):
    r = np.random.default_rng(size)
    start = r.normal(size=size).astype(dtype)
    grads = [r.normal(size=size).astype(dtype) for _ in range(3)]
    kept = [g.copy() for g in grads]
    p = start.copy()
    opt = SgdMomentum({"w": p}, learning_rate=0.037, momentum=0.9)
    for g in grads:
        opt.step({"w": g})
    assert p.tobytes() == reference_momentum_steps(start, grads, 0.037, 0.9).tobytes()
    # the step never writes a caller's gradient
    assert all(g.tobytes() == k.tobytes() for g, k in zip(grads, kept))


def test_sgd_blocked_step_updates_lstm_gate_views_of_w():
    cell = LstmCell(5, 7, rng=rng_mod.stream(8, "init"))
    W, b = cell.W.copy(), cell.b.copy()
    r = np.random.default_rng(8)
    grads = [{name: r.normal(size=p.shape).astype(p.dtype)
              for name, p in cell.params().items()} for _ in range(2)]
    opt = SgdMomentum(cell.params(), learning_rate=0.1, momentum=0.5)
    for g in grads:
        opt.step(g)
    for whole, start, name in ((cell.W, W, "W"), (cell.b, b, "b")):
        stacked = [np.concatenate([g[name + gate] for gate in LstmCell.GATES]) for g in grads]
        assert whole.tobytes() == reference_momentum_steps(start, stacked, 0.1, 0.5).tobytes()


def test_sgd_rejects_a_parameter_that_is_not_c_contiguous():
    with pytest.raises(ValueError, match="parameter 'w' is not C-contiguous"):
        SgdMomentum({"b": np.zeros(3), "w": np.zeros((4, 6))[:, ::2]})


def test_sgd_shape_mismatch():
    opt = SgdMomentum({"w": np.zeros(2)}, 0.1, 0.9)
    with pytest.raises(ValueError):
        opt.step({"w": np.zeros(3)})
    with pytest.raises(ValueError):
        opt.step({"w": np.zeros((1, 2))})
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
    return FitConfig(**{"epochs": 10, "batch_size": 4, "learning_rate": 1.0,
                        "momentum": 0.0, "seed": 3, **kw})


def test_fit_stops_after_patience_and_restores_earlier_of_tied_best():
    run = ScriptedRun([50.0, 70.0, 70.0, 60.0, 90.0])
    res = fit(run.params, 4, run.batch_loss, run.evaluate, fit_cfg(patience=2),
              maximize=True, baseline=-1.0)
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
    res = fit(run.params, 4, run.batch_loss, run.evaluate,
              fit_cfg(epochs=3, batch_size=2, eval_every=2), maximize=False)
    assert [(e, s) for e, s, _ in res.history] == [(0, 0), (1, 2), (2, 4), (3, 6)]
    assert res.best == 4.0 and res.epochs_run == 3 and res.steps == 6
    assert np.array_equal(run.params["w"], [2.0, 2.0])
    run = ScriptedRun([5.0, 6.0, 7.0, 8.0, 9.0])
    res = fit(run.params, 4, run.batch_loss, run.evaluate,
              fit_cfg(epochs=2, batch_size=2, eval_every=3), maximize=False)
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
