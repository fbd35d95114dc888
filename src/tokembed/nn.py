"""Minimal neural-network substrate built on numpy.

Everything here is explicit-backprop: layers return caches from ``forward``
and consume them in ``backward``.  Trainable arrays are exposed through
``params()`` dicts (name -> live array) so the optimizer, serialization, and
the gradient checker all speak one format.  Models train in float32;
gradient checks are meant to run on float64 instances.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod

ACTIVATIONS = ("linear", "relu", "tanh")


class TrainingDiverged(RuntimeError):
    """Raised when a training loss stops being finite."""


def relu(z):
    return np.maximum(z, 0.0)


def sigmoid(z):
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so exp never
    # overflows.  min(z, -z) rather than -|z| keeps the sign of a nan input.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, z.dtype.type(1), e) / (1 + e)


def glorot_uniform(rng, n_in, n_out, shape, dtype):
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Dense:
    """Affine map plus elementwise activation: y = g(W x + b).

    ``W`` has shape (n_out, n_in).  With ``rng=None`` all parameters start at
    zero, which unit tests rely on.
    """

    def __init__(self, n_in, n_out, activation="linear", rng=None, dtype=np.float32):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.activation = activation
        if rng is None:
            self.W = np.zeros((n_out, n_in), dtype=dtype)
        else:
            self.W = glorot_uniform(rng, n_in, n_out, (n_out, n_in), dtype)
        self.b = np.zeros(n_out, dtype=dtype)

    def forward(self, X):
        X = np.asarray(X, dtype=self.W.dtype)
        if X.ndim != 2 or X.shape[1] != self.n_in:
            raise ValueError(
                f"dense layer expects input of width {self.n_in}, got shape {X.shape}"
            )
        A = X @ self.W.T + self.b
        if self.activation == "relu":
            Y = relu(A)
        elif self.activation == "tanh":
            Y = np.tanh(A)
        else:
            Y = A
        return Y, (X, A, Y)

    def backward(self, dY, cache):
        X, A, Y = cache
        if self.activation == "relu":
            dA = dY * (A > 0)
        elif self.activation == "tanh":
            dA = dY * (1.0 - Y * Y)
        else:
            dA = dY
        grads = {"W": dA.T @ X, "b": dA.sum(axis=0)}
        dX = dA @ self.W
        return dX, grads

    def params(self):
        return {"W": self.W, "b": self.b}


class MLP:
    """Stack of Dense layers with manual backprop and optional inverted dropout.

    Dropout applies to the input and to every hidden activation, never to the
    final output; masks scale survivors by 1/(1-rate) so evaluation needs no
    rescaling.
    """

    def __init__(self, sizes, activations, rng=None, dtype=np.float32):
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        self.layers = [
            Dense(sizes[k], sizes[k + 1], activations[k], rng, dtype)
            for k in range(len(activations))
        ]

    @property
    def n_in(self):
        return self.layers[0].n_in

    @property
    def n_out(self):
        return self.layers[-1].n_out

    def forward(self, X, *, rng=None, input_rate=0.0, hidden_rate=0.0):
        dtype = self.layers[0].W.dtype
        X = np.asarray(X, dtype=dtype)
        masks = [None] * (len(self.layers) + 1)
        if rng is not None and input_rate > 0.0:
            masks[0] = dropout_mask(rng, X.shape, input_rate, dtype)
            X = X * masks[0]
        caches = []
        H = X
        for k, layer in enumerate(self.layers):
            H, cache = layer.forward(H)
            caches.append(cache)
            if k < len(self.layers) - 1 and rng is not None and hidden_rate > 0.0:
                masks[k + 1] = dropout_mask(rng, H.shape, hidden_rate, dtype)
                H = H * masks[k + 1]
        return H, (caches, masks)

    def backward(self, dY, cache):
        caches, masks = cache
        grads = {}
        d = dY
        for k in reversed(range(len(self.layers))):
            if masks[k + 1] is not None:
                d = d * masks[k + 1]
            d, layer_grads = self.layers[k].backward(d, caches[k])
            for name, g in layer_grads.items():
                grads[f"{k}.{name}"] = g
        if masks[0] is not None:
            d = d * masks[0]
        return d, grads

    def params(self):
        out = {}
        for k, layer in enumerate(self.layers):
            out[f"{k}.W"] = layer.W
            out[f"{k}.b"] = layer.b
        return out


class LstmCell:
    """Standard LSTM cell: sigmoid input/forget/output gates, tanh candidate,
    tanh on the cell state for the hidden output, no peepholes.

    Gate matrices have shape (n_hidden, n_in + n_hidden) and act on the
    concatenation [x; h_prev].  With ``rng`` given, the forget-gate bias
    starts at ``forget_bias``; with ``rng=None`` every parameter is zero.
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, n_in, n_hidden, rng=None, dtype=np.float32, forget_bias=1.0):
        self.n_in = int(n_in)
        self.n_hidden = int(n_hidden)
        joint = self.n_in + self.n_hidden
        for gate in self.GATES:
            if rng is None:
                W = np.zeros((n_hidden, joint), dtype=dtype)
            else:
                W = glorot_uniform(rng, joint, n_hidden, (n_hidden, joint), dtype)
            setattr(self, f"W{gate}", W)
            setattr(self, f"b{gate}", np.zeros(n_hidden, dtype=dtype))
        if rng is not None:
            self.bf[:] = forget_bias

    def zero_state(self, batch, dtype=None):
        dtype = dtype or self.Wi.dtype
        return (
            np.zeros((batch, self.n_hidden), dtype=dtype),
            np.zeros((batch, self.n_hidden), dtype=dtype),
        )

    def step(self, x, h_prev, c_prev):
        x = np.asarray(x, dtype=self.Wi.dtype)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"lstm expects input width {self.n_in}, got {x.shape}")
        if h_prev.shape != (x.shape[0], self.n_hidden) or c_prev.shape != h_prev.shape:
            raise ValueError("state shape mismatch")
        z = np.concatenate([x, h_prev], axis=1)
        i = sigmoid(z @ self.Wi.T + self.bi)
        f = sigmoid(z @ self.Wf.T + self.bf)
        o = sigmoid(z @ self.Wo.T + self.bo)
        g = np.tanh(z @ self.Wg.T + self.bg)
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        return h, c, (z, i, f, o, g, c_prev, tc)

    def step_backward(self, dh, dc, cache):
        z, i, f, o, g, c_prev, tc = cache
        do = dh * tc
        dct = dc + dh * o * (1.0 - tc * tc)
        df = dct * c_prev
        di = dct * g
        dg = dct * i
        dai = di * i * (1.0 - i)
        daf = df * f * (1.0 - f)
        dao = do * o * (1.0 - o)
        dag = dg * (1.0 - g * g)
        dz = dai @ self.Wi + daf @ self.Wf + dao @ self.Wo + dag @ self.Wg
        grads = {
            "Wi": dai.T @ z, "bi": dai.sum(axis=0),
            "Wf": daf.T @ z, "bf": daf.sum(axis=0),
            "Wo": dao.T @ z, "bo": dao.sum(axis=0),
            "Wg": dag.T @ z, "bg": dag.sum(axis=0),
        }
        dx = dz[:, : self.n_in]
        dh_prev = dz[:, self.n_in:]
        dc_prev = dct * f
        return dx, dh_prev, dc_prev, grads

    def params(self):
        out = {}
        for gate in self.GATES:
            out[f"W{gate}"] = getattr(self, f"W{gate}")
            out[f"b{gate}"] = getattr(self, f"b{gate}")
        return out


def softmax_logloss(logits, gold):
    """Cross-entropy of one prediction, computed with max subtraction.

    Returns (loss, gradient w.r.t. logits); the gradient is softmax minus the
    one-hot gold indicator.  Computed in float64 regardless of input dtype.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must be a non-empty vector")
    if not 0 <= gold < z.size:
        raise ValueError(f"gold index {gold} out of range for {z.size} classes")
    m = z.max()
    e = np.exp(z - m)
    s = e.sum()
    loss = float(np.log(s) + m - z[gold])
    grad = e / s
    grad[gold] -= 1.0
    return loss, grad


def softmax_logloss_batch(logits, gold):
    """Mean cross-entropy over a batch; gradient already divided by the batch size."""
    Z = np.asarray(logits)
    B = Z.shape[0]
    idx = np.arange(B)
    m = Z.max(axis=1, keepdims=True)
    e = np.exp(Z - m)
    s = e.sum(axis=1, keepdims=True)
    losses = np.log(s[:, 0]) + m[:, 0] - Z[idx, gold]
    grad = e / s
    grad[idx, gold] -= 1.0
    grad /= B
    return float(losses.mean()), grad


@dataclass
class RowGrad:
    """Gradient that is zero outside the listed rows of a 2-D parameter.

    ``values[k]`` is the gradient of row ``rows[k]``; ``rows`` holds no
    duplicates.
    """

    rows: np.ndarray
    values: np.ndarray


class SgdMomentum:
    """Heavy-ball SGD: v <- mu*v - lr*g, then theta <- theta + v.

    ``params`` is a dict of live arrays; velocity buffers start at zero and
    match parameter shapes.  A ``RowGrad`` applies the same rule to its rows
    and leaves the others as they are, which is what the dense rule does to
    a row whose gradient and velocity are zero.
    """

    def __init__(self, params, learning_rate=0.1, momentum=0.9):
        self.params = dict(params)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.velocity = {k: np.zeros_like(v) for k, v in self.params.items()}

    def step(self, grads):
        for name, p in self.params.items():
            if name not in grads:
                raise ValueError(f"missing gradient for parameter {name!r}")
            g = grads[name]
            if isinstance(g, RowGrad):
                rows, g = g.rows, g.values
                shape = (len(rows),) + p.shape[1:]
            else:
                rows, g = None, np.asarray(g)
                shape = p.shape
            if g.shape != shape:
                raise ValueError(
                    f"gradient shape {g.shape} for parameter {name!r} of shape "
                    f"{p.shape}, expected {shape}"
                )
            v = self.velocity[name] if rows is None else self.velocity[name][rows]
            v *= self.momentum
            v -= self.learning_rate * g.astype(p.dtype, copy=False)
            if rows is None:
                p += v
            else:
                self.velocity[name][rows] = v
                p[rows] += v


@dataclass
class FitResult:
    """What ``fit`` did: the best score, every evaluation as (epoch,
    minibatches taken, score), the epochs started and the minibatches taken."""

    best: float
    history: list
    epochs_run: int
    steps: int


def fit(params, n_items, batch_loss, evaluate, cfg, *, maximize, baseline=None,
        eval_every=0, patience=None):
    """Train the live ``params`` arrays by minibatch SGD with momentum and
    keep the best-scoring snapshot.

    ``cfg`` supplies ``epochs``, ``batch_size``, ``learning_rate``,
    ``momentum`` and ``seed``.  Each epoch visits the ``n_items`` training
    items in an order drawn from the ``"shuffle"`` stream of the seed,
    ``batch_size`` at a time; ``batch_loss(indices)`` returns the minibatch's
    (loss, grads), and a non-finite loss raises ``TrainingDiverged`` before
    any step is taken with it.  ``evaluate()`` scores the parameters after
    every ``eval_every``-th minibatch (none unless it is positive) and at
    each epoch end, at most once per minibatch.  A score strictly better than
    the best so far, higher when ``maximize`` and lower otherwise, snapshots
    the parameters.
    The first score to beat is ``baseline``; with ``None`` it is the score of
    the starting parameters, recorded as an evaluation after 0 minibatches.
    Training stops after ``patience`` epochs in a row without a better score
    (``None``: never), and the best snapshot is copied back into ``params``.
    Overflow and invalid-value warnings are silenced inside the loop: the
    loss check reports a diverged run in one line.
    """
    for name in ("epochs", "batch_size"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    if n_items <= 0:
        raise ValueError("no training items")
    opt = SgdMomentum(params, cfg.learning_rate, cfg.momentum)
    shuffle_rng = rng_mod.stream(cfg.seed, "shuffle")
    best_params = {k: v.copy() for k, v in params.items()}
    history = []
    epoch = step = best_epoch = 0
    if baseline is None:
        baseline = evaluate()
        history.append((epoch, step, baseline))
    best = baseline

    def checkpoint():
        nonlocal best, best_epoch
        score = evaluate()
        history.append((epoch, step, score))
        if score > best if maximize else score < best:
            best, best_epoch = score, epoch
            for k, v in params.items():
                best_params[k][...] = v

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = shuffle_rng.permutation(n_items)
            for k in range(0, n_items, cfg.batch_size):
                loss, grads = batch_loss(order[k:k + cfg.batch_size])
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite training loss in minibatch {step + 1} (epoch {epoch})")
                opt.step(grads)
                step += 1
                if eval_every > 0 and step % eval_every == 0:
                    checkpoint()
            if not history or history[-1][1] != step:
                checkpoint()
            stale = epoch - best_epoch  # epochs since the last better score
            if patience is not None and stale and stale >= patience:
                break

    for k, v in params.items():
        v[...] = best_params[k]
    return FitResult(best, history, epoch, step)


def anchored_l2(value, anchor, weight):
    """Penalty pulling ``value`` toward ``anchor``: weight * sum((v - a)^2).

    Returns (penalty, gradient w.r.t. value).
    """
    value = np.asarray(value)
    anchor = np.asarray(anchor)
    if value.shape != anchor.shape:
        raise ValueError("value and anchor shapes differ")
    d = value - anchor
    return float(weight * (d * d).sum()), (2.0 * weight) * d


def dropout_mask(rng, shape, rate, dtype=np.float32):
    """Mask of 0s (probability ``rate``) and 1/(1-rate) so expectations are kept."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    keep = (rng.random(size=shape) >= rate).astype(dtype)
    keep /= 1.0 - rate
    return keep


@dataclass
class GradCheckFailure:
    param: str
    index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    n_checked: int = 0
    max_rel_error: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def gradient_check(loss_and_grads, params, eps=1e-5, tol=1e-4,
                   max_coords_per_param=None, rng=None):
    """Compare analytic gradients against central finite differences.

    ``loss_and_grads`` takes no arguments, reads the live ``params`` arrays,
    and returns (loss, grads dict).  Each coordinate is perturbed in place by
    +/- eps; the relative error uses max(1, |analytic|, |numeric|) in the
    denominator.  Failures are collected in the report, never raised.
    """
    _, analytic = loss_and_grads()
    analytic = {k: np.array(v, copy=True) for k, v in analytic.items()}
    report = GradCheckReport()
    for name, arr in params.items():
        n = arr.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            idxs = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            idxs = range(n)
        for idx in idxs:
            orig = arr.flat[idx]
            arr.flat[idx] = orig + eps
            lp, _ = loss_and_grads()
            arr.flat[idx] = orig - eps
            lm, _ = loss_and_grads()
            arr.flat[idx] = orig
            numeric = (lp - lm) / (2.0 * eps)
            ana = float(analytic[name].flat[idx])
            rel = abs(ana - numeric) / max(1.0, abs(ana), abs(numeric))
            report.n_checked += 1
            report.max_rel_error = max(report.max_rel_error, rel)
            if rel > tol:
                report.failures.append(
                    GradCheckFailure(name, int(idx), ana, float(numeric), float(rel))
                )
    return report
