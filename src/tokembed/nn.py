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

ACTIVATIONS = ("linear", "relu")
FORGET_BIAS = 1.0  # initial forget-gate bias of an LstmCell drawn from an rng
# Elements per pass of ``SgdMomentum.step``.  A block of a parameter, its
# velocity, its gradient and lr * gradient (1 MB in float32) stays in a 2 MB
# L2 across the rule; on a tagger-sized step 2**15 and 2**16 ran fastest of
# 2**12 to 2**21, about 30 % faster than whole arrays.
STEP_BLOCK = 1 << 16


class TrainingDiverged(RuntimeError):
    """Raised when a training loss stops being finite."""


def relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


def sigmoid(z, out=None):
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so exp never
    # overflows.  min(z, -z) rather than -|z| keeps the sign of a nan input.
    # The numerator is max(e, z >= 0): 1 where z >= 0 since e <= 1, e (or its
    # nan) elsewhere; unlike a select on the sign it does not branch.  z is
    # read before ``out`` is written, so ``out`` may be z itself.
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, z >= 0, dtype=z.dtype)
    e += 1
    return np.divide(num, e, out=out)


def glorot_uniform(rng, n_in, n_out, shape, dtype):
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Dense:
    """Affine map plus elementwise activation: y = g(W x + b).

    ``W`` has shape (n_out, n_in).  With ``rng=None`` all parameters start at
    zero, which unit tests rely on.  The relu runs in place: the cache holds
    (input, output), and an output is positive where its pre-activation was.
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
        A = X @ self.W.T
        A += self.b  # in place: no second (B, n_out) array
        Y = relu(A, out=A) if self.activation == "relu" else A
        return Y, (X, Y)

    def backward(self, dY, cache, input_cols=slice(None)):
        """(dX, grads); ``dX`` holds only the input columns ``input_cols``,
        and is ``None`` without them."""
        X, Y = cache
        dA = dY * (Y > 0) if self.activation == "relu" else dY
        grads = {"W": dA.T @ X, "b": dA.sum(axis=0)}
        dX = None if input_cols is None else dA @ self.W[:, input_cols]
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

    def backward(self, dY, cache, input_cols=slice(None)):
        """(dX, grads); as in ``Dense.backward``, ``dX`` holds only the input
        columns ``input_cols``, and is ``None`` without them."""
        caches, masks = cache
        grads = {}
        d = dY
        for k in reversed(range(len(self.layers))):
            if masks[k + 1] is not None:
                d = d * masks[k + 1]
            d, layer_grads = self.layers[k].backward(
                d, caches[k], input_cols if k == 0 else slice(None))
            grads.update({f"{k}.{name}": g for name, g in layer_grads.items()})
        if masks[0] is not None and d is not None:
            d = d * masks[0][:, input_cols]
        return d, grads

    def params(self):
        return {f"{k}.{name}": v for k, layer in enumerate(self.layers)
                for name, v in layer.params().items()}


class LstmCell:
    """Standard LSTM cell: sigmoid input/forget/output gates, tanh candidate,
    tanh on the cell state for the hidden output, no peepholes.

    The gates are stacked in one matrix ``W`` of shape (4*n_hidden,
    n_in + n_hidden) and one bias ``b`` of length 4*n_hidden, in the row
    blocks i, f, o, g; the first ``n_in`` columns of ``W`` meet the input
    and the others the previous hidden state.  ``Wi``..``Wg`` and
    ``bi``..``bg`` are views of those blocks; ``params()`` names them, so
    the optimizer and the model file see four gates.  With ``rng`` given,
    each gate block is drawn in that order and the forget-gate bias starts
    at ``FORGET_BIAS``; with ``rng=None`` every parameter is zero.

    The cell runs over a whole window at once (Appleyard et al.,
    arXiv:1604.01946): ``forward`` projects every step's input in one
    product and ``backward`` forms the weight gradient of each column block
    in one product over all steps, so ``step`` and ``step_backward``
    multiply only by the hidden columns.
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, n_in, n_hidden, rng=None, dtype=np.float32):
        self.n_in = int(n_in)
        self.n_hidden = int(n_hidden)
        h, joint = self.n_hidden, self.n_in + self.n_hidden
        self.W = np.zeros((4 * h, joint), dtype=dtype)
        self.b = np.zeros(4 * h, dtype=dtype)
        for k, gate in enumerate(self.GATES):
            rows = slice(k * h, (k + 1) * h)
            if rng is not None:
                self.W[rows] = glorot_uniform(rng, joint, h, (h, joint), dtype)
            setattr(self, f"W{gate}", self.W[rows])
            setattr(self, f"b{gate}", self.b[rows])
        if rng is not None:
            self.bf[:] = FORGET_BIAS

    def forward(self, X=None, h0=None, steps=None, keep=False):
        """Run the cell over a window from a zero cell state; (H, cache).

        ``X`` holds the (T, B, n_in) inputs of the T steps, or is ``None``
        for ``steps`` zero inputs; ``h0`` is the (B, n_hidden) initial
        hidden state, ``None`` for zero.  ``H`` is the (T, B, n_hidden)
        hidden state of every step.  Each step's gates overwrite its block
        of the (T, B, 4*n_hidden) input projection, or of the bias alone
        without an input.  With ``keep`` the cache is what ``backward``
        reads; without it the cache is ``None``, a window without input
        holds one step's gates, and no step's cell state outlives the next
        step.
        """
        h, dtype = self.n_hidden, self.W.dtype
        if X is None:
            if h0 is None:
                raise ValueError("lstm window needs an input or a hidden state")
            T, B = int(steps), len(h0)
            # a zero input projects to the bias alone, written in at each step
            G = np.empty((T if keep else 1, B, 4 * h), dtype=dtype)
        else:
            X = np.asarray(X, dtype=dtype)
            if X.ndim != 3 or X.shape[2] != self.n_in:
                raise ValueError(f"lstm expects input width {self.n_in}, got {X.shape}")
            T, B = X.shape[:2]
            X = X.reshape(T * B, self.n_in)
            G = (X @ self.W[:, :self.n_in].T).reshape(T, B, 4 * h)
            G += self.b
        if h0 is not None and np.shape(h0) != (B, h):
            raise ValueError("state shape mismatch")
        S = np.empty((T + 1, B, h), dtype=dtype)  # h0 when given, then each step's h
        h_prev = c = None
        if h0 is not None:
            S[0] = h0
            h_prev = S[0]
        C, TC = [], []
        for t in range(T):
            if X is None:
                A = G[t if keep else 0]
                A[...] = self.b
            else:
                A = G[t]
            S[t + 1], c, tc = self.step(A, h_prev, c)
            h_prev = S[t + 1]
            if keep:
                C.append(c)
                TC.append(tc)
        return S[1:], ((X, h0 is not None, G, S, C, TC) if keep else None)

    def step(self, A, h_prev, c_prev):
        """One step from state (``h_prev``, ``c_prev``), ``None`` for a zero
        state; returns (h, c, tanh(c)).  ``A`` is the step's (B, 4*n_hidden)
        input projection, bias included: the hidden columns' product with
        ``h_prev`` is added to it, and it is overwritten with the gate
        activations."""
        if h_prev is not None:
            A += h_prev @ self.W[:, self.n_in:].T
        # sigmoid on i, f, o and tanh on g
        h3 = 3 * self.n_hidden
        sigmoid(A[:, :h3], out=A[:, :h3])
        np.tanh(A[:, h3:], out=A[:, h3:])
        i, f, o, g = self._gates(A)
        c = i * g
        if c_prev is not None:
            c += f * c_prev
        tc = np.tanh(c)
        return o * tc, c, tc

    def step_backward(self, dh, dc, A, h_prev, c_prev, tc, dA):
        """Gradients of one step from those w.r.t. its h (``dh``) and its c
        (``dc``, ``None`` for zero); ``A`` holds the step's gate activations
        and ``h_prev``, ``c_prev`` and ``tc`` are what ``step`` took and
        returned.  The gradients of the gate pre-activations are written
        into the (B, 4*n_hidden) array ``dA``; returns (dh_prev, dc_prev),
        each ``None``, and not formed, for a zero state.  ``dh_prev`` is one
        product with the hidden columns of ``W``."""
        i, f, o, g = self._gates(A)
        do = dh * tc
        dct = dh * o * (1.0 - tc * tc)
        if dc is not None:
            dct += dc
        dai, daf, dao, dag = self._gates(dA)
        np.multiply(dct * g * i, 1.0 - i, out=dai)
        if c_prev is None:
            daf[...] = 0
        else:
            np.multiply(dct * c_prev * f, 1.0 - f, out=daf)
        np.multiply(do * o, 1.0 - o, out=dao)
        np.multiply(dct * i, 1.0 - g * g, out=dag)
        dh_prev = None if h_prev is None else dA @ self.W[:, self.n_in:]
        dc_prev = None if c_prev is None else np.multiply(dct, f, out=dct)
        return dh_prev, dc_prev

    def backward(self, dH, cache):
        """Gradients of a window run by ``forward`` with ``keep``: (dh0,
        grads).  ``dH`` holds the gradients w.r.t. the hidden states of the
        window's last ``len(dH)`` steps; those of earlier steps are zero.
        ``dh0`` is the gradient w.r.t. ``h0``, ``None`` when that was zero.
        No gradient w.r.t. the input is formed, since no caller reads it.
        The steps' gate gradients fill one (T, B, 4*n_hidden) array, so each
        column block of ``dW`` is one product over all steps and ``db`` one
        sum; a block that met only zeros is zero."""
        X, has_h0, G, S, C, TC = cache
        T, B, width = G.shape
        dA = np.empty_like(G)
        skip = T - len(dH)
        dh = dc = None
        for t in reversed(range(T)):
            if t >= skip:
                dh = dH[t - skip] if dh is None else dh + dH[t - skip]
            dh, dc = self.step_backward(dh, dc, G[t], S[t] if t or has_h0 else None,
                                        C[t - 1] if t else None, TC[t], dA[t])
        dA = dA.reshape(T * B, width)
        n = self.n_in
        dW = np.empty_like(self.W)
        if X is None:
            dW[:, :n] = 0
        else:
            np.matmul(dA.T, X, out=dW[:, :n])
        k = 0 if has_h0 else 1  # the first step whose previous hidden state is not zero
        h = self.n_hidden
        np.matmul(dA[k * B:].T, S[k:T].reshape((T - k) * B, h), out=dW[:, n:])
        db = dA.sum(axis=0)
        grads = {f"{name}{gate}": d[j * h:(j + 1) * h] for j, gate in enumerate(self.GATES)
                 for name, d in (("W", dW), ("b", db))}
        return dh, grads

    def _gates(self, M):
        """The i, f, o, g column blocks of a (B, 4*n_hidden) array."""
        h = self.n_hidden
        return [M[:, k * h:(k + 1) * h] for k in range(4)]

    def params(self):
        return {name + gate: getattr(self, name + gate) for gate in self.GATES for name in "Wb"}


def softmax_logloss_rows(logits, gold):
    """Cross-entropy of each row of ``logits`` against its ``gold`` column,
    with max subtraction: (per-row losses, gradient w.r.t. logits, softmax
    minus the one-hot gold indicator), both in the dtype of ``logits``."""
    Z = np.asarray(logits)
    rows = np.arange(len(Z))
    m = Z.max(axis=1, keepdims=True)
    e = np.exp(Z - m)
    s = e.sum(axis=1, keepdims=True)
    grad = e / s
    grad[rows, gold] -= 1.0
    return np.log(s[:, 0]) + m[:, 0] - Z[rows, gold], grad


def softmax_logloss(logits, gold):
    """Cross-entropy of one prediction; (loss, gradient w.r.t. logits).
    Computed in float64 regardless of input dtype."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must be a non-empty vector")
    if not 0 <= gold < z.size:
        raise ValueError(f"gold index {gold} out of range for {z.size} classes")
    losses, grad = softmax_logloss_rows(z[None, :], [gold])
    return float(losses[0]), grad[0]


def softmax_logloss_batch(logits, gold):
    """Mean cross-entropy over a batch; gradient already divided by the batch size."""
    losses, grad = softmax_logloss_rows(logits, gold)
    grad /= len(losses)
    return float(losses.mean()), grad


class SgdMomentum:
    """Heavy-ball SGD: v <- mu*v - lr*g, then theta <- theta + v.

    ``params`` is a dict of live C-contiguous arrays; velocity buffers start
    at zero and match parameter shapes, and so must every gradient.  A step
    runs the rule over ``STEP_BLOCK`` elements of a parameter at a time,
    with ``lr * g`` in one preallocated block, and never writes a gradient.
    """

    def __init__(self, params, learning_rate=0.1, momentum=0.9):
        self.params = dict(params)
        for name, p in self.params.items():
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.velocity = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._scaled = {p.dtype: np.empty(STEP_BLOCK, p.dtype) for p in self.params.values()}

    def step(self, grads):
        for name, p in self.params.items():
            if name not in grads:
                raise ValueError(f"missing gradient for parameter {name!r}")
            g = np.asarray(grads[name])
            if g.shape != p.shape:
                raise ValueError(
                    f"gradient shape {g.shape} for parameter {name!r} of shape {p.shape}")
            g, v, p = g.reshape(-1), self.velocity[name].reshape(-1), p.reshape(-1)
            scaled = self._scaled[p.dtype]
            for k in range(0, len(p), STEP_BLOCK):
                block = slice(k, k + STEP_BLOCK)
                vb = v[block]
                lr_g = np.multiply(g[block], self.learning_rate, out=scaled[:len(vb)],
                                   dtype=p.dtype)
                vb *= self.momentum
                vb -= lr_g
                p[block] += vb


@dataclass
class FitConfig:
    """How ``fit`` trains: ``epochs`` passes over the training items,
    ``batch_size`` items per minibatch, the SGD ``learning_rate`` and
    ``momentum``, and the ``seed`` of the run's random streams (``fit``
    draws the minibatch order from its ``"shuffle"`` stream).  Training stops
    after ``patience`` epochs in a row without a better score (``None``:
    never), and the parameters are scored after every ``eval_every``-th
    minibatch (none unless it is positive) as well as at each epoch end."""

    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    seed: int
    patience: int | None = None
    eval_every: int = 0

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and at least 0, "
                             f"got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")


@dataclass
class FitResult:
    """What ``fit`` did: the best score, every evaluation as (epoch,
    minibatches taken, score), the epochs started and the minibatches taken."""

    best: float
    history: list
    epochs_run: int
    steps: int


def fit(params, n_items, batch_loss, evaluate, cfg, *, maximize, baseline=None):
    """Train the live ``params`` arrays as the ``FitConfig`` ``cfg`` says
    and keep the best-scoring snapshot.

    Each epoch visits the ``n_items`` training items in an order drawn from
    the ``"shuffle"`` stream of ``cfg.seed``; ``batch_loss(indices)``
    returns a minibatch's (loss, grads), and a non-finite loss raises
    ``TrainingDiverged`` before any step is taken with it.  ``evaluate()``
    scores the parameters at the checkpoints ``cfg`` names, at most once per
    minibatch.  A score strictly better than the best so far, higher when
    ``maximize`` and lower otherwise, snapshots the parameters.
    The first score to beat is ``baseline``; with ``None`` it is the score of
    the starting parameters, recorded as an evaluation after 0 minibatches.
    Once training stops, the best snapshot is copied back into ``params``:
    unless no score beat a given ``baseline``, ``best`` scores the
    parameters left.
    Overflow and invalid-value warnings are silenced inside the loop: the
    loss check reports a diverged run in one line.
    """
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
                if cfg.eval_every > 0 and step % cfg.eval_every == 0:
                    checkpoint()
            if not history or history[-1][1] != step:
                checkpoint()
            stale = epoch - best_epoch  # epochs since the last better score
            if cfg.patience is not None and stale and stale >= cfg.patience:
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
